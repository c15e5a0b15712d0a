"""Run the `emgeat` command line from the source tree, optionally traced.

    python3 perfbench/serve_launcher.py --trace-out TRACE.npz -- serve --model M ...

With an empty --trace-out the command runs as is. Otherwise the emgeat
modules are traced (see tracing.py) and the spans are written to TRACE.npz
when the command returns, which for `serve` is on SIGINT.
"""

import time

LAUNCHED = time.perf_counter()

import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    sep = argv.index("--")
    if argv[:sep][:1] != ["--trace-out"] or len(argv[:sep]) != 2:
        print("usage: serve_launcher.py --trace-out PATH -- emgeat-args...", file=sys.stderr)
        return 2
    trace_out, cli_args = argv[1], argv[sep + 1 :]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    # A parent that ignores SIGINT would pass that on; stop() relies on it.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.extra_hooks["io.server.serve"] = lambda tracer, args, result: tracer.count(
            "cli.serve_ready_s", time.perf_counter() - LAUNCHED
        )
        tracer.install()
        tracer.active = True

    from emgeat import cli

    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
