"""Benchmark of the emgeat pipeline: offline LOPO study and live server.

Run from the repository root:

    python3 perfbench/run.py --workload lopo16 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload prints its metrics by name and unit, then as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
`all` runs every workload in its own process and prints a summary.
See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread in this process and, by inheritance, the server.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
NAMES = ("lopo16", "meal_pair", "paced_bites")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in a fresh process; print its metrics and a summary."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "emgeat" / "__init__.py").is_file():
        print("run.py: ./src/emgeat not found; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(src))
    import emgeat

    if Path(emgeat.__file__).resolve().parent != (src / "emgeat").resolve():
        print(f"run.py: emgeat imported from {emgeat.__file__}, not ./src", file=sys.stderr)
        return 2
    import wire
    import workloads

    os.sched_setaffinity(0, wire.CLIENT_CPUS)

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), out_dir, src)
    result = workloads.WORKLOADS[args.workload](run)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']},"
          f" correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
