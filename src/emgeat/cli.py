"""Command-line front end for the chewing-analysis pipeline.

One binary, subcommand per pipeline stage. Outputs are plain delimited text
so downstream scripts (and the test suite) can diff them directly.
"""

import argparse
import dataclasses
import math
import signal
import sys
from pathlib import Path

import numpy as np

from . import feedback as _feedback
from . import features as _features
from . import io as _io
from . import learn as _learn
from . import metrics as _metrics
from . import realtime as _realtime
from . import signal as _signal
from . import synth as _synth


def _parse_artifact(text: str):
    # kind:onset:termination, e.g. speech:10:12.5
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected kind:onset:termination, got {text!r}"
        )
    kind, onset, term = parts
    try:
        return (kind, float(onset), float(term))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad artifact interval {text!r}")


def _parse_grid(text: str) -> list:
    try:
        grid = [float(v) for v in text.split(",") if v]
    except ValueError:
        grid = []
    if not grid or not all(math.isfinite(c) and c > 0 for c in grid):
        raise argparse.ArgumentTypeError(f"penalty grid {text!r} needs positive, finite values")
    return grid


def cmd_generate(args) -> int:
    plan = _synth.SessionPlan(
        duration_s=args.duration,
        chew_rate_hz=args.rate,
        chew_duration_mean_s=args.chew_duration,
        swallow_every_n_chews=args.swallow_every,
        snr_db=args.snr,
        artifact_schedule=tuple(args.artifact),
        seed=args.seed,
        baseline_lead_s=args.baseline_lead,
        participant_id=args.participant,
    )
    recording = _synth.gen_session(plan)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _io.write_recording(recording, out_dir / f"{args.participant}.csv")
    chews = len(recording.annotations_of("chew"))
    swallows = len(recording.annotations_of("swallow"))
    print(f"wrote {path} ({chews} chews, {swallows} swallows)")
    return 0


def cmd_preprocess(args) -> int:
    recording = _io.read_recording(args.infile)
    processed = _signal.preprocess(recording.channel(args.channel), recording.sample_rate)
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("t_s,value\n")
        for i, v in enumerate(processed.samples):
            fh.write(f"{float(i / processed.rate)!r},{float(v)!r}\n")
    print(f"wrote {out} ({processed.samples.size} samples at {processed.rate} Hz)")
    return 0


def cmd_featurize(args) -> int:
    length = _features.CHEW_WINDOW_S if args.task == "chew" else _features.SWALLOW_WINDOW_S
    # Checks --hop before the read, on both paths; --realtime then ignores it.
    spec = _features.WindowSpec(length_s=length, hop_s=args.hop)
    recording = _io.read_recording(args.infile)
    if args.realtime:
        profile = _realtime.calibrate(
            [recording.channel(_realtime.STREAM_CHANNEL)],
            recording.sample_rate,
            source=recording.participant_id,
        )
        matrix = _realtime.rt_training_set(recording, profile)
    else:
        matrix = _features.build_feature_matrix(recording, spec, args.task)
    path = _io.write_dataset(matrix, args.out)
    positives = sum(1 for l in matrix.labels if l != _features.NEGATIVE_LABEL)
    print(f"wrote {path} ({matrix.n_rows} windows, {positives} positive)")
    return 0


def _load_matrices(paths) -> "_features.FeatureMatrix":
    return _features.concat_matrices([_io.read_dataset(p) for p in paths])


def cmd_train(args) -> int:
    unweighted = _learn.TrainConfig(c=args.c, seed=args.seed)  # checks C before the read
    matrix = _load_matrices(args.infile)
    labels = list(matrix.labels)
    weights = _learn.compute_class_weights(labels)
    base = dataclasses.replace(unweighted, class_weights=weights)
    if args.grid:
        config, results = _learn.grid_search_cv(
            matrix.values,
            labels,
            matrix.feature_names,
            args.positive,
            args.grid,
            base_config=base,
            k=args.folds,
        )
        for candidate, mean_f1 in results:
            print(f"grid,c={candidate.c!r},mean_f1={mean_f1!r}")
        print(f"selected,c={config.c!r}")
    else:
        config = base
    model = _learn.train_linear_svm(
        matrix.values, labels, matrix.feature_names, args.positive, config
    )
    path = _io.save_model(model, args.out)
    info = model.train_info
    print(
        f"wrote {path} (converged={info['converged']}, epochs={info['epochs']},"
        f" objective={info['objective']!r}, grad_norm={info['grad_norm']!r})"
    )
    return 0


def cmd_eval_lopo(args) -> int:
    config = _learn.TrainConfig(c=args.c, seed=args.seed)  # checks C before the read
    matrix = _load_matrices(args.infile)
    report = _learn.lopo_evaluate(matrix, args.positive, config)
    print("participant,n_test,precision,recall,f1")
    for fold in report.folds:
        prf = fold.metrics[args.positive]
        print(
            f"{fold.participant},{fold.n_test},{prf.precision!r},"
            f"{prf.recall!r},{prf.f1!r}"
        )
    mean = report.mean[args.positive]
    print(f"average,,{mean.precision!r},{mean.recall!r},{mean.f1!r}")
    print(f"f1_std,,,,{report.f1_std[args.positive]!r}")
    return 0


def cmd_analyze(args) -> int:
    _metrics.check_gap_cap(args.gap_cap)  # before the log is read
    events = _io.read_event_log(args.infile)
    timeline = _metrics.correct_and_segment(events, gap_cap_s=args.gap_cap)
    report = _metrics.session_metrics(timeline)
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if value is not None and not isinstance(value, int):
            value = repr(float(value))
        print(f"{field.name},{'undefined' if value is None else value}")
    return 0


def cmd_serve(args) -> int:
    config = _io.ServerConfig(  # checks the port and rate before the model is read
        host=args.host,
        port=args.port,
        log_dir=Path(args.log_dir) if args.log_dir else None,
        reference_rate_hz=args.reference_rate,
    )
    server = _io.serve(_io.load_model(args.model), config)
    previous = {}
    try:
        # `serve &` from a non-interactive shell starts with SIGINT ignored;
        # both stop signals raise KeyboardInterrupt, so the shutdown runs.
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, signal.default_int_handler)
        print(f"listening on {config.host}:{server.port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
    return 0


def cmd_replay(args) -> int:
    # The numbers first: a missing file must not hide a bad one.
    _io.client.check_options(args.port, args.speed, args.frame, args.reference_rate)
    recording = _io.read_recording(args.infile)
    result = _io.stream_client(
        recording,
        args.host,
        args.port,
        speed=args.speed,
        frame_s=args.frame,
        reference_rate_hz=args.reference_rate,
    )
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write("\n".join(result.transcript) + "\n")
    for t, rate in result.rates:
        print(f"rate,{float(t)!r},{float(rate)!r}")
    for t, label in result.levels:
        print(f"level,{float(t)!r},{label}")
    if result.errors:
        for reason in result.errors:
            print(f"error: {reason}", file=sys.stderr)
        return 1
    if result.reported_events is None:
        print("error: session closed without bye", file=sys.stderr)
        return 1
    print(f"events={result.reported_events}")
    return 0


def cmd_feedback_sim(args) -> int:
    normalizer = _feedback.RateNormalizer(reference_rate_hz=args.reference_rate)
    level = _feedback.FeedbackLevel.NO_PULSE  # as a server session starts
    for t, rate in _io.read_rate_series(args.infile):
        new = _feedback.map_level(_feedback.normalize_rate(rate, normalizer))
        if new is not level:
            print(f"{float(t)!r},{new.label}")
        level = new
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgeat",
        description="Synthetic chewing/swallowing pipeline: generate sessions,"
        " extract features, train and evaluate classifiers, analyze event"
        " logs, and stream live sessions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    plan = _synth.SessionPlan()  # the defaults of every generate flag
    p = sub.add_parser("generate", help="synthesize a session recording")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--participant", default=plan.participant_id)
    p.add_argument("--duration", type=float, default=plan.duration_s, help="seconds")
    p.add_argument("--rate", type=float, default=plan.chew_rate_hz, help="chews per second")
    p.add_argument(
        "--chew-duration", type=float, default=plan.chew_duration_mean_s, help="mean seconds"
    )
    p.add_argument(
        "--swallow-every", type=int, default=plan.swallow_every_n_chews, metavar="N"
    )
    p.add_argument("--snr", type=float, default=plan.snr_db, help="dB")
    p.add_argument(
        "--artifact",
        action="append",
        default=[],
        type=_parse_artifact,
        metavar="KIND:ON:OFF",
        help="speech/motion interval, repeatable",
    )
    p.add_argument("--baseline-lead", type=float, default=plan.baseline_lead_s, help="seconds")
    p.add_argument("--seed", type=int, default=plan.seed)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="condition one channel to a text file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--channel", default="masseter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("featurize", help="recording -> windowed feature dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", choices=sorted(_features.TASKS), default="chew")
    p.add_argument("--hop", type=float, default=0.25, help="seconds")
    p.add_argument(
        "--realtime",
        action="store_true",
        help="streaming 7-feature variant (calibrated on masseter, chew task only)",
    )
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit the linear classifier on datasets")
    p.add_argument("--in", dest="infile", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--positive", default="C", help="positive class label")
    p.add_argument("--c", type=float, default=_learn.DEFAULT_C, help="penalty")
    p.add_argument(
        "--grid",
        type=_parse_grid,
        default=None,
        metavar="C1,C2,...",
        help="grid-search the penalty by k-fold F1",
    )
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-lopo", help="leave-one-participant-out evaluation table")
    p.add_argument("--in", dest="infile", nargs="+", required=True)
    p.add_argument("--positive", default="C")
    p.add_argument("--c", type=float, default=_learn.DEFAULT_C)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval_lopo)

    p = sub.add_parser("analyze", help="event log -> session metrics report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gap-cap", type=float, default=_metrics.DEFAULT_GAP_CAP_S)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("serve", help="run the live classification server")
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--log-dir", default=None)
    p.add_argument(
        "--reference-rate",
        type=float,
        default=_io.DEFAULT_REFERENCE_RATE_HZ,
        help="chews/s mapped to mid-scale feedback",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("replay", help="stream a recording file to a server")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--speed", type=float, default=1.0, help="0 floods, 10 = x10")
    p.add_argument(
        "--frame", type=float, default=_io.client.DEFAULT_FRAME_S, help="seconds per frame"
    )
    p.add_argument("--reference-rate", type=float, default=None)
    p.add_argument("--transcript", default=None, help="write server replies here")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("feedback-sim", help="rate series -> level transitions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--reference-rate", type=float, default=_io.DEFAULT_REFERENCE_RATE_HZ)
    p.set_defaults(func=cmd_feedback_sim)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"emgeat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
