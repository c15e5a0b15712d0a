"""Release gate: one test per shipping criterion, each printing a verdict.

Every test computes its own pass/fail with the tolerance the criterion
states, records a one-line verdict (shown in the terminal summary), and then
asserts. Heavier artifacts (the six-participant corpus, the streaming model)
are built once and shared across criteria.

Run `pytest tests/test_acceptance.py -v` for the full gate; the verdict
lines appear under "acceptance criteria" at the end of the run.
"""

import functools
import time

import numpy as np
from scipy.signal import sos2zpk

import conftest
import emgeat.events as events
import emgeat.features as feats
import emgeat.feedback as feedback
import emgeat.io as io
import emgeat.learn as learn
import emgeat.metrics as metrics
import emgeat.realtime as rt
import emgeat.signal as sig
import emgeat.synth as synth
from test_features import naive_feature_vector
from test_learn import make_blobs, objective_trace
from test_signal import analytic_bandpass_mag, db, digital_mag


def check(number, name, body):
    """Run one criterion body, record its verdict line, assert the result."""
    try:
        ok, detail = body()
    except Exception as exc:
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {number:2d} [{name}]: FAIL ({exc!r})"
        )
        raise
    line = f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --- shared heavy artifacts ---------------------------------------------------


@functools.lru_cache(maxsize=1)
def participant_corpus():
    """Six seeded participants, 3 minutes each, swallow every 7th chew."""
    return tuple(
        synth.gen_session(
            synth.SessionPlan(
                duration_s=180.0,
                swallow_every_n_chews=7,
                snr_db=20.0,
                seed=110 + i,
                participant_id=f"P{i:02d}",
            )
        )
        for i in range(6)
    )


@functools.lru_cache(maxsize=1)
def stream_setup():
    """Calibration profile plus a model fitted on five training sessions."""
    cal = synth.gen_session(
        synth.SessionPlan(duration_s=30.0, seed=199, participant_id="CAL")
    )
    profile = rt.calibrate([cal.channel("masseter")], cal.sample_rate, source="CAL")
    mats = [
        rt.rt_training_set(
            synth.gen_session(
                synth.SessionPlan(duration_s=60.0, seed=s, participant_id=f"T{s}")
            ),
            profile,
        )
        for s in range(200, 205)
    ]
    X = np.vstack([m.values for m in mats])
    y = np.concatenate([m.labels for m in mats])
    model = learn.train_linear_svm(
        X,
        y,
        feature_names=rt.RT_FEATURE_NAMES,
        positive_label="C",
        config=learn.TrainConfig(c=1.0, class_weights=learn.compute_class_weights(y)),
    )
    return profile, model


# --- criteria -----------------------------------------------------------------


def test_criterion_01_feature_oracle_equivalence():
    def body():
        rng = np.random.default_rng(1234)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            scale = 10.0 ** rng.uniform(-3, 2)
            seg = scale * rng.standard_normal(512)
            thr = float(rng.uniform(0.0, 0.5 * scale))
            cyc = (float(rng.uniform(0, 2)), float(rng.integers(0, 30)))
            got = feats.extract_features(seg, 102.4, thr, *cyc)
            want = naive_feature_vector(seg, 102.4, thr, *cyc)
            for g, w in zip(got, want):
                worst = max(worst, abs(g - w) / max(1.0, abs(w)))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 5.0
        return ok, f"max rel err {worst:.2e} over 100x512 windows in {elapsed:.2f} s"

    check(1, "window features match naive oracle", body)


def test_criterion_02_spectral_features_on_pure_tone():
    def body():
        fs = 1024.0
        x = np.sin(2 * np.pi * 80.0 * np.arange(512) / fs)
        row = feats.extract_features(x, fs, 0.0)
        by_name = dict(zip(feats.FEATURE_NAMES, row))
        _, power = feats.periodogram(x, fs)
        ok = (
            abs(by_name["mnf"] - 80.0) <= 2.0
            and abs(by_name["mdf"] - 80.0) <= 2.0
            and by_name["mnp"] == np.mean(power)
        )
        return ok, (
            f"mnf {by_name['mnf']:.3f} Hz, mdf {by_name['mdf']:.3f} Hz,"
            " mnp exact"
        )

    check(2, "spectral features on a pure 80 Hz tone", body)


def test_criterion_03_bandpass_fidelity():
    def body():
        fs = 1024.0
        low_hz, high_hz = sig.EMG_BAND_HZ
        sos = sig.bandpass(fs)
        edge_lo = db(digital_mag(sos, low_hz, fs))
        edge_hi = db(digital_mag(sos, high_hz, fs))
        stop = db(digital_mag(sos, 5.0, fs))
        _, poles, _ = sos2zpk(sos)
        sweep = np.linspace(6.0, 508.0, 257)
        oracle_err = max(
            abs(
                db(digital_mag(sos, f, fs))
                - db(
                    analytic_bandpass_mag(f, low_hz, high_hz, sig.FILTER_ORDER, fs=fs)
                )
            )
            for f in sweep
        )
        ok = (
            abs(edge_lo + 3.0) <= 0.5
            and abs(edge_hi + 3.0) <= 0.5
            and stop <= -30.0
            and np.all(np.abs(poles) < 1.0)
            and oracle_err <= 1e-6
        )
        return ok, (
            f"edges {edge_lo:+.3f}/{edge_hi:+.3f} dB, 5 Hz {stop:.1f} dB,"
            f" max |pole| {np.max(np.abs(poles)):.6f},"
            f" oracle gap {oracle_err:.1e} dB"
        )

    check(3, "band-pass design vs analytic magnitude oracle", body)


def test_criterion_04_burst_detection_precision_recall():
    def body():
        def iou(a, b):
            inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
            return inter / (max(a[1], b[1]) - min(a[0], b[0]))

        hits = n_truth = n_detected = 0
        for seed in (33, 34, 35):
            plan = synth.SessionPlan(
                duration_s=60.0, chew_rate_hz=1.5, snr_db=20.0, seed=seed
            )
            recording = synth.gen_session(plan)
            envelope = sig.preprocess(
                recording.channel("masseter"), recording.sample_rate
            )
            rate = sig.envelope_rate(recording.sample_rate)
            lead = int(plan.baseline_lead_s * rate)
            thr = events.activity_threshold(envelope[:lead])
            bursts = list(zip(*events.detect_bursts(envelope, rate, thr)))
            truth = [
                (a.onset_s, a.termination_s)
                for a in recording.annotations_of("chew")
            ]
            used = set()
            for t in truth:
                for i, b in enumerate(bursts):
                    if i not in used and iou(t, b) >= 0.5:
                        hits += 1
                        used.add(i)
                        break
            n_truth += len(truth)
            n_detected += len(bursts)
        recall = hits / n_truth
        precision = hits / n_detected
        ok = recall >= 0.95 and precision >= 0.95
        return ok, f"recall {recall:.4f}, precision {precision:.4f} over 3 sessions"

    check(4, "threshold burst detection at IoU >= 0.5", body)


def test_criterion_05_classifier_training_correctness():
    def body():
        X, y = make_blobs()
        model = learn.train_linear_svm(X, y, ("f1", "f2"), "C")
        accuracy = float(np.mean(learn.predict(model, X) == y))
        _, history = objective_trace(X, y, ("f1", "f2"))
        monotone = all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

        rng = np.random.default_rng(7)
        Z1 = np.hstack([rng.standard_normal((40, 3)), np.ones((40, 1))])
        labels = np.where(rng.uniform(size=40) > 0.5, 1.0, -1.0)
        sw = rng.uniform(0.5, 2.0, size=40)
        eps, c = 1e-6, 5.0
        worst = 0.0
        for _ in range(10):
            w = rng.standard_normal(3)
            theta = np.append(w, float(rng.standard_normal()))  # (w, b)
            _, grad, _ = learn._evaluate(Z1, labels, sw, c, theta)
            for k in range(4):
                step = np.zeros(4)
                step[k] = eps
                num = (
                    learn._evaluate(Z1, labels, sw, c, theta + step)[0]
                    - learn._evaluate(Z1, labels, sw, c, theta - step)[0]
                ) / (2 * eps)
                worst = max(worst, abs(grad[k] - num) / max(1.0, abs(num)))
        ok = accuracy == 1.0 and monotone and worst <= 1e-5
        return ok, (
            f"blob accuracy {accuracy:.3f}, objective monotone {monotone},"
            f" gradient err {worst:.2e}"
        )

    check(5, "squared-hinge training on separable blobs", body)


def test_criterion_06_cross_participant_window_f1():
    def body():
        t0 = time.perf_counter()
        recs = participant_corpus()
        results = {}
        for task, window_s, floor in (
            ("chew", feats.CHEW_WINDOW_S, 0.90),
            ("swallow", feats.SWALLOW_WINDOW_S, 0.80),
        ):
            spec = feats.WindowSpec(length_s=window_s, hop_s=0.25)
            matrix = feats.concat_matrices(
                [feats.build_feature_matrix(r, spec, task) for r in recs]
            )
            positive = feats.TASKS[task][0]
            report = learn.lopo_evaluate(matrix, positive)
            results[task] = (report.mean[positive].f1, report.f1_std[positive], floor)
        elapsed = time.perf_counter() - t0
        ok = elapsed < 120.0 and all(
            mean >= floor and std <= 0.05 for mean, std, floor in results.values()
        )
        chew, swallow = results["chew"], results["swallow"]
        return ok, (
            f"chew F1 {chew[0]:.4f} (sd {chew[1]:.4f}),"
            f" swallow F1 {swallow[0]:.4f} (sd {swallow[1]:.4f}),"
            f" 6 participants in {elapsed:.1f} s"
        )

    check(6, "held-out participant window F1", body)


def test_criterion_07_streaming_count_rate_latency():
    def body():
        profile, model = stream_setup()
        bound = rt.SEGMENT_S + rt.VOTE_WINDOW * rt.HOP_S + rt.SEGMENT_S
        worst_count = worst_rate = worst_latency = 0.0
        for seed in range(299, 304):
            plan = synth.SessionPlan(
                duration_s=60.0, seed=seed, participant_id=f"H{seed}"
            )
            session = synth.gen_session(plan)
            raw = session.channel("masseter")
            engine = rt.StreamEngine(model, profile)
            for i in range(0, raw.size, 512):
                pushed_s = min(i + 512, raw.size) / session.sample_rate
                for event in engine.push(raw[i : i + 512]):
                    worst_latency = max(worst_latency, pushed_s - event.termination_s)
            for event in engine.finalize():
                worst_latency = max(
                    worst_latency, raw.size / session.sample_rate - event.termination_s
                )
            truth = len(session.annotations_of("chew"))
            worst_count = max(
                worst_count, abs(len(engine.events) - truth) / truth
            )
            rates = [
                rt.live_rate(engine.events, t)
                for t in np.arange(6.0, 60.0, 1.0)
            ]
            worst_rate = max(
                worst_rate,
                abs(float(np.mean(rates)) - plan.chew_rate_hz) / plan.chew_rate_hz,
            )
        ok = worst_count <= 0.10 and worst_rate <= 0.15 and worst_latency <= bound
        return ok, (
            f"5 held-out sessions: count err <= {worst_count:.3f},"
            f" rate err <= {worst_rate:.3f},"
            f" latency <= {worst_latency:.3f} s (bound {bound:.2f} s)"
        )

    check(7, "streaming detection count, live rate, latency", body)


def test_criterion_08_session_metrics_exactness():
    def body():
        hand = [
            metrics.ChewEvent(0.0, 0.5),
            metrics.ChewEvent(1.0, 1.5),
            metrics.ChewEvent(2.0, 2.5),
        ]
        report = metrics.session_metrics(hand)
        hand_ok = (
            report.overall_rate_hz == 1.2
            and report.mean_chew_period_s == 2.5 / 3.0
            and report.chew_duration_s == 0.5
            and report.chew_gap_s == 0.5
            and report.n_sequences == 1
            and report.chews_per_sequence == 3.0
        )

        rng = np.random.default_rng(99)
        invariants_ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            raw = []
            t = float(rng.uniform(0, 5))
            for _ in range(n):
                dur = float(rng.uniform(0.05, 1.5))
                raw.append(metrics.ChewEvent(t, t + dur))
                t += dur + float(rng.uniform(0.01, 6.0))
            cap = float(rng.uniform(0.5, 5.0))
            capped = metrics.session_metrics(raw, gap_cap_s=cap)
            durations = np.array([e.duration_s for e in raw])
            gaps_in = np.array(
                [b.onset_s - a.termination_s for a, b in zip(raw, raw[1:])]
            )
            # The corrected span keeps every duration and caps every gap.
            if not np.isclose(
                n / capped.overall_rate_hz,
                durations.sum() + np.minimum(gaps_in, cap).sum(),
                atol=1e-9,
            ):
                invariants_ok = False
            if n > 1 and not np.isclose(
                capped.chew_gap_s, np.minimum(gaps_in, cap).mean(), atol=1e-9
            ):
                invariants_ok = False
            identity = metrics.session_metrics(raw, gap_cap_s=np.inf)
            if not (
                np.isclose(
                    n / identity.overall_rate_hz,
                    raw[-1].termination_s - raw[0].onset_s,
                    atol=1e-9,
                )
                and identity.n_sequences == 1
            ):
                invariants_ok = False
        ok = hand_ok and invariants_ok
        return ok, (
            f"hand case rate {report.overall_rate_hz!r} chews/s,"
            f" invariants on 1000 random logs {invariants_ok}"
        )

    check(8, "meal metrics on hand-built and random event logs", body)


def test_criterion_09_trailing_rate_exactness():
    def body():
        inside = [
            metrics.ChewEvent(5.1, 5.4),
            metrics.ChewEvent(6.0, 6.3),
            metrics.ChewEvent(7.0, 7.3),
            metrics.ChewEvent(8.0, 8.3),
            metrics.ChewEvent(9.5, 9.8),
        ]
        cases = (
            rt.live_rate(inside, 10.0) == 1.0,
            rt.live_rate([], 3.0) == 0.0,
            # straddling either window edge must not count
            rt.live_rate([metrics.ChewEvent(4.9, 5.2)], 10.0) == 0.0,
            rt.live_rate([metrics.ChewEvent(9.8, 10.2)], 10.0) == 0.0,
            # touching the edges exactly does count
            rt.live_rate([metrics.ChewEvent(5.0, 10.0)], 10.0) == 0.2,
        )
        ok = all(cases)
        return ok, f"{sum(cases)}/5 exact window cases"

    check(9, "trailing-window chew rate exactness", body)


def test_criterion_10_feedback_level_mapping():
    def body():
        # With a reference rate of 1 the rate is exactly twice its
        # normalized value, so each point below is exactly on the scale.
        points = {
            0.15: "no_pulse",
            0.45: "single_pulse",
            0.70: "double_pulse",
            0.90: "intense_double",
            0.30: "single_pulse",
            0.60: "double_pulse",
            0.80: "intense_double",
            1.00: "intense_double",
        }
        bands_ok = all(
            feedback.level(2.0 * norm, 1.0) == want for norm, want in points.items()
        )
        order = [label for _, label in feedback.BANDS] + [feedback.TOP_LABEL]
        sweep = [
            order.index(feedback.level(2.0 * v, 1.0))
            for v in np.linspace(0.0, 1.0, 10001)
        ]
        monotone = all(b >= a for a, b in zip(sweep, sweep[1:]))
        ok = bands_ok and monotone
        return ok, (
            f"8/8 band points exact, monotone over 10001-point sweep {monotone}"
        )

    check(10, "haptic level bands and monotonicity", body)


def test_criterion_11_replay_transcript_stability():
    def body():
        profile, model = stream_setup()
        session = synth.gen_session(
            synth.SessionPlan(duration_s=5.0, seed=777, participant_id="G")
        )
        server = io.serve(model, io.ServerConfig()).start_background()
        try:
            realtime = io.stream_client(
                session, "127.0.0.1", server.port, speed=1.0, profile=profile
            )
            fast = io.stream_client(
                session, "127.0.0.1", server.port, speed=10.0, profile=profile
            )
            again = io.stream_client(
                session, "127.0.0.1", server.port, speed=10.0, profile=profile
            )
        finally:
            server.shutdown()
        stable = realtime.transcript == fast.transcript == again.transcript
        ok = stable and not realtime.errors and realtime.reported_events is not None
        return ok, (
            f"{len(realtime.transcript)} transcript lines identical across"
            " real-time, x10, and repeated x10 replays"
        )

    check(11, "replay transcripts are pacing-invariant", body)


def test_criterion_12_seeded_stage_determinism(tmp_path):
    def body():
        plan = synth.SessionPlan(duration_s=10.0, seed=42, participant_id="D1")
        rec_a = synth.gen_session(plan)
        rec_b = synth.gen_session(plan)
        gen_ok = (
            io.write_recording(rec_a, tmp_path / "a.csv").read_bytes()
            == io.write_recording(rec_b, tmp_path / "b.csv").read_bytes()
            and (tmp_path / "a.csv.ann").read_bytes()
            == (tmp_path / "b.csv.ann").read_bytes()
        )

        spec = feats.WindowSpec(length_s=feats.CHEW_WINDOW_S, hop_s=0.25)
        mat_a = feats.build_feature_matrix(rec_a, spec, "chew")
        mat_b = feats.build_feature_matrix(rec_b, spec, "chew")
        feat_ok = (
            io.write_dataset(mat_a, tmp_path / "a.features").read_bytes()
            == io.write_dataset(mat_b, tmp_path / "b.features").read_bytes()
        )

        kwargs = dict(feature_names=mat_a.feature_names, positive_label="C")
        model_a = learn.train_linear_svm(mat_a.values, mat_a.labels, **kwargs)
        model_b = learn.train_linear_svm(mat_b.values, mat_b.labels, **kwargs)
        train_ok = (
            io.save_model(model_a, tmp_path / "a.model").read_bytes()
            == io.save_model(model_b, tmp_path / "b.model").read_bytes()
        )

        other = synth.gen_session(
            synth.SessionPlan(duration_s=10.0, seed=43, participant_id="D2")
        )
        both = feats.concat_matrices(
            [mat_a, feats.build_feature_matrix(other, spec, "chew")]
        )
        rep_a = learn.lopo_evaluate(both, "C")
        rep_b = learn.lopo_evaluate(both, "C")
        eval_ok = rep_a.f1_std["C"] == rep_b.f1_std["C"] and all(
            fa.metrics["C"] == fb.metrics["C"]
            for fa, fb in zip(rep_a.folds, rep_b.folds)
        )

        profile, model = stream_setup()
        raw = rec_a.channel("masseter")
        logs = []
        for _ in range(2):
            engine = rt.StreamEngine(model, profile)
            engine.push(raw)
            engine.finalize()
            logs.append(
                [(e.onset_s, e.termination_s) for e in engine.events]
            )
        stream_ok = logs[0] == logs[1] and len(logs[0]) > 0

        ok = gen_ok and feat_ok and train_ok and eval_ok and stream_ok
        return ok, (
            f"generate {gen_ok}, featurize {feat_ok}, train {train_ok},"
            f" eval {eval_ok}, stream {stream_ok}"
        )

    check(12, "seeded pipeline stages are bit-reproducible", body)
