"""Correctness checks computed apart from the program.

Each function here re-derives a result from the synthetic inputs (labels,
feature values, transcripts) or tests a property the method must have (a
balanced test set, F1 as the harmonic mean). None of them compares against
a stored copy of earlier output.
"""

import math

import numpy as np
from scipy.signal import butter, sosfilt

# Fixed parameters of the method, as documented in the emgeat README.
BAND_HZ = (20.0, 500.0)
FILTER_ORDER = 5
DECIMATION = 10
LABEL_FRACTION = 0.5
RATE_WINDOW_S = 5.0
REFERENCE_RATE_HZ = 1.6
LEVEL_BANDS = ((0.3, "no_pulse"), (0.6, "single_pulse"), (0.8, "double_pulse"))
TOP_LEVEL = "intense_double"


# --- offline windows --------------------------------------------------------


def window_labels(onsets, terminations, annotations, kind, positive, negative="NA"):
    """Label each window positive when one `kind` annotation covers >= half of it."""
    t0 = np.asarray(onsets, dtype=float)[:, None]
    t1 = np.asarray(terminations, dtype=float)[:, None]
    spans = [(a.onset_s, a.termination_s) for a in annotations if a.kind == kind]
    if not spans:
        return np.full(t0.shape[0], negative, dtype=object)
    a0, a1 = np.asarray(spans, dtype=float).T
    overlap = np.maximum(np.minimum(t1, a1[None, :]) - np.maximum(t0, a0[None, :]), 0.0)
    covered = overlap.max(axis=1) >= LABEL_FRACTION * (t1[:, 0] - t0[:, 0])
    return np.where(covered, positive, negative).astype(object)


def envelope(raw, sample_rate):
    """Band-pass (causal) -> rectify -> min-max -> block mean by DECIMATION."""
    nyquist = sample_rate / 2.0
    sos = butter(
        FILTER_ORDER,
        [BAND_HZ[0] / nyquist, BAND_HZ[1] / nyquist],
        btype="bandpass",
        output="sos",
    )
    x = np.abs(sosfilt(sos, np.asarray(raw, dtype=float)))
    span = x.max() - x.min()
    x = (x - x.min()) / span if span > 0 else np.zeros_like(x)
    n_full = x.size // DECIMATION
    blocks = [x[: n_full * DECIMATION].reshape(n_full, DECIMATION).mean(axis=1)]
    if x.size % DECIMATION:
        blocks.append([x[n_full * DECIMATION :].mean()])
    return np.concatenate(blocks)


def window_features(segment, rate):
    """mav, rms, wl, peak_amp and mnf of one envelope window."""
    x = np.asarray(segment, dtype=float)
    tapered = x * np.hamming(x.size)
    spectrum = np.fft.rfft(tapered)
    power = (spectrum.real**2 + spectrum.imag**2) / x.size
    freqs = np.fft.rfftfreq(x.size, d=1.0 / rate)
    total = power.sum()
    return {
        "mav": float(np.mean(np.abs(x))),
        "rms": float(np.sqrt(np.mean(x * x))),
        "wl": float(np.sum(np.abs(np.diff(x)))),
        "peak_amp": float(np.max(np.abs(x))),
        "mnf": float(np.sum(freqs * power) / total) if total > 0 else 0.0,
    }


def feature_mismatches(matrix, row_indices, envelopes, rate, n_window, rtol=1e-9):
    """Compare recomputed features with the matrix; returns mismatch strings.

    envelopes maps channel name -> envelope of this matrix's recording.
    """
    bad = []
    columns = {name: j for j, name in enumerate(matrix.feature_names)}
    for i in row_indices:
        start = int(round(matrix.onsets_s[i] * rate))
        for channel, env in envelopes.items():
            expected = window_features(env[start : start + n_window], rate)
            for feat, value in expected.items():
                got = matrix.values[i, columns[f"{channel}_{feat}"]]
                if not math.isclose(got, value, rel_tol=rtol, abs_tol=1e-12):
                    bad.append(f"row {i} {channel}_{feat}: {got!r} != {value!r}")
    return bad


def fold_problems(fold, positive, negative, n_pos, n_neg, tol=1e-9):
    """Properties one LOPO fold must have; returns problem strings.

    The held-out set is balanced, so it holds min(n_pos, n_neg) windows of
    each class. With equal class sizes the positive precision follows from
    the two recalls, and every F1 is the harmonic mean of its P and R.
    """
    problems = []
    m = min(n_pos, n_neg)
    if fold.n_test != 2 * m:
        problems.append(f"{fold.participant}: n_test {fold.n_test} != 2 x {m}")
    for label, prf in fold.metrics.items():
        p, r = prf.precision, prf.recall
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        if abs(prf.f1 - f1) > tol:
            problems.append(f"{fold.participant} {label}: F1 {prf.f1} != 2PR/(P+R) {f1}")
    pos = fold.metrics.get(positive)
    neg = fold.metrics.get(negative)
    if pos is not None and neg is not None and m > 0:
        tp = pos.recall * m
        fp = m - neg.recall * m
        implied = tp / (tp + fp) if tp + fp > 0 else 0.0
        if abs(pos.precision - implied) > tol:
            problems.append(
                f"{fold.participant}: precision {pos.precision} does not match"
                f" a balanced {m}+{m} test set ({implied})"
            )
    return problems


# --- streaming transcripts ---------------------------------------------------


def live_rate(events, t):
    """Chews per second over [t - 5 s, t], counting events wholly inside it."""
    n = sum(1 for e in events if e.onset_s >= t - RATE_WINDOW_S and e.termination_s <= t)
    return n / RATE_WINDOW_S


def level_label(rate):
    norm = min(1.0, max(0.0, rate / (2.0 * REFERENCE_RATE_HZ)))
    for upper, label in LEVEL_BANDS:
        if norm < upper:
            return label
    return TOP_LEVEL


def expected_transcript(engine, samples, sample_rate, participant, chunk):
    """Server transcript predicted by pushing `chunk`-sample pieces in process.

    The engine is fresh; `chunk` must divide the sample rate so a rate line
    is due after every push that completes a whole streamed second.
    """
    per_second = int(sample_rate)
    if per_second % chunk:
        raise ValueError("chunk must divide the samples per second")
    lines = [f"hello participant={participant}"]
    level = "no_pulse"
    for start in range(0, samples.size, chunk):
        engine.push(samples[start : start + chunk])
        consumed = start + chunk
        if consumed % per_second == 0 and consumed <= samples.size:
            t = float(consumed // per_second)
            rate = live_rate(engine.events, t)
            lines.append(f"rate t={t!r} value={rate!r}")
            new = level_label(rate)
            if new != level:
                lines.append(f"level t={t!r} value={new}")
                level = new
    engine.finalize()
    lines.append(f"bye events={len(engine.events)}")
    return lines, list(engine.events)


def rate_seconds(transcript):
    """The t of every rate line, in order."""
    return [
        float(line.split(" ")[1].split("=", 1)[1])
        for line in transcript
        if line.startswith("rate ")
    ]


def bye_events(transcript):
    for line in transcript:
        if line.startswith("bye "):
            return int(line.split("events=", 1)[1])
    return None


def stream_problems(transcript, duration_s, n_chews, log_lines):
    """Framing rules and the criterion-7 count tolerance of one session."""
    problems = []
    seconds = rate_seconds(transcript)
    if seconds != [float(t) for t in range(1, int(duration_s) + 1)]:
        problems.append(f"rate frames at {seconds[:5]}... not one per whole second")
    n_events = bye_events(transcript)
    if n_events is None:
        return problems + ["no bye frame"]
    if abs(n_events - n_chews) > 0.10 * n_chews:
        problems.append(f"{n_events} events vs {n_chews} annotated chews (> 10 %)")
    if log_lines != n_events:
        problems.append(f"bye events={n_events} but the event log has {log_lines} lines")
    return problems


def live_rate_error(events, duration_s, chew_rate_hz):
    """Criterion 7's relative error of the mean live rate, from 6 s to the end."""
    rates = [live_rate(events, float(t)) for t in range(6, int(duration_s))]
    return abs(float(np.mean(rates)) - chew_rate_hz) / chew_rate_hz


def event_hits(events, annotations):
    """Live events matched one-to-one to annotated chews they overlap.

    Each annotation, in order, takes the first unmatched event overlapping
    it. Overlap rather than IoU >= 0.5, because the live detector times its
    events on the filtered, decimated stream and they lag the annotation.
    """
    used = set()
    hits = 0
    for a in annotations:
        for i, (onset, termination) in enumerate(events):
            if i not in used and min(termination, a[1]) > max(onset, a[0]):
                used.add(i)
                hits += 1
                break
    return hits


def f1_score(hits, n_detected, n_truth):
    """F1 from matched, detected and true counts (0 when nothing matched)."""
    if hits == 0:
        return 0.0
    precision, recall = hits / n_detected, hits / n_truth
    return 2 * precision * recall / (precision + recall)


# --- latency -----------------------------------------------------------------


def pair_latencies(second_due, arrivals):
    """Seconds from each second's due time to the arrival of its rate line.

    second_due maps whole second n -> when the frame completing it was due;
    arrivals is a list of (arrival time, line) in arrival order.
    """
    out = []
    for arrived, line in arrivals:
        if line.startswith("rate t="):
            n = int(float(line.split(" ")[1].split("=", 1)[1]))
            out.append(arrived - second_due[n])
    return out


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with >= q % at or below it."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
