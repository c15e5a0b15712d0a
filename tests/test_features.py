"""Feature extraction vs a naive loop-based reimplementation."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emgeat.features import (
    CHEW_WINDOW_S,
    FEATURE_NAMES,
    NEGATIVE_LABEL,
    WindowSpec,
    build_feature_matrix,
    extract_features,
    hamming_window,
    mean_power,
    median_freq_index,
    periodogram,
    window_matrix,
)
from emgeat import features as F
from emgeat.events import detect_bursts
from emgeat.signal import Annotation, RawRecording, preprocess_recording
from emgeat.synth import SessionPlan, gen_session


# --- naive oracle: plain loops and an O(n^2) DFT, no shared code -----------


def naive_hamming(n):
    if n == 1:
        return [1.0]
    return [0.54 - 0.46 * math.cos(2.0 * math.pi * k / (n - 1)) for k in range(n)]


def naive_periodogram(seg, rate):
    n = len(seg)
    w = naive_hamming(n)
    x = [seg[k] * w[k] for k in range(n)]
    # direct DFT over the one-sided bins
    n_bins = n // 2 + 1
    power = []
    freqs = []
    xa = np.asarray(x)
    k = np.arange(n)
    for j in range(n_bins):
        basis = np.exp(-2j * math.pi * j * k / n)
        coeff = complex(np.sum(xa * basis))
        power.append(abs(coeff) ** 2 / n)
        freqs.append(j * rate / n)
    return freqs, power


def sign(v):
    return (v > 0) - (v < 0)


def naive_feature_vector(seg, rate, thr, cycle_duration, cycles_per_sequence):
    n = len(seg)
    x = [float(v) for v in seg]
    mav = sum(abs(v) for v in x) / n
    iemg = sum(abs(v) for v in x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / (n - 1) if n > 1 else 0.0
    rms = math.sqrt(sum(v * v for v in x) / n)
    sd = math.sqrt(var)
    wl = sum(abs(x[i + 1] - x[i]) for i in range(n - 1))
    peak = max(abs(v) for v in x)
    myop = sum(1 for v in x if abs(v) >= thr) / n
    wamp = sum(1 for i in range(n - 1) if abs(x[i] - x[i + 1]) >= thr) / (n - 1)
    zc = (
        sum(
            1
            for i in range(n - 1)
            if sign(x[i]) != sign(x[i + 1]) and abs(x[i] - x[i + 1]) >= thr
        )
        / (n - 1)
    )
    ssc = (
        sum(
            1
            for i in range(1, n - 1)
            if (x[i] - x[i - 1]) * (x[i] - x[i + 1]) >= thr
        )
        / (n - 1)
    )
    total = sum(abs(v) for v in x)
    acc = 0.0
    t50 = 0.0
    for i, v in enumerate(x):
        acc += abs(v)
        if acc >= 0.5 * total:
            t50 = i / (n - 1)
            break
    freqs, power = naive_periodogram(x, rate)
    p_total = sum(power)
    mnf = sum(f * p for f, p in zip(freqs, power)) / p_total if p_total else 0.0
    mnp = sum(power) / len(power)
    acc = 0.0
    mdf_idx = 0
    for j, p in enumerate(power):
        acc += p
        if acc >= 0.5 * p_total:
            mdf_idx = j
            break
    mdf = freqs[mdf_idx]
    mpf = power[mdf_idx]
    return [
        mav, iemg, var, rms, sd, wl, peak, myop, wamp, zc, ssc,
        mnf, mnp, mdf, mpf, t50,
        float(cycle_duration), float(cycles_per_sequence),
    ]


class TestOracleEquivalence:
    def test_100_random_windows(self):
        rng = np.random.default_rng(1234)
        t_start = time.perf_counter()
        for trial in range(100):
            scale = 10.0 ** rng.uniform(-3, 2)
            seg = scale * rng.standard_normal(512)
            thr = float(rng.uniform(0.0, 0.5 * scale))
            cyc = (float(rng.uniform(0, 2)), float(rng.integers(0, 30)))
            got = extract_features(seg, 102.4, thr, *cyc)
            want = naive_feature_vector(seg, 102.4, thr, *cyc)
            for name, g, w in zip(FEATURE_NAMES, got, want):
                tol = 1e-9 * max(1.0, abs(w))
                assert abs(g - w) <= tol, f"trial {trial} feature {name}: {g} vs {w}"
        assert time.perf_counter() - t_start < 5.0


class TestFrozenExamples:
    def test_mav_iemg_wl(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert F.mav(x) == 1.0
        assert F.iemg(x) == 4.0
        assert F.waveform_length(x) == 6.0

    def test_constant_segment(self):
        x = np.full(64, 0.5)
        assert F.rms(x) == pytest.approx(0.5)
        assert F.sd(x) == 0.0
        assert F.waveform_length(x) == 0.0
        assert F.zero_crossings(x, 0.0) == 0.0

    def test_80hz_tone_spectral(self):
        t = np.arange(1024) / 1024.0
        x = np.sin(2 * np.pi * 80.0 * t)
        freqs, power = periodogram(x, 1024.0)
        assert F.mean_freq(freqs, power) == pytest.approx(80.0, abs=2.0)
        assert F.median_freq(freqs, power) == pytest.approx(80.0, abs=2.0)

    def test_mnp_is_mean_bin_exactly(self):
        x = np.random.default_rng(8).standard_normal(256)
        _, power = periodogram(x, 102.4)
        assert mean_power(power) == float(np.mean(power))

    def test_t50_uniform_amplitude(self):
        n = 101
        x = np.full(n, 0.7)
        assert abs(F.t50(x) - 0.5) <= 1.0 / (n - 1)

    def test_zc_10hz_sine(self):
        t = np.arange(1024) / 1024.0
        x = np.sin(2 * np.pi * 10.0 * t)
        assert F.zero_crossings(x, 0.0) == pytest.approx(20.0 / 1023.0)

    def test_myop_threshold_extremes(self):
        x = np.abs(np.random.default_rng(2).standard_normal(100)) + 0.01
        assert F.myop(x, float(np.max(x)) + 1.0) == 0.0
        assert F.myop(x, 0.0) == 1.0

    def test_mdf_bisection_property(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            _, power = periodogram(rng.standard_normal(128), 102.4)
            c = np.cumsum(power)
            idx = median_freq_index(power)
            assert c[idx] >= 0.5 * c[-1]
            if idx > 0:
                assert c[idx - 1] < 0.5 * c[-1]


class TestHammingWindow:
    def test_n5_endpoints_and_midpoint(self):
        w = hamming_window(5)
        assert w[0] == pytest.approx(0.08)
        assert w[2] == pytest.approx(1.0)
        assert w[4] == pytest.approx(0.08)

    def test_n1_degenerate(self):
        assert np.array_equal(hamming_window(1), [1.0])

    def test_bounded_and_symmetric(self):
        for n in (2, 7, 64, 513):
            w = hamming_window(n)
            assert np.max(w) <= 1.0
            assert np.max(np.abs(w - w[::-1])) < 1e-12

    def test_matches_cosine_formula(self):
        assert np.allclose(hamming_window(33), naive_hamming(33), atol=1e-12)

    def test_cached_window_equals_numpy_and_is_read_only(self):
        for n in (1, 2, 51, 166, 513):
            w = hamming_window(n)
            assert np.array_equal(w, np.hamming(n))
            assert hamming_window(n) is w
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 5.0
            assert np.array_equal(hamming_window(n), np.hamming(n))

    def test_cached_frequency_grid_equals_numpy_and_is_read_only(self):
        rng = np.random.default_rng(8)
        for n, rate in ((51, 102.4), (166, 102.4), (64, 1024.0), (1, 50.0)):
            freqs, _ = periodogram(rng.standard_normal(n), rate)
            assert np.array_equal(freqs, np.fft.rfftfreq(n, d=1.0 / rate))
            with pytest.raises(ValueError, match="read-only"):
                freqs[-1] = 0.0
            # A later periodogram still sees the true grid and the true taper.
            x = rng.standard_normal((3, n))
            again, power = periodogram(x, rate)
            assert np.array_equal(again, np.fft.rfftfreq(n, d=1.0 / rate))
            spectrum = np.fft.rfft(x * np.hamming(n))
            expected = (spectrum.real**2 + spectrum.imag**2) / n
            assert np.array_equal(power, expected)


class TestScaleRelations:
    def test_amplitude_features_scale_linearly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(256)
        a = 3.7
        for fn in (F.mav, F.iemg, F.rms, F.sd, F.waveform_length, F.peak_amp):
            assert fn(a * x) == pytest.approx(a * fn(x), rel=1e-12)
        assert F.variance(a * x) == pytest.approx(a * a * F.variance(x), rel=1e-12)

    def test_threshold_features_invariant_under_coscaling(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(256)
        thr = 0.3
        a = 2.5
        assert F.zero_crossings(a * x, a * thr) == F.zero_crossings(x, thr)
        assert F.wamp(a * x, a * thr) == F.wamp(x, thr)
        assert F.myop(a * x, a * thr) == F.myop(x, thr)
        # the slope-sign product is quadratic in amplitude
        assert F.slope_sign_changes(a * x, a * a * thr) == F.slope_sign_changes(x, thr)
        assert F.t50(a * x) == F.t50(x)

    def test_spectral_shape_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(256)
        f1, p1 = periodogram(x, 102.4)
        f2, p2 = periodogram(4.0 * x, 102.4)
        assert F.mean_freq(f1, p1) == pytest.approx(F.mean_freq(f2, p2), rel=1e-12)
        assert F.median_freq(f1, p1) == F.median_freq(f2, p2)
        assert mean_power(p2) == pytest.approx(16.0 * mean_power(p1), rel=1e-12)


class TestStackedSegments:
    def test_each_row_equals_its_own_segment(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((9, 40))
        stack[4] = 0.0  # no power: mean_freq falls back to 0
        for fn in (
            F.mav, F.iemg, F.variance, F.rms, F.sd, F.waveform_length, F.peak_amp, F.t50
        ):
            assert np.array_equal(fn(stack), [fn(row) for row in stack])
        for fn in (F.myop, F.wamp, F.zero_crossings, F.slope_sign_changes):
            for thr in (0.0, 0.3):
                assert np.array_equal(fn(stack, thr), [fn(row, thr) for row in stack])
        freqs, power = periodogram(stack, 102.4)
        assert np.array_equal(power, [periodogram(row, 102.4)[1] for row in stack])
        assert np.array_equal(
            F.mean_freq(freqs, power), [F.mean_freq(freqs, p) for p in power]
        )
        assert F.mean_freq(freqs, power)[4] == 0.0
        assert np.array_equal(mean_power(power), [mean_power(p) for p in power])
        assert np.array_equal(
            median_freq_index(power), [median_freq_index(p) for p in power]
        )
        assert np.array_equal(
            F.median_freq(freqs, power), [F.median_freq(freqs, p) for p in power]
        )
        assert np.array_equal(
            F.median_freq_power(power), [F.median_freq_power(p) for p in power]
        )
        cyc = np.arange(9.0)
        assert np.array_equal(
            extract_features(stack, 102.4, 0.3, cyc, 2 * cyc),
            [extract_features(row, 102.4, 0.3, c, 2 * c) for row, c in zip(stack, cyc)],
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_segments(self, n):
        stack = np.random.default_rng(n).standard_normal((3, n))
        for fn in (F.waveform_length, F.t50):
            assert np.array_equal(fn(stack), [fn(row) for row in stack])
        for fn in (F.wamp, F.zero_crossings, F.slope_sign_changes):
            assert np.array_equal(fn(stack, 0.0), [fn(row, 0.0) for row in stack])
        if n < 3:
            assert np.array_equal(F.slope_sign_changes(stack, 0.0), np.zeros(3))
        if n == 1:
            assert F.wamp(stack[0], 0.0) == F.t50(stack[0]) == 0.0

    def test_one_segment_gives_a_float(self):
        x = np.random.default_rng(9).standard_normal(16)
        freqs, power = periodogram(x, 102.4)
        values = [F.mav(x), F.iemg(x), F.variance(x), F.rms(x), F.sd(x), F.peak_amp(x)]
        values += [F.waveform_length(x), F.t50(x), F.myop(x, 0.1), F.wamp(x, 0.1)]
        values += [F.zero_crossings(x, 0.1), F.slope_sign_changes(x, 0.1)]
        values += [F.mean_freq(freqs, power), mean_power(power)]
        values += [F.median_freq(freqs, power), F.median_freq_power(power)]
        assert all(type(v) is float for v in values)
        assert type(median_freq_index(power)) is int
        assert extract_features(x, 102.4).shape == (18,)

    def test_single_sample_segments_have_zero_variance(self):
        assert np.array_equal(F.variance(np.ones((3, 1))), np.zeros(3))
        assert F.sd(np.ones(1)) == 0.0


class TestWindowMatrix:
    def test_row_count_10s_recording(self):
        recording = gen_session(SessionPlan(duration_s=10.0, seed=42))
        spec = WindowSpec(length_s=CHEW_WINDOW_S, hop_s=0.25)
        matrix = build_feature_matrix(recording, spec, "chew")
        assert matrix.n_rows == 39
        assert matrix.values.shape == (39, 2 * len(FEATURE_NAMES))

    def test_window_starts_formula(self):
        assert F._segment_stack(np.zeros(1024), 51, 25).shape[0] == 39
        assert F._segment_stack(np.zeros(51), 51, 25).shape[0] == 1
        with pytest.raises(ValueError):
            F._segment_stack(np.zeros(50), 51, 25)

    def test_hop_too_short_for_rate(self):
        # At 1024 Hz the envelope runs at 102.4 Hz: a 5 ms hop is less than
        # one decimated sample, a 10 ms hop exactly one.
        recording = gen_session(SessionPlan(duration_s=5.0, seed=3))
        with pytest.raises(ValueError, match="too short"):
            build_feature_matrix(recording, WindowSpec(CHEW_WINDOW_S, 0.005), "chew")
        matrix = build_feature_matrix(recording, WindowSpec(CHEW_WINDOW_S, 0.01), "chew")
        assert np.allclose(np.diff(matrix.onsets_s), 1 / 102.4)

    def test_no_annotations_all_negative(self):
        from emgeat.signal import RawRecording

        rng = np.random.default_rng(12)
        recording = RawRecording(
            participant_id="X",
            sample_rate=1024.0,
            channel_names=("masseter", "submental"),
            samples=0.05 * rng.standard_normal((2, 8 * 1024)),
            annotations=(),
        )
        spec = WindowSpec(length_s=CHEW_WINDOW_S, hop_s=0.25)
        matrix = build_feature_matrix(recording, spec, "chew")
        assert all(l == NEGATIVE_LABEL for l in matrix.labels)

    def test_positive_fraction_tracks_coverage(self):
        plan = SessionPlan(duration_s=60.0, seed=9)
        recording = gen_session(plan)
        spec = WindowSpec(length_s=CHEW_WINDOW_S, hop_s=0.25)
        matrix = build_feature_matrix(recording, spec, "chew")
        coverage = sum(
            a.termination_s - a.onset_s for a in recording.annotations_of("chew")
        ) / recording.duration_s
        fraction = np.mean(np.asarray(matrix.labels) == "C")
        assert fraction == pytest.approx(coverage, rel=0.10)

    def test_unknown_task_rejected(self):
        recording = gen_session(SessionPlan(duration_s=10.0, seed=1))
        spec = WindowSpec(length_s=0.5, hop_s=0.25)
        with pytest.raises(ValueError, match="task"):
            build_feature_matrix(recording, spec, "blink")

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.array([]), 102.4)

    def test_nonfinite_feature_reported_by_name(self):
        x = np.array([1.0, np.inf, 0.0])
        with pytest.raises(ValueError):
            extract_features(x, 102.4)


class TestWindowMatrixLabels:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        rate=st.sampled_from([100.0, 102.4, 128.0]),
        task=st.sampled_from(sorted(F.TASKS)),
        n_window=st.integers(1, 64),
        k=st.integers(1, 30),
    )
    def test_labels_as_a_per_window_half_overlap_loop(self, data, rate, task, n_window, k):
        """Random annotations, their edges on the sample grid so that exact
        half overlaps occur, against every window scanning every annotation."""
        n_hop = data.draw(st.integers(1, n_window))
        starts = np.arange(k) * n_hop
        onsets, terms = starts / rate, (starts + n_window) / rate
        n_samples = int(starts[-1]) + n_window + 8
        edges = st.tuples(
            st.sampled_from(["chew", "swallow", "speech"]),
            st.integers(0, n_samples - 1),
            st.integers(1, 2 * n_window),
        )
        annotations = [
            Annotation(kind, i / rate, min(i + length, n_samples) / rate)
            for kind, i, length in data.draw(st.lists(edges, max_size=12))
        ]
        recording = RawRecording("P9", rate, ("masseter",), np.zeros((1, n_samples)), annotations)
        values = np.arange(2.0 * k).reshape(k, 2)

        matrix = window_matrix(recording, task, ("a", "b"), values, onsets, terms)

        positive, kind = F.TASKS[task]
        expected = []
        for t0, t1 in zip(onsets, terms):
            covered = max(
                [naive_overlap(t0, t1, a) for a in annotations if a.kind == kind], default=0.0
            )
            expected.append(positive if covered >= 0.5 * (t1 - t0) else NEGATIVE_LABEL)
        assert matrix.labels.tolist() == expected
        assert matrix.participants.tolist() == ["P9"] * k
        assert matrix.feature_names == ("a", "b")
        assert matrix.values is values
        assert matrix.onsets_s is onsets and matrix.terminations_s is terms

    def test_unknown_task_rejected(self):
        recording = RawRecording("P", 100.0, ("masseter",), np.zeros((1, 8)))
        with pytest.raises(ValueError, match="unknown task 'blink'"):
            window_matrix(recording, "blink", ("a",), np.zeros((1, 1)), np.zeros(1), np.ones(1))


# --- the per-window loop build_feature_matrix replaced, as a reference -------


def naive_overlap(t0, t1, interval):
    return max(0.0, min(t1, interval.termination_s) - max(t0, interval.onset_s))


def per_window_matrix(recording, spec, task):
    """extract_features per window, a best-overlap label and cycle context
    found by scanning every annotation and burst for every window."""
    positive, kind = F.TASKS[task]
    processed = preprocess_recording(recording)
    rate = processed[recording.channel_names[0]].rate
    n_window, n_hop = int(spec.length_s * rate), int(spec.hop_s * rate)
    starts = np.arange(0, processed["masseter"].samples.size - n_window + 1, n_hop)
    channels = []
    for name in recording.channel_names:
        sig = processed[name]
        thr = F._resolve_threshold(sig, recording)
        bursts = detect_bursts(sig.samples, sig.rate, thr)
        sequences = [[]]  # a gap above the cap starts the next sequence
        for burst in bursts:
            last = sequences[-1]
            if last and burst.onset_s - last[-1].termination_s > F.CYCLE_SEQUENCE_GAP_S:
                sequences.append([])
            sequences[-1].append(burst)
        channels.append((sig, thr, sequences))
    rows, labels = [], []
    for s in starts:
        t0, t1 = s / rate, (s + n_window) / rate
        row = []
        for sig, thr, sequences in channels:
            best, cycle = 0.0, (0.0, 0.0)
            for seq in sequences:
                for burst in seq:
                    ov = naive_overlap(t0, t1, burst)
                    if ov > best:  # the first burst reaching the largest overlap wins
                        best, cycle = ov, (burst.duration_s, float(len(seq)))
            segment = sig.samples[s : s + n_window]
            row.extend(extract_features(segment, sig.rate, thr, *cycle))
        rows.append(row)
        anns = recording.annotations_of(kind)
        covered = max([naive_overlap(t0, t1, a) for a in anns], default=0.0)
        labels.append(positive if covered >= 0.5 * (t1 - t0) else NEGATIVE_LABEL)
    labels = np.array(labels, dtype=object)
    return np.array(rows), labels, starts / rate, (starts + n_window) / rate


class TestMatrixAgainstPerWindowLoop:
    @pytest.fixture(scope="class")
    def session(self):
        return gen_session(SessionPlan(duration_s=60.0, seed=31))

    @pytest.mark.parametrize("task", ["chew", "swallow"])
    def test_bit_identical(self, session, task):
        length = CHEW_WINDOW_S if task == "chew" else F.SWALLOW_WINDOW_S
        spec = WindowSpec(length_s=length, hop_s=0.25)
        matrix = build_feature_matrix(session, spec, task)
        values, labels, onsets, terminations = per_window_matrix(session, spec, task)
        assert np.array_equal(matrix.values, values)
        assert np.array_equal(matrix.labels, labels)
        assert np.array_equal(matrix.onsets_s, onsets)
        assert np.array_equal(matrix.terminations_s, terminations)
        assert set(labels) == {F.TASKS[task][0], NEGATIVE_LABEL}
        assert values[:, FEATURE_NAMES.index("cycle_duration")].any()

    def test_equal_overlap_goes_to_the_first_burst(self, monkeypatch):
        # 200 Hz tone bursts at 1280 Hz: the decimated rate is 128 Hz, so every
        # window and burst edge is an exact binary fraction and equal overlaps
        # compare equal. Burst A is long, burst B short, 0.25 s apart.
        fs = 1280.0
        t = np.arange(int(4 * fs)) / fs
        x = np.where(((t >= 1.0) & (t < 1.6)) | ((t >= 1.85) & (t < 2.05)), 1.0, 0.0)
        x = x * np.sin(2 * np.pi * 200.0 * t)
        recording = RawRecording("T", fs, ("masseter", "submental"), np.vstack([x, x]))
        thr = 0.3
        sig = preprocess_recording(recording)["masseter"]
        assert sig.rate == 128.0
        first, second = detect_bursts(sig.samples, sig.rate, thr)
        assert first.duration_s != second.duration_s
        # A window ending 4 samples into B and starting 4 samples before A ends
        # overlaps each by 4 / 128 s; a hop of one sample makes it a row.
        gap = round((second.onset_s - first.termination_s) * sig.rate)
        spec = WindowSpec(length_s=(gap + 8) / sig.rate, hop_s=1 / sig.rate)
        # both the matrix and the reference loop detect bursts at thr
        monkeypatch.setattr(F, "_resolve_threshold", lambda processed, recording: thr)
        matrix = build_feature_matrix(recording, spec, "chew")
        values, _, _, _ = per_window_matrix(recording, spec, "chew")
        assert np.array_equal(matrix.values, values)
        (row,) = np.flatnonzero(matrix.onsets_s == first.termination_s - 4 / sig.rate)
        column = matrix.feature_names.index("masseter_cycle_duration")
        assert matrix.values[row, column] == first.duration_s
