"""Streaming detector tests: calibration, voting, event assembly, engine.

The engine checks run a trained model over a synthetic session and compare
against the session's own annotations, so they exercise the full causal
path (filter state, decimation carry, vote smoothing) rather than single
functions in isolation.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import sosfilt

import emgeat.features as features
import emgeat.learn as learn
import emgeat.realtime as rt
import emgeat.synth as synth
from emgeat.metrics import ChewEvent
from emgeat.signal import (
    DECIMATION_FACTOR,
    RawRecording,
    apply_filter,
    bandpass,
    block_means,
    envelope_rate,
)

FS = 1024.0


def tone_burst_recording(peak=0.8, n_bursts=10, seed=4):
    """Silence plus identical Hann-enveloped 80 Hz tone bursts.

    The soft envelope avoids filter-transient overshoot, so the rectified
    band-passed peak of every burst is the tone amplitude times the filter
    gain at 80 Hz (within a fraction of a percent of 1).
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1e-3, int(20 * FS))
    n_b = int(0.4 * FS)
    env = np.hanning(n_b)
    for k in range(n_bursts):
        lo = int((1.0 + 2.0 * k) * FS)
        t = np.arange(lo, lo + n_b) / FS
        x[lo : lo + n_b] += peak * env * np.sin(2 * np.pi * 80.0 * t)
    return x


class TestCalibrate:
    def test_reference_matches_known_burst_peak(self):
        profile = rt.calibrate([tone_burst_recording(peak=0.8)], FS)
        assert profile.reference_amplitude == pytest.approx(0.8, rel=0.05)

    def test_reference_scales_linearly_with_amplitude(self):
        x = tone_burst_recording()
        a = rt.calibrate([x], FS)
        b = rt.calibrate([2.0 * x], FS)
        assert b.reference_amplitude == pytest.approx(
            2.0 * a.reference_amplitude, rel=1e-12
        )
        assert b.mu0 == pytest.approx(2.0 * a.mu0, rel=1e-12)
        assert b.delta0 == pytest.approx(2.0 * a.delta0, rel=1e-12)

    def test_profile_rates(self):
        profile = rt.calibrate([tone_burst_recording()], FS, source="desk")
        assert profile.sample_rate == FS
        assert envelope_rate(profile.sample_rate) == pytest.approx(FS / 10)
        assert profile.source == "desk"

    def test_peak_includes_a_burst_last_sample_at_1500_hz(self):
        # A contraction still rising when the segment ends: its peak is the
        # last sample. At 1500 Hz, 3105 / 1500 * 1500 is 3104.999..., so the
        # burst's end index must be rounded back, not truncated.
        fs, n = 1500.0, 3105
        t = np.arange(n) / fs
        x = np.where(t >= 2.0, (t - 2.0) * np.sin(2 * np.pi * 97.0 * t), 0.0)
        envelope = np.abs(apply_filter(x, bandpass(fs)))
        assert envelope.argmax() == n - 1 and int(n / fs * fs) == n - 1
        assert rt.calibrate([x], fs).reference_amplitude == envelope[-1]

    def test_silent_segments_rejected(self):
        with pytest.raises(ValueError, match="no contractions"):
            rt.calibrate([np.zeros(int(5 * FS))], FS)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="no calibration segments"):
            rt.calibrate([], FS)

    def test_segment_shorter_than_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk"):
            rt.calibrate([np.ones(int(0.2 * FS))], FS)


def make_profile(reference=1.0):
    return rt.CalibrationProfile(
        reference_amplitude=reference,
        mu0=0.1,
        delta0=0.02,
        sample_rate=FS,
    )


class TestRtFeatures:
    def test_constant_segment(self):
        x = np.full(64, 0.5)
        f = rt.rt_features(x, make_profile(reference=1.0))
        by_name = dict(zip(rt.RT_FEATURE_NAMES, f))
        assert by_name["mean"] == pytest.approx(0.5)
        assert by_name["sd"] == pytest.approx(0.0, abs=1e-12)
        assert by_name["peak_amp"] == pytest.approx(0.5)
        assert by_name["rms"] == pytest.approx(0.5)
        assert by_name["iemg"] == pytest.approx(0.5 * 64)

    def test_independent_formulas(self):
        # Recompute all seven from first principles on the scaled segment.
        rng = np.random.default_rng(11)
        seg = rng.uniform(0.0, 1.0, 51)
        profile = make_profile(reference=0.7)
        f = rt.rt_features(seg, profile)
        x = seg / 0.7
        n = x.size
        eff = envelope_rate(profile.sample_rate)
        tapered = x * np.hamming(n)
        power = np.abs(np.fft.rfft(tapered)) ** 2 / n
        freqs = np.fft.rfftfreq(n, d=1.0 / eff)
        expected = [
            np.mean(np.abs(x)),
            np.std(x, ddof=1),
            np.max(np.abs(x)),
            np.sqrt(np.mean(x**2)),
            np.sum(np.abs(x)),
            np.sum(freqs * power) / np.sum(power),
            np.mean(power),
        ]
        assert np.allclose(f, expected, rtol=1e-9)

    def test_reference_scales_amplitude_features_only(self):
        rng = np.random.default_rng(12)
        seg = rng.uniform(0.0, 1.0, 51)
        f1 = rt.rt_features(seg, make_profile(reference=1.0))
        f2 = rt.rt_features(seg, make_profile(reference=0.5))
        names = list(rt.RT_FEATURE_NAMES)
        for name in ("mean", "sd", "peak_amp", "rms", "iemg"):
            i = names.index(name)
            assert f2[i] == pytest.approx(2.0 * f1[i], rel=1e-12)
        assert f2[names.index("mnf")] == pytest.approx(
            f1[names.index("mnf")], rel=1e-12
        )
        assert f2[names.index("mnp")] == pytest.approx(
            4.0 * f1[names.index("mnp")], rel=1e-12
        )

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rt.rt_features(np.array([]), make_profile())

    def test_stack_rows_equal_single_segments(self):
        env = np.random.default_rng(13).uniform(0.0, 1.0, 400)
        stack = sliding_window_view(env, 51)[::3]
        profile = make_profile(reference=0.7)
        single = np.array([rt.rt_features(seg, profile) for seg in stack])
        assert np.array_equal(rt.rt_features(stack, profile), single)

    @settings(max_examples=120, deadline=None)
    @given(
        size=st.integers(1, 300),
        n_window=st.integers(1, 80),
        n_hop=st.integers(1, 80),
        offset=st.integers(0, 3),
    )
    @example(size=1024, n_window=51, n_hop=25, offset=0)  # 39 windows
    @example(size=51, n_window=51, n_hop=25, offset=0)  # exactly one
    @example(size=50, n_window=51, n_hop=25, offset=0)  # none
    @example(size=130, n_window=51, n_hop=3, offset=1)
    @example(size=130, n_window=7, n_hop=7, offset=2)
    def test_segment_stack_is_the_strided_window_view(self, size, n_window, n_hop, offset):
        """Every row is a slicing loop's window, also of a view that starts
        past its buffer's first sample; a signal too short for one window
        has none."""
        x = np.random.default_rng(size).uniform(0.0, 1.0, offset + size)[offset:]
        expected = [x[s : s + n_window] for s in range(0, size - n_window + 1, n_hop)]
        if not expected:
            with pytest.raises(ValueError, match="signal shorter than one window"):
                features._segment_stack(x, n_window, n_hop)
            return
        stack = features._segment_stack(x, n_window, n_hop)
        assert stack.shape == (len(expected), n_window)
        assert all(np.array_equal(row, want) for row, want in zip(stack, expected))
        assert not stack.flags.writeable


class TestVoteFilter:
    def test_all_positive(self):
        assert rt.vote_filter([True] * 8).all()

    def test_isolated_positive_suppressed(self):
        preds = np.zeros(12, dtype=bool)
        preds[5] = True
        assert not rt.vote_filter(preds).any()

    def test_tie_counts_negative(self):
        # 4 of 8 at the first full window is a tie -> negative.
        preds = [True] * 4 + [False] * 4
        out = rt.vote_filter(preds)
        assert not out[7]
        assert out[:7].all()  # early partial windows are majority-positive

    def test_startup_uses_partial_window(self):
        out = rt.vote_filter([True, False, False])
        assert out.tolist() == [True, False, False]

    def test_known_sequence(self):
        preds = [False, True, True, True, True, False, False, False, False, False]
        out = rt.vote_filter(preds)
        # t=1 sees [F,T]: a tie, so the run only opens at t=2; t=7 sees
        # four of eight, a tie, so it closes there.
        assert out.tolist() == [
            False, False, True, True, True, True, True, False, False, False,
        ]


    @settings(max_examples=60, deadline=None)
    @given(preds=st.lists(st.booleans(), max_size=80))
    def test_matches_trailing_window_loop(self, preds):
        window = rt.VOTE_WINDOW
        expected = []
        for t in range(len(preds)):
            votes = preds[max(0, t - window + 1) : t + 1]
            expected.append(sum(votes) * 2 > len(votes))
        assert rt.vote_filter(preds).tolist() == expected


def assemble(votes, segment_s, hop_s, t0=0.0):
    """Run the engine's assembler over votes whose segment k covers
    [t0 + k*hop_s, t0 + k*hop_s + segment_s); returns (state, events closed
    by the votes). The run still open at the end stays open in the state."""
    state = rt.StreamState(make_profile())
    onsets = [t0 + k * hop_s for k in range(len(votes))]
    closed = rt._assemble(state, votes, onsets, [t + segment_s for t in onsets])
    assert closed == state.events
    return state, closed


class TestAssembleEvents:
    def test_single_run(self):
        state, events = assemble(
            [False, True, True, True, False], segment_s=0.5, hop_s=0.25
        )
        assert len(events) == 1
        assert events[0].onset_s == pytest.approx(0.25)
        assert events[0].termination_s == pytest.approx(1.25)
        assert rt._close_run(state) == []

    def test_all_negative(self):
        state, events = assemble([False] * 6, 0.5, 0.25)
        assert events == [] and rt._close_run(state) == []

    def test_trailing_open_run_closes_at_end(self):
        # The run is still open after the last vote; finalize's _close_run
        # logs it, ending at the last positive segment's end.
        state, events = assemble([False, True, True], 0.5, 0.25)
        assert events == []
        closed = rt._close_run(state)
        assert closed == state.events and len(closed) == 1
        assert closed[0].onset_s == pytest.approx(0.25)
        assert closed[0].termination_s == pytest.approx(2 * 0.25 + 0.5)
        assert state.run_start_s is None and rt._close_run(state) == []

    def test_onset_clamped_to_previous_termination(self):
        # Long segments overlap across the one-vote gap; the log must not.
        state, events = assemble(
            [True, True, False, True, True], segment_s=1.0, hop_s=0.25
        )
        events += rt._close_run(state)
        assert len(events) == 2
        assert events[0].termination_s == pytest.approx(1.25)
        assert events[1].onset_s == pytest.approx(1.25)  # clamped up from 0.75
        assert events[1].termination_s == pytest.approx(2.0)

    def test_time_origin_offset(self):
        _, base = assemble([True, True, False], 0.5, 0.25)
        _, shifted = assemble([True, True, False], 0.5, 0.25, t0=10.0)
        assert shifted[0].onset_s == pytest.approx(base[0].onset_s + 10.0)
        assert shifted[0].termination_s == pytest.approx(
            base[0].termination_s + 10.0
        )


@st.composite
def onset_ordered_events(draw):
    """(events, t): an onset-ordered log, as _close_run writes one or looser
    (events may overlap, touch or leave gaps, and onsets may repeat), with
    onsets and terminations drawn on the window's edges t - RATE_WINDOW_S
    and t as well as anywhere around them, so t may fall inside events."""
    t = draw(st.floats(0.0, 40.0))
    edge = t - rt.RATE_WINDOW_S
    times = st.one_of(st.just(edge), st.just(t), st.floats(-5.0, 45.0))
    onsets = sorted(draw(st.lists(times, max_size=25)))
    events = []
    for k, onset in enumerate(onsets):
        later = [o for o in onsets[k + 1 :] if o > onset][:1]  # touch the next onset
        edges = [end for end in later + [t, edge] if end > onset]
        free = st.floats(0.01, 4.0).map(onset.__add__)
        events.append(ChewEvent(onset, draw(st.sampled_from(edges) | free if edges else free)))
    return events, t


class TestLiveRate:
    def test_five_events_in_window(self):
        events = [
            ChewEvent(5.1, 5.4),
            ChewEvent(6.0, 6.3),
            ChewEvent(7.0, 7.3),
            ChewEvent(8.0, 8.3),
            ChewEvent(9.5, 9.8),
        ]
        assert rt.live_rate(events, t=10.0) == pytest.approx(1.0)

    def test_empty_log(self):
        assert rt.live_rate([], t=3.0) == 0.0

    def test_partial_overlap_excluded(self):
        # Only events lying wholly inside the window count: the first starts
        # before it, the last ends after t.
        events = [ChewEvent(4.9, 5.2), ChewEvent(6.0, 6.4), ChewEvent(9.8, 10.2)]
        assert rt.live_rate(events, t=10.0) == pytest.approx(0.2)

    def test_boundary_event_included(self):
        assert rt.live_rate([ChewEvent(5.0, 10.0)], 10.0) == pytest.approx(0.2)

    @settings(max_examples=200, deadline=None)
    @given(case=onset_ordered_events())
    @example(case=([ChewEvent(5.0, 6.0), ChewEvent(5.0, 10.0), ChewEvent(9.0, 10.5)], 10.0))
    def test_counting_back_equals_the_full_scan(self, case):
        # live_rate stops at the first event, newest first, that starts
        # before the window; on any onset-ordered log that must count
        # exactly what a scan of every event counts.
        events, t = case
        start = t - rt.RATE_WINDOW_S
        n = sum(1 for e in events if e.onset_s >= start and e.termination_s <= t)
        assert rt.live_rate(events, t).hex() == (n / rt.RATE_WINDOW_S).hex()


class TestStreamGeometry:
    def test_defaults(self):
        assert rt.SEGMENT_S == 0.5
        assert rt.HOP_S == 0.03
        assert rt.VOTE_WINDOW == 8
        assert rt.RATE_WINDOW_S == 5.0
        assert DECIMATION_FACTOR == 10
        # The hop must fit the segment and hold at least one envelope sample
        # at the lowest rate the band-pass allows (just above 1000 Hz).
        assert 0 < rt.HOP_S <= rt.SEGMENT_S
        assert int(rt.HOP_S * 1000.0 / DECIMATION_FACTOR) >= 1
        assert rt.live_rate([ChewEvent(0.5, 1.0)], rt.RATE_WINDOW_S) == 1 / 5.0

    def test_profile_rate_sets_the_envelope_rate(self):
        profile = make_profile()
        assert rt.StreamState(profile).rate == FS / DECIMATION_FACTOR
        with pytest.raises(AttributeError):  # frozen: the rate cannot drift
            profile.sample_rate = 1.0


def run_engine(model, profile, raw, chunk):
    """Push `raw` in fixed-size chunks; return (events, closure log)."""
    engine = rt.StreamEngine(model, profile)
    closures = []
    for i in range(0, raw.size, chunk):
        for event in engine.push(raw[i : i + chunk]):
            closures.append((engine.current_time_s, event))
    for event in engine.finalize():
        closures.append((engine.current_time_s, event))
    return engine.events, closures


class TestStreamEngine:
    def test_rejects_offline_model(self, profile):
        names = ("mav", "iemg", "var", "rms", "sd", "wl", "zc")
        model = learn.LinearModel(
            feature_names=names,
            weights=np.zeros(7),
            bias=0.0,
            mean=np.zeros(7),
            scale=np.ones(7),
            positive_label="C",
        )
        with pytest.raises(ValueError, match="streaming feature set"):
            rt.StreamEngine(model, profile)

    def test_rejects_matrix_chunk(self, rt_model, profile):
        engine = rt.StreamEngine(rt_model, profile)
        with pytest.raises(ValueError, match="1-D"):
            engine.push(np.zeros((4, 4)))

    def test_empty_push_is_noop(self, rt_model, profile):
        engine = rt.StreamEngine(rt_model, profile)
        assert engine.push(np.array([])) == []
        assert engine.current_time_s == 0.0

    def test_clock_tracks_samples(self, rt_model, profile):
        engine = rt.StreamEngine(rt_model, profile)
        engine.push(np.zeros(512))
        assert engine.current_time_s == pytest.approx(512 / FS)

    def test_events_property_returns_copy(self, rt_model, profile):
        engine = rt.StreamEngine(rt_model, profile)
        log = engine.events
        log.append("junk")
        assert engine.events == []

    def test_finalize_idle_is_noop(self, rt_model, profile):
        engine = rt.StreamEngine(rt_model, profile)
        engine.push(np.zeros(2048))
        assert engine.finalize() == []

    def test_chunking_invariance(self, rt_model, profile, test_session):
        raw = test_session.channel("masseter")
        whole, _ = run_engine(rt_model, profile, raw, raw.size)
        tiny, _ = run_engine(rt_model, profile, raw, 7)
        hop, _ = run_engine(rt_model, profile, raw, 32)
        assert len(whole) == len(tiny) == len(hop) > 0
        for a, b, c in zip(whole, tiny, hop):
            assert a.onset_s == b.onset_s == c.onset_s
            assert a.termination_s == b.termination_s == c.termination_s

    def test_event_log_ordered_and_disjoint(self, rt_model, profile, test_session):
        events, _ = run_engine(
            rt_model, profile, test_session.channel("masseter"), 1024
        )
        for prev, cur in zip(events, events[1:]):
            assert cur.onset_s >= prev.termination_s
        assert all(e.termination_s > e.onset_s for e in events)

    def test_event_count_near_truth(self, rt_model, profile, test_session):
        events, _ = run_engine(
            rt_model, profile, test_session.channel("masseter"), 1024
        )
        truth = len(test_session.annotations_of("chew"))
        assert abs(len(events) - truth) <= 0.10 * truth

    def test_closure_latency_bounded(self, rt_model, profile, test_session):
        # An event must close within one segment of look-back plus the vote
        # window's worth of hops plus one segment of decimation/fill delay.
        _, closures = run_engine(
            rt_model, profile, test_session.channel("masseter"), 32
        )
        bound = rt.SEGMENT_S + rt.VOTE_WINDOW * rt.HOP_S + rt.SEGMENT_S
        assert closures, "no events closed"
        for closed_at, event in closures:
            assert closed_at - event.termination_s <= bound

    def test_live_rate_tracks_session_rate(self, rt_model, profile, test_session):
        events, _ = run_engine(
            rt_model, profile, test_session.channel("masseter"), 2048
        )
        span_rate = len(test_session.annotations_of("chew")) / 60.0
        rates = [
            rt.live_rate(events, t) for t in np.arange(6.0, 59.0, 1.0)
        ]
        assert np.mean(rates) == pytest.approx(span_rate, rel=0.2)

    def test_nonfinite_chunk_rejected_before_state_changes(self, rt_model, profile):
        engine = rt.StreamEngine(rt_model, profile)
        engine.push(np.zeros(512))
        chunk = np.zeros(64)
        chunk[9] = np.nan
        with pytest.raises(ValueError, match="non-finite sample at index 9"):
            engine.push(chunk)
        assert engine.state.raw_consumed == 512
        assert np.isfinite(engine.state.zi).all()

    def test_rate_at_uses_engine_log(self, rt_model, profile, test_session):
        raw = test_session.channel("masseter")
        engine = rt.StreamEngine(rt_model, profile)
        engine.push(raw)
        t = engine.current_time_s
        assert engine.rate_at(t) == pytest.approx(
            rt.live_rate(engine.events, t)
        )


def predictions_push_by_push(engine, raw):
    """Every segment prediction of a fresh engine on `raw`, read after each
    push: the first push fills one segment and every later one adds one hop,
    so each push makes exactly one segment ready."""
    factor = DECIMATION_FACTOR
    start, predictions = 0, []
    n_segment, n_hop = engine.state.n_segment, engine.state.n_hop
    for end in range(n_segment * factor, raw.size + 1, n_hop * factor):
        segments = engine.state.segments
        engine.push(raw[start:end])
        start = end
        assert engine.state.segments == segments + 1
        predictions.append(bool(engine.state.raw_predictions[-1]))
    engine.push(raw[start:])  # less than one hop: no segment
    assert engine.state.segments == len(predictions)
    return predictions


class TestRtTrainingSet:
    def test_matrix_shape_and_geometry(self, profile, test_session):
        mat = rt.rt_training_set(test_session, profile)
        eff = test_session.sample_rate / 10
        n_env = test_session.channel("masseter").size // 10
        n_seg = int(0.5 * eff)
        n_hop = int(0.03 * eff)
        expected_rows = (n_env - n_seg) // n_hop + 1
        assert mat.feature_names == rt.RT_FEATURE_NAMES
        assert mat.values.shape == (expected_rows, 7)
        assert np.all(mat.participants == "E")
        assert np.allclose(mat.terminations_s - mat.onsets_s, n_seg / eff)

    def test_labels_follow_half_overlap_rule(self, profile, test_session):
        mat = rt.rt_training_set(test_session, profile)
        chews = test_session.annotations_of("chew")
        for i in range(0, mat.values.shape[0], 17):
            t0, t1 = mat.onsets_s[i], mat.terminations_s[i]
            covered = max(
                (
                    min(t1, a.termination_s) - max(t0, a.onset_s)
                    for a in chews
                    if min(t1, a.termination_s) > max(t0, a.onset_s)
                ),
                default=0.0,
            )
            expected = "C" if covered >= 0.5 * (t1 - t0) else "NA"
            assert mat.labels[i] == expected

    def test_has_both_classes(self, profile, test_session):
        mat = rt.rt_training_set(test_session, profile)
        assert set(mat.labels) == {"C", "NA"}

    def test_engine_predictions_match_batch_features(
        self, rt_model, profile, test_session
    ):
        # The engine's per-segment features must equal the batch extraction,
        # so predictions from either path agree segment by segment.
        mat = rt.rt_training_set(test_session, profile)
        batch_votes = learn.predict(rt_model, mat.values) == "C"
        engine = rt.StreamEngine(rt_model, profile)
        raw = np.array(
            predictions_push_by_push(engine, test_session.channel("masseter"))
        )
        n = min(raw.size, batch_votes.size)
        assert n > 100
        assert np.array_equal(raw[:n], batch_votes[:n])

    def test_profile_at_another_rate_rejected(self, profile):
        # A 1024 Hz profile would put the 2048 Hz envelope's spectral features
        # on a grid for half its rate.
        rec = synth.gen_session(
            synth.SessionPlan(
                duration_s=5.0, sample_rate=2 * FS, seed=557, participant_id="F"
            )
        )
        with pytest.raises(ValueError, match="calibrated at 1024.0 Hz"):
            rt.rt_training_set(rec, profile)

    def test_engine_at_2048_hz_matches_batch_rows(self, rt_model):
        fs = 2 * FS
        cal = synth.gen_session(
            synth.SessionPlan(duration_s=30.0, sample_rate=fs, seed=77, participant_id="C2")
        )
        profile = rt.calibrate([cal.channel("masseter")], fs)
        session = synth.gen_session(
            synth.SessionPlan(duration_s=20.0, sample_rate=fs, seed=558, participant_id="F")
        )
        eff = fs / DECIMATION_FACTOR
        engine = rt.StreamEngine(rt_model, profile)
        n_segment, n_hop = engine.state.n_segment, engine.state.n_hop
        assert (n_segment, n_hop) == (102, 6)
        # Segments span SEGMENT_S, truncated to whole envelope samples.
        assert rt.SEGMENT_S - 1 / eff < n_segment / eff <= rt.SEGMENT_S
        mat = rt.rt_training_set(session, profile)
        assert np.allclose(mat.terminations_s - mat.onsets_s, n_segment / eff)
        assert np.allclose(np.diff(mat.onsets_s), n_hop / eff)
        raw = predictions_push_by_push(engine, session.channel("masseter"))
        assert mat.n_rows == len(raw) > 100 and any(raw)
        assert (learn.predict(rt_model, mat.values) == "C").tolist() == raw

    def test_nonfinite_sample_rejected(self, profile, test_session):
        samples = test_session.samples.copy()
        samples[test_session.channel_names.index("masseter"), 100] = np.nan
        rec = RawRecording("E", FS, test_session.channel_names, samples)
        with pytest.raises(ValueError, match="non-finite sample at index 100"):
            rt.rt_training_set(rec, profile)

    def test_ragged_length_rows_are_the_engine_segments(
        self, rt_model, profile, test_session
    ):
        # 61435 samples leave a ragged 5-sample decimation block that the
        # engine never emits; counted as a block it would add one segment.
        n = 61435
        engine = rt.StreamEngine(rt_model, profile)
        n_env, n_segment, n_hop = n // 10, engine.state.n_segment, engine.state.n_hop
        assert n % 10 and (n_env + 1 - n_segment) // n_hop > (n_env - n_segment) // n_hop
        rec = RawRecording(
            "E",
            FS,
            test_session.channel_names,
            test_session.samples[:, :n],
            [a for a in test_session.annotations if a.termination_s <= n / FS],
        )
        mat = rt.rt_training_set(rec, profile)
        raw = predictions_push_by_push(engine, rec.channel("masseter"))
        assert mat.n_rows == len(raw)
        assert (learn.predict(rt_model, mat.values) == "C").tolist() == raw


class TestSegmentPass:
    def test_list_and_array_of_the_same_values_agree(self, profile, test_session):
        raw = test_session.channel("masseter")[: 3 * 1024 + 77]
        from_list, from_array = rt.StreamState(profile), rt.StreamState(profile)
        for i in range(0, raw.size, 1024):
            chunk = raw[i : i + 1024]
            got = rt._segment_pass(from_list, chunk.tolist())
            want = rt._segment_pass(from_array, chunk)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert from_array.segments > 0
        for name in ("zi", "carry", "envelope"):
            assert np.array_equal(getattr(from_list, name), getattr(from_array, name))
        assert from_list.raw_consumed == from_array.raw_consumed == raw.size
        assert from_list.segments == from_array.segments


# Any chunking, from single samples to one whole-session push, must give the
# same predictions and bit-identical events as one push of the whole session.
PROPERTY_S = 8.0
PROPERTY_N = int(PROPERTY_S * FS)


@pytest.fixture(scope="module")
def property_run(rt_model, profile):
    raw = synth.gen_session(
        synth.SessionPlan(duration_s=PROPERTY_S, seed=556, participant_id="H")
    ).channel("masseter")
    predictions = predictions_push_by_push(rt.StreamEngine(rt_model, profile), raw)
    engine = rt.StreamEngine(rt_model, profile)
    engine.push(raw)
    engine.finalize()
    assert engine.events, "the reference session produced no events"
    return raw, engine, predictions


class TestChunkingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(
            st.one_of(st.integers(1, 16), st.integers(1, PROPERTY_N)),
            min_size=1,
            max_size=60,
        )
    )
    def test_random_chunkings_match_one_push(
        self, rt_model, profile, property_run, sizes
    ):
        raw, whole, predictions = property_run
        engine = rt.StreamEngine(rt_model, profile)
        bounds = np.cumsum(sizes)
        for chunk in np.split(raw, bounds[bounds < raw.size]):
            engine.push(chunk)
            st = engine.state
            assert len(st.envelope) < st.n_segment
            # The state keeps only the predictions the next vote looks back on.
            kept = len(st.raw_predictions)
            assert kept == min(st.segments, rt.VOTE_WINDOW - 1)
            recent = predictions[st.segments - kept : st.segments]
            assert st.raw_predictions.tolist() == recent
        engine.finalize()
        assert engine.state.segments == len(predictions)
        assert [(e.onset_s, e.termination_s) for e in engine.events] == [
            (e.onset_s, e.termination_s) for e in whole.events
        ]


class TestConditionMatchesPublicFilter:
    """apply_filter calls sosfilt's compiled kernel directly; any chunking of
    a signal through it (state carried in `zi`), rectified and decimated by
    block_means (tail carried), must give exactly what the public filter
    gives on the whole of it, so a scipy release that changes the kernel's
    contract fails here."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sample_rate=st.sampled_from([1024.0, 2000.0, 4096.0]),
        sizes=st.lists(st.integers(1, 700), min_size=1, max_size=12),
    )
    def test_chunked_kernel_equals_public_sosfilt(self, seed, sample_rate, sizes):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(sum(sizes)) * 10.0 ** rng.uniform(-3, 3)
        sos = bandpass(sample_rate)
        zi, carry, chunks, pieces = np.zeros((sos.shape[0], 2)), np.zeros(0), [], []
        for chunk in np.split(x, np.cumsum(sizes)[:-1]):
            chunks.append(apply_filter(chunk, sos, zi))
            envelope, carry = block_means(np.abs(chunks[-1]), DECIMATION_FACTOR, carry)
            pieces.append(envelope)

        filtered, zf = sosfilt(sos, x, zi=np.zeros((sos.shape[0], 2)))
        assert np.array_equal(np.concatenate(chunks), filtered)
        rectified = np.abs(filtered)
        factor = DECIMATION_FACTOR
        n_full = x.size // factor
        blocks = rectified[: n_full * factor].reshape(n_full, factor)
        assert np.array_equal(np.concatenate(pieces), blocks.mean(axis=1))
        assert np.array_equal(zi, zf)
        assert np.array_equal(carry, rectified[n_full * factor :])
