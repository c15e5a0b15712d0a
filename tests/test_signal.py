"""Conditioning chain tests against an independently coded analytic oracle."""

import dataclasses
import json
import math
import subprocess
import sys
import textwrap
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.signal import butter, sosfilt, sosfreqz

import emgeat.features as features
import emgeat.realtime as rt
import emgeat.signal as sig
import emgeat.synth as synth
from emgeat.signal import (
    DECIMATION_FACTOR,
    Annotation,
    RawRecording,
    apply_filter,
    bandpass,
    normalize,
    preprocess,
    rectify,
)


def analytic_bandpass_mag(f_hz, low_hz, high_hz, order, fs=None):
    """Textbook Butterworth band-pass magnitude, coded from the definition.

    Low-pass prototype |H| = 1/sqrt(1 + Omega^(2n)) composed with the
    band transform Omega = (w^2 - wl*wh) / ((wh - wl) * w). When fs is
    given, edges and the evaluation frequency are prewarped with the
    bilinear map w = 2*fs*tan(pi*f/fs), which makes the formula exact for
    the digital design; without fs it is the plain analog response.
    """
    if fs is not None:
        wl = 2.0 * fs * np.tan(np.pi * low_hz / fs)
        wh = 2.0 * fs * np.tan(np.pi * high_hz / fs)
        w = 2.0 * fs * np.tan(np.pi * f_hz / fs)
    else:
        wl = 2.0 * np.pi * low_hz
        wh = 2.0 * np.pi * high_hz
        w = 2.0 * np.pi * f_hz
    if w == 0.0:
        return 0.0
    omega = (w * w - wl * wh) / ((wh - wl) * w)
    return 1.0 / np.sqrt(1.0 + omega ** (2 * order))


def digital_mag(sos, f_hz, fs):
    _, h = sosfreqz(sos, worN=np.atleast_1d(float(f_hz)), fs=fs)
    return float(np.abs(h[0]))


def db(x):
    return 20.0 * np.log10(max(x, 1e-300))


SOS = bandpass(1024.0)


class TestBandpassDesign:
    def test_band_edges_at_minus_3db(self):
        for edge in (20.0, 500.0):
            assert abs(db(digital_mag(SOS, edge, 1024.0)) - (-3.0)) <= 0.5

    def test_stopband_attenuation_at_5hz(self):
        assert db(digital_mag(SOS, 5.0, 1024.0)) <= -30.0

    def test_100hz_matches_plain_analytic_value(self):
        ref = analytic_bandpass_mag(100.0, 20.0, 500.0, 5)
        got = digital_mag(SOS, 100.0, 1024.0)
        assert abs(db(got) - db(ref)) <= 0.5

    def test_prewarped_oracle_matches_design_everywhere(self):
        # bilinear design and the prewarped formula are the same math;
        # agreement across the band is the strongest coefficient check
        for f in np.linspace(6.0, 508.0, 257):
            ref = analytic_bandpass_mag(f, 20.0, 500.0, 5, fs=1024.0)
            got = digital_mag(SOS, f, 1024.0)
            assert abs(db(got) - db(ref)) <= 1e-6

    def test_poles_strictly_inside_unit_circle(self):
        # Each section's poles are the roots of its denominator a0, a1, a2.
        poles = np.concatenate([np.roots(section[3:]) for section in SOS])
        assert poles.size == 2 * SOS.shape[0]
        assert np.all(np.abs(poles) < 1.0)

    def test_high_cut_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match="below Nyquist"):
            bandpass(1024.0, (20.0, 600.0))

    @pytest.mark.parametrize(
        "band", [(0.0, 100.0), (-5.0, 100.0), (100.0, 50.0), (math.nan, 100.0), (20.0, math.nan)]
    )
    def test_bad_band_rejected(self, band):
        with pytest.raises(ValueError, match="invalid band edges"):
            bandpass(1024.0, band)

    def test_returned_sections_are_fresh_writeable_copies(self):
        first = bandpass(1024.0)
        first[:] = 0.0
        again = bandpass(1024.0)
        assert np.array_equal(again, SOS) and again.flags.writeable
        x = np.random.default_rng(12).standard_normal(512)
        assert np.array_equal(sosfilt(again, x), apply_filter(x, again))

    def test_each_rate_and_band_designed_once(self, monkeypatch, rt_model, profile):
        designs = Counter()
        design = sig._butter_bandpass

        def counting_design(wn):
            designs[tuple(wn)] += 1
            return design(wn)

        monkeypatch.setattr(sig, "_butter_bandpass", counting_design)
        sig._design.cache_clear()
        plan = synth.SessionPlan(
            duration_s=20.0, seed=3, artifact_schedule=(("speech", 5.0, 8.0),)
        )
        rec = synth.gen_session(plan)
        features.build_feature_matrix(rec, features.WindowSpec(1.0, 0.5), "chew")
        for rate in (1024.0, 1024.0, 2048.0):
            engine = rt.StreamEngine(rt_model, dataclasses.replace(profile, sample_rate=rate))
            engine.push(rec.channel("masseter")[:2048])
        bands = {
            sig.EMG_BAND_HZ, synth.CHEW_BAND, synth.SWALLOW_BAND, synth.ARTIFACT_BAND, (1.0, 5.0)
        }
        assert len(designs) == len(bands) + 1  # and the EMG band at 2048 Hz
        assert set(designs.values()) == {1}

    @settings(max_examples=300, deadline=None)
    @given(
        sample_rate=st.floats(1_000.0, 100_000.0),
        edges=st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2, max_size=2
        ),
    )
    @example(sample_rate=1024.0, edges=[20.0 / 512.0, 500.0 / 512.0])  # two real poles
    @example(sample_rate=100_000.0, edges=[300.0 / 50_000.0, 400.0 / 50_000.0])  # none real
    def test_design_is_bit_equal_to_scipy_butter(self, sample_rate, edges):
        nyquist = sample_rate / 2.0
        low, high = sorted(edge * nyquist for edge in edges)
        assume(0.0 < low < high < nyquist)
        wn = [low / nyquist, high / nyquist]
        expected = butter(sig.FILTER_ORDER, wn, btype="bandpass", output="sos")
        assert np.array_equal(bandpass(sample_rate, (low, high)), expected)

    def test_zi_carries_state_in_place(self):
        x = np.random.default_rng(13).standard_normal(1000)
        zi = np.zeros((SOS.shape[0], 2))
        head = apply_filter(x[:300], SOS, zi)
        with pytest.raises(ValueError, match="index 2"):
            apply_filter([0.0, 1.0, math.inf], SOS, zi)  # leaves zi untouched
        tail = apply_filter(x[300:], SOS, zi)
        assert np.array_equal(np.concatenate([head, tail]), apply_filter(x, SOS))

    @pytest.mark.parametrize(
        "zi",
        [
            np.zeros((5, 2), dtype=np.float32),
            np.zeros((4, 2)),
            np.zeros((5, 4))[:, ::2],
            np.zeros((5, 2)).tolist(),
            np.frombuffer(bytes(80)).reshape(5, 2),
        ],
        ids=["float32", "shape", "strided", "list", "read-only"],
    )
    def test_zi_that_cannot_be_updated_in_place_rejected(self, zi):
        with pytest.raises(ValueError, match="zi must be"):
            apply_filter(np.ones(8), SOS, zi)

    @pytest.mark.parametrize(
        "sos",
        [SOS.astype(np.float32), SOS[:, :5].copy(), SOS.T.copy().T, SOS.tolist(),
         np.frombuffer(SOS.tobytes()).reshape(SOS.shape)],
        ids=["float32", "shape", "strided", "list", "read-only"],
    )
    def test_sections_the_kernel_cannot_take_rejected(self, sos):
        with pytest.raises(ValueError, match="sos must be"):
            apply_filter(np.ones(8), sos)

    def test_dc_is_blocked(self):
        out = apply_filter(np.ones(4096), SOS)
        assert np.max(np.abs(out[1024:])) < 1e-3

    def test_impulse_response_decays(self):
        x = np.zeros(5 * 1024)
        x[0] = 1.0
        out = apply_filter(x, SOS)
        assert np.max(np.abs(out[-1024:])) < 1e-6

    def test_sine_steady_state_amplitude(self):
        t = np.arange(4096) / 1024.0
        out = apply_filter(np.sin(2 * np.pi * 100.0 * t), SOS)
        amp = np.max(np.abs(out[2048:]))
        ref = analytic_bandpass_mag(100.0, 20.0, 500.0, 5)
        assert abs(db(amp) - db(ref)) <= 0.5

    def test_filter_is_linear(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2048)
        y = rng.standard_normal(2048)
        a, b = 1.7, -0.4
        lhs = apply_filter(a * x + b * y, SOS)
        rhs = a * apply_filter(x, SOS) + b * apply_filter(y, SOS)
        scale = np.max(np.abs(rhs)) + 1e-300
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_nonfinite_input_rejected(self):
        x = np.zeros(64)
        x[17] = np.nan
        with pytest.raises(ValueError, match="17"):
            apply_filter(x, SOS)


class TestBlockFilter:
    """A (rows, n) block filters each row as its own signal in one call."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sample_rate=st.sampled_from([1024.0, 2000.0, 4096.0]),
        lengths=st.lists(st.integers(0, 600), min_size=1, max_size=8),
        tail=st.integers(0, 300),
    )
    def test_each_row_equals_its_own_call(self, seed, sample_rate, lengths, tail):
        rng = np.random.default_rng(seed)
        sos = bandpass(sample_rate)
        rows = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) for n in lengths]
        block = np.zeros((len(rows), max(lengths) + tail))
        for out, row in zip(block, rows):
            out[: row.size] = row
        before = block.copy()
        filtered = apply_filter(block, sos)
        assert np.array_equal(block, before)  # the input is left as it was
        for out, padded, row in zip(filtered, block, rows):
            assert np.array_equal(out, apply_filter(padded, sos))
            # the zero padding does not reach back into the row's own samples
            assert np.array_equal(out[: row.size], apply_filter(row, sos))

    def test_given_zi_carries_each_rows_state(self):
        block = np.random.default_rng(5).standard_normal((3, 900))
        zi = np.zeros((3, SOS.shape[0], 2))
        head = apply_filter(block[:, :250], SOS, zi)
        tail = apply_filter(block[:, 250:], SOS, zi)
        assert np.array_equal(np.hstack([head, tail]), apply_filter(block, SOS))
        for row, state in zip(block, zi):
            _, zf = sosfilt(SOS, row, zi=np.zeros((SOS.shape[0], 2)))
            assert np.array_equal(state, zf)

    @pytest.mark.parametrize(
        "zi",
        [np.zeros((SOS.shape[0], 2)), np.zeros((2, SOS.shape[0], 2)), np.zeros((4, SOS.shape[0], 2))],
        ids=["one-signal", "too-few-rows", "too-many-rows"],
    )
    def test_zi_of_the_wrong_shape_rejected(self, zi):
        with pytest.raises(ValueError, match=r"zi must be .*\(3, 5, 2\)"):
            apply_filter(np.ones((3, 8)), SOS, zi)
        assert not zi.any()

    def test_nonfinite_sample_named_by_row_and_index(self):
        block = np.zeros((4, 64))
        block[2, 17] = -np.inf
        block[3, 5] = np.nan
        with pytest.raises(ValueError, match="row 2, index 17"):
            apply_filter(block, SOS)

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            apply_filter(np.zeros((2, 2, 8)), SOS)

    @pytest.mark.parametrize(
        "call",
        [lambda x: preprocess(x, 1024.0), lambda x: rt.calibrate([x], 1024.0)],
        ids=["preprocess", "calibrate"],
    )
    def test_one_signal_paths_refuse_a_block(self, call):
        # apply_filter takes blocks now; these paths still take one signal
        with pytest.raises(ValueError, match="1-D"):
            call(np.ones((2, 4096)))


class TestRecordingTypes:
    @pytest.mark.parametrize(
        "onset, termination", [(math.nan, math.nan), (0.5, math.nan), (0.5, math.inf)]
    )
    def test_non_finite_annotation_rejected(self, onset, termination):
        with pytest.raises(ValueError, match="not finite"):
            Annotation("chew", onset, termination)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            RawRecording("P", rate, ("masseter",), np.zeros((1, 8)))


class TestRectify:
    def test_small_example(self):
        assert np.array_equal(rectify(np.array([-1.0, 2.0, -3.0])), [1.0, 2.0, 3.0])

    def test_zeros(self):
        assert np.array_equal(rectify(np.zeros(5)), np.zeros(5))

    def test_equals_abs_and_idempotent(self):
        x = np.random.default_rng(3).standard_normal(500)
        r = rectify(x)
        assert np.array_equal(r, np.abs(x))
        assert np.all(r >= 0)
        assert np.array_equal(rectify(r), r)


class TestNormalize:
    def test_small_example(self):
        assert np.allclose(normalize(np.array([0.0, 2.0, 4.0])), [0.0, 0.5, 1.0])

    def test_constant_maps_to_zeros(self):
        assert np.array_equal(normalize(np.full(4, 3.3)), np.zeros(4))

    def test_idempotent_on_own_output(self):
        x = np.random.default_rng(4).uniform(-5, 5, 300)
        y = normalize(x)
        assert np.allclose(normalize(y), y, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([]))


class TestFullChain:
    def test_output_range_and_rate(self):
        rng = np.random.default_rng(9)
        out = preprocess(rng.standard_normal(10 * 1024), 1024.0)
        assert out.rate == pytest.approx(102.4)
        assert np.all(out.samples >= 0.0)
        assert np.all(out.samples <= 1.0)
        assert out.samples.size == 1024

    @pytest.mark.parametrize("n", [10241, 10249])
    def test_one_sample_per_block_and_ragged_tail(self, n):
        out = preprocess(np.random.default_rng(9).standard_normal(n), 1024.0)
        assert out.samples.size == -(-n // DECIMATION_FACTOR)

    def test_ragged_tail_is_the_mean_of_its_samples(self):
        x = np.random.default_rng(10).standard_normal(10245)
        envelope = normalize(rectify(apply_filter(x, bandpass(1024.0))))
        out = preprocess(x, 1024.0)
        assert out.samples[-1] == envelope[-5:].mean()
        assert np.array_equal(
            out.samples[:-1], envelope[:-5].reshape(-1, DECIMATION_FACTOR).mean(axis=1)
        )


# Run in a fresh interpreter: import the CLI, featurize a short session and
# stream it through one in-process server session, then report whether the
# scipy.signal package was ever imported. Only after that is the package
# imported, to compare the public filter with apply_filter.
STARTUP_SCRIPT = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    if sys.argv[1] == "scipy-first":
        import scipy.signal
    import emgeat.cli
    from emgeat import learn, realtime, signal, synth
    from emgeat.feedback import RateNormalizer
    from emgeat.io import protocol
    from emgeat.io.server import _Session

    rec = synth.gen_session(synth.SessionPlan(duration_s=10.0, seed=5))
    x = rec.channel(realtime.STREAM_CHANNEL)
    profile = realtime.calibrate([x], rec.sample_rate)
    matrix = realtime.rt_training_set(rec, profile)
    model = learn.train_linear_svm(
        matrix.values, matrix.labels, matrix.feature_names, "C",
        learn.TrainConfig(class_weights=learn.compute_class_weights(matrix.labels)),
    )
    session = _Session(model, RateNormalizer(1.5), lambda: None)
    hello = {"participant": "P", "sample_rate": rec.sample_rate,
             "ref": profile.reference_amplitude, "mu0": profile.mu0,
             "delta0": profile.delta0}
    wire = lambda kind, fields: protocol.parse_frame(protocol.format_frame(kind, fields))[1]
    replies = session.open(wire("hello", hello))
    for start in range(0, x.size, 128):
        chunk = x[start:start + 128]
        replies += session.samples(wire("samples", {
            "t_us": signal.sample_time_us(start, rec.sample_rate), "n": chunk.size,
            "v": ",".join(map(repr, chunk.tolist()))}))
    replies += session.close()
    package_loaded = "scipy.signal" in sys.modules

    import scipy.signal
    from scipy.signal import _signaltools
    sos = signal.bandpass(rec.sample_rate)
    print(json.dumps({
        "package_loaded": package_loaded,
        "last_reply": replies[-1],
        "one_kernel": _signaltools._sosfilt is signal._sosfilt
        and sys.modules["scipy.signal._sosfilt"]._sosfilt is signal._sosfilt,
        "bit_equal": bool(np.array_equal(
            signal.apply_filter(x, sos), scipy.signal.sosfilt(sos, x))),
    }))
    """
)


class TestStartUp:
    """A server process never imports the scipy.signal package: the kernel
    is loaded from its extension file, and the design is emgeat's own."""

    @pytest.mark.parametrize("order", ["emgeat-first", "scipy-first"])
    def test_one_kernel_and_no_signal_package(self, order):
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT, order],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["package_loaded"] == (order == "scipy-first")
        assert report["last_reply"].startswith("bye events=")
        assert report["one_kernel"] and report["bit_equal"]
