"""Synthetic session generator: determinism, counts, amplitudes."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emgeat.synth import (
    CHEW_BAND,
    NOISE_SIGMA,
    SWALLOW_BAND,
    SessionPlan,
    _bursts,
    gen_session,
)


def analytic_bandpass_mag(f, low=20.0, high=500.0, order=5, fs=1024.0):
    # same independently coded formula as the signal tests (prewarped)
    wl = 2.0 * fs * np.tan(np.pi * low / fs)
    wh = 2.0 * fs * np.tan(np.pi * high / fs)
    w = 2.0 * fs * np.tan(np.pi * f / fs)
    if w == 0.0:
        return 0.0
    omega = (w * w - wl * wh) / ((wh - wl) * w)
    return 1.0 / np.sqrt(1.0 + omega ** (2 * order))


class TestBaselineNoise:
    """The background of a rate-0 session, which holds nothing else."""

    def test_sd_matches_filtered_white_noise_power(self):
        # output sd = NOISE_SIGMA * sqrt((2/fs) * integral of |H(f)|^2)
        fs = 1024.0
        f = np.linspace(1e-6, fs / 2 - 1e-6, 4000)
        h2 = np.array([analytic_bandpass_mag(x) ** 2 for x in f])
        gain = np.sqrt(np.trapezoid(h2, f) * 2.0 / fs)
        recording = gen_session(SessionPlan(duration_s=5.0, chew_rate_hz=0.0, seed=99))
        x = recording.channel("masseter")
        assert float(x.std()) == pytest.approx(NOISE_SIGMA * gain, rel=0.15)


def noise(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


class TestChewBurst:
    """Chew bursts from _bursts, the renderer gen_session uses."""

    def test_envelope_shape(self):
        (burst,), _ = _bursts([noise(5, 430)], 1024.0, CHEW_BAND, 1.0)
        assert burst[0] == 0.0
        assert burst[-1] == 0.0
        assert float(np.sqrt(np.mean(burst**2))) == pytest.approx(1.0)
        # energy concentrates mid-burst: compare edge blocks vs middle blocks
        blocks = np.array_split(np.abs(burst), 10)
        edge = max(blocks[0].max(), blocks[-1].max())
        middle = max(blocks[4].max(), blocks[5].max())
        assert middle > 2.0 * edge

    def test_seed_changes_carrier_not_shape(self):
        (a, b), _ = _bursts([noise(1, 430), noise(2, 430)], 1024.0, CHEW_BAND, 1.0)
        assert not np.array_equal(a, b)
        for burst in (a, b):
            assert burst[0] == 0.0 and burst[-1] == 0.0
            assert np.argmax(np.abs(burst)) > burst.size // 4
            assert np.argmax(np.abs(burst)) < 3 * burst.size // 4

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            _bursts([noise(1, 430), noise(2, 1)], 1024.0, CHEW_BAND, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    lengths=st.lists(st.integers(2, 600), min_size=6, max_size=6),
    sample_rate=st.sampled_from([1024.0, 1500.0, 2000.0]),
    band=st.sampled_from([CHEW_BAND, SWALLOW_BAND]),
    target_rms=st.floats(1e-3, 1e3),
)
def test_each_burst_row_is_its_own_one_row_call(seeds, lengths, sample_rate, band, target_rms):
    rows = [noise(seed, n) for seed, n in zip(seeds, lengths)]
    block, got = _bursts(rows, sample_rate, band, target_rms)
    assert got == [row.size for row in rows]
    for burst, row in zip(block, rows):
        (alone,), _ = _bursts([row], sample_rate, band, target_rms)
        assert np.array_equal(burst[: row.size], alone)
        assert not np.any(burst[row.size :])


class TestSessionPlanValidation:
    def test_infeasible_density_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_session(SessionPlan(chew_rate_hz=2.4, chew_duration_mean_s=0.42))

    def test_artifact_kind_checked(self):
        plan = SessionPlan(artifact_schedule=(("hum", 1.0, 2.0),))
        with pytest.raises(ValueError, match="artifact"):
            gen_session(plan)

    def test_artifact_bounds_checked(self):
        plan = SessionPlan(artifact_schedule=(("speech", 50.0, 70.0),))
        with pytest.raises(ValueError):
            gen_session(plan)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SessionPlan(chew_rate_hz=-1.0)


class TestGenSession:
    def test_deterministic_per_plan(self):
        plan = SessionPlan(duration_s=20.0, seed=11)
        a = gen_session(plan)
        b = gen_session(plan)
        assert np.array_equal(a.samples, b.samples)
        assert a.annotations == b.annotations

    def test_chew_count_60s(self):
        for seed in (0, 1, 2, 3):
            recording = gen_session(SessionPlan(duration_s=60.0, seed=seed))
            assert len(recording.annotations_of("chew")) == pytest.approx(90, abs=2)

    def test_swallow_count_follows_rule(self):
        for seed in (0, 5):
            recording = gen_session(
                SessionPlan(duration_s=60.0, swallow_every_n_chews=10, seed=seed)
            )
            chews = len(recording.annotations_of("chew"))
            swallows = len(recording.annotations_of("swallow"))
            assert swallows == chews // 10

    def test_rate_zero_baseline_only(self):
        recording = gen_session(SessionPlan(duration_s=10.0, chew_rate_hz=0.0, seed=3))
        assert len(recording.annotations_of("chew")) == 0
        assert len(recording.annotations_of("swallow")) == 0

    def test_chew_amplitude_exceeds_3x_baseline(self):
        for snr in (15.0, 20.0):
            plan = SessionPlan(duration_s=30.0, snr_db=snr, seed=21)
            recording = gen_session(plan)
            masseter = np.abs(recording.channel("masseter"))
            fs = recording.sample_rate
            lead = int(plan.baseline_lead_s * fs)
            baseline_mean = float(masseter[:lead].mean())
            for a in recording.annotations_of("chew"):
                i0, i1 = int(a.onset_s * fs), int(a.termination_s * fs)
                assert float(masseter[i0:i1].mean()) > 3.0 * baseline_mean

    def test_burst_rms_matches_snr(self):
        plan = SessionPlan(duration_s=30.0, snr_db=20.0, seed=4)
        recording = gen_session(plan)
        masseter = recording.channel("masseter")
        fs = recording.sample_rate
        target = NOISE_SIGMA * 10.0 ** (plan.snr_db / 20.0)
        expected_total = np.sqrt(target**2 + NOISE_SIGMA**2)
        ratios = []
        for a in recording.annotations_of("chew"):
            i0, i1 = int(a.onset_s * fs), int(a.termination_s * fs)
            seg_rms = float(np.sqrt(np.mean(masseter[i0:i1] ** 2)))
            ratios.append(seg_rms / expected_total)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.15)

    def test_swallows_on_submental_channel(self):
        plan = SessionPlan(duration_s=60.0, swallow_every_n_chews=5, seed=6)
        recording = gen_session(plan)
        submental = np.abs(recording.channel("submental"))
        fs = recording.sample_rate
        lead = int(plan.baseline_lead_s * fs)
        baseline_mean = float(submental[:lead].mean())
        for a in recording.annotations_of("swallow"):
            i0, i1 = int(a.onset_s * fs), int(a.termination_s * fs)
            assert float(submental[i0:i1].mean()) > 3.0 * baseline_mean

    def test_artifacts_rendered_and_annotated(self):
        plan = SessionPlan(
            duration_s=30.0,
            seed=8,
            artifact_schedule=(("speech", 20.0, 24.0), ("motion", 26.0, 28.0)),
        )
        recording = gen_session(plan)
        kinds = [a.kind for a in recording.annotations]
        assert "speech" in kinds and "motion" in kinds
        quiet = gen_session(
            SessionPlan(duration_s=30.0, seed=8)
        )  # same seed, no artifacts
        masseter = recording.channel("masseter")
        fs = recording.sample_rate
        i0, i1 = int(20.0 * fs), int(24.0 * fs)
        with_art = float(np.sqrt(np.mean(masseter[i0:i1] ** 2)))
        without = float(np.sqrt(np.mean(quiet.channel("masseter")[i0:i1] ** 2)))
        assert with_art > without

    @pytest.mark.parametrize("sample_rate", [1024.0, 1500.0])
    def test_artifact_ending_at_the_session_end_stays_inside(self, sample_rate):
        # Start and length round on their own: at 1024 Hz their sum is one
        # sample past the session's end.
        plan = SessionPlan(
            duration_s=3.1,
            baseline_lead_s=0.5,
            sample_rate=sample_rate,
            artifact_schedule=(("speech", 0.03, 3.1),),
        )
        recording = gen_session(plan)
        (speech,) = recording.annotations_of("speech")
        assert speech.onset_s == round(0.03 * sample_rate) / sample_rate
        assert speech.termination_s == recording.duration_s

    def test_round_trip_byte_identical(self, tmp_path):
        from emgeat.io import read_recording, write_recording

        plan = SessionPlan(duration_s=15.0, seed=19, participant_id="P19")
        recording = gen_session(plan)
        path = write_recording(recording, tmp_path / "p19.csv")
        again = gen_session(plan)
        path2 = write_recording(again, tmp_path / "p19b.csv")
        assert path.read_bytes() == path2.read_bytes()
        loaded = read_recording(path)
        assert np.array_equal(loaded.samples, recording.samples)
        assert loaded.annotations == recording.annotations


# Recordings pinned bit for bit: the sha256 of each plan's samples and its
# annotation tuples, as tests/data/synth_digests.json holds them. A change to
# how sessions are rendered must leave these untouched.
DIGEST_PLANS = {
    "default": SessionPlan(),
    "lopo16-like": SessionPlan(
        duration_s=60.0,
        chew_rate_hz=1.512,
        chew_duration_mean_s=0.407,
        swallow_every_n_chews=7,
        snr_db=19.37,
        seed=1234567,
        participant_id="P03",
    ),
    "rate-0": SessionPlan(duration_s=10.0, chew_rate_hz=0.0, seed=3),
    "artifacts": SessionPlan(
        duration_s=30.0,
        seed=8,
        artifact_schedule=(("speech", 20.0, 24.0), ("motion", 21.5, 22.5), ("motion", 26.0, 28.0)),
    ),
    "2000hz": SessionPlan(duration_s=20.0, sample_rate=2000.0, swallow_every_n_chews=5, seed=12),
    # 17 chews, so a 4th swallow is due after the last chew and does not fit
    "last-swallow-skipped": SessionPlan(duration_s=12.0, swallow_every_n_chews=4, seed=0),
}


def session_digest(plan):
    recording = gen_session(plan)
    return {
        "sha256": hashlib.sha256(recording.samples.tobytes()).hexdigest(),
        "annotations": [[a.kind, a.onset_s, a.termination_s] for a in recording.annotations],
    }


@pytest.mark.parametrize("name", DIGEST_PLANS)
def test_recordings_pinned_bit_for_bit(datadir, name):
    expected = json.loads((datadir / "synth_digests.json").read_text())[name]
    assert session_digest(DIGEST_PLANS[name]) == expected
