"""Synthetic two-channel eating sessions with exact ground truth.

The generator builds seeded sessions from a small timing model: band-limited
Gaussian background on both channels, raised-cosine chew bursts on the
masseter channel (with a correlated low-amplitude bleed on the submental
channel), longer swallow bursts on the submental channel after every n-th
chew, and optional speech/motion artifacts on both. Every placed burst is
annotated with its exact sample-aligned interval, which is what makes these
sessions usable as ground truth for detector and classifier checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .signal import Annotation, RawRecording, apply_filter, bandpass

CHANNELS = ("masseter", "submental")

# Carrier bands, Hz. Chew bursts sit higher than swallow bursts.
CHEW_BAND = (60.0, 300.0)
SWALLOW_BAND = (30.0, 150.0)
ARTIFACT_BAND = (20.0, 300.0)

# Fixed background level; burst strength is set relative to it via snr_db.
NOISE_SIGMA = 0.05

# Fraction of the chew waveform that leaks into the submental channel.
SUBMENTAL_BLEED = 0.3

SWALLOW_DELAY_S = 0.15
SWALLOW_DURATION_RANGE_S = (0.8, 1.2)
ARTIFACT_LEVEL = 0.3  # relative to the chew-burst RMS

# Relative jitter on chew spacing and duration.
TIMING_JITTER = 0.1


@dataclass(frozen=True)
class SessionPlan:
    """Everything needed to regenerate a session bit-for-bit."""

    duration_s: float = 60.0
    chew_rate_hz: float = 1.5
    chew_duration_mean_s: float = 0.42
    swallow_every_n_chews: int = 10
    snr_db: float = 20.0
    artifact_schedule: tuple = ()  # (kind, onset_s, termination_s) triples
    seed: int = 0
    sample_rate: float = 1024.0
    baseline_lead_s: float = 0.75
    participant_id: str = "P00"

    def __post_init__(self):
        for name in ("duration_s", "sample_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value!r} must be positive and finite")
        if self.chew_rate_hz < 0 or self.chew_duration_mean_s <= 0:
            raise ValueError("chew rate must be >= 0 and duration positive")
        if self.swallow_every_n_chews < 1:
            raise ValueError("swallow_every_n_chews must be >= 1")
        if self.baseline_lead_s < 0 or self.baseline_lead_s >= self.duration_s:
            raise ValueError("baseline lead must fit inside the session")


def _band_noise(n: int, sample_rate: float, band, rng) -> np.ndarray:
    """Unit-variance-ish Gaussian noise restricted to a frequency band."""
    return apply_filter(rng.standard_normal(n), bandpass(sample_rate, band))


def gen_baseline_noise(
    duration_s: float, sample_rate: float, sigma: float, seed: int
) -> np.ndarray:
    """Quiet-channel background: band-limited zero-mean Gaussian noise.

    sigma scales the white noise fed into the band-pass, so sigma=0 yields an
    all-zero signal.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(seed)
    return sigma * _band_noise(n, sample_rate, (20.0, 500.0), rng)


def _shaped_burst(n: int, sample_rate: float, band, rng) -> np.ndarray:
    """Band-limited carrier under a raised-cosine envelope, peak-normalized."""
    carrier = _band_noise(n, sample_rate, band, rng)
    k = np.arange(n)
    envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1))) if n > 1 else np.ones(1)
    shaped = carrier * envelope
    peak = np.max(np.abs(shaped))
    return shaped / peak if peak > 0 else shaped


def gen_chew_burst(
    duration_s: float, amplitude: float, sample_rate: float, seed: int
) -> np.ndarray:
    """One chew burst: enveloped noise carrier with the requested peak.

    The envelope rises from zero, peaks mid-burst and returns to zero; the
    carrier differs per seed while the envelope shape stays fixed.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate))
    if n < 2:
        raise ValueError("burst too short for the sample rate")
    rng = np.random.default_rng(seed)
    return amplitude * _shaped_burst(n, sample_rate, CHEW_BAND, rng)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x)))) if x.size else 0.0


def gen_session(plan: SessionPlan) -> RawRecording:
    """Render a full session from a plan. Deterministic per plan."""
    fs = plan.sample_rate
    n_total = int(round(plan.duration_s * fs))
    # rate 0 renders a baseline-only session (no chews, hence no swallows)
    gap = 1.0 / plan.chew_rate_hz if plan.chew_rate_hz > 0 else None
    max_duration = plan.chew_duration_mean_s * (1.0 + TIMING_JITTER)
    if gap is not None and gap * (1.0 - TIMING_JITTER) <= max_duration:
        raise ValueError(
            "infeasible plan: chew bursts would overlap "
            f"(rate {plan.chew_rate_hz}/s, duration {plan.chew_duration_mean_s}s)"
        )
    for kind, onset, term in plan.artifact_schedule:
        if kind not in ("speech", "motion"):
            raise ValueError(f"unsupported artifact kind {kind!r}")
        if not 0 <= onset < term <= plan.duration_s:
            raise ValueError(f"artifact [{onset}, {term}] outside the session")

    rng = np.random.default_rng(plan.seed)
    burst_rms = NOISE_SIGMA * 10.0 ** (plan.snr_db / 20.0)

    masseter = gen_baseline_noise(plan.duration_s, fs, NOISE_SIGMA, rng.integers(2**31))
    submental = gen_baseline_noise(plan.duration_s, fs, NOISE_SIGMA, rng.integers(2**31))
    annotations = [Annotation("baseline", 0.0, plan.baseline_lead_s)]

    def place(channel, start_idx, burst):
        channel[start_idx : start_idx + burst.size] += burst

    # Chew train: first burst right after the quiet lead, then jittered gaps.
    chew_terms = []
    t = plan.baseline_lead_s
    while gap is not None:
        dur = plan.chew_duration_mean_s * (1.0 + TIMING_JITTER * rng.uniform(-1.0, 1.0))
        i0 = int(round(t * fs))
        n_burst = int(round(dur * fs))
        if i0 + n_burst > n_total:
            break
        burst = gen_chew_burst(n_burst / fs, 1.0, fs, rng.integers(2**31))
        burst *= burst_rms / _rms(burst)
        place(masseter, i0, burst)
        place(submental, i0, SUBMENTAL_BLEED * burst)
        annotations.append(Annotation("chew", i0 / fs, (i0 + n_burst) / fs))
        chew_terms.append((i0 + n_burst) / fs)
        t += gap * (1.0 + TIMING_JITTER * rng.uniform(-1.0, 1.0))

    # A swallow follows every n-th chew, when it still fits the session.
    for k in range(plan.swallow_every_n_chews - 1, len(chew_terms), plan.swallow_every_n_chews):
        onset = chew_terms[k] + SWALLOW_DELAY_S
        dur = rng.uniform(*SWALLOW_DURATION_RANGE_S)
        i0 = int(round(onset * fs))
        n_burst = int(round(dur * fs))
        if i0 + n_burst > n_total:
            continue
        swallow = _shaped_burst(n_burst, fs, SWALLOW_BAND, rng)
        swallow *= burst_rms / _rms(swallow)
        place(submental, i0, swallow)
        annotations.append(Annotation("swallow", i0 / fs, (i0 + n_burst) / fs))

    # Artifacts: weaker, longer, irregular activity bleeding into both channels.
    for kind, onset, term in plan.artifact_schedule:
        i0 = int(round(onset * fs))
        n_art = int(round((term - onset) * fs))
        if n_art < 2:
            raise ValueError(f"artifact [{onset}, {term}] too short to render")
        modulation = np.abs(_band_noise(n_art, fs, (1.0, 5.0), rng))
        peak = modulation.max()
        if peak > 0:
            modulation /= peak
        for channel in (masseter, submental):
            carrier = _band_noise(n_art, fs, ARTIFACT_BAND, rng)
            art = carrier * modulation
            level = ARTIFACT_LEVEL * burst_rms
            art *= level / _rms(art) if _rms(art) > 0 else 1.0
            place(channel, i0, art)
        annotations.append(Annotation(kind, i0 / fs, (i0 + n_art) / fs))

    return RawRecording(
        participant_id=plan.participant_id,
        sample_rate=fs,
        channel_names=CHANNELS,
        samples=np.vstack([masseter, submental]),
        annotations=annotations,
    )
