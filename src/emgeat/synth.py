"""Synthetic two-channel eating sessions with exact ground truth.

The generator builds seeded sessions from a small timing model: band-limited
Gaussian background on both channels, raised-cosine chew bursts on the
masseter channel (with a correlated low-amplitude bleed on the submental
channel), longer swallow bursts on the submental channel after every n-th
chew, and optional speech/motion artifacts on both. Every placed burst is
annotated with its exact sample-aligned interval, which is what makes these
sessions usable as ground truth for detector and classifier checks.

A session's bursts are rendered in blocks. The chew and swallow draws come
first, in one fixed order; then chews and swallows each become one
zero-padded (bursts, samples) block, band-passed in one apply_filter call
and shaped row by row in whole-block operations, and the rows are added
into the channels in the order the draws were made. Artifacts, which may be
long and overlap, are drawn and rendered one at a time after that. A single
chew burst is the one-row case of the same renderer. Recordings are bit-identical
per plan, and tests/test_synth.py pins the samples and annotations of a
set of plans by digest.
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
        for name in ("duration_s", "sample_rate", "chew_duration_mean_s", "baseline_lead_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value!r} must be positive and finite")
        if not (math.isfinite(self.chew_rate_hz) and self.chew_rate_hz >= 0):
            raise ValueError(f"chew_rate_hz {self.chew_rate_hz!r} must be >= 0 and finite")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db {self.snr_db!r} must be finite")
        if self.swallow_every_n_chews < 1:
            raise ValueError("swallow_every_n_chews must be >= 1")
        if self.baseline_lead_s >= self.duration_s:
            raise ValueError("baseline lead must fit inside the session")


def _seeded_noise(seeds, lengths) -> np.ndarray:
    """Zero-padded white-noise block: row i holds lengths[i] standard
    normals from its own generator seeded with seeds[i]."""
    block = np.zeros((len(seeds), max(lengths, default=0)))
    for row, seed, n in zip(block, seeds, lengths):
        np.random.default_rng(seed).standard_normal(out=row[:n])
    return block


def _padded(rows) -> np.ndarray:
    """Stack 1-D arrays of any lengths into one zero-padded block."""
    block = np.zeros((len(rows), max((row.size for row in rows), default=0)))
    for out, row in zip(block, rows):
        out[: row.size] = row
    return block


def _peak_normalized(block: np.ndarray, scratch: np.ndarray = None) -> np.ndarray:
    """Divide each row, in place, by its largest magnitude; a row of zeros
    stays zero. Padding must be zero, so the peak is the row's own.
    `scratch`, a spent array of the block's shape, takes the magnitudes."""
    peak = np.max(np.abs(block, out=scratch), axis=1, keepdims=True, initial=0.0)
    block /= np.where(peak > 0, peak, 1.0)
    return block


def _scaled_to_rms(block: np.ndarray, lengths, target: float) -> np.ndarray:
    """Scale each row, in place, to the target RMS over its own length; a
    silent row stays as it is. Each sum runs over the row alone, in the
    pairwise order np.mean sums a 1-D array in."""
    sums = np.array([np.add.reduce(np.square(row[:n])) for row, n in zip(block, lengths)])
    rms = np.sqrt(sums / np.asarray(lengths))
    block *= np.divide(target, rms, out=np.ones_like(rms), where=rms > 0)[:, None]
    return block


def _shaped_bursts(noise: np.ndarray, lengths, sample_rate: float, band) -> np.ndarray:
    """Band-limited carriers under raised-cosine envelopes, peak-normalized.

    Row i of the zero-padded white-noise block is one burst of lengths[i]
    samples, at least 2. The whole block is filtered in one call (the
    filter is causal, so the padding does not reach a row's own samples),
    and each envelope spans its own row; samples past a row's length come
    out zero. The noise is spent: its buffer is reused for the envelopes.
    """
    if min(lengths, default=2) < 2:
        raise ValueError("burst too short for the sample rate")
    shaped = apply_filter(noise, bandpass(sample_rate, band))
    n = np.asarray(lengths)[:, None]
    k = np.arange(shaped.shape[1])
    envelope = np.divide(2.0 * np.pi * k, n - 1.0, out=noise)
    np.cos(envelope, out=envelope)
    np.subtract(1.0, envelope, out=envelope)
    envelope *= 0.5
    envelope[k >= n] = 0.0
    shaped *= envelope
    return _peak_normalized(shaped, scratch=envelope)


def _backgrounds(seeds, n: int, sample_rate: float, sigma: float) -> np.ndarray:
    """One row of band-limited background noise per seed, scaled by sigma."""
    noise = _seeded_noise(seeds, [n] * len(seeds))
    rows = apply_filter(noise, bandpass(sample_rate, (20.0, 500.0)))
    rows *= sigma
    return rows


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
    return _backgrounds([seed], n, sample_rate, sigma)[0]


def _chew_bursts(seeds, lengths, sample_rate: float) -> np.ndarray:
    """Unit-peak chew bursts, one zero-padded row per (seed, length)."""
    return _shaped_bursts(_seeded_noise(seeds, lengths), lengths, sample_rate, CHEW_BAND)


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
    return amplitude * _chew_bursts([seed], [n], sample_rate)[0]


def _place(channel: np.ndarray, starts, lengths, block: np.ndarray):
    """Add each burst row, over its own length, into the channel at its start."""
    for i0, n, burst in zip(starts, lengths, block):
        channel[i0 : i0 + n] += burst[:n]


def gen_session(plan: SessionPlan) -> RawRecording:
    """Render a full session from a plan. Deterministic per plan.

    Every random draw comes from the plan's seed, in a fixed order: the two
    background seeds; each chew's duration, carrier seed and next gap; each
    swallow's duration and carrier. Chews, then swallows, are rendered as
    one block each and added into the channels; last, each artifact draws
    its modulation and one carrier per channel and is added on its own.
    """
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

    samples = _backgrounds([rng.integers(2**31) for _ in CHANNELS], n_total, fs, NOISE_SIGMA)
    masseter, submental = samples
    annotations = [Annotation("baseline", 0.0, plan.baseline_lead_s)]

    # Chew train: first burst right after the quiet lead, then jittered gaps.
    chew_starts, chew_lengths, chew_seeds, chew_terms = [], [], [], []
    t = plan.baseline_lead_s
    while gap is not None:
        dur = plan.chew_duration_mean_s * (1.0 + TIMING_JITTER * rng.uniform(-1.0, 1.0))
        i0 = int(round(t * fs))
        n_burst = int(round(dur * fs))
        if i0 + n_burst > n_total:
            break
        chew_starts.append(i0)
        chew_lengths.append(n_burst)
        chew_seeds.append(rng.integers(2**31))
        annotations.append(Annotation("chew", i0 / fs, (i0 + n_burst) / fs))
        chew_terms.append((i0 + n_burst) / fs)
        t += gap * (1.0 + TIMING_JITTER * rng.uniform(-1.0, 1.0))

    # A swallow follows every n-th chew, when it still fits the session.
    swallow_starts, swallow_noise = [], []
    for k in range(plan.swallow_every_n_chews - 1, len(chew_terms), plan.swallow_every_n_chews):
        onset = chew_terms[k] + SWALLOW_DELAY_S
        dur = rng.uniform(*SWALLOW_DURATION_RANGE_S)
        i0 = int(round(onset * fs))
        n_burst = int(round(dur * fs))
        if i0 + n_burst > n_total:
            continue
        swallow_starts.append(i0)
        swallow_noise.append(rng.standard_normal(n_burst))
        annotations.append(Annotation("swallow", i0 / fs, (i0 + n_burst) / fs))

    chews = _chew_bursts(chew_seeds, chew_lengths, fs)
    _scaled_to_rms(chews, chew_lengths, burst_rms)
    _place(masseter, chew_starts, chew_lengths, chews)
    _place(submental, chew_starts, chew_lengths, SUBMENTAL_BLEED * chews)

    swallow_lengths = [x.size for x in swallow_noise]
    swallows = _shaped_bursts(_padded(swallow_noise), swallow_lengths, fs, SWALLOW_BAND)
    _scaled_to_rms(swallows, swallow_lengths, burst_rms)
    _place(submental, swallow_starts, swallow_lengths, swallows)

    # Artifacts: weaker, longer, irregular activity bleeding into both
    # channels. Each is drawn and rendered on its own, so memory stays
    # bounded by the artifact's own length however many overlap.
    level = ARTIFACT_LEVEL * burst_rms
    for kind, onset, term in plan.artifact_schedule:
        i0 = int(round(onset * fs))
        n_art = int(round((term - onset) * fs))
        if n_art < 2:
            raise ValueError(f"artifact [{onset}, {term}] too short to render")
        modulation = np.abs(apply_filter(rng.standard_normal(n_art), bandpass(fs, (1.0, 5.0))))
        _peak_normalized(modulation[None])
        for channel in (masseter, submental):
            art = apply_filter(rng.standard_normal(n_art), bandpass(fs, ARTIFACT_BAND))
            art *= modulation
            _scaled_to_rms(art[None], [n_art], level)
            channel[i0 : i0 + n_art] += art
        annotations.append(Annotation(kind, i0 / fs, (i0 + n_art) / fs))

    return RawRecording(
        participant_id=plan.participant_id,
        sample_rate=fs,
        channel_names=CHANNELS,
        samples=samples,
        annotations=annotations,
    )
