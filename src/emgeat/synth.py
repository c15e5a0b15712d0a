"""Synthetic two-channel eating sessions with exact ground truth.

The generator builds seeded sessions from a small timing model: band-limited
Gaussian background on both channels, raised-cosine chew bursts on the
masseter channel (with a correlated low-amplitude bleed on the submental
channel), longer swallow bursts on the submental channel after every n-th
chew, and optional speech/motion artifacts on both. Every placed burst is
annotated with its exact sample-aligned interval, which is what makes these
sessions usable as ground truth for detector and classifier checks.

A session's bursts are rendered in blocks. The chew and swallow draws come
first, in one fixed order; then one _bursts call renders all chews and one
all swallows: a zero-padded (bursts, samples) block, band-passed in one
apply_filter call and shaped row by row in whole-block operations. The rows
are added into the channels in the order the draws were made. Artifacts,
which may be long and overlap, are drawn and rendered one at a time after
that. Recordings are bit-identical per plan, and tests/test_synth.py pins
the samples and annotations of a set of plans by digest.
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

# Largest |snr_db|, well past any real recording's. Above about 1000 dB the
# samples exceed what the wire accepts (io.protocol.MAX_SAMPLE_ABS), and
# above about 6200 dB the burst level overflows float64; at -100 dB a burst
# is 1e-5 of the background, which no detector can find.
MAX_ABS_SNR_DB = 100.0


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
        if not abs(self.snr_db) <= MAX_ABS_SNR_DB:
            raise ValueError(f"snr_db {self.snr_db!r} must be within ±{MAX_ABS_SNR_DB:g} dB")
        if self.swallow_every_n_chews < 1:
            raise ValueError("swallow_every_n_chews must be >= 1")
        if self.baseline_lead_s >= self.duration_s:
            raise ValueError("baseline lead must fit inside the session")


def _padded(rows) -> np.ndarray:
    """Stack 1-D arrays of any lengths into one zero-padded block."""
    block = np.zeros((len(rows), max((row.size for row in rows), default=0)))
    for out, row in zip(block, rows):
        out[: row.size] = row
    return block


def _peak_normalized(block: np.ndarray) -> np.ndarray:
    """Divide each row, in place, by its largest magnitude; a row of zeros
    stays zero. Padding must be zero, so the peak is the row's own."""
    peak = np.max(np.abs(block), axis=1, keepdims=True, initial=0.0)
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


def _bursts(noise, sample_rate: float, band, target_rms: float):
    """Render one burst per white-noise array; returns (block, lengths).

    Each array, at least 2 samples, becomes one row of a zero-padded block
    that is band-passed in one call (the filter is causal, so the padding
    does not reach a row's own samples). Each row then gets a raised-cosine
    envelope over its own length, zero past it, and is peak-normalized and
    scaled to the target RMS. Every row is bit-identical to its own
    one-row call.
    """
    lengths = [x.size for x in noise]
    if min(lengths, default=2) < 2:
        raise ValueError("burst too short for the sample rate")
    block = apply_filter(_padded(noise), bandpass(sample_rate, band))
    n = np.asarray(lengths)[:, None]
    k = np.arange(block.shape[1])
    envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1.0)))
    envelope[k >= n] = 0.0
    block *= envelope
    _peak_normalized(block)
    return _scaled_to_rms(block, lengths, target_rms), lengths


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

    # Background: each channel's white noise from its own seeded generator.
    samples = apply_filter(
        [np.random.default_rng(rng.integers(2**31)).standard_normal(n_total) for _ in CHANNELS],
        bandpass(fs),
    )
    samples *= NOISE_SIGMA
    masseter, submental = samples
    annotations = [Annotation("baseline", 0.0, plan.baseline_lead_s)]

    # Chew train: first burst right after the quiet lead, then jittered gaps.
    chew_starts, chew_noise, chew_terms = [], [], []
    t = plan.baseline_lead_s
    while gap is not None:
        dur = plan.chew_duration_mean_s * (1.0 + TIMING_JITTER * rng.uniform(-1.0, 1.0))
        i0 = int(round(t * fs))
        n_burst = int(round(dur * fs))
        if i0 + n_burst > n_total:
            break
        chew_starts.append(i0)
        chew_noise.append(np.random.default_rng(rng.integers(2**31)).standard_normal(n_burst))
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

    chews, chew_lengths = _bursts(chew_noise, fs, CHEW_BAND, burst_rms)
    _place(masseter, chew_starts, chew_lengths, chews)
    _place(submental, chew_starts, chew_lengths, SUBMENTAL_BLEED * chews)

    swallows, swallow_lengths = _bursts(swallow_noise, fs, SWALLOW_BAND, burst_rms)
    _place(submental, swallow_starts, swallow_lengths, swallows)

    # Artifacts: weaker, longer, irregular activity bleeding into both
    # channels. Each is drawn and rendered on its own, so memory stays
    # bounded by the artifact's own length however many overlap.
    level = ARTIFACT_LEVEL * burst_rms
    for kind, onset, term in plan.artifact_schedule:
        i0 = int(round(onset * fs))
        # Start and length round on their own, so one ending at the session
        # end can reach a sample past it.
        n_art = min(int(round((term - onset) * fs)), n_total - i0)
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
