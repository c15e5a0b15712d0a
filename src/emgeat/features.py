"""Window features for chewing and swallowing classification.

Eighteen features per channel per window. Time-domain features are computed
on the raw (untapered) segment; spectral features come from the periodogram
of the Hamming-tapered segment. Two burst-context features (cycle duration,
cycles per sequence) are filled in by the matrix builder from detected
bursts that intersect the window.

The periodogram and the features the streaming path shares (mav, iemg,
variance, rms, sd, peak_amp, mean_freq, mean_power) reduce along the last
axis: given one segment they return a float, given an (n, length) stack of
segments one value per row, each equal to that segment's own value.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import events as _events
from . import signal as _signal

FEATURE_NAMES = (
    "mav",
    "iemg",
    "var",
    "rms",
    "sd",
    "wl",
    "peak_amp",
    "myop",
    "wamp",
    "zc",
    "ssc",
    "mnf",
    "mnp",
    "mdf",
    "mpf",
    "t50",
    "cycle_duration",
    "cycles_per_sequence",
)

# Window lengths used by the two offline tasks, in seconds.
CHEW_WINDOW_S = 0.5
SWALLOW_WINDOW_S = 1.625

# Gap bound when grouping bursts into sequences for the cycle features.
CYCLE_SEQUENCE_GAP_S = 2.0

TASKS = {
    # task -> (positive label, matching annotation kind)
    "chew": ("C", "chew"),
    "swallow": ("S", "swallow"),
}

NEGATIVE_LABEL = "NA"


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry and feature thresholds.

    thr_f is the amplitude threshold shared by MYOP/WAMP/ZC/SSC; None means
    "derive from the recording baseline" when building a matrix, and 0.0 for
    standalone extraction.
    """

    length_s: float
    hop_s: float
    taper: bool = True
    thr_f: float = None

    def __post_init__(self):
        if self.length_s <= 0:
            raise ValueError("window length must be positive")
        if not 0 < self.hop_s <= self.length_s:
            raise ValueError("hop must be positive and no longer than the window")
        if self.thr_f is not None and self.thr_f < 0:
            raise ValueError("amplitude threshold must be non-negative")


def hamming_window(n: int) -> np.ndarray:
    """Hamming taper of length n; the degenerate n=1 window is [1.0]."""
    if n < 1:
        raise ValueError("window length must be >= 1")
    return np.hamming(n)


def periodogram(segment: np.ndarray, rate: float, taper: bool = True):
    """One-sided periodogram along the last axis. Returns (freqs_hz, power).

    Power convention is |X_j|^2 / n over the (optionally tapered) segment;
    spectral features below only depend on bin ratios plus this fixed scale.
    """
    x = np.asarray(segment, dtype=float)
    if x.size == 0:
        raise ValueError("empty segment")
    n = x.shape[-1]
    if taper:
        x = x * hamming_window(n)
    spectrum = np.fft.rfft(x)
    power = (spectrum.real**2 + spectrum.imag**2) / n
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    return freqs, power


def _value(v):
    """A float for one segment, the per-row array for a stack of segments."""
    return float(v) if v.ndim == 0 else v


# --- time-domain features -------------------------------------------------


def mav(x):
    """Mean absolute value."""
    return _value(np.abs(x).mean(axis=-1))


def iemg(x):
    """Integrated EMG: sum of absolute values."""
    return _value(np.abs(x).sum(axis=-1))


def variance(x):
    """Sample variance (N-1 denominator); 0 for a single sample."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        return _value(np.zeros(x.shape[:-1]))
    return _value(x.var(ddof=1, axis=-1))


def rms(x):
    """Root mean square."""
    return _value(np.sqrt(np.square(x).mean(axis=-1)))


def sd(x):
    """Sample standard deviation, sqrt of variance."""
    return _value(np.sqrt(variance(x)))


def waveform_length(x):
    """Cumulative length of the waveform: sum of |x[i+1] - x[i]|."""
    return float(np.sum(np.abs(np.diff(np.asarray(x, dtype=float)))))


def peak_amp(x):
    """Largest absolute amplitude in the segment."""
    return _value(np.abs(x).max(axis=-1))


def myop(x, thr: float):
    """Myopulse percentage rate: fraction of samples with |x| >= thr."""
    return float(np.mean(np.abs(x) >= thr))


def wamp(x, thr: float):
    """Willison amplitude as a rate: count of |x[i] - x[i+1]| >= thr over N-1."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0
    return float(np.sum(np.abs(np.diff(x)) >= thr) / (x.size - 1))


def zero_crossings(x, thr: float):
    """Sign-change rate: crossings with |x[i] - x[i+1]| >= thr over N-1 pairs."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0
    s = np.sign(x)
    crossing = (s[:-1] != s[1:]) & (np.abs(x[:-1] - x[1:]) >= thr)
    return float(np.sum(crossing) / (x.size - 1))


def slope_sign_changes(x, thr: float):
    """Rate of slope-sign turns: (x[i]-x[i-1])(x[i]-x[i+1]) >= thr over N-1."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return 0.0
    product = (x[1:-1] - x[:-2]) * (x[1:-1] - x[2:])
    return float(np.sum(product >= thr) / (x.size - 1))


def t50(x):
    """Normalized time at which the cumulative rectified sum reaches 50%."""
    x = np.abs(np.asarray(x, dtype=float))
    if x.size < 2:
        return 0.0
    c = np.cumsum(x)
    idx = int(np.argmax(c >= 0.5 * c[-1]))
    return idx / (x.size - 1)


# --- spectral features ----------------------------------------------------


def mean_freq(freqs, power):
    """Mean frequency: power-weighted average of the bin frequencies."""
    total = np.asarray(power).sum(axis=-1)
    weighted = (freqs * power).sum(axis=-1)
    zero = np.zeros(total.shape)
    return _value(np.divide(weighted, total, out=zero, where=total != 0))


def mean_power(power):
    """Average periodogram power over the one-sided bins."""
    return _value(np.asarray(power).mean(axis=-1))


def median_freq_index(power) -> int:
    """Smallest bin index where cumulative power reaches half the total."""
    c = np.cumsum(power)
    return int(np.argmax(c >= 0.5 * c[-1]))


def median_freq(freqs, power):
    """Frequency of the median-power bin."""
    return float(freqs[median_freq_index(power)])


def median_freq_power(power):
    """Periodogram power at the median-frequency bin."""
    return float(power[median_freq_index(power)])


# --- window extraction ----------------------------------------------------


def extract_features(
    segment: np.ndarray,
    rate: float,
    spec: WindowSpec,
    cycle_duration: float = 0.0,
    cycles_per_sequence: float = 0.0,
) -> np.ndarray:
    """All 18 features for one single-channel window, ordered as FEATURE_NAMES.

    The two cycle features cannot be derived from the segment alone and are
    passed in by the caller (0 when no burst context exists).
    """
    x = np.asarray(segment, dtype=float)
    if x.size == 0:
        raise ValueError("empty segment")
    if not np.isfinite(x).all():
        raise ValueError("segment contains non-finite samples")
    thr = 0.0 if spec.thr_f is None else spec.thr_f
    freqs, power = periodogram(x, rate, taper=spec.taper)
    values = np.array(
        [
            mav(x),
            iemg(x),
            variance(x),
            rms(x),
            sd(x),
            waveform_length(x),
            peak_amp(x),
            myop(x, thr),
            wamp(x, thr),
            zero_crossings(x, thr),
            slope_sign_changes(x, thr),
            mean_freq(freqs, power),
            mean_power(power),
            median_freq(freqs, power),
            median_freq_power(power),
            t50(x),
            float(cycle_duration),
            float(cycles_per_sequence),
        ]
    )
    if not np.isfinite(values).all():
        bad = FEATURE_NAMES[int(np.argmin(np.isfinite(values)))]
        raise ValueError(f"feature {bad} came out non-finite")
    return values


def window_starts(n_samples: int, n_window: int, n_hop: int) -> np.ndarray:
    """Start indices of every full window that fits in n_samples."""
    if n_window > n_samples:
        raise ValueError("signal shorter than one window")
    return np.arange(0, n_samples - n_window + 1, n_hop)


@dataclass
class FeatureMatrix:
    """Windowed feature rows for one or more recordings."""

    feature_names: tuple
    values: np.ndarray
    labels: np.ndarray
    participants: np.ndarray
    onsets_s: np.ndarray
    terminations_s: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise ValueError("values shape does not match feature_names")
        n = self.values.shape[0]
        for name in ("labels", "participants", "onsets_s", "terminations_s"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match values")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def _overlap(a0, a1, b0, b1):
    return max(0.0, min(a1, b1) - max(a0, b0))


def _window_label(t0, t1, annotations, kind, positive, min_fraction=0.5):
    """Positive when a single matching annotation covers >= half the window."""
    best = 0.0
    for ann in annotations:
        if ann.kind != kind:
            continue
        best = max(best, _overlap(t0, t1, ann.onset_s, ann.termination_s))
    return positive if best >= min_fraction * (t1 - t0) else NEGATIVE_LABEL


def _cycle_context(t0, t1, bursts, sequences):
    """Burst-derived cycle features for the window [t0, t1)."""
    best = None
    best_ov = 0.0
    for seq in sequences:
        for burst in seq:
            ov = _overlap(t0, t1, burst.onset_s, burst.termination_s)
            if ov > best_ov:
                best_ov = ov
                best = (burst, len(seq))
    if best is None:
        return 0.0, 0.0
    return best[0].duration_s, float(best[1])


def _resolve_threshold(processed, recording):
    """Eq-style activity threshold from the annotated quiet segment.

    Falls back to whole-signal statistics when the recording carries no
    baseline annotation.
    """
    quiet = recording.annotations_of("baseline")
    x = processed.samples
    if quiet:
        lo = int(quiet[0].onset_s * processed.rate)
        hi = int(quiet[0].termination_s * processed.rate)
        x = x[lo:max(hi, lo + 1)]
    stats = _events.baseline_stats(x)
    return _events.compute_threshold(stats.mu, stats.sigma)


def build_feature_matrix(
    recording: _signal.RawRecording,
    spec: WindowSpec,
    task: str,
) -> FeatureMatrix:
    """Slide windows over the conditioned channels and label them.

    Every row concatenates the per-channel feature blocks in channel order;
    column names are "<channel>_<feature>". A window is labelled with the
    task's positive class when at least half of it overlaps one matching
    annotation, NA otherwise.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {sorted(TASKS)}")
    positive, kind = TASKS[task]
    processed = _signal.preprocess_recording(recording)
    rate = processed[recording.channel_names[0]].rate

    n_window = int(spec.length_s * rate)
    n_hop = int(spec.hop_s * rate)
    if n_window < 1 or n_hop < 1:
        raise ValueError("window or hop too short for the decimated rate")
    starts = window_starts(
        processed[recording.channel_names[0]].samples.size, n_window, n_hop
    )

    per_channel = {}
    for name in recording.channel_names:
        sig = processed[name]
        thr = spec.thr_f if spec.thr_f is not None else _resolve_threshold(sig, recording)
        bursts = _events.detect_bursts(sig.samples, sig.rate, thr)
        sequences = _events.group_into_sequences(bursts, CYCLE_SEQUENCE_GAP_S)
        per_channel[name] = (sig, replace(spec, thr_f=thr), bursts, sequences)

    names = tuple(
        f"{ch}_{feat}" for ch in recording.channel_names for feat in FEATURE_NAMES
    )
    rows = np.empty((starts.size, len(names)))
    labels = np.empty(starts.size, dtype=object)
    onsets = starts / rate
    terms = (starts + n_window) / rate
    for i, s in enumerate(starts):
        t0, t1 = onsets[i], terms[i]
        blocks = []
        for name in recording.channel_names:
            sig, chan_spec, bursts, sequences = per_channel[name]
            cyc_dur, cyc_per_seq = _cycle_context(t0, t1, bursts, sequences)
            blocks.append(
                extract_features(
                    sig.samples[s : s + n_window],
                    sig.rate,
                    chan_spec,
                    cycle_duration=cyc_dur,
                    cycles_per_sequence=cyc_per_seq,
                )
            )
        rows[i] = np.concatenate(blocks)
        labels[i] = _window_label(t0, t1, recording.annotations, kind, positive)

    return FeatureMatrix(
        feature_names=names,
        values=rows,
        labels=labels,
        participants=np.full(starts.size, recording.participant_id, dtype=object),
        onsets_s=np.asarray(onsets, dtype=float),
        terminations_s=np.asarray(terms, dtype=float),
    )


def concat_matrices(matrices: list) -> FeatureMatrix:
    """Stack matrices from several recordings (column sets must agree)."""
    if not matrices:
        raise ValueError("no matrices to concatenate")
    names = matrices[0].feature_names
    for m in matrices[1:]:
        if m.feature_names != names:
            raise ValueError("feature name mismatch between matrices")
    return FeatureMatrix(
        feature_names=names,
        values=np.vstack([m.values for m in matrices]),
        labels=np.concatenate([m.labels for m in matrices]),
        participants=np.concatenate([m.participants for m in matrices]),
        onsets_s=np.concatenate([m.onsets_s for m in matrices]),
        terminations_s=np.concatenate([m.terminations_s for m in matrices]),
    )
