"""Window features for chewing and swallowing classification.

Eighteen features per channel per window. Time-domain features are computed
on the raw (untapered) segment; spectral features come from the periodogram
of the Hamming-tapered segment. Two burst-context features (cycle duration,
cycles per sequence) are filled in by the matrix builder from the detected
burst that overlaps the window most.

Every feature function, the periodogram and extract_features reduce along
the last axis: one segment gives a float (extract_features one row), an
(n, length) window stack one value (row) per segment, bit-identical to that
segment's own. MYOP, WAMP, ZC and SSC are per-row counts of samples or sample
pairs that clear a threshold (Phinyomark et al., Expert Syst. Appl. 39(8),
2012).
"""

from dataclasses import dataclass

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

# Share of a window one annotation must cover for the window's positive label.
LABEL_MIN_FRACTION = 0.5

TASKS = {
    # task -> (positive label, matching annotation kind)
    "chew": ("C", "chew"),
    "swallow": ("S", "swallow"),
}

NEGATIVE_LABEL = "NA"


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry. The amplitude threshold shared by
    MYOP/WAMP/ZC/SSC comes from each recording's baseline."""

    length_s: float
    hop_s: float

    def __post_init__(self):
        if self.length_s <= 0:
            raise ValueError("window length must be positive")
        if not 0 < self.hop_s <= self.length_s:
            raise ValueError(f"hop {self.hop_s!r} must be positive and no longer than the window")


def periodogram(segment: np.ndarray, rate: float):
    """One-sided periodogram along the last axis. Returns (freqs_hz, power).

    Power convention is |X_j|^2 / n over the Hamming-tapered segment;
    spectral features below only depend on bin ratios plus this fixed scale.
    """
    x = np.asarray(segment, dtype=float)
    if x.size == 0:
        raise ValueError("empty segment")
    n = x.shape[-1]
    spectrum = np.fft.rfft(x * np.hamming(n))
    power = (spectrum.real**2 + spectrum.imag**2) / n
    return np.fft.rfftfreq(n, d=1.0 / rate), power


def _value(v, cast=float):
    """A Python scalar for one segment, the per-row array for a stack."""
    return cast(v) if v.ndim == 0 else v


def _pair_rate(hits, n: int):
    """Per-row count of true entries over the n - 1 sample pairs (0 if n < 2)."""
    return _value(np.count_nonzero(hits, axis=-1) / max(n - 1, 1))


def _half_index(c):
    """First index along the last axis where running sum c reaches half its end."""
    return np.argmax(c >= 0.5 * c[..., -1:], axis=-1)


# --- time-domain features -------------------------------------------------


def mav(x):
    """Mean absolute value."""
    return _value(np.abs(x).mean(axis=-1))


def iemg(x):
    """Integrated EMG: sum of absolute values."""
    return _value(np.add.reduce(np.abs(x), axis=-1))


def variance(x):
    """Sample variance (N-1 denominator); 0 for a single sample."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        return _value(np.zeros(x.shape[:-1]))
    return _value(x.var(axis=-1, ddof=1))


def rms(x):
    """Root mean square."""
    return _value(np.sqrt(np.square(x).mean(axis=-1)))


def sd(x):
    """Sample standard deviation, sqrt of variance."""
    return _value(np.sqrt(variance(x)))


def waveform_length(x):
    """Cumulative length of the waveform: sum of |x[i+1] - x[i]|."""
    return _value(np.abs(np.diff(np.asarray(x, dtype=float), axis=-1)).sum(axis=-1))


def peak_amp(x):
    """Largest absolute amplitude in the segment."""
    return _value(np.maximum.reduce(np.abs(x), axis=-1))


def myop(x, thr: float):
    """Myopulse percentage rate: fraction of samples with |x| >= thr."""
    return _value((np.abs(x) >= thr).mean(axis=-1))


def wamp(x, thr: float):
    """Willison amplitude as a rate: count of |x[i] - x[i+1]| >= thr over N-1."""
    x = np.asarray(x, dtype=float)
    return _pair_rate(np.abs(np.diff(x, axis=-1)) >= thr, x.shape[-1])


def zero_crossings(x, thr: float):
    """Sign-change rate: crossings with |x[i] - x[i+1]| >= thr over N-1 pairs."""
    x = np.asarray(x, dtype=float)
    s = np.sign(x)
    crossing = (s[..., :-1] != s[..., 1:]) & (np.abs(x[..., :-1] - x[..., 1:]) >= thr)
    return _pair_rate(crossing, x.shape[-1])


def slope_sign_changes(x, thr: float):
    """Rate of slope-sign turns: (x[i]-x[i-1])(x[i]-x[i+1]) >= thr over N-1."""
    x = np.asarray(x, dtype=float)
    product = (x[..., 1:-1] - x[..., :-2]) * (x[..., 1:-1] - x[..., 2:])
    return _pair_rate(product >= thr, x.shape[-1])


def t50(x):
    """Normalized time at which the cumulative rectified sum reaches 50%."""
    x = np.abs(np.asarray(x, dtype=float))
    return _value(_half_index(np.cumsum(x, axis=-1)) / max(x.shape[-1] - 1, 1))


# --- spectral features ----------------------------------------------------


def mean_freq(freqs, power):
    """Mean frequency: power-weighted average of the bin frequencies."""
    return _value(_weighted_freq(freqs, power, np.add.reduce(power, axis=-1)))


def _weighted_freq(freqs, power, total):
    """mean_freq given the total power along the last axis (0 where it is
    0), for a caller that needs the total as well."""
    weighted = np.add.reduce(freqs * power, axis=-1)
    return np.divide(weighted, total, out=np.zeros(total.shape), where=total != 0)


def mean_power(power):
    """Average periodogram power over the one-sided bins."""
    return _value(np.asarray(power).mean(axis=-1))


def median_freq_index(power):
    """Smallest bin index where cumulative power reaches half the total."""
    return _value(_half_index(np.cumsum(power, axis=-1)), int)


def median_freq(freqs, power):
    """Frequency of the median-power bin."""
    return _value(freqs[median_freq_index(power)])


def median_freq_power(power):
    """Periodogram power at the median-frequency bin."""
    idx = np.asarray(median_freq_index(power))[..., None]
    return _value(np.take_along_axis(np.asarray(power), idx, axis=-1)[..., 0])


# --- window extraction ----------------------------------------------------


def extract_features(
    segment: np.ndarray,
    rate: float,
    thr: float = 0.0,
    cycle_duration=0.0,
    cycles_per_sequence=0.0,
) -> np.ndarray:
    """All 18 features of single-channel windows, ordered as FEATURE_NAMES.

    One window gives 18 values, an (n, length) stack of windows an (n, 18)
    array whose rows equal each window's own. thr is the amplitude threshold
    of MYOP/WAMP/ZC/SSC. The two cycle features cannot be derived from the
    segment and are passed in by the caller, one value or one per window (0
    when no burst context exists).
    """
    x = np.asarray(segment, dtype=float)
    if x.size == 0:
        raise ValueError("empty segment")
    if not np.isfinite(x).all():
        raise ValueError("segment contains non-finite samples")
    freqs, power = periodogram(x, rate)
    values = np.stack(
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
            np.broadcast_to(np.asarray(cycle_duration, dtype=float), x.shape[:-1]),
            np.broadcast_to(np.asarray(cycles_per_sequence, dtype=float), x.shape[:-1]),
        ],
        axis=-1,
    )
    finite = np.isfinite(values).reshape(-1, len(FEATURE_NAMES)).all(axis=0)
    if not finite.all():
        bad = FEATURE_NAMES[int(np.argmin(finite))]
        raise ValueError(f"feature {bad} came out non-finite")
    return values


def _window_geometry(length_s: float, hop_s: float, rate: float):
    """Samples per window and per hop at `rate` (a decimated envelope's)."""
    n_window = int(length_s * rate)
    n_hop = int(hop_s * rate)
    if n_window < 1 or n_hop < 1:
        raise ValueError("window or hop too short for the decimated rate")
    return n_window, n_hop


def _segment_stack(x: np.ndarray, n_window: int, n_hop: int) -> np.ndarray:
    """Read-only (k, n_window) view of every full window of a contiguous
    signal, one every n_hop samples. The view is built directly, because
    sliding_window_view's argument handling alone costs about 12 us a call,
    an eighth of a live StreamEngine.push."""
    if n_window > x.size:
        raise ValueError("signal shorter than one window")
    k = (x.size - n_window) // n_hop + 1
    step = x.itemsize
    stack = np.ndarray((k, n_window), dtype=float, buffer=x, strides=(n_hop * step, step))
    stack.flags.writeable = False
    return stack


def _segment_times(first: int, k: int, n_window: int, n_hop: int, rate: float):
    """Start and end seconds of windows first .. first + k - 1 of a signal
    cut every n_hop samples into windows of n_window."""
    starts = np.arange(first, first + k) * n_hop
    return starts / rate, (starts + n_window) / rate


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


def _best_overlap(t0, t1, starts, ends):
    """Largest overlap of every window [t0, t1) with any interval [starts, ends).

    Returns (best, which): the overlap in seconds (0 when none) and the index
    of the first interval, in order, that reaches it (-1 when none overlaps).
    One pass per interval keeps memory at O(windows + intervals).
    """
    best = np.zeros(np.shape(t0))
    which = np.full(np.shape(t0), -1)
    for k, (start, end) in enumerate(zip(starts, ends)):
        ov = np.minimum(t1, end) - np.maximum(t0, start)
        better = ov > best
        best[better] = ov[better]
        which[better] = k
    return best, which


def _task(task: str):
    """The task's (positive label, annotation kind)."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {sorted(TASKS)}")
    return TASKS[task]


def window_matrix(recording, task, feature_names, values, onsets, terms) -> FeatureMatrix:
    """The FeatureMatrix of one recording's windows [onsets, terms), one row
    of `values` each.

    A window takes the task's positive label when a single annotation of the
    task's kind covers at least LABEL_MIN_FRACTION of it, NEGATIVE_LABEL
    otherwise; every row carries the recording's participant id. The label
    and participant columns hold shared str objects (np.full would copy).
    """
    positive, kind = _task(task)
    spans = recording.annotations_of(kind)
    starts, ends = [a.onset_s for a in spans], [a.termination_s for a in spans]
    best, _ = _best_overlap(onsets, terms, starts, ends)
    labels = np.array([NEGATIVE_LABEL] * best.size, dtype=object)
    labels[best >= LABEL_MIN_FRACTION * (terms - onsets)] = positive
    return FeatureMatrix(
        feature_names=feature_names,
        values=values,
        labels=labels,
        participants=np.array([recording.participant_id] * best.size, dtype=object),
        onsets_s=onsets,
        terminations_s=terms,
    )


def _resolve_threshold(envelope, rate, recording):
    """Eq-style activity threshold from the annotated quiet segment.

    Falls back to whole-signal statistics when the recording carries no
    baseline annotation.
    """
    quiet = recording.annotations_of("baseline")
    if quiet:
        lo = int(quiet[0].onset_s * rate)
        hi = int(quiet[0].termination_s * rate)
        envelope = envelope[lo:max(hi, lo + 1)]
    return _events.activity_threshold(envelope)


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
    _task(task)  # before the feature work
    envelopes = _signal.preprocess_recording(recording)
    rate = _signal.envelope_rate(recording.sample_rate)
    n_window, n_hop = _window_geometry(spec.length_s, spec.hop_s, rate)
    stacks = [_segment_stack(x, n_window, n_hop) for x in envelopes.values()]
    onsets, terms = _segment_times(0, len(stacks[0]), n_window, n_hop, rate)

    blocks = []
    for envelope, stack in zip(envelopes.values(), stacks):
        thr = _resolve_threshold(envelope, rate, recording)
        starts, ends = _events.detect_bursts(envelope, rate, thr)
        # Cycle context comes from the burst overlapping the window most; the
        # trailing 0 is what index -1 (no overlapping burst) picks.
        _, which = _best_overlap(onsets, terms, starts, ends)
        durations = np.append(ends - starts, 0.0)
        bounds = _events.sequence_bounds(starts, ends, CYCLE_SEQUENCE_GAP_S)
        per_burst = [b - a + 1 for a, b in bounds for _ in range(a, b + 1)]
        seq_lengths = np.array(per_burst + [0.0])
        blocks.append(
            extract_features(
                stack,
                rate,
                thr,
                cycle_duration=durations[which],
                cycles_per_sequence=seq_lengths[which],
            )
        )

    names = tuple(f"{ch}_{feat}" for ch in recording.channel_names for feat in FEATURE_NAMES)
    return window_matrix(recording, task, names, np.hstack(blocks), onsets, terms)


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
