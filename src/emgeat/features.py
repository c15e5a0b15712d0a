"""Window features for chewing and swallowing classification.

Eighteen features per channel per window. Time-domain features are computed
on the raw (untapered) segment; spectral features come from the periodogram
of the Hamming-tapered segment. Two burst-context features (cycle duration,
cycles per sequence) are filled in by the matrix builder from the detected
burst that overlaps the window most.

Each of the sixteen segment formulas is written once, in _window_features,
which both extract_features and the live detector's realtime.rt_features
call. It, the periodogram and extract_features reduce along the last axis:
one segment gives one row, an (n, length) window stack one row per segment,
bit-identical to that segment's own. MYOP, WAMP, ZC and SSC are per-row
counts of samples or sample pairs that clear a threshold (Phinyomark et al.,
Expert Syst. Appl. 39(8), 2012).
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


def _half_index(c):
    """First index along the last axis where running sum c reaches half its end."""
    return np.argmax(c >= 0.5 * c[..., -1:], axis=-1)


def _window_features(out, x, rate, names, thr=None):
    """Write feature names[j] of every window of x (last axis) to out[..., j].

    Each formula is written once here, over intermediates shared between
    features: one |x|, one variance, one np.diff, one total power and one
    power cumsum. With thr None only mav, iemg, var, rms, sd, peak_amp, mnf
    and mnp are computed, the ones the live detector uses; the others need
    thr, the amplitude threshold of MYOP/WAMP/ZC/SSC.

    mav is iemg / n and mnp the total power over the bins: numpy's mean
    divides its sum the same way, so both are bit-identical to it.
    """
    freqs, power = periodogram(x, rate)
    n = x.shape[-1]
    magnitude = np.abs(x)
    iemg = np.add.reduce(magnitude, axis=-1)
    var = x.var(axis=-1, ddof=1) if n > 1 else np.zeros(x.shape[:-1])
    total = np.add.reduce(power, axis=-1)
    weighted = np.add.reduce(freqs * power, axis=-1)
    values = {
        "mav": iemg / n,
        "iemg": iemg,
        # Sample variance (N-1 denominator).
        "var": var,
        "rms": np.sqrt(np.square(x).mean(axis=-1)),
        "sd": np.sqrt(var),
        "peak_amp": np.maximum.reduce(magnitude, axis=-1),
        # Mean frequency: power-weighted average of the bin frequencies, 0
        # for a window without power.
        "mnf": np.divide(weighted, total, out=np.zeros(total.shape), where=total != 0),
        "mnp": total / power.shape[-1],
    }
    if thr is not None:
        # Rates over the n - 1 sample pairs (0 if n < 2).
        pairs = max(n - 1, 1)
        step = np.diff(x, axis=-1)
        step_size = np.abs(step)
        large_step = step_size >= thr
        sign = np.sign(x)
        median_index = _half_index(np.cumsum(power, axis=-1))
        values.update(
            {
                # Cumulative length of the waveform.
                "wl": step_size.sum(axis=-1),
                # Myopulse percentage rate: share of samples with |x| >= thr.
                "myop": (magnitude >= thr).mean(axis=-1),
                # Willison amplitude: pairs with |x[i+1] - x[i]| >= thr.
                "wamp": np.count_nonzero(large_step, axis=-1) / pairs,
                # Sign changes across a step of at least thr.
                "zc": np.count_nonzero(
                    (sign[..., :-1] != sign[..., 1:]) & large_step, axis=-1
                ) / pairs,
                # Slope-sign turns, (x[i]-x[i-1])(x[i]-x[i+1]) >= thr. That
                # product is exactly the negative of step[i-1] * step[i].
                "ssc": np.count_nonzero(step[..., :-1] * step[..., 1:] <= -thr, axis=-1)
                / pairs,
                # Frequency and power of the first bin where the cumulative
                # power reaches half the total.
                "mdf": freqs[median_index],
                "mpf": np.take_along_axis(power, median_index[..., None], axis=-1)[..., 0],
                # Normalized time at which the cumulative |x| reaches half its sum.
                "t50": _half_index(np.cumsum(magnitude, axis=-1)) / pairs,
            }
        )
    for j, name in enumerate(names):
        out[..., j] = values[name]


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
    values = np.empty(x.shape[:-1] + (len(FEATURE_NAMES),))
    _window_features(values, x, rate, FEATURE_NAMES[:-2], thr)
    values[..., -2] = cycle_duration
    values[..., -1] = cycles_per_sequence
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
