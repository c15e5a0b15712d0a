"""Streaming chew detection with live rate tracking.

The streaming path mirrors the offline conditioning but swaps per-recording
min-max normalization (impossible on a live stream) for amplitude scaling
against a calibration reference recorded beforehand. Short overlapping
segments are classified by the linear model, smoothed by a majority vote
over the trailing predictions, and positive runs become chew events.

The geometry is fixed (SEGMENT_S, HOP_S, VOTE_WINDOW, RATE_WINDOW_S and
signal.DECIMATION_FACTOR); only the calibration profile varies per session,
and its sample rate alone sets the envelope rate, so segment sizes and
decimation cannot disagree. Segments are cut, timed and (for training)
labelled with the window helpers of emgeat.features, the same ones the
offline feature matrix uses.

Training and serving share one segment pass (_segment_pass): rt_training_set
runs it once over a recording, StreamEngine.push once per chunk before the
vote and the run assembly.

Timing uses the sample clock throughout, never the wall clock, so replaying
a stream reproduces the event log exactly regardless of pacing.
"""

from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from . import features as _features
from . import signal as _signal
from .events import activity_threshold, detect_bursts
from .learn import LinearModel, decision_values
from .metrics import ChewEvent

RT_FEATURE_NAMES = ("mean", "sd", "peak_amp", "rms", "iemg", "mnf", "mnp")

# The one channel a live session streams and the streaming model is trained on.
STREAM_CHANNEL = "masseter"

# Streaming geometry: 0.5 s segments every 30 ms of the envelope decimated by
# signal.DECIMATION_FACTOR, an 8-vote majority and a 5 s rate window. The hop
# is deliberately much finer than the segment so the vote window stays
# shorter than the pause between consecutive chews; a coarser hop would fuse
# back-to-back chews into one event.
SEGMENT_S = 0.5
HOP_S = 0.03
VOTE_WINDOW = 8
RATE_WINDOW_S = 5.0

# Reference amplitude = this percentile of per-burst envelope peaks.
CALIBRATION_PERCENTILE = 95.0

# Fraction of calibration chunks (quietest first) used for baseline stats.
_QUIET_FRACTION = 0.25
_CHUNK_S = 0.5


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-session amplitude context captured before the meal. The engine
    reads the reference amplitude and the sample rate, nothing else."""

    reference_amplitude: float
    sample_rate: float
    # Only calibrate fills mu0 and delta0, and no stage reads them back:
    # they stay for the benchmark's hello (perfbench/wire.py) until it
    # stops sending them.
    mu0: float = np.nan
    delta0: float = np.nan
    source: str = ""


def calibrate(
    segments, sample_rate: float, source: str = ""
) -> CalibrationProfile:
    """Derive the amplitude reference from calibration recordings.

    Each raw segment is band-passed and rectified; baseline statistics come
    from the quietest chunks, bursts above mean + 5 sd are located, and the
    reference amplitude is the 95th percentile of the per-burst peaks.
    """
    if not segments:
        raise ValueError("no calibration segments")
    sos = _signal.bandpass(sample_rate)
    segments = [_signal._check_signal(s) for s in segments]
    rectified = [_signal.rectify(_signal.apply_filter(s, sos)) for s in segments]

    chunk = max(1, int(_CHUNK_S * sample_rate))
    pieces = [x[i : i + chunk] for x in rectified for i in range(0, x.size - chunk + 1, chunk)]
    if not pieces:
        raise ValueError("calibration segments shorter than one chunk")
    pieces.sort(key=lambda piece: float(np.sqrt(np.mean(piece**2))))
    quiet = np.concatenate(pieces[: max(1, int(len(pieces) * _QUIET_FRACTION))])
    thr = activity_threshold(quiet)

    peaks = []
    for x in rectified:
        onsets, terms = detect_bursts(x, sample_rate, thr)
        for lo, hi in zip(onsets.tolist(), terms.tolist()):
            # round(): int() can land one short and drop the last sample.
            peaks.append(float(x[round(lo * sample_rate) : round(hi * sample_rate)].max()))
    if not peaks:
        raise ValueError("no contractions detected in the calibration segments")

    return CalibrationProfile(
        reference_amplitude=float(np.percentile(peaks, CALIBRATION_PERCENTILE)),
        mu0=float(quiet.mean()),
        delta0=float(quiet.std()),
        sample_rate=sample_rate,
        source=source,
    )


def rt_features(segment: np.ndarray, profile: CalibrationProfile) -> np.ndarray:
    """Seven features of one envelope segment, ordered as RT_FEATURE_NAMES.

    The segment is divided by the calibration reference first, which scales
    every amplitude feature by 1/reference; spectral shape is unaffected. On
    the non-negative envelope the "mean" entry equals the mean absolute
    value, so each entry matches its offline counterpart on the same input.
    An (n, length) stack of segments gives an (n, 7) array whose rows equal
    the features of each segment alone.
    """
    x = np.asarray(segment, dtype=float) / profile.reference_amplitude
    freqs, power = _features.periodogram(x, _signal.envelope_rate(profile.sample_rate))
    f = _features
    out = np.empty(x.shape[:-1] + (len(RT_FEATURE_NAMES),))
    out[..., 0] = f.mav(x)
    out[..., 1] = f.sd(x)
    out[..., 2] = f.peak_amp(x)
    out[..., 3] = f.rms(x)
    out[..., 4] = f.iemg(x)
    out[..., 5] = f.mean_freq(freqs, power)
    out[..., 6] = f.mean_power(power)
    return out


def vote_filter(predictions) -> np.ndarray:
    """Majority vote over the trailing VOTE_WINDOW raw predictions.

    Position t looks at predictions[max(0, t-VOTE_WINDOW+1) .. t]; a tie
    counts as negative, and early positions use however many exist.
    """
    predictions = np.asarray(predictions, dtype=bool)
    positives = np.add.accumulate(predictions, dtype=int)
    positives[VOTE_WINDOW:] -= positives[:-VOTE_WINDOW]  # numpy buffers the overlap
    seen = np.minimum(np.arange(1, predictions.size + 1), VOTE_WINDOW)
    return positives * 2 > seen


def _assemble(st, votes, onsets, ends) -> list:
    """Feed votes into the open run of `st`; return the events closed.

    Vote k belongs to the segment spanning onsets[k] to ends[k] seconds. A
    maximal run of positive votes spans from its first segment's start to
    its last segment's end.
    """
    closed = []
    for vote, start_s, end_s in zip(votes, onsets, ends):
        if vote:
            if st.run_start_s is None:
                st.run_start_s = start_s
            st.last_positive_end_s = end_s
        else:
            closed += _close_run(st)
    return closed


def _close_run(st) -> list:
    """Log the open run, if any, as an event whose onset is clamped to the
    previous termination, so overlapping segments give a disjoint log."""
    if st.run_start_s is None:
        return []
    onset = st.run_start_s
    if st.events and st.events[-1].termination_s > onset:
        onset = st.events[-1].termination_s
    event = ChewEvent(onset_s=onset, termination_s=st.last_positive_end_s)
    st.events.append(event)
    st.run_start_s = st.last_positive_end_s = None
    return [event]


def live_rate(events, t: float) -> float:
    """Chews per second over the trailing RATE_WINDOW_S at time t.

    Counts events lying wholly inside [t - RATE_WINDOW_S, t] and divides by
    the window length, so the rate ramps up over a session's first window.
    The events must be in onset order, as _close_run logs them: the count
    walks back from the newest and stops at the first that starts before the
    window, so it reads only the window, however long the session.
    """
    recent = takewhile(lambda e: e.onset_s >= t - RATE_WINDOW_S, reversed(events))
    return sum(e.termination_s <= t for e in recent) / RATE_WINDOW_S


def check_streaming_model(model: LinearModel) -> None:
    """Reject a model that was not trained on RT_FEATURE_NAMES."""
    if tuple(model.feature_names) != RT_FEATURE_NAMES:
        raise ValueError(
            "model was not trained on the streaming feature set; build one"
            " with `featurize --realtime` + `train`"
        )


@dataclass
class StreamState:
    """Mutable per-session detector state (one per live stream).

    The profile fixes `sos` (its rate's band-pass), `rate` (the envelope's)
    and `n_segment`/`n_hop` (envelope samples), computed here once.
    `envelope` starts at the next segment, so between pushes it is shorter
    than one segment; segment k (counted by `segments`) starts at k * n_hop.
    `raw_predictions` holds the last VOTE_WINDOW - 1 predictions, all the
    next vote looks back on; `events` keeps every event of the session
    (live_rate reads its last 5 s).
    """

    profile: CalibrationProfile
    sos: np.ndarray = field(init=False)
    rate: float = field(init=False)
    n_segment: int = field(init=False)
    n_hop: int = field(init=False)
    zi: np.ndarray = field(init=False)
    raw_consumed: int = 0
    carry: np.ndarray = field(default_factory=lambda: np.zeros(0))
    envelope: np.ndarray = field(default_factory=lambda: np.zeros(0))
    segments: int = 0
    raw_predictions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    run_start_s: float = None
    last_positive_end_s: float = None
    events: list = field(default_factory=list)

    def __post_init__(self):
        self.sos = _signal.bandpass(self.profile.sample_rate)
        self.rate = _signal.envelope_rate(self.profile.sample_rate)
        self.n_segment, self.n_hop = _features._window_geometry(SEGMENT_S, HOP_S, self.rate)
        self.zi = np.zeros((self.sos.shape[0], 2))


def _segment_pass(st: StreamState, samples) -> tuple:
    """Band-pass (state in st.zi), rectify and block-mean decimate (tail in
    st.carry) a chunk of raw samples; return (rows, onsets, ends), the
    rt_features of every segment it completes, in one call, and the segments'
    start and end seconds in the session. Any chunking gives the rows of one
    whole pass.
    """
    filtered = _signal.apply_filter(_signal._check_signal(samples), st.sos, st.zi)
    envelope, st.carry = _signal.block_means(
        np.abs(filtered, out=filtered), _signal.DECIMATION_FACTOR, st.carry
    )
    st.raw_consumed += filtered.size
    st.envelope = np.concatenate([st.envelope, envelope])
    if st.envelope.size < st.n_segment:
        return np.empty((0, len(RT_FEATURE_NAMES))), np.empty(0), np.empty(0)
    segments = _features._segment_stack(st.envelope, st.n_segment, st.n_hop)
    k = segments.shape[0]
    rows = rt_features(segments, st.profile)
    onsets, ends = _features._segment_times(st.segments, k, st.n_segment, st.n_hop, st.rate)
    st.segments += k
    st.envelope = st.envelope[k * st.n_hop :]
    return rows, onsets, ends


class StreamEngine:
    """Causal sample-in, event-out chew detector.

    push() accepts raw masseter samples in arrival order and returns any
    events that closed during that chunk. All state lives in a StreamState,
    and identical sample streams produce identical event logs no matter how
    the samples are chunked into pushes.
    """

    def __init__(self, model: LinearModel, profile: CalibrationProfile):
        check_streaming_model(model)
        self.model = model
        self.state = StreamState(profile)

    @property
    def current_time_s(self) -> float:
        return self.state.raw_consumed / self.state.profile.sample_rate

    @property
    def events(self) -> list:
        return list(self.state.events)

    def push(self, samples: np.ndarray) -> list:
        """Consume a 1-D chunk of raw samples; return events it closed."""
        st = self.state
        rows, onsets, ends = _segment_pass(st, samples)
        if not onsets.size:
            return []
        # decision_values is per row, so the outcome does not depend on how
        # many segments share the push.
        history = np.concatenate(
            [st.raw_predictions, decision_values(self.model, rows) > 0]
        )
        votes = vote_filter(history)[-onsets.size :]
        # The next vote looks back on only the last VOTE_WINDOW - 1 predictions.
        st.raw_predictions = history[max(0, history.size - VOTE_WINDOW + 1) :]
        return _assemble(st, votes.tolist(), onsets.tolist(), ends.tolist())

    def finalize(self) -> list:
        """Close a trailing open event at end of stream."""
        return _close_run(self.state)

    def rate_at(self, t: float) -> float:
        return live_rate(self.state.events, t)


def rt_training_set(recording, profile: CalibrationProfile):
    """Windowed streaming features for one recording, as a FeatureMatrix.

    Runs the engine's segment pass once over the whole STREAM_CHANNEL, so
    the rows are exactly the segments a StreamEngine classifies on the same
    samples, labelled for the chew task by features.window_matrix. The
    profile must have been calibrated at the recording's sample rate.
    """
    if recording.sample_rate != profile.sample_rate:
        raise ValueError(
            f"profile calibrated at {profile.sample_rate!r} Hz, recording"
            f" sampled at {recording.sample_rate!r} Hz"
        )
    rows, onsets, ends = _segment_pass(
        StreamState(profile), recording.channel(STREAM_CHANNEL)
    )
    if not onsets.size:
        raise ValueError("signal shorter than one window")
    return _features.window_matrix(recording, "chew", RT_FEATURE_NAMES, rows, onsets, ends)
