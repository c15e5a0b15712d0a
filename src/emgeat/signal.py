"""Core signal types and the amplitude-conditioning chain.

Raw two-channel recordings (masseter, submental) are conditioned in a fixed
order before any feature extraction: band-pass filter, full-wave
rectification, min-max normalization, block-mean decimation (`block_means`,
the one decimator). The same chain, minus the per-recording normalization,
is reused by the streaming path. An envelope is a plain float array; its
rate is `envelope_rate(sample_rate)` on both paths.

This is the only module that touches scipy, and it never imports the
scipy.signal package: that package's __init__ pulls in scipy.stats,
interpolate and optimize, which were most of a server's start-up time and
memory. The band-pass design is emgeat's own numpy transcription of scipy's
Butterworth design (a test pins it bit-equal to scipy.signal.butter), and
the compiled sosfilt kernel is loaded straight from its extension file.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy

from .events import check_interval

# The conditioning band keeps the useful surface-EMG energy while removing
# motion drift below 20 Hz and out-of-band noise above 500 Hz.
EMG_BAND_HZ = (20.0, 500.0)
FILTER_ORDER = 5
DECIMATION_FACTOR = 10

# Annotation vocabulary used across the code base.
ANNOTATION_KINDS = ("chew", "swallow", "speech", "motion", "baseline")


@dataclass(frozen=True)
class Annotation:
    """Labelled time interval on a recording, in seconds from stream start."""

    kind: str
    onset_s: float
    termination_s: float

    def __post_init__(self):
        if self.kind not in ANNOTATION_KINDS:
            raise ValueError(f"unknown annotation kind {self.kind!r}")
        check_interval("annotation", self.onset_s, self.termination_s)
        if self.onset_s < 0:
            raise ValueError(f"annotation onset {self.onset_s} is negative")

    @property
    def duration_s(self) -> float:
        return self.termination_s - self.onset_s


def sample_time_us(n: int, sample_rate: float) -> int:
    """Sample n's time in whole microseconds: the clock of files and the wire."""
    return round(n * 1_000_000 / sample_rate)


def check_field(what: str, text: str):
    """Refuse text that one field of a comma-separated line cannot hold."""
    if any(c in text for c in ",\r\n"):
        raise ValueError(f"{what} {text!r} holds a comma or a line break")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} {text!r} has no UTF-8 encoding") from None


def check_within(ann: Annotation, duration_s: float):
    if ann.termination_s > duration_s + 1e-9:
        raise ValueError(
            f"annotation {ann.kind} ends at {ann.termination_s}s, "
            f"after the recording ({duration_s}s)"
        )


@dataclass
class RawRecording:
    """Multichannel EMG stream plus its ground-truth annotations.

    samples has shape (n_channels, n_samples); channel order matches
    channel_names.
    """

    participant_id: str
    sample_rate: float
    channel_names: tuple
    samples: np.ndarray
    annotations: list = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError("samples must be 2-D (channels x samples)")
        if len(self.channel_names) != self.samples.shape[0]:
            raise ValueError("channel_names does not match samples shape")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate {self.sample_rate} must be positive and finite")
        check_field("participant id", self.participant_id)
        for name in self.channel_names:
            check_field("channel name", name)
        # Annotations are kept sorted so downstream sweeps can assume order.
        self.annotations = sorted(self.annotations, key=lambda a: (a.onset_s, a.termination_s))
        for ann in self.annotations:
            check_within(ann, self.duration_s)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channel_names:
            raise ValueError(f"no channel named {name!r}")
        return self.samples[self.channel_names.index(name)]

    def annotations_of(self, kind: str) -> list:
        return [a for a in self.annotations if a.kind == kind]


def _load_sosfilt():
    """scipy.signal's compiled sosfilt kernel, without the package import.

    The extension file is found beside scipy/signal/__init__.py and loaded
    under its dotted name, so whichever of emgeat and scipy.signal is
    imported first, the process holds one kernel module object. There is
    no fallback: if scipy moves the kernel, this fails at import.
    """
    name = "scipy.signal._sosfilt"
    module = sys.modules.get(name)
    if module is None:
        dirs = [os.path.join(path, "signal") for path in scipy.__path__]
        found = importlib.machinery.PathFinder.find_spec("_sosfilt", dirs)
        if found is None:
            raise ImportError(f"no {name} extension in {dirs}", name=name)
        spec = importlib.util.spec_from_file_location(name, found.origin)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
    return module._sosfilt


_sosfilt = _load_sosfilt()


def _butter_bandpass(wn: np.ndarray) -> np.ndarray:
    """scipy.signal.butter(FILTER_ORDER, wn, btype="bandpass", output="sos").

    A transcription of scipy's buttap -> lp2bp_zpk -> bilinear_zpk ->
    zpk2sos(pairing="nearest") for this one case, with the same operations
    in the same order, so the coefficients are bit-equal to scipy's (a test
    pins this). wn holds the band edges as fractions of Nyquist.
    """
    n = FILTER_ORDER
    # Pre-warp the edges for the bilinear transform at fs = 2.
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # Analog low-pass prototype poles, scaled to the bandwidth and shifted
    # to +wo and -wo. The n zeros go to the origin, n stay at infinity.
    m = np.arange(-n + 1, n, 2, dtype=float)
    p_lp = -np.exp(1j * np.pi * m / (2 * n)) * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    analog = np.concatenate((p_lp + root, p_lp - root))
    # Bilinear transform: the origin maps to z = 1, infinity to z = -1.
    p = (4.0 + analog) / (4.0 - analog)
    gain = bw**n * np.real(4.0**n / np.prod(4.0 - analog))
    # One pole of each conjugate pair, then the real poles, as
    # scipy's _cplxreal orders them.
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= 100 * np.finfo(float).eps * abs(p)
    p = np.concatenate((p[~real & (p.imag > 0)], p[real].real))
    z = np.repeat([-1.0, 1.0], n)
    sos = np.zeros((n, 6))
    # Fill from the last section, each time with the pole nearest the unit
    # circle, its conjugate (or the next such real pole) and the two zeros
    # nearest it.
    for si in range(n - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[i]
        p = np.delete(p, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            i = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            p2 = p[i]
            p = np.delete(p, i)
        else:
            p2 = p1.conj()
        b = np.ones(1)
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            b = np.convolve(b, [1.0, -z[i]])
            z = np.delete(z, i)
        a = np.convolve(np.convolve([1 + 0j], [1, -p1]), [1, -p2]).real
        sos[si] = np.concatenate((b, a))
    sos[0, :3] *= gain
    return sos


@lru_cache(maxsize=32)
def _design(sample_rate: float, low_hz: float, high_hz: float) -> np.ndarray:
    nyquist = sample_rate / 2.0
    if not 0 < low_hz < high_hz:
        raise ValueError(f"invalid band edges low={low_hz} high={high_hz}")
    if not high_hz < nyquist:
        raise ValueError(f"high cut {high_hz} Hz must stay below Nyquist ({nyquist} Hz)")
    return _butter_bandpass(np.array([low_hz / nyquist, high_hz / nyquist]))


def bandpass(sample_rate: float, band=EMG_BAND_HZ) -> np.ndarray:
    """The order-FILTER_ORDER Butterworth band-pass as second-order sections.

    The analog prototype is mapped with the bilinear transform, pre-warped
    so the digital response is -3 dB at both band edges. The design is
    emgeat's own numpy transcription of scipy's, pinned bit-equal to
    scipy.signal.butter(FILTER_ORDER, band / nyquist, btype="bandpass",
    output="sos") by a test. Each (rate, band) is designed once; every call
    returns a fresh writeable copy, the layout apply_filter (and
    scipy.signal.sosfilt) takes.
    """
    return _design(sample_rate, *band).copy()


def apply_filter(x: np.ndarray, sos: np.ndarray, zi: np.ndarray = None) -> np.ndarray:
    """Run the filter causally over the samples (single forward pass).

    A forward pass keeps the path usable sample-by-sample in the streaming
    detector; no zero-phase (forward-backward) filtering is done anywhere.
    `zi`, the (sections, 2) state carried between chunks, starts at zero
    when omitted and is updated in place when given, so successive chunks
    filter exactly like their concatenation.

    A (rows, n) block filters each row as its own signal, from its own zero
    state or from row i of a given (rows, sections, 2) `zi`, in one kernel
    call; each row comes out bit-identical to its own 1-D call. The filter
    is causal, so zeros padded after a row leave that row's head unchanged.

    This is the one caller of the compiled kernel behind scipy.signal.sosfilt,
    loaded from its extension file without the scipy.signal package.
    Calling it directly skips the public function's validation and copies,
    which are most of the cost of a short live chunk; the results are
    bit-identical to the public filter's (a test pins this).
    """
    y = np.array(x, dtype=float, order="C")
    if y.ndim not in (1, 2):
        raise ValueError("expected a 1-D sample array or a 2-D (rows, samples) block")
    finite = np.isfinite(y)
    if not finite.all():
        *row, i = np.unravel_index(np.argmin(finite), y.shape)
        where = f"row {int(row[0])}, " if row else ""
        raise ValueError(f"non-finite sample at {where}index {int(i)}")
    rows = y.shape[0] if y.ndim == 2 else 1
    state = y.shape[:-1] + (len(sos), 2)
    if zi is None:
        zi = np.zeros(state)
    # The kernel reads and writes raw buffers: check what it cannot. A
    # "carray" is C-contiguous, aligned and writeable.
    for name, a, shape in (("sos", sos, (len(sos), 6)), ("zi", zi, state)):
        layout = isinstance(a, np.ndarray) and a.flags.carray and a.dtype == float
        if not (layout and a.shape == shape):
            raise ValueError(f"{name} must be a writeable C-contiguous float {shape} array")
    _sosfilt(sos, y.reshape(rows, y.shape[-1]), zi.reshape(rows, len(sos), 2))
    return y


def _check_signal(x) -> np.ndarray:
    """The samples of one signal as a float array; refuse a block."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D sample array")
    return x


def normalize(x: np.ndarray) -> np.ndarray:
    """Min-max normalization of the whole recording to [0, 1].

    A constant signal has no usable dynamic range and maps to all zeros.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot normalize an empty signal")
    lo = x.min()
    span = x.max() - lo
    if span == 0:
        return np.zeros_like(x)
    return (x - lo) / span


def block_means(x: np.ndarray, factor: int, carry: np.ndarray = None):
    """Means of the full blocks of `factor` samples of carry + x, and the
    samples left over; passing each leftover as the next call's `carry`
    decimates a chunked signal exactly like the whole of it."""
    if carry is not None and carry.size:
        x = np.concatenate([carry, x])
    n_full = x.size // factor
    blocks = x[: n_full * factor].reshape(n_full, factor)
    return np.add.reduce(blocks, axis=1) / factor, x[n_full * factor :]


def envelope_rate(sample_rate: float) -> float:
    """Rate of the decimated envelope conditioned from samples at sample_rate."""
    return sample_rate / DECIMATION_FACTOR


def preprocess(x: np.ndarray, sample_rate: float) -> np.ndarray:
    """Full conditioning chain: band-pass, rectify, normalize, block-mean
    decimation by DECIMATION_FACTOR to envelope_rate(sample_rate). A ragged
    final block is averaged over the samples it actually has."""
    y = apply_filter(_check_signal(x), bandpass(sample_rate))
    means, leftover = block_means(normalize(np.abs(y)), DECIMATION_FACTOR)
    if leftover.size:
        means = np.append(means, leftover.mean())
    return means


def preprocess_recording(recording: RawRecording) -> dict:
    """Condition every channel of a recording. Returns name -> envelope."""
    return {
        name: preprocess(recording.channel(name), recording.sample_rate)
        for name in recording.channel_names
    }
