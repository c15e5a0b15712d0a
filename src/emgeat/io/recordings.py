"""Line-based text formats for recordings and annotations.

A recording file carries `# key=value` headers, a column header, and one
`timestamp_us,<channel>,...` row per sample; annotations live in a sidecar
`<path>.ann` with `kind,onset_s,termination_s` rows. Floats are written with
repr so a write/read round trip reproduces the exact values, which keeps
seeded pipelines byte-reproducible. Every number read back follows the
wire's number rule (`protocol.plain_ascii`).
"""

import math
from pathlib import Path

import numpy as np

from ..signal import Annotation, RawRecording, check_within, sample_time_us
from .protocol import plain_ascii

RECORDING_MAGIC = "# emg-recording v1"
ANNOTATION_MAGIC = "# emg-annotations v1"
_ANNOTATION_COLUMNS = ("kind", "onset_s", "termination_s")


class FormatError(ValueError):
    """A file does not follow the expected layout; message names the line."""


def read_lines(path, magic=None) -> list:
    """A UTF-8 text file's lines, split where universal-newline text mode
    splits them. A byte that is not UTF-8, or a first line other than the
    format's `magic`, is a FormatError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())  # same line ends
        raise FormatError(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    if lines[-1] == "":
        lines.pop()
    if magic is not None and (not lines or lines[0] != magic):
        raise FormatError(f"{path}:1: expected header {magic!r}")
    return lines


def rows(path, lines, start, columns):
    """Yield (`path:line`, fields) for every non-blank line from index
    `start`, each split at commas into one field per column name."""
    for i in range(start, len(lines)):
        if not lines[i]:
            continue
        where = f"{path}:{i + 1}"
        fields = lines[i].split(",")
        if len(fields) != len(columns):
            raise FormatError(f"{where}: expected {len(columns)} fields, got {len(fields)}")
        yield where, fields


def parse_floats(where, columns, fields) -> list:
    """The fields as finite floats; a value that breaks the wire's number
    rule (protocol.plain_ascii), is unparseable or is non-finite is a
    FormatError naming its column."""
    try:
        values = list(map(float, fields))
        if plain_ascii("".join(fields)) and all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for column, text in zip(columns, fields):
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or not plain_ascii(text):
            raise FormatError(f"{where}: {column} value {text!r} is unparseable")
        if not math.isfinite(value):
            raise FormatError(f"{where}: {column} value {text} is not finite")


def annotation_path(path) -> Path:
    return Path(str(path) + ".ann")


def write_recording(recording: RawRecording, path) -> Path:
    """Write samples and the annotation sidecar; returns the sample path.
    A non-finite sample, which read_recording would refuse, is refused
    before any file is opened."""
    finite = np.isfinite(recording.samples)
    if not finite.all():
        c, i = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(
            f"{recording.channel_names[c]} value {float(recording.samples[c, i])!r} "
            f"at sample {i} is not finite"
        )
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RECORDING_MAGIC + "\n")
        fh.write(f"# participant={recording.participant_id}\n")
        fh.write(f"# sample_rate_hz={recording.sample_rate!r}\n")
        fh.write("timestamp_us," + ",".join(recording.channel_names) + "\n")
        for i, values in enumerate(recording.samples.T):
            t_us = sample_time_us(i, recording.sample_rate)
            fh.write(f"{t_us}," + ",".join(repr(float(v)) for v in values) + "\n")
    with open(annotation_path(path), "w", encoding="utf-8") as fh:
        fh.write(ANNOTATION_MAGIC + "\n")
        fh.write(",".join(_ANNOTATION_COLUMNS) + "\n")
        for ann in recording.annotations:
            fh.write(
                f"{ann.kind},{float(ann.onset_s)!r},{float(ann.termination_s)!r}\n"
            )
    return path


def _read_headers(lines, path):
    headers = {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        try:
            key, value = lines[i][2:].split("=", 1)
        except ValueError:
            raise FormatError(f"{path}:{i + 1}: malformed header line") from None
        headers[key] = value
        i += 1
    return headers, i


def read_recording(path) -> RawRecording:
    """Parse a recording and its annotation sidecar (absent sidecar = none)."""
    path = Path(path)
    lines = read_lines(path, RECORDING_MAGIC)
    headers, i = _read_headers(lines, path)
    for key in ("participant", "sample_rate_hz"):
        if key not in headers:
            raise FormatError(f"{path}: missing header {key!r}")
    text = headers["sample_rate_hz"]
    try:
        sample_rate = float(text) if plain_ascii(text) else math.nan
    except ValueError:
        sample_rate = math.nan
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise FormatError(
            f"{path}: header sample_rate_hz={text} is not"
            " a positive finite number"
        )

    if i >= len(lines) or not lines[i].startswith("timestamp_us,"):
        raise FormatError(f"{path}:{i + 1}: expected column header")
    columns = lines[i].split(",")
    channel_names = tuple(columns[1:])

    samples = []
    for where, fields in rows(path, lines, i + 1, columns):
        # Exactly the clock write_recording writes: a deleted row or a wrong
        # sample_rate_hz header shows at the first row off it.
        expected = str(sample_time_us(len(samples), sample_rate))
        if fields[0] != expected:
            raise FormatError(f"{where}: timestamp {fields[0]} is not the clock's {expected}")
        samples.append(parse_floats(where, channel_names, fields[1:]))
    if not samples:
        raise FormatError(f"{path}: no sample rows")

    ann_file = annotation_path(path)
    duration_s = len(samples) / sample_rate
    annotations = _read_annotations(ann_file, duration_s) if ann_file.exists() else []
    try:
        return RawRecording(
            participant_id=headers["participant"],
            sample_rate=sample_rate,
            channel_names=channel_names,
            samples=np.asarray(samples, dtype=float).T,
            annotations=annotations,
        )
    except ValueError as exc:  # a participant id that no field can hold
        line = lines.index(f"# participant={headers['participant']}") + 1
        raise FormatError(f"{path}:{line}: {exc}") from None


def read_annotations(path) -> list:
    return _read_annotations(path, math.inf)


def _read_annotations(path, duration_s) -> list:
    """The sidecar's annotations; each must end by `duration_s`."""
    path = Path(path)
    lines = read_lines(path, ANNOTATION_MAGIC)
    _, i = _read_headers(lines, path)
    if i < len(lines) and lines[i].startswith("kind,"):
        i += 1
    out = []
    for where, (kind, *times) in rows(path, lines, i, _ANNOTATION_COLUMNS):
        onset, termination = parse_floats(where, _ANNOTATION_COLUMNS[1:], times)
        try:
            out.append(Annotation(kind, onset, termination))
            check_within(out[-1], duration_s)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return out
