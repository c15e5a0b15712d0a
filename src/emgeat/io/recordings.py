"""Line-based text formats for recordings and annotations.

A recording file carries `# key=value` headers, a column header, and one
`timestamp_us,<channel>,...` row per sample; annotations live in a sidecar
`<path>.ann` with `kind,onset_s,termination_s` rows. Floats are written with
repr so a write/read round trip reproduces the exact values, which keeps
seeded pipelines byte-reproducible.
"""

import math
from pathlib import Path

import numpy as np

from ..signal import Annotation, RawRecording

RECORDING_MAGIC = "# emg-recording v1"
ANNOTATION_MAGIC = "# emg-annotations v1"


class FormatError(ValueError):
    """A file does not follow the expected layout; message names the line."""


def annotation_path(path) -> Path:
    return Path(str(path) + ".ann")


def write_recording(recording: RawRecording, path) -> Path:
    """Write samples and the annotation sidecar; returns the sample path."""
    path = Path(path)
    timestamps = [
        round(i * 1_000_000 / recording.sample_rate) for i in range(recording.n_samples)
    ]
    with open(path, "w") as fh:
        fh.write(RECORDING_MAGIC + "\n")
        fh.write(f"# participant={recording.participant_id}\n")
        fh.write(f"# sample_rate_hz={recording.sample_rate!r}\n")
        fh.write("timestamp_us," + ",".join(recording.channel_names) + "\n")
        columns = recording.samples
        for i, t_us in enumerate(timestamps):
            fh.write(
                str(t_us) + "," + ",".join(repr(float(v)) for v in columns[:, i]) + "\n"
            )
    with open(annotation_path(path), "w") as fh:
        fh.write(ANNOTATION_MAGIC + "\n")
        fh.write("kind,onset_s,termination_s\n")
        for ann in recording.annotations:
            fh.write(
                f"{ann.kind},{float(ann.onset_s)!r},{float(ann.termination_s)!r}\n"
            )
    return path


def _read_headers(lines, magic, path):
    if not lines or lines[0].rstrip("\n") != magic:
        raise FormatError(f"{path}:1: expected header {magic!r}")
    headers = {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        try:
            key, value = lines[i][2:].rstrip("\n").split("=", 1)
        except ValueError:
            raise FormatError(f"{path}:{i + 1}: malformed header line") from None
        headers[key] = value
        i += 1
    return headers, i


def read_recording(path) -> RawRecording:
    """Parse a recording and its annotation sidecar (absent sidecar = none)."""
    path = Path(path)
    with open(path) as fh:
        lines = fh.readlines()
    headers, i = _read_headers(lines, RECORDING_MAGIC, path)
    for key in ("participant", "sample_rate_hz"):
        if key not in headers:
            raise FormatError(f"{path}: missing header {key!r}")
    try:
        sample_rate = float(headers["sample_rate_hz"])
    except ValueError:
        sample_rate = math.nan
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise FormatError(
            f"{path}: header sample_rate_hz={headers['sample_rate_hz']} is not"
            " a positive finite number"
        )

    if i >= len(lines) or not lines[i].startswith("timestamp_us,"):
        raise FormatError(f"{path}:{i + 1}: expected column header")
    channel_names = tuple(lines[i].rstrip("\n").split(",")[1:])
    if not channel_names:
        raise FormatError(f"{path}:{i + 1}: no channels declared")
    i += 1

    n_cols = len(channel_names) + 1
    rows = []
    last_t = -1
    for lineno in range(i, len(lines)):
        line = lines[lineno].rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise FormatError(
                f"{path}:{lineno + 1}: expected {n_cols} fields, got {len(parts)}"
                " (file truncated mid-row?)"
            )
        try:
            t_us = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise FormatError(f"{path}:{lineno + 1}: unparseable sample row") from None
        if not all(map(math.isfinite, values)):
            k = next(k for k, v in enumerate(values) if not math.isfinite(v))
            where = f"{path}:{lineno + 1}: {channel_names[k]} sample {parts[k + 1]}"
            raise FormatError(f"{where} is not finite")
        if t_us <= last_t:
            raise FormatError(
                f"{path}:{lineno + 1}: timestamp {t_us} does not increase"
            )
        last_t = t_us
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no sample rows")

    annotations = []
    ann_file = annotation_path(path)
    if ann_file.exists():
        annotations = read_annotations(ann_file)
    return RawRecording(
        participant_id=headers["participant"],
        sample_rate=sample_rate,
        channel_names=channel_names,
        samples=np.asarray(rows, dtype=float).T,
        annotations=annotations,
    )


def read_annotations(path) -> list:
    path = Path(path)
    with open(path) as fh:
        lines = fh.readlines()
    _, i = _read_headers(lines, ANNOTATION_MAGIC, path)
    if i < len(lines) and lines[i].startswith("kind,"):
        i += 1
    out = []
    for lineno in range(i, len(lines)):
        line = lines[lineno].rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno + 1}: expected kind,onset,termination")
        try:
            out.append(Annotation(parts[0], float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno + 1}: {exc}") from None
    return out
