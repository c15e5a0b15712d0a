"""Feature-matrix datasets, chew-event logs and rate series as text files."""

import math
from pathlib import Path

import numpy as np

from ..features import FeatureMatrix
from ..metrics import ChewEvent
from .recordings import FormatError

DATASET_MAGIC = "# emg-dataset v1"

_META_COLUMNS = ("participant", "label", "onset_s", "termination_s")


def write_dataset(matrix: FeatureMatrix, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(DATASET_MAGIC + "\n")
        fh.write(",".join(_META_COLUMNS + tuple(matrix.feature_names)) + "\n")
        for i in range(matrix.n_rows):
            row = [
                str(matrix.participants[i]),
                str(matrix.labels[i]),
                repr(float(matrix.onsets_s[i])),
                repr(float(matrix.terminations_s[i])),
            ] + [repr(float(v)) for v in matrix.values[i]]
            fh.write(",".join(row) + "\n")
    return path


def read_dataset(path) -> FeatureMatrix:
    path = Path(path)
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or lines[0].rstrip("\n") != DATASET_MAGIC:
        raise FormatError(f"{path}:1: expected header {DATASET_MAGIC!r}")
    if len(lines) < 2:
        raise FormatError(f"{path}: missing column header")
    columns = lines[1].rstrip("\n").split(",")
    if tuple(columns[: len(_META_COLUMNS)]) != _META_COLUMNS:
        raise FormatError(f"{path}:2: unexpected leading columns")
    feature_names = tuple(columns[len(_META_COLUMNS) :])
    if not feature_names:
        raise FormatError(f"{path}:2: no feature columns")

    participants, labels, onsets, terms, values = [], [], [], [], []
    for lineno in range(2, len(lines)):
        line = lines[lineno].rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise FormatError(
                f"{path}:{lineno + 1}: expected {len(columns)} fields, got {len(parts)}"
            )
        try:
            numbers = [float(p) for p in parts[2:]]
        except ValueError:
            raise FormatError(f"{path}:{lineno + 1}: unparseable row") from None
        if not all(map(math.isfinite, numbers)):
            k = next(k for k, v in enumerate(numbers) if not math.isfinite(v)) + 2
            raise FormatError(f"{path}:{lineno + 1}: {columns[k]} value {parts[k]} is not finite")
        participants.append(parts[0])
        labels.append(parts[1])
        onsets.append(numbers[0])
        terms.append(numbers[1])
        values.append(numbers[2:])
    if not values:
        raise FormatError(f"{path}: no data rows")
    return FeatureMatrix(
        feature_names=feature_names,
        values=np.asarray(values, dtype=float),
        labels=np.asarray(labels, dtype=object),
        participants=np.asarray(participants, dtype=object),
        onsets_s=np.asarray(onsets, dtype=float),
        terminations_s=np.asarray(terms, dtype=float),
    )


# --- event logs -------------------------------------------------------------
# One line per closed event, append-friendly (no header):
#   event,<onset_s>,<termination_s>,<duration_s>


def format_event_line(event: ChewEvent) -> str:
    return (
        f"event,{float(event.onset_s)!r},{float(event.termination_s)!r}"
        f",{float(event.duration_s)!r}"
    )


def append_events(events, path):
    path = Path(path)
    with open(path, "a") as fh:
        for event in events:
            fh.write(format_event_line(event) + "\n")
    return path


def read_event_log(path) -> list:
    path = Path(path)
    events = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4 or parts[0] != "event":
                raise FormatError(f"{path}:{lineno}: expected event,onset,term,duration")
            try:
                event = ChewEvent(float(parts[1]), float(parts[2]))
                if not math.isclose(float(parts[3]), event.duration_s, abs_tol=1e-9):
                    raise ValueError(f"duration {parts[3]} is not termination - onset")
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            events.append(event)
    return events


# --- rate series ------------------------------------------------------------
# Plain `t_s,rate_hz` rows, used by the feedback simulator.


def read_rate_series(path) -> list:
    path = Path(path)
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("t_s,"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected t_s,rate_hz")
            try:
                t, rate = float(parts[0]), float(parts[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: unparseable rate row") from None
            if not (math.isfinite(t) and math.isfinite(rate)):
                raise FormatError(f"{path}:{lineno}: rate row {line!r} is not finite")
            if rate < 0:
                raise FormatError(f"{path}:{lineno}: rate {parts[1]} is negative")
            out.append((t, rate))
    return out
