"""Feature-matrix datasets, chew-event logs and rate series as text files."""

import math
from pathlib import Path

import numpy as np

from ..features import FeatureMatrix
from ..metrics import ChewEvent, check_event_order
from ..signal import check_field
from .recordings import FormatError, parse_floats, read_lines, rows

DATASET_MAGIC = "# emg-dataset v1"

_META_COLUMNS = ("participant", "label", "onset_s", "termination_s")


def write_dataset(matrix: FeatureMatrix, path) -> Path:
    for what, texts in (
        ("feature name", matrix.feature_names),
        ("participant", matrix.participants),
        ("label", matrix.labels),
    ):
        for text in set(map(str, texts)):
            check_field(what, text)  # before the file is opened
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DATASET_MAGIC + "\n")
        fh.write(",".join(_META_COLUMNS + tuple(matrix.feature_names)) + "\n")
        for i in range(matrix.n_rows):
            texts = [str(matrix.participants[i]), str(matrix.labels[i])]
            numbers = [matrix.onsets_s[i], matrix.terminations_s[i], *matrix.values[i]]
            fh.write(",".join(texts + [repr(float(v)) for v in numbers]) + "\n")
    return path


def read_dataset(path) -> FeatureMatrix:
    path = Path(path)
    lines = read_lines(path, DATASET_MAGIC)
    if len(lines) < 2:
        raise FormatError(f"{path}: missing column header")
    columns = lines[1].split(",")
    if tuple(columns[: len(_META_COLUMNS)]) != _META_COLUMNS:
        raise FormatError(f"{path}:2: unexpected leading columns")
    feature_names = tuple(columns[len(_META_COLUMNS) :])
    if not feature_names:
        raise FormatError(f"{path}:2: no feature columns")

    texts, numbers = [], []
    for where, fields in rows(path, lines, 2, columns):
        texts.append(fields[:2])
        numbers.append(parse_floats(where, columns[2:], fields[2:]))
    if not numbers:
        raise FormatError(f"{path}: no data rows")
    texts, numbers = np.asarray(texts, dtype=object), np.asarray(numbers, dtype=float)
    return FeatureMatrix(
        feature_names=feature_names,
        values=numbers[:, 2:].copy(),
        labels=texts[:, 1].copy(),
        participants=texts[:, 0].copy(),
        onsets_s=numbers[:, 0].copy(),
        terminations_s=numbers[:, 1].copy(),
    )


# --- event logs -------------------------------------------------------------
# One line per closed event, append-friendly (no header):
#   event,<onset_s>,<termination_s>,<duration_s>

_EVENT_COLUMNS = ("event", "onset_s", "termination_s", "duration_s")


def format_event_line(event: ChewEvent) -> str:
    return (
        f"event,{float(event.onset_s)!r},{float(event.termination_s)!r}"
        f",{float(event.duration_s)!r}"
    )


def append_events(events, path):
    path = Path(path)
    with open(path, "a", encoding="utf-8") as fh:
        for event in events:
            fh.write(format_event_line(event) + "\n")
    return path


def read_event_log(path) -> list:
    """Events in log order; they must be ordered and must not overlap."""
    path = Path(path)
    events = []
    for where, (tag, *times) in rows(path, read_lines(path), 0, _EVENT_COLUMNS):
        if tag != "event":
            raise FormatError(f"{where}: expected tag 'event', got {tag!r}")
        onset, termination = parse_floats(where, _EVENT_COLUMNS[1:3], times[:2])
        # The difference of two finite times overflows to inf for an event
        # wider than the largest float; the writer writes it as `inf`.
        if times[2] == "inf":
            duration = math.inf
        else:
            (duration,) = parse_floats(where, _EVENT_COLUMNS[3:], times[2:])
        try:
            event = ChewEvent(onset, termination)
            if not math.isclose(duration, event.duration_s, abs_tol=1e-9):
                raise ValueError(f"duration {times[2]} is not termination - onset")
            if events:
                check_event_order(events[-1], event)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
        events.append(event)
    return events


# --- rate series ------------------------------------------------------------
# Plain `t_s,rate_hz` rows, used by the feedback simulator; `#` comment lines
# and `t_s,` column headers may appear anywhere.

_RATE_COLUMNS = ("t_s", "rate_hz")


def read_rate_series(path) -> list:
    path = Path(path)
    lines = ["" if s.startswith(("#", "t_s,")) else s for s in read_lines(path)]
    out = []
    for where, fields in rows(path, lines, 0, _RATE_COLUMNS):
        t, rate = parse_floats(where, _RATE_COLUMNS, fields)
        if rate < 0:
            raise FormatError(f"{where}: rate {fields[1]} is negative")
        out.append((t, rate))
    return out
