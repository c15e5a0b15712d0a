"""Newline-delimited wire protocol for live streaming sessions.

One frame per line: a kind token followed by space-separated key=value
fields. Frame timestamps are sample-clock seconds or microseconds, never
wall-clock, so transcripts are reproducible under any replay pacing.

Client to server: hello (session open with the engine's inputs: the
participant, sample rate and calibration reference), samples (timestamped
batch of raw amplitudes), bye (session close). Server to client: hello
(ack), rate (live chews per second, roughly once per streamed second), level
(feedback level transitions), bye (final event count), error (the reason a
session ended: every error frame ends its session).

Every numeric field follows one number rule, the files' and the command
line's too: what float() or int() reads, in ASCII, without "_" and without
whitespace (`plain_ascii`). Text fields such as the participant id are free.
"""

CLIENT_KINDS = ("hello", "samples", "bye")
SERVER_KINDS = ("hello", "rate", "level", "bye", "error")

# The most signal one samples frame may carry, in seconds: the server pushes
# once per streamed second. A longer frame is a protocol error.
MAX_FRAME_S = 1.0

# Largest sample magnitude and the range of a hello's ref (the calibration
# reference the engine divides by). Within them |v| / ref stays below 1e100,
# so its squares and power spectra stay finite in every feature.
MAX_SAMPLE_ABS = 1e50
REF_RANGE = (1e-50, 1e50)


class ProtocolError(ValueError):
    pass


def format_frame(kind: str, fields: dict) -> str:
    """Render one frame line (no newline). Field order is preserved."""
    parts = [kind]
    for key, value in fields.items():
        value = repr(float(value)) if isinstance(value, float) else str(value)
        if " " in value or "=" in value or "\n" in value:
            raise ProtocolError(f"field {key}={value!r} not representable")
        parts.append(f"{key}={value}")
    return " ".join(parts)


def parse_frame(line: str, allowed=None):
    """Split a frame line into (kind, fields). Unknown kinds are rejected."""
    line = line.strip()
    if not line:
        raise ProtocolError("empty frame")
    tokens = line.split(" ")
    kind = tokens[0]
    known = allowed if allowed is not None else CLIENT_KINDS + SERVER_KINDS
    if kind not in known:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    fields = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise ProtocolError(f"malformed field {token!r} in {kind} frame")
        key, value = token.split("=", 1)
        if not key or key in fields:
            raise ProtocolError(f"bad or duplicate field {key!r} in {kind} frame")
        fields[key] = value
    return kind, fields


def require_fields(kind: str, fields: dict, names) -> None:
    for name in names:
        if name not in fields:
            raise ProtocolError(f"{kind} frame missing field {name!r}")


def plain_ascii(text: str) -> bool:
    """The number rule of the wire, the files and the command line, on top
    of what float() and int() check: a numeric field is ASCII and holds no
    "_" and no whitespace. Both functions read "1_0" as 10, accept non-ASCII
    digits, Arabic-Indic or fullwidth, and strip whitespace around a number.
    One `in` test per character: on a whole samples value list this costs
    far less than a regex or a set."""
    return text.isascii() and not (
        "_" in text or " " in text or "\t" in text or "\n" in text
        or "\v" in text or "\f" in text or "\r" in text
    )


def _parse_number(kind: str, fields: dict, name: str, convert, what: str):
    require_fields(kind, fields, [name])
    text = fields[name]
    if plain_ascii(text):
        try:
            return convert(text)
        except ValueError:
            pass
    raise ProtocolError(f"{kind} frame field {name} is not {what}")


def parse_float(kind: str, fields: dict, name: str) -> float:
    return _parse_number(kind, fields, name, float, "a number")


def parse_int(kind: str, fields: dict, name: str) -> int:
    return _parse_number(kind, fields, name, int, "an integer")


def parse_values(fields: dict, n: int) -> list:
    """A samples frame's `v`: exactly n comma-separated floats. The commas
    are counted before v is split, so a wrong n is refused unparsed; the
    number rule is checked once on the whole of v."""
    require_fields("samples", fields, ["v"])
    v = fields["v"]
    count = v.count(",") + 1
    if count != n:
        raise ProtocolError(f"samples frame field n is {n} but {count} values follow")
    if plain_ascii(v):
        try:
            return list(map(float, v.split(",")))
        except ValueError:
            pass
    raise ProtocolError("samples frame carries unparseable samples")
