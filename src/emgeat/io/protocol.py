"""Newline-delimited wire protocol for live streaming sessions.

One frame per line: a kind token followed by space-separated key=value
fields. Frame timestamps are sample-clock seconds or microseconds, never
wall-clock, so transcripts are reproducible under any replay pacing.

Client to server: hello (session open, calibration profile), samples
(timestamped batch of raw amplitudes), bye (session close). Server to
client: hello (ack), rate (live chews per second, roughly once per streamed
second), level (feedback level transitions), bye (final event count), error
(protocol violations and back-pressure rejections).
"""

CLIENT_KINDS = ("hello", "samples", "bye")
SERVER_KINDS = ("hello", "rate", "level", "bye", "error")

# A samples frame may not carry more than this many seconds of signal; a
# client pushing further ahead of processing gets a slowdown error instead.
MAX_BUFFERED_S = 10.0

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


def parse_float(kind: str, fields: dict, name: str) -> float:
    require_fields(kind, fields, [name])
    try:
        return float(fields[name])
    except ValueError:
        raise ProtocolError(f"{kind} frame field {name} is not a number") from None


def parse_int(kind: str, fields: dict, name: str) -> int:
    require_fields(kind, fields, [name])
    try:
        return int(fields[name])
    except ValueError:
        raise ProtocolError(f"{kind} frame field {name} is not an integer") from None


def parse_values(fields: dict):
    """A samples frame's `v`: comma-separated floats, empty tokens skipped."""
    require_fields("samples", fields, ["v"])
    tokens = fields["v"].split(",")
    if "" in tokens:
        tokens = [t for t in tokens if t]
    try:
        return list(map(float, tokens))
    except ValueError:
        raise ProtocolError("samples frame carries unparseable samples") from None
