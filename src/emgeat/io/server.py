"""TCP streaming server: samples in, rate/level frames and event logs out.

Each connection is one `_Session`, the one owner of the wire protocol; the
handler only moves bytes to and from `_Session.feed`. Frames are processed
synchronously in arrival order and every outgoing value is derived from the
sample clock, so identical client transcripts produce byte-identical server
transcripts. Two concurrent sessions share nothing but the (read-only) model.

Every frame is parsed and checked on arrival, but its samples are held until
they complete a streamed second: the engine is fed once per second, at the
rate tick, because most of a push's cost is fixed (at 1024 Hz a push of a
second's 1024 samples costs about twice one of a 128-sample frame, not eight
times). The engine is chunk-invariant, so the replies and the event log are
the same as with one push per frame; only the moment an event-log line is
written moves to the end of its second. However a session ends (bye, an
error or a disconnect), the held samples are pushed and their events logged
first.
"""

import math
import re
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path

from ..feedback import FeedbackLevel, RateNormalizer, map_level, normalize_rate
from ..learn import LinearModel
from ..realtime import CalibrationProfile, StreamEngine, check_streaming_model
from ..signal import sample_time_us
from . import protocol
from .datasets import append_events

DEFAULT_REFERENCE_RATE_HZ = 1.6

# Longest frame line read before hello; a hello needs a few hundred bytes.
_HELLO_LINE_BYTES = 4096
# Highest hello sample_rate; it bounds the line cap derived from it (32 MB).
_MAX_SAMPLE_RATE_HZ = 100_000.0
# Bytes allowed per sample value after hello. A float's shortest repr and its
# comma take at most 25, so a frame of MAX_BUFFERED_S of signal always fits,
# and one a little longer still gets its slowdown reply.
_VALUE_BYTES = 32


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from EmgServer.port
    log_dir: Path = None  # event logs are skipped when None
    reference_rate_hz: float = DEFAULT_REFERENCE_RATE_HZ

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} is outside 0..65535")
        RateNormalizer(self.reference_rate_hz)  # the sessions' rule and message


def _positive_float(fields, name: str) -> float:
    value = protocol.parse_float("hello", fields, name)
    if not (math.isfinite(value) and value > 0):
        raise protocol.ProtocolError(f"hello {name} must be positive and finite")
    return value


class _Session:
    """The wire protocol of one connection. `feed` turns a received line
    into reply frames (line cap, UTF-8, parse, hello first, dispatch) and
    sets `done` at bye; it raises ProtocolError for the client's fault,
    ValueError or OSError for the server's."""

    def __init__(self, model, normalizer: RateNormalizer, log_path):
        self.model = model
        self.normalizer = normalizer  # the server's, unless hello sets r_ref
        self.log_path = log_path
        self.engine = None
        self.sample_rate = None  # the hello's
        self.max_line = _HELLO_LINE_BYTES  # longest line accepted, in bytes
        self.done = False  # bye answered
        self.received = 0  # samples accepted, the sample clock
        self.pending = []  # accepted samples not yet pushed, under 1 s + 1 frame
        self.last_rate_second = 0
        self.last_level = FeedbackLevel.NO_PULSE

    def feed(self, line: bytes) -> list:
        """The reply frames to one received line, its newline included."""
        if len(line) > self.max_line:
            raise protocol.ProtocolError(f"frame longer than {self.max_line} bytes")
        try:
            text = line.decode()
        except UnicodeDecodeError:
            raise protocol.ProtocolError("frame is not UTF-8") from None
        kind, fields = protocol.parse_frame(text, allowed=protocol.CLIENT_KINDS)
        if self.engine is None:
            if kind != "hello":
                raise protocol.ProtocolError("session must open with hello")
            return self.open(fields)
        if kind == "hello":
            raise protocol.ProtocolError("duplicate hello")
        if kind == "samples":
            return self.samples(fields)
        self.done = True  # bye
        return self.close()

    def open(self, fields) -> list:
        protocol.require_fields(
            "hello", fields, ["participant", "sample_rate", "ref", "mu0", "delta0"]
        )
        sample_rate = _positive_float(fields, "sample_rate")
        if sample_rate > _MAX_SAMPLE_RATE_HZ:
            raise protocol.ProtocolError(
                f"hello sample_rate {sample_rate!r} is above {_MAX_SAMPLE_RATE_HZ!r} Hz"
            )
        ref, (low, high) = _positive_float(fields, "ref"), protocol.REF_RANGE
        if not low <= ref <= high:
            raise protocol.ProtocolError(f"hello ref {ref!r} is outside [{low!r}, {high!r}]")
        profile = CalibrationProfile(
            reference_amplitude=ref,
            mu0=protocol.parse_float("hello", fields, "mu0"),
            delta0=protocol.parse_float("hello", fields, "delta0"),
            sample_rate=sample_rate,
        )
        try:
            engine = StreamEngine(self.model, profile)
        except ValueError as exc:  # the band-pass must fit the rate
            raise protocol.ProtocolError(f"hello sample_rate {sample_rate!r}: {exc}")
        if "r_ref" in fields:
            self.normalizer = RateNormalizer(_positive_float(fields, "r_ref"))
        self.sample_rate = sample_rate
        self.max_line += int(protocol.MAX_BUFFERED_S * sample_rate) * _VALUE_BYTES
        self.engine = engine  # last: a session with an engine is fully open
        return [protocol.format_frame("hello", {"participant": fields["participant"]})]

    def samples(self, fields) -> list:
        t_us = protocol.parse_int("samples", fields, "t_us")
        values = protocol.parse_values(fields)
        if not values:
            raise protocol.ProtocolError("samples frame carries no values")
        n = protocol.parse_int("samples", fields, "n")
        if n != len(values):
            raise protocol.ProtocolError(
                f"samples frame field n is {n} but {len(values)} values follow"
            )
        # One C call per frame: the norm is nan, inf or above the limit
        # whenever a value is, and the scan only runs then. Rejecting here
        # keeps nan, inf and values whose features would overflow out of the
        # engine's filter state.
        limit = protocol.MAX_SAMPLE_ABS
        if not math.hypot(*values) <= limit:
            bad = next((i for i, v in enumerate(values) if not abs(v) <= limit), None)
            if bad is not None:
                v = values[bad]
                problem = "is not finite" if not math.isfinite(v) else (
                    f"exceeds {limit!r} in magnitude, where features overflow"
                )
                raise protocol.ProtocolError(f"samples value {v!r} at index {bad} {problem}")
        # t_us is the sample clock: a dropped, repeated or reordered frame
        # shows as a mismatch with the samples received so far.
        fs = self.sample_rate
        expected = sample_time_us(self.received, fs)
        if t_us != expected:
            raise protocol.ProtocolError(
                f"samples timestamp {t_us} is not {expected}: the clock must"
                f" advance with the {self.received} samples received"
            )
        if len(values) > protocol.MAX_BUFFERED_S * fs:
            # Back-pressure: refuse to buffer more than MAX_BUFFERED_S at once.
            return [
                protocol.format_frame(
                    "error",
                    {"reason": "slowdown", "max_buffered_s": protocol.MAX_BUFFERED_S},
                )
            ]
        self.pending += values
        self.received += len(values)
        if int(self.received / fs) <= self.last_rate_second:
            return []  # no second completed, nothing to report yet
        self.flush()
        return self._tick()

    def flush(self):
        """Push the held samples in one call and log the events they close."""
        if self.pending:
            chunk, self.pending = self.pending, []
            self._log_events(self.engine.push(chunk))

    def close(self) -> list:
        self.flush()
        self._log_events(self.engine.finalize())
        return [protocol.format_frame("bye", {"events": len(self.engine.events)})]

    def _log_events(self, events):
        if events and self.log_path is not None:
            append_events(events, self.log_path)

    def _tick(self) -> list:
        """Rate frame per whole streamed second, level frame on transitions."""
        out = []
        now = int(self.received / self.sample_rate)  # the engine's clock, flushed
        while self.last_rate_second < now:
            self.last_rate_second += 1
            t = float(self.last_rate_second)
            rate = self.engine.rate_at(t)
            out.append(protocol.format_frame("rate", {"t": t, "value": rate}))
            level = map_level(normalize_rate(rate, self.normalizer))
            if level is not self.last_level:
                out.append(protocol.format_frame("level", {"t": t, "value": level.label}))
                self.last_level = level
        return out


class _Handler(socketserver.StreamRequestHandler):
    """Moves bytes: lines to the session, its replies back to the client."""

    def handle(self):
        server = self.server
        try:
            session = _Session(server.model, server.normalizer, server.next_log_path())
        except OSError as exc:
            return self._send_error(exc)
        error = None
        try:
            # One byte past the cap tells an over-long line from one that fits;
            # an empty read is a client that went away.
            while not session.done and (line := self.rfile.readline(session.max_line + 1)):
                try:
                    replies = session.feed(line)
                except (protocol.ProtocolError, ValueError, OSError) as exc:
                    error = exc
                    break
                self._send(replies)
        finally:
            # However the session ends, the samples it accepted reach the
            # engine and the events they close reach the log, as if each
            # frame had been pushed on arrival. The session is over either
            # way: a failure here must not replace the reply it is owed.
            try:
                session.flush()
            except (ValueError, OSError):
                pass
        if error is not None:
            self._send_error(error)

    def _send_error(self, exc):
        """Reply with one error frame: the client's fault is `protocol`, a
        fault of the server (model, log files) is `server`."""
        reason = "protocol" if isinstance(exc, protocol.ProtocolError) else "server"
        # A detail must stay one field: no whitespace, no "=".
        detail = re.sub(r"[\s=]", "_", str(exc))
        error = {"reason": reason, "detail": detail}
        self._send([protocol.format_frame("error", error)])

    def _send(self, frames):
        for frame in frames:
            self.wfile.write((frame + "\n").encode())
        self.wfile.flush()


class EmgServer(socketserver.ThreadingTCPServer):
    """The TCP server: one thread and one _Session per connection. Run it
    with serve_forever() or start_background(), stop it with shutdown()."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, model: LinearModel, config: ServerConfig = None):
        # Checked before binding: a model of the wrong features is the
        # operator's fault, not that of every session.
        check_streaming_model(model)
        self.model = model
        self.config = config or ServerConfig()
        self.normalizer = RateNormalizer(self.config.reference_rate_hz)
        self._session_counter = 0
        self._lock = threading.Lock()
        self._thread = None
        super().__init__((self.config.host, self.config.port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def next_log_path(self):
        """The next unused session number's log: never an earlier run's."""
        if self.config.log_dir is None:
            return None
        log_dir = Path(self.config.log_dir)
        log_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            while True:
                self._session_counter += 1
                path = log_dir / f"session_{self._session_counter:03d}.events"
                if not path.exists():
                    return path

    def serve_forever(self):
        super().serve_forever(poll_interval=0.05)

    def start_background(self):
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self):
        # socketserver's shutdown() waits forever unless serve_forever runs in another thread.
        if self._thread is not None:
            super().shutdown()
            self._thread.join(timeout=5)
        self.server_close()


def serve(model: LinearModel, config: ServerConfig = None) -> EmgServer:
    """Bind a server; call serve_forever() or start_background() on it."""
    return EmgServer(model, config)
