"""TCP streaming server: samples in, rate/level frames and event logs out.

Each connection is one `_Session`, the one owner of the wire protocol, error
replies and event-log numbers included; the handler only moves bytes to and
from `_Session.feed`. Frames are processed synchronously in arrival order and
every outgoing value is derived from the sample clock, so identical client
transcripts produce byte-identical server transcripts. Two concurrent sessions
share nothing but the (read-only) model.

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

from ..feedback import check_reference_rate, level
from ..learn import LinearModel
from ..realtime import CalibrationProfile, StreamEngine, check_streaming_model
from ..signal import sample_time_us
from . import protocol
from .datasets import append_events

DEFAULT_REFERENCE_RATE_HZ = 1.6

# Longest frame line read before hello; a hello needs a few hundred bytes.
_HELLO_LINE_BYTES = 4096
# Highest hello sample_rate; it bounds the line cap derived from it (3.2 MB).
_MAX_SAMPLE_RATE_HZ = 100_000.0
# Bytes allowed per sample of MAX_FRAME_S after hello, the line cap's growth.
# A float's shortest repr and its comma take at most 25, so a frame within
# the bound always fits; a longer line is refused unparsed.
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
        check_reference_rate(self.reference_rate_hz)  # the sessions' rule and message


def _positive_float(fields, name: str) -> float:
    value = protocol.parse_float("hello", fields, name)
    if not (math.isfinite(value) and value > 0):
        raise protocol.ProtocolError(f"hello {name} must be positive and finite")
    return value


class _Session:
    """The wire protocol of one connection. `feed` answers each received
    line (line cap, UTF-8, parse, hello first, dispatch) until `done`, set at
    bye or an error; `end` runs however the connection ends. Only an accepted
    hello calls `next_log_path()` for the session's event log (None: none)."""

    def __init__(self, model, reference_rate_hz: float, next_log_path):
        self.model = model
        self.reference_rate_hz = reference_rate_hz  # the server's, unless hello sets r_ref
        self.next_log_path = next_log_path
        self.log_path = None
        self.engine = None
        self.sample_rate = None  # the hello's
        self.max_line = _HELLO_LINE_BYTES  # longest line accepted, in bytes
        self.done = False  # bye or an error answered
        self.received = 0  # samples accepted, the sample clock
        self.pending = []  # accepted samples not yet pushed, under 1 s + 1 frame
        self.last_level = "no_pulse"

    def feed(self, line: bytes) -> list:
        """The reply frames to one received line, its newline included. A
        failure ends the session with one error frame: `protocol` for the
        client's fault, `server` for the server's (model, log files). After
        `done`, every line gets no reply and changes nothing."""
        if self.done:
            return []
        try:
            return self._answer(line)
        except (protocol.ProtocolError, ValueError, OSError) as exc:
            self.done = True
            self.end()
            reason = "protocol" if isinstance(exc, protocol.ProtocolError) else "server"
            # One field: no whitespace, no "="; of an OSError, no server path.
            text = (exc.strerror or type(exc).__name__) if isinstance(exc, OSError) else exc
            detail = re.sub(r"[\s=]", "_", str(text))
            return [protocol.format_frame("error", {"reason": reason, "detail": detail})]

    def _answer(self, line: bytes) -> list:
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
        # The engine's inputs only; any other field is ignored.
        protocol.require_fields("hello", fields, ["participant", "sample_rate", "ref"])
        sample_rate = _positive_float(fields, "sample_rate")
        if sample_rate > _MAX_SAMPLE_RATE_HZ:
            raise protocol.ProtocolError(
                f"hello sample_rate {sample_rate!r} is above {_MAX_SAMPLE_RATE_HZ!r} Hz"
            )
        ref, (low, high) = _positive_float(fields, "ref"), protocol.REF_RANGE
        if not low <= ref <= high:
            raise protocol.ProtocolError(f"hello ref {ref!r} is outside [{low!r}, {high!r}]")
        try:
            engine = StreamEngine(self.model, CalibrationProfile(ref, sample_rate))
        except ValueError as exc:  # the band-pass must fit the rate
            raise protocol.ProtocolError(f"hello sample_rate {sample_rate!r}: {exc}")
        if "r_ref" in fields:
            self.reference_rate_hz = _positive_float(fields, "r_ref")
        self.log_path = self.next_log_path()  # numbered only once accepted
        self.sample_rate = sample_rate
        self.max_line += int(protocol.MAX_FRAME_S * sample_rate) * _VALUE_BYTES
        self.engine = engine  # last: a session with an engine is fully open
        return [protocol.format_frame("hello", {"participant": fields["participant"]})]

    def samples(self, fields) -> list:
        t_us = protocol.parse_int("samples", fields, "t_us")
        fs = self.sample_rate
        n = protocol.parse_int("samples", fields, "n")
        if n < 1:
            raise protocol.ProtocolError("samples frame carries no values")
        if n > protocol.MAX_FRAME_S * fs:  # before v is split: then n bounds the values
            raise protocol.ProtocolError(f"samples frame n {n} holds over {protocol.MAX_FRAME_S} s")
        values = protocol.parse_values(fields, n)
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
        expected = sample_time_us(self.received, fs)
        if t_us != expected:
            raise protocol.ProtocolError(
                f"samples timestamp {t_us} is not {expected}: the clock must"
                f" advance with the {self.received} samples received"
            )
        second = int(self.received / fs)  # whole seconds before this frame
        self.pending += values
        self.received += len(values)
        if int(self.received / fs) == second:
            return []  # no second completed, nothing to report yet
        self.flush()
        return self._tick(float(second + 1))

    def flush(self):
        """Push the held samples in one call and log the events they close."""
        if self.pending:
            chunk, self.pending = self.pending, []
            self._log_events(self.engine.push(chunk))

    def end(self):
        """However the session ends, the samples it accepted reach the
        engine and the events they close reach the log, as if each frame had
        been pushed on arrival. The session is over either way: a failure
        here must not replace the reply it is owed."""
        try:
            self.flush()
        except (ValueError, OSError):
            pass

    def close(self) -> list:
        self.flush()
        self._log_events(self.engine.finalize())
        return [protocol.format_frame("bye", {"events": len(self.engine.events)})]

    def _log_events(self, events):
        if events and self.log_path is not None:
            append_events(events, self.log_path)

    def _tick(self, t: float) -> list:
        """The rate frame of streamed second t, and a level frame if the
        band changed. One per frame that completes a second is enough: a
        frame holds at most MAX_FRAME_S = 1 s, so it completes at most one."""
        rate = self.engine.rate_at(t)
        out = [protocol.format_frame("rate", {"t": t, "value": rate})]
        label = level(rate, self.reference_rate_hz)
        if label != self.last_level:
            out.append(protocol.format_frame("level", {"t": t, "value": label}))
            self.last_level = label
        return out


class _Handler(socketserver.StreamRequestHandler):
    """Moves bytes: lines to the session, its replies back to the client."""

    def handle(self):
        server = self.server
        session = _Session(server.model, server.config.reference_rate_hz, server.next_log_path)
        try:
            # One byte past the cap tells an over-long line from one that fits;
            # an empty read is a client that went away.
            while not session.done and (line := self.rfile.readline(session.max_line + 1)):
                if replies := session.feed(line):
                    self.wfile.write("".join(r + "\n" for r in replies).encode())
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client hung up with replies unread: the session ends
        finally:
            session.end()


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
