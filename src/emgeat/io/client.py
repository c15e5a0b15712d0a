"""Replay client: stream a recorded session to a server at real or fast pace.

Pacing only changes wall-clock spacing between sample frames; frame content
is derived from the sample clock, so a x10 replay produces the same server
transcript as a real-time one. One thread sends each frame, then reads the
replies until that frame's pacing deadline.
"""

import math
import select
import socket
import time
from dataclasses import dataclass, field

from ..feedback import check_reference_rate
from ..realtime import STREAM_CHANNEL, CalibrationProfile, calibrate
from ..signal import sample_time_us
from . import protocol

DEFAULT_FRAME_S = 0.125
# A server started just before the client may not be listening yet.
CONNECT_RETRIES = 3
CONNECT_RETRY_WAIT_S = 0.2
BYE_WAIT_S = 60.0  # longest wait for the replies after bye


@dataclass
class ClientResult:
    transcript: list = field(default_factory=list)  # raw server lines, in order
    rates: list = field(default_factory=list)  # (t_s, chews_per_s)
    levels: list = field(default_factory=list)  # (t_s, level label)
    errors: list = field(default_factory=list)
    reported_events: int = None

    def receive(self, raw: bytes) -> bool:
        """Take one reply line, without its newline; True once the session is
        over: at bye, or at a line not UTF-8 or not a server frame (an error)."""
        line = raw.decode(errors="backslashreplace")
        self.transcript.append(line)
        try:
            kind, fields = protocol.parse_frame(raw.decode(), protocol.SERVER_KINDS)
            if kind == "rate":
                t = protocol.parse_float(kind, fields, "t")
                self.rates.append((t, protocol.parse_float(kind, fields, "value")))
            elif kind == "level":
                protocol.require_fields(kind, fields, ["value"])
                self.levels.append((protocol.parse_float(kind, fields, "t"), fields["value"]))
            elif kind == "error":
                self.errors.append(line)
            elif kind == "bye":
                self.reported_events = protocol.parse_int(kind, fields, "events")
                return True
        except (UnicodeDecodeError, protocol.ProtocolError):
            self.errors.append(line)
            return True
        return False


def _connect(host, port):
    for n in range(1, CONNECT_RETRIES + 2):
        try:
            return socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            if n > CONNECT_RETRIES:
                raise ConnectionError(f"could not reach {host}:{port} after {n} tries") from exc
            time.sleep(CONNECT_RETRY_WAIT_S)


def _read_until(sock, unread: bytearray, result: ClientResult, deadline: float) -> bool:
    """Pass `result` each reply line that arrives by `deadline`, a monotonic
    time; True once the session is over: a line ended it or the server left."""
    while select.select([sock], [], [], max(0.0, deadline - time.monotonic()))[0]:
        try:
            data = sock.recv(65536)
        except ConnectionResetError:
            data = b""  # as good as closed
        *lines, tail = (unread + data).split(b"\n")
        unread[:] = tail
        if not data or any(result.receive(line) for line in lines):
            return True
    return False


def check_options(port: int, speed: float, frame_s: float, reference_rate_hz):
    """The checks of stream_client that need no recording, so that a caller
    can run them before it reads one."""
    if not 1 <= port <= 65535:
        raise ValueError(f"port {port} is outside 1..65535")
    if not speed >= 0:
        raise ValueError(f"speed must be >= 0, not {speed!r}")
    if not (math.isfinite(frame_s) and frame_s > 0):
        raise ValueError(f"frame_s {frame_s} must be positive and finite")
    if reference_rate_hz is not None:
        check_reference_rate(reference_rate_hz)  # the server's rule and message


def stream_client(
    recording,
    host: str,
    port: int,
    speed: float = 1.0,
    frame_s: float = DEFAULT_FRAME_S,
    profile: CalibrationProfile = None,
    reference_rate_hz: float = None,
) -> ClientResult:
    """Send one recording through a live session and collect the replies.

    speed is a wall-clock divisor: 1.0 replays in real time, 10.0 ten times
    faster, 0 floods without pacing. The STREAM_CHANNEL is streamed, the
    one the streaming model is trained on; the calibration profile defaults
    to one computed from it. A frame may hold at most
    protocol.MAX_FRAME_S of signal, the most the server accepts at once.
    """
    check_options(port, speed, frame_s, reference_rate_hz)
    fs = recording.sample_rate
    n_frame = max(1, int(frame_s * fs))
    if n_frame > protocol.MAX_FRAME_S * fs:
        raise ValueError(
            f"a {frame_s} s frame holds {n_frame} samples, more than the"
            f" {protocol.MAX_FRAME_S} s the server accepts in one frame"
        )
    samples = recording.channel(STREAM_CHANNEL)
    if profile is None:
        profile = calibrate([samples], fs, source=recording.participant_id)

    hello = {
        "participant": recording.participant_id,
        "sample_rate": float(fs),
        "ref": profile.reference_amplitude,
    }
    if reference_rate_hz is not None:
        hello["r_ref"] = float(reference_rate_hz)
    # Before connecting: a participant id the wire cannot carry is refused here.
    hello_line = (protocol.format_frame("hello", hello) + "\n").encode()
    result, unread = ClientResult(), bytearray()
    with _connect(host, port) as sock:
        try:
            sock.sendall(hello_line)
            start_time = time.monotonic()
            for start in range(0, samples.size, n_frame):
                chunk = samples[start : start + n_frame]
                v = ",".join(repr(float(x)) for x in chunk)
                fields = {"t_us": sample_time_us(start, fs), "n": chunk.size, "v": v}
                sock.sendall((protocol.format_frame("samples", fields) + "\n").encode())
                due = (start + chunk.size) / fs / speed if speed else 0.0  # its signal's end
                if _read_until(sock, unread, result, start_time + due):
                    return result  # the server ended the session; stop sending
            sock.sendall(b"bye\n")
            _read_until(sock, unread, result, time.monotonic() + BYE_WAIT_S)
        except (BrokenPipeError, ConnectionResetError):  # the server hung up mid-stream
            _read_until(sock, unread, result, 0.0)  # its replies are already here
    return result
