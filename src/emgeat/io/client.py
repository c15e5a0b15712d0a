"""Replay client: stream a recorded session to a server at real or fast pace.

Pacing only changes wall-clock spacing between sample frames; frame content
is derived from the sample clock, so a x10 replay produces the same server
transcript as a real-time one.
"""

import math
import socket
import threading
import time
from dataclasses import dataclass, field

from ..feedback import RateNormalizer
from ..realtime import STREAM_CHANNEL, CalibrationProfile, calibrate
from ..signal import sample_time_us
from . import protocol

DEFAULT_FRAME_S = 0.125
# A server started just before the client may not be listening yet.
CONNECT_RETRIES = 3
CONNECT_RETRY_WAIT_S = 0.2


@dataclass
class ClientResult:
    transcript: list = field(default_factory=list)  # raw server lines, in order
    rates: list = field(default_factory=list)  # (t_s, chews_per_s)
    levels: list = field(default_factory=list)  # (t_s, level label)
    errors: list = field(default_factory=list)
    reported_events: int = None


def _connect(host, port):
    last, tries = None, CONNECT_RETRIES + 1
    for _ in range(tries):
        try:
            return socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            last = exc
            time.sleep(CONNECT_RETRY_WAIT_S)
    raise ConnectionError(f"could not reach {host}:{port} after {tries} tries") from last


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
    protocol.MAX_BUFFERED_S of signal, the most the server accepts at once.
    """
    if not 1 <= port <= 65535:
        raise ValueError(f"port {port} is outside 1..65535")
    if not speed >= 0:
        raise ValueError("speed must be >= 0")
    if not (math.isfinite(frame_s) and frame_s > 0):
        raise ValueError(f"frame_s {frame_s} must be positive and finite")
    n_frame = max(1, int(frame_s * recording.sample_rate))
    if n_frame > protocol.MAX_BUFFERED_S * recording.sample_rate:
        raise ValueError(
            f"a {frame_s} s frame holds {n_frame} samples, more than the"
            f" {protocol.MAX_BUFFERED_S} s the server accepts in one frame"
        )
    if reference_rate_hz is not None:
        RateNormalizer(reference_rate_hz)  # the server's rule and message
    samples = recording.channel(STREAM_CHANNEL)
    if profile is None:
        profile = calibrate([samples], recording.sample_rate, source=recording.participant_id)

    result = ClientResult()
    done = threading.Event()

    sock = _connect(host, port)
    reader_file = sock.makefile("r")

    def reader():
        for line in reader_file:
            line = line.rstrip("\n")
            result.transcript.append(line)
            try:
                kind, fields = protocol.parse_frame(line, allowed=protocol.SERVER_KINDS)
            except protocol.ProtocolError:
                result.errors.append(line)
                continue
            if kind == "rate":
                result.rates.append(
                    (float(fields.get("t", "nan")), float(fields.get("value", "nan")))
                )
            elif kind == "level":
                result.levels.append((float(fields.get("t", "nan")), fields.get("value")))
            elif kind == "error":
                result.errors.append(line)
            elif kind == "bye":
                if "events" in fields:
                    result.reported_events = int(fields["events"])
                break
        done.set()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()

    hello = {
        "participant": recording.participant_id,
        "sample_rate": float(recording.sample_rate),
        "ref": profile.reference_amplitude,
        "mu0": profile.mu0,
        "delta0": profile.delta0,
    }
    if reference_rate_hz is not None:
        hello["r_ref"] = float(reference_rate_hz)
    try:
        sock.sendall((protocol.format_frame("hello", hello) + "\n").encode())
        for start in range(0, samples.size, n_frame):
            chunk = samples[start : start + n_frame]
            t_us = sample_time_us(start, recording.sample_rate)
            frame = protocol.format_frame(
                "samples",
                {"t_us": t_us, "n": chunk.size, "v": ",".join(repr(float(v)) for v in chunk)},
            )
            sock.sendall((frame + "\n").encode())
            if speed > 0:
                time.sleep(chunk.size / recording.sample_rate / speed)
            if done.is_set():
                break  # server closed on us (protocol error); stop sending
        if not done.is_set():
            sock.sendall(b"bye\n")
        done.wait(timeout=60)
    except (BrokenPipeError, ConnectionResetError):
        # server hung up mid-stream; its error frame (if any) is in transcript
        done.wait(timeout=5)
    finally:
        try:
            sock.close()
        except OSError:
            pass
        thread.join(timeout=5)
    return result
