"""The `emgeat serve` process and the client sessions that load it.

The server runs in its own process, started through `serve_launcher.py`.
Sessions are driven from the benchmark process, at most one per core:
frames are encoded before any clock starts, then either flooded with one
`sendall` (a thread per session, plus a reader thread each) or sent
open-loop on an absolute schedule by one spinning thread for all sessions.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from emgeat.io import protocol

LAUNCHER = Path(__file__).with_name("serve_launcher.py")
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0

# The server gets a core of its own; the benchmark process keeps the others.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = CPUS[-1]
CLIENT_CPUS = set(CPUS[:-1]) or {SERVER_CPU}
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One `emgeat serve` child; `stop()` ends it and waits for it."""

    def __init__(self, src_dir, model_path, log_dir, trace_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        cmd = [
            sys.executable,
            str(LAUNCHER),
            "--trace-out",
            str(trace_path or ""),
            "--",
            "serve",
            "--model",
            str(model_path),
            "--port",
            "0",
            "--log-dir",
            str(log_dir),
        ]
        self.log_dir = Path(log_dir)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            # Before the server starts any thread, so its threads inherit it.
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self):
        # The CLI prints this line once the socket is bound and listening.
        deadline = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        deadline.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            deadline.cancel()
        if not line.startswith("listening on "):
            raise RuntimeError(f"serve did not start (said {line!r})")
        return int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def cpu_s(self):
        return cpu_s(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def peak_rss_mb(pid="self"):
    """Peak resident set size (VmHWM) of a process so far, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def cpu_s(pid):
    """User plus system CPU seconds of a process and its ended threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5), in clock ticks.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def encode_session(participant, samples, sample_rate, profile, frame_n):
    """Wire lines of one session: hello, samples frames, bye (as bytes)."""
    hello = protocol.format_frame(
        "hello",
        {
            "participant": participant,
            "sample_rate": float(sample_rate),
            "ref": profile.reference_amplitude,
            "mu0": profile.mu0,
            "delta0": profile.delta0,
        },
    )
    lines = [(hello + "\n").encode()]
    for start in range(0, samples.size, frame_n):
        chunk = samples[start : start + frame_n]
        frame = protocol.format_frame(
            "samples",
            {
                "t_us": round(start * 1_000_000 / sample_rate),
                "n": chunk.size,
                "v": ",".join(repr(float(v)) for v in chunk),
            },
        )
        lines.append((frame + "\n").encode())
    lines.append(b"bye\n")
    return lines


class Session:
    """One connection; every reply line is stamped with its arrival time."""

    def __init__(self, port, lines):
        self.lines = lines
        self.transcript = []
        self.arrivals = []
        self.send_times = []
        self._pending = b""
        self._reader = None
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _feed(self, data, now):
        """Split received bytes into lines; True once bye or error arrived."""
        lines = (self._pending + data).split(b"\n")
        self._pending = lines.pop()
        for raw in lines:
            line = raw.decode()
            self.transcript.append(line)
            self.arrivals.append((now, line))
            if line.startswith(("bye", "error")):
                return True
        return False

    def _read_until_done(self):
        while True:
            data = self.sock.recv(65536)
            if not data or self._feed(data, time.perf_counter()):
                return

    def handshake(self):
        """Send hello and wait for its acknowledgement."""
        self.sock.sendall(self.lines[0])
        while not self.transcript:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed before the hello reply")
            self._feed(data, time.perf_counter())

    def flood(self):
        """Send every frame at once while a reader thread collects replies."""
        self._reader = threading.Thread(target=self._read_until_done, daemon=True)
        self._reader.start()
        self.sock.sendall(b"".join(self.lines[1:]))

    def finish(self):
        """Wait for bye (or error) and close; returns the last reply time."""
        if self._reader is not None:
            self._reader.join(REPLY_TIMEOUT_S)
            if self._reader.is_alive():
                self.sock.close()
                raise TimeoutError("session did not end")
        self.sock.close()
        return self.arrivals[-1][0] if self.arrivals else time.perf_counter()

    @property
    def ok(self):
        return bool(self.transcript) and self.transcript[-1].startswith("bye")


def paced(sessions, frame_wall_s):
    """Send frame i of every session when it is due, (i + 1) * frame_wall_s
    after the start, until each session has its bye (or error).

    One thread spins between sending and polling the sockets, so neither a
    timer nor a blocked reader has to be woken to keep the schedule or to
    stamp a reply. Returns the start time; each session's send_times holds
    when its frames went out.
    """
    clock = time.perf_counter
    frames = [s.lines[1:-1] for s in sessions]
    n = max(len(f) for f in frames)
    for s in sessions:
        # MSG_DONTWAIT only returns at once on a socket without a timeout.
        s.sock.settimeout(None)
    pending = list(sessions)
    t0 = clock()
    i = 0
    last_progress = t0
    while pending:
        now = clock()
        if i < n and now >= t0 + (i + 1) * frame_wall_s:
            for s, f in zip(sessions, frames):
                # A session that ended early (an error reply) gets no more.
                if i < len(f) and s in pending:
                    s.sock.sendall(f[i])
                    s.send_times.append(clock())
                    if i == len(f) - 1:
                        s.sock.sendall(s.lines[-1])
            i += 1
            continue
        for s in list(pending):
            try:
                data = s.sock.recv(65536, socket.MSG_DONTWAIT)
            except BlockingIOError:
                continue
            last_progress = now
            if not data or s._feed(data, now):
                pending.remove(s)
        if now - last_progress > REPLY_TIMEOUT_S:
            raise TimeoutError("no reply from the server")
    return t0


def run_concurrent(fns):
    """Call each function in its own thread; re-raise the first failure."""
    errors = []

    def call(fn):
        try:
            fn()
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(fn,)) for fn in fns]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
