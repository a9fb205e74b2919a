"""Starting, watching and stopping one ``repro serve`` process.

The daemon runs in its own session, so it and its pool workers form one
process group the benchmark can always clean up. Memory is read from
``/proc``: ``VmHWM`` is each process's peak resident set.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List

from repro.serve.client import ServeClient

READY_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 40.0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            out += [int(c) for c in Path(f"/proc/{pid}/task/{tid}/children").read_text().split()]
        except OSError:
            continue
    return out


def _status(pid: int) -> Dict[str, str]:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return {}
    return dict(line.split(":", 1) for line in text.splitlines() if ":" in line)


def _gone(pid: int) -> bool:
    state = _status(pid).get("State", "").strip()
    return not state or state.startswith("Z")


class DaemonProcess:
    """One daemon: ``argv`` is the full command, run from ``cwd``."""

    def __init__(self, argv: List[str], cwd: str, env: Dict[str, str], stderr_path: str):
        self.argv = argv
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
        )
        self.address = ""
        self.peak_rss_kb = 0

    def wait_ready(self) -> str:
        """Block until the readiness line; returns the socket path."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.005)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith("serving on unix:"):
                    self.address = line.split("unix:", 1)[1].split()[0]
                    return self.address
                if not line:
                    break
        self.stop()
        raise RuntimeError(
            f"daemon did not come up: {' '.join(self.argv)}\n{self.stderr_text()}"
        )

    def sample_memory(self) -> None:
        """Fold one reading into the peak: the daemon's VmHWM plus that of
        every pool worker alive right now."""
        pid = self.proc.pid
        total = _vmhwm_kb(pid)
        for child in _children(pid):
            hwm = _vmhwm_kb(child)
            total += hwm
        self.peak_rss_kb = max(self.peak_rss_kb, total)

    def stats(self):
        with ServeClient(f"unix:{self.address}", timeout_s=30.0) as client:
            return client.stats()

    def stop(self) -> int:
        """Drain through a ``shutdown`` frame, wait for the daemon and its
        workers to end, and kill whatever is left. Returns the exit code."""
        workers = _children(self.proc.pid)
        if self.address and self.proc.poll() is None:
            try:
                with ServeClient(f"unix:{self.address}", timeout_s=30.0) as client:
                    client.shutdown()
            except Exception:  # already gone: the kill below handles it
                pass
        try:
            code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while any(not _gone(w) for w in workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if code is None:
            code = self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return code

    def stderr_text(self) -> str:
        return Path(self.stderr_path).read_text(errors="replace")


def _vmhwm_kb(pid: int) -> int:
    value = _status(pid).get("VmHWM", "0 kB").split()
    return int(value[0]) if value else 0
