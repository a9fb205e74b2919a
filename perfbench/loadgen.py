"""The load generator: one thread, one connection, closed loop.

Each request is sent when the reply to the previous one arrives, until
the window ends; latency runs from send to reply. One connection is
enough: the daemon dispatches one micro-batch at a time, so a second
connection added no throughput (``parametric`` answered 221 plans/s with
one or two) and only queued behind the first (its median latency went
from 3.7 to 7.9 ms).

Refused and failed frames are outcomes like any other: they count as
attempted and failed, never as missing samples.
"""

from __future__ import annotations

import math
import select
import socket
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional

from repro.serve.protocol import ProtocolError, parse_response

from traffic import Request

#: A reply still missing this long after its request was sent fails the
#: request and ends the phase. A daemon that stops answering costs this
#: much, and the run still ends well within its time limit.
REPLY_TIMEOUT_S = 20.0
#: How often the tick callback (memory sampling) runs; it is passed the
#: number of replies received so far.
TICK_S = 0.25


@dataclass
class Outcome:
    request: Request
    sent: float = math.nan
    done: float = math.nan
    response: object = None  # OptimizeResponse / ErrorResponse
    transport_error: str = ""

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.ok

    @property
    def latency_s(self) -> float:
        return self.done - self.sent


class LoadGenerator:
    """One connection to one daemon for the life of a phase."""

    def __init__(self, socket_path: str, tick: Optional[Callable[[int], None]] = None):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(socket_path)
        self.tick = tick
        self.answered = 0
        self.closed = False
        self._buffer = bytearray()
        self._last_tick = 0.0

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _fail(self, outcome: Outcome, why: str) -> None:
        outcome.transport_error = why
        self.closed = True

    def _exchange(self, outcome: Outcome) -> None:
        """Send one request and wait for its reply."""
        outcome.sent = time.perf_counter()
        try:
            self.sock.sendall(outcome.request.frame.encode() + b"\n")
        except OSError as exc:
            return self._fail(outcome, f"send failed: {exc}")
        deadline = outcome.sent + REPLY_TIMEOUT_S
        while True:
            now = time.perf_counter()
            if self.tick is not None and now - self._last_tick >= TICK_S:
                self._last_tick = now
                self.tick(self.answered)
            if now >= deadline:
                return self._fail(outcome, f"no reply within {REPLY_TIMEOUT_S:g} s")
            ready, _, _ = select.select([self.sock], [], [], min(deadline - now, TICK_S))
            if not ready:
                continue
            try:
                data = self.sock.recv(1 << 20)
            except OSError as exc:
                return self._fail(outcome, f"receive failed: {exc}")
            done = time.perf_counter()
            if not data:
                return self._fail(outcome, "daemon closed the connection")
            self._buffer += data
            *lines, rest = self._buffer.split(b"\n")
            self._buffer = bytearray(rest)
            for line in lines:
                if not line.strip():
                    continue
                try:
                    response = parse_response(line.decode())
                except ProtocolError as exc:
                    return self._fail(outcome, f"unparseable reply: {exc}")
                if response.request_id == outcome.request.rid:
                    outcome.done = done
                    outcome.response = response
                    self.answered += 1
                    return None

    def closed_loop(
        self, requests: Iterable[Request], seconds: float = math.inf
    ) -> List[Outcome]:
        """Send ``requests`` one at a time until the window ends, the
        requests run out or the connection fails."""
        source: Iterator[Request] = iter(requests)
        outcomes: List[Outcome] = []
        end = time.perf_counter() + seconds
        while not self.closed and time.perf_counter() < end:
            request = next(source, None)
            if request is None:
                break
            outcomes.append(Outcome(request))
            self._exchange(outcomes[-1])
        return outcomes
