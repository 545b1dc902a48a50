"""Bounded admission with explicit backpressure and deadlines.

The daemon's robustness invariant is *exact accounting*: every classify
request is *exactly one* of

* **shed** — refused at the door (waiting line full, or draining) with
  429/503 and a ``Retry-After``, never admitted;
* **served** — admitted and answered (200, or 400 for a body the
  handler rejected);
* **timed out** — admitted but not answered within its deadline (503).

The chaos tests sum these against the request total and require
equality.  Each outcome is booked by the one call that admitted the
request, whichever way it ends.

``concurrency`` service slots bound the requests in service, and at
most ``depth`` more wait in line, first come first served; a finishing
request hands its slot straight to the next waiter.  A request that
finds a free slot and no line is served inside the caller by
:meth:`AdmissionQueue.serve_now`: nothing can delay it, so it needs no
deadline.  A request that must wait or suspend goes through the
coroutine :meth:`AdmissionQueue.submit`, whose deadline covers the wait
*and* the service: at expiry the handler is cancelled and the request
answered 503.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Any, Callable

from repro.serve.metrics import ServeMetrics

__all__ = ["AdmissionQueue", "DeadlineExceeded", "Shed"]

DEFAULT_QUEUE_DEPTH = 1024
DEFAULT_TIMEOUT_S = 5.0
DEFAULT_CONCURRENCY = 8


class Shed(Exception):
    """The request was refused admission (backpressure or drain)."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


class DeadlineExceeded(Exception):
    """The request was admitted but its deadline expired unanswered."""


class AdmissionQueue:
    """Service slots and a bounded waiting line before ``handler``,
    the application's synchronous classify function."""

    def __init__(
        self,
        handler: Callable[[Any], Any],
        metrics: ServeMetrics,
        *,
        depth: int = DEFAULT_QUEUE_DEPTH,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        concurrency: int = DEFAULT_CONCURRENCY,
    ) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self._handler = handler
        self._metrics = metrics
        self._timeout_s = timeout_s
        self._depth = depth
        self._free = concurrency  # service slots nobody holds
        self._waiters: deque[asyncio.Future[None]] = deque()
        self._active: set[asyncio.Task[Any]] = set()  # tasks inside submit()
        self._idle = asyncio.Event()
        self._idle.set()
        self._drain_expired = False
        self.draining = False

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def can_serve_now(self) -> bool:
        """Would a request be served at once, with no wait and no shed?"""
        return self._free > 0 and not self._waiters and not self.draining

    # -- the fast path -----------------------------------------------------

    def serve_now(self, payload: Any) -> Any:
        """Admit and serve at once; only after :meth:`can_serve_now`."""
        self._metrics.accepted += 1
        try:
            result = self._handler(payload)
        except Exception:  # staticcheck: ok[RC002] booked here, re-raised for the caller's 500
            self._metrics.book_internal_error()
            raise
        self._metrics.book_served()
        return result

    # -- the slow path -----------------------------------------------------

    async def submit(self, payload: Any, delay_s: float = 0.0) -> Any:
        """Admit, wait for a slot, serve, all inside the deadline.

        ``delay_s`` is a suspension inside service, holding the slot
        (the ``slow-handler`` chaos fault).  Raises :class:`Shed`
        without admitting when the line is full or the daemon is
        draining; raises :class:`DeadlineExceeded` when the request was
        admitted but not served in time, or was still pending when a
        drain ran out of patience.
        """
        if self.draining:
            self._metrics.shed_draining += 1
            raise Shed("draining", retry_after_s=1.0)
        must_wait = not self.can_serve_now()
        if must_wait and len(self._waiters) >= self._depth:
            self._metrics.shed_queue_full += 1
            raise Shed("queue full", retry_after_s=self._retry_after())
        self._metrics.accepted += 1
        task = asyncio.current_task()
        assert task is not None
        self._active.add(task)
        self._idle.clear()
        try:
            async with asyncio.timeout(self._timeout_s):
                if must_wait:
                    await self._wait_for_slot()
                else:
                    self._free -= 1
                try:
                    if delay_s > 0.0:
                        await asyncio.sleep(delay_s)
                    result = self._handler(payload)
                finally:
                    self._release_slot()
        except TimeoutError:
            self._metrics.book_timeout()
            raise DeadlineExceeded from None
        except asyncio.CancelledError:
            self._metrics.book_timeout()
            if self._drain_expired:
                task.uncancel()  # drain's cancel, answered here as a 503
                raise DeadlineExceeded from None
            raise
        except Exception:  # staticcheck: ok[RC002] booked here, re-raised for the caller's 500
            self._metrics.book_internal_error()
            raise
        finally:
            self._active.discard(task)
            if not self._active:
                self._idle.set()
        self._metrics.book_served()
        return result

    async def _wait_for_slot(self) -> None:
        waiter: asyncio.Future[None] = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.cancelled():
                with contextlib.suppress(ValueError):
                    self._waiters.remove(waiter)
            else:
                self._release_slot()  # handed a slot as we were cancelled
            raise

    def _release_slot(self) -> None:
        """Hand the slot to the first live waiter, or free it."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._free += 1

    def _retry_after(self) -> float:
        """A Retry-After estimate: time to serve half the waiting line."""
        per_request = self._timeout_s / max(1, self._depth)
        return max(0.1, per_request * len(self._waiters) / 2)

    # -- drain -------------------------------------------------------------

    async def drain(self, deadline_s: float) -> None:
        """Stop admitting, finish admitted work, deadline the rest.

        After ``deadline_s`` every request still waiting or in service
        is cancelled and answered 503 as timed out, so the accounting
        invariant holds even for a drain that runs out of patience.
        """
        self.draining = True
        try:
            async with asyncio.timeout(deadline_s):
                await self._idle.wait()
        except TimeoutError:
            self._drain_expired = True
            for task in tuple(self._active):
                task.cancel()
            await self._idle.wait()
