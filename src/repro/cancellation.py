"""Cooperative cancellation tokens shared by the client and serving layers.

A :class:`CancellationToken` carries two abort signals for one request — an
explicit *cancel* (set by a caller, a server-side ``cancel`` command, or a
client disconnect) and an optional *deadline* — and is checked cooperatively
at the executor's checkpoints: before every stage and at every operator
start.  Work between checkpoints runs to completion; everything after the
first failing check is never started.

Tokens are cheap (a few attribute reads per :meth:`check`) and thread-safe:
the flag is written by whichever thread cancels and read by executor worker
threads without locking — a single boolean store is atomic under the GIL,
and the consumers tolerate the benign race of one extra subtask slipping
through a just-set flag.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import CancelledError, DeadlineExceededError


class CancellationToken:
    """One request's abort state: an explicit cancel flag plus a deadline."""

    __slots__ = ("_cancelled", "_reason", "_deadline", "_clock")

    def __init__(self, *, deadline_s: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        self._clock = clock
        self._cancelled = False
        self._reason: str | None = None
        self._deadline = None if deadline_s is None else clock() + deadline_s

    # -- signalling ----------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Set the explicit cancel flag (idempotent; first reason wins)."""
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True

    def add_deadline(self, deadline_s: float) -> "CancellationToken":
        """Tighten the deadline to at most ``deadline_s`` from now.

        A token can only become more urgent: an existing earlier deadline is
        kept.  Returns ``self`` for chaining.
        """
        if deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        candidate = self._clock() + deadline_s
        if self._deadline is None or candidate < self._deadline:
            self._deadline = candidate
        return self

    # -- inspection ----------------------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called (deadline expiry not included)."""
        return self._cancelled

    @property
    def reason(self) -> str | None:
        """The reason passed to the first :meth:`cancel` call, if any."""
        return self._reason

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (``None`` without one, floored at 0)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self._deadline is not None and self._clock() >= self._deadline

    def aborted(self) -> bool:
        """Whether :meth:`check` would raise (cancelled or expired)."""
        return self._cancelled or self.expired()

    # -- the checkpoint ------------------------------------------------------------------

    def check(self) -> None:
        """Raise if the request should stop; the executor's checkpoint call.

        Raises :class:`~repro.exceptions.CancelledError` on an explicit
        cancel and :class:`~repro.exceptions.DeadlineExceededError` (a
        subclass) on an expired deadline.  Explicit cancels win when both
        hold — the caller already knows it gave up.
        """
        if self._cancelled:
            raise CancelledError(self._reason or "cancelled")
        if self.expired():
            raise DeadlineExceededError("deadline exceeded")

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else (
            "expired" if self.expired() else "live")
        return f"CancellationToken({state}, remaining={self.remaining_s()})"
