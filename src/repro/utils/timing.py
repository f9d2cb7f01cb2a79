"""Lightweight timing helpers used by the overhead analysis (Table IV)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Timer"]


@dataclass
class Timer:
    """Accumulating wall-clock timer.

    Use as a context manager; the elapsed time of every ``with`` block is
    accumulated so repeated measurements can be averaged.

    Examples
    --------
    >>> timer = Timer()
    >>> with timer:
    ...     _ = sum(range(1000))
    >>> timer.total >= 0.0
    True
    """

    total: float = 0.0
    n_calls: int = 0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.total += time.perf_counter() - self._start
        self.n_calls += 1

    @property
    def mean(self) -> float:
        """Mean elapsed time per ``with`` block (0.0 when never used)."""
        if self.n_calls == 0:
            return 0.0
        return self.total / self.n_calls

    def throughput(self, n_items: int) -> float:
        """Items processed per second, assuming each timed block handled ``n_items``.

        Shared rate math for the Table IV overhead measurement and the serving
        loop's throughput report.  Returns 0.0 when the timer was never
        used, and ``inf`` when time was measured but below the clock
        resolution — an immeasurably fast run must rank as the *fastest*
        rate, not the slowest, so medians over rates keep their order.

        Examples
        --------
        >>> timer = Timer(total=2.0, n_calls=1)
        >>> timer.throughput(1000)
        500.0
        """
        if self.n_calls == 0:
            return 0.0
        if self.total <= 0.0:
            return float("inf")
        return n_items * self.n_calls / self.total

    def reset(self) -> None:
        """Zero the accumulated time and call count."""
        self.total = 0.0
        self.n_calls = 0
