"""Streaming first/second moments: Welford's online algorithm, mergeable.

A :class:`RunningMoments` folds a stream of values one at a time and
answers count/mean/variance/min/max without ever holding the stream —
the campaign sink and the live cluster both use it so a million-trial
series costs the same five floats as a ten-trial one.  Two instances
merge exactly (Chan et al.'s parallel update), which is what lets
per-worker or per-shard aggregates combine into one campaign-wide
summary, and what makes checkpointed aggregates resumable.

Counts are exact; the merge formula is algebraically identical to
one-pass Welford over the concatenated stream, so the two differ only by
rounding.  The property tests hold both against an exact
``fractions.Fraction`` mean and variance, within bounds derived from
n·ε·max|x|.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from ..errors import ExperimentError

__all__ = ["RunningMoments"]


class RunningMoments:
    """Mean/variance/min/max/count of a stream, in O(1) memory.

    >>> m = RunningMoments()
    >>> for x in (1.0, 2.0, 3.0):
    ...     m.add(x)
    >>> m.count, m.mean, m.minimum, m.maximum
    (3, 2.0, 1.0, 3.0)
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    # -- folding ----------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one observation (Welford's update)."""
        value = float(value)
        if math.isnan(value):
            raise ExperimentError("cannot fold NaN into RunningMoments")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "RunningMoments") -> None:
        """Fold ``other`` in, as if its stream had been appended here."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        if other.minimum is not None and other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum is not None and other.maximum > self.maximum:
            self.maximum = other.maximum

    # -- queries ----------------------------------------------------------

    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 below two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def std(self) -> float:
        return math.sqrt(self.variance())

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunningMoments":
        try:
            moments = cls()
            moments.count = int(data["count"])
            moments.mean = float(data["mean"])
            moments._m2 = float(data["m2"])
            moments.minimum = None if data["min"] is None else float(data["min"])
            moments.maximum = None if data["max"] is None else float(data["max"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed moments payload: {exc}") from exc
        return moments

    # Pickling rides __reduce__ because of __slots__.
    def __reduce__(self):
        return (_restore_moments, (self.to_dict(),))

    def __repr__(self) -> str:
        return (
            f"RunningMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std():.6g}, min={self.minimum}, max={self.maximum})"
        )


def _restore_moments(data: Dict[str, object]) -> RunningMoments:
    return RunningMoments.from_dict(data)
