"""Helpers shared by every workload: timing, host context, results."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Where runs leave spans, checkpoints and steadiness reports (ignored by git).
OUT_DIR = Path(".perfbench")

#: Fixed seed of the canary pass whose simulated work is fingerprinted.
REFERENCE_SEED = 20020

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def derive(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from ``seed`` and ``labels`` (stable across runs)."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng(seed: int, *labels: object) -> random.Random:
    return random.Random(derive(seed, *labels))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(p * len(sorted_values))) - 1))
    return float(sorted_values[rank])


def time_call(fn: Callable[[], object]) -> float:
    """Wall seconds one call of ``fn`` takes (its result is dropped)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class SetupSamples:
    """Set-up timings taken before, between and after the measured work.

    A set-up takes milliseconds, and on a shared host such short timings
    drift between runs by more than the window's throughput does.
    Sampling across the whole run lets their median see the same host
    states as the other metrics; ``setup_s`` is that median.
    """

    def __init__(self, measure: Callable[[], float]):
        self._measure = measure
        self.samples: List[float] = []

    def take(self, count: int = 1) -> None:
        self.samples.extend(self._measure() for _ in range(count))

    def median(self) -> float:
        return median(self.samples)


# -- process accounting ------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode()
    except OSError:
        return 0.0
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of ``pid`` in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- host noise ----------------------------------------------------------------


def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def _loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return None


class HostNoise:
    """Load average and steal ticks around a measurement window.

    Not metrics: they tell a run slowed by the host from a slow program.
    """

    def __init__(self) -> None:
        self.steal_start = _steal_ticks()
        self.load_start = _loadavg()

    def report(self, lateness_s: Optional[Sequence[float]] = None) -> Dict[str, object]:
        steal_end = _steal_ticks()
        out: Dict[str, object] = {
            "loadavg_start": self.load_start,
            "loadavg_end": _loadavg(),
            "nproc": os.cpu_count(),
            "steal_ticks": (
                steal_end - self.steal_start
                if steal_end is not None and self.steal_start is not None else None
            ),
        }
        if lateness_s is not None:
            late = sorted(lateness_s)
            out["generator_late_p50_ms"] = percentile(late, 0.50) * 1e3
            out["generator_late_p99_ms"] = percentile(late, 0.99) * 1e3
        return out


# -- outcome ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    context: Dict[str, object] = field(default_factory=dict)
    #: Seconds each open-loop request started after it was due (live only).
    lateness: Optional[List[float]] = None

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` operations as failed, keeping the first reasons."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def emit(outcome: Outcome, names: Iterable[Tuple[str, str]]) -> None:
    """Print the context line, then the one-line JSON result (last line).

    ``names`` are the (name, unit) pairs to report; a workload that did
    not measure one of them, or measured it in another unit, is a bug
    in the benchmark and raises before anything is printed.
    """
    metrics = {}
    for name, unit in names:
        value, measured_unit = outcome.metrics[name]
        if measured_unit != unit:
            raise ValueError(f"{name}: measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("context " + json.dumps(outcome.context, sort_keys=True, default=str))
    print(json.dumps({
        # Every check is counted per operation in ``failed``; the
        # operations that did not fail passed their checks.
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))


# -- fingerprints ------------------------------------------------------------------


def load_fingerprint(workload: str) -> Optional[Dict[str, object]]:
    try:
        data = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data.get(workload)


def save_fingerprint(workload: str, fingerprint: Dict[str, object]) -> None:
    try:
        data = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    data[workload] = fingerprint
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")


def fingerprint_diff(reference: Dict[str, object], measured: Dict[str, object],
                     path: str = "") -> Optional[str]:
    """The first counter that moved, as ``path: measured != reference``."""
    for key in sorted(set(reference) | set(measured)):
        here = f"{path}.{key}" if path else str(key)
        ref, got = reference.get(key), measured.get(key)
        if isinstance(ref, dict) and isinstance(got, dict):
            moved = fingerprint_diff(ref, got, here)
            if moved:
                return moved
        elif ref != got:
            return f"{here}: {got!r} != reference {ref!r}"
    return None


def digest(values: Iterable[object]) -> str:
    """Short stable hash of a sequence of reprs (per-trial reach times)."""
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]
