"""Tests for the telemetry primitives: moments, sketches, registry.

The hypothesis properties pin the subsystem's load-bearing claims:

* a :class:`QuantileSketch`'s answers are within its *self-certified*
  rank-error bound of the exact sorted data, for any stream;
* ``merge(a, b)`` answers like a sketch of the concatenated stream,
  again within the merged sketch's own bound;
* ``RunningMoments.merge`` and one-pass Welford both match the exact
  (``fractions.Fraction``) mean and variance within a rounding bound
  derived from n·ε·max|x|.
"""

from __future__ import annotations

import json
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.telemetry import (
    Counter,
    Gauge,
    MetricRegistry,
    QuantileSketch,
    RunningMoments,
    SnapshotEmitter,
    read_snapshots,
    series_id,
)

# Finite, sane floats; wide range to stress compaction orderings.
values_strategy = st.lists(
    st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=400,
)


def exact_rank_window(data, value):
    """``(#{x < value}, #{x <= value})`` over the exact data."""
    below = sum(1 for x in data if x < value)
    at_or_below = sum(1 for x in data if x <= value)
    return below, at_or_below


def assert_within_bound(sketch, data, p):
    """The sketch's ``quantile(p)`` lands within ``rank_error`` ranks of
    the target rank in the exact data."""
    value = sketch.quantile(p)
    target = p * len(data)
    below, at_or_below = exact_rank_window(data, value)
    error = sketch.rank_error
    assert below - error <= target <= at_or_below + error, (
        p,
        value,
        target,
        below,
        at_or_below,
        error,
    )


# ---------------------------------------------------------------------------
# RunningMoments
# ---------------------------------------------------------------------------


class TestRunningMoments:
    def test_small_exact(self):
        m = RunningMoments()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            m.add(v)
        assert m.count == 8
        assert m.mean == pytest.approx(5.0)
        assert m.variance() == pytest.approx(32.0 / 7.0)
        assert m.minimum == 2.0 and m.maximum == 9.0

    def test_rejects_nan(self):
        with pytest.raises(ExperimentError):
            RunningMoments().add(float("nan"))

    def test_below_two_samples_variance_is_zero(self):
        assert RunningMoments().variance() == 0.0
        single = RunningMoments()
        single.add(3.0)
        assert single.variance() == 0.0
        assert single.std() == 0.0

    def test_roundtrips(self):
        m = RunningMoments()
        m.extend([1.5, -2.25, 8.0])
        via_dict = RunningMoments.from_dict(m.to_dict())
        via_pickle = pickle.loads(pickle.dumps(m))
        for copy in (via_dict, via_pickle):
            assert copy.to_dict() == m.to_dict()

    @given(values_strategy, values_strategy)
    # Found by hypothesis: the one-pass mean is 2e-8 off the exact -22/3,
    # fine for data of magnitude 1e9 but not within 1e-9 of |mean| ~ 7.
    @example(left=[0.0], right=[-999999646.0, 999999624.0])
    def test_merge_matches_one_pass_welford(self, left, right):
        """Merged and one-pass moments both match the exact ones."""
        a = RunningMoments()
        a.extend(left)
        b = RunningMoments()
        b.extend(right)
        a.merge(b)

        one_pass = RunningMoments()
        one_pass.extend(left + right)

        values = left + right
        assert a.count == one_pass.count == len(values)
        assert a.minimum == one_pass.minimum == min(values)
        assert a.maximum == one_pass.maximum == max(values)

        exact = [Fraction(v) for v in values]
        n = len(exact)
        mean = sum(exact) / n
        variance = sum((x - mean) ** 2 for x in exact) / (n - 1) if n > 1 else 0
        # Rounding bounds, from the data's magnitude M = max|x| (never
        # from the result, which may cancel to ~0).  Each Welford step
        # rounds three operations on values of size <= 2M and damps
        # earlier errors, so the mean is off by at most 3nεM; Chan's
        # merge adds O(εM).  Each M2 term delta*(x - mean) is <= 4M²
        # and inherits the running mean's error, so M2 is off by at
        # most ~24n²εM²: divided by n-1, the variance by <= 32nεM².
        # Near underflow every operation may also err by the smallest
        # subnormal η absolutely, hence the 4nη terms.
        eps = Fraction(sys.float_info.epsilon)
        tiny = Fraction(math.ulp(0.0))
        magnitude = max(abs(x) for x in exact)
        mean_bound = 4 * n * (eps * magnitude + tiny)
        variance_bound = 4 * n * (8 * eps * magnitude**2 + tiny)
        for moments in (a, one_pass):
            assert abs(Fraction(moments.mean) - mean) <= mean_bound
            assert abs(Fraction(moments.variance()) - variance) <= variance_bound

    @given(values_strategy)
    def test_merge_into_empty_is_identity(self, values):
        src = RunningMoments()
        src.extend(values)
        dst = RunningMoments()
        dst.merge(src)
        assert dst.to_dict() == src.to_dict()


# ---------------------------------------------------------------------------
# QuantileSketch
# ---------------------------------------------------------------------------


class TestQuantileSketch:
    def test_exact_below_k(self):
        sketch = QuantileSketch(k=64)
        data = [float(v) for v in range(50)]
        for v in data:
            sketch.add(v)
        assert sketch.rank_error == 0
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 49.0
        assert sketch.quantile(0.5) == pytest.approx(24.0)

    def test_empty_raises(self):
        with pytest.raises(ExperimentError):
            QuantileSketch().quantile(0.5)

    def test_bad_p_raises(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ExperimentError):
            sketch.quantile(1.5)

    def test_deterministic(self):
        a, b = QuantileSketch(k=32), QuantileSketch(k=32)
        for i in range(1000):
            v = float((i * 2654435761) % 10007)
            a.add(v)
            b.add(v)
        assert a.to_dict() == b.to_dict()

    def test_bound_stays_small_at_scale(self):
        sketch = QuantileSketch(k=256)
        for i in range(100_000):
            sketch.add(float((i * 2654435761) % 999983))
        # The certified bound must stay a small fraction of the stream.
        assert sketch.error_fraction() < 0.03
        # And the state must stay tiny relative to the stream.
        assert len(pickle.dumps(sketch)) < 100_000

    def test_roundtrips(self):
        sketch = QuantileSketch(k=16)
        for i in range(200):
            sketch.add(float(i % 37))
        via_dict = QuantileSketch.from_dict(sketch.to_dict())
        via_pickle = pickle.loads(pickle.dumps(sketch))
        via_json = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        for copy in (via_dict, via_pickle, via_json):
            assert copy.to_dict() == sketch.to_dict()
            assert copy.rank_error == sketch.rank_error

    @settings(max_examples=60)
    @given(values_strategy, st.integers(min_value=8, max_value=64))
    def test_quantiles_within_certified_bound(self, values, k):
        sketch = QuantileSketch(k=k)
        for v in values:
            sketch.add(v)
        assert sketch.count == len(values)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)
        for p in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert_within_bound(sketch, values, p)

    @settings(max_examples=60)
    @given(values_strategy, values_strategy, st.integers(min_value=8, max_value=32))
    def test_merge_equivalent_to_concatenated_stream(self, left, right, k):
        a = QuantileSketch(k=k)
        for v in left:
            a.add(v)
        b = QuantileSketch(k=k)
        for v in right:
            b.add(v)
        a.merge(b)
        combined = left + right
        assert a.count == len(combined)
        assert a.quantile(0.0) == min(combined)
        assert a.quantile(1.0) == max(combined)
        for p in (0.25, 0.5, 0.9):
            assert_within_bound(a, combined, p)


# ---------------------------------------------------------------------------
# Counter / Gauge / registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ExperimentError):
            c.inc(-1)

    def test_gauge_last_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_series_identity(self):
        assert series_id("x") == "x"
        assert series_id("x", (("a", "1"), ("b", "2"))) == "x{a=1,b=2}"

    def test_get_or_create_and_type_conflict(self):
        registry = MetricRegistry()
        c = registry.counter("ops", plan="p")
        assert registry.counter("ops", plan="p") is c
        assert registry.get("ops", plan="p") is c
        assert registry.get("ops", plan="other") is None
        with pytest.raises(ExperimentError):
            registry.gauge("ops", plan="p")

    def test_merge_semantics(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.moments("m").extend([1.0, 2.0])
        b.moments("m").extend([3.0])
        a.sketch("q", k=16).add(1.0)
        b.sketch("q", k=16).add(2.0)
        a.merge(b)
        assert a.counter("n").value == 5
        assert a.gauge("g").value == 9.0
        assert a.moments("m").count == 3
        assert a.moments("m").mean == pytest.approx(2.0)
        assert a.sketch("q").count == 2

    def test_snapshot_restore_roundtrip_bit_identical(self):
        registry = MetricRegistry()
        registry.counter("campaign.trials", plan="ring", series="fast").inc(7)
        registry.gauge("uptime").set(12.5)
        registry.moments("t", plan="ring").extend([0.5, 1.5, 9.0])
        sk = registry.sketch("t.sketch", k=16, plan="ring")
        for i in range(100):
            sk.add(float(i))
        restored = MetricRegistry.restore(
            json.loads(registry.to_json())
        )
        assert restored.to_json() == registry.to_json()

    def test_restore_rejects_unknown_schema(self):
        with pytest.raises(ExperimentError):
            MetricRegistry.restore({"schema": "nope/9", "metrics": []})

    def test_snapshot_deterministic_across_insertion_order(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("x").inc()
        a.counter("y", lbl="1").inc()
        b.counter("y", lbl="1").inc()
        b.counter("x").inc()
        assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------


class TestEmitter:
    def test_emit_and_read_back(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("n").inc()
        path = tmp_path / "trail.jsonl"
        with SnapshotEmitter(registry, path=path) as emitter:
            emitter.emit(phase="warm")
            registry.counter("n").inc()
            emitter.emit(phase="serve")
        records = list(read_snapshots(path))
        assert len(records) == 2
        assert records[0]["phase"] == "warm"
        assert records[1]["telemetry"]["metrics"][0]["value"] == 2
        assert emitter.emitted == 2

    def test_torn_final_line_tolerated(self, tmp_path):
        registry = MetricRegistry()
        path = tmp_path / "trail.jsonl"
        with SnapshotEmitter(registry, path=path) as emitter:
            emitter.emit()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"t": 1.0, "telemetry"')
        assert len(list(read_snapshots(path))) == 1

    def test_exactly_one_target(self):
        with pytest.raises(ExperimentError):
            SnapshotEmitter(MetricRegistry())
