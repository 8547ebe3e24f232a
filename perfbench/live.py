"""The two live-cluster workloads: ``live-queue`` and ``live-tcp``.

A :class:`~repro.runtime.cluster.ReplicaCluster` serves an open-loop
stream of puts at a fixed rate, well under the knee: the generator
sends each put when it is due, whether or not earlier ones finished,
and every latency is timed from the put's due time, so a stall shows
in the puts queued behind it.  After the stream the benchmark waits
for every put to reach every replica, then reads every key at every
replica and checks it against the newest put it recorded.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    OUT_DIR, Outcome, SetupSamples, median, own_peak_rss_mb, percentile, proc_cpu_seconds,
    proc_peak_rss_mb, rng,
)
from layers import install_cluster, install_protocol, layer_metrics
from tracer import Tracer

from repro.errors import ReproError
from repro.experiments.scenarios import DEMANDS, TOPOLOGIES
from repro.runtime.cluster import ReplicaCluster

#: Per workload: transport, replicas, offered puts per second, and the
#: cluster boots timed for setup_s before and after the put stream.
SHAPES = {
    "live-queue": {"transport": "queue", "nodes": 12, "rate": 500.0, "boots": (12, 13)},
    "live-tcp": {"transport": "tcp", "nodes": 3, "rate": 200.0, "boots": (3, 2)},
}
#: Wall-clock seconds per protocol time unit.  Host steal delays every
#: hop by about the same wall time whatever the scale, so a longer unit
#: keeps the latency the protocol's own: with two niced CPU hogs taking a
#: third of both cores in 50 ms bursts, the tcp p50 rose 42% at 0.05 and
#: 3% at 0.2, the queue p50 20% and 2%.
TIME_SCALE = 0.2
KEYS = 64
#: A put not on every replica this long after the last put was due has failed.
REPLICATE_TIMEOUT_S = 10.0
#: Interval of the event-loop lag probe (traced runs only).
LAG_PROBE_S = 0.01
#: CPU is read every this many seconds of the put stream; cpu_ms_per_op is
#: the median over these slices, so a burst of host steal moves one slice.
CPU_SLICE_S = 2.0
#: The cluster is fixed (topology, demand and protocol seeds); ``--seed``
#: draws the put stream.  A fresh topology per run moved the p50 by a
#: third at n=3.
CLUSTER_SYSTEM = {"topo_seed": 5, "demand_seed": 6, "sim_seed": 7}


def cluster_inputs(seed: int, workload: str, seconds: float,
                   rate: Optional[float] = None) -> Dict[str, object]:
    """Cluster seeds and the put stream: (replica index, key) per put."""
    shape = SHAPES[workload]
    draw = rng(seed, workload)
    count = max(1, int((rate or shape["rate"]) * seconds))
    puts = [(draw.randrange(shape["nodes"]), f"k{draw.randrange(KEYS)}") for _ in range(count)]
    return dict(CLUSTER_SYSTEM, puts=puts)


def boot(workload: str, inputs, track: int) -> ReplicaCluster:
    """Build and start the workload's cluster; ``track`` bounds its per-put records."""
    shape = SHAPES[workload]
    topology = TOPOLOGIES["ba"](shape["nodes"], inputs["topo_seed"])
    cluster = ReplicaCluster(
        topology,
        demand=DEMANDS["uniform"](topology, inputs["demand_seed"]),
        seed=inputs["sim_seed"],
        time_scale=TIME_SCALE,
        transport=shape["transport"],
        track_limit=track,
    )
    cluster.start()
    return cluster


def _children() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()]


def _cluster_cpu() -> float:
    """CPU seconds of this process plus its replica processes."""
    return time.process_time() + sum(proc_cpu_seconds(pid) for pid in _children())


class _LagProbe:
    """Measures how late the cluster's event loop runs a timer."""

    def __init__(self, loop) -> None:
        self.lags: List[float] = []
        self._stopped = threading.Event()
        self._loop = loop
        loop.call_soon_threadsafe(self._arm)

    def _arm(self) -> None:
        due = self._loop.time() + LAG_PROBE_S
        self._loop.call_at(due, self._fire, due)

    def _fire(self, due: float) -> None:
        self.lags.append(self._loop.time() - due)
        if not self._stopped.is_set():
            self._arm()

    def stop(self) -> float:
        self._stopped.set()
        return sum(self.lags) / len(self.lags) * 1e3 if self.lags else 0.0


def drive(cluster: ReplicaCluster, inputs, rate: float) -> dict:
    """Offer the put stream open-loop, then wait for full replication."""
    nodes = cluster.node_ids
    puts = inputs["puts"]
    records: List[Tuple[float, Optional[float], object]] = []
    lateness: List[float] = []
    slice_puts = max(1, int(rate * CPU_SLICE_S))
    cpu_marks = [_cluster_cpu()]
    cpu0 = cpu_marks[0]
    start = time.monotonic() + 0.01
    for index, (node, key) in enumerate(puts):
        if index and index % slice_puts == 0:
            cpu_marks.append(_cluster_cpu())
        due = start + index / rate
        now = time.monotonic()
        if due > now:
            time.sleep(due - now)
        lateness.append(time.monotonic() - due)
        try:
            update = cluster.put(key, index, node=nodes[node])
        except ReproError as exc:
            records.append((due, None, exc))
            continue
        records.append((due, time.monotonic(), update))
    deadline = start + (len(puts) - 1) / rate + REPLICATE_TIMEOUT_S
    latencies: List[Optional[float]] = []
    finished = start
    for due, returned, update in records:
        if returned is None:
            latencies.append(None)
            continue
        replicated = cluster.wait_replicated(
            update.uid, timeout=max(0.0, deadline - time.monotonic()))
        spread = cluster.replication_latency(update.uid) if replicated else None
        if spread is None:
            latencies.append(None)
            continue
        # The put is applied at its origin by the time the call returns;
        # replication_latency runs from that apply to the last replica.
        latency = (returned - due) + spread
        latencies.append(latency)
        finished = max(finished, due + latency)
    cpu = _cluster_cpu() - cpu0
    slices = [(b - a) / slice_puts for a, b in zip(cpu_marks, cpu_marks[1:])]
    return {"records": records, "latencies": latencies, "lateness": lateness,
            "cpu": cpu, "cpu_per_put_slices": slices or [cpu / max(1, len(puts))],
            "window": finished - start}


def hot_set_latencies(cluster: ReplicaCluster, run: dict) -> List[float]:
    """Seconds from each put's due time until the hot set had it.

    The hot set is the top 10% of replicas by demand (at least one).
    Apply times are protocol units from the cluster; the origin's own
    apply marks the put.
    """
    nodes = cluster.node_ids
    hot = cluster.demand.top_fraction(nodes, 0.1)
    scale = cluster.runtime.time_scale
    out = []
    for (due, returned, update), latency in zip(run["records"], run["latencies"]):
        if latency is None:
            continue
        times = cluster.apply_times(update.uid)
        reached = max(times[node] for node in hot)
        out.append((returned - due) + max(0.0, reached - times[update.origin]) * scale)
    return out


def _check(cluster: ReplicaCluster, run: dict, outcome: Outcome) -> None:
    """Each put replicated in time; every replica holds the newest put per key."""
    records, latencies = run["records"], run["latencies"]
    outcome.attempted += len(records)
    newest: Dict[str, object] = {}
    for (_due, returned, update), latency in zip(records, latencies):
        if returned is None:
            outcome.fail(1, f"put refused: {update}")
            continue
        if latency is None:
            outcome.fail(1, f"put {update.uid} not on every replica within "
                            f"{REPLICATE_TIMEOUT_S}s")
        best = newest.get(update.key)
        if best is None or update.timestamp > best.timestamp:
            newest[update.key] = update
    for key, update in sorted(newest.items()):
        for node in cluster.node_ids:
            entry = cluster.read(key, node=node)
            if entry is None or entry.timestamp != update.timestamp or entry.value != update.value:
                outcome.fail(1, f"key {key} at node {node} holds {entry!r}; newest put is "
                                f"{update.uid}")
                break


def _peak_rss_mb() -> float:
    return own_peak_rss_mb() + sum(proc_peak_rss_mb(pid) for pid in _children())


def run_live(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    shape = SHAPES[workload]
    outcome = Outcome()
    if not trace:
        setup_inputs = cluster_inputs(seed, workload, 1.0)

        def boot_seconds() -> float:
            began = time.perf_counter()
            cluster = boot(workload, setup_inputs, 16)
            elapsed = time.perf_counter() - began
            cluster.close()
            return elapsed

        setup = SetupSamples(boot_seconds)
        before, after = shape["boots"]
        setup.take(before)
        inputs = cluster_inputs(seed, workload, seconds)
        cluster = boot(workload, inputs, len(inputs["puts"]) + 16)
        try:
            run = drive(cluster, inputs, shape["rate"])
            _check(cluster, run, outcome)
            peak = _peak_rss_mb()
            hot = sorted(hot_set_latencies(cluster, run))
        finally:
            cluster.close()
        setup.take(after)
        done = [x for x in run["latencies"] if x is not None]
        outcome.metric("setup_s", setup.median(), "s")
        outcome.metric("peak_rss_mb", peak, "MB")
        outcome.metric("ops_per_s", len(done) / run["window"], "1/s")
        outcome.metric("replicated_p50_ms", median(done) * 1e3 if done else 0.0, "ms")
        outcome.metric("cpu_ms_per_op", median(run["cpu_per_put_slices"]) * 1e3, "ms")
        outcome.lateness = run["lateness"]
        ordered = sorted(done)
        outcome.context["replicated_p99_ms"] = percentile(ordered, 0.99) * 1e3
        outcome.context["hot_set_p50_ms"] = percentile(hot, 0.5) * 1e3
        outcome.context["puts"] = len(run["records"])
        return outcome

    inputs = cluster_inputs(seed, workload, seconds / 2)
    track = len(inputs["puts"]) + 16
    cluster = boot(workload, inputs, track)
    try:
        plain = drive(cluster, inputs, shape["rate"])
        _check(cluster, plain, outcome)
    finally:
        cluster.close()
    tracer = Tracer()
    install_cluster(tracer, shape["transport"])
    if shape["transport"] == "queue":
        install_protocol(tracer)
    try:
        cluster = boot(workload, inputs, track)
        try:
            before = cluster.stats()["traffic"]
            probe = _LagProbe(cluster.runtime.loop)
            traced = drive(cluster, inputs, shape["rate"])
            lag_ms = probe.stop()
            after = cluster.stats()["traffic"]
            _check(cluster, traced, outcome)
        finally:
            cluster.close()
    finally:
        tracer.restore()
    puts = sum(1 for x in traced["latencies"] if x is not None)
    plain_puts = sum(1 for x in plain["latencies"] if x is not None)
    overhead = (traced["cpu"] / max(1, puts)) / (plain["cpu"] / max(1, plain_puts)) * 100 - 100
    traffic = {"messages": after["messages_sent"] - before["messages_sent"],
               "bytes": after["bytes_sent"] - before["bytes_sent"]}
    outcome.metrics.update(layer_metrics(tracer, overhead, puts=puts, traffic=traffic,
                                         loop_lag_ms=lag_ms))
    outcome.lateness = traced["lateness"]
    outcome.context["spans"] = str(tracer.dump(OUT_DIR, f"spans-{workload}-{seed}"))
    return outcome
