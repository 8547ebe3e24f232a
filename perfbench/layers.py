"""Which entry points each layer is traced at, and the per-layer metrics.

A layer is one package of ``src/repro``.  The ``install_*`` functions
wrap the entry points a workload reaches (the README maps each metric
to the end-to-end metric it should move); :func:`layer_metrics` turns
the tracer's per-name sums and counts into the ``per_layer`` metrics of
``BENCHMARK.json``.  A metric whose layer a workload never enters
reads 0.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from tracer import Tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.engine.self_ns_per_event", "ns"),
    ("sim.network.send.calls", "count"),
    ("sim.network.send.self_ns", "ns"),
    ("sim.network.deliver.self_ns", "ns"),
    ("core.protocol.dispatch.self_ns", "ns"),
    ("core.antientropy.sessions", "count"),
    ("core.antientropy.initiate.self_us", "us"),
    ("core.antientropy.on_message.self_us", "us"),
    ("core.fastupdate.offers", "count"),
    ("core.fastupdate.push.self_us", "us"),
    ("core.fastupdate.useful_ratio", "ratio"),
    ("replica.log.updates_since.calls", "count"),
    ("replica.log.updates_since.self_us", "us"),
    ("replica.log.add.self_ns", "ns"),
    ("replica.integrate.self_us", "us"),
    ("replica.integrate.useful_ratio", "ratio"),
    ("demand.view.calls", "count"),
    ("demand.view.self_ns", "ns"),
    ("topology.build_ms", "ms"),
    ("topology.diameter_ms", "ms"),
    ("experiments.trial_ms", "ms"),
    ("experiments.sink.record_us", "us"),
    ("telemetry.fold_us", "us"),
    ("runtime.live.send_us", "us"),
    ("runtime.loop.lag_ms", "ms"),
    ("runtime.cluster.put_call_ms", "ms"),
    ("runtime.cluster.record_applied_us", "us"),
    ("runtime.messages_per_put", "count"),
    ("runtime.bytes_per_put", "B"),
    ("runtime.tcp.encode_us", "us"),
    ("runtime.tcp.decode_us", "us"),
    ("runtime.tcp.frame_bytes", "B"),
    ("runtime.tcp.frames_per_put", "count"),
    ("trace.overhead_pct", "%"),
)


def _count_delta(tracer: Tracer, counter: str, read):
    """``around`` factory: count how much ``read(self)`` grew over a call."""

    def around(fn):
        def counted(self, *args, **kwargs):
            before = read(self)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.count(counter, read(self) - before)

        return counted

    return around


def _integrate_outcome(tracer: Tracer):
    def around(fn):
        def counted(self, updates, source, sender=None):
            updates = updates if isinstance(updates, (list, tuple)) else list(updates)
            new = fn(self, updates, source, sender)
            tracer.count("replica.integrate.received", len(updates))
            tracer.count("replica.integrate.new", len(new))
            if source == "fast" and new:
                tracer.count("core.fastupdate.useful", 1)
            return new

        return counted

    return around


def install_protocol(tracer: Tracer) -> None:
    """Wrap the protocol layers shared by the simulator and live clusters."""
    from repro.core.antientropy import AntiEntropyAgent
    from repro.core.fastupdate import FastUpdateAgent
    from repro.core.protocol import ReplicationNode
    from repro.demand.views import (
        DemandView, OracleDemandView, SnapshotDemandView, TableDemandView,
    )
    from repro.replica.log import WriteLog
    from repro.replica.server import ReplicaServer

    tracer.wrap_attr(ReplicationNode, "on_message", "core.protocol.dispatch")
    tracer.wrap_attr(
        AntiEntropyAgent, "_initiate", "core.antientropy.initiate",
        around=_count_delta(tracer, "core.antientropy.sessions",
                            lambda agent: agent.stats.initiated),
    )
    for handler in ("_handle_request", "_handle_busy", "_handle_summary",
                    "_handle_batch", "_handle_abort"):
        tracer.wrap_attr(AntiEntropyAgent, handler, "core.antientropy.on_message")
    tracer.wrap_attr(AntiEntropyAgent, "_timeout", "core.antientropy.timeout")
    tracer.wrap_attr(FastUpdateAgent, "on_new_updates", "core.fastupdate.push")
    tracer.wrap_attr(
        FastUpdateAgent, "_offer", None,
        around=_count_delta(tracer, "core.fastupdate.offers",
                            lambda agent: agent.stats.offers_sent),
    )
    for handler in ("_handle_offer", "_handle_reply", "_handle_payload"):
        tracer.wrap_attr(FastUpdateAgent, handler, "core.fastupdate.on_message")
    tracer.wrap_attr(WriteLog, "updates_since", "replica.log.updates_since")
    tracer.wrap_attr(WriteLog, "add", "replica.log.add")
    tracer.wrap_attr(ReplicaServer, "integrate", "replica.integrate",
                     around=_integrate_outcome(tracer))
    for view in (OracleDemandView, SnapshotDemandView, TableDemandView):
        tracer.wrap_attr(view, "demand_of", "demand.view")
    tracer.wrap_attr(DemandView, "rank", "demand.view")


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulation kernel and its network."""
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    tracer.wrap_attr(
        Simulator, "run", "sim.engine.run",
        around=_count_delta(tracer, "sim.events", lambda sim: sim.events_executed),
    )
    tracer.wrap_attr(Network, "send", "sim.network.send")
    tracer.wrap_attr(Network, "_deliver", "sim.network.deliver")


def install_campaign(tracer: Tracer) -> None:
    """Wrap the experiment pipeline around each trial."""
    from repro.experiments import harness
    from repro.experiments.plan import ScenarioSpec
    from repro.experiments.scenarios import TOPOLOGIES
    from repro.experiments.sink import StreamingSink

    tracer.wrap_item(TOPOLOGIES, "ba", "topology.build")
    tracer.wrap_attr(harness, "topo_diameter", "topology.diameter")
    tracer.wrap_attr(ScenarioSpec, "run", "experiments.trial")
    tracer.wrap_attr(StreamingSink, "record", "experiments.sink.record")
    tracer.wrap_attr(StreamingSink, "_fold", "telemetry.fold")


def install_cluster(tracer: Tracer, transport: str) -> None:
    """Wrap the live cluster as seen from the driving (hub) process."""
    from repro.runtime import cluster
    from repro.runtime.cluster import ReplicaCluster
    from repro.runtime.live import AsyncioTransport
    from repro.runtime.tcp import FrameDecoder
    from repro.telemetry.moments import RunningMoments
    from repro.telemetry.sketch import QuantileSketch

    tracer.wrap_attr(ReplicaCluster, "put", "runtime.cluster.put")
    tracer.wrap_attr(ReplicaCluster, "_note_applied_locked",
                     "runtime.cluster.record_applied")
    tracer.wrap_attr(RunningMoments, "add", "telemetry.fold")
    tracer.wrap_attr(QuantileSketch, "add", "telemetry.fold")
    if transport == "queue":
        tracer.wrap_attr(AsyncioTransport, "send", "runtime.live.send")
        return

    def count_encode(fn):
        def counted(payload, *args, **kwargs):
            frame = fn(payload, *args, **kwargs)
            tracer.count("runtime.tcp.frames", 1)
            tracer.count("runtime.tcp.bytes", len(frame))
            return frame

        return counted

    def count_decode(fn):
        def counted(self, data):
            frames = fn(self, data)
            tracer.count("runtime.tcp.frames_decoded", len(frames))
            tracer.count("runtime.tcp.frames", len(frames))
            tracer.count("runtime.tcp.bytes", len(data))
            return frames

        return counted

    tracer.wrap_attr(cluster, "encode_frame", "runtime.tcp.encode", around=count_encode)
    tracer.wrap_attr(FrameDecoder, "feed", "runtime.tcp.decode", around=count_decode)


def _per_call(sums, name: str, scale: float, own: bool = True) -> float:
    calls, total, self_ns = sums.get(name, (0, 0, 0))
    if not calls:
        return 0.0
    return (self_ns if own else total) / calls / scale


def layer_metrics(
    tracer: Tracer,
    overhead_pct: float,
    puts: int = 0,
    traffic: Optional[Dict[str, float]] = None,
    loop_lag_ms: float = 0.0,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric from one traced pass."""
    sums = tracer.sums()
    counts = tracer.counts()
    units = dict(PER_LAYER)
    out: Dict[str, float] = {}
    events = counts.get("sim.events", 0)
    engine_self = sums.get("sim.engine.run", (0, 0, 0))[2]
    out["sim.events"] = events
    out["sim.engine.self_ns_per_event"] = engine_self / events if events else 0.0
    out["sim.network.send.calls"] = sums.get("sim.network.send", (0, 0, 0))[0]
    out["sim.network.send.self_ns"] = _per_call(sums, "sim.network.send", 1)
    out["sim.network.deliver.self_ns"] = _per_call(sums, "sim.network.deliver", 1)
    out["core.protocol.dispatch.self_ns"] = _per_call(sums, "core.protocol.dispatch", 1)
    out["core.antientropy.sessions"] = counts.get("core.antientropy.sessions", 0)
    out["core.antientropy.initiate.self_us"] = _per_call(
        sums, "core.antientropy.initiate", 1e3)
    out["core.antientropy.on_message.self_us"] = _per_call(
        sums, "core.antientropy.on_message", 1e3)
    offers = counts.get("core.fastupdate.offers", 0)
    out["core.fastupdate.offers"] = offers
    out["core.fastupdate.push.self_us"] = _per_call(sums, "core.fastupdate.push", 1e3)
    out["core.fastupdate.useful_ratio"] = (
        counts.get("core.fastupdate.useful", 0) / offers if offers else 0.0)
    out["replica.log.updates_since.calls"] = sums.get(
        "replica.log.updates_since", (0, 0, 0))[0]
    out["replica.log.updates_since.self_us"] = _per_call(
        sums, "replica.log.updates_since", 1e3)
    out["replica.log.add.self_ns"] = _per_call(sums, "replica.log.add", 1)
    out["replica.integrate.self_us"] = _per_call(sums, "replica.integrate", 1e3)
    received = counts.get("replica.integrate.received", 0)
    out["replica.integrate.useful_ratio"] = (
        counts.get("replica.integrate.new", 0) / received if received else 0.0)
    out["demand.view.calls"] = sums.get("demand.view", (0, 0, 0))[0]
    out["demand.view.self_ns"] = _per_call(sums, "demand.view", 1)
    out["topology.build_ms"] = _per_call(sums, "topology.build", 1e6, own=False)
    out["topology.diameter_ms"] = _per_call(sums, "topology.diameter", 1e6, own=False)
    out["experiments.trial_ms"] = _per_call(sums, "experiments.trial", 1e6, own=False)
    out["experiments.sink.record_us"] = _per_call(sums, "experiments.sink.record", 1e3)
    out["telemetry.fold_us"] = _per_call(sums, "telemetry.fold", 1e3)
    out["runtime.live.send_us"] = _per_call(sums, "runtime.live.send", 1e3)
    out["runtime.loop.lag_ms"] = loop_lag_ms
    out["runtime.cluster.put_call_ms"] = _per_call(
        sums, "runtime.cluster.put", 1e6, own=False)
    out["runtime.cluster.record_applied_us"] = _per_call(
        sums, "runtime.cluster.record_applied", 1e3)
    traffic = traffic or {}
    out["runtime.messages_per_put"] = traffic.get("messages", 0) / puts if puts else 0.0
    out["runtime.bytes_per_put"] = traffic.get("bytes", 0) / puts if puts else 0.0
    out["runtime.tcp.encode_us"] = _per_call(sums, "runtime.tcp.encode", 1e3)
    decoded = counts.get("runtime.tcp.frames_decoded", 0)
    decode_self = sums.get("runtime.tcp.decode", (0, 0, 0))[2]
    out["runtime.tcp.decode_us"] = decode_self / decoded / 1e3 if decoded else 0.0
    frames = counts.get("runtime.tcp.frames", 0)
    out["runtime.tcp.frame_bytes"] = (
        counts.get("runtime.tcp.bytes", 0) / frames if frames else 0.0)
    out["runtime.tcp.frames_per_put"] = frames / puts if puts else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return {name: (float(out[name]), units[name]) for name, _ in PER_LAYER}
