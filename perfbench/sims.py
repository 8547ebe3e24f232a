"""The two simulator workloads: ``paper-campaign`` and ``write-stream``.

Both run in the driving process on the discrete-event kernel.  Each run
first replays a canary pass at :data:`common.REFERENCE_SEED` (untimed;
it also warms the interpreter) and compares its simulated work with
``fingerprints.json``, then measures whole rounds of work generated
from ``--seed`` until ``--seconds`` have passed, then checks every
operation's output.
"""

from __future__ import annotations

import bisect
import gc
import shutil
import tempfile
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from common import (
    OUT_DIR, REFERENCE_SEED, Outcome, SetupSamples, derive, digest, fingerprint_diff,
    load_fingerprint, median, rng, time_call,
)
from layers import install_campaign, install_protocol, install_sim, layer_metrics
from tracer import Tracer

from repro.core.system import ReplicationSystem
from repro.experiments.backends import SerialBackend
from repro.experiments.campaign import Campaign
from repro.experiments.figures import figure_cdf_plan
from repro.experiments.scenarios import DEMANDS, TOPOLOGIES, VARIANTS
from repro.experiments.sink import StreamingSink


def _bfs_diameter(topology) -> int:
    """Longest shortest path in hops, by a BFS from every node."""
    best = 0
    for source in topology.nodes:
        seen = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in topology.neighbors(node):
                if neighbor not in seen:
                    seen[neighbor] = seen[node] + 1
                    queue.append(neighbor)
        best = max(best, max(seen.values()))
    return best


# ---------------------------------------------------------------------------
# paper-campaign: the Figs. 5/6 grid, many small trials
# ---------------------------------------------------------------------------

#: Repetitions per plan in one round: 2 sizes x 3 variants x 2 reps = 12 trials.
CAMPAIGN_REPS = 2
CAMPAIGN_SIZES = (("fig5", 50), ("fig6", 100))
CAMPAIGN_VARIANTS = ("weak", "ordered", "fast")
#: Set-up samples: this many before the first round, one after every
#: SETUP_EVERY-th round.
CAMPAIGN_SETUPS_FIRST = 3
SETUP_EVERY = 4
#: The Figs. 5/6 ranking is checked on the trials of the first this-many
#: rounds (60 reps per variant and grid), so its outcome is fixed by the
#: seed, not by how many rounds a run fits in.
RANKING_ROUNDS = 30
#: Pairs (a, b) whose median top-10% reach times must satisfy a < b, per
#: grid.  At n=50 ordered and weak came within 0.1 time units of each
#: other on some seeds (4.13 vs 4.22 over 60 reps), so there only fast's
#: lead is checked; both medians are reported in the context line.
RANKINGS = {
    "fig5": (("fast", "ordered"), ("fast", "weak")),
    "fig6": (("fast", "ordered"), ("ordered", "weak")),
}


def campaign_round(seed: int, index: int) -> Campaign:
    """Round ``index`` of the grid: both figure plans, seeds drawn from ``seed``."""
    return Campaign(
        "paper-campaign",
        {
            key: figure_cdf_plan(
                n, reps=CAMPAIGN_REPS, seed=derive(seed, "paper-campaign", index, key) % 2**31
            )
            for key, n in CAMPAIGN_SIZES
        },
    )


class _TrialClock:
    """Times each trial's propagation: inject-to-last-replica wall time.

    Wraps ``ReplicationSystem.run_until_replicated`` (the call a trial
    makes right after injecting its write) for the whole run, and keeps
    the events each trial's simulator executed.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[float, int]] = []
        self._original = ReplicationSystem.run_until_replicated
        records = self.records
        original = self._original

        def timed(system, uid, max_time=100.0):
            start = time.perf_counter()
            result = original(system, uid, max_time)
            records.append((time.perf_counter() - start, system.sim.events_executed))
            return result

        ReplicationSystem.run_until_replicated = timed

    def close(self) -> None:
        ReplicationSystem.run_until_replicated = self._original


def _run_campaign_round(campaign: Campaign, clock: _TrialClock, workdir,
                        index_of_round: int = 0) -> List[dict]:
    """Run one round on the serial backend with a streaming checkpoint sink."""
    clock.records.clear()
    directory = tempfile.mkdtemp(prefix="round-", dir=workdir)
    try:
        with StreamingSink(f"{directory}/checkpoint.jsonl") as sink:
            outcome = campaign.run(SerialBackend(), sink=sink)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    rows = []
    timings = iter(clock.records)
    for key, plan in campaign.plans.items():
        result = outcome.results[key]
        labels = plan.series_labels()
        for index, spec in enumerate(plan.scenarios()):
            trial = result.series[spec.series_label()].trials[index // len(labels)]
            wall, events = next(timings)
            rows.append({"plan": key, "spec": spec, "trial": trial,
                         "wall": wall, "events": events, "round": index_of_round})
    return rows


def _cell_median_ms(rows: List[dict]) -> float:
    """Mean over the six (size, variant) cells of each cell's median
    inject-to-last-replica wall time.

    The cells' times differ several-fold, so the median of all trials
    pooled falls in the gap between two cells and jumps with their mix.
    """
    cells = []
    for plan, _n in CAMPAIGN_SIZES:
        for variant in CAMPAIGN_VARIANTS:
            walls = [r["wall"] for r in rows if r["plan"] == plan and r["spec"].variant == variant]
            cells.append(median(walls))
    return sum(cells) / len(cells) * 1e3


def _campaign_fingerprint(rows: List[dict]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for row in rows:
        trial, spec = row["trial"], row["spec"]
        out[f"{row['plan']}/rep={spec.rep}/{spec.variant}"] = {
            "events": row["events"],
            "messages": trial.messages,
            "bytes": trial.bytes_sent,
            "diameter": trial.diameter,
            "reach": [trial.time_all, trial.time_top, trial.time_top1, trial.mean_time],
        }
    return out


def _check_campaign(rows: List[dict], outcome: Outcome, ranking: bool = True) -> None:
    """Convergence, diameter against our own BFS, and the Figs. 5/6 ranking.

    The ranking is a property of many trials, so it is checked on the
    pooled first :data:`RANKING_ROUNDS` measured rounds, not on the
    two-rep canary.
    """
    outcome.attempted += len(rows)
    diameters: Dict[Tuple[int, int], int] = {}
    for row in rows:
        spec, trial = row["spec"], row["trial"]
        if trial.time_all is None:
            outcome.fail(1, f"{row['plan']} rep {spec.rep} {spec.variant}: did not converge")
            continue
        key = (spec.n, spec.topo_seed)
        if key not in diameters:
            diameters[key] = _bfs_diameter(TOPOLOGIES[spec.topology](spec.n, spec.topo_seed))
        if trial.diameter != diameters[key]:
            outcome.fail(1, f"{row['plan']} rep {spec.rep}: diameter {trial.diameter} "
                            f"!= BFS {diameters[key]}")
    for plan, _n in CAMPAIGN_SIZES if ranking else ():
        plan_rows = [row for row in rows
                     if row["plan"] == plan and row["round"] < RANKING_ROUNDS]
        tops = {}
        for variant in CAMPAIGN_VARIANTS:
            values = [row["trial"].time_top for row in plan_rows
                      if row["spec"].variant == variant and row["trial"].time_top is not None]
            tops[variant] = median(values) if values else float("inf")
        outcome.context[f"{plan}_top10_median"] = tops
        for faster, slower in RANKINGS[plan]:
            if not tops[faster] < tops[slower]:
                outcome.fail(len(plan_rows), f"{plan}: median top-10% reach time of {faster} "
                                             f"is not below {slower}: {tops}")


def campaign_canary() -> Dict[str, object]:
    """Fingerprint of the canary round (also what ``--regen-fingerprints`` saves)."""
    return _campaign_fingerprint(_canary_rows())


def _canary_rows() -> List[dict]:
    clock = _TrialClock()
    try:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        return _run_campaign_round(campaign_round(REFERENCE_SEED, 0), clock, OUT_DIR)
    finally:
        clock.close()


def _campaign_setup(seed: int) -> SetupSamples:
    """Times building every topology and system of one round."""
    specs = [spec for plan in campaign_round(seed, -1).plans.values()
             for spec in plan.scenarios()]

    def build() -> None:
        for spec in specs:
            trial = spec.to_trial_spec()
            ReplicationSystem(trial.topology, trial.demand, trial.config, seed=trial.seed)

    return SetupSamples(lambda: time_call(build))


def run_paper_campaign(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    canary = _canary_rows()
    _check_campaign(canary, outcome, ranking=False)
    _compare_fingerprint("paper-campaign", _campaign_fingerprint(canary), len(canary), outcome)
    setup = _campaign_setup(seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    def passes(limit_s: Optional[float], rounds: Optional[int], sample_setup: bool = False):
        # Per round: (trials, wall s, cpu s).  The metrics are medians
        # over rounds, so a burst of host noise moves one round, not the run.
        clock = _TrialClock()
        rows: List[dict] = []
        timings: List[Tuple[int, float, float]] = []
        elapsed = 0.0
        try:
            while (rounds is None and elapsed < limit_s) or (
                rounds is not None and len(timings) < rounds
            ):
                start, cpu0 = time.perf_counter(), time.process_time()
                index = len(timings)
                batch = _run_campaign_round(campaign_round(seed, index), clock, OUT_DIR, index)
                wall = time.perf_counter() - start
                timings.append((len(batch), wall, time.process_time() - cpu0))
                rows.extend(batch)
                elapsed += wall
                if sample_setup and index % SETUP_EVERY == SETUP_EVERY - 1:
                    setup.take()
        finally:
            clock.close()
        return rows, timings

    if not trace:
        setup.take(CAMPAIGN_SETUPS_FIRST)
        rows, timings = passes(seconds, None, sample_setup=True)
        _check_campaign(rows, outcome)
        outcome.metric("setup_s", setup.median(), "s")
        outcome.metric("ops_per_s", median([n / wall for n, wall, _ in timings]), "1/s")
        outcome.metric("replicated_p50_ms", _cell_median_ms(rows), "ms")
        outcome.metric("cpu_ms_per_op", median([cpu * 1e3 / n for n, _, cpu in timings]), "ms")
        outcome.context["trials"] = len(rows)
        outcome.context["events_per_s"] = (
            sum(row["events"] for row in rows) / sum(wall for _, wall, _ in timings))
        return outcome

    rows, timings = passes(seconds / 2, None)
    tracer = Tracer()
    install_sim(tracer)
    install_protocol(tracer)
    install_campaign(tracer)
    try:
        traced_rows, traced_timings = passes(None, len(timings))
    finally:
        tracer.restore()
    _check_campaign(rows + traced_rows, outcome)
    cpu = sum(t[2] for t in timings)
    traced_cpu = sum(t[2] for t in traced_timings)
    overhead = (traced_cpu / len(traced_rows)) / (cpu / len(rows)) * 100 - 100
    outcome.metrics.update(layer_metrics(tracer, overhead))
    outcome.context["spans"] = str(tracer.dump(OUT_DIR, f"spans-paper-campaign-{seed}"))
    return outcome


def _compare_fingerprint(workload: str, measured: Dict[str, object], operations: int,
                         outcome: Outcome) -> None:
    reference = load_fingerprint(workload)
    if reference is None:
        outcome.fail(operations, f"{workload}: no reference fingerprint "
                                 "(run run.py --regen-fingerprints)")
        return
    moved = fingerprint_diff(reference, measured)
    if moved:
        outcome.fail(operations, f"{workload} fingerprint moved: {moved}")


# ---------------------------------------------------------------------------
# write-stream: one fast system fed ~1500 writes, then settled
# ---------------------------------------------------------------------------

STREAM_NODES = 100
STREAM_WRITES = 1500
#: The canary stream is shorter: it pins the simulated work, not the speed.
CANARY_WRITES = 500
#: Set-up samples before the first stream and after each stream.
STREAM_SETUPS_FIRST = 5
STREAM_SETUPS_BETWEEN = 3
#: Writes per protocol time unit.
STREAM_RATE = 10.0
STREAM_KEYS = 64
#: The system under load is fixed (topology, demand and protocol seeds);
#: ``--seed`` draws the write stream.  A fresh topology per run would
#: move writes/s by more than the host noise this workload must resolve.
STREAM_SYSTEM = {"topo_seed": 7, "demand_seed": 8, "sim_seed": 9}
#: Samples of the wall clock per protocol time unit (writes fall on samples).
TICKS_PER_UNIT = 10
#: Settle horizon after the last write, in time units.
SETTLE_HORIZON = 400.0


def stream_inputs(seed: int, index: int, writes: int = STREAM_WRITES) -> Dict[str, object]:
    """The write schedule (time, origin, key) of stream ``index``."""
    draw = rng(seed, "write-stream", index)
    inputs: Dict[str, object] = dict(STREAM_SYSTEM)
    origins = [draw.randrange(STREAM_NODES) for _ in range(writes)]
    keys = [f"k{draw.randrange(STREAM_KEYS)}" for _ in range(writes)]
    inputs["writes"] = [(i / STREAM_RATE, origins[i], keys[i]) for i in range(writes)]
    return inputs


def _build_stream_system(inputs) -> ReplicationSystem:
    topology = TOPOLOGIES["ba"](STREAM_NODES, inputs["topo_seed"])
    demand = DEMANDS["uniform"](topology, inputs["demand_seed"])
    system = ReplicationSystem(topology, demand, VARIANTS["fast"](), seed=inputs["sim_seed"])
    system.sim.trace.disable()
    system.start()
    return system


def _run_stream(inputs, tracer: Optional[Tracer] = None) -> dict:
    """Feed the write schedule, settle until every write is everywhere."""
    start, cpu0 = time.perf_counter(), time.process_time()
    system = _build_stream_system(inputs)
    nodes = sorted(system.topology.nodes)
    sim = system.sim
    writes = inputs["writes"]
    updates = []
    tick_sim: List[float] = []
    tick_wall: List[float] = []
    inject_wall: List[float] = []
    end_of_ticks = writes[-1][0] + SETTLE_HORIZON

    def tick(step: int, index: int) -> None:
        now = sim.now
        wall = time.perf_counter()
        tick_sim.append(now)
        tick_wall.append(wall)
        while index < len(writes) and writes[index][0] <= now:
            _, origin, key = writes[index]
            updates.append(system.inject_write(nodes[origin], key=key, value=index))
            inject_wall.append(wall)
            index += 1
        at = (step + 1) / TICKS_PER_UNIT
        if at <= end_of_ticks:
            sim.schedule_at(at, tick_fn, step + 1, index)

    # The tick is the benchmark's own event; traced, it stays out of the
    # engine's self time.
    tick_fn = tracer.traced("bench.tick", tick) if tracer is not None else tick
    sim.schedule_at(0.0, tick_fn, 0, 0)
    system.run_until(writes[-1][0])
    for update in updates:
        system.run_until_replicated(update.uid, max_time=end_of_ticks)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    latencies = []
    reach = []
    for update, injected in zip(updates, inject_wall):
        times = system.apply_times(update.uid)
        if len(times) < len(nodes):
            latencies.append(None)
            reach.append(None)
            continue
        done = max(times.values())
        reach.append(done - times[update.origin])
        at = bisect.bisect_left(tick_sim, done)
        if at >= len(tick_sim):
            done_wall = tick_wall[-1]
        elif at == 0 or tick_sim[at] == done:
            done_wall = tick_wall[at]
        else:
            lo, hi = tick_sim[at - 1], tick_sim[at]
            share = (done - lo) / (hi - lo)
            done_wall = tick_wall[at - 1] + share * (tick_wall[at] - tick_wall[at - 1])
        latencies.append(done_wall - injected)
    return {"system": system, "updates": updates, "wall": wall, "cpu": cpu,
            "latencies": latencies, "reach": reach}


def _check_stream(run: dict, outcome: Outcome) -> None:
    """Every write everywhere; summaries match our per-origin counts; LWW holds."""
    system, updates = run["system"], run["updates"]
    outcome.attempted += len(updates)
    missing = [u for u in updates if not system.all_have(u.uid)]
    if missing:
        outcome.fail(len(missing), f"write-stream: {len(missing)} writes not on every node")
    per_origin: Dict[int, int] = {}
    newest: Dict[str, object] = {}
    for update in updates:
        per_origin[update.origin] = per_origin.get(update.origin, 0) + 1
        best = newest.get(update.key)
        if best is None or update.timestamp > best.timestamp:
            newest[update.key] = update
    wrong = [node for node, server in system.servers.items()
             if server.summary().as_dict() != per_origin]
    if wrong and not missing:
        outcome.fail(len(updates), f"write-stream: summary vectors of nodes {wrong[:5]} "
                                   "differ from the per-origin write counts")
    for key, update in newest.items():
        for node, server in system.servers.items():
            entry = server.read(key)
            if entry is None or entry.timestamp != update.timestamp or entry.value != update.value:
                outcome.fail(1, f"write-stream: node {node} key {key} holds {entry!r}, "
                                f"newest write is {update.uid}")
                break


def _stream_fingerprint(run: dict) -> Dict[str, object]:
    system = run["system"]
    reach = run["reach"]
    return {
        "events": system.sim.events_executed,
        "messages": system.network.counters.messages_sent,
        "bytes": system.network.counters.bytes_sent,
        "writes": len(run["updates"]),
        "reach_sum": sum(r for r in reach if r is not None),
        "reach_max": max((r for r in reach if r is not None), default=None),
        "reach_digest": digest(reach),
    }


def stream_canary() -> Dict[str, object]:
    return _stream_fingerprint(_run_stream(stream_inputs(REFERENCE_SEED, 0, CANARY_WRITES)))


def run_write_stream(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    canary = _run_stream(stream_inputs(REFERENCE_SEED, 0, CANARY_WRITES))
    _check_stream(canary, outcome)
    _compare_fingerprint("write-stream", _stream_fingerprint(canary), len(canary["updates"]),
                         outcome)
    del canary
    setup_inputs = stream_inputs(seed, -1)
    setup = SetupSamples(lambda: time_call(lambda: _build_stream_system(setup_inputs)))

    def passes(limit_s: Optional[float], rounds: Optional[int], tracer=None,
               sample_setup: bool = False):
        # Only the streams are timed; each is checked (untimed) and its
        # system dropped, and the garbage collected, before the next one,
        # so every stream starts from the same heap and the peak RSS does
        # not grow with the number of streams a run fits in.
        runs = []
        wall = 0.0
        while (rounds is None and wall < limit_s) or (rounds is not None and len(runs) < rounds):
            gc.collect()
            run = _run_stream(stream_inputs(seed, len(runs)), tracer)
            wall += run["wall"]
            _check_stream(run, outcome)
            run["system"] = None
            runs.append(run)
            if sample_setup:
                setup.take(STREAM_SETUPS_BETWEEN)
        return runs, wall, sum(r["cpu"] for r in runs)

    if not trace:
        setup.take(STREAM_SETUPS_FIRST)
        runs, _, _ = passes(seconds, None, sample_setup=True)
        latencies = [x for r in runs for x in r["latencies"] if x is not None]
        outcome.metric("setup_s", setup.median(), "s")
        outcome.metric("ops_per_s", median([len(r["updates"]) / r["wall"] for r in runs]), "1/s")
        outcome.metric("replicated_p50_ms", median(latencies) * 1e3, "ms")
        outcome.metric("cpu_ms_per_op",
                       median([r["cpu"] * 1e3 / len(r["updates"]) for r in runs]), "ms")
        outcome.context["streams"] = len(runs)
        outcome.context["stream_wall_s"] = [round(r["wall"], 4) for r in runs]
        return outcome

    runs, _, cpu = passes(seconds / 2, None)
    tracer = Tracer()
    install_sim(tracer)
    install_protocol(tracer)
    tracer.wrap_item(TOPOLOGIES, "ba", "topology.build")
    try:
        traced, _, traced_cpu = passes(None, len(runs), tracer)
    finally:
        tracer.restore()
    writes = sum(len(r["updates"]) for r in runs)
    traced_writes = sum(len(r["updates"]) for r in traced)
    overhead = (traced_cpu / traced_writes) / (cpu / writes) * 100 - 100
    outcome.metrics.update(layer_metrics(tracer, overhead))
    outcome.context["spans"] = str(tracer.dump(OUT_DIR, f"spans-write-stream-{seed}"))
    return outcome
