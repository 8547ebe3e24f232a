"""Reference figures that are reported, not gated.

Run from the repository root::

    python3 perfbench/reference.py            # everything (a few minutes)
    python3 perfbench/reference.py --only knee

* ``knee`` — the live rate ladder: latency and achieved rate at fixed
  offered rates on both transports, and the highest rate whose p99
  stays under the limit with no backlog left at the end.
* ``pool`` — paper-campaign throughput on ``ProcessPoolBackend`` with
  one worker per core, against the serial backend on the same grid.
* ``macro`` — the n=10^4 single-write macro: set-up seconds, events/s,
  wall time to the hot set (top 10% demand) and to every replica.

These were gated rows of an earlier draft and did not repeat within a
tenth; see the README.  Results go to stdout and to
``.perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Offered puts/s per rung; each rung runs on a fresh cluster.
LADDER = {"live-queue": (250, 500, 1000, 1500, 2000, 3000),
          "live-tcp": (100, 200, 400, 600, 800, 1200)}
RUNG_SECONDS = 5.0
#: The knee is the highest rung whose replicated p99 is within this limit.
P99_LIMIT_MS = 500.0
POOL_REPS = 8
MACRO_NODES = 10_000


def knee() -> dict:
    import live
    from common import percentile

    out = {}
    for workload, rates in LADDER.items():
        rungs = []
        for rate in rates:
            inputs = live.cluster_inputs(1, workload, RUNG_SECONDS, rate=float(rate))
            cluster = live.boot(workload, inputs, len(inputs["puts"]) + 16)
            try:
                run = live.drive(cluster, inputs, float(rate))
                hot = live.hot_set_latencies(cluster, run)
            finally:
                cluster.close()
            done = sorted(x for x in run["latencies"] if x is not None)
            late = sorted(run["lateness"])
            rung = {
                "offered_per_s": rate,
                "replicated_per_s": len(done) / run["window"],
                "lost": len(run["records"]) - len(done),
                "p50_ms": percentile(done, 0.5) * 1e3,
                "p99_ms": percentile(done, 0.99) * 1e3,
                "hot_p50_ms": percentile(sorted(hot), 0.5) * 1e3,
                "generator_late_p99_ms": percentile(late, 0.99) * 1e3,
                "cpu_ms_per_put": run["cpu"] * 1e3 / max(1, len(done)),
            }
            rungs.append(rung)
            print(workload, json.dumps({k: round(v, 2) for k, v in rung.items()}), flush=True)
        within = [r["offered_per_s"] for r in rungs
                  if r["p99_ms"] <= P99_LIMIT_MS and r["lost"] == 0
                  and r["replicated_per_s"] >= 0.95 * r["offered_per_s"]]
        out[workload] = {"rungs": rungs, "knee_per_s": max(within) if within else None,
                         "p99_limit_ms": P99_LIMIT_MS}
    return out


def pool() -> dict:
    from repro.experiments.backends import ProcessPoolBackend, SerialBackend
    from repro.experiments.campaign import Campaign
    from repro.experiments.figures import figure_cdf_plan

    campaign = Campaign("paper-campaign-pooled", {
        "fig5": figure_cdf_plan(50, reps=POOL_REPS, seed=11),
        "fig6": figure_cdf_plan(100, reps=POOL_REPS, seed=12),
    })
    trials = campaign.total_trials()
    out = {"trials": trials, "workers": os.cpu_count()}
    for name, backend in (("serial", SerialBackend()),
                          ("pooled", ProcessPoolBackend(max_workers=os.cpu_count()))):
        with backend:
            start = time.perf_counter()
            campaign.run(backend)
            out[f"{name}_trials_per_s"] = trials / (time.perf_counter() - start)
    print("pool", json.dumps(out), flush=True)
    return out


def macro() -> dict:
    from repro.core.system import ReplicationSystem
    from repro.core.variants import fast_consistency
    from repro.demand.static import UniformRandomDemand
    from repro.topology.brite import internet_like

    start = time.perf_counter()
    topology = internet_like(MACRO_NODES, seed=3)
    demand = UniformRandomDemand(seed=3)
    system = ReplicationSystem(topology, demand, fast_consistency(), seed=5)
    system.sim.trace.disable()
    system.start()
    setup = time.perf_counter() - start
    hot = set(demand.top_fraction(list(topology.nodes), 0.1))
    update = system.inject_write(0)
    start = time.perf_counter()
    hot_wall = None
    step = 0.1
    until = 0.0
    while not system.all_have(update.uid):
        until += step
        system.run_until(until)
        if hot_wall is None and hot <= system.nodes_with(update.uid):
            hot_wall = time.perf_counter() - start
    wall = time.perf_counter() - start
    out = {
        "nodes": MACRO_NODES,
        "setup_s": setup,
        "events_per_s": system.sim.events_executed / wall,
        "hot_set_wall_s": hot_wall,
        "all_wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("macro", json.dumps(out), flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=("knee", "pool", "macro"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    results = {}
    for name, fn in (("knee", knee), ("pool", pool), ("macro", macro)):
        if args.only in (None, name):
            results[name] = fn()
    out = ROOT / ".perfbench" / "reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
