"""Steadiness check: run every workload repeatedly, interleaved, and
report each end-to-end metric's median and spread against its bound.

Run from the repository root::

    python3 perfbench/steady.py --runs 10

Run ``i`` of every workload uses seed ``--first-seed + i``; the workloads
take turns (run 1 of each, then run 2 of each, ...) so slow drift on the
host spreads over all of them.  The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median; a metric passes when its spread is within its
bound and is called steady when it is below a third of it.  ``setup_s``
is reported but not held to its bound, which limits only how far its
median may move.  Every run's result line is kept in
``.perfbench/steady-<stamp>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = lines[-2][len("context "):] if len(lines) > 1 else "{}"
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed,
            "result": result, "context": json.loads(context)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    runs = {w: [] for w in args.workloads}
    with open(log, "w", encoding="utf-8") as handle:
        for index in range(args.runs):
            for workload in args.workloads:
                record = _run(workload, args.first_seed + index, args.seconds)
                handle.write(json.dumps(record) + "\n")
                handle.flush()
                runs[workload].append(record)
                result = record["result"]
                print(f"{workload:15s} seed {record['seed']:3d} {record['elapsed_s']:6.1f}s "
                      f"failed {result['failed']}/{result['attempted']} " + " ".join(
                          f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)

    worst = 0.0
    print(f"\n{'workload':15s} {'metric':18s} {'median':>12s} {'IQR/med':>8s} {'bound':>6s}")
    for workload, records in runs.items():
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in records}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in records]
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / mid if mid else float("inf")
            else:
                spread = 0.0
            held = metric["name"] == "setup_s"
            verdict = ("setup" if held else "steady" if spread < metric["bound"] / 3
                       else "ok" if spread <= metric["bound"] else "WIDE")
            if not held:
                worst = max(worst, spread / metric["bound"])
            print(f"{workload:15s} {metric['name']:18s} {mid:12.5g} {spread:8.2%} "
                  f"{metric['bound']:6.0%}  {verdict}")
        print(f"{workload:15s} failed share per run: {sorted(shares)}")
    print(f"\nworst spread / bound: {worst:.2f}   (log: {log})")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
