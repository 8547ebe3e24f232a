"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a traced pass (spans
are written under ``.perfbench/``).  The last line of standard output
is the result object; the line before it, ``context {...}``, carries
host-noise readings that are not metrics.

``python3 perfbench/run.py --regen-fingerprints`` rewrites
``perfbench/fingerprints.json`` from the canary passes of the two
simulator workloads.  Regenerate it only for a change that is meant to
alter the simulated work, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-campaign", "write-stream", "live-queue", "live-tcp")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-fingerprints", action="store_true",
                        help="rewrite fingerprints.json from the canary passes and exit")
    args = parser.parse_args(argv)
    if not args.regen_fingerprints and args.workload is None:
        parser.error("--workload is required")
    return args


def _stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The tcp workload's clusters spawn one process per replica, and the
    ``spawn`` start method also starts multiprocessing's resource
    tracker, which would otherwise outlive this process by a moment and
    be left unreaped.  Replicas go first: the tracker only exits once
    every holder of its pipe has closed it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def _on_sigterm(signum, _frame) -> None:
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])

    from common import HostNoise, emit, own_peak_rss_mb, save_fingerprint
    import sims

    if args.regen_fingerprints:
        save_fingerprint("paper-campaign", sims.campaign_canary())
        save_fingerprint("write-stream", sims.stream_canary())
        print(f"wrote {HERE / 'fingerprints.json'}")
        return 0

    noise = HostNoise()
    trace = bool(args.trace)
    if args.workload == "paper-campaign":
        outcome = sims.run_paper_campaign(args.seed, seconds, trace)
    elif args.workload == "write-stream":
        outcome = sims.run_write_stream(args.seed, seconds, trace)
    else:
        import live

        outcome = live.run_live(args.workload, args.seed, seconds, trace)
    if not trace and "peak_rss_mb" not in outcome.metrics:
        outcome.metric("peak_rss_mb", own_peak_rss_mb(), "MB")
    outcome.context.update(noise.report(outcome.lateness))
    outcome.context.update(workload=args.workload, seed=args.seed, seconds=seconds,
                           trace=args.trace)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    emit(outcome, [(metric["name"], metric["unit"]) for metric in metrics])
    return 0


if __name__ == "__main__":
    sys.exit(main())
