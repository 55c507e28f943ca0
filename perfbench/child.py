"""One run of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                               --t0 MONOTONIC [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import blpcheck`` and
building the program-side inputs.  The benchmark's own input generation and
oracles run after that.  Times are calibrated (see ``calibrate.py``).
Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--profile", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _import_program():
    """Import blpcheck from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import blpcheck
    except ImportError as e:
        raise SystemExit(f"error: cannot import blpcheck from {SRC}: {e}")
    where = Path(blpcheck.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"error: imported blpcheck from {where}, not from {SRC}")


def _rounds(wl, run, seconds: float, first_index: int = 0) -> list[dict]:
    """Repeat the workload's round until the next one would overrun."""
    rounds, spent = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(wl.round(run, first_index + len(rounds)))
        spent.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(spent) > seconds:
            return rounds


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def measure(wl, run, seconds: float) -> tuple[dict, int]:
    rounds = _rounds(wl, run, seconds)
    metrics = {"verdict_s": _median(rounds, "w1")}
    if wl.two_workers:
        metrics["verdict_w2_s"] = _median(rounds, "w2")
    return metrics, len(rounds)


def traced(wl, run, seconds: float, profile) -> tuple[dict, int]:
    import workloads
    from tracing import LAYER_METRICS, Tracer

    start = time.monotonic()
    rounds = [wl.round(run, 0)]
    round_s = time.monotonic() - start
    tracer = Tracer()
    run.tracer = tracer
    try:
        traced_s, layer = wl.traced_round(run, tracer)
    finally:
        run.tracer = None
    states_per_s = workloads.probe_enumeration(run, profile.sweep_bounds)
    left = seconds - (time.monotonic() - start)
    if left > round_s:
        rounds += _rounds(wl, run, left, first_index=1)
    metrics = dict.fromkeys(LAYER_METRICS, 0)  # layers a workload leaves unused read 0
    metrics.update(layer)
    metrics.update(wl.rates(layer, rounds))
    metrics["checker.enum.states_per_s"] = states_per_s
    metrics["trace.overhead"] = traced_s / _median(rounds, "w1")
    return metrics, len(rounds) + 1


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import workloads
    from calibrate import NOMINAL_REF_S, reference_s

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    profile = workloads.TINY if args.profile == "tiny" else workloads.FULL
    two_workers = len(os.sched_getaffinity(0)) >= 2
    wl = workloads.WORKLOADS[args.workload](profile, args.seed, two_workers)
    wall_setup_s = time.monotonic() - args.t0
    setup_s = wall_setup_s * NOMINAL_REF_S / reference_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare()
    run = workloads.Run()
    notes: list[str] = []
    if args.trace:
        from tracing import LAYER_METRICS, NOT_FROM_OUTSIDE
        metrics, rounds = traced(wl, run, args.seconds, profile)
        units = {k: v[0] for k, v in LAYER_METRICS.items()}
        moves = {k: f"  -> {v[2]}" for k, v in LAYER_METRICS.items()}
        notes += [f"not measured from outside: {n}" for n in NOT_FROM_OUTSIDE]
    else:
        metrics, rounds = measure(wl, run, args.seconds)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        units = {k: "s" for k in metrics}
        units["peak_rss_mb"] = "MB"
        moves = {}
        if not wl.two_workers:
            notes.append("verdict_w2_s not measured: fewer than 2 CPUs")
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "units": units,
        "moves": moves,
        "notes": notes,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:50],
        "rounds": rounds,
        "wall_setup_s": wall_setup_s,
        "ref_s": statistics.median(run.refs),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
