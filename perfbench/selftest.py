"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, that a corrupted
golden digest or a flipped verdict raises the failure count above 0, and
that the exact counts of the traced run repeat between two runs.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts that must repeat exactly: they depend only on the inputs.
EXACT = tuple(k for k in LAYER_METRICS
              if k.endswith(("_calls", ".calls", ".pairs", ".states", ".inputs"))
              or k in ("scenario.statements", "scenario.grants", "scenario.final_size"))


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: "
             f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_spec() -> None:
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if names != {k: v[0] for k, v in LAYER_METRICS.items()}:
        fail("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    if [w["name"] for w in SPEC["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_emitted_and_repeatable() -> None:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in workloads.WORKLOADS:
        plain = bench(name, 0)
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        if got != end_to_end or not plain["correct"] or plain["failed"]:
            fail(f"{name}: end-to-end result {plain}")
        first, second = bench(name, 1), bench(name, 1)
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        if got != per_layer or not first["correct"]:
            fail(f"{name}: traced metrics {sorted(got)}")
        for k in EXACT:
            a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
            if a != b:
                fail(f"{name}: exact count {k} differs between traced runs: {a} != {b}")
        print(f"ok   {name}: every metric emitted, {len(EXACT)} exact counts repeat")


def failures(wl_class, patch=None, golden=None) -> int:
    """Failed calls in one tiny round, with a fault injected."""
    wl = wl_class(workloads.TINY, 7, two_workers=False)
    if golden is not None:
        wl.golden = golden
    wl.prepare()
    run = workloads.Run()
    saved = []
    for owner, attr, fn in patch or ():
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)
    try:
        wl.round(run, 0)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return run.failed


def _flip_first(real):
    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        first = report.results[0]
        status = "pass" if first.status == "fail" else "fail"
        results = (dataclasses.replace(first, status=status, witness=None),)
        return dataclasses.replace(report, results=results + report.results[1:])
    return flipped


def check_faults_are_caught() -> None:
    import blpcheck.cli
    if failures(workloads.Sweep) or failures(workloads.Defects) \
            or failures(workloads.Monitor):
        fail("a clean tiny round reported failures")
    corrupt = {k: "0" * 64 for k in workloads.oracles.GOLDEN}
    for cls in (workloads.Sweep, workloads.Defects):
        if failures(cls, golden=corrupt) == 0:
            fail(f"{cls.name}: corrupted golden digest not caught")
    cli_flip = [(blpcheck.cli, "check_obligations", _flip_first(blpcheck.cli.check_obligations))]
    for cls in (workloads.Sweep, workloads.Monitor):
        if failures(cls, patch=cli_flip) == 0:
            fail(f"{cls.name}: flipped verdict not caught")
    search_flip = [(workloads, "check_obligations", _flip_first(workloads.check_obligations))]
    if failures(workloads.Defects, patch=search_flip) == 0:
        fail("defects: flipped verdict not caught")
    print("ok   corrupted digests and flipped verdicts raise the failure count")


if __name__ == "__main__":
    check_spec()
    check_faults_are_caught()
    check_emitted_and_repeatable()
    print("selftest passed")
