"""The blpcheck benchmark.

    python3 perfbench/run.py --workload sweep|defects|monitor --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts one fresh child process
for the workload, so ``setup_s`` and ``peak_rss_mb`` belong to that run, and
then a few set-up-only children; ``setup_s`` is the median over all of them.
Children run one at a time.

Prints the environment, every metric by name with its unit, and as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Exits 1 when an output check fails and 2 when the run
cannot be made, printing no result then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("sweep", "defects", "monitor")
SETUP_PROBES = 6
DEADLINE_S = 170.0  # a run must end within 180 s


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _child(args, deadline: float, setup_only: bool) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.profile != "full":
        cmd += ["--profile", args.profile]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("error: the workload overran the run's time limit")
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's small sizes")
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")

    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    load_before = os.getloadavg()
    result = _child(args, deadline, setup_only=False)
    setups = [result["setup_s"]]
    for _ in range(SETUP_PROBES - 1):
        setups.append(_child(args, deadline, setup_only=True)["setup_s"])
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    env["rounds"] = result["rounds"]
    env["reference_s"] = result["ref_s"]
    env["wall_setup_s"] = result["wall_setup_s"]
    print("# env " + json.dumps(env))

    metrics = result["metrics"]
    units = result["units"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        units["setup_s"] = "s"
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}{result['moves'].get(name, '')}")
    for note in result["notes"]:
        print(f"# {note}")
    if not args.trace:
        attempted, failed = result["attempted"], result["failed"]
        print(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} calls)")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")

    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
