"""The three workloads: what they call, what they check, what they report.

Every call into ``blpcheck`` goes through ``Run.call``, which times it and
counts it; each call whose output fails a check counts once in ``failed``.
Timings come only from these calls, never from the reports.

A round is one pass over a workload's calls.  ``round`` returns the
round's verdict time with one worker (``w1``) and with two (``w2``): calls
that take a worker count run once with each, and calls that take none count
towards both.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from typing import NamedTuple, Optional

import oracles
import walk
from blpcheck import (
    Bounds, P0, SecurityClass, check_obligations, check_partition,
    enumerate_states, format_report, make_state, parse_scenario, run_scenario,
)
from blpcheck.cli import main as cli_main
from blpcheck.rules import RULE_DEFS, RULE_ORDER, without_conjunct
from calibrate import NOMINAL_REF_S, reference_s
from tracing import Tracer

# The reference is re-timed before a call when older than this, and after
# any call at least this long.
REF_EVERY_S = 0.25

# The all-pass sweep runs at a chain-lattice profile: P0's two subjects, two
# objects, two levels and its br/bw caps of 2, with at most 2 grants and no
# category.  P0 itself takes minutes; any 4-class lattice with a matrix of 2
# grants takes about 20 s, too long to repeat within one run.
SWEEP_BOUNDS = Bounds(2, 2, 2, 0, 2, 2, 2)

# Fail-fast mutant searches at P0: (rule, dropped conjunct, broken invariant).
MUTANTS = (
    ("getRead", "hasReadPermission", "ranBrInDomM"),
    ("getRead", "clearanceDominates", "seccond"),
    ("getRead", "readBelowWrites", "starprop"),
    ("getWrite", "hasWritePermission", "ranBwInDomM"),
    ("getWrite", "readsBelowObject", "starprop"),
    ("rescindRead", "rescinderHasCtrl", "ranBrInDomM"),
    ("rescindWrite", "rescinderHasCtrl", "ranBwInDomM"),
    ("changeClass", "objectUnaccessed", "starprop"),
    ("changeClass", "objectUnaccessed", "seccond"),
    ("createObject", "objectFresh", "foFunctional"),
    ("deleteObject", "objectUnaccessed", "ranBrInDomM"),
)
PARTITIONS = tuple((r, "fixed") for r in RULE_ORDER) + (("giveRW", "paperFaithful"),)


class Profile(NamedTuple):
    sweep_bounds: Bounds
    defect_bounds: Bounds
    mutants: tuple
    partitions: tuple
    samples: int          # random-mode samples per obligation
    walk_commands: int


FULL = Profile(SWEEP_BOUNDS, P0, MUTANTS, PARTITIONS, 2000, 50_000)
# Small enough for the self-test; the defects entries are the fast ones.
TINY = Profile(Bounds(2, 1, 2, 0, 1, 1, 2), P0, MUTANTS[1:2] + MUTANTS[6:7],
               (("releaseRead", "fixed"), ("giveRW", "paperFaithful")), 20, 300)


class Run:
    """Public calls made and output checks failed in one benchmark run."""

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None  # set during the traced round
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: list[float] = []  # reference_s() samples, in order
        self._ref_at = float("-inf")

    def _reference(self, force: bool = False) -> float:
        """The latest reference time, re-timed if older than REF_EVERY_S."""
        if force or time.monotonic() - self._ref_at >= REF_EVERY_S:
            self.refs.append(reference_s())
            self._ref_at = time.monotonic()
        return self.refs[-1]

    def call(self, label: str, fn, *args, span: Optional[str] = None,
             check=None, **kwargs):
        """Time ``fn(*args, **kwargs)``; run ``check(result)`` outside the
        timed region.  Returns (result or None, calibrated seconds)."""
        self.attempted += 1
        ref = self._reference()
        traced = self.tracer is not None and span is not None
        cm = self.tracer.span(span) if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with cm:
                result = fn(*args, **kwargs)
        except Exception as e:  # a failing call is a failed output, not a crash
            self.failed += 1
            self.problems.append(f"{label}: raised {type(e).__name__}: {e}")
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if dt >= REF_EVERY_S:  # the machine may have changed speed meanwhile
            ref = (ref + self._reference(force=True)) / 2
        dt *= NOMINAL_REF_S / ref
        paused = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with paused:
            try:
                problems = list(check(result)) if check else []
            except Exception as e:  # output the checks cannot even read
                problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return result, dt


def cli(argv: list[str]) -> tuple[int, str]:
    """``blpcheck.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def bounds_argv(b: Bounds) -> list[str]:
    return ["--subjects", str(b.num_subjects), "--objects", str(b.num_objects),
            "--levels", str(b.num_levels), "--categories", str(b.num_categories),
            "--max-br", str(b.max_br), "--max-bw", str(b.max_bw),
            "--max-matrix", str(b.max_matrix)]


def requests_per_rule(b: Bounds) -> dict[str, int]:
    """Requests per rule, counted from the bounds (not from the checker)."""
    S, O, K = b.num_subjects, b.num_objects, b.num_levels << b.num_categories
    return {"getRead": S * O, "getWrite": S * O, "releaseRead": S * O,
            "releaseWrite": S * O, "giveRW": S * S * O * 3, "rescindRead": S * S * O,
            "rescindWrite": S * S * O, "changeClass": O * K,
            "createObject": S * O * K, "deleteObject": S * O}


def obligation_rows(text: str) -> list[list[str]]:
    return [ln.split("\t") for ln in text.splitlines()
            if ln.split("\t", 1)[0] in RULE_ORDER]


def decided_pairs(report) -> int:
    """Distinct (state, request) pairs the rule layer decided for a report.

    Exhaustive obligations of one rule share their pairs; random-mode
    obligations each draw their own.
    """
    if report.mode == "random":
        return sum(r.requests_checked for r in report.results)
    per_rule: dict[str, int] = {}
    for r in report.results:
        per_rule[r.rule] = max(per_rule.get(r.rule, 0), r.requests_checked)
    return sum(per_rule.values())


class Workload:
    name = ""

    def __init__(self, profile: Profile, seed: int, two_workers: bool) -> None:
        self.profile = profile
        self.seed = seed
        self.two_workers = two_workers
        self.golden = oracles.GOLDEN

    def prepare(self) -> None:
        """Benchmark-side inputs and oracles; runs after set-up is timed."""

    def round(self, run: Run, index: int) -> dict[str, float]:
        raise NotImplementedError

    def traced_round(self, run: Run, tracer: Tracer) -> tuple[float, dict]:
        """One round with tracing on: (its verdict time, layer metrics)."""
        raise NotImplementedError

    def rates(self, layer: dict, rounds: list[dict]) -> dict:
        """Throughputs from the traced round's counts and the untraced
        rounds' call times."""
        return {}

    def _expect_digest(self, key: str, text: str) -> list[str]:
        want = self.golden.get(key)
        if want is None:
            return [f"no golden digest for {key}"]
        got = oracles.digest(text)
        return [] if got == want else [f"report digest {got[:12]} != golden {want[:12]}"]

    def _worker_order(self, index: int) -> list[int]:
        if not self.two_workers:
            return [1]
        return [1, 2] if (index + self.seed) % 2 == 0 else [2, 1]


class Sweep(Workload):
    """All 60 obligations, exhaustive, through ``check --format machine``."""

    name = "sweep"

    def __init__(self, profile, seed, two_workers):
        super().__init__(profile, seed, two_workers)
        b = profile.sweep_bounds
        self.bounds = b
        self.argv = {w: ["check", *bounds_argv(b), "--format", "machine",
                         "--workers", str(w)] for w in (1, 2)}
        self.key = "sweep:" + ",".join(map(str, b))

    def prepare(self):
        _well_formed, self.census = oracles.census(self.bounds)
        self.n_req = requests_per_rule(self.bounds)
        self.first_text: Optional[str] = None

    def _check(self, result) -> list[str]:
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += self._expect_digest(self.key, text)
        rows = obligation_rows(text)
        if len(rows) != 60:
            problems.append(f"{len(rows)} verdict rows, expected 60")
        for rule, prop, status, states, reqs, _ms in rows:
            if status != "pass":
                problems.append(f"{rule}/{prop} {status}")
            if int(states) != self.census:
                problems.append(f"{rule}/{prop} states {states} != census {self.census}")
            if int(reqs) != self.census * self.n_req[rule]:
                problems.append(f"{rule}/{prop} requests {reqs} wrong")
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            problems.append("report differs between worker counts or rounds")
        return problems

    def round(self, run, index):
        times = {}
        for w in self._worker_order(index):
            _res, times[f"w{w}"] = run.call(f"check --workers {w}", cli, self.argv[w],
                                            check=self._check)
        return times

    def traced_round(self, run, tracer):
        defs = {r: tracer.instrument(RULE_DEFS[r]) for r in RULE_ORDER}
        with tracer.installed():
            report, t_check = run.call("traced check_obligations", check_obligations,
                                       self.bounds, rule_defs=defs, span="checker.sweep")
            text, t_fmt = run.call("traced format_report", format_report, report,
                                   "machine", span="cli.format",
                                   check=lambda t: self._check((0, t)))
        pairs = sum(r.requests_checked for r in report.results) if report else 0
        metrics = {
            "checker.sweep.self_s": tracer.self_time("checker.sweep"),
            "checker.sweep.pairs": pairs,
            **tracer.layer_metrics(decided_pairs(report) if report else 0),
        }
        return t_check + t_fmt, metrics

    def rates(self, layer, rounds):
        w1 = statistics.median(r["w1"] for r in rounds)
        out = {"checker.sweep.pairs_per_s": layer["checker.sweep.pairs"] / w1}
        if self.two_workers:
            out["checker.sweep.w2_speedup"] = w1 / statistics.median(r["w2"] for r in rounds)
        return out


class Defects(Workload):
    """Inputs whose answer is a witness: mutant searches and partitions."""

    name = "defects"

    def __init__(self, profile, seed, two_workers):
        super().__init__(profile, seed, two_workers)
        self.bounds = profile.defect_bounds
        self.mutants = {(r, c, p): without_conjunct(RULE_DEFS[r], c)
                        for r, c, p in profile.mutants}
        calls = [("search", m) for m in profile.mutants]
        calls += [("partition", p) for p in profile.partitions]
        random.Random(f"defects:{seed}").shuffle(calls)
        self.calls = calls

    def _search(self, run, key, defs=None):
        rule, conj, prop = key
        rd = self.mutants[key]
        report, t1 = run.call(f"search {rule}-{conj}", check_obligations, self.bounds,
                              rule=rule, prop=prop, rule_defs={rule: defs or rd},
                              span="checker.search")
        if report is None:
            return None, t1, 0.0

        def check(text):
            problems = self._expect_digest(f"search:{rule}:{conj}:{prop}", text)
            rows = obligation_rows(text)
            if len(rows) != 1 or rows[0][2] != "fail":
                problems.append("expected exactly one failing verdict")
            return problems + oracles.recheck_witness(text, rd, prop)
        _text, t2 = run.call(f"format search {rule}-{conj}", format_report, report,
                             "machine", span="cli.format", check=check)
        return report, t1, t2

    def _partition(self, run, key):
        rule, variant = key
        report, t1 = run.call(f"partition {rule}:{variant}", check_partition, rule,
                              variant, self.bounds, span="checker.partition")
        if report is None:
            return None, t1, 0.0

        def check(text):
            problems = self._expect_digest(f"partition:{rule}:{variant}", text)
            want_ok = variant == "fixed"
            if report.ok != want_ok:
                problems.append(f"partition ok={report.ok}, expected {want_ok}")
            if not want_ok:
                problems += oracles.recheck_gap(text)
            return problems
        _text, t2 = run.call(f"format partition {rule}:{variant}", format_report,
                             report, "machine", span="cli.format", check=check)
        return report, t1, t2

    def round(self, run, index):
        total = 0.0
        for kind, key in self.calls:
            fn = self._search if kind == "search" else self._partition
            _report, t1, t2 = fn(run, key)
            total += t1 + t2
        return {"w1": total, "w2": total}  # no call here takes a worker count

    def traced_round(self, run, tracer):
        total = 0.0
        states = inputs = pairs = 0
        with tracer.installed():
            for kind, key in self.calls:
                if kind == "search":
                    defs = tracer.instrument(self.mutants[key])
                    report, t1, t2 = self._search(run, key, defs)
                    if report:
                        states += sum(r.states_checked for r in report.results)
                        pairs += decided_pairs(report)
                else:
                    report, t1, t2 = self._partition(run, key)
                    if report:
                        inputs += report.states_checked
                total += t1 + t2
        metrics = {
            "checker.search.s": tracer.total("checker.search"),
            "checker.search.states": states,
            "checker.partition.s": tracer.total("checker.partition"),
            "checker.partition.inputs": inputs,
            **tracer.layer_metrics(pairs),
        }
        return total, metrics


class Monitor(Workload):
    """The reference monitor one request at a time: random mode and a walk."""

    name = "monitor"

    def __init__(self, profile, seed, two_workers):
        super().__init__(profile, seed, two_workers)
        self.argv = {w: ["check", "--mode", "random", "--samples", str(profile.samples),
                         "--seed", str(seed), "--format", "machine",
                         "--workers", str(w)] for w in (1, 2)}

    def prepare(self):
        self.walk = walk.generate(self.seed, self.profile.walk_commands)
        f = self.walk.final
        self.walk_final = make_state(
            br=f.br, bw=f.bw, m=f.m,
            fo={o: SecurityClass(*k) for o, k in f.fo.items()},
            fs={s: SecurityClass(*k) for s, k in f.fs.items()})
        self.random_text: Optional[str] = None
        self.trace_text: Optional[str] = None

    def _check_random(self, result) -> list[str]:
        code, text = result
        n = str(self.profile.samples)
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = obligation_rows(text)
        if len(rows) != 60:
            problems.append(f"{len(rows)} verdict rows, expected 60")
        for rule, prop, status, states, reqs, _ms in rows:
            if status != "pass":
                problems.append(f"{rule}/{prop} {status}")
            if states != n or reqs != n:
                problems.append(f"{rule}/{prop} checked {states}/{reqs}, expected {n}")
        if self.random_text is None:
            self.random_text = text
        elif text != self.random_text:
            problems.append("random report differs between runs of one seed")
        return problems

    def _check_trace(self, trace) -> list[str]:
        w = self.walk
        problems = []
        if not trace.all_expectations_met:
            problems.append(f"walk failed at statement {trace.failed_at + 1}")
        if len(trace.entries) != w.statements:
            problems.append(f"{len(trace.entries)} trace entries, expected {w.statements}")
        got = [e.outcome.decision == "yes" for e in trace.entries if e.kind == "command"]
        if got != w.decisions:
            bad = next((i for i, (a, b) in enumerate(zip(got, w.decisions)) if a != b),
                       min(len(got), len(w.decisions)))
            problems.append(f"decision of command {bad + 1} differs from the model")
        if trace.final_state != self.walk_final:
            problems.append("final state differs from the model")
        return problems

    def _check_trace_text(self, text) -> list[str]:
        if self.trace_text is None:
            self.trace_text = text
            return []
        return [] if text == self.trace_text else ["walk trace text differs between rounds"]

    def _walk(self, run):
        script, t1 = run.call("parse_scenario", parse_scenario, self.walk.text,
                              span="scenario.parse",
                              check=lambda s: [] if len(s.statements) == self.walk.statements
                              else ["statement count differs from the walk"])
        if script is None:
            return None, t1
        trace, t2 = run.call("run_scenario", run_scenario, script,
                             span="scenario.run", check=self._check_trace)
        if trace is None:
            return None, t1 + t2
        _text, t3 = run.call("format trace", format_report, trace, "machine",
                             span="cli.format", check=self._check_trace_text)
        return trace, t1 + t2 + t3

    def round(self, run, index):
        times = {}
        for w in self._worker_order(index):
            _res, times[f"w{w}"] = run.call(f"check --mode random --workers {w}", cli,
                                            self.argv[w], check=self._check_random)
        _trace, t_walk = self._walk(run)
        out = {k: v + t_walk for k, v in times.items()}
        out["random"] = times["w1"]
        return out

    def traced_round(self, run, tracer):
        defs = {r: tracer.instrument(RULE_DEFS[r]) for r in RULE_ORDER}
        with tracer.installed():
            report, t1 = run.call("traced random check_obligations", check_obligations,
                                  mode="random", samples=self.profile.samples,
                                  seed=self.seed, rule_defs=defs, span="checker.random")
            _text, t2 = run.call("traced format_report", format_report, report, "machine",
                                 span="cli.format",
                                 check=lambda t: self._check_random((0, t)))
            trace, t3 = self._walk(run)
        final = trace.final_state if trace else None
        metrics = {
            "checker.random.self_s": tracer.self_time("checker.random"),
            "scenario.parse_s": tracer.total("scenario.parse"),
            "scenario.run_s": tracer.total("scenario.run"),
            "scenario.statements": self.walk.statements,
            "scenario.grants": sum(1 for e in trace.entries if e.kind == "command"
                                   and e.outcome.decision == "yes") if trace else 0,
            "scenario.final_size": sum(map(len, final)) if final else 0,
            **tracer.layer_metrics(decided_pairs(report) if report else 0),
        }
        return t1 + t2 + t3, metrics

    def rates(self, layer, rounds):
        samples = 60 * self.profile.samples
        return {"checker.random.samples_per_s":
                samples / statistics.median(r["random"] for r in rounds)}


WORKLOADS = {w.name: w for w in (Sweep, Defects, Monitor)}


def probe_enumeration(run: Run, b: Bounds) -> float:
    """States per second of ``enumerate_states`` at ``b``, count checked."""
    want, _hyp = oracles.census(b)
    n, dt = run.call("enumerate_states", lambda: sum(1 for _ in enumerate_states(b)),
                     check=lambda n: [] if n == want else [f"{n} states != census {want}"])
    return (n or 0) / dt
