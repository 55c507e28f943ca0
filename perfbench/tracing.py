"""Per-layer tracing from outside the program.

The traced run measures the layers through what the package exposes:

* ``rules``: every conjunct ``holds`` and every ``effect`` of the RuleDefs
  handed to the checker through its public ``rule_defs=`` parameter;
* ``core``: the predicates, wrapped where the package looks them up -- the
  module attributes of ``blpcheck.core``, ``core.PROPERTY_FUNCS`` and
  ``scenario.SCENARIO_PROPS``;
* ``checker``, ``scenario`` and ``cli``: spans around the public calls the
  benchmark makes.

A span's self time is its duration minus the time spent inside wrapped rule
and core functions during it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

from blpcheck import core, scenario
from blpcheck.rules import RULE_ORDER

CORE_PREDS = ("sec_cond", "star_prop", "fo_functional", "fs_functional",
              "ran_br_in_dom_m", "ran_bw_in_dom_m", "well_formed")

# name -> (unit, better, the end-to-end metric it should move, and where)
LAYER_METRICS = {
    "checker.enum.states_per_s": (
        "1/s", "higher", "verdict_s on sweep and on defects (partition census)"),
    "checker.sweep.self_s": ("s", "lower", "verdict_s on sweep; no change on monitor"),
    "checker.sweep.pairs": ("count", "lower", "verdict_s on sweep"),
    "checker.sweep.pairs_per_s": ("1/s", "higher", "verdict_s on sweep"),
    "checker.sweep.w2_speedup": ("ratio", "higher", "verdict_w2_s on sweep"),
    "checker.search.s": ("s", "lower", "verdict_s on defects"),
    "checker.search.states": ("count", "lower", "verdict_s on defects"),
    "checker.partition.s": ("s", "lower", "verdict_s on defects"),
    "checker.partition.inputs": ("count", "lower", "verdict_s on defects"),
    "checker.random.self_s": ("s", "lower", "verdict_s on monitor"),
    "checker.random.samples_per_s": ("1/s", "higher", "verdict_s on monitor"),
    "rules.guard_calls": ("count", "lower", "verdict_s on sweep (most), defects, monitor"),
    "rules.guard_s": ("s", "lower", "verdict_s on sweep (most), defects, monitor"),
    "rules.effect_calls": ("count", "lower", "verdict_s on sweep (most), defects, monitor"),
    "rules.effect_s": ("s", "lower", "verdict_s on sweep (most), defects, monitor"),
    **{f"rules.{r}.{kind}_calls": ("count", "lower", "verdict_s on sweep (most), defects")
       for r in RULE_ORDER for kind in ("guard", "effect")},
    "rules.grant_ratio": ("ratio", "higher", "verdict_s on sweep"),
    "rules.guards_per_pair": ("ratio", "lower", "verdict_s on sweep"),
    **{f"core.{p}.calls": ("count", "lower", "verdict_s on sweep; no change on monitor")
       for p in CORE_PREDS},
    "core.pred_s": ("s", "lower", "verdict_s on sweep; no change on monitor"),
    "scenario.parse_s": ("s", "lower", "verdict_s on monitor"),
    "scenario.run_s": ("s", "lower", "verdict_s on monitor"),
    "scenario.statements": ("count", "higher", "verdict_s on monitor (input size)"),
    "scenario.grants": ("count", "higher", "verdict_s on monitor (state density)"),
    "scenario.final_size": ("count", "higher", "verdict_s on monitor (state density)"),
    "cli.format_s": ("s", "lower", "verdict_s on every workload"),
    "trace.overhead": ("ratio", "lower", "none: traced over untraced verdict_s"),
}

NOT_FROM_OUTSIDE = (
    "rules.* leave out check_partition, which takes no rule_defs and reads the "
    "rules module's own table",
    "rules.* leave out run_scenario, which dispatches through the rules "
    "module's own table",
)


class Tracer:
    """Counters and span times for one traced round."""

    def __init__(self) -> None:
        self.child = 0.0  # time inside wrapped rule/core functions
        self.spans: dict[str, list[float]] = {}  # name -> [total_s, child_s]
        self.rules = {r: [0, 0.0, 0, 0.0] for r in RULE_ORDER}  # guard n, s, effect n, s
        self.core_calls = {p: [0] for p in CORE_PREDS}
        self.core_s = 0.0
        self._depth = 0
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        child0 = self.child
        t0 = time.perf_counter()
        try:
            yield
        finally:
            slot = self.spans.setdefault(name, [0.0, 0.0])
            slot[0] += time.perf_counter() - t0
            slot[1] += self.child - child0

    def total(self, name: str) -> float:
        return self.spans.get(name, [0.0, 0.0])[0]

    def self_time(self, name: str) -> float:
        total, child = self.spans.get(name, [0.0, 0.0])
        return total - child

    # -- rules, through rule_defs= ------------------------------------------

    def _timed(self, fn, cell, at: int):
        clock = time.perf_counter
        tracer = self

        def wrapper(st, req):
            t = clock()
            out = fn(st, req)
            dt = clock() - t
            cell[at] += 1
            cell[at + 1] += dt
            tracer.child += dt
            return out
        return wrapper

    def instrument(self, rd):
        """A copy of RuleDef ``rd`` whose conjuncts and effect are counted."""
        cell = self.rules[rd.name]
        conjuncts = tuple(replace(c, holds=self._timed(c.holds, cell, 0))
                          for c in rd.conjuncts)
        return replace(rd, conjuncts=conjuncts, effect=self._timed(rd.effect, cell, 2))

    # -- core, where the package looks the predicates up ---------------------

    def _counted(self, name: str, fn):
        cell = self.core_calls[name]
        clock = time.perf_counter
        tracer = self

        def wrapper(st):
            cell[0] += 1
            if tracer._depth:  # nested (well_formed calls ran_*_in_dom_m)
                return fn(st)
            tracer._depth = 1
            t = clock()
            try:
                return fn(st)
            finally:
                dt = clock() - t
                tracer._depth = 0
                tracer.core_s += dt
                tracer.child += dt
        return wrapper

    def install(self) -> None:
        wrapped = {p: self._counted(p, getattr(core, p)) for p in CORE_PREDS}
        by_func = {getattr(core, p): w for p, w in wrapped.items()}
        self._saved = [(core, p, getattr(core, p)) for p in CORE_PREDS]
        for table in (core.PROPERTY_FUNCS, scenario.SCENARIO_PROPS):
            self._saved += [(table, k, f) for k, f in table.items()]
        for p, w in wrapped.items():
            setattr(core, p, w)
        for table in (core.PROPERTY_FUNCS, scenario.SCENARIO_PROPS):
            for k, f in table.items():
                table[k] = by_func.get(f, f)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._saved = []

    @contextmanager
    def paused(self):
        """Unwrap while the benchmark checks outputs, so checks never count."""
        if not self._saved:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, decided_pairs: int) -> dict[str, float]:
        guards = sum(c[0] for c in self.rules.values())
        effects = sum(c[2] for c in self.rules.values())
        out = {
            "rules.guard_calls": guards,
            "rules.guard_s": sum(c[1] for c in self.rules.values()),
            "rules.effect_calls": effects,
            "rules.effect_s": sum(c[3] for c in self.rules.values()),
            "rules.grant_ratio": effects / decided_pairs if decided_pairs else 0.0,
            "rules.guards_per_pair": guards / decided_pairs if decided_pairs else 0.0,
            "core.pred_s": self.core_s,
            "cli.format_s": self.total("cli.format"),
        }
        for r, c in self.rules.items():
            out[f"rules.{r}.guard_calls"] = c[0]
            out[f"rules.{r}.effect_calls"] = c[2]
        for p, c in self.core_calls.items():
            out[f"core.{p}.calls"] = c[0]
        return out
