"""The bounded checker: enumeration against an unpruned oracle, obligation
verdicts against a naive sweep, partition analysis against a naive guard
walk, mutation sensitivity, seeded reproducibility and worker parity."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import math
import os
import time
import types
import weakref

import pytest

from blpcheck import (
    Bounds,
    SystemState,
    check_obligations,
    class_leq,
    check_partition,
    enumerate_requests,
    enumerate_states,
    format_report,
    make_state,
    sec_class,
    sec_cond,
    star_prop,
    strict_star_prop,
    well_formed,
)
from blpcheck import checker
from blpcheck.checker import (
    MAX_LIST,
    MODE_RANDOM,
    P0,
    _pool_size,
    _sweep_tasks,
    _Universe,
    requests_for_rule,
)
from blpcheck.core import MATRIX_MODES, PROPERTY_FUNCS, PROPERTY_ORDER, PROPERTY_READS
from blpcheck.rules import (
    RULE_DEFS,
    RULE_ORDER,
    Conjunct,
    apply_def,
    rule_clauses,
    without_conjunct,
)
from blpcheck.scenario import format_state

from conftest import rename_state

TINY = Bounds(1, 1, 1, 0, 1, 1, 1)
SMALL = Bounds(1, 2, 2, 0, 2, 2, 2)

# Regression values pinned from the unpruned generate-and-filter oracle
# below (test_enumeration_matches_oracle recomputes them).
TINY_STATES = 52
SMALL_STATES = 5211
TINY_REQUESTS = 12
SMALL_REQUESTS = 28


# --- independent oracles -----------------------------------------------------

def oracle_states(b: Bounds) -> set:
    """Unpruned oracle: raw product over all components, filtered by the
    public well-formedness predicate.  Independent of the layered generator."""
    subjects = [f"s{i + 1}" for i in range(b.num_subjects)]
    objects = [f"o{i + 1}" for i in range(b.num_objects)]
    cats = [f"k{i + 1}" for i in range(b.num_categories)]
    catsets = [
        frozenset(c)
        for size in range(b.num_categories + 1)
        for c in itertools.combinations(cats, size)
    ]
    cls = [sec_class(lvl, c) for lvl in range(b.num_levels) for c in catsets]

    def class_maps(entities):
        for vec in itertools.product([None] + cls, repeat=len(entities)):
            yield {e: v for e, v in zip(entities, vec) if v is not None}

    triples = [(o, s, x) for o in objects for s in subjects for x in MATRIX_MODES]
    pairs = [(s, o) for s in subjects for o in objects]

    def subsets(items, cap):
        for size in range(min(cap, len(items)) + 1):
            yield from itertools.combinations(items, size)

    found = set()
    for fs in class_maps(subjects):
        for fo in class_maps(objects):
            for m in subsets(triples, b.max_matrix):
                for br in subsets(pairs, b.max_br):
                    for bw in subsets(pairs, b.max_bw):
                        st = make_state(br=br, bw=bw, fo=fo, fs=fs, m=m)
                        if well_formed(st):
                            found.add(st)
    return found


def oracle_request_count(b: Bounds) -> int:
    """Direct combinatorial census of the request space."""
    ncls = b.num_levels * (2 ** b.num_categories)
    ns, no = b.num_subjects, b.num_objects
    return (
        4 * ns * no            # get/release read/write
        + ns * ns * no * 3     # giveRW over three matrix modes
        + 2 * ns * ns * no     # rescind read/write
        + no * ncls            # changeClass
        + ns * no * ncls       # createObject
        + ns * no              # deleteObject
    )


@pytest.mark.parametrize(
    "bounds,count", [(TINY, TINY_STATES), (SMALL, SMALL_STATES)]
)
def test_enumeration_matches_oracle(bounds, count):
    got = list(enumerate_states(bounds))
    assert len(got) == len(set(got)) == count  # exactly once each
    oracle = oracle_states(bounds)
    assert set(got) == oracle
    # same comparison over canonical serializations
    assert {format_state(s) for s in got} == {format_state(s) for s in oracle}


def test_enumerated_states_are_well_formed():
    assert all(well_formed(s) for s in enumerate_states(SMALL))


def test_zero_bounds_single_empty_state():
    states = list(enumerate_states(Bounds(0, 0, 1, 0, 1, 1, 1)))
    assert states == [make_state()]
    assert enumerate_requests(Bounds(0, 0, 1, 0, 1, 1, 1)) == ()


@pytest.mark.parametrize(
    "bounds,count", [(TINY, TINY_REQUESTS), (SMALL, SMALL_REQUESTS)]
)
def test_request_census(bounds, count):
    reqs = enumerate_requests(bounds)
    assert len(reqs) == len(set(reqs)) == count == oracle_request_count(bounds)


def test_requests_cover_give_ctrl():
    # clause E1 of giveRW is only exercised if non-givable modes appear
    assert any(
        getattr(r, "x", None) == "ctrl" for r in enumerate_requests(TINY)
    )


@pytest.mark.parametrize("bounds", [TINY, SMALL, P0], ids=["TINY", "SMALL", "P0"])
def test_request_lists_need_no_universe(bounds, monkeypatch):
    """Listing requests builds no option list, matrix or id table: with
    ``_Universe`` unusable, both functions still give the lists a universe
    holds."""
    expected = _Universe(bounds).requests

    def refuse(*_args, **_kwargs):
        raise AssertionError("a request list built a universe")

    monkeypatch.setattr(checker, "_Universe", refuse)
    for rule in RULE_ORDER:
        assert requests_for_rule(rule, bounds) == expected[rule]
    assert enumerate_requests(bounds) == tuple(
        req for rule in RULE_ORDER for req in expected[rule])
    with pytest.raises(ValueError, match="bounds too large"):
        enumerate_requests(bounds._replace(num_subjects=MAX_LIST))


def test_enumeration_is_deterministic():
    assert list(enumerate_states(SMALL)) == list(enumerate_states(SMALL))
    assert enumerate_requests(SMALL) == enumerate_requests(SMALL)


# --- the obligation runner vs a naive sweep ----------------------------------

def naive_check(b: Bounds, rule_defs=None, star=star_prop, rules=RULE_ORDER):
    """State-by-state reference runner: no memos, no staging, no symmetry
    reduction.  ``star`` is the reading of the *-property, both in the
    hypothesis and as the obligation's property.  Returns the first witness
    of each obligation of ``rules`` and the hypothesis states in enumeration
    order."""
    defs = dict(RULE_DEFS) if rule_defs is None else {**RULE_DEFS, **rule_defs}
    prop_fns = {**PROPERTY_FUNCS, "starprop": star}
    states = [
        s for s in enumerate_states(b)
        if well_formed(s) and sec_cond(s) and star(s)
    ]
    reqs = {rule: requests_for_rule(rule, b) for rule in rules}
    verdicts = {}
    for rule in rules:
        for prop in PROPERTY_ORDER:
            witness = None
            for st in states:
                for req in reqs[rule]:
                    out = apply_def(defs[rule], st, req)
                    if not prop_fns[prop](out.after):
                        witness = (st, req, out.after)
                        break
                if witness:
                    break
            verdicts[(rule, prop)] = witness
    return verdicts, states


def _assert_matches_naive(report, naive, states):
    """The sweep's verdicts, first witnesses and visited-state counts are
    those of ``naive_check``, which returned ``naive`` and ``states``."""
    for r in report.results:
        expected = naive[(r.rule, r.prop)]
        assert (r.status == "fail") == (expected is not None), (r.rule, r.prop)
        if expected is None:
            assert r.states_checked == len(states)
        else:
            assert (r.witness.state, r.witness.request, r.witness.after) == expected
            assert r.states_checked == states.index(expected[0]) + 1


def admitted_mask(plan, u, combo, mi):
    """The requests a plan's pair and matrix guard stages grant on the
    subtree of pair ``combo`` and matrix ``mi``, composed as
    ``_RulePlan.sweep`` composes them."""
    fs_id, fo_id = divmod(combo, len(u.fo_options))
    ids = (plan.empty, plan.empty, fo_id, fs_id, mi)
    mask = plan.all_requests
    for guards in (plan.pair_guards, plan.matrix_guards):
        if guards:
            mask = checker._granted(guards, mask, ids, u, plan.reqs)
    return mask


STAR_READINGS = pytest.mark.parametrize(
    "strict_star,star",
    [(False, star_prop), (True, strict_star_prop)],
    ids=["weak", "strict"],
)


@STAR_READINGS
def test_staged_runner_matches_naive_sweep(strict_star, star):
    report = check_obligations(SMALL, strict_star=strict_star)
    naive, states = naive_check(SMALL, star=star)
    n_states = len(states)
    assert len(report.results) == 60
    for r in report.results:
        expected = naive[(r.rule, r.prop)]
        assert (r.status == "fail") == (expected is not None)
        assert r.states_checked == n_states
        assert r.requests_checked == n_states * len(requests_for_rule(r.rule, SMALL))
    assert report.all_pass


@STAR_READINGS
def test_staged_runner_matches_naive_on_mutant(strict_star, star):
    mutated = {"getWrite": without_conjunct(RULE_DEFS["getWrite"], "readsBelowObject")}
    report = check_obligations(SMALL, rule=None, prop=None, rule_defs=mutated,
                               strict_star=strict_star)
    naive, _ = naive_check(SMALL, rule_defs=mutated, star=star)
    for r in report.results:
        expected = naive[(r.rule, r.prop)]
        assert (r.status == "fail") == (expected is not None), (r.rule, r.prop)
        if expected is not None:
            assert (r.witness.state, r.witness.request, r.witness.after) == expected


@STAR_READINGS
def test_sweep_generates_exactly_the_hypothesis(strict_star, star):
    """The sweep never tests a leaf against an invariant: it generates the
    hypothesis from masks (``_Universe.subtree``), whose rows give a br id,
    the bw mask and the bw options that mask allows, each with its id.
    Walking every subtree, with no orbit reduction, and mapping the ids
    back to states must give exactly the enumerated states that satisfy
    all invariants, in enumeration order.  Two subjects, so that one
    subject's reads leave the other's writes free."""
    b = Bounds(2, 2, 2, 0, 1, 1, 2)
    u = _Universe(b, strict_star=strict_star)
    n_fo = len(u.fo_options)
    got = []
    for combo in range(u.n_combos):
        fs_id, fo_id = divmod(combo, n_fo)
        for mi, (m, known) in enumerate(u.m_options):
            for br_id, bw_mask, bw_subs in u.subtree(combo, known)[1]:
                assert bw_subs == u.access_sets(bw_mask, b.max_bw)
                for _bw, bw_id in bw_subs:
                    st = u.state((br_id, bw_id, fo_id, fs_id, mi))
                    assert (st.fs, st.fo, st.m) == (*u.fs_fo(combo), m)
                    got.append(st)
    states = list(enumerate_states(b))
    assert got == [s for s in states if well_formed(s) and sec_cond(s) and star(s)]
    assert len(states) == 103_599
    assert len(got) == (41_931 if strict_star else 49_383)


@pytest.mark.parametrize("bounds", [Bounds(2, 2, 1, 0, 1, 1, 2),
                                    Bounds(1, 2, 1, 2, 1, 1, 1)],
                         ids=["entities", "categories"])
def test_sweep_visits_every_leaf_of_the_leader_subtrees(bounds):
    """The sweep decides a hypothesis state exactly when the state with its
    br and bw emptied, i.e. its subtree's (fs, fo, m), comes first in
    enumeration order among its renamings.  A leaf-stage conjunct that
    records every state it is asked about, and holds nowhere, shows which.
    It declares all five components, so that its memo asks it about every
    swept state."""
    seen = set()

    def spy(st, _req):
        seen.add(st)
        return False

    everything = frozenset({"br", "bw", "fo", "fs", "m"})
    rd = dataclasses.replace(RULE_DEFS["releaseWrite"],
                             conjuncts=(Conjunct("spy", everything, spy),))
    report = check_obligations(bounds, rule="releaseWrite", rule_defs={"releaseWrite": rd})
    states = [s for s in enumerate_states(bounds) if sec_cond(s) and star_prop(s)]
    position = {s: i for i, s in enumerate(states)}
    group = _Universe(bounds).orbits.group
    assert group  # the bounds have a non-trivial symmetry

    def leads(s):
        return all(position[rename_state(g, s)] >= position[s] for g in group)

    swept = {s for s in states if leads(s._replace(br=(), bw=()))}
    assert seen == swept
    assert len(seen) < len(states) == report.results[0].states_checked


def test_id_tables_map_both_ways():
    """After a full sweep, each component's value-to-id table and its list
    of values by id are inverses: every entry maps back to the very same
    object, and every access-set list entry's id to that entry's set.  A
    state built from ids is the state those ids came from.  At two subjects
    and two-entry matrices giveRW meets matrices that are no option: every
    matrix where it grants a request holds the giver's mode and ctrl
    entries already, so the first one it walks of each (known mask,
    granted mask) class gets a third."""
    u = _Universe(BOTH_GROUPS)
    for task in _sweep_tasks(u, RULE_DEFS, checker.ALL_OBLIGATIONS, 1):
        checker._sweep_range(u, RULE_DEFS, *task)
    m = SystemState._fields.index("m")
    # after states brought matrices that are no option
    assert len(u.id_values[m]) > len(u.m_options)
    assert max(map(len, u.id_values[m])) > BOTH_GROUPS.max_matrix
    for table, values in zip(u.id_tables, u.id_values):
        assert len(values) == len(table)
        assert all(values[cid] is value for value, cid in table.items())
    access_values = u.id_values[SystemState._fields.index("br")]
    assert all(access_values[cid] == subset
               for subsets in u._access_sets.values() for subset, cid in subsets)
    for st in enumerate_states(BOTH_GROUPS):
        ids = [u.component_id(i, value) for i, value in enumerate(st)]
        assert u.state(ids) == st


def renamed_orbit_tables(u):
    """The reference for ``_Universe.orbits``, which works on option
    indices: every table built by renaming states with ``rename_state``
    and looking the renamed components up in the option lists."""
    blank = SystemState((), (), (), (), ())
    fs_index = {fs: i for i, fs in enumerate(u.fs_options)}
    fo_index = {fo: i for i, fo in enumerate(u.fo_options)}
    m_index = {m: i for i, (m, _known) in enumerate(u.m_options)}
    n_fo = len(u.fo_options)
    images = []
    m_image = []
    for g in u.orbits.group:
        fs_img = [fs_index[rename_state(g, blank._replace(fs=fs)).fs]
                  for fs in u.fs_options]
        fo_img = [fo_index[rename_state(g, blank._replace(fo=fo)).fo]
                  for fo in u.fo_options]
        images.append([f * n_fo + o for f in fs_img for o in fo_img])
        m_image.append(tuple(m_index[rename_state(g, blank._replace(m=m)).m]
                             for m, _known in u.m_options))
    n_pairs = len(u.fs_options) * n_fo
    rep = tuple(min([i, *(img[i] for img in images)]) for i in range(n_pairs))
    reps = tuple(i for i, r in enumerate(rep) if r == i)
    stabiliser = {i: tuple(g for g, img in enumerate(images) if img[i] == i) for i in reps}
    return rep, reps, stabiliser, tuple(m_image)


@pytest.mark.parametrize("bounds", [P0, Bounds(3, 2, 2, 0, 1, 1, 2),
                                    Bounds(2, 3, 1, 1, 1, 1, 2),
                                    Bounds(2, 2, 1, 2, 1, 1, 2)],
                         ids=["P0", "subjects", "objects", "categories"])
def test_orbit_tables_match_state_renaming(bounds):
    """The group tables match the reference both as built and as the next
    universe of the same bounds reads them, from the kept slot."""
    for u in (_Universe(bounds), _Universe(bounds)):
        orbits = u.orbits
        assert len(orbits.group) == math.prod(
            math.factorial(n) for n in (bounds.num_subjects, bounds.num_objects,
                                        bounds.num_categories)) - 1
        rep, reps, stabiliser, m_image = renamed_orbit_tables(u)
        assert orbits.rep == rep
        assert orbits.reps == reps
        assert orbits.stabiliser == stabiliser
        assert orbits.m_image == m_image
        # the matrices each stabiliser leaves to the sweep: those with no
        # earlier image under it
        assert orbits.m_reps == {
            stab: tuple(mi for mi in range(len(u.m_options))
                        if min((m_image[g][mi] for g in stab), default=mi) >= mi)
            for stab in stabiliser.values()
        }


def test_group_tables_kept_for_the_same_bounds(monkeypatch):
    """The group tables are kept for the next universe of equal bounds,
    strict or not, and only for the bounds asked for most recently.  Bounds
    the tables refuse are never kept."""
    monkeypatch.setattr(checker, "_orbits_kept", (None, None))
    first = _Universe(P0).orbits
    assert _Universe(P0).orbits is first
    assert _Universe(Bounds(*P0)).orbits is first
    assert _Universe(P0, strict_star=True).orbits is first
    small = _Universe(SMALL).orbits
    assert checker._orbits_kept == (SMALL, small)
    again = _Universe(P0).orbits
    assert again is not first and again == first
    assert checker._orbits_kept[1] is again
    # bounds whose option lists pass but whose group images are too many
    refused, later = _Universe(Bounds(3, 2, 2, 0, 1, 1, 2)), _Universe(P0)
    monkeypatch.setattr(checker, "MAX_LIST", refused.n_combos)
    with pytest.raises(ValueError, match="bounds too large"):
        refused.orbits
    assert checker._orbits_kept == (P0, again)
    assert later.orbits is again


# Mutants whose failures at these bounds depend on the categories.
CATEGORY_MUTANTS = {
    rule: without_conjunct(RULE_DEFS[rule], conjunct)
    for rule, conjunct in (("getRead", "clearanceDominates"),
                           ("getWrite", "readsBelowObject"),
                           ("changeClass", "objectUnaccessed"))
}


@pytest.mark.parametrize("bounds", [Bounds(1, 2, 1, 2, 1, 1, 1),
                                    Bounds(2, 1, 1, 2, 1, 1, 1)],
                         ids=["objects", "subjects"])
@STAR_READINGS
def test_reduced_sweep_matches_naive_with_categories(bounds, strict_star, star):
    """Two categories make Sym(categories) non-trivial, which no other
    exhaustive test's bounds do; the sweep checks one state per renaming
    orbit, the naive sweep every state.  Verdicts, visited-state counts
    and first witnesses must agree, for the real rules and for mutants."""
    for defs in (None, CATEGORY_MUTANTS):
        report = check_obligations(bounds, rule_defs=defs, strict_star=strict_star)
        naive, states = naive_check(bounds, rule_defs=defs, star=star)
        _assert_matches_naive(report, naive, states)
        assert report.all_pass == (defs is None)


# Two subjects and two objects: Sym(subjects) and Sym(objects) both act.
BOTH_GROUPS = Bounds(2, 2, 1, 0, 1, 1, 2)
# The single-conjunct mutants that break an obligation at BOTH_GROUPS.
BOTH_GROUPS_MUTANTS = (
    ("getRead", "hasReadPermission"),
    ("getRead", "clearanceDominates"),
    ("getRead", "readBelowWrites"),
    ("getWrite", "hasWritePermission"),
    ("rescindRead", "rescinderHasCtrl"),
    ("rescindWrite", "rescinderHasCtrl"),
    ("deleteObject", "objectUnaccessed"),
)


def test_reduced_sweep_matches_naive_where_both_name_groups_act():
    """Renamings of subjects and of objects both fix some subtrees here,
    so some swept subtrees hold leaves that are renamings of one another.
    The sweep decides them all; it skips only pairs that are not orbit
    representatives and matrices with an earlier image under the pair's
    stabiliser.  Verdicts, first witnesses and visited-state
    counts must equal the naive sweep's, for the real rules and for every
    mutant that breaks an obligation at these bounds."""
    report = check_obligations(BOTH_GROUPS)
    naive, states = naive_check(BOTH_GROUPS)
    _assert_matches_naive(report, naive, states)
    assert report.all_pass
    for rule, conjunct in BOTH_GROUPS_MUTANTS:
        defs = {rule: without_conjunct(RULE_DEFS[rule], conjunct)}
        report = check_obligations(BOTH_GROUPS, rule=rule, rule_defs=defs)
        naive, states = naive_check(BOTH_GROUPS, rule_defs=defs, rules=(rule,))
        _assert_matches_naive(report, naive, states)
        assert not report.all_pass, (rule, conjunct)


@pytest.mark.parametrize("bounds", [SMALL, BOTH_GROUPS], ids=["one-subject", "two-subjects"])
def test_after_ids_map_back_to_the_effect(bounds):
    """A granted request's after state is the leaf's ids followed by its
    effect memo entry.  For every rule and every granted (leaf, request) of
    the hypothesis, with no orbit reduction, the five ids a rule's plan
    picks out of that tuple map back through ``_Universe.state`` to the
    state the rule's effect returns, and each checked property's memo key
    is those ids at the property's fields, m's for its view domM.  The
    sweep skips rows whose
    footprint passed already, and bw-blind checks visit only each
    request's fresh leaf, so entries it left unfilled are filled here the
    way it fills them (``_RulePlan._written``).  Each pair is swept over all
    its matrices, in order."""
    u = _Universe(bounds)
    fields = SystemState._fields
    n_m, n_fo = len(u.m_options), len(u.fo_options)
    granted_pairs = 0
    for rule in RULE_ORDER:
        rd = RULE_DEFS[rule]
        obs = [checker._ObState(rule, prop) for prop in PROPERTY_ORDER]
        plan = checker._RulePlan(rd, obs, u)
        assert plan.checked
        for i in range(u.n_combos * n_m):
            combo, mi = divmod(i, n_m)
            fs_id, fo_id = divmod(combo, n_fo)
            if mi == 0:
                plan.sweep(combo, range(n_m))
            rows = u.subtree(combo, u.m_options[mi][1])[1]
            for ids in [(br_id, bw_id, fo_id, fs_id, mi)
                        for br_id, _bw_mask, bw_subs in rows for _bw, bw_id in bw_subs]:
                st = u.state(ids)
                entries = plan.effects.setdefault(plan.write_key(ids), [None] * len(plan.reqs))
                for j, req in enumerate(plan.reqs):
                    if not all(c.holds(st, req) for c in rd.conjuncts):
                        continue
                    granted_pairs += 1
                    if entries[j] is None:
                        entries[j] = plan._written(st, j)
                    after = ids + entries[j]
                    after_ids = plan.after_ids(after)
                    assert u.state(after_ids) == rd.effect(st, req), (rule, st, req)
                    for ob, key, _memo, _pred in plan.checked:
                        # m stands for its view domM, m's object set
                        reads = {"m" if name == "domM" else name
                                 for name in PROPERTY_READS[ob.prop]}
                        want = tuple(after_ids[f] for f, name in enumerate(fields)
                                     if name in reads)
                        assert key(after) == (want[0] if len(want) == 1 else want)
        assert not any(ob.failed for ob in obs)
    assert granted_pairs > 0


def test_hypothesis_filter_is_not_applied_by_enumeration():
    # enumerate_states yields invariant-violating states too; the runner
    # filters them per obligation
    states = list(enumerate_states(SMALL))
    assert any(not (sec_cond(s) and star_prop(s)) for s in states)


def test_exhaustive_determinism():
    a = check_obligations(SMALL)
    b = check_obligations(SMALL)
    strip = lambda rep: [
        (r.rule, r.prop, r.status, r.states_checked, r.requests_checked, r.witness)
        for r in rep.results
    ]
    assert strip(a) == strip(b)


def test_worker_parity():
    seq = check_obligations(SMALL, workers=1)
    par = check_obligations(SMALL, workers=2)
    strip = lambda rep: [
        (r.rule, r.prop, r.status, r.states_checked, r.requests_checked, r.witness)
        for r in rep.results
    ]
    assert strip(seq) == strip(par)


def test_worker_parity_on_failing_obligation():
    mutated = {"getRead": without_conjunct(RULE_DEFS["getRead"], "clearanceDominates")}
    kw = dict(rule="getRead", prop="seccond", rule_defs=mutated)
    seq = check_obligations(SMALL, **kw)
    assert not seq.all_pass
    # overrides force single-worker; parity in the multi-worker engine is
    # covered by the healthy-rules test above
    with pytest.raises(ValueError):
        check_obligations(SMALL, workers=2, **kw)


def test_random_mode_worker_parity():
    kw = dict(mode=MODE_RANDOM, samples=100, seed=5)
    seq = check_obligations(SMALL, workers=1, **kw)
    par = check_obligations(SMALL, workers=2, **kw)
    assert format_report(par, "machine") == format_report(seq, "machine")
    assert checker._worker_context == ()  # set in pool workers only
    with pytest.raises(ValueError):
        check_obligations(SMALL, workers=2, rule="getRead",
                          rule_defs={"getRead": RULE_DEFS["getRead"]}, **kw)


def test_workers_are_bounded(monkeypatch):
    n_combo = _Universe(P0).n_combos
    assert n_combo == 625
    for cpus, expected in ((4096, 625), (2, 2), (None, 1)):
        # the CPUs this process may run on, where the platform tells them;
        # None stands for a platform that tells neither them nor its count
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _pool_size(10000, n_combo) == expected
    for workers in (0, -3):
        with pytest.raises(ValueError):
            check_obligations(TINY, workers=workers)


def test_obligation_filter():
    rep = check_obligations(SMALL, rule="releaseRead", prop="seccond")
    assert len(rep.results) == 1
    assert rep.results[0].status == "pass"  # shrinking br cannot break seccond
    with pytest.raises(ValueError):
        check_obligations(SMALL, rule="noSuchRule")
    with pytest.raises(ValueError):
        check_obligations(SMALL, prop="noSuchProp")
    with pytest.raises(ValueError):
        check_obligations(SMALL, mode="noSuchMode")
    with pytest.raises(ValueError):
        check_obligations(SMALL, mode=MODE_RANDOM, samples=0)
    with pytest.raises(ValueError, match="samples"):
        check_obligations(SMALL, mode=MODE_RANDOM, samples=10 ** 20)
    with pytest.raises(ValueError):
        check_obligations(Bounds(-1, 0, 0, 0, 0, 0, 0))


# --- mutation sensitivity ----------------------------------------------------

def test_mutated_get_write_breaks_starprop():
    mutated = {"getWrite": without_conjunct(RULE_DEFS["getWrite"], "readsBelowObject")}
    rep = check_obligations(SMALL, rule="getWrite", prop="starprop", rule_defs=mutated)
    (res,) = rep.results
    assert res.status == "fail"
    w = res.witness
    # self-validating: hypothesis holds, re-application reproduces, property broken
    assert well_formed(w.state) and sec_cond(w.state) and star_prop(w.state)
    out = apply_def(mutated["getWrite"], w.state, w.request)
    assert out.after == w.after
    assert not star_prop(w.after)


def test_mutated_get_read_breaks_seccond():
    mutated = {"getRead": without_conjunct(RULE_DEFS["getRead"], "clearanceDominates")}
    rep = check_obligations(SMALL, rule="getRead", prop="seccond", rule_defs=mutated)
    (res,) = rep.results
    assert res.status == "fail"
    w = res.witness
    assert sec_cond(w.state) and not sec_cond(w.after)


# Per single-conjunct mutant, the obligations it breaks at SMALL, as
# naive_check finds them (test_mutation_matrix recomputes them).
MUTATION_MATRIX = {
    ("getRead", "hasReadPermission"): ("ranBrInDomM",),
    ("getRead", "notAlreadyReading"): (),
    ("getRead", "objectClassified"): (),
    ("getRead", "clearanceDominates"): ("seccond",),
    ("getRead", "readBelowWrites"): ("starprop",),
    ("getWrite", "hasWritePermission"): ("ranBwInDomM",),
    ("getWrite", "notAlreadyWriting"): (),
    ("getWrite", "objectClassified"): (),
    ("getWrite", "readsBelowObject"): ("starprop",),
    ("releaseRead", "currentlyReading"): (),
    ("releaseWrite", "currentlyWriting"): (),
    ("giveRW", "modeGivable"): (),
    ("giveRW", "giverHasMode"): (),
    ("giveRW", "giverHasCtrl"): (),
    ("giveRW", "receiverLacksMode"): (),
    ("rescindRead", "rescinderHasCtrl"): ("ranBwInDomM",),
    ("rescindRead", "targetHasRead"): (),
    ("rescindWrite", "rescinderHasCtrl"): ("ranBrInDomM",),
    ("rescindWrite", "targetHasWrite"): (),
    ("changeClass", "objectClassified"): (),
    ("changeClass", "objectUnaccessed"): ("seccond", "starprop"),
    ("createObject", "objectFresh"): ("seccond", "starprop", "foFunctional"),
    ("deleteObject", "ownerHasCtrl"): (),
    ("deleteObject", "objectUnaccessed"):
        ("seccond", "starprop", "ranBrInDomM", "ranBwInDomM"),
}


def test_mutation_matrix():
    """Every single-conjunct mutant: the sweep's verdicts, first witnesses
    and visited-state counts equal the naive sweep's on the mutated rule's
    six obligations, and the obligations it breaks are the pinned ones.
    createObject without objectFresh makes fo non-functional after the
    step, a path no other kernel test reaches."""
    broken = {}
    for rule in RULE_ORDER:
        for conjunct in RULE_DEFS[rule].conjuncts:
            defs = {rule: without_conjunct(RULE_DEFS[rule], conjunct.name)}
            report = check_obligations(SMALL, rule=rule, rule_defs=defs)
            naive, states = naive_check(SMALL, rule_defs=defs, rules=(rule,))
            _assert_matches_naive(report, naive, states)
            broken[(rule, conjunct.name)] = tuple(
                r.prop for r in report.results if r.status == "fail")
    assert broken == MUTATION_MATRIX


# The same mutants at two subjects.  A rescind without rescinderHasCtrl
# can remove an object's last matrix entry (a ctrl entry would keep the
# object known).  It drops only the target's access of that mode, and with
# two subjects another subject's current read or write of the object can
# stay, so both rescinderHasCtrl mutants break ranBrInDomM and ranBwInDomM.
# naive_check agrees with this table on all 24 mutants (verdicts, first
# witnesses and visited-state counts), but at 3-40 s per mutant it is too
# slow for the suite.
TWO_SUBJECTS = Bounds(2, 2, 2, 0, 2, 2, 2)
TWO_SUBJECTS_MUTATION_MATRIX = {
    **MUTATION_MATRIX,
    ("rescindRead", "rescinderHasCtrl"): ("ranBrInDomM", "ranBwInDomM"),
    ("rescindWrite", "rescinderHasCtrl"): ("ranBrInDomM", "ranBwInDomM"),
}


def test_mutation_matrix_with_two_subjects():
    """Every single-conjunct mutant at ``TWO_SUBJECTS``: the obligations it
    breaks are the pinned ones."""
    broken = {}
    for rule in RULE_ORDER:
        for conjunct in RULE_DEFS[rule].conjuncts:
            defs = {rule: without_conjunct(RULE_DEFS[rule], conjunct.name)}
            report = check_obligations(TWO_SUBJECTS, rule=rule, rule_defs=defs)
            broken[(rule, conjunct.name)] = tuple(
                r.prop for r in report.results if r.status == "fail")
    assert broken == TWO_SUBJECTS_MUTATION_MATRIX


# sha256 over the machine reports of the 24 single-conjunct mutants at P0,
# in rule order and each rule's conjunct order: it pins their witnesses and
# visited-state counts, which naive_check is too slow to recompute at P0.
P0_MUTATION_REPORTS_SHA256 = "70360d904608b0b4a67ce27a9c9c37fd913cb17a666839de1545767449a10598"


def test_mutation_matrix_at_the_default_profile():
    """Every single-conjunct mutant at P0: the obligations it breaks are
    those it breaks at ``TWO_SUBJECTS``, and its report's bytes are the
    pinned ones."""
    broken = {}
    digest = hashlib.sha256()
    for rule in RULE_ORDER:
        for conjunct in RULE_DEFS[rule].conjuncts:
            defs = {rule: without_conjunct(RULE_DEFS[rule], conjunct.name)}
            report = check_obligations(P0, rule=rule, rule_defs=defs)
            digest.update(format_report(report, "machine").encode())
            broken[(rule, conjunct.name)] = tuple(
                r.prop for r in report.results if r.status == "fail")
    assert broken == TWO_SUBJECTS_MUTATION_MATRIX
    assert digest.hexdigest() == P0_MUTATION_REPORTS_SHA256


# The README's "without it" column: for each conjunct whose mutant breaks
# nothing, what the mutant does on the inputs where that conjunct alone
# refuses the request.
WITHOUT_IT = {
    ("getRead", "notAlreadyReading"): "inserts an entry twice",
    ("getRead", "objectClassified"): "is never the deciding conjunct",
    ("getWrite", "notAlreadyWriting"): "inserts an entry twice",
    ("getWrite", "objectClassified"): "is never the deciding conjunct",
    ("releaseRead", "currentlyReading"): "changes nothing",
    ("releaseWrite", "currentlyWriting"): "changes nothing",
    ("giveRW", "modeGivable"): "passes a mode on",
    ("giveRW", "giverHasMode"): "passes a mode on",
    ("giveRW", "giverHasCtrl"): "passes a mode on",
    ("giveRW", "receiverLacksMode"): "inserts an entry twice",
    ("rescindRead", "targetHasRead"): "leaves the matrix",
    ("rescindWrite", "targetHasWrite"): "leaves the matrix",
    ("changeClass", "objectClassified"): "changes nothing",
    ("deleteObject", "ownerHasCtrl"): "deletes the object",
}
# Rows whose inputs need a giver and a receiver that differ.
NEEDS_TWO_SUBJECTS = {("giveRW", "modeGivable"), ("giveRW", "giverHasCtrl")}
AFTER_CHECKS = {
    "inserts an entry twice": lambda st, req, after: any(len(set(c)) < len(c) for c in after),
    "changes nothing": lambda st, req, after: after == st,
    "passes a mode on": lambda st, req, after: set(after.m) > set(st.m),
    "leaves the matrix": lambda st, req, after: after.m == st.m,
    "deletes the object": lambda st, req, after: (
        all(o != req.o for o, _c in after.fo) and all(t[0] != req.o for t in after.m)),
}


def deciding_inputs(b: Bounds, rows) -> dict:
    """Per (rule, conjunct) of ``rows``, the hypothesis inputs (state,
    request) on which that conjunct is the only one of its rule to
    refuse."""
    states = [s for s in enumerate_states(b) if well_formed(s) and sec_cond(s) and star_prop(s)]
    found = {row: [] for row in rows}
    for rule in dict.fromkeys(rule for rule, _c in rows):
        conjuncts = RULE_DEFS[rule].conjuncts
        reqs = requests_for_rule(rule, b)
        for st in states:
            for req in reqs:
                refusing = [c.name for c in conjuncts if not c.holds(st, req)]
                if len(refusing) == 1 and (rule, refusing[0]) in found:
                    found[rule, refusing[0]].append((st, req))
    return found


@pytest.mark.parametrize("bounds", [SMALL, BOTH_GROUPS], ids=["one-subject", "two-subjects"])
def test_what_each_needless_conjunct_guards(bounds):
    """The conjuncts whose mutants break nothing are exactly the README's
    table, and each row's "without it" entry holds on every input where
    the conjunct alone refuses: the mutant grants the request and its
    effect does what the row says."""
    assert set(WITHOUT_IT) == {row for row, broken in MUTATION_MATRIX.items() if not broken}
    found = deciding_inputs(bounds, WITHOUT_IT)
    for (rule, conjunct), inputs in found.items():
        claim = WITHOUT_IT[rule, conjunct]
        if claim == "is never the deciding conjunct" or (
                (rule, conjunct) in NEEDS_TWO_SUBJECTS and bounds.num_subjects < 2):
            assert not inputs, (rule, conjunct)
            continue
        assert inputs, (rule, conjunct)
        mutant = without_conjunct(RULE_DEFS[rule], conjunct)
        for st, req in inputs:
            out = apply_def(mutant, st, req)
            assert out.decision == "yes", (rule, conjunct, st, req)
            assert AFTER_CHECKS[claim](st, req, out.after), (rule, conjunct, st, req)


def test_unmutated_rules_pass_where_mutants_fail():
    assert check_obligations(SMALL, rule="getWrite", prop="starprop").all_pass
    assert check_obligations(SMALL, rule="getRead", prop="seccond").all_pass


# --- widened declarations ----------------------------------------------------

EVERY_COMPONENT = frozenset(SystemState._fields)


def widened_check(b: Bounds, rule_defs=None, **kwargs):
    """``check_obligations`` with every declaration the sweep reads widened
    to all five components: each conjunct's ``reads``, each rule's
    ``writes`` and ``core.PROPERTY_READS``, and no rule's new object set
    declared to follow from the old one.  Every guard then sits in the
    leaf stage, every footprint reads every row field, so all of a rule's
    checks make one track group whose set keeps every walked row's key,
    every rule walks every matrix and every obligation is checked on
    every granted leaf.
    The CI workflow holds the widened check at P0 to ``P0_REPORT_SHA256``."""
    defs = dict(RULE_DEFS) if rule_defs is None else {**RULE_DEFS, **rule_defs}
    wide = {
        rule: dataclasses.replace(
            rd, conjuncts=tuple(dataclasses.replace(c, reads=EVERY_COMPONENT)
                                for c in rd.conjuncts),
            writes=EVERY_COMPONENT, object_set_local=False)
        for rule, rd in defs.items()}
    saved = dict(PROPERTY_READS)
    PROPERTY_READS.update(dict.fromkeys(PROPERTY_READS, EVERY_COMPONENT))
    try:
        return check_obligations(b, rule_defs=wide, **kwargs)
    finally:
        PROPERTY_READS.update(saved)


def test_widened_declarations_give_the_same_report():
    """The sweep's declarations only ever narrow what it decides: widening
    them all to the whole state (``widened_check``) gives the same report
    bytes, for the shipped rules at two subjects."""
    b = Bounds(2, 2, 2, 0, 2, 2, 2)
    report = format_report(check_obligations(b), "machine")
    assert format_report(widened_check(b), "machine") == report
    assert PROPERTY_READS["ranBrInDomM"] == frozenset({"br", "domM"})


def test_widened_declarations_give_the_same_mutant_reports():
    """Every single-conjunct mutant's report at ``SMALL``, failing
    obligations, witnesses and visited-state counts included, is the same
    under widened declarations."""
    for rule in RULE_ORDER:
        for conjunct in RULE_DEFS[rule].conjuncts:
            defs = {rule: without_conjunct(RULE_DEFS[rule], conjunct.name)}
            report = format_report(check_obligations(SMALL, rule=rule, rule_defs=defs),
                                   "machine")
            widened = format_report(widened_check(SMALL, rule_defs=defs, rule=rule), "machine")
            assert widened == report, (rule, conjunct.name)


# --- the hypothesis census ---------------------------------------------------

# The sweep tests' profiles, one where Sym(categories) acts, and degenerate
# ones: no subjects, objects, levels, access sets or matrix entries.
CENSUS_BOUNDS = {
    "tiny": TINY,
    "small": SMALL,
    "both-groups": BOTH_GROUPS,
    "two-subjects": TWO_SUBJECTS,
    "categories": Bounds(1, 2, 1, 2, 1, 1, 1),
    "no-subjects": Bounds(0, 2, 2, 1, 2, 2, 2),
    "no-objects": Bounds(2, 0, 2, 1, 2, 2, 2),
    "no-levels": Bounds(2, 2, 0, 1, 2, 2, 2),
    "no-access": Bounds(2, 2, 2, 0, 0, 0, 2),
    "no-reads": Bounds(2, 2, 2, 0, 0, 2, 2),
    "no-writes": Bounds(2, 2, 2, 0, 2, 0, 2),
    "no-matrix": Bounds(2, 2, 2, 0, 2, 2, 0),
    "nothing": Bounds(0, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("bounds", CENSUS_BOUNDS.values(), ids=CENSUS_BOUNDS.keys())
def test_census_counts_every_subtree(bounds):
    """The hypothesis table's count of every subtree, representative or
    not, is the number of enumerated states with its (fs, fo, m) that
    satisfy every invariant, and the census ahead of it is the count of the
    subtrees before it in enumeration order.  The whole census is the
    number of enumerated states that satisfy every invariant.  Both
    readings of the *-property."""
    states = [s for s in enumerate_states(bounds) if well_formed(s) and sec_cond(s)]
    for strict_star, star in ((False, star_prop), (True, strict_star_prop)):
        u = _Universe(bounds, strict_star=strict_star)
        per_subtree = collections.Counter((s.fs, s.fo, s.m) for s in states if star(s))
        listed = 0
        for combo in range(u.n_combos):
            fs, fo = u.fs_fo(combo)
            for mi, (m, known) in enumerate(u.m_options):
                count = u.subtree(combo, known)[0]
                assert u.leaves_before(combo, mi) == listed, (strict_star, combo, mi)
                assert count == per_subtree[fs, fo, m], (strict_star, combo, mi)
                listed += count
        assert u.hypothesis_states == listed == sum(map(star, states)), strict_star


def test_census_of_the_default_profile():
    from test_acceptance import P0_HYPOTHESIS_STATES

    assert _Universe(P0).hypothesis_states == P0_HYPOTHESIS_STATES


def test_refused_subtrees_are_never_listed(monkeypatch):
    """A subtree where no rule's subtree guard stage grants a request is
    never listed.  At P0, getRead without hasReadPermission breaks
    ranBrInDomM in the first subtree where getRead's subtree stage grants
    a request, so its search lists that subtree alone.  The census lists
    subtrees too, after the sweep, so only the sweep's listings count."""
    listed = []
    sweeping = []
    subtree, sweep_range = _Universe.subtree, checker._sweep_range

    def counting(u, combo, known):
        if sweeping:
            listed.append((combo, known))
        return subtree(u, combo, known)

    def flagged(*args):
        sweeping.append(True)
        try:
            return sweep_range(*args)
        finally:
            sweeping.pop()

    monkeypatch.setattr(_Universe, "subtree", counting)
    monkeypatch.setattr(checker, "_sweep_range", flagged)
    defs = {"getRead": without_conjunct(RULE_DEFS["getRead"], "hasReadPermission")}
    report = check_obligations(P0, rule="getRead", prop="ranBrInDomM", rule_defs=defs)
    assert [r.status for r in report.results] == ["fail"]
    assert len(listed) == 1


@pytest.mark.parametrize("bounds", [SMALL, BOTH_GROUPS, Bounds(1, 2, 2, 0, 2, 2, 3)],
                         ids=["one-subject", "two-subjects", "three-entries"])
def test_rules_that_skip_the_matrix_sweep_each_known_mask_once(bounds, monkeypatch):
    """Two subtrees of one (fs, fo) pair with the same known mask have the
    same leaves but for the matrix.  A rule none of whose footprints in use
    reads m gets the same verdicts on two such subtrees whose matrix guard
    stages grant the same requests, so it walks the first of each (known
    mask, granted mask) class only.  changeClass has no matrix guards, so
    it walks each known mask once.  getRead's matrix guard reads m, but its
    checks read m's object set at most, so it walks one subtree per class,
    fewer than the subtrees its pair and matrix stages admit.  rescindRead
    checks ranBrInDomM on a matrix it shrinks, whose new object set follows
    from the whole old matrix only, so it is swept on every subtree its
    guard stages admit, repeated classes included; with two-entry
    matrices every subtree it admits holds just the two triples its guards
    ask for, so only three-entry matrices repeat a class.  A rule fetches a
    subtree's hypothesis table exactly when it walks its rows."""
    swept = []
    current = []
    subtree = _Universe.subtree

    def recording(u, combo, known):
        if current:
            swept.append((current[-1][0], combo, known))
        return subtree(u, combo, known)

    _entering(monkeypatch, current)
    monkeypatch.setattr(_Universe, "subtree", recording)
    assert check_obligations(bounds).all_pass
    u = _Universe(bounds)
    known = lambda rule: [(combo, known) for r, combo, known in swept if r == rule]
    assert known("changeClass")
    assert len(set(known("changeClass"))) == len(known("changeClass"))

    def admitted(rule):
        """Per admitted subtree, in sweep order: its pair, its known mask
        and the requests its guard stages grant."""
        plan = checker._RulePlan(RULE_DEFS[rule], [], u)
        return [(combo, u.m_options[mi][1], admitted_mask(plan, u, combo, mi))
                for combo in u.orbits.reps
                for mi in u.orbits.m_reps[u.orbits.stabiliser[combo]]
                if admitted_mask(plan, u, combo, mi)]

    classes = list(dict.fromkeys(admitted("getRead")))
    assert known("getRead") == [(combo, known) for combo, known, _mask in classes]
    assert len(classes) < len(admitted("getRead"))
    every = [(combo, known) for combo, known, _mask in admitted("rescindRead")]
    assert known("rescindRead") == every
    assert (len(set(admitted("rescindRead"))) < len(every)) == (bounds.max_matrix > 2)


@pytest.mark.parametrize("rule", ["giveRW", "rescindRead", "rescindWrite", "createObject"])
def test_rules_without_leaf_guards_call_no_guard_per_leaf(rule, monkeypatch):
    """No guard conjunct of these rules reads br or bw, so their leaf guard
    stage is empty: a leaf's granted requests are those its pair and matrix
    stages granted.  The leaf stage still builds the plan's table, from the
    empty guard list, but every conjunct memo lookup, and so every conjunct
    call, happens in the pair stage, once per (rule, pair), or the matrix
    stage, at most once per matrix: none runs per leaf.  Only giveRW has a
    pair stage conjunct."""
    plans = []
    stage = []
    calls = collections.Counter()
    lookups = collections.Counter()

    class Memo(dict):
        def get(self, key, default=None):
            lookups[stage[-1] if stage else None] += 1
            return super().get(key, default)

    init = checker._RulePlan.__init__

    def with_memos(plan, *args):
        init(plan, *args)
        for guards in (plan.pair_guards, plan.matrix_guards, plan.leaf_guards):
            guards[:] = [(key, Memo(), holds) for key, _memo, holds in guards]
        plans.append(plan)

    granted = checker._granted

    def staged(guards, *args):
        plan = plans[-1]
        name = ("pair" if guards is plan.pair_guards else "matrix" if guards is plan.matrix_guards
                else "leaf" if guards is plan.leaf_guards else None)
        calls[name] += 1
        stage.append(name)
        try:
            return granted(guards, *args)
        finally:
            stage.pop()

    monkeypatch.setattr(checker._RulePlan, "__init__", with_memos)
    monkeypatch.setattr(checker, "_granted", staged)
    assert check_obligations(SMALL, rule=rule).all_pass
    (plan,) = plans
    assert not plan.leaf_guards
    assert bool(plan.pair_guards) == (rule == "giveRW")
    assert calls["pair"] == len(_Universe(SMALL).orbits.reps)
    assert lookups and set(lookups) <= {"pair", "matrix"}
    assert lookups["pair"] <= len(plan.pair_guards) * calls["pair"]
    assert lookups["matrix"] <= len(plan.matrix_guards) * calls["matrix"]
    # giveRW needs two subjects: at one its pair stage grants nothing
    assert (calls["leaf"] > 0) == (rule != "giveRW")


@pytest.mark.parametrize("bounds", [SMALL, BOTH_GROUPS], ids=["one-subject", "two-subjects"])
def test_no_check_sweeps_a_footprint_it_has_passed(bounds, monkeypatch):
    """A check's verdicts on a row's leaves depend only on its row
    footprint (``_row_footprints``): the subtree stage's granted mask and
    the row's values of what its leaf guards read and of what the after
    values its property reads follow from, bw by the row's bw mask and m's
    object set by the known mask.  So a row is walked for a track group
    only while the group's footprint of it has not passed, and that
    footprint is recorded once, after the row was walked for the group.
    For every rule, the checks whose footprints read the same fields make
    one group with one set, the plan's set for those key bits; every
    visited row looks each group's set up once, and a set gets only the
    footprint of a row just found new to it.  A row's leaves are looked up
    once if it is new to some group, so the rows walked number at least
    the largest set and at most the sets' sum.  releaseRead and
    releaseWrite, whose footprints leave out most of a leaf, walk fewer
    rows than they visit.  deleteObject's two range checks share a group
    keyed by the known mask, since its new matrix's object set follows from
    the old one, while its frame's footprint reads the matrix."""

    class Footprints(set):
        visits = 0
        missed = None

        def __contains__(self, key):
            self.visits += 1
            found = super().__contains__(key)
            self.missed = None if found else key
            return found

        def add(self, key):
            assert key == self.missed and not super().__contains__(key), key
            self.missed = None
            super().add(key)

    visited = collections.Counter()
    swept = collections.Counter()
    current = []
    subtree = _Universe.subtree
    init = checker._RulePlan.__init__
    plans = {}

    class LeafStage(dict):
        def get(self, key, default=None):
            swept[current[-1][0]] += 1  # a row is walked: its leaves are looked up
            return super().get(key, default)

    def counting(u, combo, known):
        table = subtree(u, combo, known)
        if current:
            visited[current[-1][0]] += len(table[1])
        return table

    def with_footprints(plan, *args):
        init(plan, *args)
        plan.passed = {bits: Footprints() for bits in plan.passed}
        plan._set_tracks()
        plan.leaf_stage = LeafStage()
        plans[plan.rule] = plan

    _entering(monkeypatch, current)
    monkeypatch.setattr(_Universe, "subtree", counting)
    monkeypatch.setattr(checker._RulePlan, "__init__", with_footprints)
    u = _Universe(bounds)
    for task in _sweep_tasks(u, RULE_DEFS, checker.ALL_OBLIGATIONS, 1):
        entries, _time = checker._sweep_range(u, RULE_DEFS, *task)
        assert not any(failed for _rule, _prop, failed, *_ in entries)
    assert sorted(plans) == sorted(RULE_ORDER)
    field_bits = u.row_layout[1]

    def key_bits(fields):
        bits = field_bits["mask"]
        for name in fields:
            bits |= field_bits[name]
        return bits

    for rule, plan in plans.items():
        # one group per distinct footprint fields of the checks
        footprints = checker._row_footprints(RULE_DEFS[rule], PROPERTY_ORDER)
        groups = {}
        for prop, (fields, _every_leaf) in footprints.items():
            if prop is not None:
                groups.setdefault(key_bits(fields), set()).add(prop)
        assert groups, rule
        assert {bits: {check[0].prop for check in both}
                for bits, _seen, _every, both, _walk in plan.tracks} == groups, rule
        sets = [seen for _bits, seen, *_ in plan.tracks]
        assert sets == list(plan.passed.values()), rule
        assert all(plan.passed[bits] is seen for bits, seen, *_ in plan.tracks), rule
        # every visited row asks each group's set once
        assert all(s.visits == visited[rule] for s in sets), rule
        # giveRW at one subject, whose pair stage grants nothing, visits none
        assert all(bool(s) == (visited[rule] > 0) for s in sets), rule
        assert max(map(len, sets)) <= swept[rule] <= min(sum(map(len, sets)), visited[rule])
    for rule in ("releaseRead", "releaseWrite"):
        assert swept[rule] < visited[rule]
    (ranges,) = [bits for bits, _seen, _every, both, _walk in plans["deleteObject"].tracks
                 if {check[0].prop for check in both} >= {"ranBrInDomM", "ranBwInDomM"}]
    assert not ranges & field_bits["m"]
    assert ranges & field_bits["known"]
    frame = checker._row_footprints(RULE_DEFS["deleteObject"], PROPERTY_ORDER)[None][0]
    assert key_bits(frame) & field_bits["m"]


def _writes_something(st, _req):
    return bool(st.bw)


def test_leaf_guards_widen_the_footprint():
    """A check's row footprint takes in the components the rule's leaf
    guards read, even those its writes and its property leave out.  This
    getRead grants only while something is written, and has no clearance
    check, so it breaks seccond.  seccond reads neither bw nor what getRead
    writes beyond br, yet a row's first leaf, with nothing written, is
    refused while its later leaves are granted: a footprint without bw
    would pass the row on its first leaf.  The sweep must still match the
    naive one."""
    rd = RULE_DEFS["getRead"]
    kept = [c for c in rd.conjuncts if c.name not in ("clearanceDominates", "readBelowWrites")]
    defs = {"getRead": dataclasses.replace(
        rd, conjuncts=(*kept, Conjunct("writesSomething", frozenset({"bw"}), _writes_something)))}
    report = check_obligations(SMALL, rule="getRead", rule_defs=defs)
    naive, states = naive_check(SMALL, rule_defs=defs, rules=("getRead",))
    _assert_matches_naive(report, naive, states)
    assert report.results[PROPERTY_ORDER.index("seccond")].status == "fail"


def _writes_another_object(st, req):
    return any(o != req.o for _s, o in st.bw)


@pytest.mark.parametrize("guard", [_writes_something, _writes_another_object],
                         ids=["something", "another-object"])
@pytest.mark.parametrize("rule", ["changeClass", "deleteObject"])
def test_bw_blind_checks_fail_on_a_later_leaf(rule, guard):
    """A check is bw-blind when its property reads no bw and the rule
    writes none: a request's verdict is then the same on every leaf of a
    row that grants it, and the check is decided only at the request's
    fresh leaf, the first of the row that grants it.  This mutant grants
    only while something is written, in place of ``objectUnaccessed``, so
    a row's first leaf, with nothing written, is refused, and seccond, a
    bw-blind check of both rules, first fails on a later leaf of its row.
    The second guard grants a request only while an object other than its
    own is written, so a row's leaves grant different requests, and a
    request's fresh leaf need not be the row's first granted leaf.
    Verdicts, first witnesses and visited-state counts must still be those
    of the naive sweep."""
    rd = RULE_DEFS[rule]
    kept = [c for c in rd.conjuncts if c.name != "objectUnaccessed"]
    defs = {rule: dataclasses.replace(
        rd, conjuncts=(*kept, Conjunct(guard.__name__, frozenset({"bw"}), guard)))}
    footprints = checker._row_footprints(defs[rule], ["seccond"])
    assert not footprints["seccond"][1]  # seccond does not walk every leaf
    report = check_obligations(SMALL, rule=rule, rule_defs=defs)
    naive, states = naive_check(SMALL, rule_defs=defs, rules=(rule,))
    _assert_matches_naive(report, naive, states)
    seccond = report.results[PROPERTY_ORDER.index("seccond")]
    assert seccond.status == "fail"
    # every row's first leaf writes nothing
    assert seccond.witness.state.bw


@pytest.mark.parametrize("bounds", [SMALL, BOTH_GROUPS], ids=["one-subject", "two-subjects"])
def test_leaf_stage_is_decided_once_per_key(bounds, monkeypatch):
    """A row's leaf-stage verdicts depend only on its leaf-stage key: the
    granted mask, the bw mask and the row's ids at the other components
    its leaf guards read (``_RulePlan.leaf_key``).  For every rule, each
    entry of its plan's table (``leaf_stage``) equals the per-leaf
    ``_granted`` answers, with their fresh requests, of every row of the
    representative subtrees whose key it is.  The sweep computes each entry
    once, calling ``_granted`` on the leaf guards once per leaf of that
    row, so a hit calls none.  For a rule without leaf guards an entry is
    every leaf of the row with the whole granted mask, fresh at the first
    leaf.  Only giveRW at one subject, whose pair stage grants nothing,
    keeps an empty table."""
    plans = {}
    computed = collections.Counter()
    leaf_calls = collections.Counter()
    init = checker._RulePlan.__init__
    granted = checker._granted
    leaf_stage = checker._RulePlan._leaf_stage

    def recording(plan, *args):
        init(plan, *args)
        plans[plan.rule] = plan

    def counting(guards, *args):
        leaf_calls.update(rule for rule, plan in plans.items() if guards is plan.leaf_guards)
        return granted(guards, *args)

    def computing(plan, mask, bw_subs, *ids):
        computed[plan.rule] += 1
        return leaf_stage(plan, mask, bw_subs, *ids)

    monkeypatch.setattr(checker._RulePlan, "__init__", recording)
    monkeypatch.setattr(checker, "_granted", counting)
    monkeypatch.setattr(checker._RulePlan, "_leaf_stage", computing)
    u = _Universe(bounds)
    for task in _sweep_tasks(u, RULE_DEFS, checker.ALL_OBLIGATIONS, 1):
        checker._sweep_range(u, RULE_DEFS, *task)
    monkeypatch.setattr(checker, "_granted", granted)

    shift = u.row_layout[0]
    n_fo = len(u.fo_options)
    assert sorted(plans) == sorted(RULE_ORDER)
    for rule, plan in plans.items():
        assert computed[rule] == len(plan.leaf_stage)
        if not plan.leaf_stage:
            assert rule == "giveRW" and bounds.num_subjects == 1 and not leaf_calls[rule]
            continue
        rows_of_keys = 0
        leaves_of_keys = {}
        for combo in u.orbits.reps:
            fs_id, fo_id = divmod(combo, n_fo)
            for mi in u.orbits.m_reps[u.orbits.stabiliser[combo]]:
                mask = admitted_mask(plan, u, combo, mi)
                known = u.m_options[mi][1]
                for br_id, bw_mask, bw_subs in u.subtree(combo, known)[1]:
                    row = (fo_id << shift["fo"] | fs_id << shift["fs"] | mi << shift["m"]
                           | known << shift["known"] | mask << shift["mask"] | bw_mask
                           | br_id << shift["br"])
                    key = row & plan.leaf_key
                    if not mask or key not in plan.leaf_stage:
                        continue
                    expected, before = [], 0
                    for i, (_bw, bw_id) in enumerate(bw_subs):
                        bits = granted(plan.leaf_guards, mask, (br_id, bw_id, fo_id, fs_id, mi),
                                       u, plan.reqs)
                        if bits:
                            expected.append((i, bits, bits & ~before))
                            before |= bits
                    assert plan.leaf_stage[key] == tuple(expected), (rule, combo, mi, br_id)
                    if not plan.leaf_guards:
                        assert expected == [(i, mask, 0 if i else mask)
                                            for i in range(len(bw_subs))]
                    rows_of_keys += 1
                    leaves_of_keys[key] = len(bw_subs)
        # every key stands for a row of these subtrees, most for several;
        # each was computed once, one _granted call per leaf of its row
        assert set(leaves_of_keys) == set(plan.leaf_stage)
        assert rows_of_keys > len(plan.leaf_stage)
        assert leaf_calls[rule] == sum(leaves_of_keys.values())


@pytest.mark.parametrize("rule, conjunct", [("createObject", "objectFresh"),
                                           ("deleteObject", "objectUnaccessed")])
def test_ranges_swept_in_turn_keep_their_own_results(rule, conjunct):
    """A pool worker sweeps its tasks in turn on one universe, here the two
    strides of representative pairs of one rule.  Each stride's result
    must be the one a fresh universe gives it, also for a mutant whose
    checks fail in some strides: nothing one task fills may change
    another's result."""
    defs = {**RULE_DEFS, rule: without_conjunct(RULE_DEFS[rule], conjunct)}
    obligations = [ob for ob in checker.ALL_OBLIGATIONS if ob.rule == rule]
    u = _Universe(SMALL)
    strides = [(0, 2), (1, 2)]
    in_turn = [checker._sweep_range(u, defs, obligations, w, k)[0] for w, k in strides]
    fresh = [checker._sweep_range(_Universe(SMALL), defs, obligations, w, k)[0]
             for w, k in strides]
    assert in_turn == fresh
    failing = [[failed for _rule, _prop, failed, *_ in entries] for entries in fresh]
    assert any(map(any, failing)) and not all(map(all, failing))


def test_sweep_tasks_share_no_memo_or_footprint(monkeypatch):
    """A sweep task's plan makes its own guard memos, leaf-stage table,
    effect memo and footprint sets, and the universe keeps none of them.
    Two strides of one rule swept in turn on one universe fill their own,
    and share no memo and no set; a plan keeps one set per key bits, so
    getRead's frame, once no check is live, takes starprop's.  Once a task has returned, its plan and its
    sets are gone.  A sweep task holds one rule: a list of obligations that
    spans rules, or holds none, raises."""
    made = []
    init = checker._RulePlan.__init__

    def recording(plan, *args):
        init(plan, *args)
        memos = [memo for guards in (plan.pair_guards, plan.matrix_guards, plan.leaf_guards)
                 for _key, memo, _holds in guards]
        sets = list(plan.passed.values())
        # with no check live, the frame's group takes starprop's set
        (starprop,) = [seen for _bits, seen, _every, both, _walk in plan.tracks
                       if "starprop" in [check[0].prop for check in both]]
        live, plan.live = plan.live, []
        plan._set_tracks()
        assert [seen for _bits, seen, *_ in plan.tracks] == [starprop]
        assert plan.tracks[0][1] is starprop and len(plan.passed) == len(sets)
        plan.live = live
        plan._set_tracks()
        made.append((weakref.ref(plan), [*memos, plan.leaf_stage, plan.effects], sets))

    monkeypatch.setattr(checker._RulePlan, "__init__", recording)
    u = _Universe(SMALL)
    obligations = [ob for ob in checker.ALL_OBLIGATIONS if ob.rule == "getRead"]
    for w in (0, 1):
        checker._sweep_range(u, RULE_DEFS, obligations, w, 2)
    (ref_a, memos_a, sets_a), (ref_b, memos_b, sets_b) = made
    # every guard memo, the leaf-stage table and the effect memo were
    # filled; the three checks of getRead passed rows, and its frame, which
    # shares starprop's set, had no turn
    assert all(memos_a) and all(memos_b)
    assert [bool(s) for s in sets_a] == [bool(s) for s in sets_b] == [True, True, True]
    assert not {id(x) for x in memos_a + sets_a} & {id(x) for x in memos_b + sets_b}

    gone = [ref_a, ref_b, *map(weakref.ref, sets_a + sets_b)]
    del made[:], memos_a, sets_a, memos_b, sets_b
    gc.collect()
    assert all(ref() is None for ref in gone)

    spans_two = obligations + [checker.Obligation("getWrite", "seccond")]
    for mixed in (checker.ALL_OBLIGATIONS, spans_two, []):
        with pytest.raises(ValueError, match="one rule"):
            checker._sweep_range(u, RULE_DEFS, mixed, 0, 1)


def test_merged_chunks_keep_the_first_witness():
    """A pool sweeps the task list of ``_sweep_tasks`` and merges the chunk
    results, in whatever order they come, to each obligation's first
    witness in enumeration order (``_merge_chunks``).  For every
    single-conjunct mutant, the tasks of a pool of 1, 2, 4 or 8 workers,
    each swept on a fresh universe, merge, in task order and in reverse,
    to the verdicts, witnesses and visited-state counts of one task over
    all pairs per rule, in rule order: for the mutated rule's obligations,
    split into strides of pairs when the pool has more than one worker,
    and for all sixty, one task per rule, heaviest first.  The giveRW
    mutants that need a giver and a receiver that differ run at two
    subjects."""
    failures = 0
    for rule in RULE_ORDER:
        own = [ob for ob in checker.ALL_OBLIGATIONS if ob.rule == rule]
        for conjunct in RULE_DEFS[rule].conjuncts:
            bounds = BOTH_GROUPS if (rule, conjunct.name) in NEEDS_TWO_SUBJECTS else SMALL
            defs = {**RULE_DEFS, rule: without_conjunct(RULE_DEFS[rule], conjunct.name)}
            u = _Universe(bounds)
            for obligations in (own, checker.ALL_OBLIGATIONS):
                whole, _times = checker._merge_chunks(u, obligations, [
                    checker._sweep_range(u, defs, [ob for ob in obligations if ob.rule == r],
                                         0, 1)
                    for r in RULE_ORDER if any(ob.rule == r for ob in obligations)])
                for workers in (1, 2, 4, 8):
                    chunks = [checker._sweep_range(_Universe(bounds), defs, *task)
                              for task in _sweep_tasks(u, defs, obligations, workers)]
                    for ordered in (chunks, chunks[::-1]):
                        merged, _times = checker._merge_chunks(u, obligations, ordered)
                        assert merged == whole, (rule, conjunct.name, len(obligations), workers)
            failures += sum(failed for failed, _w, _states in whole.values())
    assert failures == sum(map(len, MUTATION_MATRIX.values()))


def test_sweep_tasks_by_rule_heaviest_first(monkeypatch):
    """The exhaustive sweep's tasks (``_sweep_tasks``): each selected
    obligation sits in exactly one rule's tasks; a rule keeps the whole
    pair range when the check selects at least as many rules as the pool
    has workers, and is otherwise split into ceil(workers / rules) strides
    of the representative pairs, none of them empty, that cover every
    representative pair exactly once.  The heaviest rules come first,
    those with a track in use whose footprint reads m, since they walk
    every matrix of a pair, not one per (known mask, granted mask) class;
    the rest follow in ``RULE_ORDER``.  With all sixty obligations
    rescindRead and rescindWrite lead.  With starprop alone giveRW leads:
    it frames starprop, and its frame's footprint holds the m it writes.
    No plan is built to find that order."""
    u = _Universe(SMALL)
    n_reps = len(u.orbits.reps)
    selections = [checker.ALL_OBLIGATIONS,
                  [ob for ob in checker.ALL_OBLIGATIONS if ob.prop == "starprop"],
                  [ob for ob in checker.ALL_OBLIGATIONS if ob.rule == "deleteObject"]]
    orders = []
    for obligations in selections:
        selected = {}
        for ob in obligations:
            selected.setdefault(ob.rule, []).append(ob)
        heavy = [rule for rule in selected if checker._RulePlan(
            RULE_DEFS[rule], [checker._ObState(*ob) for ob in selected[rule]], u).every_matrix]
        for workers in (1, 2, 4, 8, 16):
            tasks = _sweep_tasks(u, RULE_DEFS, obligations, workers)
            rules = list(dict.fromkeys(task[0][0].rule for task in tasks))
            assert rules == heavy + [r for r in RULE_ORDER if r in selected and r not in heavy]
            for rule in rules:
                own = [task for task in tasks if task[0][0].rule == rule]
                assert all(list(task[0]) == selected[rule] for task in own)
                strides = [(w, k) for _obs, w, k in own]
                k = len(strides)
                assert k == min(math.ceil(workers / len(rules)), n_reps)
                assert (k == 1) == (len(rules) >= workers)
                assert strides == [(w, k) for w in range(k)]
                covered = [combo for w, k in strides for combo in u.orbits.reps[w::k]]
                assert sorted(covered) == list(u.orbits.reps)
                assert all(u.orbits.reps[w::k] for w, k in strides)
            # a rule's tasks are consecutive
            assert [task[0][0].rule for task in tasks] == [r for r in rules for _ in strides]
        orders.append(rules)
    assert orders[0][:3] == ["rescindRead", "rescindWrite", "getRead"]
    assert orders[1] == ["giveRW"] + [r for r in RULE_ORDER if r != "giveRW"]

    def no_plan(*_args):
        raise AssertionError("a plan built to order the rules")

    expected = [[_sweep_tasks(u, RULE_DEFS, obligations, workers) for workers in (1, 2, 16)]
                for obligations in selections]
    monkeypatch.setattr(checker, "_RulePlan", no_plan)
    assert [[_sweep_tasks(u, RULE_DEFS, obligations, workers) for workers in (1, 2, 16)]
            for obligations in selections] == expected
    assert _sweep_tasks(u, RULE_DEFS, selections[2], 1) == [(selections[2], 0, 1)]


# the conjuncts that read none of br, bw and m: the pair guard stage
PAIR_STAGE = {("getRead", "objectClassified"), ("getRead", "clearanceDominates"),
              ("getWrite", "objectClassified"), ("changeClass", "objectClassified"),
              ("giveRW", "modeGivable")}


def _entering(monkeypatch, current):
    """Patch ``_RulePlan.sweep`` so that ``current`` holds the (rule, pair)
    being swept, and is empty outside a sweep."""
    sweep = checker._RulePlan.sweep

    def entering(plan, combo, m_reps):
        current.append((plan.rule, combo))
        try:
            return sweep(plan, combo, m_reps)
        finally:
            current.pop()

    monkeypatch.setattr(checker._RulePlan, "sweep", entering)


@pytest.mark.parametrize("bounds", [SMALL, BOTH_GROUPS], ids=["one-subject", "two-subjects"])
def test_pair_stage_runs_once_per_pair(bounds, monkeypatch):
    """A conjunct that reads none of br, bw and m is decided once per
    (rule, representative pair): its memo is looked up at most once while
    the rule sweeps the pair, whatever the pair's matrices.  The conjuncts
    of the other stages are looked up per matrix or per leaf."""
    current = []
    _entering(monkeypatch, current)
    lookups = collections.Counter()

    class Memo(dict):
        def __init__(self, conjunct):
            super().__init__()
            self.conjunct = conjunct

        def get(self, key, default=None):
            lookups[(*current[-1], self.conjunct)] += 1
            return super().get(key, default)

    init = checker._RulePlan.__init__

    def with_memos(plan, rd, *args):
        init(plan, rd, *args)
        name = {c.holds: c.name for c in rd.conjuncts}
        assert len(name) == len(rd.conjuncts)
        for guards in (plan.pair_guards, plan.matrix_guards, plan.leaf_guards):
            guards[:] = [(key, Memo(name[holds]), holds) for key, _memo, holds in guards]

    monkeypatch.setattr(checker._RulePlan, "__init__", with_memos)
    u = _Universe(bounds)
    assert PAIR_STAGE == {(rule, c.name) for rule, rd in RULE_DEFS.items()
                          for c in rd.conjuncts if not c.reads & {"br", "bw", "m"}}
    for task in _sweep_tasks(u, RULE_DEFS, checker.ALL_OBLIGATIONS, 1):
        checker._sweep_range(u, RULE_DEFS, *task)
    assert {rule for rule, _combo, _c in lookups} == set(RULE_ORDER)
    once = [n for (rule, _combo, c), n in lookups.items() if (rule, c) in PAIR_STAGE]
    assert once and max(once) == 1
    assert max(n for (rule, _combo, c), n in lookups.items() if (rule, c) not in PAIR_STAGE) > 1


def test_refused_pairs_fetch_no_table(monkeypatch):
    """A rule whose pair guard stage grants nothing on a pair fetches no
    hypothesis table (``_Universe.subtree``) of that pair while it sweeps
    it: the stage is decided before any matrix of the pair."""
    current = []
    _entering(monkeypatch, current)
    fetched = set()
    subtree = _Universe.subtree

    def fetching(u, combo, known):
        if current:
            fetched.add(current[-1])
        return subtree(u, combo, known)

    monkeypatch.setattr(_Universe, "subtree", fetching)
    u = _Universe(SMALL)
    tasks = _sweep_tasks(u, RULE_DEFS, checker.ALL_OBLIGATIONS, 1)
    assert sorted(obligations[0].rule for obligations, _w, _k in tasks) == sorted(RULE_ORDER)
    for task in tasks:
        checker._sweep_range(u, RULE_DEFS, *task)
    # every rule fetched a table, but giveRW, which needs two subjects
    assert {rule for rule, _combo in fetched} == set(RULE_ORDER) - {"giveRW"}
    refused = set()
    for rule in RULE_ORDER:
        plan = checker._RulePlan(RULE_DEFS[rule], [], u)
        for combo in u.orbits.reps:
            fs_id, fo_id = divmod(combo, len(u.fo_options))
            if plan.pair_guards and not checker._granted(
                    plan.pair_guards, plan.all_requests,
                    (plan.empty, plan.empty, fo_id, fs_id, 0), u, plan.reqs):
                refused.add((rule, combo))
    # giveRW's modeGivable reads nothing of the state, and grants the
    # givable modes everywhere
    assert {rule for rule, _combo in refused} == {"getRead", "getWrite", "changeClass"}
    assert fetched and not fetched & refused


def test_every_swept_rule_reports_its_time(monkeypatch):
    """``elapsed_ms`` stays measured: the sweep times each task with one
    clock pair, and with one worker each rule is one task.  Every rule
    reports a positive time, shared by its obligations, and the ten times
    add up to no more than the check took."""
    reads = []
    clock = time.perf_counter

    def counting():
        reads.append(None)
        return clock()

    monkeypatch.setattr(checker, "time", types.SimpleNamespace(perf_counter=counting))
    t0 = time.perf_counter()
    report = check_obligations(SMALL)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert len(reads) == 2 * len(RULE_ORDER)
    times = collections.defaultdict(set)
    for r in report.results:
        times[r.rule].add(r.elapsed_ms)
    assert list(times) == list(RULE_ORDER)
    assert all(len(t) == 1 and min(t) > 0 for t in times.values())
    assert sum(t.pop() for t in times.values()) <= wall_ms


# --- random mode -------------------------------------------------------------

def test_random_mode_reproducible():
    a = check_obligations(SMALL, mode=MODE_RANDOM, samples=300, seed=123)
    b = check_obligations(SMALL, mode=MODE_RANDOM, samples=300, seed=123)
    strip = lambda rep: [
        (r.rule, r.prop, r.status, r.states_checked, r.witness) for r in rep.results
    ]
    assert strip(a) == strip(b)
    assert a.all_pass


def test_random_mode_seeds_differ():
    a = check_obligations(SMALL, mode=MODE_RANDOM, samples=50, seed=1,
                          rule="getRead", prop="seccond")
    b = check_obligations(SMALL, mode=MODE_RANDOM, samples=50, seed=2,
                          rule="getRead", prop="seccond")
    assert a.results[0].status == b.results[0].status == "pass"


def test_random_sampler_respects_the_hypothesis():
    import random as _random

    from blpcheck.checker import _Universe, _random_pairs

    for strict, star, seed in ((False, star_prop, 11), (True, strict_star_prop, 12)):
        u = _Universe(SMALL, strict_star=strict)
        reqs = u.requests["getRead"]
        draws = _random_pairs(_random.Random(seed), u, reqs)
        for st, req in itertools.islice(draws, 300):
            assert well_formed(st) and sec_cond(st) and star(st)
            assert req in reqs


def _reference_random_state(rng, u):
    """The random sampler written out from its definition: (fs, fo) and the
    matrix drawn with ``rng.choice`` from the universe's option lists, each
    drawn subtree's access sets listed afresh, and (br, bw) drawn until the
    leaf satisfies the *-property (at most 64 tries per subtree)."""
    b = u.bounds

    def subsets(items, cap):
        return [c for size in range(min(cap, len(items)) + 1)
                for c in itertools.combinations(items, size)]

    while True:
        fs = rng.choice(u.fs_options)
        fo = rng.choice(u.fo_options)
        m = rng.choice(u.m_options)[0]
        known = {o for (o, _s, _x) in m}
        fs_map, fo_map = dict(fs), dict(fo)
        readable = [(s, o) for (s, o) in u.pairs
                    if o in known and s in fs_map and o in fo_map
                    and class_leq(fo_map[o], fs_map[s])]
        writable = [(s, o) for (s, o) in u.pairs
                    if o in known and (o in fo_map or not u.strict_star)]
        br_subs = subsets(readable, b.max_br)
        bw_subs = subsets(writable, b.max_bw)
        for _ in range(64):
            st = SystemState(rng.choice(br_subs), rng.choice(bw_subs), fo, fs, m)
            if star_prop(st):
                return st


@pytest.mark.parametrize("bounds,strict", [
    (SMALL, False), (P0, False), (P0, True), (Bounds(2, 2, 1, 2, 2, 2, 2), False),
])
def test_random_sampler_draws_are_unchanged(bounds, strict):
    """``_random_pairs``, which random mode draws from, reads its tables by
    index and mask and inlines ``rng._randbelow``'s ``getrandbits`` loop,
    but makes the same generator calls as the sampler it replaced: a
    state, then ``rng.randrange(len(reqs))`` for the request.  So seeded
    random reports and their witnesses stay what they were."""
    import random as _random

    from blpcheck.checker import _random_pairs

    u = _Universe(bounds, strict_star=strict)
    reqs = u.requests["giveRW"]
    rng_ref, rng = _random.Random(2020), _random.Random(2020)
    expected = []
    for _ in range(2000):
        st = _reference_random_state(rng_ref, u)
        expected.append((st, reqs[rng_ref.randrange(len(reqs))]))
    assert list(itertools.islice(_random_pairs(rng, u, reqs), 2000)) == expected
    assert rng.getstate() == rng_ref.getstate()


def test_random_mode_finds_mutant():
    mutated = {"getWrite": without_conjunct(RULE_DEFS["getWrite"], "readsBelowObject")}
    rep = check_obligations(
        SMALL, mode=MODE_RANDOM, samples=3000, seed=7,
        rule="getWrite", prop="starprop", rule_defs=mutated,
    )
    assert rep.results[0].status == "fail"


# --- the strict *-property ---------------------------------------------------

def test_strict_star_prop_examples():
    # nothing written: an unclassified read object is tolerated
    st1 = make_state(br=[("s1", "o9")], m=[("o9", "s1", "read")])
    assert strict_star_prop(st1)
    # something written elsewhere: now the unclassified read object matters
    st2 = make_state(
        br=[("s1", "o9")], bw=[("s2", "o1")],
        fo={"o1": sec_class(0)},
        m=[("o9", "s1", "read"), ("o1", "s2", "write")],
    )
    assert star_prop(st2)  # distinct subjects: weak form is satisfied
    assert not strict_star_prop(st2)
    # written objects must always be classified
    st3 = make_state(bw=[("s1", "o1")], m=[("o1", "s1", "write")])
    assert not strict_star_prop(st3)


def test_strict_implies_weak():
    for st in enumerate_states(TINY):
        if strict_star_prop(st):
            assert star_prop(st)


def test_strict_flag_changes_hypothesis_space():
    rep = check_obligations(SMALL, rule="releaseRead", prop="seccond",
                            strict_star=True)
    weak = check_obligations(SMALL, rule="releaseRead", prop="seccond")
    assert rep.results[0].status == "pass"
    assert rep.results[0].states_checked < weak.results[0].states_checked


# --- partition analysis ------------------------------------------------------

def naive_partition(rule, variant, b):
    """Reference analyzer: every clause guard on every (state, request)."""
    clauses = rule_clauses(rule, variant)
    reqs = requests_for_rule(rule, b)
    gaps, overlaps = [], []
    for st in enumerate_states(b):
        for req in reqs:
            fired = [cl.name for cl in clauses if cl.guard(st, req)]
            if not fired:
                gaps.append((st, req))
            elif len(fired) > 1:
                overlaps.append((st, req, tuple(itertools.combinations(fired, 2))))
    return gaps, overlaps


def projected_states(rule, b):
    """The enumerated states a partition analysis of ``rule`` covers: the
    components no conjunct reads (and m, when br or bw is read) held at
    their first option, ()."""
    reads = set().union(*(c.reads for c in RULE_DEFS[rule].conjuncts))
    if reads & {"br", "bw"}:
        reads.add("m")
    unread = {"br", "bw", "fo", "fs", "m"} - reads
    return [
        st for st in enumerate_states(b)
        if all(getattr(st, comp) == () for comp in unread)
    ]


@pytest.mark.parametrize("rule", RULE_ORDER)
def test_partition_fixed_matches_naive(rule):
    report = check_partition(rule, "fixed", TINY)
    gaps, overlaps = naive_partition(rule, "fixed", TINY)
    assert report.ok == (not gaps and not overlaps)
    assert not report.gap_families and not report.overlap_families
    # counts refer to the projected space
    reduced = projected_states(rule, TINY)
    assert report.states_checked == len(reduced)
    assert report.requests_checked == len(reduced) * len(requests_for_rule(rule, TINY))


@pytest.mark.parametrize("bounds", [SMALL, Bounds(1, 2, 1, 2, 1, 2, 2)],
                         ids=["small", "categories"])
def test_partition_census_matches_enumeration(bounds):
    """``check_partition`` counts its inputs in closed form, from the
    matrices' known pairs, without enumerating them.  For every clause
    table the count must be that of the projected enumeration.  The second
    bound has two categories and unequal br and bw caps."""
    tables = [(rule, "fixed") for rule in RULE_ORDER] + [("giveRW", "paperFaithful")]
    for rule, variant in tables:
        report = check_partition(rule, variant, bounds)
        n_states = len(projected_states(rule, bounds))
        assert report.states_checked == n_states, (rule, variant)
        assert report.requests_checked == n_states * len(requests_for_rule(rule, bounds))


def test_partition_paper_faithful_matches_naive():
    report = check_partition("giveRW", "paperFaithful", SMALL)
    gaps, overlaps = naive_partition("giveRW", "paperFaithful", SMALL)
    assert bool(report.gap_families) == bool(gaps)
    # every engine witness appears in the naive gap set
    naive_gaps = set(gaps)
    for w in report.gaps:
        assert (w.state, w.request) in naive_gaps
    naive_pairs = {p for (_s, _r, pairs) in overlaps for p in pairs}
    assert {f.clause_pair for f in report.overlap_families} == naive_pairs


def test_partition_reduced_space_counts_match_naive():
    """Counts refer to the projected space: fix the unread components to
    their first option in the naive sweep and the numbers must agree."""
    report = check_partition("giveRW", "paperFaithful", SMALL)
    clauses = rule_clauses("giveRW", "paperFaithful")
    reqs = requests_for_rule("giveRW", SMALL)
    reduced = [
        st for st in enumerate_states(SMALL)
        if st.fs == () and st.fo == () and st.br == () and st.bw == ()
    ]
    assert report.states_checked == len(reduced)
    count = 0
    for st in reduced:
        for req in reqs:
            if not any(cl.guard(st, req) for cl in clauses):
                count += 1
    assert sum(f.count for f in report.gap_families) == count


def test_partition_gap_signature_and_witness():
    report = check_partition("giveRW", "paperFaithful", P0)
    assert len(report.gap_families) == 1
    (fam,) = report.gap_families
    assert dict(fam.signature) == {
        "modeGivable": True,
        "giverHasMode": True,
        "giverHasCtrl": True,
        "receiverLacksMode": False,
    }
    hits = [
        w for w in fam.witnesses
        if w.request.x == "read"
        and {(w.request.o, w.request.giver, "ctrl"),
             (w.request.o, w.request.giver, "read"),
             (w.request.o, w.request.receiver, "read")} <= set(w.state.m)
    ]
    assert hits, "expected a witness with ctrl+read for the giver, read for the receiver"


def test_partition_determinism():
    a = check_partition("giveRW", "paperFaithful", SMALL)
    b = check_partition("giveRW", "paperFaithful", SMALL)
    assert a.gap_families == b.gap_families
    assert a.overlap_families == b.overlap_families


def test_partition_rejects_unknowns():
    with pytest.raises(ValueError):
        check_partition("noSuchRule", "fixed", TINY)
    with pytest.raises(ValueError):
        check_partition("getWrite", "noSuchVariant", TINY)


# --- report plumbing ---------------------------------------------------------

def test_report_witness_fields_are_self_checking():
    mutated = {"getWrite": without_conjunct(RULE_DEFS["getWrite"], "readsBelowObject")}
    rep = check_obligations(SMALL, rule="getWrite", rule_defs=mutated)
    failed = [r for r in rep.results if r.status == "fail"]
    assert failed
    for r in failed:
        assert r.witness is not None
        assert not PROPERTY_FUNCS[r.prop](r.witness.after)
    for r in rep.results:
        if r.status == "pass":
            assert r.witness is None


def test_obligation_count_is_sixty():
    rep = check_obligations(TINY)
    assert len(rep.results) == 60
    assert {(r.rule, r.prop) for r in rep.results} == {
        (rule, prop) for rule in RULE_ORDER for prop in PROPERTY_ORDER
    }


def test_strict_star_obligations_pass_at_small_bounds():
    # the security-condition hypothesis already forces read objects to be
    # classified, so the stricter reading holds across all sixty too
    assert check_obligations(SMALL, strict_star=True).all_pass


def _crashing_def(rule="releaseRead", conjunct="currentlyReading"):
    rd = RULE_DEFS[rule]
    crash = lambda st, r: (_ for _ in ()).throw(ZeroDivisionError("boom"))
    return dataclasses.replace(rd, conjuncts=tuple(
        dataclasses.replace(c, holds=crash) if c.name == conjunct else c
        for c in rd.conjuncts
    ))


def test_evaluation_failure_identifies_the_pair():
    cases = (
        ("releaseRead", "currentlyReading", "ReleaseRead("),  # br stage
        ("getRead", "readBelowWrites", "GetRead("),  # leaf stage
    )
    for rule, conjunct, request_type in cases:
        with pytest.raises(RuntimeError) as exc:
            check_obligations(TINY, rule=rule,
                              rule_defs={rule: _crashing_def(rule, conjunct)})
        msg = str(exc.value)
        assert "state=" in msg and "request=" in msg
        assert request_type in msg and "request=None" not in msg
        assert isinstance(exc.value.__cause__, ZeroDivisionError)


def test_frame_violation_is_reported():
    # getRead changes br; declaring bw instead must stop the sweep, since
    # the framed verdicts and the memo keys rely on the undeclared
    # components being the hypothesis state's own; so must a check of
    # seccond alone, which reads no bw and so is framed: the frame's track
    # still sweeps the rows
    lying = dataclasses.replace(RULE_DEFS["getRead"], writes=frozenset({"bw"}))
    for prop in (None, "seccond"):
        with pytest.raises(RuntimeError) as exc:
            check_obligations(TINY, rule="getRead", prop=prop, rule_defs={"getRead": lying})
        msg = str(exc.value)
        assert "getRead" in msg and "'br'" in msg
        assert "GetRead(" in msg and "state=SystemState(" in msg
    # rescindWrite has no leaf guards, and writes m and bw; declaring bw
    # alone, a check of fsFunctional, which no rule writes, leaves the
    # frame's track alone, which walks every leaf of a row from the
    # leaf-stage table and must still meet the undeclared m write
    lying = dataclasses.replace(RULE_DEFS["rescindWrite"], writes=frozenset({"bw"}))
    for bounds in (SMALL, BOTH_GROUPS):
        with pytest.raises(RuntimeError) as exc:
            check_obligations(bounds, rule="rescindWrite", prop="fsFunctional",
                              rule_defs={"rescindWrite": lying})
        msg = str(exc.value)
        assert "rescindWrite" in msg and "'m'" in msg
        assert "RescindWrite(" in msg and "state=SystemState(" in msg


def test_random_evaluation_failure_identifies_the_pair():
    with pytest.raises(RuntimeError) as exc:
        check_obligations(TINY, mode=MODE_RANDOM, samples=5, seed=0,
                          rule="releaseRead",
                          rule_defs={"releaseRead": _crashing_def()})
    assert "request=" in str(exc.value)
