"""The ten transition rules: worked examples, the frame condition, inverse
pairs, clause tables, the declared dependencies of guards, effects and
invariants, and symmetry under renaming."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blpcheck import (
    NO,
    YES,
    apply_rule,
    change_class,
    create_object,
    delete_object,
    get_read,
    get_write,
    give_rw,
    make_state,
    release_access,
    rescind_access,
    rule_clauses,
    run_clauses,
    sec_class,
    strict_star_prop,
    well_formed,
)
from blpcheck.checker import _Renaming
from blpcheck.core import (
    CTRL,
    MATRIX_MODES,
    PROPERTY_FUNCS,
    PROPERTY_READS,
    PROPERTY_STARPROP,
    READ,
    WRITE,
    class_leq,
    lookup_class,
    matrix_objects,
)
from blpcheck.rules import (
    FIELD_CLASS,
    FIELD_MODE,
    FIELD_OBJECT,
    FIELD_SUBJECT,
    REQUEST_TYPES,
    RULE_DEFS,
    RULE_OF_REQUEST,
    RULE_ORDER,
    VARIANTS,
    ChangeClass,
    CreateObject,
    DeleteObject,
    GetRead,
    GetWrite,
    GiveRW,
    NoApplicableClause,
    ReleaseRead,
    ReleaseWrite,
    RescindRead,
    RescindWrite,
    apply_def,
    request_fields,
    without_conjunct,
)

from conftest import (
    CATEGORIES,
    OBJECTS,
    SUBJECTS,
    classes,
    fresh_indexes,
    kept_indexes,
    raw_states,
    relational_states,
    rename_request,
    rename_state,
    unordered_states,
    well_formed_states,
)


def all_requests():
    subjects = st.sampled_from(("s1", "s2"))
    objects = st.sampled_from(("o1", "o2", "o3"))
    modes = st.sampled_from((READ, WRITE, CTRL))
    return st.one_of(
        st.builds(GetRead, subjects, objects),
        st.builds(GetWrite, subjects, objects),
        st.builds(ReleaseRead, subjects, objects),
        st.builds(ReleaseWrite, subjects, objects),
        st.builds(GiveRW, subjects, subjects, objects, modes),
        st.builds(RescindRead, subjects, subjects, objects),
        st.builds(RescindWrite, subjects, subjects, objects),
        st.builds(ChangeClass, objects, classes()),
        st.builds(CreateObject, subjects, objects, classes()),
        st.builds(DeleteObject, subjects, objects),
    )


# --- worked examples, one block per rule ------------------------------------

def test_get_write_examples(demo_state):
    out = get_write(demo_state, "s2", "o2")
    assert (out.decision, out.after.bw) == (YES, (("s2", "o2"),))
    out = get_write(demo_state, "s2", "o1")
    assert (out.decision, out.after.bw) == (YES, (("s2", "o1"),))
    already = demo_state._replace(bw=(("s2", "o2"),))
    out = get_write(already, "s2", "o2")
    assert (out.decision, out.after, out.clause) == (NO, already, "getWriteE2")


def test_get_write_has_no_clearance_check(demo_state):
    # s1 holds no clearance for o2's class, yet write-only access only needs
    # the matrix bit: write is append-like under the two-mode reading.
    granted = demo_state._replace(
        m=demo_state.m + (("o2", "s1", "write"),))
    out = get_write(make_state(br=granted.br, bw=granted.bw, fo=granted.fo,
                               fs=granted.fs, m=granted.m), "s1", "o2")
    assert out.decision == YES


def test_get_read_examples(demo_state):
    step1 = get_write(demo_state, "s2", "o2")
    out = get_read(step1.after, "s2", "o2")
    assert (out.decision, out.after.br) == (YES, (("s2", "o2"),))
    assert out.after.bw == (("s2", "o2"),)

    step1 = get_write(demo_state, "s2", "o1")
    out = get_read(step1.after, "s2", "o2")
    assert (out.decision, out.clause) == (NO, "getReadE5")
    assert out.after.br == ()

    out = get_read(demo_state, "s1", "o2")  # no (o2, s1, read) grant
    assert (out.decision, out.after, out.clause) == (NO, demo_state, "getReadE1")


def test_get_read_checks_clearance(demo_state):
    granted = demo_state._replace(m=demo_state.m + (("o2", "s1", "read"),))
    out = get_read(granted, "s1", "o2")
    assert (out.decision, out.clause) == (NO, "getReadE4")


def test_release_examples(demo_state):
    reading = demo_state._replace(br=(("s2", "o2"),))
    out = release_access(reading, "s2", "o2", READ)
    assert (out.decision, out.after.br) == (YES, ())
    out = release_access(demo_state, "s2", "o2", READ)
    assert (out.decision, out.after) == (NO, demo_state)
    writing = demo_state._replace(bw=(("s2", "o1"),))
    out = release_access(writing, "s2", "o1", WRITE)
    assert (out.decision, out.after.bw) == (YES, ())
    with pytest.raises(ValueError):
        release_access(demo_state, "s2", "o2", CTRL)


def test_give_rw_examples():
    already = make_state(
        m=[("o1", "s1", "read"), ("o1", "s1", "ctrl"), ("o1", "s2", "read")]
    )
    out = give_rw(already, "s1", "s2", "o1", "read")
    assert (out.decision, out.after, out.clause) == (NO, already, "giveRWE4")

    out = give_rw(already, "s1", "s2", "o1", "ctrl")
    assert (out.decision, out.clause) == (NO, "giveRWE1")  # ctrl not givable

    givable = make_state(m=[("o1", "s1", "read"), ("o1", "s1", "ctrl")])
    out = give_rw(givable, "s1", "s2", "o1", "read")
    assert out.decision == YES
    assert ("o1", "s2", "read") in out.after.m
    assert len(out.after.m) == 3


def test_rescind_examples():
    st_ = make_state(
        br=[("s2", "o1")],
        m=[("o1", "s1", "ctrl"), ("o1", "s2", "read")],
    )
    out = rescind_access(st_, "s1", "s2", "o1", READ)
    assert out.decision == YES
    assert ("o1", "s2", "read") not in out.after.m
    assert out.after.br == ()

    # s2 holds no ctrl over o1
    out = rescind_access(st_, "s2", "s1", "o1", READ)
    assert (out.decision, out.clause) == (NO, "rescindReadE1")

    # target holds no write bit
    out = rescind_access(st_, "s1", "s2", "o1", WRITE)
    assert (out.decision, out.clause) == (NO, "rescindWriteE2")


def test_rescind_write_clears_current_access():
    st_ = make_state(
        bw=[("s2", "o1")],
        m=[("o1", "s1", "ctrl"), ("o1", "s2", "write")],
    )
    out = rescind_access(st_, "s1", "s2", "o1", WRITE)
    assert out.decision == YES
    assert out.after.bw == ()
    assert ("o1", "s2", "write") not in out.after.m


def test_change_class_examples(demo_state):
    out = change_class(demo_state, "o1", sec_class(0))
    assert out.decision == YES
    assert dict(out.after.fo)["o1"] == sec_class(0)

    accessed = demo_state._replace(br=(("s2", "o1"),))
    out = change_class(accessed, "o1", sec_class(0))
    assert (out.decision, out.after, out.clause) == (NO, accessed, "changeClassE2")

    out = change_class(demo_state, "o9", sec_class(0))  # unclassified object
    assert (out.decision, out.clause) == (NO, "changeClassE1")


def test_create_object_examples(demo_state):
    k = sec_class(1, {"cia"})
    out = create_object(demo_state, "s1", "o3", k)
    assert out.decision == YES
    assert dict(out.after.fo)["o3"] == k
    assert ("o3", "s1", "ctrl") in out.after.m

    out2 = create_object(demo_state, "s1", "o1", k)  # o1 already exists
    assert (out2.decision, out2.after) == (NO, demo_state)

    # the creator holds ctrl, not read: giving read away must fail at E2
    out3 = give_rw(out.after, "s1", "s2", "o3", "read")
    assert (out3.decision, out3.clause) == (NO, "giveRWE2")


def test_delete_object_examples(demo_state):
    k = sec_class(1, {"cia"})
    created = create_object(demo_state, "s1", "o3", k).after
    out = delete_object(created, "s1", "o3")
    assert (out.decision, out.after) == (YES, demo_state)  # exact undo

    out = delete_object(demo_state, "s1", "o2")  # no (o2, s1, ctrl)
    assert (out.decision, out.clause) == (NO, "deleteObjectE1")

    accessed = demo_state._replace(
        br=(("s1", "o1"),), m=demo_state.m + (("o1", "s1", "ctrl"),))
    out = delete_object(accessed, "s1", "o1")
    assert (out.decision, out.clause) == (NO, "deleteObjectE2")


def test_apply_rule_dispatch(demo_state):
    assert apply_rule(demo_state, GetWrite("s2", "o2")) == get_write(
        demo_state, "s2", "o2")
    out = apply_rule(demo_state, ReleaseRead("s1", "o1"))
    assert (out.decision, out.after) == (NO, demo_state)
    # sequential composition: write then read the same object
    mid = apply_rule(demo_state, GetWrite("s2", "o2")).after
    assert apply_rule(mid, GetRead("s2", "o2")).decision == YES


def test_request_union_is_exactly_ten():
    assert len(REQUEST_TYPES) == len(set(REQUEST_TYPES)) == 10
    assert len(RULE_ORDER) == 10


# --- rule properties ---------------------------------------------------------

@given(well_formed_states(), all_requests())
def test_frame_condition(st_, req):
    out = apply_rule(st_, req)
    if out.decision == NO:
        assert out.after is st_


@given(well_formed_states(), all_requests())
def test_determinism_and_single_clause(st_, req):
    out1 = apply_rule(st_, req)
    out2 = apply_rule(st_, req)
    assert out1 == out2
    # exactly one clause guard holds in the fixed tables
    clauses = rule_clauses(_rule_of(req))
    fired = [cl.name for cl in clauses if cl.guard(st_, req)]
    assert fired == [out1.clause]


def _rule_of(req):
    from blpcheck.rules import RULE_OF_REQUEST
    return RULE_OF_REQUEST[type(req)]


@given(well_formed_states(), all_requests())
def test_apply_rule_agrees_with_clause_tables(st_, req):
    table_out = run_clauses(rule_clauses(_rule_of(req)), st_, req)
    assert apply_rule(st_, req) == table_out


@given(well_formed_states(), all_requests())
def test_effect_minimality(st_, req):
    """A normal clause may only touch the components its rule declares."""
    out = apply_rule(st_, req)
    if out.decision == YES:
        writes = RULE_DEFS[_rule_of(req)].writes
        for comp in ("br", "bw", "fo", "fs", "m"):
            if comp not in writes:
                assert getattr(out.after, comp) is getattr(st_, comp)


@given(well_formed_states(), all_requests())
def test_rules_preserve_well_formedness(st_, req):
    assert well_formed(apply_rule(st_, req).after)


@given(well_formed_states())
def test_release_undoes_get(st_):
    for s in ("s1", "s2"):
        for o in ("o1", "o2"):
            got = get_read(st_, s, o)
            if got.decision == YES:
                back = release_access(got.after, s, o, READ)
                assert (back.decision, back.after) == (YES, st_)
            got = get_write(st_, s, o)
            if got.decision == YES:
                back = release_access(got.after, s, o, WRITE)
                assert (back.decision, back.after) == (YES, st_)


@given(well_formed_states(), classes())
def test_delete_undoes_create(st_, k):
    made = create_object(st_, "s1", "o9", k)
    assert made.decision == YES  # o9 is never in the generated universe
    back = delete_object(made.after, "s1", "o9")
    assert (back.decision, back.after) == (YES, st_)


# --- declared dependencies ---------------------------------------------------

_COMPONENTS = ("br", "bw", "fo", "fs", "m")


def _outside(st_a, st_b, comps):
    """``st_a`` with every component outside ``comps`` taken from ``st_b``."""
    return st_a._replace(
        **{comp: getattr(st_b, comp) for comp in _COMPONENTS if comp not in comps}
    )


def _same_objects(st_a, st_b):
    """``st_a`` with another matrix that owns triples of the same objects:
    ``st_b``'s triples of ``st_a``'s matrix objects, and ``st_a``'s own
    triples of the objects that ``st_b``'s matrix leaves out."""
    objects = matrix_objects(st_a)
    kept = [t for t in st_b.m if t[0] in objects]
    missing = objects - {o for o, _s, _x in kept}
    return st_a._replace(m=make_state(m=kept + [t for t in st_a.m if t[0] in missing]).m)


@given(well_formed_states(), well_formed_states(), all_requests())
def test_conjunct_reads_are_honest(st_a, st_b, req):
    """Replacing components a conjunct does not read never changes it.

    The checker's guard memos and the partition projection lean on these
    declarations, so they get pinned here.
    """
    rd = RULE_DEFS[_rule_of(req)]
    for c in rd.conjuncts:
        assert c.holds(st_a, req) == c.holds(_outside(st_a, st_b, c.reads), req)


@given(relational_states(), relational_states())
def test_property_reads_are_honest(st_a, st_b):
    """Replacing the components an invariant does not read never changes
    its verdict, and neither does replacing m by a matrix with the same
    object set when the invariant reads only that view of m (``domM``).
    The checker keys its memo of invariant verdicts on
    ``core.PROPERTY_READS``, decides an obligation whose property reads
    nothing the rule writes from the frame alone, and reads a matrix's
    known mask in place of the matrix where only ``domM`` is read."""
    preds = {**PROPERTY_FUNCS, "strict": strict_star_prop}
    reads = {**PROPERTY_READS, "strict": PROPERTY_READS[PROPERTY_STARPROP]}
    for name, pred in preds.items():
        comps = {"m" if comp == "domM" else comp for comp in reads[name]}
        assert pred(st_a) == pred(_outside(st_a, st_b, comps)), name
        if "m" not in reads[name]:
            assert pred(st_a) == pred(_same_objects(st_a, st_b)), name


@settings(deadline=None)  # each example runs every request
@given(st.one_of(relational_states(), well_formed_states()),
       st.one_of(relational_states(), well_formed_states()))
def test_effects_depend_only_on_their_writes(st_a, st_b):
    """A rule's effect computes each component it writes from that same
    component and the request alone.  The checker calls each effect once
    per (request, written components) and reuses the result on every state
    that shares them, and a check's footprint reads a written component's
    old value for its new one."""
    for req in EVERY_REQUEST:
        rd = RULE_DEFS[RULE_OF_REQUEST[type(req)]]
        after = rd.effect(st_a, req)
        for comp in rd.writes:
            merged_after = rd.effect(_outside(st_a, st_b, {comp}), req)
            assert getattr(merged_after, comp) == getattr(after, comp), (comp, req)


@settings(deadline=None)  # each example runs every request
@given(st.one_of(relational_states(), well_formed_states()),
       st.one_of(relational_states(), well_formed_states()))
def test_new_object_sets_follow_from_the_old(st_a, st_b):
    """A rule that declares ``object_set_local`` computes its new matrix's
    object set from the old matrix's object set and the request alone: a
    matrix with the same objects gives the same new object set.  The
    checker then keys the footprint of a check that reads the new object
    set by the old matrix's known mask, not by the matrix."""
    same = _same_objects(st_a, st_b)
    assert matrix_objects(same) == matrix_objects(st_a)
    for req in EVERY_REQUEST:
        rd = RULE_DEFS[RULE_OF_REQUEST[type(req)]]
        if rd.object_set_local:
            assert (matrix_objects(rd.effect(same, req))
                    == matrix_objects(rd.effect(st_a, req))), req


def test_rescinds_keep_no_object_set_local():
    """Only giveRW, createObject and deleteObject declare
    ``object_set_local``.  A rescind drops one triple, which takes its
    object out of the object set only when the object owns no other
    triple, so its new object set needs the whole old matrix."""
    assert {rd.name for rd in RULE_DEFS.values() if rd.object_set_local} == {
        "giveRW", "createObject", "deleteObject"}
    for req, mode in ((RescindRead("s1", "s1", "o1"), READ),
                      (RescindWrite("s1", "s1", "o1"), WRITE)):
        rd = RULE_DEFS[RULE_OF_REQUEST[type(req)]]
        alone = make_state(m=[("o1", "s1", mode)])
        with_ctrl = make_state(m=[("o1", "s1", mode), ("o1", "s1", CTRL)])
        assert matrix_objects(alone) == matrix_objects(with_ctrl)
        assert not matrix_objects(rd.effect(alone, req))
        assert matrix_objects(rd.effect(with_ctrl, req)) == {"o1"}


@settings(deadline=None)  # each example runs every request
@given(st.one_of(raw_states(), well_formed_states(), relational_states()))
def test_effects_keep_states_canonical(st_):
    """A granted step maps a canonical state (sorted, duplicate-free
    components) to a canonical one, also when a class map binds an entity
    twice.  Effects insert into and remove from br, bw, fo and m by
    bisection and never re-sort, so they rely on this."""
    for req in EVERY_REQUEST:
        out = apply_rule(st_, req)
        if out.decision == YES:
            assert out.after == make_state(*out.after), req


_WITH_MUTANTS = {
    rd.request_type: (rd, *(without_conjunct(rd, c.name) for c in rd.conjuncts))
    for rd in RULE_DEFS.values()
}


@settings(deadline=None)  # each example runs every request on every mutant
@given(st.one_of(raw_states(), well_formed_states(), relational_states()))
def test_steps_keep_indexes_equal_to_a_fresh_build(st_):
    """The indexes ``core`` keeps for an after state equal a fresh build,
    for every rule and every single-conjunct mutant of it.  The before
    state's indexes are built first, so a step that inserts or removes one
    triple hands them on rather than leaving them to be built; a mutant
    giveRW without receiverLacksMode inserts a triple the matrix already
    holds."""
    for req in EVERY_REQUEST:
        for rd in _WITH_MUTANTS[type(req)]:
            kept_indexes(st_)
            after = apply_def(rd, st_, req).after
            assert kept_indexes(after) == fresh_indexes(after), (rd, req)


# --- clause tables -----------------------------------------------------------

def test_rule_clauses_shapes():
    gw = rule_clauses("getWrite", "fixed")
    assert [cl.name for cl in gw] == [
        "getWriteOk", "getWriteE1", "getWriteE2", "getWriteE3", "getWriteE4"]
    gr = rule_clauses("getRead")
    assert len(gr) == 6 and gr[0].decision == YES
    assert all(cl.decision == NO for cl in gr[1:])

    faithful = rule_clauses("giveRW", "paperFaithful")
    assert [cl.name for cl in faithful] == [
        "giveRWOk", "giveRWE1", "giveRWE2", "giveRWE3"]
    fixed = rule_clauses("giveRW", "fixed")
    assert [cl.name for cl in fixed] == [
        "giveRWOk", "giveRWE1", "giveRWE2", "giveRWE3", "giveRWE4"]

    for rule in RULE_ORDER:
        if rule != "giveRW":
            assert rule_clauses(rule, "fixed") == rule_clauses(rule, "paperFaithful")

    with pytest.raises(ValueError):
        rule_clauses("noSuchRule")
    with pytest.raises(ValueError):
        rule_clauses("getWrite", "noSuchVariant")


def test_abnormal_clauses_keep_state(demo_state):
    for rule in RULE_ORDER:
        for cl in rule_clauses(rule)[1:]:
            assert cl.effect(demo_state, None) is demo_state


def test_paper_faithful_give_rw_is_not_total():
    uncovered = make_state(
        m=[("o1", "s1", "read"), ("o1", "s1", "ctrl"), ("o1", "s2", "read")]
    )
    req = GiveRW("s1", "s2", "o1", "read")
    with pytest.raises(NoApplicableClause):
        run_clauses(rule_clauses("giveRW", "paperFaithful"), uncovered, req)
    # the fixed table answers no and keeps the state
    out = run_clauses(rule_clauses("giveRW", "fixed"), uncovered, req)
    assert (out.decision, out.after, out.clause) == (NO, uncovered, "giveRWE4")


def test_without_conjunct_mutation_helper():
    rd = RULE_DEFS["getWrite"]
    mutated = without_conjunct(rd, "readsBelowObject")
    assert len(mutated.conjuncts) == len(rd.conjuncts) - 1
    assert [c.name for c in mutated.conjuncts] == [
        "hasWritePermission", "notAlreadyWriting", "objectClassified"]
    with pytest.raises(ValueError):
        without_conjunct(rd, "noSuchGuard")
    # the mutant grants writes the real rule refuses
    st_ = make_state(
        br=[("s1", "o2")],
        fo={"o1": sec_class(0), "o2": sec_class(1)},
        fs={"s1": sec_class(1)},
        m=[("o1", "s1", "write"), ("o2", "s1", "read")],
    )
    req = GetWrite("s1", "o1")
    assert apply_rule(st_, req).decision == NO
    assert apply_def(mutated, st_, req).decision == YES


# --- renaming symmetry -------------------------------------------------------

@st.composite
def renamings(draw):
    """A random element of Sym(SUBJECTS) x Sym(OBJECTS) x Sym(CATEGORIES)."""
    return _Renaming(
        dict(zip(SUBJECTS, draw(st.permutations(SUBJECTS)))),
        dict(zip(OBJECTS, draw(st.permutations(OBJECTS)))),
        dict(zip(CATEGORIES, draw(st.permutations(CATEGORIES)))),
    )


_DOMAINS = {
    FIELD_SUBJECT: SUBJECTS,
    FIELD_OBJECT: OBJECTS,
    FIELD_MODE: MATRIX_MODES,
    FIELD_CLASS: tuple(sec_class(level, cats) for level in range(2)
                       for cats in ((), ("ka",), ("kb",), ("ka", "kb"))),
}
# Every request over the strategies' names, two levels and both categories.
EVERY_REQUEST = tuple(
    rt(*args)
    for rt in REQUEST_TYPES
    for args in itertools.product(*(_DOMAINS[kind] for _name, kind in request_fields(rt)))
)


def _outcome(clauses, st_, req):
    try:
        out = run_clauses(clauses, st_, req)
    except NoApplicableClause:
        return None
    return out.decision, out.clause, out.after


@settings(deadline=None)  # each example runs every request
@given(st.one_of(raw_states(), well_formed_states()), renamings())
def test_rules_and_invariants_commute_with_renaming(st_, g):
    """The exhaustive sweep checks one state per renaming orbit, which is
    sound only if renaming subjects, objects and categories before a step
    gives the renamed result of the step: for every guard conjunct, every
    effect (the rule definition and both clause tables) and every
    invariant."""
    g_st = rename_state(g, st_)
    for name, pred in (*PROPERTY_FUNCS.items(), ("strict", strict_star_prop)):
        assert pred(g_st) == pred(st_), name
    for req in EVERY_REQUEST:
        g_req = rename_request(g, req)
        rule = RULE_OF_REQUEST[type(req)]
        rd = RULE_DEFS[rule]
        for c in rd.conjuncts:
            assert c.holds(g_st, g_req) == c.holds(st_, req), (c.name, req)
        out = apply_def(rd, st_, req)
        g_out = apply_def(rd, g_st, g_req)
        assert (g_out.decision, g_out.clause) == (out.decision, out.clause)
        assert g_out.after == rename_state(g, out.after)
        for variant in VARIANTS:
            clauses = rule_clauses(rule, variant)
            plain = _outcome(clauses, st_, req)
            renamed = _outcome(clauses, g_st, g_req)
            if plain is None:
                assert renamed is None
            else:
                assert renamed == (*plain[:2], rename_state(g, plain[2]))


# --- guards against their scanning definitions -------------------------------

# The guard conjuncts as they were written before the per-component indexes:
# ``fo``/``fs`` scanned by ``lookup_class`` for every key, ``m`` scanned by
# tuple membership.  Keyed by (rule, conjunct name).
def _scan_star_read(st_, r):
    cls_o = lookup_class(st_.fo, r.o)
    if cls_o is None:
        return False
    for (si, oi) in st_.bw:
        if si == r.s:
            cls_i = lookup_class(st_.fo, oi)
            if cls_i is None or not class_leq(cls_o, cls_i):
                return False
    return True


def _scan_star_write(st_, r):
    cls_o = lookup_class(st_.fo, r.o)
    if cls_o is None:
        return False
    for (si, oi) in st_.br:
        if si == r.s:
            cls_i = lookup_class(st_.fo, oi)
            if cls_i is None or not class_leq(cls_i, cls_o):
                return False
    return True


def _scan_clearance(st_, r):
    cls_o = lookup_class(st_.fo, r.o)
    cls_s = lookup_class(st_.fs, r.s)
    return cls_o is not None and cls_s is not None and class_leq(cls_o, cls_s)


def _scan_unaccessed(st_, r):
    return all(o != r.o for (_s, o) in st_.br + st_.bw)


def _scan_classified(st_, r):
    return lookup_class(st_.fo, r.o) is not None


SCANNING_GUARDS = {
    ("getRead", "hasReadPermission"): lambda st_, r: (r.o, r.s, READ) in st_.m,
    ("getRead", "notAlreadyReading"): lambda st_, r: (r.s, r.o) not in st_.br,
    ("getRead", "objectClassified"): _scan_classified,
    ("getRead", "clearanceDominates"): _scan_clearance,
    ("getRead", "readBelowWrites"): _scan_star_read,
    ("getWrite", "hasWritePermission"): lambda st_, r: (r.o, r.s, WRITE) in st_.m,
    ("getWrite", "notAlreadyWriting"): lambda st_, r: (r.s, r.o) not in st_.bw,
    ("getWrite", "objectClassified"): _scan_classified,
    ("getWrite", "readsBelowObject"): _scan_star_write,
    ("releaseRead", "currentlyReading"): lambda st_, r: (r.s, r.o) in st_.br,
    ("releaseWrite", "currentlyWriting"): lambda st_, r: (r.s, r.o) in st_.bw,
    ("giveRW", "modeGivable"): lambda st_, r: r.x in (READ, WRITE),
    ("giveRW", "giverHasMode"): lambda st_, r: (r.o, r.giver, r.x) in st_.m,
    ("giveRW", "giverHasCtrl"): lambda st_, r: (r.o, r.giver, CTRL) in st_.m,
    ("giveRW", "receiverLacksMode"): lambda st_, r: (r.o, r.receiver, r.x) not in st_.m,
    ("rescindRead", "rescinderHasCtrl"): lambda st_, r: (r.o, r.rescinder, CTRL) in st_.m,
    ("rescindRead", "targetHasRead"): lambda st_, r: (r.o, r.target, READ) in st_.m,
    ("rescindWrite", "rescinderHasCtrl"): lambda st_, r: (r.o, r.rescinder, CTRL) in st_.m,
    ("rescindWrite", "targetHasWrite"): lambda st_, r: (r.o, r.target, WRITE) in st_.m,
    ("changeClass", "objectClassified"): _scan_classified,
    ("changeClass", "objectUnaccessed"): _scan_unaccessed,
    ("createObject", "objectFresh"): lambda st_, r: (
        all(o != r.o for (o, _c) in st_.fo) and all(o != r.o for (o, _s, _x) in st_.m)),
    ("deleteObject", "ownerHasCtrl"): lambda st_, r: (r.o, r.s, CTRL) in st_.m,
    ("deleteObject", "objectUnaccessed"): _scan_unaccessed,
}


def test_every_guard_has_a_scanning_definition():
    assert set(SCANNING_GUARDS) == {
        (rd.name, c.name) for rd in RULE_DEFS.values() for c in rd.conjuncts}


@given(st.one_of(unordered_states(), relational_states(), raw_states(),
                 well_formed_states()))
def test_guards_match_their_scanning_definitions(st_):
    for req in EVERY_REQUEST:
        rd = RULE_DEFS[RULE_OF_REQUEST[type(req)]]
        for c in rd.conjuncts:
            assert c.holds(st_, req) == SCANNING_GUARDS[rd.name, c.name](st_, req), (
                c.name, req)
