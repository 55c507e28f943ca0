"""Core predicates: dominance order, the two security invariants, the four
type invariants.  The quantified predicates are differential-tested against
literal double-loop oracles written independently here."""

from hypothesis import event, given
from hypothesis import strategies as st

from blpcheck import (
    class_leq,
    make_state,
    sec_class,
    sec_cond,
    star_prop,
    well_formed,
)
from blpcheck import core
from blpcheck.core import (
    CTRL,
    READ,
    WRITE,
    SecurityClass,
    SystemState,
    class_map,
    fo_classes,
    fo_functional,
    fs_classes,
    fs_functional,
    lookup_class,
    matrix_set,
    matrix_with,
    matrix_without,
    ran_br_in_dom_m,
    ran_bw_in_dom_m,
)

from conftest import (
    OBJECTS,
    SUBJECTS,
    classes,
    fresh_indexes,
    kept_indexes,
    raw_states,
    relational_states,
    unordered_states,
    well_formed_states,
)


# --- dominance order -------------------------------------------------------

def test_class_leq_examples(demo_state):
    low = sec_class(1, {"f14"})
    high = sec_class(2, {"f14", "f15"})
    assert class_leq(low, high)          # levels and categories both below
    assert not class_leq(high, low)      # 2 <= 1 fails
    assert class_leq(low, low)           # reflexive on a sample point


def test_class_leq_needs_category_subset():
    assert not class_leq(sec_class(0, {"x"}), sec_class(5, {"y"}))


@given(classes())
def test_class_leq_reflexive(a):
    assert class_leq(a, a)


@given(classes(), classes(), classes())
def test_class_leq_transitive(a, b, c):
    if class_leq(a, b) and class_leq(b, c):
        assert class_leq(a, c)


@given(classes(), classes())
def test_class_leq_antisymmetric(a, b):
    if class_leq(a, b) and class_leq(b, a):
        assert a == b


# --- security condition ----------------------------------------------------

def test_sec_cond_examples(demo_state):
    assert sec_cond(demo_state)  # br is empty: vacuous
    # s1 reading o2 is a clearance breach: fo(o2)=(2,{f14,f15}) is not
    # dominated by fs(s1)=(1,{cia})
    breached = demo_state._replace(br=(("s1", "o2"),))
    assert not sec_cond(breached)
    # s2 reading o2 is fine
    assert sec_cond(demo_state._replace(br=(("s2", "o2"),)))


def test_sec_cond_missing_classification_is_false(demo_state):
    st_ = make_state(br=[("s1", "o9")], m=[("o9", "s1", "read")],
                     fs={"s1": sec_class(9)})
    assert not sec_cond(st_)  # o9 unclassified: predicate false, no error


def _sec_cond_oracle(st_):
    fs = dict(st_.fs)
    fo = dict(st_.fo)
    for (s, o) in st_.br:
        if s not in fs or o not in fo:
            return False
        if not (fo[o].level <= fs[s].level and fo[o].cats <= fs[s].cats):
            return False
    return True


@given(raw_states())
def test_sec_cond_matches_bruteforce(st_):
    assert sec_cond(st_) == _sec_cond_oracle(st_)


# --- *-property ------------------------------------------------------------

def test_star_prop_examples(demo_state):
    assert star_prop(demo_state)  # bw empty: vacuous
    same_object = demo_state._replace(br=(("s2", "o2"),), bw=(("s2", "o2"),))
    assert star_prop(same_object)  # reflexivity of the order
    downgrade = demo_state._replace(br=(("s2", "o2"),), bw=(("s2", "o1"),))
    assert not star_prop(downgrade)  # class(o2) above class(o1)


def _star_prop_oracle(st_):
    fo = dict(st_.fo)
    for (s1, o1) in st_.br:
        for (s2, o2) in st_.bw:
            if s1 != s2:
                continue
            if o1 not in fo or o2 not in fo:
                return False
            if not (fo[o1].level <= fo[o2].level and fo[o1].cats <= fo[o2].cats):
                return False
    return True


@given(raw_states())
def test_star_prop_matches_bruteforce(st_):
    assert star_prop(st_) == _star_prop_oracle(st_)


@given(raw_states())
def test_star_prop_monotone_under_shrinking(st_):
    """Removing any single current access cannot break a holding *-property."""
    if not star_prop(st_):
        return
    for i in range(len(st_.br)):
        assert star_prop(st_._replace(br=st_.br[:i] + st_.br[i + 1:]))
    for i in range(len(st_.bw)):
        assert star_prop(st_._replace(bw=st_.bw[:i] + st_.bw[i + 1:]))


# --- type invariants / well-formedness --------------------------------------

def test_well_formed_examples(demo_state):
    assert well_formed(demo_state)
    # br pointing at an object without any matrix entry
    assert not well_formed(demo_state._replace(br=(("s1", "o9"),)))
    assert not ran_br_in_dom_m(demo_state._replace(br=(("s1", "o9"),)))
    assert not ran_bw_in_dom_m(demo_state._replace(bw=(("s1", "o9"),)))


def test_well_formed_rejects_multibound_classifications():
    # only constructible through the raw pair-list builder
    two_classes = make_state(fo=[("o1", sec_class(0)), ("o1", sec_class(1))])
    assert not fo_functional(two_classes)
    assert not well_formed(two_classes)
    two_clearances = make_state(fs=[("s1", sec_class(0)), ("s1", sec_class(1))])
    assert not fs_functional(two_clearances)
    assert not well_formed(two_clearances)


def test_lookup_class_ambiguity_is_undefined():
    two = make_state(fo=[("o1", sec_class(0)), ("o1", sec_class(1))])
    assert lookup_class(two.fo, "o1") is None
    one = make_state(fo={"o1": sec_class(3)})
    assert lookup_class(one.fo, "o1") == SecurityClass(3, frozenset())
    assert lookup_class(one.fo, "o2") is None


@given(well_formed_states())
def test_generated_well_formed_states_pass(st_):
    assert well_formed(st_)


# --- value semantics ---------------------------------------------------------

def test_states_are_canonical_and_structural():
    a = make_state(br=[("s1", "o1"), ("s2", "o1")], m=[("o1", "s1", "read")])
    b = make_state(br=[("s2", "o1"), ("s1", "o1"), ("s1", "o1")],
                   m=[("o1", "s1", "read")])
    assert a == b
    assert hash(a) == hash(b)


@given(raw_states())
def test_predicates_are_pure(st_):
    before = st_
    results = (sec_cond(st_), star_prop(st_), well_formed(st_))
    assert (sec_cond(st_), star_prop(st_), well_formed(st_)) == results
    assert st_ == before


# --- one-pass class maps against the per-pair loops ---------------------------

any_states = st.one_of(unordered_states(), relational_states(), raw_states())


# The predicates as they were written before class_map: one lookup_class
# scan per pair, and every (read, write) pair of the *-property visited.
def _lookup_loop(entries, key):
    found = None
    for k, v in entries:
        if k == key:
            if found is not None and v != found:
                return None
            found = v
    return found


def _sec_cond_loop(st_):
    for (s, o) in st_.br:
        cls_s = _lookup_loop(st_.fs, s)
        if cls_s is None:
            return False
        cls_o = _lookup_loop(st_.fo, o)
        if cls_o is None or not class_leq(cls_o, cls_s):
            return False
    return True


def _star_prop_loop(st_):
    if not st_.bw:
        return True
    for (s1, o1) in st_.br:
        for (s2, o2) in st_.bw:
            if s1 != s2:
                continue
            c1 = _lookup_loop(st_.fo, o1)
            c2 = _lookup_loop(st_.fo, o2)
            if c1 is None or c2 is None or not class_leq(c1, c2):
                return False
    return True


def _functional_loop(entries):
    seen = {}
    for k, v in entries:
        if k in seen and seen[k] != v:
            return False
        seen[k] = v
    return True


def _well_formed_loop(st_):
    objs = frozenset(o for (o, _s, _x) in st_.m)
    return (
        _functional_loop(st_.fo)
        and _functional_loop(st_.fs)
        and all(o in objs for (_s, o) in st_.br)
        and all(o in objs for (_s, o) in st_.bw)
    )


@given(any_states)
def test_class_map_agrees_with_lookup_class(st_):
    for entries, keys in ((st_.fo, OBJECTS), (st_.fs, SUBJECTS)):
        table = class_map(entries)
        for key in (*keys, "unknown"):
            assert table.get(key) == lookup_class(entries, key), (entries, key)
        assert set(table) == {k for k, _v in entries}


@given(any_states)
def test_invariants_match_the_per_pair_loops(st_):
    assert sec_cond(st_) == _sec_cond_loop(st_)
    assert star_prop(st_) == _star_prop_loop(st_)
    assert well_formed(st_) == _well_formed_loop(st_)
    assert fo_functional(st_) == _functional_loop(st_.fo)
    assert fs_functional(st_) == _functional_loop(st_.fs)


# --- indexes kept per component tuple ----------------------------------------

canonical_or_any = st.one_of(any_states, well_formed_states())


@given(canonical_or_any)
def test_kept_indexes_equal_a_fresh_build(st_):
    # first lookup builds, the second finds the kept entry
    assert kept_indexes(st_) == fresh_indexes(st_)
    assert kept_indexes(st_) == fresh_indexes(st_)


def _copy(st_):
    """The same state built from new tuples (an empty one stays ``()``)."""
    return SystemState(*(tuple(list(c)) for c in st_))


@given(canonical_or_any, canonical_or_any)
def test_an_equal_or_other_tuple_gets_its_own_index(a, b):
    kept_indexes(a)
    assert kept_indexes(_copy(a)) == fresh_indexes(a)
    mixed = a._replace(fo=b.fo, fs=b.fs, m=b.m)
    assert kept_indexes(mixed) == fresh_indexes(mixed)


def _push_out_every_entry():
    fo_classes((("x", SecurityClass(0, frozenset())),))
    fs_classes((("x", SecurityClass(0, frozenset())),))
    matrix_set((("x", "s1", READ),))


@given(canonical_or_any, canonical_or_any, st.booleans())
def test_a_dropped_tuple_leaves_no_stale_index(a, b, push_out):
    """A tuple dropped by its caller stays alive while a slot holds it;
    once it is pushed out of the slots, it is freed, and a new tuple may
    take its id (CPython hands a freed tuple's memory to the next tuple of
    its length).  Either way the new tuple's index is built from itself."""
    old = _copy(a)
    old_ids = [id(c) for c in old]
    kept_indexes(old)
    if push_out:
        _push_out_every_entry()
    del old
    new = _copy(b)
    event(f"an id reused: {any(id(c) in old_ids for c in new)}")
    assert kept_indexes(new) == fresh_indexes(new)


@given(st.lists(unordered_states(), min_size=1, max_size=3), st.data())
def test_any_interleaving_of_lookups_matches_a_fresh_build(states, data):
    """Whatever order the classifications and matrices of a pool (equal
    copies and ``()`` among them) are asked for in, each lookup gives what
    a fresh build gives."""
    classifications = [()] + [c for s in states for c in (s.fo, s.fs, tuple(list(s.fo)))]
    matrices = [()] + [c for s in states for c in (s.m, tuple(list(s.m)))]
    pool = ([(fo_classes, class_map, c) for c in classifications]
            + [(fs_classes, class_map, c) for c in classifications]
            + [(matrix_set, frozenset, m) for m in matrices])
    for kept, build, component in data.draw(st.lists(st.sampled_from(pool), max_size=30)):
        assert kept(component) == build(component)


def _matrix_indexes_kept_for(m):
    held, triples = core._m_kept
    assert held is m
    return triples


def test_carried_matrix_indexes_follow_one_triple():
    """Each step hands the triple set on without rebuilding it, and a
    triple stays while a copy of it does (as in the matrix a giveRW without
    its receiverLacksMode guard leaves)."""
    r1, c2 = ("o1", "s1", READ), ("o2", "s1", CTRL)
    r3, w1 = ("o3", "s1", READ), ("o1", "s1", WRITE)
    m = (r1, r1, c2)
    matrix_set(m)
    steps = [
        (matrix_without, r1, (r1, c2), {r1, c2}),  # one copy of r1 removed
        (matrix_without, c2, (r1,), {r1}),  # o2's last triple removed
        (matrix_with, r3, (r1, r3), {r1, r3}),
        (matrix_with, w1, (r1, w1, r3), {r1, w1, r3}),
    ]
    for step, t, new, triples in steps:
        m = step(m, t)
        assert m == new
        assert _matrix_indexes_kept_for(m) == triples
