"""Shared fixtures and hypothesis strategies."""

import pytest
from hypothesis import strategies as st

from blpcheck import make_state, sec_class
from blpcheck.core import (
    MATRIX_MODES,
    SystemState,
    class_map,
    fo_classes,
    fs_classes,
    matrix_objects,
    matrix_set,
)
from blpcheck.rules import (
    FIELD_CLASS,
    FIELD_MODE,
    FIELD_OBJECT,
    FIELD_SUBJECT,
    request_fields,
)

SUBJECTS = ("s1", "s2")
OBJECTS = ("o1", "o2", "o3")
CATEGORIES = ("ka", "kb")


@pytest.fixture
def demo_state():
    """The two-subject/two-object state used by the shipped simulations."""
    return make_state(
        fo={"o1": sec_class(1, {"f14"}), "o2": sec_class(2, {"f14", "f15"})},
        fs={"s1": sec_class(1, {"cia"}), "s2": sec_class(2, {"cia", "f14", "f15"})},
        m=[
            ("o1", "s1", "read"),
            ("o1", "s2", "write"),
            ("o2", "s2", "read"),
            ("o2", "s2", "write"),
        ],
    )


def classes():
    return st.builds(
        sec_class,
        st.integers(min_value=0, max_value=3),
        st.frozensets(st.sampled_from(CATEGORIES)),
    )


def class_maps(keys):
    return st.dictionaries(st.sampled_from(keys), classes(), max_size=len(keys))


def matrix_triples():
    return st.tuples(
        st.sampled_from(OBJECTS), st.sampled_from(SUBJECTS), st.sampled_from(MATRIX_MODES)
    )


def access_pairs():
    return st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(OBJECTS))


@st.composite
def raw_states(draw):
    """Arbitrary states: functional class maps, but br/bw may reference
    objects the matrix does not know (i.e. possibly ill-formed)."""
    return make_state(
        br=draw(st.frozensets(access_pairs(), max_size=3)),
        bw=draw(st.frozensets(access_pairs(), max_size=3)),
        fo=draw(class_maps(OBJECTS)),
        fs=draw(class_maps(SUBJECTS)),
        m=draw(st.frozensets(matrix_triples(), max_size=5)),
    )


@st.composite
def well_formed_states(draw):
    """States satisfying the four type invariants by construction."""
    m = draw(st.frozensets(matrix_triples(), min_size=0, max_size=5))
    known = sorted({o for (o, _s, _x) in m})
    pairs = (
        st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(known))
        if known else st.nothing()
    )
    return make_state(
        br=draw(st.frozensets(pairs, max_size=3)) if known else (),
        bw=draw(st.frozensets(pairs, max_size=3)) if known else (),
        fo=draw(class_maps(OBJECTS)),
        fs=draw(class_maps(SUBJECTS)),
        m=m,
    )


@st.composite
def relational_states(draw):
    """Arbitrary states whose class maps may bind one entity twice (not
    functional), as a mutated rule can produce."""
    def relation(keys):
        return st.frozensets(st.tuples(st.sampled_from(keys), classes()), max_size=4)

    return make_state(
        br=draw(st.frozensets(access_pairs(), max_size=3)),
        bw=draw(st.frozensets(access_pairs(), max_size=3)),
        fo=draw(relation(OBJECTS)),
        fs=draw(relation(SUBJECTS)),
        m=draw(st.frozensets(matrix_triples(), max_size=5)),
    )


@st.composite
def unordered_states(draw):
    """Component tuples taken as drawn, not through make_state: unsorted,
    with repeated entries, and with class maps that may bind a key to
    several classes (the same one repeated, or different ones)."""
    def listed(elements, size):
        return st.lists(elements, max_size=size).map(tuple)

    def relation(keys):
        # few classes, so that a key often gets the same class twice
        few = st.sampled_from([sec_class(0), sec_class(1), sec_class(1, {"ka"})])
        return listed(st.tuples(st.sampled_from(keys), st.one_of(few, classes())), 6)

    return SystemState(
        br=draw(listed(access_pairs(), 4)),
        bw=draw(listed(access_pairs(), 4)),
        fo=draw(relation(OBJECTS)),
        fs=draw(relation(SUBJECTS)),
        m=draw(listed(matrix_triples(), 5)),
    )


def kept_indexes(st_):
    """The indexes ``core`` keeps for a state's components."""
    return (fo_classes(st_.fo), fs_classes(st_.fs), matrix_set(st_.m),
            matrix_objects(st_))


def fresh_indexes(st_):
    """The same indexes, built from the components."""
    return (class_map(st_.fo), class_map(st_.fs), frozenset(st_.m),
            frozenset(o for (o, _s, _x) in st_.m))


def rename_state(g, st_):
    """The state renamed by ``g`` (a ``checker._Renaming``), every component
    re-sorted into canonical form."""
    subjects, objects = g.subjects, g.objects
    return make_state(
        br=[(subjects[s], objects[o]) for s, o in st_.br],
        bw=[(subjects[s], objects[o]) for s, o in st_.bw],
        fo=[(objects[o], g.sec_class(c)) for o, c in st_.fo],
        fs=[(subjects[s], g.sec_class(c)) for s, c in st_.fs],
        m=[(objects[o], subjects[s], x) for o, s, x in st_.m],
    )


def rename_request(g, req):
    """The request renamed by ``g``: each field renamed by its declared
    kind."""
    rename = {
        FIELD_SUBJECT: g.subjects.__getitem__,
        FIELD_OBJECT: g.objects.__getitem__,
        FIELD_MODE: lambda x: x,
        FIELD_CLASS: g.sec_class,
    }
    return type(req)(*(rename[kind](getattr(req, name))
                       for name, kind in request_fields(type(req))))
