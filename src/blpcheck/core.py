"""Core state model of the Bell-LaPadula reference monitor.

The model keeps five components: two current-access relations (``br`` for
read-only, ``bw`` for write-only), two partial classification maps (``fo``
for objects, ``fs`` for subjects) and the discretionary access matrix ``m``.
Security classes form the usual multilevel-security lattice: a pair of a
numeric level and a set of need-to-know categories, ordered componentwise.

Everything here is an immutable value.  State components are stored as
sorted, duplicate-free tuples so that two states are equal exactly when
they are structurally equal, and so that serialized states are canonical.
All predicates are pure functions; none of them raises on "incomplete"
states (a missing classification makes a predicate false, never an error).

``lookup_class`` applies a classification relation to one key: a linear
scan, None for a key unbound or bound twice.  ``class_map`` gives the same
answer for every key at once, as a dict built in one pass; the *-property
groups ``bw`` by subject before it pairs reads with writes, so each
predicate costs one pass over its components instead of one scan per pair.

Indexes kept for the live state: each state component that the guards
and invariants index has one identity slot, holding the component's tuple
and its index.  ``fo_classes`` and ``fs_classes`` keep the ``class_map``
of the object and of the subject classification asked for most recently,
``matrix_set`` the triples of the matrix asked for most recently as a
set.  A slot matches its component by identity, never by equality, and
holds the tuple, so the tuple's identity cannot pass to another object
while the slot lives.  A reference monitor's step changes at most two
components and leaves the others the very same objects (in a long
scenario the matrix stays the same object across most commands, the
classifications across nearly all), and a step that changes ``fo``
leaves ``fs``'s slot alone, so most steps find their indexes built.
This rests on one condition: a component is an immutable tuple of
immutable values, as ``SystemState`` declares; an index is never checked
against its component again.

The matrix is kept sorted by ``triple_sort_key``, and the two steps that
change it by one triple live here, next to its slot: ``matrix_with``
inserts a triple and ``matrix_without`` removes one, each at the place
``bisect_left`` finds.  When the old matrix holds the slot, the slot
moves on to the new one with the triple set plus or minus that triple,
not rebuilt (giveRW, createObject, rescindRead and rescindWrite take
these steps).  ``bisect_left`` finds the first copy of a triple, so a
matrix that is not duplicate-free (the one a giveRW without its
receiverLacksMode guard leaves) keeps a removed triple in its set exactly
when the next triple is a second copy.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Optional, Union

SubjectId = str
ObjectId = str

# Access matrix modes.  Only read and write can be *current* accesses; ctrl
# is a matrix-only permission that lets a subject give or rescind access.
READ = "read"
WRITE = "write"
CTRL = "ctrl"
MATRIX_MODES = (READ, WRITE, CTRL)
ACCESS_MODES = (READ, WRITE)

_MODE_RANK = {READ: 0, WRITE: 1, CTRL: 2}

YES = "yes"
NO = "no"


class SecurityClass(NamedTuple):
    """A point of the security lattice: (level, category set)."""

    level: int
    cats: frozenset[str]


def sec_class(level: int, cats: Iterable[str] = ()) -> SecurityClass:
    """Build a security class, normalizing the category collection."""
    return SecurityClass(int(level), frozenset(cats))


def class_leq(a: SecurityClass, b: SecurityClass) -> bool:
    """True iff ``b`` dominates ``a``: a.level <= b.level and a.cats <= b.cats."""
    return a.level <= b.level and a.cats <= b.cats


def class_sort_key(c: SecurityClass):
    return (c.level, tuple(sorted(c.cats)))


BrPair = tuple[SubjectId, ObjectId]
ClassEntry = tuple[str, SecurityClass]
MatrixTriple = tuple[ObjectId, SubjectId, str]


def triple_sort_key(t: MatrixTriple):
    return (t[0], t[1], _MODE_RANK[t[2]])


def entry_sort_key(e: ClassEntry):
    return (e[0],) + class_sort_key(e[1])


class SystemState(NamedTuple):
    """The five-component protection state.

    br  -- current read-only accesses, pairs (subject, object)
    bw  -- current write-only accesses, pairs (subject, object)
    fo  -- object classifications, pairs (object, SecurityClass)
    fs  -- subject clearances, pairs (subject, SecurityClass)
    m   -- access matrix, triples (object, subject, mode)

    fo and fs are *relations* at this level; well-formed states keep them
    functional (see well_formed), but non-functional raw states can be built
    deliberately, e.g. by the checker's mutation tests.
    """

    br: tuple[BrPair, ...]
    bw: tuple[BrPair, ...]
    fo: tuple[ClassEntry, ...]
    fs: tuple[ClassEntry, ...]
    m: tuple[MatrixTriple, ...]


def make_state(
    br: Iterable[BrPair] = (),
    bw: Iterable[BrPair] = (),
    fo: Union[Mapping[ObjectId, SecurityClass], Iterable[ClassEntry]] = (),
    fs: Union[Mapping[SubjectId, SecurityClass], Iterable[ClassEntry]] = (),
    m: Iterable[MatrixTriple] = (),
) -> SystemState:
    """Normalize components into a canonical SystemState.

    ``fo``/``fs`` accept either a mapping (always functional) or an iterable
    of pairs (may deliberately violate functionality).  Duplicate entries
    are collapsed; every component ends up sorted.
    """
    fo_pairs = fo.items() if isinstance(fo, Mapping) else fo
    fs_pairs = fs.items() if isinstance(fs, Mapping) else fs
    return SystemState(
        br=tuple(sorted(set(br))),
        bw=tuple(sorted(set(bw))),
        fo=tuple(sorted(set(fo_pairs), key=entry_sort_key)),
        fs=tuple(sorted(set(fs_pairs), key=entry_sort_key)),
        m=tuple(sorted(set(m), key=triple_sort_key)),
    )


def lookup_class(entries: tuple[ClassEntry, ...], key: str) -> Optional[SecurityClass]:
    """The class bound to ``key``, or None if unbound or bound ambiguously.

    Mirrors function application on a partial function: a key with two
    distinct bindings has no applicable value.
    """
    found = None
    for k, v in entries:
        if k == key:
            if found is not None and v != found:
                return None
            found = v
    return found


def class_map(entries: tuple[ClassEntry, ...]) -> dict[str, Optional[SecurityClass]]:
    """Every bound key's class, built in one pass: ``class_map(e).get(k)``
    equals ``lookup_class(e, k)`` for every key ``k``, None included for a
    key bound ambiguously."""
    found: dict[str, Optional[SecurityClass]] = {}
    for k, v in entries:
        if k not in found:
            found[k] = v
        elif found[k] != v:
            found[k] = None
    return found


# --------------------------------------------------------------------------
# Identity slots for the indexes of the live state (see the module
# docstring): (component tuple, its index), one slot per component.

_fo_kept: tuple = ((), {})
_fs_kept: tuple = ((), {})
_m_kept: tuple = ((), frozenset())


def fo_classes(fo: tuple[ClassEntry, ...]) -> dict[str, Optional[SecurityClass]]:
    """``class_map(fo)``, kept while ``fo`` is the object classification
    asked for most recently.  Shared by every caller: read it, never
    change it."""
    global _fo_kept
    if _fo_kept[0] is fo:
        return _fo_kept[1]
    classes = class_map(fo)
    _fo_kept = (fo, classes)
    return classes


def fs_classes(fs: tuple[ClassEntry, ...]) -> dict[str, Optional[SecurityClass]]:
    """``class_map(fs)``, kept while ``fs`` is the subject classification
    asked for most recently.  Shared by every caller: read it, never
    change it."""
    global _fs_kept
    if _fs_kept[0] is fs:
        return _fs_kept[1]
    classes = class_map(fs)
    _fs_kept = (fs, classes)
    return classes


def matrix_set(m: tuple[MatrixTriple, ...]) -> frozenset[MatrixTriple]:
    """The triples of matrix ``m`` as a set, kept while ``m`` is the matrix
    asked for most recently."""
    global _m_kept
    if _m_kept[0] is m:
        return _m_kept[1]
    triples = frozenset(m)
    _m_kept = (m, triples)
    return triples


def matrix_objects(st: SystemState) -> frozenset[ObjectId]:
    """Objects that own at least one access-matrix triple."""
    return frozenset(o for (o, _s, _x) in st.m)


def matrix_with(m: tuple[MatrixTriple, ...], t: MatrixTriple) -> tuple[MatrixTriple, ...]:
    """Sorted matrix ``m`` with triple ``t`` inserted at its place.  When
    ``m`` holds the matrix slot, the slot moves on to the result."""
    global _m_kept
    i = bisect_left(m, triple_sort_key(t), key=triple_sort_key)
    new = m[:i] + (t,) + m[i:]
    held, triples = _m_kept
    if held is m:
        _m_kept = (new, triples | {t})
    return new


def matrix_without(m: tuple[MatrixTriple, ...], t: MatrixTriple) -> tuple[MatrixTriple, ...]:
    """Sorted matrix ``m`` with its first copy of triple ``t`` removed
    (``m`` itself when it holds none).  When ``m`` holds the matrix slot,
    the slot moves on to the result, keeping ``t`` while a second copy
    remains."""
    global _m_kept
    i = bisect_left(m, triple_sort_key(t), key=triple_sort_key)
    if i == len(m) or m[i] != t:
        return m
    new = m[:i] + m[i + 1:]
    held, triples = _m_kept
    if held is m:
        if m[i + 1:i + 2] != (t,):
            triples = triples - {t}
        _m_kept = (new, triples)
    return new


def sec_cond(st: SystemState) -> bool:
    """The security condition, read-access form.

    Every current read access (s, o) needs s cleared, o classified, and
    o's class dominated by s's clearance.  Write-only accesses carry no
    clearance requirement.
    """
    if not st.br:
        return True
    fs = fs_classes(st.fs)
    fo = fo_classes(st.fo)
    for (s, o) in st.br:
        cls_s = fs.get(s)
        if cls_s is None:
            return False
        cls_o = fo.get(o)
        if cls_o is None or not class_leq(cls_o, cls_s):
            return False
    return True


def star_prop(st: SystemState) -> bool:
    """The *-property, per-subject form.

    For every subject reading o1 and writing o2, both objects must be
    classified and class(o1) <= class(o2); otherwise the subject could copy
    secret data downward outside the monitor's control.
    """
    if not st.bw or not st.br:
        return True
    written: dict[SubjectId, list[ObjectId]] = {}
    for (s, o) in st.bw:
        written.setdefault(s, []).append(o)
    fo = fo_classes(st.fo)
    for (s, o1) in st.br:
        objs = written.get(s)
        if objs is None:
            continue
        c1 = fo.get(o1)
        if c1 is None:
            return False
        for o2 in objs:
            c2 = fo.get(o2)
            if c2 is None or not class_leq(c1, c2):
                return False
    return True


# The four type invariants, individually addressable so the checker can
# report them as separate proof obligations.  A classification is
# functional when its class map holds no None (the class of a key bound to
# two classes).

def fo_functional(st: SystemState) -> bool:
    return None not in fo_classes(st.fo).values()


def fs_functional(st: SystemState) -> bool:
    return None not in fs_classes(st.fs).values()


def ran_br_in_dom_m(st: SystemState) -> bool:
    objs = matrix_objects(st)
    return all(o in objs for (_s, o) in st.br)


def ran_bw_in_dom_m(st: SystemState) -> bool:
    objs = matrix_objects(st)
    return all(o in objs for (_s, o) in st.bw)


def well_formed(st: SystemState) -> bool:
    """All four type invariants at once."""
    # reads the slots itself, so that a call of well_formed is not also
    # counted as calls of fo_functional and fs_functional
    if None in fo_classes(st.fo).values() or None in fs_classes(st.fs).values():
        return False
    objs = matrix_objects(st)
    return all(o in objs for (_s, o) in st.br) and all(o in objs for (_s, o) in st.bw)


# Named property table shared by the checker and the report formats.
PROPERTY_SECCOND = "seccond"
PROPERTY_STARPROP = "starprop"
PROPERTY_FO_FUNCTIONAL = "foFunctional"
PROPERTY_FS_FUNCTIONAL = "fsFunctional"
PROPERTY_RAN_BR = "ranBrInDomM"
PROPERTY_RAN_BW = "ranBwInDomM"

PROPERTY_ORDER = (
    PROPERTY_SECCOND,
    PROPERTY_STARPROP,
    PROPERTY_FO_FUNCTIONAL,
    PROPERTY_FS_FUNCTIONAL,
    PROPERTY_RAN_BR,
    PROPERTY_RAN_BW,
)

PROPERTY_FUNCS = {
    PROPERTY_SECCOND: sec_cond,
    PROPERTY_STARPROP: star_prop,
    PROPERTY_FO_FUNCTIONAL: fo_functional,
    PROPERTY_FS_FUNCTIONAL: fs_functional,
    PROPERTY_RAN_BR: ran_br_in_dom_m,
    PROPERTY_RAN_BW: ran_bw_in_dom_m,
}

# State components each property actually inspects; its verdict depends on
# nothing else (a property test pins this).  The checker skips a property
# when a transition left those components untouched (it verifies identity,
# never assumes frame conditions), and otherwise looks its verdict up in a
# memo keyed by their values.
PROPERTY_READS = {
    PROPERTY_SECCOND: frozenset({"br", "fo", "fs"}),
    PROPERTY_STARPROP: frozenset({"br", "bw", "fo"}),
    PROPERTY_FO_FUNCTIONAL: frozenset({"fo"}),
    PROPERTY_FS_FUNCTIONAL: frozenset({"fs"}),
    PROPERTY_RAN_BR: frozenset({"br", "m"}),
    PROPERTY_RAN_BW: frozenset({"bw", "m"}),
}
