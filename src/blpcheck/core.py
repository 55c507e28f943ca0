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

Indexes kept for the live state: ``class_index`` (a classification's
``class_map``) and ``matrix_set`` (the matrix's triples as a set) keep
their index in identity slots, two for the classifications asked for
most recently (``fo`` and ``fs``) and one for the matrix.  A slot matches
its component by identity, never by equality, and holds the tuple, so
the tuple's identity cannot pass to another object while the slot lives.
The rule guards and the invariants read their classes and triples from
them.  A reference monitor's step changes at most two components and
leaves the others the very same objects (in a long scenario the matrix
stays the same object across most commands, the classifications across
nearly all), so most steps find their indexes built.  This rests on one
condition: a component is an immutable tuple of immutable values, as
``SystemState`` declares; an index is never checked against its
component again.

The matrix slot is carried, not rebuilt, across the steps that insert or
remove one matrix triple (giveRW, createObject, rescindRead,
rescindWrite): ``carry_matrix_indexes`` moves it from the old matrix to
the new one, with the triple set plus or minus that triple.  A matrix
that is not duplicate-free (the one a giveRW without its
receiverLacksMode guard leaves) keeps a removed triple while a copy of it
remains; in sorted order that copy is a neighbour of the removed one.
"""

from __future__ import annotations

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
# docstring): (component tuple, its index), the classifications most
# recent first.

_class_recent: tuple = ((), {})
_class_other: tuple = ((), {})
_matrix_kept: tuple = ((), frozenset())


def class_index(entries: tuple[ClassEntry, ...]) -> dict[str, Optional[SecurityClass]]:
    """``class_map(entries)``, kept while ``entries`` is one of the two
    classifications asked for most recently.  Shared by every caller: read
    it, never change it."""
    global _class_recent, _class_other
    recent = _class_recent
    if recent[0] is entries:
        return recent[1]
    kept = _class_other
    if kept[0] is not entries:
        kept = (entries, class_map(entries))
    _class_recent, _class_other = kept, recent
    return kept[1]


def matrix_set(m: tuple[MatrixTriple, ...]) -> frozenset[MatrixTriple]:
    """The triples of matrix ``m`` as a set, kept while ``m`` is the matrix
    asked for most recently."""
    global _matrix_kept
    if _matrix_kept[0] is m:
        return _matrix_kept[1]
    triples = frozenset(m)
    _matrix_kept = (m, triples)
    return triples


def matrix_objects(st: SystemState) -> frozenset[ObjectId]:
    """Objects that own at least one access-matrix triple."""
    return frozenset(o for (o, _s, _x) in st.m)


def carry_matrix_indexes(old: tuple[MatrixTriple, ...], new: tuple[MatrixTriple, ...],
                         i: int) -> None:
    """Move the kept ``matrix_set`` of matrix ``old`` on to matrix ``new``,
    updated instead of rebuilt, when ``new`` is ``old`` with one triple
    inserted at position ``i`` (``new[i]``) or removed from position ``i``
    (``old[i]``).  Both must be sorted, so that a removed triple's copies
    are its neighbours.  Does nothing when ``old`` is not the kept matrix."""
    global _matrix_kept
    held, triples = _matrix_kept
    if held is not old:
        return
    if len(new) > len(old):
        triples = triples | {new[i]}
    else:
        t = old[i]
        if not ((i > 0 and old[i - 1] == t) or (i + 1 < len(old) and old[i + 1] == t)):
            triples = triples - {t}
    _matrix_kept = (new, triples)


def _is_functional(entries: tuple[ClassEntry, ...]) -> bool:
    # class_map gives None exactly for a key bound to two classes
    return None not in class_index(entries).values()


def sec_cond(st: SystemState) -> bool:
    """The security condition, read-access form.

    Every current read access (s, o) needs s cleared, o classified, and
    o's class dominated by s's clearance.  Write-only accesses carry no
    clearance requirement.
    """
    if not st.br:
        return True
    fs = class_index(st.fs)
    fo = class_index(st.fo)
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
    fo = class_index(st.fo)
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
# report them as separate proof obligations.

def fo_functional(st: SystemState) -> bool:
    return _is_functional(st.fo)


def fs_functional(st: SystemState) -> bool:
    return _is_functional(st.fs)


def ran_br_in_dom_m(st: SystemState) -> bool:
    objs = matrix_objects(st)
    return all(o in objs for (_s, o) in st.br)


def ran_bw_in_dom_m(st: SystemState) -> bool:
    objs = matrix_objects(st)
    return all(o in objs for (_s, o) in st.bw)


def well_formed(st: SystemState) -> bool:
    """All four type invariants at once."""
    if not (_is_functional(st.fo) and _is_functional(st.fs)):
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
