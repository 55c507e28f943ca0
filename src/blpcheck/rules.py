"""The ten Bell-LaPadula transition rules.

Each rule is an ordered list of guarded clauses: one *normal* clause that
fires when every guard conjunct holds (decision ``yes``, state updated) and
one *abnormal* clause per conjunct (decision ``no``, state unchanged).
Abnormal guards are built as ordered complements -- clause Ek requires the
first k-1 conjuncts and the negation of the k-th -- so the guards of a rule
partition its input space by construction.  The partition analyzer in the
checker module verifies that claim by enumeration.

``giveRW`` additionally has a ``paperFaithful`` clause table reproducing
the rule set of the original published model, whose abnormal clauses do not
cover the case where the receiver already holds the granted permission.
Applying that table to an uncovered input raises NoApplicableClause.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .core import (
    ACCESS_MODES,
    CTRL,
    NO,
    READ,
    WRITE,
    YES,
    ObjectId,
    SecurityClass,
    SubjectId,
    SystemState,
    class_leq,
    entry_sort_key,
    fo_classes,
    fs_classes,
    matrix_objects,
    matrix_set,
    matrix_with,
    matrix_without,
)

VARIANT_FIXED = "fixed"
VARIANT_PAPER_FAITHFUL = "paperFaithful"
VARIANTS = (VARIANT_FIXED, VARIANT_PAPER_FAITHFUL)


# --------------------------------------------------------------------------
# Requests: one tagged variant per rule.

@dataclass(frozen=True, slots=True)
class GetRead:
    s: SubjectId
    o: ObjectId


@dataclass(frozen=True, slots=True)
class GetWrite:
    s: SubjectId
    o: ObjectId


@dataclass(frozen=True, slots=True)
class ReleaseRead:
    s: SubjectId
    o: ObjectId


@dataclass(frozen=True, slots=True)
class ReleaseWrite:
    s: SubjectId
    o: ObjectId


@dataclass(frozen=True, slots=True)
class GiveRW:
    giver: SubjectId
    receiver: SubjectId
    o: ObjectId
    x: str  # any matrix mode; non-givable modes are rejected by clause E1


@dataclass(frozen=True, slots=True)
class RescindRead:
    rescinder: SubjectId
    target: SubjectId
    o: ObjectId


@dataclass(frozen=True, slots=True)
class RescindWrite:
    rescinder: SubjectId
    target: SubjectId
    o: ObjectId


@dataclass(frozen=True, slots=True)
class ChangeClass:
    o: ObjectId
    k: SecurityClass


@dataclass(frozen=True, slots=True)
class CreateObject:
    s: SubjectId
    o: ObjectId
    k: SecurityClass


@dataclass(frozen=True, slots=True)
class DeleteObject:
    s: SubjectId
    o: ObjectId


Request = Union[
    GetRead, GetWrite, ReleaseRead, ReleaseWrite, GiveRW,
    RescindRead, RescindWrite, ChangeClass, CreateObject, DeleteObject,
]

# The kind of value each request field holds.  The checker enumerates a
# field over its kind's domain; the scenario language parses and prints it
# by kind.
FIELD_SUBJECT = "subject"
FIELD_OBJECT = "object"
FIELD_MODE = "mode"
FIELD_CLASS = "class"
FIELD_KINDS = {
    "s": FIELD_SUBJECT, "giver": FIELD_SUBJECT, "receiver": FIELD_SUBJECT,
    "rescinder": FIELD_SUBJECT, "target": FIELD_SUBJECT,
    "o": FIELD_OBJECT, "x": FIELD_MODE, "k": FIELD_CLASS,
}


def request_fields(request_type: type) -> tuple[tuple[str, str], ...]:
    """``(field name, kind)`` for each field of a request type, in order."""
    return tuple((f.name, FIELD_KINDS[f.name]) for f in dataclasses.fields(request_type))


class Outcome(NamedTuple):
    """Decision plus after state; a ``no`` decision keeps the input state."""

    decision: str
    after: SystemState
    clause: str


class NoApplicableClause(Exception):
    """No clause guard of a (non-total) clause table matched the input."""


@dataclass(frozen=True)
class Conjunct:
    """One named guard conjunct of a rule's normal clause.

    ``reads`` lists the state components the predicate inspects; the checker
    evaluates the conjunct once per distinct value of them, and a property
    test pins it down.
    """

    name: str
    reads: frozenset[str]
    holds: Callable[[SystemState, Request], bool]


@dataclass(frozen=True)
class RuleDef:
    name: str
    request_type: type
    conjuncts: tuple[Conjunct, ...]
    effect: Callable[[SystemState, Request], SystemState]
    # The components the effect may change, and the only ones its result
    # depends on: each written component of the after state is a function
    # of that same component before and of the request.  The checker's
    # sweep calls the effect once per (request, written components),
    # re-tests only the obligations whose property reads one of them, and
    # verifies on every call that the effect left all other components
    # identical.
    writes: frozenset[str]
    # Whether the new m's object set (``core.matrix_objects``) is a
    # function of the old m's object set and of the request, as when the
    # effect adds or drops triples of the request's object only.  False is
    # always safe: the checker then reads the whole old m where a property
    # reads the new object set.
    object_set_local: bool = False
    # <name>Ok first, then <name>E1..En, one per conjunct
    clause_names: tuple[str, ...] = field(init=False)
    # (conjunct predicate, name of the clause it picks when it fails) in
    # guard order, built once per definition for ``apply_def``
    steps: tuple[tuple[Callable[[SystemState, Request], bool], str], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        names = (self.name + "Ok",) + tuple(
            f"{self.name}E{i}" for i in range(1, len(self.conjuncts) + 1))
        object.__setattr__(self, "clause_names", names)
        object.__setattr__(self, "steps", tuple(
            zip([c.holds for c in self.conjuncts], names[1:])))


# --------------------------------------------------------------------------
# Guard conjuncts.  Module-level functions keep them cheap and picklable.
# They read classes and matrix triples from the indexes ``core`` keeps in
# one identity slot per component for the live state (``fo_classes``,
# ``fs_classes``, ``matrix_set``) instead of scanning ``fo``, ``fs`` or
# ``m``.
#
# Effects rely on their input being canonical (``make_state`` form: every
# component sorted and duplicate-free) and keep it so: one pair, triple or
# class entry is inserted at its place, or one pair or triple removed from
# it, by bisection on the component's sort key; deleteObject, which drops
# every entry of an object, filters.  A property test pins that every
# granted after state of a canonical state is canonical.  The matrix's
# one-triple steps are ``core.matrix_with`` and ``core.matrix_without``,
# which also move the matrix's kept triple set on to the new matrix, so
# the next step does not rebuild it.

def _pair_add(pairs, pair):
    i = bisect.bisect_left(pairs, pair)
    return pairs[:i] + (pair,) + pairs[i:]


def _entry_add(entries, entry):
    i = bisect.bisect_left(entries, entry_sort_key(entry), key=entry_sort_key)
    return entries[:i] + (entry,) + entries[i:]


def _pair_del(pairs, pair):
    i = bisect.bisect_left(pairs, pair)
    if i < len(pairs) and pairs[i] == pair:
        return pairs[:i] + pairs[i + 1:]
    return pairs


def _gr_has_perm(st, r):
    return (r.o, r.s, READ) in matrix_set(st.m)


def _gr_not_reading(st, r):
    return (r.s, r.o) not in st.br


def _gr_obj_classified(st, r):
    return fo_classes(st.fo).get(r.o) is not None


def _gr_clearance(st, r):
    cls_o = fo_classes(st.fo).get(r.o)
    cls_s = fs_classes(st.fs).get(r.s)
    return cls_o is not None and cls_s is not None and class_leq(cls_o, cls_s)


def _gr_star_guard(st, r):
    # Reading r.o must not undercut any object the subject is writing.
    fo = fo_classes(st.fo)
    cls_o = fo.get(r.o)
    if cls_o is None:
        return False
    for (si, oi) in st.bw:
        if si != r.s:
            continue
        cls_i = fo.get(oi)
        if cls_i is None or not class_leq(cls_o, cls_i):
            return False
    return True


def _gr_effect(st, r):
    return SystemState(_pair_add(st.br, (r.s, r.o)), st.bw, st.fo, st.fs, st.m)


def _gw_has_perm(st, r):
    return (r.o, r.s, WRITE) in matrix_set(st.m)


def _gw_not_writing(st, r):
    return (r.s, r.o) not in st.bw


def _gw_star_guard(st, r):
    # Everything the subject currently reads must sit below r.o's class.
    fo = fo_classes(st.fo)
    cls_o = fo.get(r.o)
    if cls_o is None:
        return False
    for (si, oi) in st.br:
        if si != r.s:
            continue
        cls_i = fo.get(oi)
        if cls_i is None or not class_leq(cls_i, cls_o):
            return False
    return True


def _gw_effect(st, r):
    return SystemState(st.br, _pair_add(st.bw, (r.s, r.o)), st.fo, st.fs, st.m)


def _rr_reading(st, r):
    return (r.s, r.o) in st.br


def _rr_effect(st, r):
    return SystemState(_pair_del(st.br, (r.s, r.o)), st.bw, st.fo, st.fs, st.m)


def _rw_writing(st, r):
    return (r.s, r.o) in st.bw


def _rw_effect(st, r):
    return SystemState(st.br, _pair_del(st.bw, (r.s, r.o)), st.fo, st.fs, st.m)


def _gv_mode_givable(st, r):
    return r.x in ACCESS_MODES


def _gv_giver_has_mode(st, r):
    return (r.o, r.giver, r.x) in matrix_set(st.m)


def _gv_giver_has_ctrl(st, r):
    return (r.o, r.giver, CTRL) in matrix_set(st.m)


def _gv_receiver_lacks_mode(st, r):
    return (r.o, r.receiver, r.x) not in matrix_set(st.m)


def _gv_effect(st, r):
    return SystemState(st.br, st.bw, st.fo, st.fs, matrix_with(st.m, (r.o, r.receiver, r.x)))


def _rsr_has_ctrl(st, r):
    return (r.o, r.rescinder, CTRL) in matrix_set(st.m)


def _rsr_target_has_read(st, r):
    return (r.o, r.target, READ) in matrix_set(st.m)


def _rsr_effect(st, r):
    new_m = matrix_without(st.m, (r.o, r.target, READ))
    return SystemState(_pair_del(st.br, (r.target, r.o)), st.bw, st.fo, st.fs, new_m)


def _rsw_target_has_write(st, r):
    return (r.o, r.target, WRITE) in matrix_set(st.m)


def _rsw_effect(st, r):
    new_m = matrix_without(st.m, (r.o, r.target, WRITE))
    return SystemState(st.br, _pair_del(st.bw, (r.target, r.o)), st.fo, st.fs, new_m)


def _cc_unaccessed(st, r):
    for (_s, o) in st.br:
        if o == r.o:
            return False
    for (_s, o) in st.bw:
        if o == r.o:
            return False
    return True


def _cc_effect(st, r):
    new_fo = tuple((o, r.k if o == r.o else c) for (o, c) in st.fo)
    return SystemState(st.br, st.bw, new_fo, st.fs, st.m)


def _co_obj_fresh(st, r):
    # no fo entry binds r.o (fo_classes has every bound key, also one
    # bound twice, whose class it gives as None) and no triple names it
    return r.o not in fo_classes(st.fo) and r.o not in matrix_objects(st)


def _co_effect(st, r):
    new_fo = _entry_add(st.fo, (r.o, r.k))
    return SystemState(st.br, st.bw, new_fo, st.fs, matrix_with(st.m, (r.o, r.s, CTRL)))


def _do_has_ctrl(st, r):
    return (r.o, r.s, CTRL) in matrix_set(st.m)


def _do_effect(st, r):
    new_fo = tuple(e for e in st.fo if e[0] != r.o)
    new_m = tuple(t for t in st.m if t[0] != r.o)
    return SystemState(st.br, st.bw, new_fo, st.fs, new_m)


def _conj(name, reads, holds):
    return Conjunct(name, frozenset(reads), holds)


RULE_DEFS: dict[str, RuleDef] = {rd.name: rd for rd in (
    RuleDef("getRead", GetRead, (
        _conj("hasReadPermission", {"m"}, _gr_has_perm),
        _conj("notAlreadyReading", {"br"}, _gr_not_reading),
        _conj("objectClassified", {"fo"}, _gr_obj_classified),
        _conj("clearanceDominates", {"fo", "fs"}, _gr_clearance),
        _conj("readBelowWrites", {"bw", "fo"}, _gr_star_guard),
    ), _gr_effect, frozenset({"br"})),
    RuleDef("getWrite", GetWrite, (
        _conj("hasWritePermission", {"m"}, _gw_has_perm),
        _conj("notAlreadyWriting", {"bw"}, _gw_not_writing),
        _conj("objectClassified", {"fo"}, _gr_obj_classified),
        _conj("readsBelowObject", {"br", "fo"}, _gw_star_guard),
    ), _gw_effect, frozenset({"bw"})),
    RuleDef("releaseRead", ReleaseRead, (
        _conj("currentlyReading", {"br"}, _rr_reading),
    ), _rr_effect, frozenset({"br"})),
    RuleDef("releaseWrite", ReleaseWrite, (
        _conj("currentlyWriting", {"bw"}, _rw_writing),
    ), _rw_effect, frozenset({"bw"})),
    RuleDef("giveRW", GiveRW, (
        _conj("modeGivable", (), _gv_mode_givable),
        _conj("giverHasMode", {"m"}, _gv_giver_has_mode),
        _conj("giverHasCtrl", {"m"}, _gv_giver_has_ctrl),
        _conj("receiverLacksMode", {"m"}, _gv_receiver_lacks_mode),
    ), _gv_effect, frozenset({"m"}), object_set_local=True),
    RuleDef("rescindRead", RescindRead, (
        _conj("rescinderHasCtrl", {"m"}, _rsr_has_ctrl),
        _conj("targetHasRead", {"m"}, _rsr_target_has_read),
    ), _rsr_effect, frozenset({"m", "br"})),
    RuleDef("rescindWrite", RescindWrite, (
        _conj("rescinderHasCtrl", {"m"}, _rsr_has_ctrl),
        _conj("targetHasWrite", {"m"}, _rsw_target_has_write),
    ), _rsw_effect, frozenset({"m", "bw"})),
    RuleDef("changeClass", ChangeClass, (
        _conj("objectClassified", {"fo"}, _gr_obj_classified),
        _conj("objectUnaccessed", {"br", "bw"}, _cc_unaccessed),
    ), _cc_effect, frozenset({"fo"})),
    RuleDef("createObject", CreateObject, (
        _conj("objectFresh", {"fo", "m"}, _co_obj_fresh),
    ), _co_effect, frozenset({"fo", "m"}), object_set_local=True),
    RuleDef("deleteObject", DeleteObject, (
        _conj("ownerHasCtrl", {"m"}, _do_has_ctrl),
        _conj("objectUnaccessed", {"br", "bw"}, _cc_unaccessed),
    ), _do_effect, frozenset({"fo", "m"}), object_set_local=True),
)}

RULE_ORDER = tuple(RULE_DEFS)

REQUEST_TYPES = tuple(rd.request_type for rd in RULE_DEFS.values())

_DISPATCH: dict[type, RuleDef] = {rd.request_type: rd for rd in RULE_DEFS.values()}

RULE_OF_REQUEST: dict[type, str] = {rd.request_type: rd.name for rd in RULE_DEFS.values()}


def apply_def(rd: RuleDef, st: SystemState, r: Request) -> Outcome:
    """Run one rule definition: first failing conjunct picks the abnormal
    clause, otherwise the normal clause fires."""
    for holds, clause in rd.steps:
        if not holds(st, r):
            return Outcome(NO, st, clause)
    return Outcome(YES, rd.effect(st, r), rd.clause_names[0])


def apply_rule(st: SystemState, r: Request) -> Outcome:
    """Dispatch a request to its rule.  Total: every request gets an Outcome."""
    return apply_def(_DISPATCH[type(r)], st, r)


def get_read(st: SystemState, s: SubjectId, o: ObjectId) -> Outcome:
    return apply_rule(st, GetRead(s, o))


def get_write(st: SystemState, s: SubjectId, o: ObjectId) -> Outcome:
    return apply_rule(st, GetWrite(s, o))


def release_access(st: SystemState, s: SubjectId, o: ObjectId, x: str) -> Outcome:
    if x == READ:
        return apply_rule(st, ReleaseRead(s, o))
    if x == WRITE:
        return apply_rule(st, ReleaseWrite(s, o))
    raise ValueError(f"not a current-access mode: {x!r}")


def give_rw(st: SystemState, giver: SubjectId, receiver: SubjectId,
            o: ObjectId, x: str) -> Outcome:
    return apply_rule(st, GiveRW(giver, receiver, o, x))


def rescind_access(st: SystemState, rescinder: SubjectId, target: SubjectId,
                   o: ObjectId, x: str) -> Outcome:
    if x == READ:
        return apply_rule(st, RescindRead(rescinder, target, o))
    if x == WRITE:
        return apply_rule(st, RescindWrite(rescinder, target, o))
    raise ValueError(f"not a current-access mode: {x!r}")


def change_class(st: SystemState, o: ObjectId, k: SecurityClass) -> Outcome:
    return apply_rule(st, ChangeClass(o, k))


def create_object(st: SystemState, s: SubjectId, o: ObjectId, k: SecurityClass) -> Outcome:
    return apply_rule(st, CreateObject(s, o, k))


def delete_object(st: SystemState, s: SubjectId, o: ObjectId) -> Outcome:
    return apply_rule(st, DeleteObject(s, o))


# --------------------------------------------------------------------------
# Reified clause tables, for the partition analyzer and for callers that
# want to inspect or run individual clauses.

@dataclass(frozen=True)
class RuleClause:
    """A guard/effect pair.  The guard is structurally ``all(prefix) and not
    negated`` (negated=None for the normal clause), which the analyzer
    exploits to evaluate whole tables from one conjunct-value vector."""

    name: str
    decision: str
    prefix: tuple[Conjunct, ...]
    negated: Optional[Conjunct]
    effect: Callable[[SystemState, Request], SystemState]

    def guard(self, st: SystemState, r: Request) -> bool:
        for c in self.prefix:
            if not c.holds(st, r):
                return False
        return self.negated is None or not self.negated.holds(st, r)


def _identity_effect(st: SystemState, r: Request) -> SystemState:
    return st


def _fixed_table(rd: RuleDef) -> tuple[RuleClause, ...]:
    clauses = [RuleClause(rd.clause_names[0], YES, rd.conjuncts, None, rd.effect)]
    for i, c in enumerate(rd.conjuncts):
        clauses.append(
            RuleClause(rd.clause_names[i + 1], NO, rd.conjuncts[:i], c, _identity_effect)
        )
    return tuple(clauses)


def _give_rw_paper_faithful() -> tuple[RuleClause, ...]:
    rd = RULE_DEFS["giveRW"]
    c1, c2, c3, _ = rd.conjuncts
    # Original published guards: E3 is not prefixed by the earlier
    # conjuncts, and no clause covers "receiver already holds the mode".
    return (
        RuleClause(rd.clause_names[0], YES, rd.conjuncts, None, rd.effect),
        RuleClause(rd.clause_names[1], NO, (), c1, _identity_effect),
        RuleClause(rd.clause_names[2], NO, (c1,), c2, _identity_effect),
        RuleClause(rd.clause_names[3], NO, (), c3, _identity_effect),
    )


def rule_clauses(rule: str, variant: str = VARIANT_FIXED) -> tuple[RuleClause, ...]:
    """The ordered clause list used for ``rule`` under ``variant``.

    Only giveRW distinguishes the variants; for every other rule they are
    identical.  Unknown rule or variant names raise ValueError.
    """
    if rule not in RULE_DEFS:
        raise ValueError(f"unknown rule: {rule!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if variant == VARIANT_PAPER_FAITHFUL and rule == "giveRW":
        return _give_rw_paper_faithful()
    return _fixed_table(RULE_DEFS[rule])


def run_clauses(clauses: tuple[RuleClause, ...], st: SystemState, r: Request) -> Outcome:
    """Fire the first clause whose guard holds.

    Raises NoApplicableClause when no guard matches, which can happen only
    for non-total tables such as giveRW's paperFaithful variant.
    """
    for cl in clauses:
        if cl.guard(st, r):
            return Outcome(cl.decision, cl.effect(st, r), cl.name)
    raise NoApplicableClause(f"no clause of {clauses[0].name[:-2]} covers {r!r}")


def without_conjunct(rd: RuleDef, conjunct_name: str) -> RuleDef:
    """A copy of ``rd`` lacking one named guard conjunct.

    Exists for mutation tests: dropping a guard must make the corresponding
    invariant obligation fail, otherwise the checker proves nothing.
    """
    kept = tuple(c for c in rd.conjuncts if c.name != conjunct_name)
    if len(kept) == len(rd.conjuncts):
        raise ValueError(f"rule {rd.name} has no conjunct {conjunct_name!r}")
    return dataclasses.replace(rd, conjuncts=kept)
