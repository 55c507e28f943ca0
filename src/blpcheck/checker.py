"""Bounded-exhaustive and randomized checking of the rule invariants.

For every rule and every invariant (security condition, *-property, four
type invariants) there is one obligation: starting from any in-bounds state
that satisfies *all* invariants, applying the rule must yield a state that
still satisfies the invariant.  Ten rules times six invariants gives sixty
obligations.  Exhaustive mode decides each obligation over the full product
of in-bounds states and requests; random mode spot-checks it from a seeded
generator.  Either way a failed obligation carries a concrete witness that
re-evaluates to a genuine violation.

This is small-scope evidence, not proof: the guarantee is exactly "no
counterexample within the given bounds".

The partition analyzer re-checks, by the same kind of enumeration, that the
clause guards of each rule jointly cover their input space and are pairwise
disjoint.  The ``paperFaithful`` variant of giveRW fails the coverage half:
a giver repeating a grant the receiver already holds matches no clause.

Performance note: enumeration is layered (classifications, then matrix,
then current accesses).  (fs, fo) pairs are numbered, not listed: pair
number i is fs option f and fo option o for f, o = divmod(i,
len(fo_options)).  The access sets come from tables of the check's
``_Universe``, keyed by integers: per (fs, fo) pair, bitmasks over the
universe's (subject, object) pairs of the readable and the writable pairs,
and per readable pair the mask of the pairs that may be written while it
is read; per matrix, the mask of the pairs whose object it knows; and one
table from (mask, cap) to the subsets of a mask's pairs.  ``_subtrees``
lists every well-formed state from them.  The hypothesis has one table per
(fs, fo) pair and known mask (``_Universe.subtree``), since a matrix enters
it only through that mask: P0's 299 matrices have four.  So the whole
hypothesis is generated, never filtered: a table's read sets are the entry
for the AND of the pair's readable and known masks, and a read set's write
sets the entry for the AND of the writable and known masks with its pairs'
masks, each set listed with its id.  The census counts a table's leaves,
and the sweep lists them; the random sampler reads the access-set tables.
A table's rows are its br options, each with its id, its bw mask and the
bw options that mask allows, each a small integer id per state component.
A sweep task holds one rule (see below), which walks its representative
(fs, fo) pairs, all or one stride of them, in order, each pair's matrices
in order, each subtree's rows in enumeration order and each leaf's
requests in list order, so within a task every obligation meets its
(leaf, request) pairs in enumeration order.  A
subtree's table is listed only when some rule grants a request there.
Every rule callable runs once per distinct value of the
components it declares to read; the result is memoised under their ids.
The sweep handles ids only: a state is built from ids, by
``_Universe.state``, only for a memo miss or a witness.  A guard
conjunct's memo maps the ids of its ``reads`` to the
bitset of the rule's requests it grants, so a leaf's granted requests are
an AND of bitsets, decided in three stages by the components the
conjuncts read: those reading none of br, bw and m once per (rule, pair),
those reading m but neither br nor bw once per matrix, the rest per leaf
of a row with a new leaf-stage key (below); a stage without conjuncts is
skipped, and a pair or subtree whose stages grant nothing is left at
once.  An effect runs once per (request, ids of ``RuleDef.writes``), and
its memo entry is the written components' after ids: a granted request's
after state is the leaf's ids followed by those.
An invariant runs once per after-state value of the components it reads
(``core.PROPERTY_READS``), in one memo per property shared by all rules.
A rule's obligations whose property reads a component the rule writes are
*checked* that way; the others are *framed* and hold because they held
before the step.  A rule whose guards, writes and checked properties never
read the matrix gets the same verdicts on two subtrees of one (fs, fo)
pair with the same known mask, whose leaves differ in the matrix alone, so
it sweeps only the first of them.  More generally, a checked obligation's
verdicts on a row's leaves depend only on the row's *footprint*: the
pair and matrix stages' granted mask and the row's ids at the components
the leaf guards, the writes and the property read, bw given by the row's
bw mask.
So each check keeps the footprints whose rows it passed, per task, checks
with the same footprint fields in one set, and a row is swept only for the
checks whose footprint is new.  A footprint is recorded after its row
passes, so first witnesses and their positions do not change.  A row's
leaf guards are decided once per *leaf-stage key* (the granted mask, the
bw mask and the row's other ids that the leaf guards read), as the row's
granted leaves, each with its *fresh* requests, those no earlier leaf of
the row granted.  A check whose after-state key cannot read bw (its
property reads no bw and the rule writes none) has one verdict per
request on a row, so it is decided only at each request's fresh leaf;
the others at every granted leaf.  At P0 one worker visits 657,712 rows
over all rules, decides the leaf guards on 28,725 leaves of 3,532
distinct keys, and walks 330,777 granted leaves.  Every effect call
verifies that the components outside ``writes`` are left identical, so an
undeclared write stops the sweep with an error instead of giving a wrong
verdict, and a failing obligation's witness comes from a real effect call
on its leaf.

The memos rest on three conditions on ``rule_defs``, besides the
equivariance below, each pinned by a property test for the shipped rules:
honest conjunct ``reads``; honest ``core.PROPERTY_READS``; and effect
locality, i.e. an effect's written components depend only on the written
components of its input and on the request.  They hold for every table
``rules.without_conjunct`` builds.  Under them every memo answer equals
the call it stands for, and the order of (leaf, request) pairs is that of
a state-by-state sweep, so verdicts, counts and first witnesses are too.
The strict reading of the *-property is one more mask: write pairs are
drawn from classified objects only, and read pairs already are (security
condition), so the strict and per-pair readings agree on every generated
state.  A test pins the generated leaves, in order, against
``enumerate_states`` filtered by the core predicates.  ``naive_check`` in the
test suite is the reference: a state-by-state sweep with no memos, held to
the same verdicts, counts and witnesses.  Reported witnesses are always
re-validated through the public rule interface before they land in a
report.

Symmetry reduction: subject, object and category names are
interchangeable.  Every guard conjunct, effect and invariant commutes with
the group G = Sym(subjects) x Sym(objects) x Sym(categories) acting on
states and requests (``_Renaming``; a property test pins this for every
rule, both clause tables and all invariants, and it holds for every table
``rules.without_conjunct`` builds, so a ``rule_defs`` override must keep
it).  So the exhaustive sweep applies a two-level lex-leader test (least
means first in enumeration order) to a subtree's (fs, fo, m), and checks
every hypothesis leaf of each subtree that passes it against *all*
requests: a subtree is swept exactly when its (fs, fo) pair is the least
of its orbit and its matrix is the least under that pair's stabiliser.
The sweep walks only those matrices, from one table per distinct
stabiliser (``_Orbits.m_reps``).  Counts stay those of the full
enumeration because the sweep counts nothing: the states column comes
from the universe's hypothesis census (``_Universe.leaves_before``),
which adds up the leaves of the hypothesis tables the sweep lists,
without listing them.  A pair's count over all its matrices is the same
across its orbit, so the census computes representatives' counts only,
each from one table per known mask.  First witnesses do not change
either.
An obligation's failing (state, request) pairs are closed under G, so the
first failing state in enumeration order is the least of its orbit.
Hence its (fs, fo) pair is a representative, and its matrix is the least
under that pair's stabiliser.  Its subtree is swept in enumeration order,
so the sweep meets that state first.  Counts, witnesses and report bytes
are therefore those of the unreduced sweep.  Enumeration, partition
analysis and random mode are not reduced.  The group's action on option
indices is computed by arithmetic, without building or renaming a state:
a class-map option is a mixed-radix numeral, one digit per entity, and a
renaming permutes digit values (classes) and digit places (entities); a
matrix option is a set of triple indices, which a renaming permutes.

Random mode gives each obligation its own generator, seeded with the seed
and the obligation's name, and one loop over its draws (``_random_pairs``):
an (fs, fo) pair and a matrix by index, their access sets from the
enumerator's tables, (br, bw) options until the bw option lies within the
br option's *-property masks (at most 64 tries per subtree), then a
request.  Every draw is ``rng._randbelow(n)``, inlined as its
``getrandbits`` rejection loop: the call that ``rng.randrange(n)`` and
``rng.choice`` on an n-item list both reduce to.  So the draws, and the
seeded reports and witnesses built from them, are those of a sampler that
calls ``rng.choice`` on the option lists themselves (a test pins this on
every supported Python).  A draw is decided as the sweep decides a leaf:
the rule's guard conjuncts in order, then, when all hold, the effect and
the property on the after state, with no ``rules.Outcome`` built.  The
first violation stops the obligation and becomes its witness, which is
re-validated through ``rules.apply_def`` like every reported witness.

Each check builds one context when it starts, ``_Universe``: the option
lists of its bounds, its reading of the *-property, the matching table of
invariant predicates, every rule's request list, the component id tables,
the invariant memos, the access-set tables and, for the exhaustive sweep,
the group's action on (fs, fo) pairs and matrices (``_Orbits``) and the
hypothesis tables (``_Universe.subtree``), both built on first use.  Only
the group tables outlive the check: they depend on the bounds alone, and
the next check of equal bounds in the same process, such as the next
search of a mutation campaign, reads them instead of building them again.
The enumerator, the sweep, the random sampler and witness validation all
read the context, and one task runner (``_run_tasks``) runs the work in
process or on workers (forked, or spawned where the platform cannot
fork), which receive the context, group tables included, once when they
start: one rule's obligations per task in exhaustive mode
(``_sweep_tasks``), over all representative (fs, fo) pairs, or over one
stride of them when the check selects fewer rules than there are
workers, and one obligation per task in random mode.  A sweep task makes
its own guard memos, leaf-stage table, effect memo and footprint sets, and
drops them when it returns, so tasks share nothing but the context, and
the merge keeps each obligation's first failure in enumeration order
whatever the order of the tasks.  An obligation's ``elapsed_ms`` stays its rule's measured
sweep time, one clock pair per task, memo hits included: an invariant
verdict one rule computed is free for the rules swept after it in the
same process, and the time of a rule split into strides is summed over
its tasks.  Bounds whose lists would exceed ``MAX_LIST`` entries are
refused, from sizes computed in closed form, before anything is built.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import core, rules
from .core import (
    MATRIX_MODES,
    PROPERTY_FUNCS,
    PROPERTY_ORDER,
    PROPERTY_STARPROP,
    SecurityClass,
    SystemState,
    class_leq,
)
from .rules import (
    RULE_DEFS,
    RULE_ORDER,
    VARIANT_FIXED,
    Request,
    RuleDef,
    apply_def,
    rule_clauses,
)

MODE_EXHAUSTIVE = "exhaustive"
MODE_RANDOM = "random"


class Bounds(NamedTuple):
    """Cardinality caps for the enumeration universes.

    Entities are named s1..sN, o1..oN, categories k1..kN; levels run from 0
    to num_levels - 1.
    """

    num_subjects: int
    num_objects: int
    num_levels: int
    num_categories: int
    max_br: int
    max_bw: int
    max_matrix: int


# Default profile: small enough for an exhaustive sweep, large enough to
# express the known violation patterns (a *-property breach needs one
# subject and two objects, the giveRW coverage gap needs two subjects, a
# clearance breach needs two levels).
P0 = Bounds(2, 2, 2, 1, 2, 2, 3)


class Obligation(NamedTuple):
    rule: str
    prop: str


ALL_OBLIGATIONS = tuple(
    Obligation(rule, prop) for rule in RULE_ORDER for prop in PROPERTY_ORDER
)


class Witness(NamedTuple):
    """A concrete obligation violation: the state, the request, the state
    the rule produced, and the invariant that broke."""

    state: SystemState
    request: Request
    after: SystemState
    prop: str


@dataclass(frozen=True)
class ObligationResult:
    rule: str
    prop: str
    status: str  # "pass" | "fail"
    states_checked: int
    requests_checked: int
    elapsed_ms: float
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class ObligationReport:
    bounds: Bounds
    mode: str
    results: tuple[ObligationResult, ...]
    samples: Optional[int] = None
    seed: Optional[int] = None

    @property
    def all_pass(self) -> bool:
        return all(r.status == "pass" for r in self.results)


class PartitionWitness(NamedTuple):
    state: SystemState
    request: Request


@dataclass(frozen=True)
class GapFamily:
    """All gap inputs sharing one guard-conjunct signature."""

    signature: tuple[tuple[str, bool], ...]
    count: int
    witnesses: tuple[PartitionWitness, ...]


@dataclass(frozen=True)
class OverlapFamily:
    clause_pair: tuple[str, str]
    count: int
    witnesses: tuple[PartitionWitness, ...]


@dataclass(frozen=True)
class PartitionReport:
    rule: str
    variant: str
    bounds: Bounds
    states_checked: int
    requests_checked: int
    elapsed_ms: float
    gap_families: tuple[GapFamily, ...]
    overlap_families: tuple[OverlapFamily, ...]

    @property
    def gaps(self) -> tuple[PartitionWitness, ...]:
        return tuple(w for fam in self.gap_families for w in fam.witnesses)

    @property
    def ok(self) -> bool:
        return not self.gap_families and not self.overlap_families


# --------------------------------------------------------------------------
# Enumeration universes.

# The longest list a check may build: any option list of a universe, and
# the symmetry tables of an exhaustive check.  The next profiles the
# roadmap names, three subjects or three levels on P0's lattice, need at
# most 3,125 (fs, fo) pairs, 988 matrices and 37,500 (fs, fo) images.
MAX_LIST = 1_000_000
# Sizes are computed in closed form and saturate here, so that absurd
# bounds cost no time to refuse.
_SIZE_CEILING = 10 ** 30


def _saturating_product(factors) -> int:
    value = 1
    for f in factors:
        value *= f
        if value >= _SIZE_CEILING:
            return _SIZE_CEILING
    return value


def _saturating_pow(base: int, exp: int) -> int:
    if base < 2:
        return base ** min(exp, 1)
    # 2 ** bit_length > the ceiling, so the cap saturates like ``exp`` would
    return _saturating_product(itertools.repeat(base, min(exp, _SIZE_CEILING.bit_length())))


def _subsets_upto(n: int, cap: int) -> int:
    """sum(C(n, k) for k <= cap), saturating."""
    total = 0
    for k in range(min(n, cap) + 1):
        total += math.comb(n, k)
        if total >= _SIZE_CEILING:
            return _SIZE_CEILING
    return total


def _refuse_oversized(sizes: dict[str, int]) -> None:
    over = {name: n for name, n in sizes.items() if n > MAX_LIST}
    if over:
        shown = ", ".join(
            f"{n:,} {name}" if n < _SIZE_CEILING else f"more than {_SIZE_CEILING:.0e} {name}"
            for name, n in over.items()
        )
        raise ValueError(f"bounds too large: {shown} (the limit is {MAX_LIST:,} per list)")


def _validate_bounds(b: Bounds) -> None:
    """Refuse negative bounds, and bounds whose universe would build a list
    longer than MAX_LIST, before anything is built."""
    if any(v < 0 for v in b):
        raise ValueError(f"bounds must be non-negative: {b}")
    n_s, n_o = b.num_subjects, b.num_objects
    n_classes = min(b.num_levels * _saturating_pow(2, b.num_categories), _SIZE_CEILING)
    domain_size = {rules.FIELD_SUBJECT: n_s, rules.FIELD_OBJECT: n_o,
                   rules.FIELD_MODE: len(MATRIX_MODES), rules.FIELD_CLASS: n_classes}
    n_requests = sum(
        math.prod(domain_size[kind] for _name, kind in rules.request_fields(rd.request_type))
        for rd in RULE_DEFS.values()
    )
    _refuse_oversized({
        "names": n_s + n_o + b.num_categories,
        "security classes": n_classes,
        "(fs, fo) pairs": _saturating_pow(n_classes + 1, n_s + n_o),
        "matrices": _subsets_upto(len(MATRIX_MODES) * n_s * n_o, b.max_matrix),
        "access sets": _subsets_upto(n_s * n_o, max(b.max_br, b.max_bw)),
        "requests": min(n_requests, _SIZE_CEILING),
    })


def _names(b: Bounds) -> tuple[tuple, tuple, tuple, tuple]:
    """The subjects, objects, categories and security classes of ``b``, each
    in canonical order."""
    subjects, objects, categories = (
        tuple(sorted(f"{prefix}{i + 1}" for i in range(n)))
        for prefix, n in (("s", b.num_subjects), ("o", b.num_objects), ("k", b.num_categories))
    )
    classes = tuple(sorted(
        (SecurityClass(lvl, frozenset(cats))
         for lvl in range(b.num_levels)
         for size in range(len(categories) + 1)
         for cats in itertools.combinations(categories, size)),
        key=core.class_sort_key,
    ))
    return subjects, objects, categories, classes


def _request_lists(b: Bounds) -> dict[str, tuple[Request, ...]]:
    """Every rule's in-bounds requests, in canonical order: the product of
    its fields' domains, in field order.  Oversized bounds are refused
    before anything is built."""
    _validate_bounds(b)
    subjects, objects, _categories, classes = _names(b)
    domains = {
        rules.FIELD_SUBJECT: subjects, rules.FIELD_OBJECT: objects,
        rules.FIELD_MODE: MATRIX_MODES, rules.FIELD_CLASS: classes,
    }
    return {
        rule: tuple(
            rd.request_type(*args)
            for args in itertools.product(
                *(domains[kind] for _name, kind in rules.request_fields(rd.request_type))
            )
        )
        for rule, rd in RULE_DEFS.items()
    }


class _Renaming(NamedTuple):
    """One element of Sym(subjects) x Sym(objects) x Sym(categories): a
    bijection of each kind of name onto itself."""

    subjects: dict
    objects: dict
    categories: dict

    def sec_class(self, c: SecurityClass) -> SecurityClass:
        return SecurityClass(c.level, frozenset(self.categories[k] for k in c.cats))


class _Orbits(NamedTuple):
    """The universe's (fs, fo) pairs and matrices under the renaming group.

    ``group`` holds every renaming but the identity.  Per (fs, fo) index,
    ``rep`` is the least index in its orbit; ``reps`` lists the
    representatives in order and ``stabiliser`` maps each one to the
    indices into ``group`` of the renamings that fix it.  ``m_image[g]``
    gives, per ``m_options`` index, the index of its image under
    ``group[g]``.  ``m_reps`` maps each distinct stabiliser to the
    ``m_options`` indices, ascending, that no renaming in it maps to an
    earlier one: the matrices the sweep visits under a pair with that
    stabiliser.

    The tables come from index arithmetic alone.  A class-map option's
    index is a mixed-radix numeral (``_Universe._class_map_image``): a
    renaming maps its digits through the renamed classes and moves them to
    the renamed entities' places.  A matrix option is the ascending tuple
    of its triples' indices; a renaming permutes the 3*S*O triple indices,
    and the image is the option whose tuple is the sorted permuted indices,
    found in one dict.  A (fs, fo) pair's image is the pair of its parts'
    images.
    """

    group: tuple[_Renaming, ...]
    rep: tuple[int, ...]
    reps: tuple[int, ...]
    stabiliser: dict[int, tuple[int, ...]]
    m_image: tuple[tuple[int, ...], ...]
    m_reps: dict[tuple[int, ...], tuple[int, ...]]


# The group tables of the bounds asked for most recently, (bounds, its
# ``_Orbits``), for the next check of equal bounds (see ``_Universe.orbits``).
_orbits_kept: tuple = (None, None)


class _Universe:
    """The context of one check: precomputed option spaces for one Bounds
    value, the reading of the *-property, the invariant predicates and every
    rule's request list.

    Every option list is in canonical order: class maps vary the last entity
    fastest with "unclassified" first; set-valued components run by size,
    then lexicographically over their sorted element universe.  Request
    lists are the product of their fields' domains, in field order.

    The (fs, fo) pairs are not materialised: there are ``n_combos`` of
    them, and ``fs_fo`` unranks pair number i as ``divmod(i,
    len(fo_options))``, the order of the product of the two lists.

    Access sets are tabulated by bitmask: bit i of a mask stands for
    ``pairs[i]`` (``pair_bit`` maps a pair to its bit).  Each
    ``m_options`` entry carries the mask of the pairs whose object its
    matrix knows; ``pair_masks`` gives an (fs, fo) pair's readable and
    writable masks and its *-property masks by its pair number; and
    ``access_sets`` lists a mask's subsets up to a cap, once per (mask,
    cap).  The enumerator, the hypothesis tables and the random sampler
    all read these tables: a subtree's read sets cost an AND and a lookup,
    and so do each read set's write sets, plus an AND per read pair.

    A universe is built when its check starts, never cached across checks:
    the property table is read from ``core.PROPERTY_FUNCS`` at that moment.
    The one exception is the symmetry tables (``orbits``), which depend on
    the bounds alone: they are built on first use, which only the
    exhaustive sweep makes, by arithmetic on option indices, and kept for
    the next universe of equal bounds.  The hypothesis tables
    (``subtree``) are built on first use too, one per (fs, fo) pair and
    known mask, and never kept, like the id tables, memos and footprint
    sets.  The sweep lists them and the census (``leaves_before`` and
    ``hypothesis_states``) counts them: a subtree's count is its table's
    number of leaves, and a whole pair's the sum over ``known_groups``.
    Random mode and the partition analyzer never build either.

    The sweep's memos are keyed by component ids (``id_tables``): an (fs,
    fo) pair's ids are ``divmod`` of its pair number by the number of fo
    options, a matrix's id is its index in ``m_options``, and access sets
    get ids when ``access_sets`` first lists them.  After-state values
    take ids from the same tables.  ``id_values`` lists each table's
    values by id, and ``state`` builds a state from ids: only the universe
    maps ids to values.  ``prop_memo`` holds each property's verdicts
    under the after-state ids of the components it reads
    (``core.PROPERTY_READS``), for every rule of the check, so its size is
    bounded by the distinct after-state projections, not by effect entries
    times states.
    ``request_indices`` holds the bit positions of every granted-request
    bitset met so far, for all rules.  Nothing here belongs to one rule:
    each sweep task's plan (``_RulePlan``) makes its own guard memos,
    leaf-stage table, effect memo and footprint sets.
    The keys are sound only under the conditions on ``rule_defs`` in the
    module docstring.
    """

    def __init__(self, b: Bounds, strict_star: bool = False):
        self.requests = _request_lists(b)  # refuses oversized bounds first
        self.bounds = b
        self.strict_star = strict_star
        self.subjects, self.objects, self.categories, self.classes = _names(b)
        self.fs_options = self._class_maps(self.subjects)
        self.fo_options = self._class_maps(self.objects)
        # (fs, fo) pair number i is fs option f and fo option o for
        # f, o = divmod(i, len(fo_options))
        self.n_combos = len(self.fs_options) * len(self.fo_options)
        # (subject, object) pairs; an access-set mask has bit i for pairs[i]
        self.pairs = tuple(sorted((s, o) for s in self.subjects for o in self.objects))
        self.pair_bit = {p: 1 << i for i, p in enumerate(self.pairs)}
        self.every_pair = (1 << len(self.pairs)) - 1
        self.triples = tuple(sorted(
            ((o, s, x) for o in self.objects for s in self.subjects for x in MATRIX_MODES),
            key=core.triple_sort_key,
        ))
        # each matrix with the mask of the pairs whose object it knows: the
        # OR of its triples' objects' pair masks
        object_mask = dict.fromkeys(self.objects, 0)
        for i, (_s, o) in enumerate(self.pairs):
            object_mask[o] |= 1 << i
        self.m_options: list[tuple[tuple, int]] = []
        for size in range(min(b.max_matrix, len(self.triples)) + 1):
            for m in itertools.combinations(self.triples, size):
                known = 0
                for (o, _s, _x) in m:
                    known |= object_mask[o]
                self.m_options.append((m, known))
        self.props = dict(PROPERTY_FUNCS)
        if strict_star:
            self.props[PROPERTY_STARPROP] = strict_star_prop
        # Per state component, in SystemState field order, its values by id
        # and the inverse table.  Options get their list index (br and bw
        # share one list and table, filled as access-set lists are built);
        # a value first met in an after state gets the next free id.
        access_ids: dict = {}
        access_values: list = []
        self.id_values = (access_values, access_values, list(self.fo_options),
                          list(self.fs_options), [m for m, _known in self.m_options])
        self.id_tables = (access_ids, access_ids, *(
            {value: i for i, value in enumerate(values)} for values in self.id_values[2:]))
        # Per property, its verdicts keyed by the ids of the components it
        # reads (core.PROPERTY_READS), shared by every rule of the sweep.
        self.prop_memo: dict[str, dict] = {prop: {} for prop in self.props}
        # Per bitset of granted requests, the indices of its bits, ascending.
        self.request_indices: dict[int, tuple[int, ...]] = {}
        self._pair_masks: dict[int, tuple[int, int, dict]] = {}
        self._access_sets: dict[tuple[int, int], list[tuple[tuple, int]]] = {}
        # the hypothesis tables (``subtree``) and representatives' pair totals
        self._subtree_tables: dict[tuple[int, int], tuple[int, list]] = {}
        self._pair_counts: dict[int, int] = {}

    @cached_property
    def row_layout(self) -> tuple[dict[str, int], dict[str, int]]:
        """How the sweep packs a row of ``subtree`` into one integer: from
        the lowest bit, its bw mask, its fo, fs and m ids, the pair and
        matrix guard stages' granted mask (``mask``), and its br id above
        them all.  Returns each field's shift and its bits, by name; br's bits
        run on without end."""
        names = ("bw", "fo", "fs", "m", "mask")
        widths = (len(self.pairs), len(self.fo_options).bit_length(),
                  len(self.fs_options).bit_length(), len(self.m_options).bit_length(),
                  max(map(len, self.requests.values())))
        shift = dict(zip((*names, "br"), itertools.accumulate(widths, initial=0)))
        bits = {name: ((1 << w) - 1) << shift[name] for name, w in zip(names, widths)}
        bits["br"] = -1 << shift["br"]
        return shift, bits

    def component_id(self, field: int, value) -> int:
        """The id of ``value`` as state component number ``field``."""
        table = self.id_tables[field]
        cid = table.get(value)
        if cid is None:
            cid = table[value] = len(table)
            self.id_values[field].append(value)
        return cid

    def state(self, ids) -> SystemState:
        """The state whose components have the ids ``ids``."""
        return SystemState._make(map(list.__getitem__, self.id_values, ids))

    @cached_property
    def orbits(self) -> _Orbits:
        """The renaming group's action on (fs, fo) pairs and on matrices,
        computed on option indices (see ``_class_map_image``): no state is
        built or renamed.

        The tables depend on the bounds alone, not on the rules, the
        properties or the reading of the *-property, so they are kept
        while these are the bounds asked for most recently: the next
        universe of equal bounds in this process, strict or not, reads
        the same object.  Shared by every such universe: read it, never
        change it (``stabiliser`` and ``m_reps`` are dicts).  Bounds
        refused here are refused before they are kept."""
        global _orbits_kept
        b = self.bounds
        if _orbits_kept[0] == b:
            return _orbits_kept[1]
        group_size = _saturating_product(itertools.chain(
            range(2, b.num_subjects + 1), range(2, b.num_objects + 1),
            range(2, b.num_categories + 1),
        ))
        _refuse_oversized({"(fs, fo) images": group_size * self.n_combos,
                           "matrix images": group_size * len(self.m_options)})
        group = tuple(
            _Renaming(dict(zip(self.subjects, s)), dict(zip(self.objects, o)),
                      dict(zip(self.categories, k)))
            for s in itertools.permutations(self.subjects)
            for o in itertools.permutations(self.objects)
            for k in itertools.permutations(self.categories)
        )[1:]  # the first of each permutation list is the identity
        t_index = {t: i for i, t in enumerate(self.triples)}
        m_indices = [tuple(t_index[t] for t in m) for m, _known in self.m_options]
        m_of = {ts: mi for mi, ts in enumerate(m_indices)}
        class_digit = {c: d for d, c in enumerate(self.classes, 1)}
        n_fo = len(self.fo_options)
        images = []
        m_image = []
        for g in group:
            digit = [0, *(class_digit[g.sec_class(c)] for c in self.classes)]
            fs_img = self._class_map_image(self.subjects, g.subjects, digit)
            fo_img = self._class_map_image(self.objects, g.objects, digit)
            images.append([f * n_fo + o for f in fs_img for o in fo_img])
            perm = [t_index[(g.objects[o], g.subjects[s], x)] for o, s, x in self.triples]
            m_image.append(tuple(m_of[tuple(sorted([perm[t] for t in ts]))]
                                 for ts in m_indices))
        rep = tuple(min([i, *(img[i] for img in images)]) for i in range(self.n_combos))
        reps = tuple(i for i, r in enumerate(rep) if r == i)
        stabiliser = {
            i: tuple(g for g, img in enumerate(images) if img[i] == i) for i in reps
        }
        m_reps = {
            stab: tuple(mi for mi in range(len(self.m_options))
                        if all(m_image[g][mi] >= mi for g in stab))
            for stab in set(stabiliser.values())
        }
        orbits = _Orbits(group, rep, reps, stabiliser, tuple(m_image), m_reps)
        _orbits_kept = (b, orbits)
        return orbits

    @cached_property
    def known_groups(self) -> tuple[tuple[int, int], ...]:
        """One ``(known mask, number of matrices)`` entry per distinct known
        mask of ``m_options``.  P0's 299 matrices have four known masks."""
        groups: dict[int, int] = {}
        for _m, known in self.m_options:
            groups[known] = groups.get(known, 0) + 1
        return tuple(groups.items())

    def subtree(self, combo: int, known: int) -> tuple[int, list]:
        """The hypothesis leaves of (fs, fo) pair number ``combo`` under a
        matrix whose known mask is ``known``, as ``(count, rows)``, built
        once per (pair, known mask): a matrix enters only through that mask.

        ``rows`` lists, per br option in enumeration order, ``(br_id,
        bw_mask, bw_subs)``: bw_subs are ``access_sets(bw_mask, max_bw)``,
        and ``count`` is the sum of their lengths.  The
        masks come from ``pair_masks``, ANDed with ``known`` so that the
        type invariants hold by construction: read pairs from the readable
        mask (the security condition), and a br option's write pairs from
        the writable mask ANDed with the star masks of its pairs (the
        *-property).  A strict-star universe draws write pairs from
        classified objects only; read objects are classified already, so
        the strict reading needs nothing more.  A narrower mask lists the
        same subsets in the same relative order as a wider one, so every
        leaf keeps its position in the enumeration of all well-formed
        states (``_subtrees``)."""
        key = (combo, known)
        table = self._subtree_tables.get(key)
        if table is None:
            readable, writable, star = self.pair_masks(combo)
            max_br, max_bw = self.bounds.max_br, self.bounds.max_bw
            rows = []
            count = 0
            for br, br_id in self.access_sets(known & readable, max_br):
                mask = known & writable
                for p in br:
                    mask &= star[p]
                bw_subs = self.access_sets(mask, max_bw)
                rows.append((br_id, mask, bw_subs))
                count += len(bw_subs)
            table = self._subtree_tables[key] = (count, rows)
        return table

    def _pair_leaves(self, combo: int) -> int:
        """The hypothesis leaves of pair ``combo`` over all its matrices.
        A renaming that maps the pair to its orbit's representative permutes
        the matrices, so the count is the representative's, and only
        representatives' counts are computed."""
        rep = self.orbits.rep[combo]
        n = self._pair_counts.get(rep)
        if n is None:
            n = self._pair_counts[rep] = sum(
                k * self.subtree(rep, known)[0] for known, k in self.known_groups)
        return n

    def leaves_before(self, combo: int, mi: int) -> int:
        """The hypothesis census ahead of a subtree: the hypothesis leaves
        of every subtree before pair ``combo``'s matrix number ``mi`` in
        enumeration order.  The exhaustive sweep's states column comes from
        here, none of it from listing leaves."""
        return (sum(map(self._pair_leaves, range(combo)))
                + sum(self.subtree(combo, known)[0] for _m, known in self.m_options[:mi]))

    @cached_property
    def hypothesis_states(self) -> int:
        """Every hypothesis leaf of the universe, from the census."""
        return self.leaves_before(self.n_combos, 0)

    def _class_maps(self, entities: Sequence[str]) -> list[tuple]:
        options: list[Optional[SecurityClass]] = [None, *self.classes]
        maps = []
        for vec in itertools.product(options, repeat=len(entities)):
            maps.append(tuple((e, c) for e, c in zip(entities, vec) if c is not None))
        return maps

    def _class_map_image(self, entities: Sequence[str], rename: dict,
                         digit: list[int]) -> list[int]:
        """Per option of ``_class_maps(entities)``, the index of its image
        under a renaming that maps entity e to ``rename[e]`` and digit d to
        ``digit[d]``.

        An option's index is a numeral in base len(classes) + 1 with one
        digit per entity, the first entity the most significant: digit 0
        for unclassified, d for ``classes[d - 1]``.  The renamed option has
        digit ``digit[d]`` where entity e had d, at the place of
        ``rename[e]``; its index is the sum of those digits' place values,
        built here one entity at a time in option order."""
        radix = len(self.classes) + 1
        place = {e: radix ** (len(entities) - 1 - p) for p, e in enumerate(entities)}
        image = [0]
        for e in entities:
            w = place[rename[e]]
            image = [i + d * w for i in image for d in digit]
        return image

    def fs_fo(self, combo: int) -> tuple[tuple, tuple]:
        """The fs and fo options of (fs, fo) pair number ``combo``."""
        f, o = divmod(combo, len(self.fo_options))
        return self.fs_options[f], self.fo_options[o]

    def pair_masks(self, combo: int) -> tuple[int, int, dict]:
        """The access masks of (fs, fo) pair number ``combo``, computed once
        per pair: ``(readable, writable, star)``.

        readable is the mask of the pairs allowed as current reads (the
        subject cleared for the classified object); writable is the mask of
        every pair, or under the strict reading of the pairs whose object
        is classified.  star maps each readable pair (s, o1) to the mask of
        the pairs that may be written while it is read: every pair of
        another subject, and each (s, o2) with o2 classified and class(o1)
        <= class(o2).  So the writes a set of reads allows are the AND of
        its pairs' star masks: the *-property as a mask.
        """
        masks = self._pair_masks.get(combo)
        if masks is None:
            fs, fo = self.fs_fo(combo)
            fs_map = dict(fs)
            fo_map = dict(fo)
            readable = classified = 0
            star = {}
            for (s, o), bit in self.pair_bit.items():
                if o in fo_map:
                    classified |= bit
                    if s in fs_map and class_leq(fo_map[o], fs_map[s]):
                        readable |= bit
                        star[s, o] = sum(b for (s2, o2), b in self.pair_bit.items() if s2 != s
                                         or o2 in fo_map and class_leq(fo_map[o], fo_map[o2]))
            writable = classified if self.strict_star else self.every_pair
            masks = self._pair_masks[combo] = (readable, writable, star)
        return masks

    def access_sets(self, mask: int, cap: int) -> list[tuple[tuple, int]]:
        """The subsets of at most ``cap`` of the pairs in ``mask``, by size
        and then lexicographically, each a sorted tuple paired with its id
        (br and bw share one id table); built once per (mask, cap)."""
        key = (mask, cap)
        subsets = self._access_sets.get(key)
        if subsets is None:
            items = [p for i, p in enumerate(self.pairs) if mask >> i & 1]
            subsets = self._access_sets[key] = [
                (c, self.component_id(_BR, c))
                for size in range(min(cap, len(items)) + 1)
                for c in itertools.combinations(items, size)
            ]
        return subsets


def _subtrees(u: _Universe, combos, m_indices, caps) -> Iterator[SystemState]:
    """Yield every well-formed state of the (fs, fo) pair numbers in
    ``combos`` and the matrix numbers in ``m_indices``, in enumeration
    order: per pair, per matrix, the product of the br and the bw options,
    each the subsets, up to its cap in ``caps``, of the pairs whose object
    the matrix knows (``_Universe.access_sets``), so the type invariants
    hold by construction."""
    br_cap, bw_cap = caps
    for combo in combos:
        fs, fo = u.fs_fo(combo)
        for mi in m_indices:
            m, known = u.m_options[mi]
            bw_subs = u.access_sets(known, bw_cap)
            for br, _br_id in u.access_sets(known, br_cap):
                for bw, _bw_id in bw_subs:
                    yield SystemState(br, bw, fo, fs, m)


def enumerate_states(b: Bounds) -> Iterator[SystemState]:
    """Yield every well-formed in-bounds state exactly once.

    Layered generation: classifications first, then the matrix, then the
    current-access relations restricted to objects the matrix knows about,
    so the type invariants hold by construction rather than by filtering.
    The order is canonical and stable across runs.
    """
    u = _Universe(b)
    yield from _subtrees(u, range(u.n_combos), range(len(u.m_options)),
                         (b.max_br, b.max_bw))


def requests_for_rule(rule: str, b: Bounds) -> tuple[Request, ...]:
    """Every in-bounds request of one rule, in canonical order."""
    if rule not in RULE_DEFS:
        raise ValueError(f"unknown rule: {rule!r}")
    return _request_lists(b)[rule]


def enumerate_requests(b: Bounds) -> tuple[Request, ...]:
    """Every in-bounds request, grouped by rule in canonical rule order."""
    requests = _request_lists(b)
    return tuple(req for rule in RULE_ORDER for req in requests[rule])


def strict_star_prop(st: SystemState) -> bool:
    """A stricter *-property that also demands classifications exist.

    On top of the per-pair condition: whenever anything is being written,
    every read object must be classified; and written objects must always
    be classified.  Available to the obligation runner as an alternative
    reading of the invariant (see ``strict_star`` flag).
    """
    if not core.star_prop(st):
        return False
    dom_fo = {o for (o, _c) in st.fo}
    if st.bw and any(o not in dom_fo for (_s, o) in st.br):
        return False
    return all(o in dom_fo for (_s, o) in st.bw)


# --------------------------------------------------------------------------
# The memoised exhaustive sweep.

# A swept leaf carries one id per state component, in SystemState field
# order (see ``_Universe.id_tables``).
_FIELDS = SystemState._fields
_BR, _BW, _M = map(_FIELDS.index, ("br", "bw", "m"))


def _fields_of(components) -> tuple[int, ...]:
    return tuple(i for i, name in enumerate(_FIELDS) if name in components)


def _projection(fields: tuple[int, ...]) -> Callable:
    """A memo key: the ids at ``fields`` of an id sequence (a bare id when
    there is one field)."""
    if not fields:
        return lambda _ids: ()
    return operator.itemgetter(*fields)


class _ObState:
    """Mutable per-obligation bookkeeping during one sweep."""

    __slots__ = ("rule", "prop", "failed", "witness", "fail_at")

    def __init__(self, rule: str, prop: str):
        self.rule = rule
        self.prop = prop
        self.failed = False
        self.witness: Optional[Witness] = None
        # (fs, fo) index and matrix index of the witness's subtree, and its
        # leaf position there
        self.fail_at: Optional[tuple[int, int, int]] = None


class _FrameViolation(RuntimeError):
    """A rule effect changed a state component outside its declared writes."""

    def __init__(self, rule, index, st, req):
        super().__init__(
            f"rule {rule} changed {SystemState._fields[index]!r}, which its"
            f" writes do not declare, on state={st!r}, request={req!r}"
        )


def _request_bits(holds, st, reqs) -> int:
    """The set, as a bitset over ``reqs``, of the requests for which
    ``holds`` holds on ``st``."""
    bits = 0
    for j, req in enumerate(reqs):
        try:
            if holds(st, req):
                bits |= 1 << j
        except Exception as e:
            raise _evaluation_failure(st, req) from e
    return bits


def _granted(guards, mask: int, ids, u: _Universe, reqs) -> int:
    """The requests in ``mask`` that every ``(key, memo, holds)`` guard
    grants on the leaf whose ids are ``ids``.  Stops at the first empty
    result.  A memo miss builds the leaf's state (``u.state``) and runs the
    conjunct on every request."""
    for key, memo, holds in guards:
        if not mask:
            break
        k = key(ids)
        bits = memo.get(k)
        if bits is None:
            bits = memo[k] = _request_bits(holds, u.state(ids), reqs)
        mask &= bits
    return mask


def _bit_indices(table: dict, bits: int) -> tuple[int, ...]:
    """The indices of the set bits of ``bits``, ascending, kept in
    ``table``."""
    return table.setdefault(bits, tuple(j for j in range(bits.bit_length()) if bits >> j & 1))


def _row_footprints(rd: RuleDef, props: Sequence[str]) -> tuple[bool, dict]:
    """Rule ``rd``'s row footprints when it decides obligations on the
    properties ``props``, from its declarations alone: conjunct ``reads``,
    ``writes`` and ``core.PROPERTY_READS``.  Returns whether the rule's
    verdicts on a leaf can depend on the matrix, and per property the rule
    checks, and under None for the frame when it frames one of ``props``,
    ``(components, apart, every_leaf)``: the components the footprint
    reads; whether they tell apart every row the rule sweeps (br, fo, fs
    and, when the rule reads it, m); and whether the track walks every leaf
    of a row.  A check does when its after state's key can read bw: its
    property reads bw, or the rule writes bw, whose after value may depend
    on the leaf's.  The frame does when the rule writes bw, since only then
    can a row's leaves need different effect calls."""
    checked = [p for p in props if core.PROPERTY_READS[p] & rd.writes]
    reads_m = "m" in rd.writes.union(*(c.reads for c in rd.conjuncts),
                                     *(core.PROPERTY_READS[p] for p in checked))
    distinct = {"br", "fo", "fs"} | ({"m"} if reads_m else set())
    leaf_reads = rd.writes.union(*(c.reads for c in rd.conjuncts if c.reads & {"br", "bw"}))
    reads = {p: leaf_reads | core.PROPERTY_READS[p] for p in checked}
    if len(checked) < len(props):
        reads[None] = leaf_reads
    return reads_m, {
        key: (components, components >= distinct,
              "bw" in rd.writes.union(core.PROPERTY_READS.get(key, ())))
        for key, components in reads.items()}


def _tracks_in_use(footprints: dict, live: Sequence[str]) -> list:
    """The keys of ``footprints`` (``_row_footprints``) whose tracks a
    plan uses while the checks of the properties ``live`` are open: theirs,
    or the frame's when none is open and the rule frames a property."""
    return list(live) or ([None] if None in footprints else [])


class _RulePlan:
    """One rule compiled for the sweep: its guard conjuncts by stage, its
    effect's memo and frame, and its obligations.

    The guard conjuncts fall into three stages by what they read:
    ``pair_guards`` read none of br, bw and m and are decided once per
    (fs, fo) pair, ``matrix_guards`` read m but neither br nor bw and are
    decided once per matrix, and ``leaf_guards`` read br or bw and are
    decided per leaf.  Each is a ``(key, memo, holds)`` triple, looked up
    in its own memo under the ids of the components it reads
    (``_granted``); a miss builds the state and runs the conjunct on every
    request of the rule.  So a leaf's granted requests are an AND of
    bitsets.  The effect runs once per (ids of the written components,
    request): ``effects[key][j]`` holds the written components' after ids,
    in ``writes`` order, and every call verifies the frame (the components
    outside ``writes``) by identity.  A granted request's after state is
    the leaf's ids followed by that entry, ``ids + entry``: a written
    component's after id sits at its place in ``writes`` past the leaf's
    five, every other one at its own field.

    The leaf stage is decided once per row, not per leaf, and only on a
    row whose *leaf-stage key* is new: the row (packed by
    ``_Universe.row_layout``) ANDed with ``leaf_key``, the bits of the
    granted mask, the bw mask (which fixes the row's bw options) and the
    other components the leaf guards read.  ``leaf_stage`` maps the key to
    the row's granted leaves, each ``(position in the row, granted,
    fresh)``, where ``fresh`` holds the requests no earlier leaf of the
    row granted.  A rule without leaf guards keeps no such table: each of
    a row's leaves is granted the whole mask, fresh at its first leaf.

    An obligation is *checked* when its property reads a component the rule
    writes, and *framed* otherwise: the property reads only components the
    effect leaves as they were, so it holds after the step because it held
    before.  A checked obligation looks its verdict up in the universe's
    memo of the property, under the after state's ids of the components the
    property reads, read at their places in ``ids + entry``; on a miss,
    ``after_ids`` picks the after state's five ids out of it for
    ``u.state``.  When that key cannot read bw (the property reads no bw
    and the rule writes none), a request's verdict is the same on every
    leaf of a row that grants it, so the check is *bw-blind*: it is decided
    only at each request's fresh leaf, in (leaf, request) order, which
    finds its first failing pair of the row.  Every other check is decided
    on every granted (leaf, request) pair.

    The conjunct memos, the leaf-stage table, the effect memo and the
    footprint sets are the plan's own, made empty here and dropped with
    the plan when its task returns, so no task depends on what another
    filled.  The table of a granted bitset's request indices is the
    universe's, and all rules share it (``_Universe.request_indices``).

    When a rule's guards, writes and checked properties leave out the
    matrix (``reads_m`` is false), its verdicts on a leaf do not depend on
    it.  Two subtrees of one (fs, fo) pair with the same known mask then
    have the same leaves but for the matrix, and the same verdicts on
    them, so ``sweep`` sweeps the rule on the first of them only.
    Every leaf first appears in the first subtree of some known mask, so
    first witnesses and their positions do not change.

    A check's verdicts on a row's leaves are a function of its row
    footprint: the pair and matrix stages' granted mask and the row's ids
    at the components the leaf guards, ``writes`` and the property read,
    with bw given by the row's bw mask.  Each check has a track, ``(key
    bits, passed footprints, walks every leaf, check)``: a row whose
    footprint is in the set is skipped for the check, and a footprint is
    added once its row passed.  Tracks with equal key bits share one set,
    so a row looks each set up once and adds to it once.  When no check is
    live the framed obligations have one track, whose footprint is the
    leaf guards' and ``writes``' components: a repeated row would only
    repeat effect calls that ran, and verified the frame, already.  It
    shares the set of the checks with its key bits, since a row they
    passed made every effect call it would make.  A footprint that tells
    every row apart keeps no set.
    """

    def __init__(self, rd: RuleDef, obs, u: _Universe):
        self.rule = rd.name
        self.reqs = u.requests[rd.name]
        self.all_requests = (1 << len(self.reqs)) - 1
        self.obs = obs
        self.universe = u
        self.pair_guards: list = []
        self.matrix_guards: list = []
        self.leaf_guards: list = []
        field_bits = u.row_layout[1]
        self.leaf_key = field_bits["mask"] | field_bits["bw"]
        for c in rd.conjuncts:
            fields = _fields_of(c.reads)
            stage = (self.leaf_guards if _BR in fields or _BW in fields
                     else self.matrix_guards if _M in fields else self.pair_guards)
            stage.append((_projection(fields), {}, c.holds))
            if stage is self.leaf_guards:
                for name in c.reads - {"bw"}:
                    self.leaf_key |= field_bits[name]
        self.leaf_stage: Optional[dict] = {} if self.leaf_guards else None
        self.effects: dict = {}
        self.empty = u.component_id(_BR, ())
        self.effect = rd.effect
        self.writes = _fields_of(rd.writes)
        self.write_key = _projection(self.writes)
        self.frame = tuple(i for i in range(len(_FIELDS)) if i not in self.writes)
        # each component's position in an after state, ``ids + entry``
        after = [len(_FIELDS) + self.writes.index(i) if i in self.writes else i
                 for i in range(len(_FIELDS))]
        self.after_ids = operator.itemgetter(*after)
        self.reads_m, self.footprint_reads = _row_footprints(rd, [ob.prop for ob in obs])
        self.checked = tuple(
            (ob, _projection(tuple(after[i] for i in _fields_of(core.PROPERTY_READS[ob.prop]))),
             u.prop_memo[ob.prop], u.props[ob.prop])
            for ob in obs if ob.prop in self.footprint_reads
        )
        self.framed = None in self.footprint_reads
        # Row footprints: the components a check's verdicts on a row's
        # leaves depend on, plus the subtree mask.  A footprint's key is the
        # packed row ANDed with the bits of its fields; equal keys share a
        # set, and a footprint that tells apart every row the plan sweeps
        # keeps none.
        check_of = {check[0].prop: check for check in self.checked}
        sets: dict[int, set] = {}
        self.row_tracks = {}
        for prop, (components, apart, every_leaf) in self.footprint_reads.items():
            key = field_bits["mask"]
            for name in components:
                key |= field_bits[name]
            self.row_tracks[prop] = (key, None if apart else sets.setdefault(key, set()),
                                     every_leaf, check_of.get(prop))
        self.live = list(self.checked)
        self._set_tracks()

    def _set_tracks(self) -> None:
        """Group the tracks in use (``_tracks_in_use``: the live checks',
        or the frame's when no check is live but the plan has framed
        obligations) by key bits, each group ``(key bits, passed footprints,
        checks that walk every leaf, bw-blind checks, both lists in that
        order, walks every leaf)``, in ``tracks``; a group whose footprint
        tells every row apart has None for its set."""
        groups: dict[int, tuple] = {}
        for prop in _tracks_in_use(self.footprint_reads, [check[0].prop for check in self.live]):
            bits, seen, every_leaf, check = self.row_tracks[prop]
            _bits, _seen, every, blind, walk = groups.get(bits, (bits, seen, [], [], False))
            if check:
                (every if every_leaf else blind).append(check)
            groups[bits] = (bits, seen, every, blind, walk or every_leaf)
        self.tracks = [(bits, seen, every, blind, every + blind, walk)
                       for bits, seen, every, blind, walk in groups.values()]

    def _apply(self, st: SystemState, j: int) -> SystemState:
        """The effect of request ``j`` on ``st``, its frame verified."""
        req = self.reqs[j]
        try:
            after = self.effect(st, req)
        except Exception as e:
            raise _evaluation_failure(st, req) from e
        for i in self.frame:
            if after[i] is not st[i]:
                raise _FrameViolation(self.rule, i, st, req)
        return after

    def _written(self, st: SystemState, j: int) -> tuple:
        """An effect memo entry: the written components' after ids, in
        ``writes`` order."""
        after = self._apply(st, j)
        return tuple(self.universe.component_id(i, after[i]) for i in self.writes)

    def _leaf_stage(self, mask: int, bw_subs, br_id: int, fo_id: int, fs_id: int,
                    mi: int) -> tuple:
        """The granted leaves of the row of ``bw_subs`` under ``br_id``,
        ``fo_id``, ``fs_id`` and ``mi``, each ``(position in the row,
        granted, fresh)``: the requests in ``mask`` the leaf guards grant
        on the leaf, and those of them that no earlier leaf of the row
        granted."""
        leaves = []
        seen = 0
        for i, (_bw, bw_id) in enumerate(bw_subs):
            granted = _granted(self.leaf_guards, mask, (br_id, bw_id, fo_id, fs_id, mi),
                               self.universe, self.reqs)
            if granted:
                leaves.append((i, granted, granted & ~seen))
                seen |= granted
        return tuple(leaves)

    def sweep(self, combo: int, m_reps) -> None:
        """Decide the rule on (fs, fo) pair number ``combo`` under the
        matrices ``m_reps``, in that order.  The pair guard stage runs
        once; when it grants a request, each matrix's stage narrows that
        mask, and the rows of the subtree's hypothesis table are walked
        when a request is left, in enumeration order.  A rule that does not
        read the matrix sweeps only the first matrix of each known mask.
        Stops once no obligation of the rule is left to decide.

        A row is skipped for every track group whose footprint already
        passed, and swept for the rest: on every granted leaf when one of
        them walks every leaf, on the fresh leaves alone otherwise.  Its
        granted leaves come from ``leaf_stage``.  Each request of a walked
        leaf gets its effect memo entry, and the checks are decided on it:
        those that walk every leaf always, the bw-blind ones where the
        request is fresh.  The row's footprint is then recorded in every
        group it was swept for.  The sweep handles ids only: a state is
        built, by ``u.state``, only for a memo miss or a witness.  Failures
        record the first witness, its after state from a real effect call,
        at (``combo``, the matrix, the leaf's position in the subtree)."""
        u = self.universe
        fs_id, fo_id = divmod(combo, len(u.fo_options))
        empty = self.empty
        mask = self.all_requests
        if self.pair_guards:
            mask = _granted(self.pair_guards, mask, (empty, empty, fo_id, fs_id, m_reps[0]),
                            u, self.reqs)
            if not mask:
                return
        reqs = self.reqs
        effects = self.effects
        indices = u.request_indices
        write_key = self.write_key
        after_ids = self.after_ids
        stage = self.leaf_stage
        leaf_key = self.leaf_key
        shift = u.row_layout[0]
        br_shift = shift["br"]
        pair_bits = fo_id << shift["fo"] | fs_id << shift["fs"]
        met = set()  # the known masks swept so far, when the rule ignores m
        for mi in m_reps:
            if not (self.live or self.framed):
                return
            known = u.m_options[mi][1]
            granted = mask
            if not self.reads_m:
                if known in met:
                    continue
                met.add(known)
            elif self.matrix_guards:
                granted = _granted(self.matrix_guards, mask, (empty, empty, fo_id, fs_id, mi),
                                   u, reqs)
            if not granted:
                continue
            base = pair_bits | mi << shift["m"] | granted << shift["mask"]
            pos = 1  # the position in the subtree of the row's first leaf
            tracks = self.tracks
            for br_id, bw_mask, bw_subs in u.subtree(combo, known)[1]:
                row = base | bw_mask | br_id << br_shift
                due = [g for g in tracks if g[1] is None or row & g[0] not in g[1]]
                if not due:
                    pos += len(bw_subs)
                    continue
                if len(due) == 1:
                    _bits, _seen, every, _blind, both, walk = due[0]
                else:
                    every = [c for g in due for c in g[2]]
                    both = every + [c for g in due for c in g[3]]
                    walk = any(g[5] for g in due)
                if stage is not None:
                    leaves = stage.get(row & leaf_key)
                    if leaves is None:
                        leaves = stage[row & leaf_key] = self._leaf_stage(
                            granted, bw_subs, br_id, fo_id, fs_id, mi)
                elif walk:
                    leaves = [(i, granted, 0 if i else granted) for i in range(len(bw_subs))]
                else:
                    leaves = ((0, granted, granted),)
                for i, leaf_mask, fresh in leaves:
                    js = leaf_mask if walk else fresh
                    if not js:
                        continue
                    ids = (br_id, bw_subs[i][1], fo_id, fs_id, mi)
                    wkey = write_key(ids)
                    entries = effects.get(wkey)
                    if entries is None:
                        entries = effects[wkey] = [None] * len(reqs)
                    for j in indices.get(js) or _bit_indices(indices, js):
                        entry = entries[j]
                        if entry is None:
                            entry = entries[j] = self._written(u.state(ids), j)
                        checks = both if fresh >> j & 1 else every
                        if not checks:
                            continue
                        after = ids + entry
                        failed = False
                        for ob, key, memo, pred in checks:
                            k = key(after)
                            ok = memo.get(k)
                            if ok is None:
                                try:
                                    ok = memo[k] = bool(pred(u.state(after_ids(after))))
                                except Exception as e:
                                    raise _evaluation_failure(u.state(ids), reqs[j]) from e
                            if not ok:
                                st = u.state(ids)
                                ob.failed = failed = True
                                ob.witness = Witness(st, reqs[j], self._apply(st, j), ob.prop)
                                ob.fail_at = (combo, mi, pos + i)
                        if failed:
                            self.live = [c for c in self.live if not c[0].failed]
                            self._set_tracks()
                            tracks = self.tracks
                            every = [c for c in every if not c[0].failed]
                            both = [c for c in both if not c[0].failed]
                for bits, seen, *_ in due:
                    if seen is not None:
                        seen.add(row & bits)
                pos += len(bw_subs)


def _sweep_range(
    u: _Universe,
    rule_defs: dict[str, RuleDef],
    obligations: Sequence[Obligation],
    start: int,
    step: int,
):
    """Check one rule's obligations over the stride of representative (fs,
    fo) pairs ``u.orbits.reps[start::step]``: a list of obligations that
    spans rules raises.  Returns one chunk result for ``_merge_chunks``:
    per-obligation partial verdicts, each failure at its (pair, matrix,
    position), and the task's sweep time.  It counts nothing: states come
    from the census.  The task's plan, with its memos and footprint sets,
    is dropped when it returns.

    The hypothesis (all invariants hold before the step) is generated by
    ``_Universe.subtree``, not filtered.  A small-scope test pins this
    against literally filtering enumerate_states with the core predicates.
    Only orbit representatives are swept: of a pair's matrix options, those
    no renaming that fixes the pair maps to an earlier option
    (``_Orbits.m_reps``), each with every hypothesis leaf.  The rule's plan
    makes one call per pair, ``_RulePlan.sweep``, which runs the rule's
    guard stages and walks the rows of the subtrees they admit, until no
    obligation is left to decide; a subtree where the rule grants no
    request is never listed.  One clock pair times the whole task: a
    rule's measured time, its obligations' ``elapsed_ms``, is the sum over
    its tasks, and includes building each hypothesis table the rule is the
    first in its process to fetch, since rules share those tables.
    """
    rule_names = {ob.rule for ob in obligations}
    if len(rule_names) != 1:
        raise ValueError(f"a sweep task holds one rule's obligations, not {sorted(rule_names)}'s")
    t0 = time.perf_counter()
    obs = [_ObState(ob.rule, ob.prop) for ob in obligations]
    plan = _RulePlan(rule_defs[rule_names.pop()], obs, u)
    orbits = u.orbits
    for combo in orbits.reps[start::step]:
        # stop once every obligation has failed (mutation runs stop fast)
        if not (plan.live or plan.framed):
            break
        plan.sweep(combo, orbits.m_reps[orbits.stabiliser[combo]])
    elapsed = time.perf_counter() - t0
    return [(o.rule, o.prop, o.failed, o.witness, o.fail_at) for o in obs], elapsed


def _evaluation_failure(st, req) -> RuntimeError:
    return RuntimeError(f"internal evaluation failure on state={st!r}, request={req!r}")


def _select_obligations(rule: Optional[str], prop: Optional[str]) -> tuple[Obligation, ...]:
    if rule is not None and rule not in RULE_DEFS:
        raise ValueError(f"unknown rule: {rule!r}")
    if prop is not None and prop not in PROPERTY_ORDER:
        raise ValueError(f"unknown property: {prop!r}")
    return tuple(
        ob for ob in ALL_OBLIGATIONS
        if (rule is None or ob.rule == rule) and (prop is None or ob.prop == prop)
    )


def _pool_size(workers: int, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` units of work ((rule,
    representative (fs, fo) pair) sweeps, or obligations): no more than
    asked for, than there are units, or than the CPUs this process may run
    on."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count()
    return min(workers, n_tasks, cpus or 1)


# A pool worker's share of ``_run_tasks``' context, set once when the worker
# starts; never set in the process that runs the pool.
_worker_context: tuple = ()


def _start_worker(*context) -> None:
    global _worker_context
    _worker_context = context


def _run_in_worker(fn, task):
    return fn(*_worker_context, *task)


def _run_tasks(fn, context: tuple, tasks: list[tuple], n: int) -> list:
    """``fn(*context, *task)`` for every task, results in task order: in
    this process when ``n`` <= 1, otherwise on ``n`` workers that receive
    ``context`` once, when they start, and take one task at a time.  So a
    worker's universe, its tables and invariant memos serve every task it
    runs.  Workers are forked where the platform can fork, and spawned
    (``context`` pickled to each) where it cannot."""
    if n <= 1:
        return [fn(*context, *task) for task in tasks]
    # only pooled checks pay the import
    from multiprocessing import get_all_start_methods, get_context

    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    with get_context(method).Pool(n, initializer=_start_worker, initargs=context) as pool:
        return pool.starmap(_run_in_worker, [(fn, task) for task in tasks], chunksize=1)


def _sweep_tasks(u: _Universe, rule_defs: dict[str, RuleDef], obligations,
                 n_workers: int) -> list[tuple]:
    """The exhaustive sweep's tasks for a pool of ``n_workers``: per rule,
    ``(its selected obligations, w, k)`` for w in range(k), task w
    sweeping the strided representative pairs ``u.orbits.reps[w::k]``.
    Rules share no memo entry and no footprint, so a task holds one rule.
    k is the pool's workers per rule, ceil(n_workers / rules), at most
    one per representative pair: 1, the whole range, when there are at
    least as many rules as workers.  A stride takes pairs from all over
    the range, so a split rule's tasks cost about the same.

    The heaviest rules go first, so that none is left to run alone at the
    end: those with a track in use whose footprint tells every row apart
    and reads bw, so that every row they admit is swept and its leaves
    differ (changeClass and deleteObject, whose ``objectUnaccessed`` guard
    reads br and bw), then the rest in ``RULE_ORDER``.  That is read from
    the rules' declarations (``_row_footprints`` and ``_tracks_in_use``),
    with no plan built."""
    by_rule: dict[str, list[Obligation]] = {}
    for ob in obligations:
        by_rule.setdefault(ob.rule, []).append(ob)

    def light(rule):
        footprints = _row_footprints(rule_defs[rule], [ob.prop for ob in by_rule[rule]])[1]
        in_use = _tracks_in_use(footprints, [key for key in footprints if key is not None])
        return not any(footprints[key][1] and "bw" in footprints[key][0] for key in in_use)

    rules = sorted(by_rule, key=light)
    k = min(math.ceil(n_workers / len(rules)), len(u.orbits.reps))
    return [(by_rule[rule], w, k) for rule in rules for w in range(k)]


def _merge_chunks(u: _Universe, obligations, chunk_results):
    """Fold sweep chunk results, in any order, into sequential-equivalent
    verdicts: per obligation, the failure with the least ``fail_at``
    (pair, matrix, position), which is enumeration order, wins.  Each
    chunk's failure is the first of its strided pairs, so the least of
    them is the first of all.  States come from the census
    (``_Universe.leaves_before``): a failing obligation's visited-state count is
    the hypothesis leaves ahead of its witness's subtree plus the witness's
    position there, and a passing one's is every hypothesis leaf.  Per-rule
    times sum over chunks: one worker's time for a rule swept whole, and
    for a split one the ``perf_counter`` times of its strides summed over
    the workers that swept them, which can exceed the check's wall time.

    Returns ``{obligation: (failed, witness, states)}`` and the times."""
    first = {}
    total_time: dict[str, float] = {}
    for entries, secs in chunk_results:
        for rule, prop, failed, witness, fail_at in entries:
            ob = Obligation(rule, prop)
            if failed and (ob not in first or fail_at < first[ob][1]):
                first[ob] = (witness, fail_at)
        rule = entries[0][0]
        total_time[rule] = total_time.get(rule, 0.0) + secs

    merged = {}
    for ob in obligations:
        if ob in first:
            witness, (combo, mi, pos) = first[ob]
            merged[ob] = (True, witness, u.leaves_before(combo, mi) + pos)
        else:
            merged[ob] = (False, None, u.hypothesis_states)
    return merged, total_time


def check_obligations(
    b: Bounds = P0,
    mode: str = MODE_EXHAUSTIVE,
    samples: int = 1000,
    seed: int = 0,
    rule: Optional[str] = None,
    prop: Optional[str] = None,
    workers: int = 1,
    strict_star: bool = False,
    rule_defs: Optional[dict[str, RuleDef]] = None,
) -> ObligationReport:
    """Check the selected obligations and report one verdict per obligation.

    Exhaustive mode covers every (state, request) pair of the bounded
    universe whose state satisfies all invariants.  Random mode draws
    ``samples`` such pairs per obligation from a generator seeded with
    ``seed``; equal seeds give identical reports.  ``rule_defs`` lets tests
    substitute mutated rule tables.  In exhaustive mode each obligation's
    ``elapsed_ms`` is its rule's measured sweep time, shared by all the
    obligations of that rule.
    """
    if mode not in (MODE_EXHAUSTIVE, MODE_RANDOM):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == MODE_RANDOM and not 1 <= samples <= sys.maxsize:
        raise ValueError(f"random mode needs 1 <= samples <= {sys.maxsize}: {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if rule_defs is not None and workers > 1:
        raise ValueError("rule_defs overrides run single-worker only")
    obligations = _select_obligations(rule, prop)
    defs = dict(RULE_DEFS) if rule_defs is None else {**RULE_DEFS, **rule_defs}
    u = _Universe(b, strict_star)

    if mode == MODE_RANDOM:
        # one task per obligation; each seeds its own generator, so sharding
        # cannot change results
        results = _run_tasks(
            _random_obligation, (u, defs),
            [(ob, samples, seed) for ob in obligations],
            _pool_size(workers, len(obligations)),
        )
        return ObligationReport(bounds=b, mode=MODE_RANDOM, results=tuple(results),
                                samples=samples, seed=seed)

    # one task per rule, or per rule and stride of pairs when the check
    # selects fewer rules than the pool has workers; a fail-fast search
    # stops at the first failure of every obligation of its task
    n = _pool_size(workers, len({ob.rule for ob in obligations}) * len(u.orbits.reps))
    tasks = _sweep_tasks(u, defs, obligations, n)
    chunk_results = _run_tasks(_sweep_range, (u, defs), tasks, n)
    merged, rule_time = _merge_chunks(u, obligations, chunk_results)

    results = []
    for ob in obligations:
        failed, witness, states = merged[ob]
        if failed:
            _validate_witness(witness, defs, u.props)
        results.append(
            ObligationResult(
                rule=ob.rule,
                prop=ob.prop,
                status="fail" if failed else "pass",
                states_checked=states,
                requests_checked=states * len(u.requests[ob.rule]),
                elapsed_ms=rule_time.get(ob.rule, 0.0) * 1000.0,
                witness=witness,
            )
        )
    return ObligationReport(bounds=b, mode=MODE_EXHAUSTIVE, results=tuple(results))


def _validate_witness(w: Witness, defs: dict[str, RuleDef], props: dict) -> None:
    """Refuse to report a counterexample that does not reproduce."""
    rd = defs[rules.RULE_OF_REQUEST[type(w.request)]]
    out = apply_def(rd, w.state, w.request)
    hypothesis = all(fn(w.state) for fn in props.values())
    violated = not props[w.prop](out.after)
    if not (hypothesis and out.after == w.after and violated):
        raise AssertionError(f"witness failed self-validation: {w}")


def _random_pairs(rng: random.Random, u: _Universe,
                  reqs: Sequence[Request]) -> Iterator[tuple[SystemState, Request]]:
    """Endless (state, request) draws for random mode.  The state comes from
    the hypothesis: an (fs, fo) pair and a matrix, then (br, bw) options
    from the readable and writable masks until the leaf satisfies the
    *-property (at most 64 tries per subtree); the request is drawn after
    its state.  The acceptance test reads the masks of
    ``_Universe.pair_masks`` that generate the sweep's leaves: a leaf whose
    br and bw are both non-empty is kept when bw's mask lies within the AND
    of br's star masks.

    Every draw is ``rng._randbelow(n)`` on an n-item table, read by index:
    ``rng.randrange(n)`` and ``rng.choice`` on an n-item list both reduce
    to that call, so the draws, states and requests are those of a sampler
    that calls ``rng.choice`` on the option lists themselves (a test pins
    this).  The call is inlined as the loop ``Random._randbelow`` runs:
    ``getrandbits(k)`` with ``k = n.bit_length()`` until the result is
    below n, ``k`` worked out once per table.  The universe's tables and the
    generator's method are looked up once, not per draw, and a mask's
    access sets once per generator, without their ids and, for bw, with
    their own masks."""
    getrandbits = rng.getrandbits
    fs_options, fo_options, m_options = u.fs_options, u.fo_options, u.m_options
    n_fs, n_fo, n_m, n_reqs = len(fs_options), len(fo_options), len(m_options), len(reqs)
    k_fs, k_fo, k_m, k_reqs = (n.bit_length() for n in (n_fs, n_fo, n_m, n_reqs))
    pair_masks, access_sets, pair_bit = u.pair_masks, u.access_sets, u.pair_bit
    max_br, max_bw, every_pair = u.bounds.max_br, u.bounds.max_bw, u.every_pair
    # mask -> (its access sets, their count, the count's bit length); a bw
    # entry also lists each access set's own mask
    br_table: dict[int, tuple] = {}
    bw_table: dict[int, tuple] = {}
    while True:
        fs_i = getrandbits(k_fs)
        while fs_i >= n_fs:
            fs_i = getrandbits(k_fs)
        fo_i = getrandbits(k_fo)
        while fo_i >= n_fo:
            fo_i = getrandbits(k_fo)
        m_i = getrandbits(k_m)
        while m_i >= n_m:
            m_i = getrandbits(k_m)
        m, known = m_options[m_i]
        readable, writable, star = pair_masks(fs_i * n_fo + fo_i)
        mask = known & readable
        br_entry = br_table.get(mask)
        if br_entry is None:
            subs = [c for c, _id in access_sets(mask, max_br)]
            br_entry = br_table[mask] = (subs, len(subs), len(subs).bit_length())
        mask = known & writable
        bw_entry = bw_table.get(mask)
        if bw_entry is None:
            subs = [c for c, _id in access_sets(mask, max_bw)]
            bw_entry = bw_table[mask] = (subs, [sum(pair_bit[p] for p in c) for c in subs],
                                         len(subs), len(subs).bit_length())
        br_subs, n_br, k_br = br_entry
        bw_subs, bw_masks, n_bw, k_bw = bw_entry
        for _ in range(64):
            i = getrandbits(k_br)
            while i >= n_br:
                i = getrandbits(k_br)
            br = br_subs[i]
            i = getrandbits(k_bw)
            while i >= n_bw:
                i = getrandbits(k_bw)
            bw = bw_subs[i]
            if br and bw:
                allowed = every_pair
                for p in br:
                    allowed &= star[p]
                if bw_masks[i] & ~allowed:
                    continue
            i = getrandbits(k_reqs)
            while i >= n_reqs:
                i = getrandbits(k_reqs)
            yield (SystemState(br, bw, fo_options[fo_i], fs_options[fs_i], m), reqs[i])
            break


def _random_obligation(u: _Universe, defs, ob, samples, seed) -> ObligationResult:
    """Decide ``samples`` draws of ``_random_pairs`` as the sweep decides a
    leaf: the guard conjuncts in order, then, if all hold, the effect and
    the property on its after state.  A violation stops the obligation; its
    witness is re-validated through the public rule interface."""
    rng = random.Random(f"{seed}:{ob.rule}:{ob.prop}")
    rd = defs[ob.rule]
    reqs = u.requests[ob.rule]
    guards = tuple(c.holds for c in rd.conjuncts)
    effect = rd.effect
    prop_fn = u.props[ob.prop]
    witness = None
    checked = 0
    t0 = time.perf_counter()
    if reqs:
        for st, req in itertools.islice(_random_pairs(rng, u, reqs), samples):
            checked += 1
            try:
                for holds in guards:
                    if not holds(st, req):
                        break
                else:  # every guard held: granted
                    after = effect(st, req)
                    if not prop_fn(after):
                        witness = Witness(st, req, after, ob.prop)
                        break  # out of the sample loop
            except Exception as e:
                raise _evaluation_failure(st, req) from e
    elapsed = (time.perf_counter() - t0) * 1000.0
    if witness is not None:
        _validate_witness(witness, defs, u.props)
    return ObligationResult(
        rule=ob.rule,
        prop=ob.prop,
        status="pass" if witness is None else "fail",
        states_checked=checked,
        requests_checked=checked,
        elapsed_ms=elapsed,
        witness=witness,
    )


# --------------------------------------------------------------------------
# Partition analysis.

_COUPLED_TO_M = frozenset({"br", "bw"})
_WITNESS_CAP = 25


def _branching_components(clauses) -> frozenset[str]:
    reads = frozenset().union(
        *(c.reads for cl in clauses for c in (*cl.prefix, *((cl.negated,) if cl.negated else ())))
    ) if clauses else frozenset()
    if reads & _COUPLED_TO_M:
        reads = reads | {"m"}
    return reads


def check_partition(
    rule: str,
    variant: str = VARIANT_FIXED,
    b: Bounds = P0,
) -> PartitionReport:
    """Evaluate every clause guard of a rule on every in-bounds input.

    Records the inputs matched by no clause (gaps) and by two or more
    clauses (overlaps), grouped into families: gaps by the guard-conjunct
    signature, overlaps by the clause pair.  Per family the first
    ``_WITNESS_CAP`` inputs in canonical order are kept.

    State components no guard reads are held at their first enumeration
    option instead of being enumerated; guard values cannot depend on them
    (conjunct read-sets are declared and property-tested), so gap and
    overlap families over the reduced space are exactly those over the full
    space, and reported counts refer to the reduced space.

    Guards are boolean combinations of the rule's conjuncts, so their joint
    behaviour is tabulated once over all conjunct-value combinations.  When
    no combination at all yields a gap or an overlap, the per-input
    evaluation is skipped -- the all-clear verdict already holds for every
    input, realizable or not.  The input census is computed in closed form
    either way.  Outside the hypothesis, in a non-strict universe, both
    access sets of a subtree range over the subsets of its matrix's known
    pairs, so with k(mi) known pairs and C(k, cap) = sum of C(k, j) for
    j <= cap it is

        |fs_ids| * |fo_ids| * sum over mi in m_ids of
            C(k(mi), cap_br) * C(k(mi), cap_bw)

    over the held or enumerated option ranges and caps below.
    A small-scope test pins this engine against a naive sweep that calls
    every guard on every input.
    """
    clauses = rule_clauses(rule, variant)
    u = _Universe(b)
    reqs = u.requests[rule]
    conjuncts = RULE_DEFS[rule].conjuncts
    branch = _branching_components(clauses)

    # Precompute, for every combination of conjunct truth values, which
    # clause guards fire: guard = all(prefix) and not negated.  The leaf
    # loop then reduces to bit twiddling; kept witnesses are re-validated
    # against the real guard callables below.
    idx = {c.name: i for i, c in enumerate(conjuncts)}
    n = len(conjuncts)
    verdicts = []
    for mask in range(1 << n):
        fired = []
        for cl in clauses:
            v = all(mask >> idx[c.name] & 1 for c in cl.prefix)
            if v and cl.negated is not None:
                v = not (mask >> idx[cl.negated.name] & 1)
            if v:
                fired.append(cl.name)
        if not fired:
            sig = tuple((c.name, bool(mask >> i & 1)) for i, c in enumerate(conjuncts))
            verdicts.append(("gap", sig))
        elif len(fired) > 1:
            verdicts.append(("overlap", tuple(itertools.combinations(fired, 2))))
        else:
            verdicts.append(None)

    holds_all = [c.holds for c in conjuncts]
    n_fo = len(u.fo_options)
    fs_ids = range(len(u.fs_options) if "fs" in branch else 1)
    fo_ids = range(n_fo if "fo" in branch else 1)
    m_ids = range(len(u.m_options) if "m" in branch else 1)
    caps = (b.max_br if "br" in branch else 0, b.max_bw if "bw" in branch else 0)

    gap_fams: dict[tuple, list] = {}
    over_fams: dict[tuple[str, str], list] = {}
    t0 = time.perf_counter()

    # the census formula of the docstring
    leaves = len(fs_ids) * len(fo_ids) * sum(
        _subsets_upto(n, caps[0]) * _subsets_upto(n, caps[1])
        for n in (u.m_options[mi][1].bit_count() for mi in m_ids)
    )
    interesting = any(v is not None for v in verdicts)
    combos = (f * n_fo + o for f in fs_ids for o in fo_ids)
    for st in (_subtrees(u, combos, m_ids, caps) if interesting else ()):
        req = None
        try:
            for req in reqs:
                mask = 0
                for i, holds in enumerate(holds_all):
                    if holds(st, req):
                        mask |= 1 << i
                verdict = verdicts[mask]
                if verdict is None:
                    continue
                kind, payload = verdict
                if kind == "gap":
                    _record(gap_fams, payload, st, req)
                else:
                    for pair in payload:
                        _record(over_fams, pair, st, req)
        except Exception as e:
            raise _evaluation_failure(st, req) from e
    elapsed = (time.perf_counter() - t0) * 1000.0

    gap_families = tuple(
        GapFamily(sig, count, tuple(wits))
        for sig, (count, wits) in sorted(gap_fams.items())
    )
    overlap_families = tuple(
        OverlapFamily(pair, count, tuple(wits))
        for pair, (count, wits) in sorted(over_fams.items())
    )
    report = PartitionReport(
        rule=rule,
        variant=variant,
        bounds=b,
        states_checked=leaves,
        requests_checked=leaves * len(reqs),
        elapsed_ms=elapsed,
        gap_families=gap_families,
        overlap_families=overlap_families,
    )
    _validate_partition_witnesses(report, clauses)
    return report


def _record(fams: dict, key, st, req) -> None:
    slot = fams.get(key)
    if slot is None:
        fams[key] = [1, [PartitionWitness(st, req)]]
        return
    slot[0] += 1
    if len(slot[1]) < _WITNESS_CAP:
        slot[1].append(PartitionWitness(st, req))


def _validate_partition_witnesses(report: PartitionReport, clauses) -> None:
    """Re-run the actual guard callables on every kept witness."""
    for fam in report.gap_families:
        for w in fam.witnesses:
            if any(cl.guard(w.state, w.request) for cl in clauses):
                raise AssertionError(f"gap witness matches a clause: {w}")
    for fam in report.overlap_families:
        a, bname = fam.clause_pair
        by_name = {cl.name: cl for cl in clauses}
        for w in fam.witnesses:
            if not (by_name[a].guard(w.state, w.request)
                    and by_name[bname].guard(w.state, w.request)):
                raise AssertionError(f"overlap witness does not reproduce: {w}")
