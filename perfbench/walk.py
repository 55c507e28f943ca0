"""Seeded random walk of reference-monitor commands, as ``.blp`` text.

The generator keeps its own model of the protection state, written from the
rule definitions in the paper rather than taken from ``blpcheck``, and uses
it for two things:

* to bias the request mix towards requests that will be granted, so that the
  live state stays dense (a uniform mix drifts towards an empty ``br``/``bw``);
* as the oracle for the run: the decision it predicts for every command and
  the final state it ends in are compared with the program's trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

READ, WRITE, CTRL = "read", "write", "ctrl"
MODES = (READ, WRITE, CTRL)
SUBJECTS, OBJECTS, LEVELS, CATEGORIES = 8, 16, 3, 3
ASSERT_EVERY = 10  # commands between `assert seccond starprop wellformed`

# Target sizes of the live state.  Below its target, the requests that grow
# a component are favoured, and at or above it the ones that shrink it.  So
# every seed settles at about the same density, and the cost of a walk does
# not depend on its seed.  (A uniform mix drifts towards an empty br/bw.)
_TARGETS = {"br": 20, "bw": 20, "m": 150}
# (kind, component it grows or shrinks, weight below target, weight at or above)
_MIX = (
    ("get-read", "br", 30, 6), ("release-read", "br", 4, 20),
    ("get-write", "bw", 20, 5), ("release-write", "bw", 4, 20),
    ("give", "m", 20, 4), ("rescind-read", "m", 2, 8), ("rescind-write", "m", 2, 8),
    ("change-class", None, 8, 8), ("create-object", None, 2, 2),
    ("delete-object", None, 1, 1),
)
# Share of commands whose arguments are drawn uniformly instead of from the
# candidates the model expects to be granted, so refusals stay exercised.
_UNIFORM_SHARE = 0.25


@dataclass
class Model:
    fs: dict = field(default_factory=dict)   # subject -> (level, frozenset)
    fo: dict = field(default_factory=dict)   # object -> (level, frozenset)
    m: set = field(default_factory=set)      # (object, subject, mode)
    br: set = field(default_factory=set)     # (subject, object)
    bw: set = field(default_factory=set)


def _leq(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def _accessed(st: Model, o) -> bool:
    return any(p[1] == o for p in st.br) or any(p[1] == o for p in st.bw)


def granted(st: Model, cmd: tuple) -> bool:
    """The monitor's decision on ``cmd`` in state ``st``."""
    kind, args = cmd[0], cmd[1:]
    if kind == "get-read":
        s, o = args
        return ((o, s, READ) in st.m and (s, o) not in st.br and o in st.fo
                and s in st.fs and _leq(st.fo[o], st.fs[s])
                and all(oi in st.fo and _leq(st.fo[o], st.fo[oi])
                        for (si, oi) in st.bw if si == s))
    if kind == "get-write":
        s, o = args
        return ((o, s, WRITE) in st.m and (s, o) not in st.bw and o in st.fo
                and all(oi in st.fo and _leq(st.fo[oi], st.fo[o])
                        for (si, oi) in st.br if si == s))
    if kind == "release-read":
        return args in st.br
    if kind == "release-write":
        return args in st.bw
    if kind == "give":
        g, r, o, x = args
        return (x in (READ, WRITE) and (o, g, x) in st.m and (o, g, CTRL) in st.m
                and (o, r, x) not in st.m)
    if kind in ("rescind-read", "rescind-write"):
        rc, t, o = args
        x = READ if kind == "rescind-read" else WRITE
        return (o, rc, CTRL) in st.m and (o, t, x) in st.m
    if kind == "change-class":
        return args[0] in st.fo and not _accessed(st, args[0])
    if kind == "create-object":
        o = args[1]
        return o not in st.fo and not any(t[0] == o for t in st.m)
    if kind == "delete-object":
        s, o = args
        return (o, s, CTRL) in st.m and not _accessed(st, o)
    raise ValueError(f"unknown command {kind!r}")


def _effect(st: Model, cmd: tuple) -> None:
    kind, args = cmd[0], cmd[1:]
    if kind == "get-read":
        st.br.add(args)
    elif kind == "get-write":
        st.bw.add(args)
    elif kind == "release-read":
        st.br.discard(args)
    elif kind == "release-write":
        st.bw.discard(args)
    elif kind == "give":
        g, r, o, x = args
        st.m.add((o, r, x))
    elif kind in ("rescind-read", "rescind-write"):
        rc, t, o = args
        if kind == "rescind-read":
            st.m.discard((o, t, READ))
            st.br.discard((t, o))
        else:
            st.m.discard((o, t, WRITE))
            st.bw.discard((t, o))
    elif kind == "change-class":
        st.fo[args[0]] = args[1]
    elif kind == "create-object":
        s, o, k = args
        st.fo[o] = k
        st.m.add((o, s, CTRL))
    else:  # delete-object
        o = args[1]
        st.fo.pop(o, None)
        st.m = {t for t in st.m if t[0] != o}


def _class_text(k) -> str:
    return f"level {k[0]} cats {{{','.join(sorted(k[1]))}}}"


def command_text(cmd: tuple) -> str:
    kind, args = cmd[0], cmd[1:]
    if kind == "change-class":
        return f"{kind} {args[0]} {_class_text(args[1])}"
    if kind == "create-object":
        return f"{kind} {args[0]} {args[1]} {_class_text(args[2])}"
    return " ".join((kind,) + args)


@dataclass
class Walk:
    text: str
    decisions: list      # predicted grant (True) / refusal per command
    final: Model
    statements: int


def _uniform(rng: random.Random, kind: str, subjects, objects, classes) -> tuple:
    s, o, t = rng.choice(subjects), rng.choice(objects), rng.choice(subjects)
    if kind == "give":
        return (kind, s, t, o, rng.choice(MODES))
    if kind.startswith("rescind"):
        return (kind, s, t, o)
    if kind == "change-class":
        return (kind, o, rng.choice(classes))
    if kind == "create-object":
        return (kind, s, o, rng.choice(classes))
    return (kind, s, o)


def _pool(st: Model, kind: str) -> list:
    """What a biased draw of ``kind`` picks its arguments from, sorted so the
    walk does not depend on set iteration order."""
    if kind in ("get-read", "get-write", "rescind-read", "rescind-write"):
        mode = READ if kind.endswith("read") else WRITE
        held = [g for g in st.m if g[2] == mode]
        if kind.startswith("rescind"):
            # owners keep their own grants, or the object could never be
            # given again
            owners = {}
            for (o, s, x) in st.m:
                if x == CTRL:
                    owners.setdefault(o, []).append(s)
            return sorted((o, sorted(owners[o]), t) for (o, t, _x) in held
                          if o in owners and (o, t, CTRL) not in st.m)
        return sorted(held)
    if kind == "give":
        return sorted(g for g in st.m if g[2] != CTRL and (g[0], g[1], CTRL) in st.m)
    if kind == "release-read":
        return sorted(st.br)
    if kind == "release-write":
        return sorted(st.bw)
    return []


def _biased(rng: random.Random, kind: str, pool: list, subjects, objects,
            classes) -> tuple:
    if not pool:
        return _uniform(rng, kind, subjects, objects, classes)
    pick = rng.choice(pool)
    if kind in ("get-read", "get-write"):
        o, s, _x = pick
        return (kind, s, o)
    if kind.startswith("rescind"):
        o, owners, t = pick
        return (kind, rng.choice(owners), t, o)
    if kind == "give":
        o, s, x = pick
        return (kind, s, rng.choice(subjects), o, x)
    return (kind,) + pick  # release-read, release-write


_TRIES = 8


def _command(rng, st, kind, subjects, objects, classes) -> tuple:
    if rng.random() < _UNIFORM_SHARE or kind in (
            "change-class", "create-object", "delete-object"):
        return _uniform(rng, kind, subjects, objects, classes)
    pool = _pool(st, kind)
    for _ in range(_TRIES):
        cmd = _biased(rng, kind, pool, subjects, objects, classes)
        if granted(st, cmd):
            break
    return cmd


def generate(seed: int, commands: int) -> Walk:
    """A walk of ``commands`` commands from a seeded random initial state."""
    rng = random.Random(f"walk:{seed}")
    subs = tuple(f"s{i + 1}" for i in range(SUBJECTS))
    objs = tuple(f"o{i + 1}" for i in range(OBJECTS))
    cats = tuple(f"k{i + 1}" for i in range(CATEGORIES))
    classes = tuple(
        (lvl, frozenset(c for j, c in enumerate(cats) if mask >> j & 1))
        for lvl in range(LEVELS) for mask in range(1 << CATEGORIES)
    )
    st = Model()
    for s in subs:
        st.fs[s] = rng.choice(classes)
    # a quarter of the objects start unclassified and unowned, so that
    # create-object has fresh objects from the start
    for o in objs[: OBJECTS - OBJECTS // 4]:
        st.fo[o] = rng.choice(classes)
        owner = rng.choice(subs)
        st.m.update({(o, owner, CTRL), (o, owner, READ), (o, owner, WRITE)})
        for s in rng.sample(subs, 3):
            st.m.add((o, s, rng.choice((READ, WRITE))))

    lines = ["state"]
    lines += [f"  subject {s} {_class_text(st.fs[s])}" for s in subs]
    lines += [f"  object {o} {_class_text(st.fo[o])}" if o in st.fo else f"  object {o}"
              for o in objs]
    lines += [f"  grant {o} {s} {x}" for (o, s, x) in sorted(st.m)]
    lines.append("end")
    statements = 1

    kinds = [k for k, *_rest in _MIX]
    decisions = []
    for i in range(commands):
        sizes = {"br": len(st.br), "bw": len(st.bw), "m": len(st.m)}
        weights = [lo if part is None or sizes[part] < _TARGETS[part] else hi
                   for _k, part, lo, hi in _MIX]
        kind = rng.choices(kinds, weights)[0]
        cmd = _command(rng, st, kind, subs, objs, classes)
        ok = granted(st, cmd)
        if ok:
            _effect(st, cmd)
        decisions.append(ok)
        lines.append(command_text(cmd))
        statements += 1
        if (i + 1) % ASSERT_EVERY == 0:
            lines.append("assert seccond starprop wellformed")
            statements += 1
    return Walk("\n".join(lines) + "\n", decisions, st, statements)
