"""Output checks that do not reuse the checker's own code paths.

* ``census`` counts in-bounds states with bitmasks and closed-form subset
  counts, a different algorithm from ``enumerate_states`` and the staged
  sweep, so it pins their state counts independently.
* ``GOLDEN`` pins the sha256 of every deterministic machine report the
  benchmark produces.  The reports carry ``elapsed-ms`` 0 (no ``--timing``),
  so equal inputs must give equal bytes.
* ``recheck_witness`` and ``recheck_gap`` re-derive counterexamples from the
  printed text, without the checker's own witness validation.
"""

from __future__ import annotations

import hashlib
import itertools
from math import comb

from blpcheck import core, parse_scenario, build_state
from blpcheck.rules import apply_def
from blpcheck.scenario import Command, StateBlock

# Captured at import, before a traced run wraps the package's predicates,
# so checks never count towards the traced layers.
PROPS = dict(core.PROPERTY_FUNCS)
WELL_FORMED = core.well_formed
SEC_COND = core.sec_cond
STAR_PROP = core.star_prop

# sha256 of machine-format reports of the unmodified program.
GOLDEN = {
    "sweep:2,2,2,0,2,2,2":
        "f02d605ead0488defacf13f9079a3ff01a25aef21e97c1ac7c96eb91a88cbf37",
    "sweep:2,1,2,0,1,1,2":
        "0b2e4e22b4e3f655ba6be4b1c61477d04e2cf9c3c40b37a50893844c4ed178a4",
    "search:getRead:hasReadPermission:ranBrInDomM":
        "86a0f25718ffb64430682b6dab6ce62802c14f23e0185b0cf439e3f03fa3f6a7",
    "search:getRead:clearanceDominates:seccond":
        "6cbfaa1186ccdf810716b2054063752f77c38011d98ac59e7768f09257ae0082",
    "search:getRead:readBelowWrites:starprop":
        "04d4537d074d0513abaf84dd249b66b3117add51a769ed21076f3c51a7887ece",
    "search:getWrite:hasWritePermission:ranBwInDomM":
        "18eb27eb3f77ddbf888d642853ad7c4eb1ef186b272c36bd9ff820f9692875d2",
    "search:getWrite:readsBelowObject:starprop":
        "f790906e42a50deb66e488cebf2ba54a74765954b5ec851c6e2b0bfc79a2b2ef",
    "search:rescindRead:rescinderHasCtrl:ranBrInDomM":
        "83be8da206153915ae68c9f9149a7f062fb1192edf344d042b85c9499fa95740",
    "search:rescindWrite:rescinderHasCtrl:ranBwInDomM":
        "d8165eba2a16fd1c0f34a6c85ba67028839d0cba3dd776f7101457f40df694cb",
    "search:changeClass:objectUnaccessed:starprop":
        "50a8c4199a47c3469993d0c0c3512bd3340bd3e816f87d3dee19861076461e21",
    "search:changeClass:objectUnaccessed:seccond":
        "5baddf9b8128950545c30eed963cdec398c1fb1b0c91f7563c0285dd38a7aeea",
    "search:createObject:objectFresh:foFunctional":
        "d97275c1603b9b571a319cd800627ec1f0f2597f075090809dd47160baf1cec5",
    "search:deleteObject:objectUnaccessed:ranBrInDomM":
        "c6bf110b062bf47050a260f39ce0fcac8578b0aca936d223cf2ce489bf773d94",
    "partition:getRead:fixed":
        "5090684a3780e83426e3ed8087763616a627e5255d170ebad7ecff721865e9d6",
    "partition:getWrite:fixed":
        "3b1cc7f9ecbb0069d3750491cae4cc4f49a7dd454ae8d798092e1f873553a445",
    "partition:releaseRead:fixed":
        "1e33cf63b2c101d7563e77cbda2fea5da8938bc7864ce80eabdb626d8adba933",
    "partition:releaseWrite:fixed":
        "38bf7beb9c8de078bd33c371e099ef3dea6f3031e197324053b3c8a0fea48c3b",
    "partition:giveRW:fixed":
        "e7b510d978099c75211345449d54403450a21662718976dc8b95eb65b45402ef",
    "partition:rescindRead:fixed":
        "b40f17abe7e6a1a9bd1bb1b79455e61ce3b6230e3e4c4adc712925bc2f88f352",
    "partition:rescindWrite:fixed":
        "557e488b099970873590da9b2903968a47719ccbc47c4be151cf6b31957dfe0c",
    "partition:changeClass:fixed":
        "2b20e2e2d6c3a4554c31ba5f76d059332a2d7315e7ff6cf97cf0fc4371bdb24d",
    "partition:createObject:fixed":
        "8387f23196370ea5f797379340f0ae5dc70bdf439364b598b7793199303a9530",
    "partition:deleteObject:fixed":
        "0321bced855919530284a2028b1fa8e28b3a433f0f9051efa3c057bbc435f4ac",
    "partition:giveRW:paperFaithful":
        "bd01e770113af7c4b77fbf1f82490a287f3ca86298af6d3032057207a2cc9385",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _upto(n: int, cap: int) -> int:
    """Number of subsets of an n-set with at most ``cap`` elements."""
    return sum(comb(n, k) for k in range(min(n, cap) + 1))


def census(b) -> tuple[int, int]:
    """(well-formed states, hypothesis states) within bounds ``b``.

    A hypothesis state is well formed and satisfies the security condition
    and the *-property.  Current-access pairs (s, o) are bit ``s * O + o``.
    """
    S, O = b.num_subjects, b.num_objects
    classes = [(lvl, cm) for lvl in range(b.num_levels)
               for cm in range(1 << b.num_categories)]

    def leq(a, c):
        return a[0] <= c[0] and a[1] & ~c[1] == 0

    # matrix subsets of at most max_matrix triples, counted by the set of
    # objects they mention
    triples_obj = [o for o in range(O) for _ in range(S * 3)]
    by_dom: dict[int, int] = {}
    for k in range(min(b.max_matrix, len(triples_obj)) + 1):
        for combo in itertools.combinations(range(len(triples_obj)), k):
            dom = 0
            for t in combo:
                dom |= 1 << triples_obj[t]
            by_dom[dom] = by_dom.get(dom, 0) + 1
    avail = {dom: sum(1 << (s * O + o) for s in range(S) for o in range(O)
                      if dom >> o & 1)
             for dom in by_dom}
    small = [mask for mask in range(1 << (S * O))
             if bin(mask).count("1") <= b.max_br]
    options = [None] + classes
    well_formed = hypothesis = 0
    n_maps = len(options) ** S * len(options) ** O
    for dom, n_m in by_dom.items():
        n = bin(avail[dom]).count("1")
        well_formed += n_maps * n_m * _upto(n, b.max_br) * _upto(n, b.max_bw)
    for fs in itertools.product(options, repeat=S):
        for fo in itertools.product(options, repeat=O):
            read_ok = 0
            bad_w = [0] * (S * O)  # bw pairs a read of pair p forbids
            for s in range(S):
                for o1 in range(O):
                    p = s * O + o1
                    if fs[s] and fo[o1] and leq(fo[o1], fs[s]):
                        read_ok |= 1 << p
                    for o2 in range(O):
                        if not (fo[o1] and fo[o2] and leq(fo[o1], fo[o2])):
                            bad_w[p] |= 1 << (s * O + o2)
            for dom, n_m in by_dom.items():
                a = avail[dom]
                for br in small:
                    if br & ~(a & read_ok):
                        continue
                    bad = 0
                    for p in range(S * O):
                        if br >> p & 1:
                            bad |= bad_w[p]
                    free = bin(a & ~bad).count("1")
                    hypothesis += n_m * _upto(free, b.max_bw)
    return well_formed, hypothesis


def recheck_witness(text: str, rule_def, prop: str) -> list[str]:
    """Problems with the witness block printed in a machine report.

    Re-parses the state and request, re-applies the (mutant) rule and
    re-evaluates the invariants with the core predicates.
    """
    lines = text.splitlines()
    heads = [i for i, ln in enumerate(lines) if ln.startswith("witness\t")]
    if len(heads) != 1:
        return [f"expected one witness block, found {len(heads)}"]
    script = parse_scenario("\n".join(lines[heads[0] + 1:]))
    stmts = script.statements
    if len(stmts) != 2 or not isinstance(stmts[0], StateBlock) \
            or not isinstance(stmts[1], Command):
        return ["witness block is not one state block and one command"]
    st = build_state(stmts[0].decls)
    out = apply_def(rule_def, st, stmts[1].request)
    problems = []
    if not (WELL_FORMED(st) and SEC_COND(st) and STAR_PROP(st)):
        problems.append("witness state violates an invariant before the step")
    if out.decision != core.YES:
        problems.append("mutant rule refuses the witness request")
    if PROPS[prop](out.after):
        problems.append(f"{prop} holds after the witness step")
    return problems


def recheck_gap(text: str) -> list[str]:
    """Problems with the gap witnesses printed for giveRW paperFaithful.

    Every gap input must have the acceptance shape: the giver holds ctrl and
    the given mode, and the receiver already holds that mode.  At least one
    must give ``read``.
    """
    body, section = [], None
    for ln in text.splitlines():
        if ln.startswith(("giveRW\t", "gap\t", "overlap\t")):
            section = ln.split("\t", 1)[0]
        elif section == "gap":
            body.append(ln)
    stmts = parse_scenario("\n".join(body)).statements
    pairs = list(zip(stmts[0::2], stmts[1::2]))
    if not pairs:
        return ["no gap witness printed"]
    problems = []
    gave_read = False
    for block, cmd in pairs:
        st = build_state(block.decls)
        r = cmd.request
        m = set(st.m)
        gave_read |= r.x == core.READ
        if not ((r.o, r.giver, core.CTRL) in m and (r.o, r.giver, r.x) in m
                and (r.o, r.receiver, r.x) in m and r.x in core.ACCESS_MODES):
            problems.append(f"gap witness without the acceptance shape: {r}")
    if not gave_read:
        problems.append("no gap witness gives read")
    return problems
