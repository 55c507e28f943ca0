"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The obligation criterion runs the full exhaustive sweep at the default
profile (2 subjects, 2 objects, 2 levels, 1 category, max two concurrent
reads/writes, three matrix entries); expect well under a minute of
runtime.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from blpcheck import (
    Bounds,
    P0,
    apply_rule,
    check_obligations,
    check_partition,
    class_leq,
    get_read,
    get_write,
    parse_scenario,
    release_access,
    run_scenario,
    sec_class,
    sec_cond,
    star_prop,
    well_formed,
)
from blpcheck.cli import main
from blpcheck.core import READ, WRITE
from blpcheck.rules import (
    NO,
    RULE_DEFS,
    RULE_ORDER,
    YES,
    apply_def,
    without_conjunct,
)

from test_checker import oracle_states

BUDGET_SECONDS = 600
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _announce(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def default_check():
    """One exhaustive default-profile run shared by the obligation criterion."""
    t0 = time.perf_counter()
    code, out = _run_cli("check", "--format", "machine")
    return code, out, time.perf_counter() - t0


# Hypothesis-state census of the default profile, pinned from an
# independent bitmask-encoded enumeration (and equal to the layered
# generator's own count).
P0_HYPOTHESIS_STATES = 4_853_545
# sha256 of the all-pass machine report at the default profile, recorded
# from the program before the sweep was reduced to one state per renaming
# orbit, so that the reduction is held to the same bytes.
P0_REPORT_SHA256 = "45f333099ec9e49cb1e0b0b423dca03dbe2ff2dd06f8020d2293fbe7f216acfd"
# sha256 of the machine report of ``check --strict-star`` at the default
# profile (all pass).  The CI workflow requires it with 1 and 2 workers and
# two hash seeds.
P0_STRICT_REPORT_SHA256 = "ad366f5a04f9c6a41020d132e344279a8c17b2b3ac565502c72e4dd9c00a9d88"
# sha256 of the machine report of ``check --levels 3``, the profile
# ``Bounds(2, 2, 3, 1, 2, 2, 3)`` (all pass, 18,758,913 hypothesis states).
# The CI workflow requires it with 1 and 2 workers and two hash seeds, and
# checks the states column against the benchmark's independent census.
L3_REPORT_SHA256 = "d8b601fd44d7489571ba354ef21b299b261c84e7e15fb5cfbddd9aa8d2ef349f"
# sha256 of the machine report of ``check --objects 3``, the profile
# ``Bounds(2, 3, 2, 1, 2, 2, 3)`` (all pass, 134,133,437 hypothesis states),
# where a renaming fixes 27,675 of the 271,400 swept subtrees.  The CI
# workflow requires it with 1 and 2 workers and two hash seeds, and checks
# the states column against the benchmark's independent census.
O3_REPORT_SHA256 = "a5d3960a6ca45326af319aa5da1b261956a11e3a4541b4b5b3ff8ebc52185e04"
# sha256 of the machine report of ``check --subjects 3``, the profile
# ``Bounds(3, 2, 2, 1, 2, 2, 3)`` (all pass, 264,963,965 hypothesis
# states).  The CI workflow requires it with 1 and 2 workers and two hash
# seeds, and checks the states column against the benchmark's independent
# census.
S3_REPORT_SHA256 = "9ccec24db49f54e7eeb45e6f9654296dc2ceceb302a81ded68931f7fe77b5a2c"
# sha256 of the machine report of ``check --categories 2``, the profile
# ``Bounds(2, 2, 2, 2, 2, 2, 3)`` (all pass, 46,559,385 hypothesis
# states), the first pinned profile where renaming categories acts.  The
# CI workflow requires it with 1 and 2 workers and two hash seeds, and
# checks the states column against the benchmark's independent census.
C2_REPORT_SHA256 = "6b4bba726bd72964d2dee4b2dd03f950e88c805e9927302f3fbc1b6c559dd627"
# sha256 of the machine report of ``check --max-br 3 --max-bw 3
# --max-matrix 4``, the profile ``Bounds(2, 2, 2, 1, 3, 3, 4)`` (all pass,
# 20,603,890 hypothesis states), with 3-element access sets and 4-entry
# matrices: the most br and bw options per subtree of any pinned profile.
# The CI workflow requires it with 1 and 2 workers and two hash seeds, and
# checks the states column against the benchmark's independent census.
CAPS_REPORT_SHA256 = "a721c596c11d81f9a80eb545435bac970b2e3a84f3cbe18d908ca2ede738b8f1"
# sha256 of the machine report of ``check --subjects 3 --levels 3``, the
# profile ``Bounds(3, 2, 3, 1, 2, 2, 3)`` (all pass, 1,440,364,051
# hypothesis states), about 100 s at 2 workers and 3 minutes at 1 worker
# on a 2-core Xeon.  The CI workflow requires it at 2 workers under hash
# seed 0 and at 1 worker under hash seed 1, and checks the states column
# against the benchmark's independent census.
S3L3_REPORT_SHA256 = "52c45e6301cbbb56ad7335dc9d248532a704625227a3b67e025112510633e92a"


def test_criterion_obligation_suite(default_check):
    code, out, elapsed = default_check
    lines = [ln for ln in out.splitlines() if ln and "\t" in ln]
    ok = (
        code == 0
        and len(lines) == 60
        and all(ln.split("\t")[2] == "pass" for ln in lines)
        and all(int(ln.split("\t")[3]) == P0_HYPOTHESIS_STATES for ln in lines)
        and hashlib.sha256(out.encode()).hexdigest() == P0_REPORT_SHA256
        and elapsed < BUDGET_SECONDS
    )
    print(f"  (60 obligations, exhaustive, {elapsed:.0f}s single-threaded)")
    _announce("obligation-suite", ok)


def _initial_state(path):
    from blpcheck.scenario import StateBlock, build_state as build

    script = parse_scenario(open(path).read())
    block = next(s for s in script.statements if isinstance(s, StateBlock))
    return build(block.decls)


def test_criterion_simulation_one():
    code, out = _run_cli("run", str(EXAMPLES / "sim1.blp"))
    trace = run_scenario(parse_scenario(open(EXAMPLES / "sim1.blp").read()))
    expected = _initial_state(EXAMPLES / "sim1.blp")._replace(
        br=(("s2", "o2"),), bw=(("s2", "o2"),)
    )
    ok = (
        code == 0
        and trace.all_expectations_met
        and trace.final_state == expected
        and out.rstrip().endswith("ALL EXPECTATIONS MET")
    )
    _announce("simulation-1", ok)


def test_criterion_simulation_two():
    code, _out = _run_cli("run", str(EXAMPLES / "sim2.blp"))
    trace = run_scenario(parse_scenario(open(EXAMPLES / "sim2.blp").read()))
    expected = _initial_state(EXAMPLES / "sim2.blp")._replace(
        br=(), bw=(("s2", "o1"),)
    )
    ok = (
        code == 0
        and trace.all_expectations_met
        and trace.final_state == expected
    )
    _announce("simulation-2", ok)


def test_criterion_gap_rediscovery():
    code, _out = _run_cli("partition", "--rule", "giveRW",
                          "--variant", "paperFaithful")
    report = check_partition("giveRW", "paperFaithful", P0)
    witnesses = [w for fam in report.gap_families for w in fam.witnesses]
    shaped = [
        w for w in witnesses
        if w.request.x == READ
        and {(w.request.o, w.request.giver, "ctrl"),
             (w.request.o, w.request.giver, "read"),
             (w.request.o, w.request.receiver, "read")} <= set(w.state.m)
    ]
    ok = code == 1 and len(witnesses) >= 1 and bool(shaped)
    _announce("gap-rediscovery", ok)


def test_criterion_gap_closure():
    ok = True
    for rule in RULE_ORDER:
        code, _out = _run_cli("partition", "--rule", rule, "--variant", "fixed")
        report = check_partition(rule, "fixed", P0)
        if code != 0 or report.gap_families or report.overlap_families:
            ok = False
    _announce("gap-closure", ok)


def test_criterion_mutation_sensitivity():
    t0 = time.perf_counter()
    write_mutant = {
        "getWrite": without_conjunct(RULE_DEFS["getWrite"], "readsBelowObject")
    }
    rep1 = check_obligations(P0, rule="getWrite", prop="starprop",
                             rule_defs=write_mutant)
    (r1,) = rep1.results
    w1 = r1.witness
    star_broken = (
        r1.status == "fail"
        and well_formed(w1.state) and sec_cond(w1.state) and star_prop(w1.state)
        and apply_def(write_mutant["getWrite"], w1.state, w1.request).after == w1.after
        and not star_prop(w1.after)
    )

    read_mutant = {
        "getRead": without_conjunct(RULE_DEFS["getRead"], "clearanceDominates")
    }
    rep2 = check_obligations(P0, rule="getRead", prop="seccond",
                             rule_defs=read_mutant)
    (r2,) = rep2.results
    w2 = r2.witness
    clearance_broken = (
        r2.status == "fail"
        and sec_cond(w2.state)
        and not sec_cond(w2.after)
    )
    elapsed = time.perf_counter() - t0
    ok = star_broken and clearance_broken and elapsed < BUDGET_SECONDS
    print(f"  (both mutants detected in {elapsed:.1f}s)")
    _announce("mutation-sensitivity", ok)


def test_criterion_oracle_equivalence():
    from blpcheck import enumerate_states
    from blpcheck.scenario import format_state

    ok = True
    for bounds, pinned in ((Bounds(1, 1, 1, 0, 1, 1, 1), 52),
                           (Bounds(1, 2, 2, 0, 2, 2, 2), 5211)):
        got = {format_state(s) for s in enumerate_states(bounds)}
        want = {format_state(s) for s in oracle_states(bounds)}
        if got != want or len(got) != pinned:
            ok = False
    _announce("oracle-equivalence", ok)


def test_criterion_property_suites(demo_state):
    # partial-order laws on a grid of classes
    cls = [sec_class(l, c) for l in range(3)
           for c in ({*()}, {"a"}, {"b"}, {"a", "b"})]
    laws = all(class_leq(a, a) for a in cls)
    laws &= all(
        class_leq(a, c)
        for a in cls for b in cls for c in cls
        if class_leq(a, b) and class_leq(b, c)
    )
    laws &= all(
        a == b for a in cls for b in cls
        if class_leq(a, b) and class_leq(b, a)
    )

    # frame condition for all ten rules over a small exhaustive product
    from blpcheck.checker import enumerate_states, enumerate_requests
    small = Bounds(1, 2, 2, 0, 1, 1, 2)
    frame = True
    for st_ in enumerate_states(small):
        for req in enumerate_requests(small):
            out = apply_rule(st_, req)
            if out.decision == NO and out.after != st_:
                frame = False

    # inverse pairs on the demo state
    from blpcheck import create_object, delete_object

    got = get_read(demo_state, "s2", "o2")
    inv = (got.decision == YES
           and release_access(got.after, "s2", "o2", READ).after == demo_state)
    got = get_write(demo_state, "s2", "o1")
    inv &= (got.decision == YES
            and release_access(got.after, "s2", "o1", WRITE).after == demo_state)
    made = create_object(demo_state, "s1", "o3", sec_class(1, {"cia"}))
    inv &= (made.decision == YES
            and delete_object(made.after, "s1", "o3").after == demo_state)

    # parser round-trip on the shipped scenarios
    from blpcheck import format_script
    rt = True
    for name in ("sim1.blp", "sim2.blp", "give_gap.blp"):
        script = parse_scenario(open(EXAMPLES / name).read())
        rt &= parse_scenario(format_script(script)) == script

    # seeded reproducibility, byte-identical machine reports
    args = ("check", "--subjects", "1", "--objects", "2", "--levels", "2",
            "--categories", "0", "--max-br", "1", "--max-bw", "1",
            "--max-matrix", "2", "--mode", "random", "--samples", "150",
            "--seed", "31337", "--format", "machine")
    code_a, out_a = _run_cli(*args)
    code_b, out_b = _run_cli(*args)
    seeded = code_a == code_b == 0 and out_a == out_b

    _announce("property-suites", laws and frame and inv and rt and seeded)
