"""Scenario language: grammar, state construction, execution, round-trips."""

import gc
import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blpcheck import (
    build_state,
    format_script,
    format_state,
    make_state,
    parse_scenario,
    run_scenario,
    sec_class,
    well_formed,
)
from blpcheck import core, format_report
from blpcheck.scenario import (
    Command,
    Expect,
    ScenarioParseError,
    ScenarioRunError,
    Script,
    StateBlock,
    StateBuildError,
)
from conftest import well_formed_states

DEMO_BLOCK = """\
state
  subject s1 level 1 cats {cia}
  subject s2 level 2 cats {cia,f14,f15}
  object o1 level 1 cats {f14}
  object o2 level 2 cats {f14,f15}
  grant o1 s1 read
  grant o1 s2 write
  grant o2 s2 read
  grant o2 s2 write
end
"""


def demo_state_value():
    return make_state(
        fo={"o1": sec_class(1, {"f14"}), "o2": sec_class(2, {"f14", "f15"})},
        fs={"s1": sec_class(1, {"cia"}), "s2": sec_class(2, {"cia", "f14", "f15"})},
        m=[("o1", "s1", "read"), ("o1", "s2", "write"),
           ("o2", "s2", "read"), ("o2", "s2", "write")],
    )


# --- parsing -----------------------------------------------------------------

def test_parse_demo_block_builds_reference_state():
    script = parse_scenario(DEMO_BLOCK)
    assert len(script.statements) == 1
    (block,) = script.statements
    assert isinstance(block, StateBlock)
    st = build_state(block.decls)
    assert st == demo_state_value()
    assert dict(st.fo)["o2"] == sec_class(2, {"f14", "f15"})


def test_parse_empty_state_block():
    script = parse_scenario("state\nend\n")
    assert script.statements == (StateBlock(()),)
    assert build_state(()) == make_state()
    assert well_formed(build_state(()))


def test_parse_comments_and_blank_lines():
    script = parse_scenario("# a comment\n\nstate  # trailing comment\nend\n")
    assert len(script.statements) == 1


def test_parse_crlf_line_endings():
    crlf = DEMO_BLOCK.replace("\n", "\r\n") + "get-write s2 o2\r\nexpect yes\r\n"
    trace = run_scenario(parse_scenario(crlf))
    assert trace.all_expectations_met
    assert trace.final_state.bw == (("s2", "o2"),)


def test_give_arity_error_names_the_arity():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(DEMO_BLOCK + "give s1 s2\n")
    err = exc.value
    assert err.line == 11
    assert "4 arguments" in err.message
    assert err.offending_token == "<end-of-line>"


def test_give_arity_error_on_a_bare_line():
    # argument errors win over the missing-state-block complaint
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("give s1 s2")
    assert exc.value.line == 1
    assert "4 arguments" in exc.value.message


def test_parse_error_positions_are_one_based():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("state\n  subject 9bad level 0 cats {}\nend\n")
    assert (exc.value.line, exc.value.column) == (2, 11)
    assert exc.value.offending_token == "9"


def test_duplicate_declaration_is_a_parse_error():
    src = "state\n  subject s1 level 0 cats {}\n  subject s1 level 1 cats {}\nend\n"
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(src)
    assert "duplicate" in exc.value.message


def test_grant_requires_declared_ids():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("state\n  grant o1 s1 read\nend\n")
    assert "undeclared" in exc.value.message


def test_command_before_state_block_is_a_parse_error():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("get-read s1 o1\n")
    assert "before any state block" in exc.value.message


def test_expect_before_command_is_a_parse_error():
    with pytest.raises(ScenarioParseError):
        parse_scenario(DEMO_BLOCK + "expect yes\n")


def test_unclosed_state_block():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("state\n  subject s1 level 0 cats {}\n")
    assert "not closed" in exc.value.message


def test_bad_mode_and_bad_propname():
    with pytest.raises(ScenarioParseError):
        parse_scenario(DEMO_BLOCK + "give s1 s2 o1 execute\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario(DEMO_BLOCK + "assert nonsense\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario(DEMO_BLOCK + "assert\n")


def test_bare_declarations_parse_without_classes():
    script = parse_scenario(
        "state\n  subject s1\n  object o1\n  grant o1 s1 read\nend\n"
    )
    st = build_state(script.statements[0].decls)
    assert st.fs == () and st.fo == ()
    assert st.m == (("o1", "s1", "read"),)


def test_all_command_forms_parse():
    src = DEMO_BLOCK + "\n".join([
        "get-read s1 o1",
        "get-write s1 o1",
        "release-read s1 o1",
        "release-write s1 o1",
        "give s1 s2 o1 read",
        "rescind-read s1 s2 o1",
        "rescind-write s1 s2 o1",
        "change-class o1 level 0 cats {}",
        "create-object s1 o3 level 1 cats {cia}",
        "delete-object s1 o3",
    ]) + "\n"
    script = parse_scenario(src)
    commands = [s for s in script.statements if isinstance(s, Command)]
    assert len(commands) == 10


# Every command word cut short after each of its arguments, plus a few wrong
# tokens: (command line, column, message, offending token), all on line 3.
_COMMAND_ERRORS = [
    ("get-read", 9, "expected a subject (get-read expects 2 arguments: subject object)"),
    ("get-read s1", 12, "expected an object (get-read expects 2 arguments: subject object)"),
    ("get-write", 10, "expected a subject (get-write expects 2 arguments: subject object)"),
    ("get-write s1", 13, "expected an object (get-write expects 2 arguments: subject object)"),
    ("release-read", 13, "expected a subject (release-read expects 2 arguments: subject object)"),
    ("release-read s1", 16, "expected an object (release-read expects 2 arguments: subject object)"),
    ("release-write", 14, "expected a subject (release-write expects 2 arguments: subject object)"),
    ("release-write s1", 17, "expected an object (release-write expects 2 arguments: subject object)"),
    ("give", 5, "expected a giver (give expects 4 arguments: giver receiver object mode)"),
    ("give s1", 8, "expected a receiver (give expects 4 arguments: giver receiver object mode)"),
    ("give s1 s2", 11, "expected an object (give expects 4 arguments: giver receiver object mode)"),
    ("give s1 s2 o1", 14, "give expects 4 arguments: giver receiver object mode"),
    ("rescind-read", 13, "expected a rescinder (rescind-read expects 3 arguments: rescinder target object)"),
    ("rescind-read s1", 16, "expected a target (rescind-read expects 3 arguments: rescinder target object)"),
    ("rescind-read s1 s2", 19, "expected an object (rescind-read expects 3 arguments: rescinder target object)"),
    ("rescind-write", 14, "expected a rescinder (rescind-write expects 3 arguments: rescinder target object)"),
    ("rescind-write s1", 17, "expected a target (rescind-write expects 3 arguments: rescinder target object)"),
    ("rescind-write s1 s2", 20, "expected an object (rescind-write expects 3 arguments: rescinder target object)"),
    ("change-class", 13, "expected an object (change-class expects object and a class)"),
    ("change-class o1", 16, "expected 'level'"),
    ("create-object", 14, "expected a subject (create-object expects subject, object and a class)"),
    ("create-object s1", 17, "expected an object (create-object expects subject, object and a class)"),
    ("create-object s1 o3", 20, "expected 'level'"),
    ("delete-object", 14, "expected a subject (delete-object expects 2 arguments: subject object)"),
    ("delete-object s1", 17, "expected an object (delete-object expects 2 arguments: subject object)"),
]
_COMMAND_ERRORS = [(*case, "<end-of-line>") for case in _COMMAND_ERRORS] + [
    ("get-read s1 9", 13, "expected an object (get-read expects 2 arguments: subject object)", "9"),
    ("give s1 s2 o1 sideways", 15, "expected a mode (read, write or ctrl)", "sideways"),
    ("rescind-write s1 9 o1", 18, "expected a target (rescind-write expects 3 arguments: rescinder target object)", "9"),
    ("change-class { level 0 cats {}", 14, "expected an object (change-class expects object and a class)", "{"),
    ("delete-object s1 o3 o4", 18, "unexpected trailing token", "o4"),
    # an identifier that passed in an argument position, then an invalid
    # token in the same position: each spelling is matched once per parse
    ("get-read s1 o1\nget-read s1 o-1", 13, "expected an object (get-read expects 2 arguments: subject object)", "o-1"),
    ("get-read s1 o1\nget-read s1 9", 13, "expected an object (get-read expects 2 arguments: subject object)", "9"),
    ("get-read s1 o1\nget-read s1 é", 13, "expected an object (get-read expects 2 arguments: subject object)", "é"),
    ("give s1 s2 o1 read\ngive s1 s2 o-1 read", 12, "expected an object (give expects 4 arguments: giver receiver object mode)", "o-1"),
    ("rescind-write s1 s2 o1\nrescind-write s1 é o1", 18, "expected a target (rescind-write expects 3 arguments: rescinder target object)", "é"),
    ("create-object s1 o3 level 0 cats {}\ncreate-object 9 o3 level 0 cats {}", 15, "expected a subject (create-object expects subject, object and a class)", "9"),
    ("change-class o1 level 0 cats {}\nchange-class o-1 level 0 cats {}", 14, "expected an object (change-class expects object and a class)", "o-1"),
    ("delete-object s1 o3\ndelete-object s1 o3 o-1", 18, "unexpected trailing token", "o-1"),
]


def test_command_argument_errors_are_pinned():
    for line, column, message, token in _COMMAND_ERRORS:
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("state\nend\n" + line + "\n")
        err = exc.value
        assert (err.line, err.column, err.message, err.offending_token) == (
            3 + line.count("\n"), column, message, token), line


# --- building ----------------------------------------------------------------

def test_reading_without_grant_names_the_invariant():
    src = "state\n  subject s1 level 0 cats {}\n  object o1 level 0 cats {}\n" \
          "  reading s1 o1\nend\n"
    block = parse_scenario(src).statements[0]
    with pytest.raises(StateBuildError) as exc:
        build_state(block.decls)
    assert exc.value.invariant == "ranBrInDomM"


def test_writing_without_grant_names_the_invariant():
    src = "state\n  subject s1 level 0 cats {}\n  object o1 level 0 cats {}\n" \
          "  writing s1 o1\nend\n"
    block = parse_scenario(src).statements[0]
    with pytest.raises(StateBuildError) as exc:
        build_state(block.decls)
    assert exc.value.invariant == "ranBwInDomM"


def test_built_states_are_well_formed():
    src = DEMO_BLOCK.replace("end", "  reading s1 o1\n  writing s2 o2\nend")
    st = build_state(parse_scenario(src).statements[0].decls)
    assert well_formed(st)
    assert st.br == (("s1", "o1"),) and st.bw == (("s2", "o2"),)


# --- execution ---------------------------------------------------------------

SIM1 = DEMO_BLOCK + """\
get-write s2 o2
expect yes
get-read s2 o2
expect yes
assert seccond starprop
"""

SIM2 = DEMO_BLOCK + """\
get-write s2 o1
expect yes
get-read s2 o2
expect no
"""


def test_simulation_one():
    trace = run_scenario(parse_scenario(SIM1))
    assert trace.all_expectations_met
    assert trace.final_state.br == (("s2", "o2"),)
    assert trace.final_state.bw == (("s2", "o2"),)


def test_simulation_two():
    trace = run_scenario(parse_scenario(SIM2))
    assert trace.all_expectations_met
    assert trace.final_state.br == ()
    assert trace.final_state.bw == (("s2", "o1"),)


def test_give_gap_scenario_fixed_variant():
    src = (
        "state\n  subject s1\n  subject s2\n  object o1\n"
        "  grant o1 s1 read\n  grant o1 s1 ctrl\n  grant o1 s2 read\nend\n"
        "give s1 s2 o1 read\nexpect no\n"
    )
    trace = run_scenario(parse_scenario(src))
    assert trace.all_expectations_met
    assert trace.entries[-2].outcome.clause == "giveRWE4"


def test_expectation_mismatch_stops_the_run():
    src = DEMO_BLOCK + "get-read s1 o2\nexpect yes\nget-read s1 o1\n"
    trace = run_scenario(parse_scenario(src))
    assert not trace.all_expectations_met
    assert trace.failed_at == 2  # the expect statement
    assert len(trace.entries) == 3  # nothing after the failure


def test_assert_stops_at_first_false_property():
    src = DEMO_BLOCK + "get-write s2 o1\nassert starprop seccond\n"
    # force a starprop violation by hand-editing the state mid-run is not
    # possible; instead assert a property that is false on purpose
    src = (
        "state\n  subject s1\n  object o1\n  grant o1 s1 read\n"
        "  reading s1 o1\nend\nassert seccond starprop\n"
    )
    trace = run_scenario(parse_scenario(src))
    assert trace.failed_at == 1
    assert trace.entries[-1].checks == (("seccond", False),)


def test_commands_advance_through_denials():
    src = DEMO_BLOCK + "get-read s1 o2\nget-read s2 o2\nexpect yes\n"
    trace = run_scenario(parse_scenario(src))
    assert trace.all_expectations_met  # the denied step left the state alone
    assert trace.final_state.br == (("s2", "o2"),)


def test_later_state_block_replaces_the_state():
    src = DEMO_BLOCK + "get-write s2 o2\n" + DEMO_BLOCK + "assert wellformed\n"
    trace = run_scenario(parse_scenario(src))
    assert trace.all_expectations_met
    assert trace.final_state == demo_state_value()  # the write got discarded


def test_trace_replay_is_identical():
    script = parse_scenario(SIM1)
    assert run_scenario(script) == run_scenario(script)


def _count_class_maps(monkeypatch):
    """The classifications ``core.class_map`` is called on from now on."""
    built = []

    def counted_class_map(entries):
        built.append(entries)
        return class_map(entries)

    class_map = core.class_map
    monkeypatch.setattr(core, "class_map", counted_class_map)
    return built


def test_a_scenario_builds_each_class_map_once(monkeypatch):
    """Commands that change no classification leave ``fo`` and ``fs`` the
    very same objects, so a run builds each of their class maps once."""
    built = _count_class_maps(monkeypatch)
    src = DEMO_BLOCK + 3 * (
        "get-read s1 o1\nget-write s2 o1\nget-read s2 o2\nrelease-write s2 o1\n"
        "get-read s2 o2\nget-write s2 o2\ngive s2 s1 o1 write\n"
        "assert seccond starprop wellformed\nrelease-read s2 o2\nrelease-write s2 o2\n"
    )
    trace = run_scenario(parse_scenario(src))
    assert trace.all_expectations_met
    final = trace.final_state
    assert len(built) == 2
    assert {id(e) for e in built} == {id(final.fo), id(final.fs)}


def test_a_class_change_leaves_the_subject_class_map_built(monkeypatch):
    """A granted change-class gives a new ``fo`` and leaves ``fs`` the
    very same object, so the reads after it build the new ``fo``'s class
    map and not ``fs``'s again."""
    built = _count_class_maps(monkeypatch)
    src = DEMO_BLOCK + (
        "get-read s2 o2\nexpect yes\nrelease-read s2 o2\n"
        "change-class o2 level 1 cats {f14}\nexpect yes\n"
        "get-read s2 o2\nexpect yes\nrelease-read s2 o2\nget-read s2 o2\nexpect yes\n"
    )
    trace = run_scenario(parse_scenario(src))
    assert trace.all_expectations_met
    fs = trace.final_state.fs
    assert sum(e is fs for e in built) == 1
    assert len(built) == 3  # fo before and after the change, and fs


def test_intermediate_states_stay_well_formed():
    """After an `assert wellformed` succeeds, every state reached by later
    commands is still well-formed (the rules preserve the type invariants)."""
    src = DEMO_BLOCK + "assert wellformed\n" + "\n".join([
        "get-write s2 o2",
        "get-read s2 o2",
        "release-read s2 o2",
        "give s1 s2 o1 read",
        "rescind-write s1 s2 o1",
        "create-object s1 o3 level 0 cats {}",
        "change-class o3 level 1 cats {}",
        "delete-object s1 o3",
    ]) + "\n"
    script = parse_scenario(src)
    trace = run_scenario(script)
    assert trace.all_expectations_met
    # replay statement by statement, checking the state after each command
    state = None
    from blpcheck import apply_rule
    from blpcheck.scenario import StateBlock, Command, build_state as build
    for stmt in script.statements:
        if isinstance(stmt, StateBlock):
            state = build(stmt.decls)
            assert well_formed(state)
        elif isinstance(stmt, Command):
            state = apply_rule(state, stmt.request).after
            assert well_formed(state)
    assert state == trace.final_state


# --- serialization -----------------------------------------------------------

def test_script_round_trip():
    src = SIM1 + "give s1 s2 o1 write\nexpect no\nrescind-read s1 s2 o2\n" \
        + "change-class o1 level 0 cats {}\ncreate-object s1 o4 level 2 cats {cia,f14}\n"
    script = parse_scenario(src)
    assert parse_scenario(format_script(script)) == script


def test_format_script_is_canonical():
    script = parse_scenario(SIM2)
    once = format_script(script)
    assert format_script(parse_scenario(once)) == once


@given(well_formed_states())
def test_state_round_trip(st_):
    block = parse_scenario(format_state(st_)).statements[0]
    assert build_state(block.decls) == st_


def test_format_state_rejects_multibound_maps():
    raw = make_state(fo=[("o1", sec_class(0)), ("o1", sec_class(1))])
    with pytest.raises(ValueError):
        format_state(raw)


@st.composite
def scripts(draw):
    """Random but grammatically valid scenario sources."""
    from blpcheck.scenario import format_request
    from blpcheck.rules import (
        ChangeClass, CreateObject, DeleteObject, GetRead, GetWrite, GiveRW,
        ReleaseRead, ReleaseWrite, RescindRead, RescindWrite,
    )
    from conftest import classes

    subjects = st.sampled_from(("s1", "s2"))
    objects = st.sampled_from(("o1", "o2"))
    modes = st.sampled_from(("read", "write", "ctrl"))
    requests = st.one_of(
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
    lines = [format_state(draw(well_formed_states()))]
    seen_command = False
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ("command", "assert", "expect") if seen_command
            else ("command", "assert")
        ))
        if kind == "command":
            lines.append(format_request(draw(requests)))
            seen_command = True
        elif kind == "assert":
            props = draw(st.lists(
                st.sampled_from(("seccond", "starprop", "wellformed")),
                min_size=1, max_size=3))
            lines.append("assert " + " ".join(props))
        else:
            lines.append("expect " + draw(st.sampled_from(("yes", "no"))))
    return "\n".join(lines) + "\n"


@given(scripts())
def test_generated_script_round_trip(source):
    script = parse_scenario(source)
    printed = format_script(script)
    assert parse_scenario(printed) == script
    assert format_script(parse_scenario(printed)) == printed


# --- error columns -------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
# the token grammar of the module docstring, written out independently
_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*|[0-9]+|[{},]|\S")


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.blp")), ids=lambda p: p.name)
def test_parse_error_column_at_every_token(path):
    """The scanner keeps no columns and finds one only for an error.  In a
    valid script, replacing any one token with ``!`` must give an error at
    exactly that line and column, naming ``!``."""
    lines = path.read_text().splitlines()
    parse_scenario("\n".join(lines))
    tried = 0
    for number, text in enumerate(lines, start=1):
        code, hash_, comment = text.partition("#")
        for tok in _TOKENS.finditer(code):
            broken = code[:tok.start()] + "!" + code[tok.end():] + hash_ + comment
            source = "\n".join(lines[:number - 1] + [broken] + lines[number:])
            with pytest.raises(ScenarioParseError) as err:
                parse_scenario(source)
            where = (err.value.line, err.value.column, err.value.offending_token)
            assert where == (number, tok.start() + 1, "!"), (broken, err.value)
            tried += 1
    assert tried > 20


# --- the paused collector ------------------------------------------------------

def _walk_source(commands: int, seed: int = 15) -> str:
    """A state block, then ``commands`` seeded random commands over it, with
    ``assert seccond starprop wellformed`` after every tenth.  Gets and gives
    are drawn most often, and only ``o5`` is created and deleted, so every
    command form is granted now and then."""
    rng = random.Random(seed)
    subjects, objects = ("s1", "s2", "s3"), ("o1", "o2", "o3", "o4")
    lines = [
        "state",
        *(f"  subject {s} level {i} cats {{a,b}}" for i, s in enumerate(subjects)),
        *(f"  object {o} level {i % 3} cats {{a}}" for i, o in enumerate(objects)),
        *(f"  grant {o} {s} {x}" for o in objects for s in subjects
          for x in ("read", "write", "ctrl")),
        "end",
    ]
    for i in range(commands):
        (s, t), o = rng.sample(subjects, 2), rng.choice(objects)
        x, cls = rng.choice(("read", "write", "ctrl")), f"level {rng.randrange(3)} cats {{a}}"
        lines.append(rng.choices((
            f"get-read {s} {o}", f"get-write {s} {o}",
            f"release-read {s} {o}", f"release-write {s} {o}",
            f"give {s} {t} {o} {x}", f"rescind-read {s} {t} {o}",
            f"rescind-write {s} {t} {o}", f"change-class {o} {cls}",
            f"create-object {s} o5 {cls}", f"delete-object {s} o5",
        ), (6, 6, 2, 2, 6, 1, 1, 1, 1, 1))[0])
        if i % 10 == 9:
            lines.append("assert seccond starprop wellformed")
    return "\n".join(lines) + "\n"


FAILING_ASSERT = (
    "state\n  subject s1\n  object o1\n  grant o1 s1 read\n"
    "  reading s1 o1\nend\nassert seccond starprop\n"
)
FAILING_EXPECT = DEMO_BLOCK + "get-read s1 o2\nexpect yes\n"
BAD_SYNTAX = DEMO_BLOCK + "get-read s1\n"
READING_WITHOUT_GRANT = "state\n  subject s1\n  object o1\n  reading s1 o1\nend\n"


@pytest.fixture
def collector():
    """Leaves ``gc.isenabled()`` as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_scenario_records_form_no_reference_cycles(collector):
    """``parse_scenario`` and ``run_scenario`` pause the cyclic collector,
    which is sound only while nothing they make is in a reference cycle:
    with the collector off throughout, dropping every script, trace and
    report (and the errors raised on the way) leaves nothing for it."""
    gc.disable()
    gc.collect()
    sources = [p.read_text() for p in sorted(EXAMPLES.glob("*.blp"))]
    sources += [_walk_source(3000), FAILING_ASSERT, FAILING_EXPECT]
    failed = []
    for source in sources:
        trace = run_scenario(parse_scenario(source))
        failed.append(trace.failed_at is not None)
        for fmt in ("machine", "text"):
            assert format_report(trace, fmt)
    assert failed == [False] * (len(sources) - 2) + [True, True]
    with pytest.raises(ScenarioParseError):
        parse_scenario(BAD_SYNTAX)
    with pytest.raises(StateBuildError):
        run_scenario(parse_scenario(READING_WITHOUT_GRANT))
    with pytest.raises(ScenarioRunError):
        run_scenario(Script((Expect("yes"),)))
    del trace
    assert gc.collect() == 0


_EXITS = {
    "parse": lambda: parse_scenario(SIM1),
    "run": lambda: run_scenario(parse_scenario(SIM1)),
    "ScenarioParseError": lambda: parse_scenario(BAD_SYNTAX),
    "StateBuildError": lambda: run_scenario(parse_scenario(READING_WITHOUT_GRANT)),
    "ScenarioRunError": lambda: run_scenario(Script((Expect("yes"),))),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("exit_", sorted(_EXITS))
def test_the_callers_collector_setting_is_restored(collector, exit_, enabled):
    """After every public call, on a return or an error, the collector is on
    exactly when the caller had it on."""
    (gc.enable if enabled else gc.disable)()
    try:
        _EXITS[exit_]()
    except (ScenarioParseError, StateBuildError, ScenarioRunError) as e:
        assert exit_ == type(e).__name__
    else:
        assert exit_ in ("parse", "run")
    assert gc.isenabled() is enabled
