"""A line-oriented scenario language for driving the reference monitor.

A script builds states, fires rules and asserts invariants or decisions::

    state
      subject s1 level 1 cats {cia}
      object  o1 level 1 cats {f14}
      grant   o1 s1 read
    end
    get-read s1 o1
    expect yes
    assert seccond starprop wellformed

Grammar (one statement per line, ``#`` starts a comment, tokens are
whitespace-separated except for ``{`` ``}`` ``,``)::

    script      := line*
    line        := state-block | command | "assert" propname+
                 | "expect" ("yes"|"no") | blank | comment
    state-block := "state" NL decl* "end"
    decl        := "subject" ID [classpart]
                 | "object"  ID [classpart]
                 | "grant"   ID ID MODE3          # object subject mode
                 | "reading" ID ID                # subject object
                 | "writing" ID ID                # subject object
    classpart   := "level" NAT "cats" "{" idlist? "}"
    command     := "get-read" ID ID | "get-write" ID ID
                 | "release-read" ID ID | "release-write" ID ID
                 | "give" ID ID ID MODE3          # giver receiver object mode
                 | "rescind-read" ID ID ID | "rescind-write" ID ID ID
                 | "change-class" ID classpart
                 | "create-object" ID ID classpart
                 | "delete-object" ID ID
    propname    := "seccond" | "starprop" | "wellformed"
    idlist      := ID ("," ID)*
    MODE3       := "read" | "write" | "ctrl"

The class part of an entity declaration is optional so that checker
witnesses with unclassified subjects or objects can be printed and
re-parsed; a bare declaration introduces the entity without a clearance
or classification.

Duplicate declarations, grants or accesses naming undeclared entities, a
command before the first state block, and an ``expect`` before the first
command are all parse-time errors.  Building a state whose ``reading`` or
``writing`` pairs lack a matching grant fails with the name of the violated
type invariant.
"""

from __future__ import annotations

import contextlib
import gc
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from . import core, rules
from .core import MATRIX_MODES, NO, SecurityClass, SystemState, YES, sec_class
from .rules import Outcome, Request, apply_rule

PROP_WELLFORMED = "wellformed"
SCENARIO_PROPS = {
    core.PROPERTY_SECCOND: core.sec_cond,
    core.PROPERTY_STARPROP: core.star_prop,
    PROP_WELLFORMED: core.well_formed,
}


class ScenarioParseError(Exception):
    """Parse failure at a 1-based (line, column) position."""

    def __init__(self, line: int, column: int, message: str, offending_token: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.offending_token = offending_token


class StateBuildError(Exception):
    """A state block violates a type invariant; names the invariant."""

    def __init__(self, invariant: str, detail: str):
        super().__init__(f"{invariant}: {detail}")
        self.invariant = invariant
        self.detail = detail


class ScenarioRunError(Exception):
    pass


@contextlib.contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off for the body, then back on if
    it was on before.  The records a scenario makes form no reference
    cycles, so the collector would only scan them again and again."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------
# Syntax.

@dataclass(frozen=True)
class EntityDecl:
    kind: str  # "subject" | "object"
    name: str
    cls: Optional[SecurityClass]


@dataclass(frozen=True)
class GrantDecl:
    o: str
    s: str
    mode: str


@dataclass(frozen=True)
class AccessDecl:
    kind: str  # "reading" | "writing"
    s: str
    o: str


Decl = Union[EntityDecl, GrantDecl, AccessDecl]


@dataclass(frozen=True)
class StateBlock:
    decls: tuple[Decl, ...]


@dataclass(frozen=True)
class Command:
    request: Request


@dataclass(frozen=True)
class Assert:
    props: tuple[str, ...]


@dataclass(frozen=True)
class Expect:
    decision: str


Statement = Union[StateBlock, Command, Assert, Expect]


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*|[0-9]+|[{},]|\S")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_NAT_RE = re.compile(r"[0-9]+$")

_END_OF_LINE = "<end-of-line>"


class _Line:
    """Token stream for one source line.

    Only the token strings are kept.  A column is needed only for an error
    message, so ``column`` finds it by scanning the line again.
    """

    __slots__ = ("number", "code", "tokens", "pos")

    def __init__(self, number: int, code: str, tokens: list[str]):
        self.number = number
        self.code = code
        self.tokens = tokens
        self.pos = 0

    def column(self, index: int) -> int:
        """The 1-based column of token ``index``, or of the end of the
        line when there is no such token."""
        for i, m in enumerate(_TOKEN_RE.finditer(self.code)):
            if i == index:
                return m.start() + 1
        return len(self.code.rstrip()) + 1

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            self.fail(f"expected {what}", _END_OF_LINE, len(self.tokens))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_id(self, what: str) -> str:
        tok = self.next(what)
        if not _ID_RE.match(tok):
            self.fail(f"expected {what}", tok)
        return tok

    def expect_nat(self, what: str) -> int:
        tok = self.next(what)
        if not _NAT_RE.match(tok):
            self.fail(f"expected {what}", tok)
        try:
            return int(tok)
        except ValueError:  # more digits than int() may convert
            self.fail(f"{what} with too many digits", tok)

    def expect_kw(self, kw: str) -> None:
        tok = self.next(f"'{kw}'")
        if tok != kw:
            self.fail(f"expected '{kw}'", tok)

    def expect_end(self) -> None:
        if self.pos < len(self.tokens):
            self.fail("unexpected trailing token", self.tokens[self.pos])

    def fail(self, message: str, token: str, index: Optional[int] = None) -> None:
        """Raise at the column of token ``index`` (by default the last token
        taken; past the last token, the end of the line)."""
        if index is None:
            index = self.pos - 1 if self.pos > 0 else 0
        raise ScenarioParseError(self.number, self.column(index), message, token)


def _parse_classpart(ln: _Line) -> SecurityClass:
    ln.expect_kw("level")
    level = ln.expect_nat("a level number")
    ln.expect_kw("cats")
    ln.expect_kw("{")
    cats: list[str] = []
    tok = ln.next("a category or '}'")
    if tok != "}":
        while True:
            if not _ID_RE.match(tok):
                ln.fail("expected a category identifier", tok)
            cats.append(tok)
            tok = ln.next("',' or '}'")
            if tok == "}":
                break
            if tok != ",":
                ln.fail("expected ',' or '}'", tok)
            tok = ln.next("a category identifier")
    return sec_class(level, cats)


def _parse_mode(ln: _Line) -> str:
    tok = ln.next("a mode (read, write or ctrl)")
    if tok not in MATRIX_MODES:
        ln.fail("expected a mode (read, write or ctrl)", tok)
    return tok


# The command word of each request type.  A command's arguments are its
# request's fields in order, parsed and printed by their kind
# (``rules.FIELD_KINDS``).
_COMMAND_WORDS = {
    "get-read": rules.GetRead,
    "get-write": rules.GetWrite,
    "release-read": rules.ReleaseRead,
    "release-write": rules.ReleaseWrite,
    "give": rules.GiveRW,
    "rescind-read": rules.RescindRead,
    "rescind-write": rules.RescindWrite,
    "change-class": rules.ChangeClass,
    "create-object": rules.CreateObject,
    "delete-object": rules.DeleteObject,
}


class _CommandSyntax:
    """One command word's arguments, derived from its request type's fields:
    ``fields`` holds ``(name, kind, expected)`` per field, where ``expected``
    describes an identifier argument in error messages, and ``arity`` is the
    argument list those messages quote."""

    def __init__(self, word: str, request_type: type):
        self.word = word
        self.request_type = request_type
        fields = rules.request_fields(request_type)
        # one-letter field names abbreviate their kind
        nouns = [kind if len(name) == 1 else name for name, kind in fields]
        if fields[-1][1] == rules.FIELD_CLASS:
            self.arity = ", ".join(nouns[:-1]) + " and a class"
        else:
            self.arity = f"{len(nouns)} arguments: {' '.join(nouns)}"
        self.fields = tuple(
            (name, kind,
             f"{'an' if noun[0] in 'aeiou' else 'a'} {noun} ({word} expects {self.arity})")
            for (name, kind), noun in zip(fields, nouns)
        )


_COMMANDS = {word: _CommandSyntax(word, rt) for word, rt in _COMMAND_WORDS.items()}
_COMMAND_OF_TYPE = {c.request_type: c for c in _COMMANDS.values()}


class _Parser:
    def __init__(self, source: str):
        self.lines = source.splitlines()
        self.index = 0
        self.subjects: set[str] = set()
        self.objects: set[str] = set()
        # command arguments already matched against _ID_RE in this parse
        self.identifiers: set[str] = set()

    def _next_line(self) -> Optional[_Line]:
        """The next line that holds a token, made when it is reached."""
        while self.index < len(self.lines):
            code = self.lines[self.index].split("#", 1)[0]
            self.index += 1
            tokens = _TOKEN_RE.findall(code)
            if tokens:
                return _Line(self.index, code, tokens)
        return None

    def parse(self) -> Script:
        statements: list[Statement] = []
        seen_state = False
        seen_command = False
        while (ln := self._next_line()) is not None:
            head = ln.peek()
            if head == "state":
                statements.append(self._parse_state_block(ln))
                seen_state = True
            elif head == "assert":
                statements.append(self._parse_assert(ln))
            elif head == "expect":
                if not seen_command:
                    ln.fail("'expect' before any command", head, 0)
                statements.append(self._parse_expect(ln))
            elif head in _COMMANDS:
                command = self._parse_command(ln, head)
                if not seen_state:
                    ln.fail(f"command '{head}' before any state block", head, 0)
                statements.append(command)
                seen_command = True
            else:
                ln.fail("expected a statement", head, 0)
        return Script(tuple(statements))

    def _parse_state_block(self, ln: _Line) -> StateBlock:
        ln.next("'state'")
        ln.expect_end()
        # each state block opens fresh namespaces
        self.subjects = set()
        self.objects = set()
        decls: list[Decl] = []
        while True:
            body = self._next_line()
            if body is None:
                ln.fail("state block not closed by 'end'", _END_OF_LINE,
                        len(ln.tokens))
            head = body.peek()
            if head == "end":
                body.next("'end'")
                body.expect_end()
                return StateBlock(tuple(decls))
            decls.append(self._parse_decl(body, head))

    def _parse_decl(self, ln: _Line, head: str) -> Decl:
        if head in ("subject", "object"):
            ln.next(head)
            name = ln.expect_id(f"a {head} identifier")
            if name in self.subjects or name in self.objects:
                ln.fail(f"duplicate declaration of '{name}'", name)
            cls = None
            if ln.peek() is not None:
                cls = _parse_classpart(ln)
            ln.expect_end()
            (self.subjects if head == "subject" else self.objects).add(name)
            return EntityDecl(head, name, cls)
        if head == "grant":
            ln.next("grant")
            o = ln.expect_id("an object identifier")
            s = ln.expect_id("a subject identifier")
            mode = _parse_mode(ln)
            ln.expect_end()
            self._check_declared(ln, 1, self.objects, "object")
            self._check_declared(ln, 2, self.subjects, "subject")
            return GrantDecl(o, s, mode)
        if head in ("reading", "writing"):
            ln.next(head)
            s = ln.expect_id("a subject identifier")
            o = ln.expect_id("an object identifier")
            ln.expect_end()
            self._check_declared(ln, 1, self.subjects, "subject")
            self._check_declared(ln, 2, self.objects, "object")
            return AccessDecl(head, s, o)
        ln.fail("expected a declaration or 'end'", head, 0)

    def _check_declared(self, ln: _Line, index: int, declared: set, kind: str) -> None:
        """Fail at token ``index``, a name, unless it is ``declared``."""
        name = ln.tokens[index]
        if name not in declared:
            ln.fail(f"undeclared {kind} '{name}'", name, index)

    def _parse_assert(self, ln: _Line) -> Assert:
        ln.next("assert")
        props: list[str] = []
        while (tok := ln.peek()) is not None:
            ln.next("a property name")
            if tok not in SCENARIO_PROPS:
                ln.fail("expected seccond, starprop or wellformed", tok)
            props.append(tok)
        if not props:
            ln.fail("assert needs at least one property", _END_OF_LINE,
                    len(ln.tokens))
        return Assert(tuple(props))

    def _parse_expect(self, ln: _Line) -> Expect:
        ln.next("expect")
        tok = ln.next("'yes' or 'no'")
        if tok not in (YES, NO):
            ln.fail("expected 'yes' or 'no'", tok)
        ln.expect_end()
        return Expect(tok)

    def _parse_command(self, ln: _Line, head: str) -> Command:
        """One loop over the line's tokens; an error names the token, and
        the column of the last token taken, as ``_Line``'s methods do."""
        syntax = _COMMANDS[head]
        tokens = ln.tokens
        n = len(tokens)
        identifiers = self.identifiers
        args = []
        pos = 1
        for _name, kind, expected in syntax.fields:
            if kind == rules.FIELD_CLASS:
                ln.pos = pos
                args.append(_parse_classpart(ln))
                pos = ln.pos
                continue
            if pos == n:
                ln.fail(f"{head} expects {syntax.arity}" if kind == rules.FIELD_MODE
                        else f"expected {expected}", _END_OF_LINE, n)
            tok = tokens[pos]
            if kind == rules.FIELD_MODE:
                if tok not in MATRIX_MODES:
                    ln.fail("expected a mode (read, write or ctrl)", tok, pos)
            elif tok not in identifiers:
                if not _ID_RE.match(tok):
                    ln.fail(f"expected {expected}", tok, pos)
                identifiers.add(tok)
            args.append(tok)
            pos += 1
        if pos < n:
            ln.fail("unexpected trailing token", tokens[pos], pos - 1)
        return Command(syntax.request_type(*args))


def parse_scenario(source: str) -> Script:
    """Parse scenario text; raises ScenarioParseError at the first offense.

    The cyclic garbage collector is paused while the text is parsed: the
    script's records form no reference cycles, so reference counting alone
    frees them.  The caller's setting (``gc.isenabled()``) is restored on
    return and on error.
    """
    with _collector_paused():
        return _Parser(source).parse()


# --------------------------------------------------------------------------
# State construction.

def build_state(decls: tuple[Decl, ...]) -> SystemState:
    """Turn a state block's declarations into a well-formed SystemState."""
    fs = {}
    fo = {}
    m = set()
    br = set()
    bw = set()
    for d in decls:
        if isinstance(d, EntityDecl):
            if d.cls is not None:
                (fs if d.kind == "subject" else fo)[d.name] = d.cls
        elif isinstance(d, GrantDecl):
            m.add((d.o, d.s, d.mode))
        else:
            (br if d.kind == "reading" else bw).add((d.s, d.o))
    st = core.make_state(br=br, bw=bw, fo=fo, fs=fs, m=m)
    granted = core.matrix_objects(st)
    for (s, o) in st.br:
        if o not in granted:
            raise StateBuildError(
                core.PROPERTY_RAN_BR, f"reading {s} {o} but no grant covers {o}"
            )
    for (s, o) in st.bw:
        if o not in granted:
            raise StateBuildError(
                core.PROPERTY_RAN_BW, f"writing {s} {o} but no grant covers {o}"
            )
    return st


# --------------------------------------------------------------------------
# Execution.

class TraceEntry(NamedTuple):
    """The record of one executed statement; a run makes one per statement,
    so it is a plain tuple rather than an object with a ``__dict__``."""

    index: int  # statement index within the script
    kind: str  # "state" | "command" | "assert" | "expect"
    request: Optional[Request] = None
    outcome: Optional[Outcome] = None
    checks: tuple[tuple[str, bool], ...] = ()
    expected: Optional[str] = None


@dataclass(frozen=True)
class Trace:
    entries: tuple[TraceEntry, ...]
    final_state: Optional[SystemState]
    failed_at: Optional[int]

    @property
    def all_expectations_met(self) -> bool:
        return self.failed_at is None


def run_scenario(script: Script) -> Trace:
    """Execute statements in order against the evolving state.

    Commands always advance to the outcome's after state (unchanged on a
    ``no``); ``assert`` stops at the first false property and ``expect``
    stops on a decision mismatch.

    The cyclic garbage collector is paused during the run: its trace
    entries, outcomes and states form no reference cycles, so reference
    counting alone frees them.  The caller's setting (``gc.isenabled()``)
    is restored on return and on error.
    """
    with _collector_paused():
        state: Optional[SystemState] = None
        last_outcome: Optional[Outcome] = None
        entries: list[TraceEntry] = []
        failed_at: Optional[int] = None
        for i, stmt in enumerate(script.statements):
            if isinstance(stmt, StateBlock):
                state = build_state(stmt.decls)
                entries.append(TraceEntry(i, "state"))
            elif isinstance(stmt, Command):
                if state is None:
                    raise ScenarioRunError("command before any state block")
                last_outcome = apply_rule(state, stmt.request)
                state = last_outcome.after
                entries.append(TraceEntry(i, "command", stmt.request, last_outcome))
            elif isinstance(stmt, Assert):
                checks = []
                bad = None
                for prop in stmt.props:
                    ok = state is not None and SCENARIO_PROPS[prop](state)
                    checks.append((prop, ok))
                    if not ok:
                        bad = prop
                        break
                entries.append(TraceEntry(i, "assert", checks=tuple(checks)))
                if bad is not None:
                    failed_at = i
                    break
            else:  # Expect
                if last_outcome is None:
                    raise ScenarioRunError("expect before any command")
                entries.append(TraceEntry(i, "expect", outcome=last_outcome,
                                          expected=stmt.decision))
                if last_outcome.decision != stmt.decision:
                    failed_at = i
                    break
        return Trace(tuple(entries), state, failed_at)


# --------------------------------------------------------------------------
# Canonical serialization.  format_state/format_script output re-parses to
# an equal state/script; checker witnesses are printed through the same
# code so they can be pasted back into .blp files.

def _format_class(cls: SecurityClass) -> str:
    return f"level {cls.level} cats {{{','.join(sorted(cls.cats))}}}"


def format_state(st: SystemState) -> str:
    """Serialize a state as a ``state .. end`` block (canonical order)."""
    if not core.fo_functional(st) or not core.fs_functional(st):
        raise ValueError("only functional classification maps can be printed")
    fs_map = dict(st.fs)
    fo_map = dict(st.fo)
    access = st.br + st.bw
    subjects = set(fs_map) | {s for (s, _o) in access} | {s for (_o, s, _x) in st.m}
    objects = set(fo_map) | {o for (_s, o) in access} | {o for (o, _s, _x) in st.m}
    return _format_state_block(StateBlock((
        *(EntityDecl("subject", s, fs_map.get(s)) for s in sorted(subjects)),
        *(EntityDecl("object", o, fo_map.get(o)) for o in sorted(objects)),
        *(GrantDecl(o, s, x) for (o, s, x) in sorted(st.m, key=core.triple_sort_key)),
        *(AccessDecl("reading", s, o) for (s, o) in st.br),
        *(AccessDecl("writing", s, o) for (s, o) in st.bw),
    )))


def format_request(req: Request) -> str:
    """One command line in scenario syntax."""
    syntax = _COMMAND_OF_TYPE[type(req)]
    parts = [syntax.word]
    for name, kind, _expected in syntax.fields:
        value = getattr(req, name)
        parts.append(_format_class(value) if kind == rules.FIELD_CLASS else value)
    return " ".join(parts)


def _format_state_block(block: StateBlock) -> str:
    lines = ["state"]
    for d in block.decls:
        if isinstance(d, EntityDecl):
            part = f" {_format_class(d.cls)}" if d.cls is not None else ""
            lines.append(f"  {d.kind} {d.name}{part}")
        elif isinstance(d, GrantDecl):
            lines.append(f"  grant {d.o} {d.s} {d.mode}")
        else:
            lines.append(f"  {d.kind} {d.s} {d.o}")
    lines.append("end")
    return "\n".join(lines)


def format_script(script: Script) -> str:
    """Canonical text of a script; re-parses to an equal Script."""
    parts = []
    for stmt in script.statements:
        if isinstance(stmt, StateBlock):
            parts.append(_format_state_block(stmt))
        elif isinstance(stmt, Command):
            parts.append(format_request(stmt.request))
        elif isinstance(stmt, Assert):
            parts.append("assert " + " ".join(stmt.props))
        else:
            parts.append(f"expect {stmt.decision}")
    return "\n".join(parts) + "\n"
