"""Command-line front end.

Three commands::

    blpcheck check      # obligation sweep (default: profile P0, exhaustive)
    blpcheck partition --rule giveRW [--variant paperFaithful]
    blpcheck run scenario.blp

Exit codes: 0 all-pass / expectations met, 1 obligation failure, partition
gap or overlap, or failed expectation, 2 usage error, bounds too large to
check, unreadable or non-UTF-8 scenario file, or parse error.

Output is deterministic for fixed inputs and seed.  The elapsed-ms column
of reports is 0 unless ``--timing`` is given, so that two identical runs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Union

from .checker import (
    Bounds,
    MODE_EXHAUSTIVE,
    MODE_RANDOM,
    ObligationReport,
    P0,
    PartitionReport,
    Witness,
    check_obligations,
    check_partition,
)
from .core import PROPERTY_ORDER
from .rules import RULE_ORDER, VARIANTS, VARIANT_FIXED
from .scenario import (
    ScenarioParseError,
    StateBuildError,
    Trace,
    format_request,
    format_state,
    parse_scenario,
    run_scenario,
)

FORMAT_TEXT = "text"
FORMAT_MACHINE = "machine"

Report = Union[ObligationReport, PartitionReport, Trace]


def _ms(value: float, timing: bool) -> str:
    return str(int(value)) if timing else "0"


def _safe_state_block(st) -> str:
    try:
        return format_state(st)
    except ValueError:
        return f"# unprintable state: {st!r}"


def _witness_lines(w: Witness, rule: str, machine: bool) -> list[str]:
    lines = []
    if machine:
        lines.append(f"witness\t{rule}\t{w.prop}")
    else:
        lines.append(f"counterexample for {rule} ({w.prop} violated after the step):")
    lines.append(_safe_state_block(w.state))
    lines.append(format_request(w.request))
    after = _safe_state_block(w.after)
    lines.extend("# " + ln for ln in ("after:",) + tuple(after.splitlines()))
    return lines


def format_report(report: Report, fmt: str = FORMAT_TEXT, timing: bool = False) -> str:
    """Render a checker report or a scenario trace.

    Machine format is line-per-verdict, tab-separated:
    ``RULE<TAB>PROPERTY<TAB>pass|fail<TAB>states<TAB>requests<TAB>elapsed-ms``
    followed by witness blocks in scenario syntax.  Text format carries the
    same content plus a summary; witness state blocks in either format can
    be pasted into .blp files.  Exhaustive ``elapsed-ms`` is per rule: the
    rule's measured sweep time, repeated on each of that rule's rows.
    """
    if fmt not in (FORMAT_TEXT, FORMAT_MACHINE):
        raise ValueError(f"unknown format: {fmt!r}")
    machine = fmt == FORMAT_MACHINE
    if isinstance(report, ObligationReport):
        return _format_obligations(report, machine, timing)
    if isinstance(report, PartitionReport):
        return _format_partition(report, machine, timing)
    if isinstance(report, Trace):
        return _format_trace(report, machine)
    raise TypeError(f"cannot format {type(report).__name__}")


def _format_obligations(report: ObligationReport, machine: bool, timing: bool) -> str:
    lines = []
    if not machine:
        head = f"obligations at bounds {tuple(report.bounds)}, {report.mode} mode"
        if report.mode == MODE_RANDOM:
            head += f" (samples={report.samples}, seed={report.seed})"
        lines.append(head)
    for r in report.results:
        lines.append(
            f"{r.rule}\t{r.prop}\t{r.status}\t{r.states_checked}"
            f"\t{r.requests_checked}\t{_ms(r.elapsed_ms, timing)}"
        )
    for r in report.results:
        if r.witness is not None:
            lines.extend(_witness_lines(r.witness, r.rule, machine))
    if not machine:
        n_fail = sum(1 for r in report.results if r.status == "fail")
        lines.append(
            f"{len(report.results)} obligations: "
            f"{len(report.results) - n_fail} pass, {n_fail} fail"
        )
    return "\n".join(lines) + "\n"


def _format_partition(report: PartitionReport, machine: bool, timing: bool) -> str:
    status = "pass" if report.ok else "fail"
    lines = []
    if not machine:
        lines.append(
            f"partition of {report.rule} ({report.variant} variant) "
            f"at bounds {tuple(report.bounds)}"
        )
    lines.append(
        f"{report.rule}\tpartition:{report.variant}\t{status}"
        f"\t{report.states_checked}\t{report.requests_checked}"
        f"\t{_ms(report.elapsed_ms, timing)}"
    )
    for fam in report.gap_families:
        sig = " ".join(f"{name}={'true' if v else 'false'}" for name, v in fam.signature)
        if machine:
            lines.append(f"gap\t{fam.count}\t{sig}")
        else:
            lines.append(f"gap family ({fam.count} inputs): {sig}")
        for w in fam.witnesses:
            lines.append(_safe_state_block(w.state))
            lines.append(format_request(w.request))
    for fam in report.overlap_families:
        a, b = fam.clause_pair
        if machine:
            lines.append(f"overlap\t{fam.count}\t{a}\t{b}")
        else:
            lines.append(f"overlap family ({fam.count} inputs): {a} also matches {b}")
        for w in fam.witnesses:
            lines.append(_safe_state_block(w.state))
            lines.append(format_request(w.request))
    if not machine:
        lines.append(
            f"{len(report.gap_families)} gap families, "
            f"{len(report.overlap_families)} overlap families"
        )
    return "\n".join(lines) + "\n"


def _format_trace(trace: Trace, machine: bool) -> str:
    lines = []
    for e in trace.entries:
        if e.kind == "state":
            detail, result = "state block", "built"
        elif e.kind == "command":
            detail = format_request(e.request)
            result = f"{e.outcome.decision} [{e.outcome.clause}]"
        elif e.kind == "assert":
            detail = "assert " + " ".join(p for p, _ok in e.checks)
            result = "ok" if all(ok for _p, ok in e.checks) else (
                "FAILED " + next(p for p, ok in e.checks if not ok)
            )
        else:
            detail = f"expect {e.expected}"
            result = "ok" if e.outcome.decision == e.expected else (
                f"FAILED (got {e.outcome.decision})"
            )
        if machine:
            lines.append(f"{e.index + 1}\t{detail}\t{result}")
        else:
            lines.append(f"{e.index + 1:3d}  {detail:<36s} -> {result}")
    if trace.final_state is not None:
        if not machine:
            lines.append("final state:")
        lines.append(_safe_state_block(trace.final_state))
    return "\n".join(lines) + "\n"


def _add_bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subjects", type=int, default=P0.num_subjects)
    p.add_argument("--objects", type=int, default=P0.num_objects)
    p.add_argument("--levels", type=int, default=P0.num_levels)
    p.add_argument("--categories", type=int, default=P0.num_categories)
    p.add_argument("--max-br", type=int, default=P0.max_br)
    p.add_argument("--max-bw", type=int, default=P0.max_bw)
    p.add_argument("--max-matrix", type=int, default=P0.max_matrix)


def _bounds_from(args) -> Bounds:
    return Bounds(args.subjects, args.objects, args.levels, args.categories,
                  args.max_br, args.max_bw, args.max_matrix)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blpcheck",
        description="Bell-LaPadula reference monitor checker and simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the rule/invariant obligation suite")
    _add_bounds_flags(c)
    c.add_argument("--mode", choices=[MODE_EXHAUSTIVE, MODE_RANDOM],
                   default=MODE_EXHAUSTIVE)
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--rule", choices=RULE_ORDER)
    c.add_argument("--property", dest="prop", choices=PROPERTY_ORDER)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--strict-star", action="store_true",
                   help="check the strict reading of the *-property")
    c.add_argument("--format", choices=[FORMAT_TEXT, FORMAT_MACHINE],
                   default=FORMAT_TEXT)
    c.add_argument("--timing", action="store_true",
                   help="report measured elapsed-ms (non-deterministic output)")

    q = sub.add_parser("partition", help="clause coverage/disjointness analysis")
    q.add_argument("--rule", required=True, choices=RULE_ORDER)
    q.add_argument("--variant", choices=list(VARIANTS), default=VARIANT_FIXED)
    _add_bounds_flags(q)
    q.add_argument("--format", choices=[FORMAT_TEXT, FORMAT_MACHINE],
                   default=FORMAT_TEXT)
    q.add_argument("--timing", action="store_true")

    r = sub.add_parser("run", help="parse and execute a .blp scenario")
    r.add_argument("file")
    r.add_argument("--format", choices=[FORMAT_TEXT, FORMAT_MACHINE],
                   default=FORMAT_TEXT)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.command == "check":
        try:
            report = check_obligations(
                _bounds_from(args),
                mode=args.mode,
                samples=args.samples,
                seed=args.seed,
                rule=args.rule,
                prop=args.prop,
                workers=args.workers,
                strict_star=args.strict_star,
            )
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(format_report(report, args.format, args.timing), end="")
        return 0 if report.all_pass else 1

    if args.command == "partition":
        try:
            report = check_partition(args.rule, args.variant, _bounds_from(args))
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(format_report(report, args.format, args.timing), end="")
        return 0 if report.ok else 1

    # run
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"{args.file}: not UTF-8 text: {e}", file=sys.stderr)
        return 2
    try:
        script = parse_scenario(source)
    except ScenarioParseError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 2
    try:
        trace = run_scenario(script)
    except StateBuildError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 2
    print(format_report(trace, args.format), end="")
    if trace.all_expectations_met:
        print("ALL EXPECTATIONS MET")
        return 0
    print(f"EXPECTATION FAILED at statement {trace.failed_at + 1}")
    return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
