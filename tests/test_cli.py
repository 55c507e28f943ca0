"""The command-line surface: exit codes, report formats, witness round-trips."""

from pathlib import Path

import pytest

from blpcheck import build_state, parse_scenario
from blpcheck.checker import P0, Bounds, check_obligations, check_partition
from blpcheck.cli import format_report, main
from blpcheck.rules import RULE_DEFS, without_conjunct

SMALL = ["--subjects", "1", "--objects", "2", "--levels", "2",
         "--categories", "0", "--max-br", "2", "--max-bw", "2",
         "--max-matrix", "2"]
SMALL_BOUNDS = Bounds(1, 2, 2, 0, 2, 2, 2)
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -------------------------------------------------------------------

def test_check_small_bounds_all_pass(capsys):
    code, out, _ = run_cli(capsys, "check", *SMALL, "--format", "machine")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 60
    for ln in lines:
        rule, prop, status, states, requests, elapsed = ln.split("\t")
        assert status == "pass"
        assert int(states) > 0 and int(requests) > 0
        assert elapsed == "0"  # deterministic output by default


def test_check_machine_line_shape(capsys):
    code, out, _ = run_cli(capsys, "check", *SMALL, "--rule", "getWrite",
                           "--property", "starprop", "--format", "machine")
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("getWrite\tstarprop\tpass\t")


def test_check_random_seeded_byte_identical(capsys):
    args = ("check", *SMALL, "--mode", "random", "--samples", "200",
            "--seed", "99", "--format", "machine")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_workers_match_sequential(capsys):
    """Two workers sweep one task per rule, or, for a check of one rule,
    its strides of pairs; either way the report is the one-worker report."""
    for select in [(), ("--rule", "deleteObject"), ("--property", "starprop")]:
        code1, out1, _ = run_cli(capsys, "check", *SMALL, *select, "--format", "machine")
        code2, out2, _ = run_cli(capsys, "check", *SMALL, *select, "--format", "machine",
                                 "--workers", "2")
        assert (code1, out1) == (code2, out2), select
        assert code1 == 0 and out1


def test_check_rejects_nonpositive_workers(capsys):
    code, out, err = run_cli(capsys, "check", *SMALL, "--workers", "0")
    assert code == 2 and out == ""
    assert "workers" in err


def test_check_text_format_has_summary(capsys):
    """The text report opens with its bounds and mode (and in random mode the
    samples and seed) and closes with the pass/fail summary."""
    bounds = "obligations at bounds (1, 2, 2, 0, 2, 2, 2)"
    for mode_args, head in [
        ((), f"{bounds}, exhaustive mode"),
        (("--mode", "random", "--samples", "200", "--seed", "99"),
         f"{bounds}, random mode (samples=200, seed=99)"),
    ]:
        code, out, _ = run_cli(capsys, "check", *SMALL, *mode_args)
        assert code == 0
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == (head, "60 obligations: 60 pass, 0 fail")
        assert len(lines) == 62


# --- partition ---------------------------------------------------------------

def test_partition_fixed_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "partition", "--rule", "giveRW", *SMALL)
    assert code == 0
    assert "0 gap families, 0 overlap families" in out


def test_partition_paper_faithful_exit_one_and_witness(capsys):
    code, out, _ = run_cli(capsys, "partition", "--rule", "giveRW",
                           "--variant", "paperFaithful", *SMALL)
    assert code == 1
    assert "gap family" in out
    # the printed witness blocks re-parse and rebuild to the exact states
    report = check_partition("giveRW", "paperFaithful", SMALL_BOUNDS)
    states = {w.state for fam in report.gap_families for w in fam.witnesses}
    states |= {w.state for fam in report.overlap_families for w in fam.witnesses}
    blocks = _extract_state_blocks(out)
    assert blocks
    rebuilt = set()
    for block in blocks:
        script = parse_scenario(block)
        rebuilt.add(build_state(script.statements[0].decls))
    assert rebuilt <= states


def _extract_state_blocks(text):
    blocks, current = [], None
    for ln in text.splitlines():
        if ln == "state":
            current = [ln]
        elif current is not None:
            current.append(ln)
            if ln == "end":
                blocks.append("\n".join(current))
                current = None
    return blocks


def test_partition_machine_format(capsys):
    code, out, _ = run_cli(capsys, "partition", "--rule", "getWrite", *SMALL,
                           "--format", "machine")
    assert code == 0
    assert out.splitlines()[0].startswith("getWrite\tpartition:fixed\tpass\t")


# --- run ---------------------------------------------------------------------

def test_run_sim1(capsys):
    code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "sim1.blp"))
    assert code == 0
    assert out.rstrip().endswith("ALL EXPECTATIONS MET")
    assert "reading s2 o2" in out and "writing s2 o2" in out


def test_run_sim2(capsys):
    code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "sim2.blp"))
    assert code == 0
    assert "writing s2 o1" in out
    assert "reading" not in out.split("final state:")[1]


def test_run_give_gap(capsys):
    code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "give_gap.blp"))
    assert code == 0
    assert "giveRWE4" in out


def test_run_failed_expectation_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.blp"
    bad.write_text(
        "state\n  subject s1\n  object o1\n  grant o1 s1 read\nend\n"
        "get-write s1 o1\nexpect yes\n"
    )
    code, out, _ = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "EXPECTATION FAILED at statement 3" in out


def test_run_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "broken.blp"
    bad.write_text("state\nend\ngive s1 s2\n")
    code, _out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "give" in err and "line 3" in err


def test_run_over_long_level_numeral_exit_two(tmp_path, capsys):
    bad = tmp_path / "huge_level.blp"
    bad.write_text(f"state\n  subject s1 level {'1' * 5000} cats {{}}\nend\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and out == ""
    assert "line 2, column 20: a level number with too many digits" in err
    assert "Traceback" not in err


def test_run_missing_file_exit_two(capsys):
    code, _out, err = run_cli(capsys, "run", "no/such/file.blp")
    assert code == 2
    assert err


def test_run_non_utf8_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "latin1.blp"
    bad.write_bytes(b"state\nend\n# caf\xff\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"{bad}: ")
    assert "Traceback" not in err


def test_run_build_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "unbuildable.blp"
    bad.write_text(
        "state\n  subject s1 level 0 cats {}\n  object o1 level 0 cats {}\n"
        "  reading s1 o1\nend\n"
    )
    code, _out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "ranBrInDomM" in err


def test_usage_error_exit_two(capsys):
    assert run_cli(capsys, "--no-such-flag")[0] == 2
    assert run_cli(capsys, "check", "--rule", "noSuchRule")[0] == 2
    assert run_cli(capsys, "partition", "--rule", "giveRW",
                   "--variant", "bogus")[0] == 2


def test_negative_bounds_exit_two(capsys):
    code, _out, err = run_cli(capsys, "check", "--subjects", "-1")
    assert code == 2
    assert "non-negative" in err


def test_oversized_bounds_exit_two():
    """Bounds whose lists would not fit are refused, with their sizes,
    before anything is built.  Each case runs in a child process whose
    address space alone is capped at 400 MB; without the refusal the first
    case ends in a MemoryError."""
    import resource, subprocess, sys

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    cases = (
        (("check", "--subjects", "6", "--objects", "6", "--max-matrix", "1"),
         "244,140,625 (fs, fo) pairs"),
        (("partition", "--rule", "getRead", "--categories", "200"),
         "security classes"),
        (("check", "--mode", "random", "--subjects", "2000000", "--objects", "0",
          "--levels", "0"), "names"),
        # lists that fit, but a symmetry group of 720 * 720 renamings
        (("check", "--subjects", "6", "--objects", "6", "--levels", "1",
          "--categories", "0", "--max-matrix", "0"), "(fs, fo) images"),
        # exponents too large for a machine-sized int
        (("check", "--subjects", "99999999999999999999"), "more than 1e+30 (fs, fo) pairs"),
        (("partition", "--rule", "getRead", "--categories", "99999999999999999999"),
         "more than 1e+30 security classes"),
    )
    for args, size in cases:
        proc = subprocess.run([sys.executable, "-m", "blpcheck", *args],
                              capture_output=True, text=True, preexec_fn=cap_memory,
                              timeout=120)
        assert proc.returncode == 2, (args, proc.stderr[-500:])
        assert "bounds too large" in proc.stderr and size in proc.stderr, proc.stderr


# --- formats and witness round-trip -------------------------------------------

def test_obligation_witness_round_trip(capsys):
    mutated = {"getWrite": without_conjunct(RULE_DEFS["getWrite"],
                                            "readsBelowObject")}
    report = check_obligations(SMALL_BOUNDS, rule="getWrite", prop="starprop",
                               rule_defs=mutated)
    (res,) = report.results
    text = format_report(report, "text")
    blocks = _extract_state_blocks(text)
    script = parse_scenario(blocks[0])
    assert build_state(script.statements[0].decls) == res.witness.state
    # the request is printed in command syntax right after the block
    lines = text.splitlines()
    idx = lines.index("end") + 1
    assert lines[idx] == "get-write s1 o1"


def test_format_report_machine_witness_block(capsys):
    mutated = {"getRead": without_conjunct(RULE_DEFS["getRead"],
                                           "clearanceDominates")}
    report = check_obligations(SMALL_BOUNDS, rule="getRead", prop="seccond",
                               rule_defs=mutated)
    out = format_report(report, "machine")
    assert out.splitlines()[0].startswith("getRead\tseccond\tfail\t")
    assert "state" in out and "end" in out


def test_format_report_rejects_unknown_format():
    report = check_obligations(SMALL_BOUNDS, rule="releaseRead")
    with pytest.raises(ValueError):
        format_report(report, "xml")


def test_trace_text_ends_with_final_state_block(capsys):
    code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "sim1.blp"))
    assert code == 0
    body = out.rsplit("ALL EXPECTATIONS MET", 1)[0].rstrip()
    assert body.endswith("end")


def test_strict_star_flag(capsys):
    code, out, _ = run_cli(capsys, "check", *SMALL, "--strict-star",
                           "--format", "machine")
    assert code == 0  # the seccond hypothesis subsumes the extra demands
    assert all(ln.split("\t")[2] == "pass" for ln in out.splitlines() if ln)


def test_python_dash_m_entry():
    import subprocess, sys
    proc = subprocess.run(
        [sys.executable, "-m", "blpcheck", "run", str(EXAMPLES / "sim1.blp")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ALL EXPECTATIONS MET" in proc.stdout


def test_reports_identical_across_hash_seeds():
    """Canonical output must not leak set iteration order: two processes
    with different string-hash seeds print byte-identical reports."""
    import os, subprocess, sys

    cmd = [sys.executable, "-m", "blpcheck", "partition", "--rule", "giveRW",
           "--variant", "paperFaithful", *SMALL]
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_timing_flag_reports_elapsed(capsys):
    code, out, _ = run_cli(capsys, "check", *SMALL, "--rule", "releaseRead",
                           "--format", "machine", "--timing")
    assert code == 0
    # at least the run did not crash printing real numbers; values vary
    for ln in out.splitlines():
        assert len(ln.split("\t")) == 6
    # exhaustive elapsed-ms is the rule's measured sweep time, on each row
    assert len({ln.split("\t")[5] for ln in out.splitlines()}) == 1


# --- pinned report bytes -------------------------------------------------------

# sha256 of machine reports at SMALL_BOUNDS (and one at P0), each recorded
# from the program before the checker refactor it guards was made.
# The CI workflow reads this line to check the same report across worker
# counts and hash seeds.
RANDOM_P0_REPORT_SHA256 = "e0bda5c53b58c4291620d65bb8a9e0616c58113bc1172e114e5a9b1da7f85b2b"
_GET_WRITE_MUTANT = {
    "getWrite": without_conjunct(RULE_DEFS["getWrite"], "readsBelowObject")
}
REPORT_DIGESTS = {
    "check": (
        lambda: check_obligations(SMALL_BOUNDS),
        "7e06a8b4b61c4b001880942fd60eec0d3c92bf1f9cf2652b57e2703175beac95"),
    "check:strict": (
        lambda: check_obligations(SMALL_BOUNDS, strict_star=True),
        "3ce24c4fb99b5dc51879e912f7fa0fb0fedf31d3d771c6f9ced8ad1fa18e9178"),
    "mutant": (
        lambda: check_obligations(SMALL_BOUNDS, rule_defs=_GET_WRITE_MUTANT),
        "75978206eba48547b6a56e596bdd0d5c547f4adcbee4b85a998afadfa78ab60d"),
    "mutant:strict": (
        lambda: check_obligations(SMALL_BOUNDS, rule_defs=_GET_WRITE_MUTANT,
                                  strict_star=True),
        "a56876db8fda63321044cd24e3a25221a79def16af4706fd5551659243ec9daf"),
    "random": (
        lambda: check_obligations(SMALL_BOUNDS, mode="random", samples=150,
                                  seed=31337),
        "8299a64355af9597e7e346854f671e8c3b30cf9cd812cb745ecebb0f285651fa"),
    # enough samples for the mutant's random witness; the strict sampler
    # draws other states and finds it at another sample
    "random:strict": (
        lambda: check_obligations(SMALL_BOUNDS, mode="random", samples=1500,
                                  seed=31337, rule="getWrite",
                                  rule_defs=_GET_WRITE_MUTANT, strict_star=True),
        "36a59940231671bbdda1f3664fc7ec1b94816391659055b62767ce2c5c44914b"),
    "random:mutant": (
        lambda: check_obligations(SMALL_BOUNDS, mode="random", samples=1500,
                                  seed=31337, rule="getWrite",
                                  rule_defs=_GET_WRITE_MUTANT),
        "415fefda9d88b017731db7c942258787c48d4f5b5cb2c3e4665fc66dba02c9a8"),
    "random:P0": (
        lambda: check_obligations(P0, mode="random", samples=2000, seed=1),
        RANDOM_P0_REPORT_SHA256),
    **{
        f"partition:{rule}:{variant}": (
            lambda rule=rule, variant=variant:
                check_partition(rule, variant, SMALL_BOUNDS),
            digest)
        for (rule, variant), digest in {
            ("getRead", "fixed"):
                "f7130e0eb04f2b8b0b526db314faf5408b53e64dc1bd36ed0605a66c0b155e2d",
            ("getWrite", "fixed"):
                "b99b1b16f72f739e681737ab0c2ef4644905f1b319d19146ac2680fa3d54ad64",
            ("releaseRead", "fixed"):
                "f8ebbd286b2c9dfb5ea60cab1d5afa167f65aff12f34e024adda3bd11ab910bb",
            ("releaseWrite", "fixed"):
                "f0af2ada4fe73c515059734063d3c83fd0351c54405bced090c4908791f2abcf",
            ("giveRW", "fixed"):
                "514670e681d137fe378c9da2ce0ada5a7f6664e0bd2906e5a1abbf40b0158448",
            ("rescindRead", "fixed"):
                "1bea96c5d8e3639787b7b56b1ad8e4a4ed5e42039d1f6d37760d3812a840f95d",
            ("rescindWrite", "fixed"):
                "583d4aa6c2caa40c4617708683862b868f17962977a5747d285ecb30eb358d35",
            ("changeClass", "fixed"):
                "964b1f5e70d520735ffcab1715a5245f77563b204c6dd699ebfeb128990ed87f",
            ("createObject", "fixed"):
                "651e73b4f98e325b9096e7c910cbdd2dc0901c1195642f80eb12bbe92f4abbc9",
            ("deleteObject", "fixed"):
                "ce0941d240d7e440e03c1a31e1a2eaf15a9322a4780842e8bf4fdfd86c4b5768",
            ("giveRW", "paperFaithful"):
                "9fac8520b07ef2c1827bc80d94f70216244aee63560f9aeb656017c499d47be7",
        }.items()
    },
}


@pytest.mark.parametrize("name", REPORT_DIGESTS)
def test_machine_report_bytes_are_pinned(name):
    import hashlib

    run, digest = REPORT_DIGESTS[name]
    text = format_report(run(), "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pooled_check_spawns_where_fork_is_unavailable(monkeypatch):
    """Without the fork start method the pool spawns its workers, each
    unpickling the check's context, and the report is the one-worker one."""
    import hashlib
    import multiprocessing
    import os

    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    used = []
    get_context = multiprocessing.get_context

    def recording_get_context(method=None):
        used.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
    # a pool also on one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    text = format_report(check_obligations(SMALL_BOUNDS, workers=2), "machine")
    assert used == ["spawn"]
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS["check"][1]
