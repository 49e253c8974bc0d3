"""CLI subcommands, exit codes, and the morphism diff tool."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qlam import cli

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qlam.cli", *args],
        capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_ok():
    code, out, _ = run_cli("check", str(PROGRAMS / "teleport.qlam"))
    assert code == 0
    assert "qubit -o" in out


def test_check_type_error_exit_1():
    code, _, err = run_cli("check", str(PROGRAMS / "ill-linear.qlam"))
    assert code == 1
    assert "LinearVarDuplicated" in err


def test_check_parse_error_exit_2():
    code, _, err = run_cli("check", str(PROGRAMS / "ill-syntax.qlam"))
    assert code == 2
    assert "parse error" in err


def test_check_non_finite_gate_exit_2(tmp_path):
    src = tmp_path / "inf-gate.qlam"
    src.write_text("#U[[1e999,0.0],[0.0,1.0]] (new ff)\n")
    code, out, err = run_cli("check", str(src))
    assert code == 2 and out == ""
    assert "non-finite" in err


def test_check_one_by_one_gate_exit_2(tmp_path):
    # a 1x1 matrix would type as a gate on no qubits
    src = tmp_path / "scalar-gate.qlam"
    src.write_text("#U[[1]] (new ff)\n")
    code, out, err = run_cli("check", str(src))
    assert code == 2 and out == ""
    assert "at least 2x2" in err


def test_check_deep_nesting_is_an_error(tmp_path):
    src = tmp_path / "long-seq.qlam"
    src.write_text("(); " * 3000 + "()\n")
    code, out, err = run_cli("check", str(src))
    assert code == 1 and out == ""
    assert err == "error: the program nests too deeply\n"


# (program text or file, a line the distribution prints, how often)
_DISTRIBUTIONS = {
    "cointoss": (PROGRAMS / "cointoss.qlam", "p=0.500000000", 2),
    # the pair's second name is the first qubit's: bound at once, not captured
    "pair-names-a-qubit": ("let <x:qubit, q1:qubit> = <new ff, new tt> in <meas x, meas q1>",
                           "outcome p=1.000000000 <inl[unit + unit] (), inr[unit + unit] ()>\n", 1),
}


@pytest.mark.parametrize("name", list(_DISTRIBUTIONS))
def test_run_distribution(name, tmp_path):
    program, line, count = _DISTRIBUTIONS[name]
    if isinstance(program, str):
        (tmp_path / "p.qlam").write_text(program)
        program = tmp_path / "p.qlam"
    code, out, _ = run_cli("run", str(program))
    assert code == 0
    assert out.count(line) == count
    assert "residual 0.000000000\npruned 0.000000000\n" in out


def test_run_omega_timeout_note():
    code, out, _ = run_cli("run", str(PROGRAMS / "omega.qlam"),
                           "--max-steps", "50")
    assert code == 0
    assert "residual 1.000000000" in out
    assert "TIMEOUT" in out
    # a sampled run stops at the same budget
    code, out, _ = run_cli("run", str(PROGRAMS / "omega.qlam"),
                           "--mode", "sample", "--max-steps", "5")
    assert code == 0
    assert "steps 5\n" in out and out.endswith("note TIMEOUT\n")


def test_run_sample_trace():
    code, out, _ = run_cli("run", str(PROGRAMS / "cointoss.qlam"),
                           "--mode", "sample", "--seed", "1", "--trace")
    assert code == 0
    assert "step 0" in out and "final" in out


def test_run_sample_deterministic():
    outs = {run_cli("run", str(PROGRAMS / "cointoss.qlam"),
                    "--mode", "sample", "--seed", "5")[1] for _ in range(2)}
    assert len(outs) == 1


def test_denote_tt(tmp_path):
    out_file = tmp_path / "tt.mor"
    code, out, _ = run_cli("denote", str(PROGRAMS / "tt.qlam"),
                           "--out", str(out_file))
    assert code == 0
    assert "dst web 2 labels" in out
    text = out_file.read_text()
    assert text.startswith("qlam-morphism")
    assert "('inj', 1, ('star',))" in text


def test_denote_diff_tool(tmp_path):
    a = tmp_path / "a.mor"
    b = tmp_path / "b.mor"
    for f in (a, b):
        code, _, _ = run_cli("denote", str(PROGRAMS / "cointoss.qlam"),
                             "--out", str(f))
        assert code == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_morphisms.py"),
         str(a), str(b)],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0
    assert "overall max|diff| = 0.000e+00" in proc.stdout


def test_adequacy_file():
    code, out, _ = run_cli("adequacy", str(PROGRAMS / "coin-unit.qlam"))
    assert code == 0
    assert "PASS" in out


def test_adequacy_fuzz():
    code, out, _ = run_cli("adequacy", "--fuzz", "5", "--seed", "3")
    assert code == 0
    assert out.count("PASS") == 5
    assert "total 5 failures 0" in out


@pytest.mark.parametrize("name, message", [
    # the program's own type error, as `qlam check` prints it
    ("ill-linear", "LinearVarDuplicated: linear variable x used on both sides of a split"),
    # its type, not the program, which would fill one line of 950 characters
    ("teleport", "the program has type !(unit -o (qubit -o (unit + unit) * (unit + unit)) "
                 "* ((unit + unit) * (unit + unit) -o qubit)), expected unit"),
])
def test_adequacy_of_a_program_not_of_unit_type(capsys, name, message):
    rc = cli.main(["adequacy", str(PROGRAMS / f"{name}.qlam")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [(), (str(PROGRAMS / "omega.qlam"), "--fuzz", "1")])
def test_adequacy_takes_a_file_or_fuzz_not_both(capsys, args):
    # a file beside --fuzz would be ignored, and the fuzz verdict read as its
    with pytest.raises(SystemExit) as exc:
        cli.main(["adequacy", *args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "adequacy needs a file or --fuzz, not both" in err


def test_main_entry_point_inprocess(capsys):
    rc = cli.main(["check", str(PROGRAMS / "tt.qlam")])
    assert rc == 0
    assert "unit + unit" in capsys.readouterr().out


def test_missing_file_io_error():
    code, _, err = run_cli("check", "no-such-file.qlam")
    assert code == 1
    assert "io error" in err


@pytest.mark.parametrize("args", [
    ("denote", str(PROGRAMS / "coin-unit.qlam"), "--list-max", "-1"),
    ("adequacy", str(PROGRAMS / "coin-unit.qlam"), "--fix-iters", "-1"),
])
def test_bad_truncation_bound_is_an_error_line(args):
    code, out, err = run_cli(*args)
    assert code == 1
    assert err == "error: truncation bounds must be nonnegative\n"
    assert out == ""


@pytest.mark.parametrize("extra", [(), ("--mode", "sample")])
def test_qubit_cap_is_an_error_line(monkeypatch, capsys, extra):
    # teleport-roundtrip allocates three qubits
    monkeypatch.setattr(cli.M, "MAX_QUBITS", 2)
    rc = cli.main(["run", str(PROGRAMS / "teleport-roundtrip.qlam"), *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: new would allocate qubit 3 beyond the cap of 2\n"
    monkeypatch.setattr(cli.M, "MAX_QUBITS", 3)
    assert cli.main(["run", str(PROGRAMS / "teleport-roundtrip.qlam"), *extra]) == 0


@pytest.mark.parametrize("args, message", [
    (("run", str(PROGRAMS / "cointoss.qlam"), "--max-steps", "-5"),
     "step budget must be nonnegative, got -5"),
    (("run", str(PROGRAMS / "cointoss.qlam"), "--mode", "sample", "--max-steps", "-5"),
     "step budget must be nonnegative, got -5"),
    (("adequacy", str(PROGRAMS / "coin-unit.qlam"), "--max-steps", "-1"),
     "step budget must be nonnegative, got -1"),
    (("adequacy", "--fuzz", "-3"), "--fuzz must be nonnegative, got -3"),
])
def test_negative_budget_is_an_error_line(capsys, args, message):
    rc = cli.main(list(args))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_zero_step_budget_is_valid(capsys):
    assert cli.main(["run", str(PROGRAMS / "cointoss.qlam"), "--max-steps", "0"]) == 0
    assert "residual 1.000000000" in capsys.readouterr().out


def test_frontier_cap_is_an_error_line(monkeypatch, capsys):
    # cointoss's measurement leaves two branches
    monkeypatch.setattr(cli.M, "MAX_FRONTIER", 1)
    rc = cli.main(["run", str(PROGRAMS / "cointoss.qlam")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: step 3 would keep 2 branches beyond the cap of 1\n"
    assert captured.out == ""
    monkeypatch.setattr(cli.M, "MAX_FRONTIER", 2)
    assert cli.main(["run", str(PROGRAMS / "cointoss.qlam")]) == 0


def test_denote_qlist_at_bang_max_2():
    # under a 1 GiB address cap: an out-of-memory regression fails here
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "qlam.cli", "denote", str(PROGRAMS / "qlist.qlam"),
         "--list-max", "2", "--bang-max", "2"],
        capture_output=True, text=True, cwd=ROOT, preexec_fn=cap,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
