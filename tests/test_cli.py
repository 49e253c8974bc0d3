"""CLI subcommands, exit codes, and the morphism diff tool."""

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


def test_run_distribution():
    code, out, _ = run_cli("run", str(PROGRAMS / "cointoss.qlam"))
    assert code == 0
    assert out.count("p=0.500000000") == 2
    assert "residual 0.000000000\npruned 0.000000000\n" in out


def test_run_omega_timeout_note():
    code, out, _ = run_cli("run", str(PROGRAMS / "omega.qlam"),
                           "--max-steps", "50")
    assert code == 0
    assert "residual 1.000000000" in out
    assert "TIMEOUT" in out


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


def test_main_entry_point_inprocess(capsys):
    rc = cli.main(["check", str(PROGRAMS / "tt.qlam")])
    assert rc == 0
    assert "unit + unit" in capsys.readouterr().out


def test_missing_file_io_error():
    code, _, err = run_cli("check", "no-such-file.qlam")
    assert code == 1
    assert "io error" in err
