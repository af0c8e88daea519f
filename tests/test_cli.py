import json
import subprocess
import sys

import numpy as np
import pytest

from antitri import matrix, zeros
from antitri.cli import (
    EXIT_FAIL,
    EXIT_IO,
    EXIT_NO_GROUP,
    EXIT_OK,
    main,
    matrix_from_json,
    read_matrix,
    write_matrix,
)
from conftest import jordan_nilpotent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_matrix_json_roundtrip(tmp_path, rng):
    a = matrix(rng.uniform(-1, 1, (3, 4)) + 1j * rng.uniform(-1, 1, (3, 4)))
    path = tmp_path / "a.json"
    write_matrix(str(path), a)
    b = read_matrix(str(path))
    assert np.array_equal(a, b)  # exact: shortest round-trip floats


def test_matrix_json_validation():
    with pytest.raises(Exception):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[[1, 0]]]})
    with pytest.raises(Exception):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})


def test_cmd_drazin_identity(tmp_path, capsys):
    p = tmp_path / "i.json"
    write_matrix(str(p), matrix([[1, 0], [0, 1]]))
    code, rep = run_cli(capsys, "drazin", str(p))
    assert code == EXIT_OK
    assert rep["result"]["index"] == 0
    assert rep["result"]["drazin"]["data"][0][0] == [1.0, 0.0]


def test_cmd_drazin_nilpotent(tmp_path, capsys):
    p = tmp_path / "n.json"
    write_matrix(str(p), jordan_nilpotent(2))
    code, rep = run_cli(capsys, "drazin", str(p))
    assert code == EXIT_OK
    assert rep["result"]["index"] == 2
    flat = [c for row in rep["result"]["drazin"]["data"] for c in row]
    assert all(c == [0.0, 0.0] for c in flat)


def test_cmd_drazin_fixture_f(tmp_path, capsys):
    p = tmp_path / "f.json"
    write_matrix(str(p), matrix([[1j, 1j], [0, 0]]))
    code, rep = run_cli(capsys, "drazin", str(p))
    assert code == EXIT_OK
    d = rep["result"]["drazin"]["data"]
    assert d[0][0] == pytest.approx([0.0, -1.0])
    assert d[0][1] == pytest.approx([0.0, -1.0])
    assert rep["result"]["index"] == 1


def test_cmd_drazin_bad_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["drazin", str(p)]) == EXIT_IO
    q = tmp_path / "rect.json"
    write_matrix(str(q), zeros(2, 3))
    assert main(["drazin", str(q)]) == EXIT_IO


def test_cmd_block_fixture_verified(capsys):
    code, rep = run_cli(
        capsys, "block", "--fixture", "example45", "--theorem", "thm41", "--verify"
    )
    assert code == EXIT_OK
    assert rep["verification"]["pass"]
    assert rep["verification"]["relative_error"] <= 1e-12
    assert rep["conditions"]["overall"]
    blocks = rep["result"]["blocks"]
    assert blocks["Gamma"]["data"][0][1] == [1.0, 0.0]


def test_cmd_block_hypothesis_failure(tmp_path, capsys):
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    write_matrix(str(e), matrix([[1, 0], [0, 1]]))
    write_matrix(str(f), jordan_nilpotent(2))
    code, rep = run_cli(capsys, "block", str(e), str(f), "--theorem", "thm31")
    assert code == EXIT_FAIL
    assert "hypothesis" in rep["error"]


def test_cmd_block_no_group_outcome(tmp_path, capsys):
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    write_matrix(str(e), jordan_nilpotent(2))
    write_matrix(str(f), zeros(2, 2))
    code, rep = run_cli(capsys, "block", str(e), str(f), "--theorem", "thm31")
    assert code == EXIT_NO_GROUP
    assert "no_group_inverse" in rep["result"]


def test_cmd_block_pattern_mismatch(capsys):
    code = main(
        ["block", "--fixture", "example45", "--theorem", "thm41", "--pattern", "EI_F0"]
    )
    capsys.readouterr()
    assert code == EXIT_IO


def test_cmd_gen_then_block_verify(tmp_path, capsys):
    e, f = str(tmp_path / "e.json"), str(tmp_path / "f.json")
    code, rep = run_cli(capsys, "gen", e, f, "--theorem", "thm41", "--n", "2", "--seed", "7")
    assert code == EXIT_OK
    assert rep["conditions"]["overall"]
    code, rep = run_cli(capsys, "block", e, f, "--theorem", "thm41", "--verify")
    assert code == EXIT_OK
    assert rep["verification"]["pass"]


def test_cmd_gen_violation_no_group(tmp_path, capsys):
    e, f = str(tmp_path / "e.json"), str(tmp_path / "f.json")
    code, rep = run_cli(
        capsys,
        "gen", e, f,
        "--theorem", "thm31", "--n", "3", "--seed", "1", "--violate", "EpiFpi",
    )
    assert code == EXIT_OK
    assert not rep["conditions"]["overall"]
    code, rep = run_cli(capsys, "block", e, f, "--theorem", "thm31")
    assert code == EXIT_NO_GROUP


def test_cmd_gen_infeasible(tmp_path, capsys):
    e, f = str(tmp_path / "e.json"), str(tmp_path / "f.json")
    code = main(["gen", e, f, "--theorem", "thm31", "--n", "3", "--violate", "FFpi"])
    capsys.readouterr()
    assert code == EXIT_IO


def test_cmd_gen_scalar(tmp_path, capsys):
    e, f = str(tmp_path / "e.json"), str(tmp_path / "f.json")
    code, rep = run_cli(capsys, "gen", e, f, "--theorem", "thm25", "--n", "1", "--seed", "0")
    assert code == EXIT_OK
    assert read_matrix(e).shape == (1, 1)


def test_cmd_sweep_small(capsys):
    code, rep = run_cli(
        capsys, "sweep", "--theorem", "thm41", "--count", "10", "--nmax", "3"
    )
    assert code == EXIT_OK
    row = rep["summary"][0]
    assert row["theorem"] == "thm41" and row["pass"] and row["failures"] == 0
    assert row["max_relative_error"] <= 1e-8


def test_cmd_sweep_unreachable_tolerance(capsys):
    code, rep = run_cli(
        capsys,
        "sweep", "--theorem", "thm41", "--count", "5", "--compare-tol", "1e-30",
    )
    assert code == EXIT_FAIL
    assert rep["summary"][0]["failures"] > 0


def test_cmd_block_lambda_flag(tmp_path, capsys):
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    write_matrix(str(e), matrix([[1, 0], [0, -1]]))
    write_matrix(str(f), jordan_nilpotent(2))
    code, rep = run_cli(
        capsys, "block", str(e), str(f), "--theorem", "cor35", "--lam", "-1"
    )
    assert code == EXIT_NO_GROUP  # F has no group inverse


def test_cmd_block_lam_refused_for_thm41(capsys):
    code, rep = run_cli(
        capsys, "block", "--fixture", "example45", "--theorem", "thm41", "--lam", "5"
    )
    assert code == EXIT_IO and rep is None


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "antitri.cli", "block", "--fixture", "example45",
         "--theorem", "cor43", "--verify"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verification"]["pass"]


def test_cmd_drazin_infinite_tol_is_an_input_error(tmp_path, capsys):
    # at tol = inf every rank decision reads 0 and the printed A^D was 0
    p = tmp_path / "a.json"
    write_matrix(str(p), matrix([[1, 1], [0, 0]]))
    for tol in ("inf", "nan"):
        code, rep = run_cli(capsys, "drazin", str(p), "--tol", tol)
        assert code == EXIT_IO and rep is None, tol


def test_cmd_sweep_nmax_zero_is_an_input_error(capsys):
    code, rep = run_cli(capsys, "sweep", "--theorem", "thm31", "--count", "2", "--nmax", "0")
    assert code == EXIT_IO and rep is None
