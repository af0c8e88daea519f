import json
import subprocess
import sys

import numpy as np
import pytest

from antitri import GeneratorRecipe, generate, matrix, zeros
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


def test_cmd_drazin_residuals_are_the_verifier_at_tol(tmp_path, capsys, rng):
    from antitri import drazin, verify_drazin_axioms

    p = tmp_path / "a.json"
    cases = [matrix([[1j, 1j], [0, 0]]), jordan_nilpotent(3)]
    cases += [matrix(rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))) for _ in range(3)]
    for a in cases:
        write_matrix(str(p), a)
        code, rep = run_cli(capsys, "drazin", str(p), "--tol", "1e-9")
        assert code == EXIT_OK
        r = drazin(a, 1e-9)
        axioms = verify_drazin_axioms(a, r.drazin, r.index, 1e-9)
        assert rep["result"]["residuals"] == [e.residual for e in axioms.entries]  # bit for bit


def test_cmd_reports_share_one_envelope(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_matrix("a.json", jordan_nilpotent(2))
    runs = [
        ["drazin", "a.json"],
        ["block", "--fixture", "example45", "--theorem", "thm41", "--verify"],
        ["block", "--fixture", "example45", "--theorem", "thm31"],
        ["gen", "e.json", "f.json", "--theorem", "thm31", "--n", "2"],
        ["sweep", "--theorem", "thm41", "--count", "2"],
    ]
    for argv in runs:
        code, rep = run_cli(capsys, *argv)
        keys = list(rep)
        assert keys[:2] == ["command", "inputs_digest"] and keys[-1] == "wall_time_s", argv
        assert rep["command"][0] == argv[0] and len(keys) > 3, argv


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cmd_compare_tol_outside_zero_to_inf_is_an_input_error(tmp_path, capsys, tol):
    # --compare-tol inf passed every answer, -1 failed a correct one as a
    # verification failure, and nan exited 3 only at the JSON encoder; a
    # refused pair exited 1 and a no-group pair 2 without checking the value
    paths = {}
    for name, a in (("I", matrix([[1, 0], [0, 1]])), ("J", jordan_nilpotent(2)), ("0", zeros(2, 2))):
        paths[name] = str(tmp_path / f"{name}.json")
        write_matrix(paths[name], a)
    runs = (
        ["sweep", "--theorem", "thm41", "--count", "3"],
        ["block", "--fixture", "example45", "--theorem", "thm41", "--verify"],
        ["block", paths["I"], paths["J"], "--theorem", "thm31", "--verify"],
        ["block", paths["J"], paths["0"], "--theorem", "thm31", "--verify"],
    )
    for argv in runs:
        code = main([*argv, "--compare-tol", tol])
        captured = capsys.readouterr()
        assert code == EXIT_IO and not captured.out, (argv, tol)
        assert "must be finite and >= 0" in captured.err, (argv, tol)


def test_cmd_drazin_bad_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["drazin", str(p)]) == EXIT_IO
    q = tmp_path / "rect.json"
    write_matrix(str(q), zeros(2, 3))
    assert main(["drazin", str(q)]) == EXIT_IO


def test_cmd_block_missing_or_unreadable_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "rows.json"
    bad.write_text(json.dumps({"rows": "two", "cols": 1, "data": [[[1, 0]]]}))
    cases = [
        ([], "provide E and F paths"),
        ([str(bad), str(bad)], "malformed matrix object"),
        ([str(tmp_path / "missing.json"), str(bad)], "cannot read"),
    ]
    for paths, message in cases:
        code = main(["block", *paths, "--theorem", "thm31"])
        captured = capsys.readouterr()
        assert code == EXIT_IO and not captured.out, paths
        assert message in captured.err, paths


@pytest.mark.parametrize("data", [5, [5]], ids=["number", "list_of_numbers"])
def test_cmd_drazin_data_not_a_list_of_rows_is_an_input_error(tmp_path, capsys, data):
    # len() of a non-list data raised TypeError, which exited 1 with a traceback
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"rows": 1, "cols": 1, "data": data}))
    assert main(["drazin", str(p)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed matrix object" in captured.err


def test_cmd_drazin_unrepresentable_inverse_is_an_input_error(tmp_path, capsys):
    # A^D = 2^1072 J / 4 overflows float64; the report must not carry inf
    p = tmp_path / "tiny.json"
    write_matrix(str(p), matrix([[5e-324, 5e-324], [5e-324, 5e-324]]))
    assert main(["drazin", str(p)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and "float64 range" in captured.err


def test_cmd_drazin_report_is_strict_json_at_extreme_scale(tmp_path, capsys):
    # at 1e200 J, A @ A overflowed in the eventual-power residual and the
    # report printed NaN, which json.loads takes but strict JSON does not
    def refuse(name):
        raise ValueError(f"non-finite {name} in the report")

    p = tmp_path / "big.json"
    write_matrix(str(p), matrix([[1e200, 1e200], [1e200, 1e200]]))
    assert main(["drazin", str(p)]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert rep["result"]["index"] == 1
    assert rep["result"]["drazin"]["data"][0][0] == pytest.approx([2.5e-201, 0.0])


@pytest.mark.parametrize(
    "argv",
    [
        ["block", "--fixture", "example45", "--theorem", "bogus"],
        ["gen", "e.json", "f.json", "--theorem", "thm31", "--n", "x"],
        ["sweep", "--theorem", "bogus", "--count", "1"],
        ["block", "--fixture", "example45", "--theorem", "cor35", "--lam", "abc"],
    ],
)
def test_cmd_usage_error_exits_as_an_input_error(tmp_path, monkeypatch, capsys, argv):
    # argparse exits 2 by default, which is the no-group-inverse code
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == EXIT_IO and not captured.out
    assert "error:" in captured.err
    assert not (tmp_path / "e.json").exists()


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


def test_cmd_block_cor43_delegated_clause_failure_is_a_hypothesis_report(tmp_path, capsys):
    # cor43 seed 18 under D = diag(2^-10, 2^10): EEpi passes by index but
    # the delegated cor42 clause FpiEpiE fails; exit 1 with a report, no traceback
    pair = generate(GeneratorRecipe("cor43", 2, 18))
    d, d_inv = np.diag([2.0**-10, 2.0**10]), np.diag([2.0**10, 2.0**-10])
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    write_matrix(str(e), d @ pair.E @ d_inv)
    write_matrix(str(f), d @ pair.F @ d_inv)
    code, rep = run_cli(capsys, "block", str(e), str(f), "--theorem", "cor43")
    assert code == EXIT_FAIL
    assert rep["error"]["hypothesis"].startswith("cor43: hypothesis EEpi fails")
    assert "FpiEpiE" in rep["error"]["hypothesis"]
    assert set(rep["error"]["residuals"]) >= {"EEpi", "FpiEpiE"}


def test_cmd_block_no_group_outcome(tmp_path, capsys):
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    write_matrix(str(e), jordan_nilpotent(2))
    write_matrix(str(f), zeros(2, 2))
    code, rep = run_cli(capsys, "block", str(e), str(f), "--theorem", "thm31")
    assert code == EXIT_NO_GROUP
    assert "no_group_inverse" in rep["result"]
    assert "verification" not in rep
    # --verify asks the oracle, which confirms the nonexistence: ind(M) = 3
    code, rep = run_cli(capsys, "block", str(e), str(f), "--theorem", "thm31", "--verify")
    assert code == EXIT_NO_GROUP
    assert "no_group_inverse" in rep["result"]
    verification = rep["verification"]
    assert verification["pass"] and verification["oracle_index"] == 3
    assert verification["relative_error"] is None and verification["axioms"] is None


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


def test_cmd_block_computes_each_drazin_datum_once(monkeypatch, capsys):
    # the condition report and the formula read one holder, so drazin(E)
    # and drazin(F) run once each; two holders made four calls
    import antitri.formulas as formulas

    calls = []
    real = formulas.drazin

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(formulas, "drazin", counted)
    code, rep = run_cli(capsys, "block", "--fixture", "example45", "--theorem", "thm41")
    assert code == EXIT_OK and rep["conditions"]["overall"]
    assert len(calls) <= 2, len(calls)


def test_cmd_block_non_finite_lam_exits_3(tmp_path, capsys):
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    pair = generate(GeneratorRecipe("cor35", 3, 4))
    write_matrix(str(e), pair.E)
    write_matrix(str(f), pair.F)
    code = main(["block", str(e), str(f), "--theorem", "cor35", "--lam", "nan"])
    out, err = capsys.readouterr()
    assert code == EXIT_IO and out == ""
    assert "lam must be finite (no NaN/Inf)" in err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--theorem", "thm31", "--count", "-1"], "count must be >= 0"),
        (["sweep", "--theorem", "thm31", "--count", "2", "--seed", "-1"], "seed must be >= 0"),
        (["sweep", "--theorem", "thm41", "--count", "2", "--seed", "-1"], "seed must be >= 0"),
        (["gen", "e.json", "f.json", "--theorem", "thm31", "--n", "2", "--seed", "-3"], "seed must be >= 0"),
    ],
)
def test_cmd_negative_count_or_seed_is_an_input_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_IO and not captured.out
    assert message in captured.err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_cmd_block_bad_tol_is_an_input_error_for_every_id(capsys, tol):
    # thm23's first clause needs no Drazin datum, so tol = -1 was judged and
    # exited 1 as a failed hypothesis, while thm41 exited 3
    from antitri import THEOREM_IDS

    for theorem in THEOREM_IDS:
        code, rep = run_cli(
            capsys, "block", "--fixture", "example45", "--theorem", theorem, "--tol", tol
        )
        assert code == EXIT_IO and rep is None, (theorem, tol)
