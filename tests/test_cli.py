import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import valuegeom
from valuegeom.cli import main

RATIONAL_KEYS = {"num", "den", "approx"}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_fraction(obj) -> F:
    assert set(obj) == RATIONAL_KEYS
    assert isinstance(obj["num"], str) and isinstance(obj["den"], str)
    assert isinstance(obj["approx"], float)
    return F(int(obj["num"]), int(obj["den"]))


def test_tabulate_table_n4(capsys):
    code, out, _ = run(capsys, ["tabulate", "--n", "4"])
    assert code == 0
    so_row = next(line for line in out.splitlines() if line.startswith("so"))
    for cell in ("39/58", "79/36", "507/232", "19/2088", "4563/4582"):
        assert cell in so_row
    bz_row = next(line for line in out.splitlines() if line.startswith("bz"))
    assert "2/203" in bz_row


def test_tabulate_n2_banzhaf_row(capsys):
    code, out, _ = run(capsys, ["tabulate", "--n", "2"])
    assert code == 0
    bz_row = next(line for line in out.splitlines() if line.startswith("bz"))
    assert bz_row.split()[1] == "0"


def test_tabulate_ed_row_has_perfect_fit(capsys):
    code, out, _ = run(capsys, ["tabulate", "--n", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    ed = next(r for r in data["rows"] if r["target"] == "ed")
    assert as_fraction(ed["r2"]) == 1
    assert as_fraction(ed["resid_sq"]) == 0


def test_tabulate_out_of_range_is_input_error(capsys):
    code, _, err = run(capsys, ["tabulate", "--n", "25"])
    assert code == 3
    assert err.startswith("error: input:")


def test_project_solidarity_json(capsys):
    code, out, _ = run(capsys, ["project", "--n", "4", "--target", "so"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["target"] == "so"
    assert as_fraction(data["eps_star"]) == F(39, 58)
    assert as_fraction(data["r2"]) == F(4563, 4582)
    assert data["at_shapley"] is False


def test_project_mixed_family_token(capsys):
    code, out, _ = run(capsys, ["project", "--n", "5", "--target", "f:1/3"])
    assert code == 0
    data = json.loads(out)
    assert as_fraction(data["r2"]) == 1
    assert as_fraction(data["eps_star"]) == F(1, 3)


def test_strata_banzhaf_json(capsys):
    code, out, _ = run(capsys, ["strata", "--n", "4", "--target", "bz"])
    assert code == 0
    data = json.loads(out)
    assert [as_fraction(e) for e in data["eps"]] == [F(0), F(0), F(1, 4)]
    assert [as_fraction(d) for d in data["delta"]] == [F(0), F(0), F(-1, 16)]
    assert [as_fraction(x) for x in data["w"]] == [F(18, 29), F(9, 29), F(2, 29)]


def test_strata_solidarity_moments(capsys):
    code, out, _ = run(capsys, ["strata", "--n", "4", "--target", "so"])
    data = json.loads(out)
    assert as_fraction(data["mean"]) == F(39, 58)
    assert as_fraction(data["variance"]) == F(19, 10092)
    assert as_fraction(data["r2"]) == F(4563, 4582)


def test_fit_worked_example(capsys):
    code, out, _ = run(capsys, ["fit", "--n", "4", "--target", "esd", "--directions", "ed,bz"])
    assert code == 0
    data = json.loads(out)
    assert as_fraction(data["gram_det"]) == F(67, 96)
    assert [as_fraction(c) for c in data["coeffs"]] == [F(25, 67), F(24, 67)]
    assert as_fraction(data["r2_u"]) == F(287, 737)
    assert as_fraction(data["mixture"]["shapley_coeff"]) == F(18, 67)
    assert len(data["gram"]) == 4 and data["gram_size"] == 2


def test_fit_dependent_directions_is_input_error(capsys):
    code, _, err = run(capsys, ["fit", "--n", "4", "--target", "so", "--directions", "ed,f:1/2"])
    assert code == 3
    assert "dependent" in err


def test_trends_csv(capsys):
    code, out, _ = run(capsys, ["trends", "--target", "esd", "--n", "3", "--max-n", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,target,eps_star,r2,one_minus_r2"
    assert lines[1].startswith("3,esd,1/5,1/5,")
    assert lines[3].startswith("5,esd,55/103,55/103,")


def test_trends_json(capsys):
    code, out, _ = run(capsys, ["trends", "--target", "bz,so", "--n", "4", "--max-n", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [r["target"] for r in data["rows"]] == ["bz", "so"]
    assert as_fraction(data["rows"][0]["r2"]) == F(2, 203)


def test_eval_equal_division(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(
        '{"n": 3, "coalitions": [{"players": [0, 1, 2], "worth": "3/2"}, {"players": [0], "worth": 1}]}'
    )
    code, out, _ = run(capsys, ["eval", "--value", "ed", "--game", str(path)])
    assert code == 0
    data = json.loads(out)
    assert [as_fraction(p) for p in data["payoffs"]] == [F(1, 2)] * 3


def test_eval_accepts_target_alias(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text('{"n": 2, "coalitions": [{"players": [0, 1], "worth": 1}]}')
    code, out, _ = run(capsys, ["eval", "--target", "sh", "--game", str(path)])
    assert code == 0
    data = json.loads(out)
    assert [as_fraction(p) for p in data["payoffs"]] == [F(1, 2), F(1, 2)]


def test_eval_glove_game_shapley(tmp_path, capsys):
    path = tmp_path / "glove.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "coalitions": [
                    {"players": [0, 1], "worth": 1},
                    {"players": [0, 2], "worth": 1},
                    {"players": [0, 1, 2], "worth": 1},
                ],
            }
        )
    )
    code, out, _ = run(capsys, ["eval", "--value", "sh", "--game", str(path)])
    data = json.loads(out)
    assert [as_fraction(p) for p in data["payoffs"]] == [F(2, 3), F(1, 6), F(1, 6)]


def test_eval_unknown_target_is_input_error(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text('{"n": 2, "coalitions": []}')
    code, _, err = run(capsys, ["eval", "--value", "nope", "--game", str(path)])
    assert code == 3
    assert err.startswith("error: input:") and err.count("\n") == 1


def test_eval_malformed_game_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, ["eval", "--value", "ed", "--game", str(path)])
    assert code == 3
    assert err.startswith("error: input:")


def test_eval_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["eval", "--value", "ed", "--game", "/nonexistent/game.json"])
    assert code == 3


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, ["project", "--n", "4"])
    assert code == 2


def test_unknown_command_exit_code(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_basis_check_json(capsys):
    code, out, _ = run(capsys, ["basis-check", "--n", "3", "--seed", "11"])
    assert code == 0
    data = json.loads(out)
    assert data["gram_identity"] is True
    assert data["all_equal"] is True
    assert len(data["comparisons"]) == 3
    for comp in data["comparisons"]:
        assert comp["equal"] is True
        assert as_fraction(comp["in_basis"]) == as_fraction(comp["direct"])


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = out.strip().splitlines()
    passes = [line for line in lines if line.startswith("PASS")]
    assert len(passes) >= 40
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].endswith("0 failed")


def test_output_is_deterministic(capsys):
    argv = ["strata", "--n", "5", "--target", "so"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["basis-check", "--n", "2", "--seed", "9"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0


@pytest.mark.parametrize("n", [31, 40, -1])
def test_eval_player_count_out_of_range_is_input_error(tmp_path, capsys, n):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": n, "coalitions": []}))
    code, _, err = run(capsys, ["eval", "--value", "sh", "--game", str(path)])
    assert code == 3
    assert err.startswith("error: input:") and "Traceback" not in err


def test_eval_is_identical_under_optimized_interpreter(tmp_path):
    rng = random.Random(10)
    n = 10
    coalitions = [
        {"players": [i for i in range(n) if m >> i & 1], "worth": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"}
        for m in range(1, 1 << n)
    ]
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": n, "coalitions": coalitions}))
    src = str(Path(valuegeom.__file__).resolve().parents[1])
    for token in ("sh", "ed", "bz", "esd", "so", "f:2/7"):
        outputs = []
        for flags in (["-O"], []):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "valuegeom", "eval", "--value", token, "--game", str(path)],
                capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith(b"{")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], token


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize(
    "coalition",
    ['{"players": [true], "worth": 1}', '{"players": [0], "worth": "1e999999999"}', '{"players": [0], "worth": 1e999999999}'],
)
def test_eval_boolean_player_or_huge_exponent_is_input_error(tmp_path, flags, coalition):
    path = tmp_path / "game.json"
    path.write_text(f'{{"n": 2, "coalitions": [{coalition}]}}')
    src = str(Path(valuegeom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "valuegeom", "eval", "--value", "sh", "--game", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=10,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: input:") and "Traceback" not in proc.stderr
