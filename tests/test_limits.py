import ast
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import valuegeom
from valuegeom import Coalition, Game, GeneralLinearValueMap, named_profile, profile_for_token
from valuegeom.cli import main
from valuegeom.limits import MIN_PLAYERS, _excerpt

SRC = Path(valuegeom.__file__).parent
LIMIT_NAME = re.compile(r"MIN_\w*|\w*MAX_\w*")


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _raised_texts(tree: ast.Module) -> list[str]:
    """Every string literal, f-string parts included, inside a ``raise`` statement."""
    return [
        leaf.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for leaf in ast.walk(node.exc)
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
    ]


def test_limits_module_is_the_only_home_of_size_limits_and_range_messages():
    owners, raisers = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(LIMIT_NAME.fullmatch(name) for name in _module_level_names(tree)):
            owners.add(path.stem)
        if any("must be in [" in text or "at least 2" in text for text in _raised_texts(tree)):
            raisers.add(path.stem)
    assert owners == {"limits"}
    assert raisers == {"limits"}


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["tabulate", "--n", "{}"], 20),
        (["trends", "--max-n", "{}"], 30),
        (["project", "--n", "{}", "--target", "so"], 64),
        (["strata", "--n", "{}", "--target", "bz"], 64),
        (["fit", "--n", "{}", "--target", "bz", "--directions", "ed"], 64),
        (["basis-check", "--n", "{}"], 5),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_each_command_accepts_its_bound_and_refuses_one_more(capsys, argv, bound):
    assert main([arg.format(bound) for arg in argv]) == 0
    capsys.readouterr()
    for n in (bound + 1, MIN_PLAYERS - 1):
        assert main([arg.format(n) for arg in argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: input:") and f", {bound}], got {n}\n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--n", "1000000", "--target", "f:1/2"],
        ["fit", "--n", "3000", "--target", "bz", "--directions", "ed"],
        ["eval", "--value", "sh", "--game", "{deep}"],
        ["eval", "--value", "sh", "--game", "{directory}"],
        ["project", "--n", "4", "--target", "f:1e2000000"],
        ["project", "--n", "4", "--target", "f:1e400"],
    ],
    ids=["huge-n-mixture", "huge-n-fit", "deeply-nested-game", "game-path-is-directory", "huge-exponent-token",
         "result-beyond-float"],
)
def test_oversized_or_unreadable_input_exits_3_at_once(tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": 2, "coalitions": ' + "[" * 100_000)
    argv = [arg.format(deep=deep, directory=tmp_path) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "valuegeom", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=10,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: input:") and "Traceback" not in proc.stderr


def test_builders_check_the_player_count_before_building():
    def never(m):
        raise AssertionError("built an entry before checking n")

    for build in (Game.zero, lambda n: Game.from_function(n, never),
                  lambda n: GeneralLinearValueMap.from_unanimity_images(n, never)):
        with pytest.raises(ValueError, match=r"^player count must be in \[2, 30\], got 40$"):
            build(40)
    with pytest.raises(ValueError, match=r"^player count must be in \[2, 64\], got 1000000000$"):
        named_profile("sh", 10**9)


def test_mixing_parameter_token_has_the_worth_exponent_bound():
    assert profile_for_token("f:1e4300", 2).beta == (F(10**4300, 2),)
    for token in ("f:1e4301", "f:-1.5E-4301", "f:1e2000000"):
        with pytest.raises(ValueError, match="^mixing parameter .* has a decimal exponent beyond ±4300$"):
            profile_for_token(token, 4)


def test_long_player_is_cut_in_the_error_message():
    with pytest.raises(ValueError) as info:
        Coalition.from_players(["x" * 5000], 4)
    assert str(info.value) == f"player {'x' * 40 + '…'!r} (5000 characters) out of range for n=4"
    with pytest.raises(ValueError) as info:
        Coalition.from_players([10**4000], 4)
    assert len(str(info.value)) < 120


def test_integer_beyond_the_digit_limit_is_cut_without_conversion():
    with pytest.raises(ValueError) as info:
        Coalition.from_players([10**5000], 4)
    assert str(info.value) == f"player 1{'0' * 39}… (5001 digits) out of range for n=4"
    with pytest.raises(ValueError) as info:
        Coalition.from_players([-7 * 10**9000 - 1], 4)
    assert str(info.value) == f"player -7{'0' * 38}… (9001 digits) out of range for n=4"
    for digits in (1, 39, 40, 41, 4300):
        for value in (10 ** (digits - 1), 10 ** digits - 1):
            assert _excerpt(value) == (repr(value) if digits <= 40 else f"{str(value)[:40]}… ({digits} digits)")
            assert _excerpt(-value) == (repr(-value) if digits <= 39 else f"{str(-value)[:40]}… ({digits} digits)")
