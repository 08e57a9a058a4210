"""Games stored as integers over one denominator, and the parser that builds them."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import valuegeom
from valuegeom import Game, GeneralLinearValueMap, dividends, evaluate, from_dividends, game_from_json, harsanyi_inner
from valuegeom import named_profile, unanimity
from valuegeom.limits import GAME_MEMORY_BUDGET
from util import random_game, wide_game

SRC = str(Path(valuegeom.__file__).resolve().parents[1])


def _cli(argv, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "valuegeom", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=10,
    )


def _assert_normalized(game: Game) -> None:
    assert len(game.scaled) == 1 << game.n and game.scaled[0] == 0
    assert game.den > 0 and gcd(game.den, *game.scaled) == 1


def _games(rng):
    for n in (2, 3, 5):
        yield random_game(rng, n)
        yield wide_game(rng, n)
        yield Game(n, tuple(F(rng.randint(-20, 20)) for _ in range((1 << n) - 1)))
        yield Game.zero(n)


def test_worths_round_trip_and_storage_is_normalized():
    rng = random.Random(81)
    for game in _games(rng):
        _assert_normalized(game)
        assert Game(game.n, game.worths).worths == game.worths
        assert all(game.worth(m) == game.worths[m - 1] for m in range(1, 1 << game.n))
        assert game.worth(0) == 0
    worths = (F(1, 2), F(-3), F(0), F(7, 6), F(10**12, 3), F(-1, 10**12), F(5))
    assert Game(3, worths).worths == worths


def test_equality_and_hash_ignore_the_scale_worths_are_written_at():
    pairs = [
        (Game(2, (F(2, 4), F(1), F(0))), Game(2, (F(1, 2), F(1), F(0)))),
        (Game(2, (2, 4, 6)), Game(2, (F(4, 2), F(8, 2), F(6)))),
        (Game.zero(3), Game(3, (F(0, 5),) * 7)),
        (Game(2, (F(10**12, 3), F(-1, 10**12), F(1))), Game(2, (F(2 * 10**12, 6), F(-7, 7 * 10**12), F(3, 3)))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        _assert_normalized(a)
    assert Game.zero(3).den == 1 and Game(2, (2, 4, 6)).scaled == (0, 2, 4, 6)
    assert Game(2, (F(1, 2), 1, 0)) != Game(2, (F(1, 3), 1, 0))
    rng = random.Random(82)
    for g in _games(rng):
        for other in (F(1, 3) * (3 * g), (g + g) - g, -(-g), F(10**12, 7) * (F(7, 10**12) * g)):
            assert other == g and hash(other) == hash(g)
            _assert_normalized(other)
        assert g + g == 2 * g and hash(g + g) == hash(2 * g)
        _assert_normalized(g + g)
        _assert_normalized(g - g)


@pytest.mark.parametrize(
    "worth_text, worth",
    [('"3/4"', F(3, 4)), ("7", F(7)), ("-0.125", F(-1, 8)), ('"2.5e-3"', F(1, 400)), ("1.5e2", F(150))],
    ids=["string", "int", "decimal-number", "decimal-string", "exponent-number"],
)
def test_parser_equals_the_constructor(worth_text, worth):
    game = game_from_json(f'{{"n": 2, "coalitions": [{{"players": [1, 0], "worth": {worth_text}}}]}}')
    assert game == Game(2, (F(0), F(0), worth)) and hash(game) == hash(Game(2, (F(0), F(0), worth)))


def test_parser_equals_the_constructor_on_mixed_worths():
    rng = random.Random(83)
    choices = [("7", F(7)), ('"7"', F(7)), ("7.0", F(7)), ('"-5/10"', F(-1, 2)), ("-0.5", F(-1, 2)), ("0", F(0)),
               ('"1e12"', F(10**12)), ('"1/1000000000000"', F(1, 10**12)), ("12", F(12)), ("2.25", F(9, 4))]
    for n in (2, 3, 6):
        worths = [F(0)] * ((1 << n) - 1)
        entries = []
        for m in rng.sample(range(1, 1 << n), (1 << n) - 2):
            text, value = rng.choice(choices)
            entries.append(f'{{"players": {[i for i in range(n) if m >> i & 1][::-1]}, "worth": {text}}}')
            worths[m - 1] = value
        game = game_from_json(f'{{"n": {n}, "coalitions": [{", ".join(entries)}]}}')
        assert game == Game(n, tuple(worths)) and game.worths == tuple(worths)
        _assert_normalized(game)


def test_vector_ops_agree_with_pointwise_fraction_arithmetic():
    rng = random.Random(84)
    for n in (2, 4):
        for g, h in ((random_game(rng, n), wide_game(rng, n)), (random_game(rng, n), Game.zero(n))):
            gw, hw = g.worths, h.worths
            assert (g + h).worths == tuple(a + b for a, b in zip(gw, hw))
            assert (g - h).worths == tuple(a - b for a, b in zip(gw, hw))
            assert (-g).worths == tuple(-a for a in gw)
            for s in (F(-3, 7), 0, 5, F(10**12, 11)):
                assert (s * g).worths == tuple(s * a for a in gw)
    with pytest.raises(ValueError, match="player counts differ"):
        random_game(rng, 2) + random_game(rng, 3)


def test_dividends_round_trip():
    rng = random.Random(85)
    for g in _games(rng):
        back = from_dividends(dividends(g))
        assert back == g and back.worths == g.worths
        _assert_normalized(back)
    assert from_dividends(dividends(unanimity(4, 0b0110))) == unanimity(4, 0b0110)


def test_kernels_never_build_the_fraction_worths():
    rng = random.Random(86)
    n = 4
    text = json.dumps({"n": n, "coalitions": [
        {"players": [i for i in range(n) if m >> i & 1], "worth": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"}
        for m in range(1, 1 << n)
    ]})
    g = game_from_json(text)
    other = game_from_json(text)
    vmap = GeneralLinearValueMap.from_profile(named_profile("bz", n))
    evaluate(named_profile("so", n), g)
    vmap.apply(g)
    dividends(g)
    harsanyi_inner(g, other)
    assert "worths" not in vars(g) and "worths" not in vars(other)


def test_game_builders_check_the_memory_budget_first():
    assert GAME_MEMORY_BUDGET == 1 << 30
    for build in (lambda: Game.zero(25), lambda: Game.from_function(30, lambda m: 0), lambda: unanimity(26, 1)):
        with pytest.raises(ValueError, match="beyond the game memory budget GAME_MEMORY_BUDGET of 1024 MiB"):
            build()
    with pytest.raises(ValueError, match=r"^player count must be in \[2, 30\], got 40$"):
        Game.zero(40)
    with pytest.raises(ValueError, match="memory budget"):
        game_from_json('{"n": 28, "coalitions": []}')


def test_eval_beyond_the_memory_budget_exits_3_at_once(tmp_path):
    path = tmp_path / "sparse.json"
    path.write_text('{"n": 25, "coalitions": [{"players": [0, 24], "worth": "1/2"}]}')
    start = time.monotonic()
    proc = _cli(["eval", "--value", "sh", "--game", str(path)])
    elapsed = time.monotonic() - start
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: input: a game on 25 players needs about 2048 MiB")
    assert "GAME_MEMORY_BUDGET" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 5


def test_closed_stdout_is_not_an_input_error():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = _cli(["tabulate", "--n", "20", "--format", "json"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_float_overflow_says_the_exact_result_is_fine():
    proc = _cli(["project", "--n", "4", "--target", "f:1e400"])
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: input: the exact result is fine, but its JSON 'approx' float overflowed")
    assert "Traceback" not in proc.stderr and "integer division" not in proc.stderr


def test_long_integer_player_is_named_as_an_integer(tmp_path):
    path = tmp_path / "game.json"
    path.write_text('{"n": 3, "coalitions": [{"players": [' + "1" * 4001 + '], "worth": 1}]}')
    proc = _cli(["eval", "--value", "sh", "--game", str(path)])
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: input: coalition entry 0: player {'1' * 40}… (4001 digits) out of range for n=3\n"


def test_first_error_in_entry_order_is_reported():
    text = ('{"n": 3, "coalitions": [{"players": [0], "worth": 1}, {"players": [1], "worth": "x"},'
            ' {"players": [5], "worth": 1}, {"players": [0], "worth": 2}]}')
    with pytest.raises(valuegeom.GameInputError, match=r"^cannot parse rational 'x'$"):
        game_from_json(text)
    text = '{"n": 3, "coalitions": [{"players": [2], "worth": true}, {"players": [1], "worth": 1}]}'
    with pytest.raises(valuegeom.GameInputError, match="^worth must be a number or 'p/q' string, got True$"):
        game_from_json(text)
    text = '{"n": 3, "coalitions": [{"players": [1], "worth": 1}, {"players": [2], "worth": true}]}'
    with pytest.raises(valuegeom.GameInputError, match="got True"):
        game_from_json(text)
