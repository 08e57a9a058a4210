import random
from fractions import Fraction as F

import pytest

from valuegeom import Game, GameInputError, fraction_str, game_from_json, rational_to_json
from valuegeom.games import MAX_WORTH_EXPONENT
from valuegeom.serialize import parse_rational
from util import game_from_json_reference


def test_game_from_json_basic():
    text = '{"n": 3, "coalitions": [{"players": [0, 1], "worth": "1/2"}, {"players": [2], "worth": 3}]}'
    game = game_from_json(text)
    assert game.n == 3
    assert game.worth(0b011) == F(1, 2)
    assert game.worth(0b100) == F(3)
    assert game.worth(0b111) == F(0)


def test_game_from_json_decimal_numbers_are_exact():
    game = game_from_json('{"n": 2, "coalitions": [{"players": [0, 1], "worth": 0.1}]}')
    assert game.worth(0b11) == F(1, 10)
    game = game_from_json('{"n": 2, "coalitions": [{"players": [0], "worth": 1.25e-2}]}')
    assert game.worth(0b01) == F(1, 80)


def test_game_from_json_negative_and_integer_worths():
    game = game_from_json('{"n": 2, "coalitions": [{"players": [1], "worth": "-7/3"}]}')
    assert game.worth(0b10) == F(-7, 3)


def test_game_from_json_duplicate_coalition_is_error():
    text = '{"n": 2, "coalitions": [{"players": [0], "worth": 1}, {"players": [0], "worth": 2}]}'
    with pytest.raises(GameInputError, match="duplicate"):
        game_from_json(text)


def test_game_from_json_rejects_empty_coalition():
    with pytest.raises(GameInputError):
        game_from_json('{"n": 2, "coalitions": [{"players": [], "worth": 1}]}')


def test_game_from_json_rejects_bad_player():
    with pytest.raises(GameInputError):
        game_from_json('{"n": 2, "coalitions": [{"players": [2], "worth": 1}]}')
    with pytest.raises(GameInputError):
        game_from_json('{"n": 2, "coalitions": [{"players": [0, 0], "worth": 1}]}')


def test_game_from_json_rejects_bad_top_level():
    with pytest.raises(GameInputError):
        game_from_json("[1, 2]")
    with pytest.raises(GameInputError):
        game_from_json('{"coalitions": []}')
    with pytest.raises(GameInputError):
        game_from_json('{"n": 1, "coalitions": []}')
    with pytest.raises(GameInputError):
        game_from_json("not json")


def test_game_from_json_rejects_bad_worth():
    with pytest.raises(GameInputError):
        game_from_json('{"n": 2, "coalitions": [{"players": [0], "worth": "x"}]}')
    with pytest.raises(GameInputError):
        game_from_json('{"n": 2, "coalitions": [{"players": [0], "worth": true}]}')
    with pytest.raises(GameInputError):
        game_from_json('{"n": 2, "coalitions": [{"players": [0]}]}')


def test_game_from_json_empty_coalition_list_is_zero_game():
    assert game_from_json('{"n": 2, "coalitions": []}') == Game.zero(2)


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(5) == F(5)
    assert parse_rational(F(1, 3)) == F(1, 3)
    assert parse_rational("0.25") == F(1, 4)
    with pytest.raises(GameInputError):
        parse_rational("1/0")
    with pytest.raises(GameInputError):
        parse_rational(0.25)
    with pytest.raises(GameInputError):
        parse_rational(None)


def test_rational_to_json_fields():
    d = rational_to_json(F(-39, 58))
    assert d == {"num": "-39", "den": "58", "approx": -39 / 58}


def test_fraction_str():
    assert fraction_str(F(3, 4)) == "3/4"
    assert fraction_str(F(5)) == "5"
    assert fraction_str(F(0)) == "0"
    assert fraction_str(F(-1, 2)) == "-1/2"


def test_game_from_json_rejects_boolean_players():
    for players in ("[true]", "[0, false]", "[1, true]"):
        text = f'{{"n": 3, "coalitions": [{{"players": {players}, "worth": 1}}]}}'
        with pytest.raises(GameInputError, match="coalition entry 0: player (True|False) is a boolean"):
            game_from_json(text)


def test_game_from_json_decimal_exponent_bound():
    assert game_from_json('{"n": 2, "coalitions": [{"players": [0], "worth": "1.25e-2"}]}').worth(0b01) == F(1, 80)
    at_bound = game_from_json(f'{{"n": 2, "coalitions": [{{"players": [0], "worth": "1e{MAX_WORTH_EXPONENT}"}}]}}')
    assert at_bound.worth(0b01) == 10**MAX_WORTH_EXPONENT
    assert game_from_json(f'{{"n": 2, "coalitions": [{{"players": [1], "worth": 1E-{MAX_WORTH_EXPONENT}}}]}}').worth(
        0b10
    ) == F(1, 10**MAX_WORTH_EXPONENT)
    for worth in (f'"1e{MAX_WORTH_EXPONENT + 1}"', f'" -2.5E-{MAX_WORTH_EXPONENT + 1} "', "1e999999999", "1.5e-99999"):
        text = f'{{"n": 2, "coalitions": [{{"players": [0], "worth": {worth}}}]}}'
        with pytest.raises(GameInputError, match="decimal exponent"):
            game_from_json(text)


# Raw JSON worth tokens: exact strings (padded, repeated, p/q, decimal,
# exponent, underscore digits), ints and JSON numbers, then malformed ones.
_GOOD_WORTHS = (
    '"1/2"', '" 1/2 "', '"1/2"', '"-3/4"', '"0"', '"7"', '"0.25"', '"1.25e-2"', '"2E3"', '"-0.5e+1"',
    '"1_0/3"', "3", "-2", "0", "0.1", "1.5e-3", "2e2", "-4.25",
)
_BAD_WORTHS = ('"x"', '"1/0"', '""', "true", "false", "null", "[1]", '{"p": 1}', '"1/2/3"', '"1.5/2"')


def _random_document(rng: random.Random) -> str:
    """A game document, malformed in zero or more seeded ways; never with boolean players."""
    n = rng.randint(2, 6)
    masks = rng.sample(range(1, 1 << n), rng.randint(0, min(12, (1 << n) - 1)))
    entries = []
    for mask in masks:
        players = [i for i in range(n) if mask >> i & 1]
        rng.shuffle(players)
        if rng.random() < 0.05:
            players.insert(rng.randrange(len(players) + 1), rng.choice((-1, -n, n, n + 3, players[0] if players else 0)))
        if rng.random() < 0.03:
            players.insert(rng.randrange(len(players) + 1), rng.choice(("1.0", '"1"', "null", "[0]", "2.5")))
        if rng.random() < 0.02:
            players = []
        worth = rng.choice(_BAD_WORTHS) if rng.random() < 0.03 else rng.choice(_GOOD_WORTHS)
        entry = f'"players": [{", ".join(map(str, players))}]'
        if rng.random() < 0.02:
            entry = f'"players": {rng.choice(("null", "3", "{}"))}'
        if rng.random() > 0.02:
            entry = f'{entry}, "worth": {worth}' if rng.random() < 0.5 else f'"worth": {worth}, {entry}'
        entries.append("{" + entry + "}" if rng.random() > 0.01 else "[]")
        if rng.random() < 0.04:
            again = [i for i in range(n) if mask >> i & 1][::-1]
            entries.append(f'{{"players": {again}, "worth": {rng.choice(_GOOD_WORTHS)}}}')
    rng.shuffle(entries)
    return f'{{"n": {n}, "coalitions": [{", ".join(entries)}]}}'


def _outcome(parse, text):
    try:
        game = parse(text)
    except GameInputError as exc:
        return "error", str(exc)
    return game.n, tuple((w.numerator, w.denominator) for w in game.worths)


def test_game_from_json_matches_reference_parser():
    rng = random.Random(2026)
    errors = 0
    for _ in range(1500):
        text = _random_document(rng)
        expected = _outcome(game_from_json_reference, text)
        assert _outcome(game_from_json, text) == expected, text
        errors += expected[0] == "error"
    # Both kinds of document are well represented.
    assert 300 < errors < 1200


def test_boolean_players_are_the_one_difference_from_reference():
    text = '{"n": 3, "coalitions": [{"players": [true, 2], "worth": "1/2"}]}'
    assert game_from_json_reference(text).worth(0b110) == F(1, 2)
    with pytest.raises(GameInputError, match="coalition entry 0: player True is a boolean, not a player index"):
        game_from_json(text)


def test_shared_worth_literal_is_per_document():
    n = 5
    entries = ", ".join(f'{{"players": {[i for i in range(n) if m >> i & 1]}, "worth": "3/7"}}' for m in range(1, 1 << n))
    first = game_from_json(f'{{"n": {n}, "coalitions": [{entries}]}}')
    assert first.worths == (F(3, 7),) * ((1 << n) - 1)
    assert len({id(w) for w in first.worths}) == 1
    assert 2 * first == Game(n, (F(6, 7),) * ((1 << n) - 1))
    assert first.worths == (F(3, 7),) * ((1 << n) - 1)
    second = game_from_json('{"n": 2, "coalitions": [{"players": [0], "worth": "3/7"}, {"players": [1], "worth": "-3/7"}]}')
    assert second.worths == (F(3, 7), F(-3, 7), F(0))
    assert second.worth(0b01) is not first.worth(0b01)
