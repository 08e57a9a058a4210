"""JSON encoding of exact rationals and the game input format."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .games import MAX_PLAYERS, MIN_PLAYERS, Coalition, Game


class GameInputError(ValueError):
    """Malformed game description."""


def rational_to_json(x: Fraction) -> dict[str, Any]:
    """Encode a rational as decimal numerator/denominator strings plus a float."""
    return {"num": str(x.numerator), "den": str(x.denominator), "approx": float(x)}


def fraction_str(x: Fraction) -> str:
    """Compact exact rendering: plain integer when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    """Accept 'p/q' strings, decimal strings, ints, and Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GameInputError(f"worth must be a number or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameInputError(f"cannot parse rational {value!r}") from exc
    if isinstance(value, float):
        # Binary floats reach here only if the caller bypassed game_from_json;
        # their decimal intent is unrecoverable, so refuse.
        raise GameInputError("float worths must come through the JSON text parser")
    raise GameInputError(f"cannot parse rational {value!r}")


def game_from_json(text: str) -> Game:
    """Parse the game input format.

    Expected shape:
    { "n": <int>, "coalitions": [ { "players": [<int>...], "worth": "<p>/<q>" | <number> }, ... ] }

    Unlisted nonempty coalitions default to worth 0. Number worths are
    converted exactly from their decimal form. Listing the same coalition
    twice is an error.
    """
    try:
        # parse_float receives the raw literal, so decimals convert exactly
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise GameInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GameInputError("top-level value must be an object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise GameInputError("field 'n' must be an integer player count")
    entries = data.get("coalitions", [])
    if not isinstance(entries, list):
        raise GameInputError("field 'coalitions' must be a list")
    if not MIN_PLAYERS <= n <= MAX_PLAYERS:
        raise GameInputError(f"player count must be in [{MIN_PLAYERS}, {MAX_PLAYERS}], got {n}")
    worths = [Fraction(0)] * ((1 << n) - 1)
    seen: set[int] = set()
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GameInputError(f"coalition entry {k} must be an object")
        players = entry.get("players")
        if not isinstance(players, list):
            raise GameInputError(f"coalition entry {k} needs a 'players' list")
        try:
            coalition = Coalition.from_players(players, n)
        except ValueError as exc:
            raise GameInputError(f"coalition entry {k}: {exc}") from exc
        if coalition.bits == 0:
            raise GameInputError(f"coalition entry {k} is empty; the empty coalition has worth 0")
        if coalition.bits in seen:
            raise GameInputError(f"duplicate coalition entry {coalition}")
        seen.add(coalition.bits)
        if "worth" not in entry:
            raise GameInputError(f"coalition entry {k} needs a 'worth'")
        worths[coalition.bits - 1] = parse_rational(entry["worth"])
    return Game(n, tuple(worths))


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as handle:
        return game_from_json(handle.read())
