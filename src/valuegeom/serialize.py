"""JSON encoding of exact rationals and the game input format.

`game_from_json` reads a game in one pass over the coalition entries. Each
entry's player list becomes a validated bitmask (`games._coalition_bits`)
without building a `Coalition`, and each distinct string worth literal is
parsed once per document: a table local to the call, keyed by the literal
string, hands the same immutable `Fraction` to every entry that repeats it.
JSON numbers are read exactly from their decimal text as the JSON parser
meets them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any

from .games import Coalition, Game, _coalition_bits
from .limits import MAX_PLAYERS, _check_exponent, _excerpt, _require


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
    """Accept 'p/q' strings, decimal strings, ints, and Fractions.

    A decimal exponent beyond `MAX_WORTH_EXPONENT` in absolute value is
    refused before the string is converted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GameInputError(f"worth must be a number or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _check_exponent(value, "worth", GameInputError)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameInputError(f"cannot parse rational {_excerpt(value)}") from exc
    if isinstance(value, float):
        # Binary floats reach here only if the caller bypassed game_from_json;
        # their decimal intent is unrecoverable, so refuse.
        raise GameInputError("float worths must come through the JSON text parser")
    raise GameInputError(f"cannot parse rational {_excerpt(value)}")


def game_from_json(text: str) -> Game:
    """Parse the game input format.

    Expected shape:
    { "n": <int>, "coalitions": [ { "players": [<int>...], "worth": "<p>/<q>" | <number> }, ... ] }

    Unlisted nonempty coalitions default to worth 0. Number worths are
    converted exactly from their decimal form. Listing the same coalition
    twice is an error. Players are JSON integers; ``true``/``false`` are
    refused. A worth whose decimal exponent exceeds `MAX_WORTH_EXPONENT` in
    absolute value is refused before it is expanded.

    One pass over the entries: each player list becomes a validated bitmask
    and is checked against the masks already seen; each string worth
    literal is parsed the first time this document uses it and looked up in
    a per-call table after that, so entries that repeat a literal share one
    `Fraction`. Nothing is kept between calls.
    """
    try:
        # parse_float receives the raw literal, so decimals convert exactly
        data = json.loads(text, parse_float=parse_rational)
    except GameInputError:
        raise
    except json.JSONDecodeError as exc:
        raise GameInputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GameInputError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        # The one other refusal of json.loads: an integer literal longer than
        # the interpreter's limit on digits converted from a string.
        raise GameInputError(f"invalid JSON: an integer longer than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(data, dict):
        raise GameInputError("top-level value must be an object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise GameInputError("field 'n' must be an integer player count")
    entries = data.get("coalitions", [])
    if not isinstance(entries, list):
        raise GameInputError("field 'coalitions' must be a list")
    _require(n, MAX_PLAYERS, error=GameInputError)
    worths = [Fraction(0)] * ((1 << n) - 1)
    seen: set[int] = set()
    # Keyed by str only: true, 1 and "1" are equal as dict keys but must not
    # share an entry.
    literals: dict[str, Fraction] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GameInputError(f"coalition entry {k} must be an object")
        players = entry.get("players")
        if not isinstance(players, list):
            raise GameInputError(f"coalition entry {k} needs a 'players' list")
        try:
            bits = _coalition_bits(players, n)
        except ValueError as exc:
            raise GameInputError(f"coalition entry {k}: {exc}") from exc
        if bits == 0:
            raise GameInputError(f"coalition entry {k} is empty; the empty coalition has worth 0")
        if bits in seen:
            raise GameInputError(f"duplicate coalition entry {Coalition(bits, n)}")
        seen.add(bits)
        if "worth" not in entry:
            raise GameInputError(f"coalition entry {k} needs a 'worth'")
        worth = entry["worth"]
        if type(worth) is str:
            value = literals.get(worth)
            if value is None:
                value = literals[worth] = parse_rational(worth)
        else:
            value = parse_rational(worth)
        worths[bits - 1] = value
    return Game(n, tuple(worths))


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as handle:
        return game_from_json(handle.read())
