"""JSON encoding of exact rationals and the game input format.

`game_from_json` builds the game's integer worths over one denominator
(see `games.Game`) straight from the parsed document. After `json.loads`,
every entry is checked in bulk, one C-level pass over all entries per
check: the entry and player types, each player's bit, repeated players,
empty and duplicate coalitions, and a present worth. Each distinct
worth literal is then parsed once, one lcm over the distinct denominators
scales each literal once, and the integers are scattered by bitmask. JSON
numbers are read exactly from their decimal text as the JSON parser meets
them and take the same path. When any bulk check fails, a per-entry loop
runs only to raise the first error in entry order; it never builds a game.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import countOf, eq
from typing import Any, NoReturn

from .combinatorics import _check
from .games import _PLAYER_BITS, Coalition, Game, _coalition_bits
from .limits import _check_exponent, _excerpt, _require_game_size

#: The worth types `parse_rational` reads (a JSON number arrives as a `Fraction`).
_LITERAL_TYPES = frozenset((str, int, Fraction))


class GameInputError(ValueError):
    """Malformed game description."""


def rational_to_json(x: Fraction) -> dict[str, Any]:
    """Encode a rational as decimal numerator/denominator strings plus a float.

    Raises `OverflowError` saying so when only the ``approx`` float
    overflows; the exact value itself is never in doubt.
    """
    try:
        approx = float(x)
    except OverflowError:
        bits = abs(x.numerator).bit_length() - x.denominator.bit_length()
        raise OverflowError(
            "the exact result is fine, but its JSON 'approx' float overflowed: "
            f"the value is about 2^{bits}, beyond the largest float (about 2^1024)"
        ) from None
    return {"num": str(x.numerator), "den": str(x.denominator), "approx": approx}


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
    absolute value is refused before it is expanded. A player count whose
    game would exceed `GAME_MEMORY_BUDGET` is refused before any per-coalition
    list is built.

    The entries are checked in bulk (see `_scaled_worths`) and become the
    game's integer worths over one denominator. When a bulk check fails,
    `_raise_first_entry_error` walks the entries in order to name the first
    fault.
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
    _require_game_size(n, error=GameInputError)
    parsed = _scaled_worths(entries, n)
    if parsed is None:
        _raise_first_entry_error(entries, n)
    return Game._from_scaled(n, *parsed)


def _scaled_worths(entries: list, n: int) -> tuple[list[int], int] | None:
    """The integer worths, one per bitmask, and their denominator; ``None`` if any entry is malformed.

    Each check is one pass in C over all entries: every entry is a dict
    whose ``players`` is a list of exact ints, each a key of
    ``_PLAYER_BITS[n]``; each mask has as many bits as its list has
    players, so none is listed twice; the masks are nonzero and distinct;
    every entry has a ``worth`` of a type `parse_rational` reads. Then each
    distinct worth literal is parsed once, one lcm over their denominators
    scales each literal once, and the integers are scattered by mask.
    """
    count = len(entries)
    if countOf(map(type, entries), dict) != count:
        return None
    players = list(map(dict.get, entries, repeat("players")))
    if countOf(map(type, players), list) != count:
        return None
    if countOf(map(type, chain.from_iterable(players)), int) != sum(map(len, players)):
        return None
    try:
        masks = list(map(sum, map(map, repeat(_PLAYER_BITS[n].__getitem__), players)))
    except KeyError:
        return None
    if not all(map(eq, map(int.bit_count, masks), map(len, players))):
        return None
    distinct = set(masks)
    if len(distinct) != count or 0 in distinct:
        return None
    if not all(map(dict.__contains__, entries, repeat("worth"))):
        return None
    literals = list(map(dict.__getitem__, entries, repeat("worth")))
    # A bool would share a table key with 1 or 0, so it is refused here and
    # named by the entry loop.
    if not set(map(type, literals)) <= _LITERAL_TYPES:
        return None
    try:
        values = {literal: parse_rational(literal) for literal in set(literals)}
    except GameInputError:
        return None
    den = lcm(*{v.denominator for v in values.values()})
    scaled_literal = {literal: v.numerator * (den // v.denominator) for literal, v in values.items()}
    scaled = [0] * (1 << n)
    for mask, x in zip(masks, map(scaled_literal.__getitem__, literals)):
        scaled[mask] = x
    return scaled, den


def _raise_first_entry_error(entries: list, n: int) -> NoReturn:
    """Raise the `GameInputError` of the first malformed entry, in entry order."""
    seen: set[int] = set()
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
        parse_rational(entry["worth"])
    _check(False, "game parser: a bulk entry check failed, but every entry is well formed")


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as handle:
        return game_from_json(handle.read())
