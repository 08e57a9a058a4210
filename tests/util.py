"""Shared helpers: seeded random inputs and independent brute-force oracles."""

import json
from fractions import Fraction

from valuegeom import Coalition, DividendVector, Game, GameInputError, SymmetricValueProfile, reconstruct
from valuegeom.games import MAX_PLAYERS, MIN_PLAYERS


def rational(rng, lo=-9, hi=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_game(rng, n: int) -> Game:
    return Game(n, tuple(rational(rng) for _ in range((1 << n) - 1)))


def wide_game(rng, n: int) -> Game:
    """Every worth with numerator and denominator up to 10^12."""
    return Game(n, tuple(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in range((1 << n) - 1)))


def random_profile(rng, n: int) -> SymmetricValueProfile:
    return SymmetricValueProfile(
        n,
        tuple(rational(rng) for _ in range(n)),
        tuple(rational(rng) for _ in range(n - 1)),
    )


def random_efficient_profile(rng, n: int) -> SymmetricValueProfile:
    return reconstruct(tuple(rational(rng) for _ in range(n - 1)), n)


def dividends_by_inclusion_exclusion(game: Game) -> DividendVector:
    """Independent dividend computation: alternating subset sums, O(3^n)."""
    n = game.n
    out = []
    for mask in range(1, 1 << n):
        total = Fraction(0)
        sub = mask
        while True:
            sign = -1 if (mask ^ sub).bit_count() & 1 else 1
            total += sign * game.worth(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        out.append(total)
    return DividendVector(n, tuple(out))


def permute_game(game: Game, perm) -> Game:
    """Relabel players: new worth of C is the old worth of the preimage of C."""
    n = game.n
    worths = []
    for mask in range(1, 1 << n):
        pre = 0
        for i in range(n):
            if mask >> perm[i] & 1:
                pre |= 1 << i
        worths.append(game.worth(pre))
    return Game(n, tuple(worths))


def payoff_by_dividends(game: Game, image) -> tuple:
    """Dividend-route definition sum: sum over T of h(T) times the payoff on u_T.

    ``image(mask)`` gives the payoff vector on the unanimity game of ``mask``;
    ``h`` comes from `dividends_by_inclusion_exclusion`.
    """
    h = dividends_by_inclusion_exclusion(game).dividends
    payoff = [Fraction(0)] * game.n
    for mask in range(1, 1 << game.n):
        vec = image(mask)
        for i in range(game.n):
            payoff[i] += h[mask - 1] * vec[i]
    return tuple(payoff)


# --- Reference code: the game parser as it was before the one-pass rewrite. ---
# Kept verbatim as an oracle for `valuegeom.game_from_json`; not used by the
# package. It builds a Coalition per entry and parses every worth literal
# anew, accepts boolean players as 0/1, and has no exponent bound.


def _coalition_reference(players, n: int) -> Coalition:
    bits = 0
    for p in players:
        if not isinstance(p, int) or not 0 <= p < n:
            raise ValueError(f"player {p!r} out of range for n={n}")
        if bits >> p & 1:
            raise ValueError(f"player {p} listed twice")
        bits |= 1 << p
    return Coalition(bits, n)


def _rational_reference(value) -> Fraction:
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
        raise GameInputError("float worths must come through the JSON text parser")
    raise GameInputError(f"cannot parse rational {value!r}")


def game_from_json_reference(text: str) -> Game:
    try:
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
            coalition = _coalition_reference(players, n)
        except ValueError as exc:
            raise GameInputError(f"coalition entry {k}: {exc}") from exc
        if coalition.bits == 0:
            raise GameInputError(f"coalition entry {k} is empty; the empty coalition has worth 0")
        if coalition.bits in seen:
            raise GameInputError(f"duplicate coalition entry {coalition}")
        seen.add(coalition.bits)
        if "worth" not in entry:
            raise GameInputError(f"coalition entry {k} needs a 'worth'")
        worths[coalition.bits - 1] = _rational_reference(entry["worth"])
    return Game(n, tuple(worths))
