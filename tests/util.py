"""Shared helpers: seeded random inputs and independent brute-force oracles."""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from operator import add, mul, sub

from valuegeom import Coalition, DividendVector, Game, GameInputError, SymmetricValueProfile, reconstruct
from valuegeom.combinatorics import _check
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


# --- Reference code: the closed-form layer on `Fraction` profiles. ---
# Kept verbatim as an oracle for the integer-backed `SymmetricValueProfile`
# and the sums that read its integers; not used by the package. Only the
# names, the profile type, the range checks and the solidarity special-case
# checks differ. Every profile entry is a `Fraction`, and profile
# arithmetic is pointwise `Fraction` arithmetic.


@dataclass(frozen=True)
class ProfileReference:
    """A symmetric profile as two tuples of `Fraction`s, with pointwise arithmetic."""

    n: int
    alpha: tuple
    beta: tuple

    def _pointwise(self, op, *others):
        return ProfileReference(
            self.n,
            tuple(map(op, self.alpha, *(o.alpha for o in others))),
            tuple(map(op, self.beta, *(o.beta for o in others))),
        )

    def __add__(self, other):
        return self._pointwise(add, other)

    def __sub__(self, other):
        return self._pointwise(sub, other)

    def __rmul__(self, scalar):
        return self._pointwise(partial(mul, Fraction(scalar)))


@lru_cache(maxsize=None)
def harmonic_number_reference(n: int) -> Fraction:
    total = Fraction(0)
    for j in range(1, n + 1):
        total += Fraction(1, j)
    return total


@lru_cache(maxsize=None)
def binomial_harmonic_sum_reference(n: int) -> Fraction:
    direct = Fraction(0)
    for a in range(1, n + 1):
        direct += Fraction(comb(n, a), a)
    powers = Fraction(0)
    for j in range(1, n + 1):
        powers += Fraction(1 << j, j)
    _check(direct == powers - harmonic_number_reference(n), "binomial harmonic sum: direct sum vs power form")
    return direct


@lru_cache(maxsize=None)
def axis_norm_sq_reference(n: int) -> Fraction:
    via_sum = Fraction(0)
    for a in range(1, n + 1):
        via_sum += comb(n, a) * (Fraction(1, a) - Fraction(1, n))
    via_h = binomial_harmonic_sum_reference(n) - Fraction((1 << n) - 1, n)
    _check(via_sum == via_h, "axis norm: per-size sum vs binomial harmonic form")
    return via_sum


@lru_cache(maxsize=None)
def power_harmonic_sum_reference(n: int) -> Fraction:
    total = Fraction(0)
    for j in range(1, n):
        total += Fraction(1 << j, j)
    if n >= 2:
        _check(
            axis_norm_sq_reference(n) == total + Fraction(1, n) - harmonic_number_reference(n),
            "axis norm vs power harmonic sum",
        )
    return total


@lru_cache(maxsize=None)
def solidarity_stratum_epsilon_reference(a: int, n: int) -> Fraction:
    direct = Fraction(0)
    for s in range(a + 1, n + 1):
        direct += Fraction(comb(n - a - 1, s - a - 1), s * comb(n - 1, s - 1))
    direct *= a

    ratio = Fraction(a, comb(n - 1, a))
    binom = Fraction(0)
    for s in range(a + 1, n + 1):
        binom += Fraction(comb(s - 1, a), s)
    binom *= ratio

    tail = Fraction(0)
    for s in range(a + 1, n):
        tail += Fraction(comb(s, a + 1), s * (s + 1))
    abel = Fraction(a, a + 1) + ratio * tail

    _check(direct == binom == abel, "solidarity mix: direct, binomial and Abel sums")
    return direct


def named_profile_reference(kind: str, n: int) -> ProfileReference:
    _ZERO, _ONE = Fraction(0), Fraction(1)
    if kind == "sh":
        alpha = tuple(Fraction(1, a) for a in range(1, n + 1))
        beta = (_ZERO,) * (n - 1)
    elif kind == "ed":
        share = Fraction(1, n)
        alpha = (share,) * n
        beta = (share,) * (n - 1)
    elif kind == "bz":
        alpha = tuple(Fraction(1, 1 << (a - 1)) for a in range(1, n + 1))
        beta = (_ZERO,) * (n - 1)
    elif kind == "esd":
        share = Fraction(1, n)
        alpha = (_ONE,) + (share,) * (n - 1)
        beta = (_ZERO,) + (share,) * (n - 2)
    elif kind == "so":
        beta_list = [solidarity_stratum_epsilon_reference(a, n) / n for a in range(1, n)]
        alpha = tuple(
            (1 - (n - a) * beta_list[a - 1]) / a if a < n else Fraction(1, n)
            for a in range(1, n + 1)
        )
        beta = tuple(beta_list)
    else:
        raise ValueError(f"unknown value kind {kind!r}")
    return ProfileReference(n, alpha, beta)


def egalitarian_shapley_reference(eps, n: int) -> ProfileReference:
    e = Fraction(eps)
    sh = named_profile_reference("sh", n)
    ed = named_profile_reference("ed", n)
    return (1 - e) * sh + e * ed


def profile_for_token_reference(token: str, n: int) -> ProfileReference:
    if token.startswith("f:"):
        return egalitarian_shapley_reference(Fraction(token[2:]), n)
    return named_profile_reference(token, n)


def inner_L_reference(p, q) -> Fraction:
    n = p.n
    total = Fraction(0)
    for a in range(1, n):
        term = a * p.alpha[a - 1] * q.alpha[a - 1] + (n - a) * p.beta[a - 1] * q.beta[a - 1]
        if term:
            total += comb(n, a) * term
    total += n * p.alpha[n - 1] * q.alpha[n - 1]
    return total


def projection_report_reference(target) -> tuple:
    """``(eps_star, dist_sq, proj_sq, resid_sq, r2, at_shapley)``, as the `Fraction` layer computed them."""
    n = target.n
    sh = named_profile_reference("sh", n)
    axis = named_profile_reference("ed", n) - sh
    diff = target - sh
    eps = inner_L_reference(axis, diff) / axis_norm_sq_reference(n)
    dist_sq = inner_L_reference(diff, diff)
    proj_sq = eps * eps * axis_norm_sq_reference(n)
    resid = target - egalitarian_shapley_reference(eps, n)
    resid_sq = inner_L_reference(resid, resid)
    at_shapley = dist_sq == 0
    r2 = Fraction(1) if at_shapley else proj_sq / dist_sq
    return eps, dist_sq, proj_sq, resid_sq, r2, at_shapley


def stratified_coords_reference(target) -> tuple:
    """``(eps, delta, top_dev_sq)``, as the `Fraction` layer computed them."""
    n = target.n
    eps = []
    delta = []
    for a in range(1, n):
        al = target.alpha[a - 1]
        be = target.beta[a - 1]
        d = Fraction(a * al + (n - a) * be - 1, n)
        eps.append(n * (be - d))
        delta.append(d)
    top = n * (target.alpha[n - 1] - Fraction(1, n)) ** 2
    return tuple(eps), tuple(delta), top


def weights_reference(n: int) -> tuple:
    dn = axis_norm_sq_reference(n)
    return tuple(comb(n, a) * (Fraction(1, a) - Fraction(1, n)) / dn for a in range(1, n))
