"""Symmetric and general linear value maps, and their evaluation on games.

A symmetric linear value map on n players is pinned down by what it pays on
each unanimity game, and by symmetry that payoff has one value for members
of the generating coalition (``alpha``) and one for outsiders (``beta``),
depending only on the coalition size. The closed-form profiles here cover
the Shapley value, equal division, the Banzhaf value, equal surplus
division, and the solidarity value, together with the one-parameter family
interpolating Shapley and equal division. A profile stores its coordinates
as integers over one denominator; the closed forms build those integers
directly, and profile sums and scalings combine them as integers.

`evaluate` does not decompose the game into dividends. By linearity, a
symmetric map pays each player a weighted sum of worths whose weight depends
only on the coalition size and on whether the player belongs to it;
`worth_weights` derives those per-size weights from ``alpha`` and ``beta``,
and the sum runs over the game's stored integer worths after one lcm
scaling of the weights. `GeneralLinearValueMap.apply` has no such symmetry
and goes through the integer dividends of `games.integer_subset_transform`,
computed from the same stored integers. Neither converts a worth to a
`Fraction`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import comb, lcm
from operator import add, mul
from typing import Callable, Sequence

from .combinatorics import solidarity_stratum_epsilon
from .games import (
    Coalition,
    Game,
    VectorOps,
    _reduced,
    _require_coalition_count,
    _require_same_n,
    clear_denominators,
    coalitions,
    integer_subset_transform,
)
from .limits import MAX_CLOSED_FORM_PLAYERS, _check_exponent, _excerpt, _require

PayoffVector = tuple[Fraction, ...]

PROFILE_KINDS = ("sh", "ed", "bz", "esd", "so")

_ZERO = Fraction(0)


class SymmetryViolation(ValueError):
    """A general map failed player symmetry; carries the witnessing coalitions."""

    def __init__(self, message: str, first: Coalition, second: Coalition):
        super().__init__(message)
        self.first = first
        self.second = second


@dataclass(frozen=True, init=False)
class SymmetricValueProfile(VectorOps):
    """Per-size coordinates of a symmetric linear value map.

    ``alpha[a-1]`` is the payoff to a member of a size-a generating
    coalition on its unanimity game, for a = 1..n. ``beta[a-1]`` is the
    payoff to a non-member, for a = 1..n-1 (at size n there are no
    non-members).

    Stored as ``scaled`` (alpha_1..alpha_n, then beta_1..beta_(n-1)) over
    one positive ``den`` sharing no factor with all of them, so equality and
    hashing mean "same coordinates". The constructor takes rationals;
    ``alpha`` and ``beta`` are `Fraction` views built on first use.
    """

    n: int
    scaled: tuple[int, ...]
    den: int

    def __init__(self, n: int, alpha: Sequence[Fraction], beta: Sequence[Fraction]) -> None:
        _require(n, MAX_CLOSED_FORM_PLAYERS)
        if len(alpha) != n:
            raise ValueError(f"expected {n} alpha entries, got {len(alpha)}")
        if len(beta) != n - 1:
            raise ValueError(f"expected {n - 1} beta entries, got {len(beta)}")
        self._store(n, *clear_denominators([Fraction(x) for x in (*alpha, *beta)]))

    @cached_property
    def alpha(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.scaled[:self.n])

    @cached_property
    def beta(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.scaled[self.n:])

    def alpha_at(self, a: int) -> Fraction:
        """Member payoff at coalition size a (1-based)."""
        return self.alpha[a - 1]

    def beta_at(self, a: int) -> Fraction:
        """Non-member payoff at coalition size a (1-based, a < n)."""
        return self.beta[a - 1]

    def unanimity_payoff(self, generators: "Coalition | int") -> PayoffVector:
        """Payoff vector on the unanimity game generated by the given coalition."""
        bits = generators.bits if isinstance(generators, Coalition) else int(generators)
        if not 0 < bits < (1 << self.n):
            raise ValueError(f"generator bits {bits} out of range for n={self.n}")
        a = bits.bit_count()
        al = self.alpha[a - 1]
        be = self.beta[a - 1] if a < self.n else _ZERO
        return tuple(al if bits >> i & 1 else be for i in range(self.n))

    def is_efficient(self) -> bool:
        """Whether the induced map always distributes exactly the grand worth."""
        n, x, den = self.n, self.scaled, self.den
        return n * x[n - 1] == den and all(a * x[a - 1] + (n - a) * x[n + a - 1] == den for a in range(1, n))


def named_profile(kind: str, n: int) -> SymmetricValueProfile:
    """Closed-form profile of one of the five standard solutions.

    Kinds: ``sh`` Shapley, ``ed`` equal division, ``bz`` Banzhaf, ``esd``
    equal surplus division, ``so`` solidarity. Each is built as integers:
    ``sh`` over lcm(1..n), ``bz`` over 2^(n-1), ``ed`` and ``esd`` over n.
    """
    _require(n, MAX_CLOSED_FORM_PLAYERS)
    zeros = [0] * (n - 1)
    if kind == "sh":
        den = lcm(*range(1, n + 1))
        return SymmetricValueProfile._from_scaled(n, [den // a for a in range(1, n + 1)] + zeros, den)
    if kind == "ed":
        return SymmetricValueProfile._from_scaled(n, [1] * (2 * n - 1), n)
    if kind == "bz":
        return SymmetricValueProfile._from_scaled(n, [1 << (n - a) for a in range(1, n + 1)] + zeros, 1 << (n - 1))
    if kind == "esd":
        return SymmetricValueProfile._from_scaled(n, [n] + [1] * (n - 1) + [0] + [1] * (n - 2), n)
    if kind == "so":
        # Outsider payoff eps_a / n from the solidarity closed form, member
        # payoff (1 - (n-a) eps_a / n) / a from efficiency: with eps_a =
        # e_a / q and m = lcm(1..n), integers over n * q * m.
        eps = [solidarity_stratum_epsilon(a, n) for a in range(1, n)]
        q = lcm(*(x.denominator for x in eps))
        e = [x.numerator * (q // x.denominator) for x in eps]
        m = lcm(*range(1, n + 1))
        alpha = [(n * q - (n - a) * e[a - 1]) * (m // a) for a in range(1, n)]
        scaled = alpha + [q * m] + [x * m for x in e]
        return SymmetricValueProfile._from_scaled(n, *_reduced(scaled, n * q * m))
    raise ValueError(f"unknown value kind {kind!r}; expected one of {PROFILE_KINDS}")


def egalitarian_shapley(eps, n: int) -> SymmetricValueProfile:
    """The mix (1 - eps) * Shapley + eps * equal division.

    Outsiders of a generating coalition receive exactly eps/n, for any
    rational eps (negative and above-one values included). With eps = p/q
    it is built as integers over q * lcm(1..n).
    """
    p, q = Fraction(eps).as_integer_ratio()
    _require(n, MAX_CLOSED_FORM_PLAYERS)
    m = lcm(*range(1, n + 1))
    share = p * (m // n)
    alpha = [(q - p) * (m // a) + share for a in range(1, n + 1)]
    return SymmetricValueProfile._from_scaled(n, *_reduced(alpha + [share] * (n - 1), q * m))


def profile_for_token(token: str, n: int) -> SymmetricValueProfile:
    """Resolve a value token: one of the named kinds, or ``f:<rational>``."""
    if token in PROFILE_KINDS:
        return named_profile(token, n)
    if token.startswith("f:"):
        literal = token[2:]
        _check_exponent(literal, "mixing parameter")
        try:
            eps = Fraction(literal)
        except (ValueError, ZeroDivisionError) as exc:
            digits, limit = sum(map(str.isdigit, literal)), getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if 0 < limit < digits:
                raise ValueError(
                    f"mixing parameter in token {_excerpt(token)} has {digits} digits, "
                    f"beyond Python's limit of {limit} digits for reading an integer"
                ) from exc
            raise ValueError(f"bad mixing parameter in token {_excerpt(token)}") from exc
        return egalitarian_shapley(eps, n)
    raise ValueError(f"unknown value token {_excerpt(token)}")


def worth_weights(profile: SymmetricValueProfile) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Per-size coefficients of the value map on worths, ``(w_in, w_out)``.

    Player i receives ``sum over S of v(S) * w`` with ``w = w_in[|S|-1]``
    when i is in S and ``w_out[|S|-1]`` when not. Expanding each dividend
    as an alternating sum of worths gives, for size s = |S| (stored at
    index s-1),

        w_in[s]  = sum_{t>=s} (-1)^(t-s) C(n-s, t-s) alpha_t
        w_out[s] = sum_{t>=s} (-1)^(t-s) [C(n-s-1, t-s-1) alpha_t + C(n-s-1, t-s) beta_t]

    ``w_in`` has n entries and ``w_out`` n-1 (no coalition of size n has an
    outsider), matching ``alpha`` and ``beta``. O(n^2) operations.
    """
    n = profile.n
    alpha, beta = profile.alpha, profile.beta
    w_in = tuple(
        sum((-1) ** (t - s) * comb(n - s, t - s) * alpha[t - 1] for t in range(s, n + 1))
        for s in range(1, n + 1)
    )
    w_out = tuple(
        sum((-1) ** (t - s) * comb(n - s - 1, t - s - 1) * alpha[t - 1] for t in range(s + 1, n + 1))
        + sum((-1) ** (t - s) * comb(n - s - 1, t - s) * beta[t - 1] for t in range(s, n))
        for s in range(1, n)
    )
    return w_in, w_out


def evaluate(profile: SymmetricValueProfile, game: Game) -> PayoffVector:
    """Apply the value map to a game through its per-size worth weights.

    Player i receives ``base + sum over S containing i of v(S) * diff[|S|]``
    with ``base = sum over all S of v(S) * w_out[|S|]`` and ``diff = w_in -
    w_out`` (see `worth_weights`). The weights are scaled to integers by
    one lcm and the game already holds its worths as integers over one
    denominator, so the pass over the 2^n worths is integer arithmetic and
    only the n payoffs become `Fraction`s; no dividend is computed.
    """
    _require_same_n(profile.n, game.n)
    n = game.n
    w_in, w_out = worth_weights(profile)
    w_out = (*w_out, _ZERO)  # the grand coalition has no outsiders
    diff = (a - b for a, b in zip(w_in, w_out))
    weights, weight_den = clear_denominators((_ZERO, *w_out, _ZERO, *diff))
    base_w, diff_w = weights[:n + 1], weights[n + 1:]
    worths = game.scaled
    sizes = list(map(int.bit_count, range(1 << n)))
    base = sum(map(mul, worths, map(base_w.__getitem__, sizes)))
    # Halve the mask range one top bit at a time: the upper half is every
    # coalition holding that player; folding it onto the lower half keeps
    # the sums for the remaining players.
    f = list(map(mul, worths, map(diff_w.__getitem__, sizes)))
    member = [0] * n
    for i in reversed(range(n)):
        half = 1 << i
        member[i] = sum(f[half:])
        f = list(map(add, f[:half], f[half:]))
    den = game.den * weight_den
    return tuple(Fraction(base + m, den) for m in member)


@dataclass(frozen=True)
class GeneralLinearValueMap(VectorOps):
    """A linear value map pinned down by its payoff vector on every unanimity game.

    ``actions[m - 1]`` is the payoff vector on the unanimity game generated
    by the coalition with bitmask ``m``; linearity extends it to all games.
    """

    n: int
    actions: tuple[PayoffVector, ...]

    def __post_init__(self) -> None:
        _require_coalition_count(self.actions, self.n, "unanimity payoffs")
        for vec in self.actions:
            if len(vec) != self.n:
                raise ValueError(f"payoff vectors must have length {self.n}")

    def _combine(self, op: Callable, *others: "GeneralLinearValueMap") -> "GeneralLinearValueMap":
        """``op`` entry by entry on the payoff vectors, pointwise in `Fraction`s."""
        _require_same_n(self.n, *(o.n for o in others))
        rows = zip(self.actions, *(o.actions for o in others))
        return GeneralLinearValueMap(self.n, tuple(tuple(map(op, *vectors)) for vectors in rows))

    def __rmul__(self, scalar) -> "GeneralLinearValueMap":
        return self._combine(partial(mul, Fraction(scalar)))

    @classmethod
    def from_profile(cls, profile: SymmetricValueProfile) -> "GeneralLinearValueMap":
        return cls(profile.n, tuple(profile.unanimity_payoff(m) for m in coalitions(profile.n)))

    @classmethod
    def from_unanimity_images(
        cls, n: int, image: Callable[[int], Sequence[Fraction]]
    ) -> "GeneralLinearValueMap":
        """Build a map from a function giving the payoff on each unanimity game."""
        return cls(n, tuple(tuple(Fraction(x) for x in image(m)) for m in coalitions(n)))

    def apply(self, game: Game) -> PayoffVector:
        """Evaluate on an arbitrary game by expanding it in dividends.

        The dividends come from the integer subset transform of the
        game's integer worths, and each player's column of unanimity
        payoffs is scaled to integers by its own lcm, so every payoff is
        one integer dot product over one denominator.
        """
        _require_same_n(self.n, game.n)
        divs = integer_subset_transform(game.scaled, self.n, -1)
        del divs[0]
        payoff = []
        for column in zip(*self.actions):
            scaled, column_den = clear_denominators(column)
            payoff.append(Fraction(sum(map(mul, divs, scaled)), game.den * column_den))
        return tuple(payoff)


def profile_from_general(vmap: GeneralLinearValueMap) -> SymmetricValueProfile:
    """Extract per-size coordinates, verifying player symmetry exhaustively.

    Raises SymmetryViolation naming the witnessing coalitions when any
    unanimity payoff is not constant on members and non-members, or when two
    equal-size coalitions disagree.
    """
    n = vmap.n
    alpha: list[Fraction] = [_ZERO] * n
    beta: list[Fraction] = [_ZERO] * (n - 1)
    first_mask: dict[int, int] = {}
    for mask in coalitions(n):
        a = mask.bit_count()
        vec = vmap.actions[mask - 1]
        members = [i for i in range(n) if mask >> i & 1]
        outsiders = [i for i in range(n) if not mask >> i & 1]
        for group, role in ((members, "members"), (outsiders, "non-members")):
            for i in group[1:]:
                if vec[i] != vec[group[0]]:
                    here = Coalition(mask, n)
                    raise SymmetryViolation(
                        f"payoff differs between {role} {group[0]} and {i} on unanimity game of {here}",
                        here,
                        here,
                    )
        al = vec[members[0]]
        be = vec[outsiders[0]] if outsiders else None
        if a in first_mask:
            ref = first_mask[a]
            if al != alpha[a - 1] or (be is not None and be != beta[a - 1]):
                raise SymmetryViolation(
                    f"size-{a} coalitions {Coalition(ref, n)} and {Coalition(mask, n)} induce different payoffs",
                    Coalition(ref, n),
                    Coalition(mask, n),
                )
        else:
            first_mask[a] = mask
            alpha[a - 1] = al
            if be is not None:
                beta[a - 1] = be
    return SymmetricValueProfile(n, tuple(alpha), tuple(beta))
