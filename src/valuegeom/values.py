"""Symmetric and general linear value maps, and their evaluation on games.

A symmetric linear value map on n players is pinned down by what it pays on
each unanimity game, and by symmetry that payoff has one value for members
of the generating coalition (``alpha``) and one for outsiders (``beta``),
depending only on the coalition size. The closed-form profiles here cover
the Shapley value, equal division, the Banzhaf value, equal surplus
division, and the solidarity value, together with the one-parameter family
interpolating Shapley and equal division.

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

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, mul
from typing import Callable, Sequence

from .combinatorics import solidarity_stratum_epsilon
from .games import (
    Coalition,
    Game,
    VectorOps,
    _require_coalition_count,
    _require_same_n,
    clear_denominators,
    coalitions,
    integer_subset_transform,
)
from .limits import MAX_CLOSED_FORM_PLAYERS, _check_exponent, _require

PayoffVector = tuple[Fraction, ...]

PROFILE_KINDS = ("sh", "ed", "bz", "esd", "so")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SymmetryViolation(ValueError):
    """A general map failed player symmetry; carries the witnessing coalitions."""

    def __init__(self, message: str, first: Coalition, second: Coalition):
        super().__init__(message)
        self.first = first
        self.second = second


@dataclass(frozen=True)
class SymmetricValueProfile(VectorOps):
    """Per-size coordinates of a symmetric linear value map.

    ``alpha[a-1]`` is the payoff to a member of a size-a generating
    coalition on its unanimity game, for a = 1..n. ``beta[a-1]`` is the
    payoff to a non-member, for a = 1..n-1 (at size n there are no
    non-members).
    """

    n: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _require(self.n, MAX_CLOSED_FORM_PLAYERS)
        if len(self.alpha) != self.n:
            raise ValueError(f"expected {self.n} alpha entries, got {len(self.alpha)}")
        if len(self.beta) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} beta entries, got {len(self.beta)}")

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
        n = self.n
        for a in range(1, n):
            if a * self.alpha[a - 1] + (n - a) * self.beta[a - 1] != 1:
                return False
        return n * self.alpha[n - 1] == 1


def named_profile(kind: str, n: int) -> SymmetricValueProfile:
    """Closed-form profile of one of the five standard solutions.

    Kinds: ``sh`` Shapley, ``ed`` equal division, ``bz`` Banzhaf, ``esd``
    equal surplus division, ``so`` solidarity.
    """
    _require(n, MAX_CLOSED_FORM_PLAYERS)
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
        # Outsider payoff per size comes from the solidarity closed form;
        # the member payoff is recovered from efficiency.
        beta_list = [solidarity_stratum_epsilon(a, n) / n for a in range(1, n)]
        alpha = tuple(
            (1 - (n - a) * beta_list[a - 1]) / a if a < n else Fraction(1, n)
            for a in range(1, n + 1)
        )
        beta = tuple(beta_list)
    else:
        raise ValueError(f"unknown value kind {kind!r}; expected one of {PROFILE_KINDS}")
    return SymmetricValueProfile(n, alpha, beta)


def egalitarian_shapley(eps, n: int) -> SymmetricValueProfile:
    """The mix (1 - eps) * Shapley + eps * equal division.

    Outsiders of a generating coalition receive exactly eps/n, for any
    rational eps (negative and above-one values included).
    """
    e = Fraction(eps)
    sh = named_profile("sh", n)
    ed = named_profile("ed", n)
    return (1 - e) * sh + e * ed


def profile_for_token(token: str, n: int) -> SymmetricValueProfile:
    """Resolve a value token: one of the named kinds, or ``f:<rational>``."""
    if token in PROFILE_KINDS:
        return named_profile(token, n)
    if token.startswith("f:"):
        _check_exponent(token[2:], "mixing parameter")
        try:
            eps = Fraction(token[2:])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad mixing parameter in token {token!r}") from exc
        return egalitarian_shapley(eps, n)
    raise ValueError(f"unknown value token {token!r}")


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
