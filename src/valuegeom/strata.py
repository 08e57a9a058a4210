"""Per-size decomposition of symmetric value maps.

At each coalition size a < n, the deviation of a symmetric map from the
Shapley value splits uniquely into a multiple of the equal-division
direction (coefficient ``eps``) and a multiple of the all-ones direction
(coefficient ``delta``, the efficiency defect, zero exactly when the map
distributes the full worth at that size). Under explicit per-size weights,
the optimal global mixing parameter is the weighted mean of the per-size
coefficients and the goodness of fit is one minus their relative weighted
variance.

The coefficients are read off the profile's integers, one `Fraction` each;
the weights, moments and per-size breakdown each sum integers over one
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from typing import NamedTuple, Sequence

from .combinatorics import _check, _ratio_sum, axis_norm_sq
from .games import _require_same_n
from .geometry import inner_L
from .limits import MAX_CLOSED_FORM_PLAYERS, _require
from .values import SymmetricValueProfile, named_profile

_ONE = Fraction(1)


def _fraction_sum(values: Sequence[Fraction]) -> Fraction:
    """The sum of reduced fractions, as integers over the lcm of their denominators."""
    return _ratio_sum([x.numerator for x in values], [x.denominator for x in values])


@dataclass(frozen=True)
class StratifiedCoordinates:
    """Per-size deviation coefficients of a symmetric map from the Shapley value.

    ``eps[a-1]`` and ``delta[a-1]`` cover sizes a = 1..n-1. At size n every
    efficient map agrees with Shapley, so that coordinate is degenerate; by
    convention it counts as 1 (see ``eps_top_convention``) and any actual
    size-n deviation of a non-efficient map is tracked separately in
    ``top_dev_sq``.
    """

    n: int
    eps: tuple[Fraction, ...]
    delta: tuple[Fraction, ...]
    top_dev_sq: Fraction

    def __post_init__(self) -> None:
        _require(self.n, MAX_CLOSED_FORM_PLAYERS)
        if len(self.eps) != self.n - 1 or len(self.delta) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} coefficients per sequence")

    @property
    def eps_top_convention(self) -> Fraction:
        """The degenerate size-n coefficient; metadata, never used in sums."""
        return _ONE

    def is_efficient(self) -> bool:
        return all(d == 0 for d in self.delta) and self.top_dev_sq == 0


@dataclass(frozen=True)
class StratumWeights:
    """The probability distribution over coalition sizes 1..n-1 used in the moments."""

    n: int
    w: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.w) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} weights, got {len(self.w)}")


class Moments(NamedTuple):
    mean: Fraction
    second_moment: Fraction
    variance: Fraction


@dataclass(frozen=True)
class PythagorasBreakdown:
    """Squared distance from Shapley, split by size and by direction within size."""

    n: int
    eff_terms: tuple[Fraction, ...]
    unif_terms: tuple[Fraction, ...]
    top_term: Fraction
    total: Fraction


def stratified_coords(target: SymmetricValueProfile) -> StratifiedCoordinates:
    """Split the deviation from Shapley into per-size coefficients.

    At each size a < n: delta_a = (a * alpha_a + (n-a) * beta_a - 1) / n is
    the coefficient along the all-ones direction, and
    eps_a = n * (beta_a - delta_a) = 1 - a * (alpha_a - beta_a) is the
    coefficient along the equal-division direction once the uniform part is
    removed. For an efficient target this reduces to eps_a = n * beta_a.
    """
    n, x, den = target.n, target.scaled, target.den
    eps = tuple(Fraction(den - a * (x[a - 1] - x[n + a - 1]), den) for a in range(1, n))
    delta = tuple(Fraction(a * x[a - 1] + (n - a) * x[n + a - 1] - den, n * den) for a in range(1, n))
    top = Fraction((n * x[n - 1] - den) ** 2, n * den * den)
    return StratifiedCoordinates(n, eps, delta, top)


def reconstruct(eps: Sequence[Fraction], n: int) -> SymmetricValueProfile:
    """The efficient symmetric profile with the given per-size coefficients.

    Size a mixes member payoff (1 - eps_a)/a + eps_a/n with outsider payoff
    eps_a/n; the top size is forced to 1/n. Inverts `stratified_coords` on
    efficient targets.
    """
    if len(eps) != n - 1:
        raise ValueError(f"expected {n - 1} coefficients, got {len(eps)}")
    eps = [Fraction(e) for e in eps]
    alpha = [(1 - e) / a + e / n for a, e in enumerate(eps, start=1)]
    return SymmetricValueProfile(n, [*alpha, Fraction(1, n)], [e / n for e in eps])


def weights(n: int) -> StratumWeights:
    """Per-size weights C(n, a) * (1/a - 1/n) normalized by the axis norm.

    The weights are positive and sum to 1 exactly, so they define a
    probability distribution on sizes 1..n-1.
    """
    dn = axis_norm_sq(n)
    w = tuple(Fraction(comb(n, a) * (n - a) * dn.denominator, a * n * dn.numerator) for a in range(1, n))
    _check(_fraction_sum(w) == 1, "size weights sum to one")
    return StratumWeights(n, w)


def weighted_moments(coords: StratifiedCoordinates, w: StratumWeights) -> Moments:
    """Weighted mean, second moment, and variance of the per-size coefficients."""
    _require_same_n(coords.n, w.n)
    wn, wd = [x.numerator for x in w.w], [x.denominator for x in w.w]
    en, ed = [x.numerator for x in coords.eps], [x.denominator for x in coords.eps]
    mean = _ratio_sum(map(mul, wn, en), map(mul, wd, ed))
    second = _ratio_sum(map(mul, wn, map(mul, en, en)), map(mul, wd, map(mul, ed, ed)))
    return Moments(mean, second, second - mean * mean)


def r2_from_moments(coords: StratifiedCoordinates, w: StratumWeights) -> Fraction:
    """Goodness of fit as mean squared over second moment, for efficient targets.

    A vanishing second moment means the target is the Shapley value itself;
    the conventional value 1 is returned in that case.
    """
    if any(d != 0 for d in coords.delta):
        raise ValueError("moment form of the fit requires an efficient target (all defects zero)")
    mean, second, _ = weighted_moments(coords, w)
    if second == 0:
        return _ONE
    return mean * mean / second


def generalized_pythagoras(
    target: SymmetricValueProfile,
) -> PythagorasBreakdown:
    """Exact split of the squared distance from Shapley by size and direction.

    Size a < n contributes C(n, a) * (1/a - 1/n) * eps_a^2 along the
    equal-division direction and C(n, a) * n * delta_a^2 along the all-ones
    direction; the top size contributes n * (alpha_n - 1/n)^2. The total is
    checked against an independent inner-product evaluation.
    """
    n = target.n
    coords = stratified_coords(target)
    eff_terms = tuple(
        Fraction(comb(n, a) * (n - a) * e.numerator ** 2, a * n * e.denominator ** 2)
        for a, e in enumerate(coords.eps, start=1)
    )
    unif_terms = tuple(
        Fraction(comb(n, a) * n * d.numerator ** 2, d.denominator ** 2) for a, d in enumerate(coords.delta, start=1)
    )
    total = _fraction_sum((*eff_terms, *unif_terms, coords.top_dev_sq))
    diff = target - named_profile("sh", n)
    _check(total == inner_L(diff, diff), "per-size breakdown total vs inner product")
    return PythagorasBreakdown(n, eff_terms, unif_terms, coords.top_dev_sq, total)
