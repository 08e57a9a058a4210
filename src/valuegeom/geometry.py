"""Inner product on linear value maps and projection onto the Shapley-to-equal-division line.

The inner product sums, over all unanimity games, the Euclidean pairing of
the two maps' payoff vectors. On symmetric profiles this collapses to an
O(n) sum over coalition sizes, which `inner_L` runs on the profiles'
integers, so a projection builds a `Fraction` only per reported scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .combinatorics import axis_norm_sq
from .games import _require_same_n
from .values import (
    SymmetricValueProfile,
    egalitarian_shapley,
    named_profile,
)

_ONE = Fraction(1)


def inner_L(p: SymmetricValueProfile, q: SymmetricValueProfile) -> Fraction:
    """Inner product of two symmetric profiles via the per-size closed form.

    Each size a < n contributes C(n, a) * (a * alpha_a * alpha_a'
    + (n-a) * beta_a * beta_a'); size n contributes n * alpha_n * alpha_n'.
    """
    _require_same_n(p.n, q.n)
    n = p.n
    x, y = p.scaled, q.scaled
    total = n * x[n - 1] * y[n - 1]
    for a in range(1, n):
        term = a * x[a - 1] * y[a - 1] + (n - a) * x[n + a - 1] * y[n + a - 1]
        if term:
            total += comb(n, a) * term
    return Fraction(total, p.den * q.den)


def _line_fit(target: SymmetricValueProfile) -> tuple[SymmetricValueProfile, Fraction, Fraction]:
    """``target - sh``, the optimal mixing parameter, and the squared norm of the line's direction."""
    n = target.n
    sh = named_profile("sh", n)
    norm = axis_norm_sq(n)
    diff = target - sh
    return diff, inner_L(named_profile("ed", n) - sh, diff) / norm, norm


def optimal_epsilon(target: SymmetricValueProfile) -> Fraction:
    """Mixing parameter of the closest point on the Shapley-to-equal-division line."""
    return _line_fit(target)[1]


def banzhaf_optimal_epsilon(n: int) -> Fraction:
    """Closed form of the optimal mixing parameter for the Banzhaf value."""
    norm = axis_norm_sq(n)  # checks n before 3 ** (n - 1) is built
    gap = 2 - 2 * Fraction(3 ** (n - 1), 2 ** (n - 1))
    return 1 + gap / norm


def esd_optimal_epsilon(n: int) -> Fraction:
    """Closed form of the optimal mixing parameter for equal surplus division."""
    return 1 - Fraction(n - 1) / axis_norm_sq(n)


def residual_profile(target: SymmetricValueProfile) -> SymmetricValueProfile:
    """The component of the target orthogonal to the line, as a profile."""
    return target - egalitarian_shapley(optimal_epsilon(target), target.n)


@dataclass(frozen=True)
class ProjectionReport:
    """Exact summary of one projection onto the Shapley-to-equal-division line.

    ``at_shapley`` marks the degenerate case where the target coincides with
    the Shapley value, for which ``r2`` is 1 by convention.
    """

    n: int
    target: str
    eps_star: Fraction
    dist_sq: Fraction
    proj_sq: Fraction
    resid_sq: Fraction
    r2: Fraction
    at_shapley: bool


def projection_report(target: SymmetricValueProfile, name: str = "") -> ProjectionReport:
    """Project a symmetric profile onto the line and report all exact scalars.

    The residual norm is computed by evaluating the inner product on the
    residual profile, not from the decomposition identity, so
    dist_sq == proj_sq + resid_sq is a genuine cross-check for callers.
    """
    n = target.n
    diff, eps, norm = _line_fit(target)
    dist_sq = inner_L(diff, diff)
    proj_sq = eps * eps * norm
    resid = target - egalitarian_shapley(eps, n)
    resid_sq = inner_L(resid, resid)
    at_shapley = dist_sq == 0
    r2 = _ONE if at_shapley else proj_sq / dist_sq
    return ProjectionReport(
        n=n,
        target=name,
        eps_star=eps,
        dist_sq=dist_sq,
        proj_sq=proj_sq,
        resid_sq=resid_sq,
        r2=r2,
        at_shapley=at_shapley,
    )
