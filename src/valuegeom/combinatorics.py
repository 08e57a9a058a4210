"""Exact combinatorial sums shared by the geometry and trend modules.

Each quantity that admits more than one closed form is evaluated through all
of them and the results are checked equal, so a regression in any one
formula fails loudly. The checks raise `ConsistencyError`, not ``assert``,
so they run under ``python -O`` too.

Every finite sum here, each solidarity form included, brings its terms to
the lcm of their denominators and adds integers; only the total becomes a
`Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, lcm
from operator import mul
from typing import Iterable

from .limits import MAX_CLOSED_FORM_PLAYERS, _require


class ConsistencyError(AssertionError):
    """Two exact evaluations of the same quantity disagreed."""


def _check(ok: bool, what: str) -> None:
    """Raise `ConsistencyError` naming the identity ``what`` unless ``ok``."""
    if not ok:
        raise ConsistencyError(what)


def _ratio_sum(nums: Iterable[int], dens: Iterable[int]) -> Fraction:
    """The sum of ``nums[k] / dens[k]``, as integers over the lcm of the denominators."""
    dens = list(dens)
    common = lcm(*dens)
    return Fraction(sum(map(mul, nums, [common // d for d in dens])), common)


@lru_cache(maxsize=None)
def harmonic_number(n: int) -> Fraction:
    """Sum of 1/j for j = 1..n."""
    _require(n, MAX_CLOSED_FORM_PLAYERS, "index", low=1)
    return _ratio_sum(repeat(1), range(1, n + 1))


@lru_cache(maxsize=None)
def binomial_harmonic_sum(n: int) -> Fraction:
    """Sum of C(n, a)/a over a = 1..n.

    Evaluated both as the direct binomial sum and as
    sum(2^j / j) - sum(1 / j); the two must agree exactly.
    """
    _require(n, MAX_CLOSED_FORM_PLAYERS, "index", low=1)
    sizes = range(1, n + 1)
    direct = _ratio_sum((comb(n, a) for a in sizes), sizes)
    powers = _ratio_sum((1 << j for j in sizes), sizes)
    _check(direct == powers - harmonic_number(n), "binomial harmonic sum: direct sum vs power form")
    return direct


@lru_cache(maxsize=None)
def axis_norm_sq(n: int) -> Fraction:
    """Squared norm of the equal-division-minus-Shapley direction.

    Equals sum over a of C(n, a) * (1/a - 1/n), and also
    binomial_harmonic_sum(n) - (2^n - 1)/n; both are computed and compared.
    """
    _require(n, MAX_CLOSED_FORM_PLAYERS)
    sizes = range(1, n + 1)
    via_sum = _ratio_sum((comb(n, a) * (n - a) for a in sizes), (a * n for a in sizes))
    via_h = binomial_harmonic_sum(n) - Fraction((1 << n) - 1, n)
    _check(via_sum == via_h, "axis norm: per-size sum vs binomial harmonic form")
    return via_sum


@lru_cache(maxsize=None)
def power_harmonic_sum(n: int) -> Fraction:
    """Sum of 2^j / j for j = 1..n-1.

    For n >= 2 the exact identity
    axis_norm_sq(n) = power_harmonic_sum(n) + 1/n - harmonic_number(n)
    is checked on every call.
    """
    _require(n, MAX_CLOSED_FORM_PLAYERS, "index", low=1)
    total = _ratio_sum((1 << j for j in range(1, n)), range(1, n))
    if n >= 2:
        _check(axis_norm_sq(n) == total + Fraction(1, n) - harmonic_number(n), "axis norm vs power harmonic sum")
    return total


@lru_cache(maxsize=None)
def solidarity_stratum_epsilon(a: int, n: int) -> Fraction:
    """Per-size mixing coefficient of the solidarity value toward equal division.

    Three equivalent finite sums are evaluated and checked equal, plus the
    clean special cases at a = 1, a = n-1, and a = n-2.
    """
    _require(n, MAX_CLOSED_FORM_PLAYERS)
    _require(a, n - 1, "size", low=1)
    upper = range(a + 1, n + 1)
    c = comb(n - 1, a)

    direct = _ratio_sum([a * comb(n - a - 1, s - a - 1) for s in upper], [s * comb(n - 1, s - 1) for s in upper])
    binom = _ratio_sum([a * comb(s - 1, a) for s in upper], [s * c for s in upper])
    # a / (a + 1), then the tail over s = a+1..n-1 scaled by a / C(n-1, a)
    tail = range(a + 1, n)
    abel = _ratio_sum([a, *(a * comb(s, a + 1) for s in tail)], [a + 1, *(c * s * (s + 1) for s in tail)])

    _check(direct == binom == abel, "solidarity mix: direct, binomial and Abel sums")
    if a == 1:
        _check(direct == 1 - Fraction(harmonic_number(n) - 1, n - 1), "solidarity mix at size 1")
    if a == n - 1:
        _check(direct == Fraction(n - 1, n), "solidarity mix at size n-1")
    if a == n - 2:
        _check(direct == Fraction((n - 2) * ((n - 1) ** 2 + n), n * (n - 1) ** 2), "solidarity mix at size n-2")
    return direct
