"""Projection onto multi-direction flats through the Shapley value.

Directions are supplied as anchor profiles (equal division, Banzhaf, and so
on); each direction is the anchor minus Shapley. The normal equations are
solved exactly by fraction-free elimination on denominator-cleared integer
rows, so the coefficients, the projection norm, and the goodness of fit all
come out as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .combinatorics import _check
from .games import _require_same_n
from .geometry import inner_L
from .values import SymmetricValueProfile, named_profile

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DependentDirections(ValueError):
    """The supplied directions are linearly dependent; names the offending subset."""

    def __init__(self, names: tuple[str, ...]):
        super().__init__(f"directions are linearly dependent: {', '.join(names)}")
        self.names = names


def solve_normal_equations(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction] | None]:
    """Solve A x = b exactly; returns (det A, x), with x = None when singular.

    Rows are cleared to integers, then eliminated fraction-free (each 2x2
    cross-multiplication is divided by the previous pivot, which is exact),
    pivoting on the largest-magnitude column entry. Back substitution runs
    over rationals on the triangularized rows.
    """
    k = len(matrix)
    rows: list[list[int]] = []
    scale = 1
    for i in range(k):
        aug = [Fraction(x) for x in matrix[i]] + [Fraction(rhs[i])]
        mult = lcm(*(x.denominator for x in aug))
        rows.append([int(x * mult) for x in aug])
        scale *= mult
    sign = 1
    prev = 1
    for col in range(k):
        pivot_row = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            return _ZERO, None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        for r in range(col + 1, k):
            factor = rows[r][col]
            row = rows[r]
            ref = rows[col]
            for c in range(col, k + 1):
                row[c] = (row[c] * pivot - factor * ref[c]) // prev
        prev = pivot
    det = Fraction(sign * rows[k - 1][k - 1], scale)
    coeffs = [_ZERO] * k
    for i in range(k - 1, -1, -1):
        acc = Fraction(rows[i][k])
        for j in range(i + 1, k):
            acc -= rows[i][j] * coeffs[j]
        coeffs[i] = acc / rows[i][i]
    return det, coeffs


def _nullspace_vector(matrix: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """A nonzero exact solution of M x = 0 for a singular square matrix."""
    k = len(matrix)
    rows = [[Fraction(x) for x in r] for r in matrix]
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(k):
        pr = next((r for r in range(rank, k) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(k):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivot_of_col[col] = rank
        rank += 1
    free = next(c for c in range(k) if c not in pivot_of_col)
    vec = [_ZERO] * k
    vec[free] = _ONE
    for col, pr in pivot_of_col.items():
        vec[col] = -rows[pr][free]
    return vec


@dataclass(frozen=True)
class GramFit:
    """Exact result of projecting a target onto a multi-direction flat.

    ``directions`` holds the anchor-minus-Shapley profiles in the order of
    ``names``; ``gram @ coeffs == rhs`` holds exactly by construction.
    """

    n: int
    names: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    gram_det: Fraction
    rhs: tuple[Fraction, ...]
    coeffs: tuple[Fraction, ...]
    proj_sq: Fraction
    dist_sq: Fraction
    r2_u: Fraction
    directions: tuple[SymmetricValueProfile, ...]

    @property
    def shapley_coefficient(self) -> Fraction:
        """Weight left on the Shapley anchor when the fit is read as a mixture."""
        return 1 - sum(self.coeffs, _ZERO)


def gram_fit(
    target: SymmetricValueProfile,
    anchors: Sequence[SymmetricValueProfile],
    names: Sequence[str] | None = None,
) -> GramFit:
    """Best approximation of the target within Shapley plus the span of the directions.

    ``anchors`` are full profiles; the Shapley profile is subtracted
    internally to form each direction. Linear dependence is detected by an
    exact zero determinant and reported with the names of an offending
    subset (the support of a nullspace vector of the Gram matrix).
    """
    n = target.n
    anchors = tuple(anchors)
    if not anchors:
        raise ValueError("at least one direction anchor is required")
    _require_same_n(n, *(p.n for p in anchors))
    if names is None:
        names = tuple(f"dir{k}" for k in range(len(anchors)))
    names = tuple(names)
    if len(names) != len(anchors):
        raise ValueError("one name per direction is required")
    sh = named_profile("sh", n)
    directions = tuple(p - sh for p in anchors)
    k = len(directions)
    gram = [[inner_L(directions[i], directions[j]) for j in range(k)] for i in range(k)]
    diff = target - sh
    rhs = [inner_L(d, diff) for d in directions]
    det, coeffs = solve_normal_equations(gram, rhs)
    if det == 0 or coeffs is None:
        null = _nullspace_vector(gram)
        offending = tuple(nm for nm, x in zip(names, null) if x != 0)
        raise DependentDirections(offending)
    for i in range(k):
        _check(sum((gram[i][j] * coeffs[j] for j in range(k)), _ZERO) == rhs[i], "normal equations at the solution")
    proj_sq = sum((c * r for c, r in zip(coeffs, rhs)), _ZERO)
    dist_sq = inner_L(diff, diff)
    r2_u = _ONE if dist_sq == 0 else proj_sq / dist_sq
    return GramFit(
        n=n,
        names=names,
        gram=tuple(tuple(row) for row in gram),
        gram_det=det,
        rhs=tuple(rhs),
        coeffs=tuple(coeffs),
        proj_sq=proj_sq,
        dist_sq=dist_sq,
        r2_u=r2_u,
        directions=directions,
    )


def mixture_profile(fit: GramFit) -> SymmetricValueProfile:
    """The projected map itself: Shapley plus the fitted combination of directions."""
    prof = named_profile("sh", fit.n)
    for c, d in zip(fit.coeffs, fit.directions):
        prof = prof + c * d
    return prof
