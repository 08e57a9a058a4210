"""Exact trend rows for the optimal mixing parameter and goodness of fit over n.

Every scalar is computed as an exact rational first; the float renderings
are correctly rounded conversions produced only at this reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import _check, axis_norm_sq
from .geometry import projection_report
from .limits import MAX_TREND_PLAYERS, _require
from .values import profile_for_token


@dataclass(frozen=True)
class TrendRow:
    """One (player count, target) cell of the trend table."""

    n: int
    target: str
    eps_star: Fraction
    r2: Fraction
    eps_star_approx: float
    r2_approx: float
    one_minus_r2: float


def trend_table(targets: Sequence[str], n_min: int, n_max: int) -> list[TrendRow]:
    """Exact projection summaries for each target at each n in [n_min, n_max].

    For the equal-surplus-division target, the exact identity
    1 - r2 = (n - 1) / axis_norm_sq(n) is checked on every row with n >= 3
    (at n = 2 that target coincides with the Shapley value and r2 is 1 by
    convention).
    """
    _require(n_min, MAX_TREND_PLAYERS, "smallest player count")
    _require(n_max, MAX_TREND_PLAYERS, "largest player count", low=n_min)
    rows: list[TrendRow] = []
    for n in range(n_min, n_max + 1):
        for token in targets:
            report = projection_report(profile_for_token(token, n), token)
            if token == "esd" and n >= 3:
                _check(1 - report.r2 == Fraction(n - 1) / axis_norm_sq(n), "equal-surplus residual share")
            rows.append(
                TrendRow(
                    n=n,
                    target=token,
                    eps_star=report.eps_star,
                    r2=report.r2,
                    eps_star_approx=float(report.eps_star),
                    r2_approx=float(report.r2),
                    one_minus_r2=float(1 - report.r2),
                )
            )
    return rows


def trend_csv(rows: Sequence[TrendRow]) -> str:
    """Render rows as CSV with exact p/q strings and a decimal residual column."""
    lines = ["n,target,eps_star,r2,one_minus_r2"]
    for row in rows:
        eps = f"{row.eps_star.numerator}/{row.eps_star.denominator}"
        r2 = f"{row.r2.numerator}/{row.r2.denominator}"
        lines.append(f"{row.n},{row.target},{eps},{r2},{row.one_minus_r2!r}")
    return "\n".join(lines) + "\n"
