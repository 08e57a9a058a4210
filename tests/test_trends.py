import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import valuegeom
from valuegeom import (
    axis_norm_sq,
    banzhaf_optimal_epsilon,
    binomial_harmonic_sum,
    harmonic_number,
    inner_L,
    named_profile,
    power_harmonic_sum,
    projection_report,
    solidarity_oracle,
    solidarity_stratum_epsilon,
    trend_csv,
    trend_table,
    unanimity,
)


def test_binomial_harmonic_values():
    assert binomial_harmonic_sum(1) == F(1)
    assert binomial_harmonic_sum(2) == F(5, 2)
    assert binomial_harmonic_sum(3) == F(29, 6)


def test_binomial_harmonic_dual_formula_up_to_30():
    # the function asserts the power-sum form internally on every call
    for n in range(1, 31):
        binomial_harmonic_sum(n)
        axis_norm_sq(max(n, 2))


def test_power_harmonic_values():
    assert power_harmonic_sum(2) == F(2)
    assert power_harmonic_sum(4) == F(20, 3)


def test_power_harmonic_identity_up_to_30():
    for n in range(2, 31):
        assert axis_norm_sq(n) == power_harmonic_sum(n) + F(1, n) - harmonic_number(n)


def test_solidarity_epsilon_n4_values():
    assert solidarity_stratum_epsilon(1, 4) == F(23, 36)
    assert solidarity_stratum_epsilon(2, 4) == F(13, 18)
    assert solidarity_stratum_epsilon(3, 4) == F(3, 4)


@pytest.mark.parametrize("n", range(3, 13))
def test_solidarity_epsilon_top_size(n):
    assert solidarity_stratum_epsilon(n - 1, n) == F(n - 1, n)


def test_solidarity_epsilon_three_forms_agree_up_to_15():
    # all three sum forms are asserted equal inside the function
    for n in range(2, 16):
        for a in range(1, n):
            solidarity_stratum_epsilon(a, n)


def test_solidarity_epsilon_special_cases():
    for n in range(3, 13):
        assert solidarity_stratum_epsilon(1, n) == 1 - F(harmonic_number(n) - 1, n - 1)
        if n >= 4:
            assert solidarity_stratum_epsilon(n - 2, n) == F(
                (n - 2) * ((n - 1) ** 2 + n), n * (n - 1) ** 2
            )


def test_solidarity_epsilon_rejects_bad_size():
    with pytest.raises(ValueError):
        solidarity_stratum_epsilon(0, 4)
    with pytest.raises(ValueError):
        solidarity_stratum_epsilon(4, 4)


def test_solidarity_epsilon_matches_definition_oracle_n8():
    n = 8
    for a in range(1, n):
        bits = (1 << a) - 1
        payoff = solidarity_oracle(unanimity(n, bits))
        outsider = payoff[n - 1]
        assert solidarity_stratum_epsilon(a, n) == n * outsider


@pytest.mark.parametrize("a", [1, 2, 3])
def test_solidarity_epsilon_increases_to_one(a):
    values = [solidarity_stratum_epsilon(a, n) for n in range(a + 1, 26)]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert all(x < 1 for x in values)


def test_solidarity_epsilon_singleton_gap_bound():
    for n in range(4, 26):
        gap = float(1 - solidarity_stratum_epsilon(1, n))
        assert gap <= 2 * math.log(n) / n


def test_trend_rows_esd_identity():
    rows = trend_table(["esd"], 3, 20)
    for row in rows:
        assert 1 - row.r2 == F(row.n - 1) / axis_norm_sq(row.n)


def test_trend_banzhaf_fit_near_half():
    for n in (20, 30):
        (row,) = trend_table(["bz"], n, n)
        assert abs(float(row.r2) - 0.5) < 0.05


def test_trend_solidarity_residual_magnitudes():
    for n, magnitude in ((4, 4e-3), (12, 4e-4), (20, 9e-6)):
        (row,) = trend_table(["so"], n, n)
        assert magnitude / 2 <= row.one_minus_r2 <= magnitude * 2


def test_fits_close_to_one_by_n15():
    for kind in ("esd", "so"):
        r2 = projection_report(named_profile(kind, 15), kind).r2
        assert 1 - r2 < F(1, 100)


@pytest.mark.parametrize("n", range(2, 21))
def test_banzhaf_norm_three_term_identity(n):
    d = named_profile("bz", n) - named_profile("sh", n)
    t1 = n * F(5 ** (n - 1), 4 ** (n - 1))
    t2 = 2 * (F(3 ** n, 2 ** n) - 1)
    t3 = binomial_harmonic_sum(n)
    assert inner_L(d, d) == t1 - 2 * t2 + t3


@pytest.mark.parametrize("n", range(2, 21))
def test_banzhaf_epsilon_gap_identity(n):
    gap = (2 * F(3 ** (n - 1), 2 ** (n - 1)) - 2) / axis_norm_sq(n)
    assert 1 - banzhaf_optimal_epsilon(n) == gap


def test_trend_row_floats_match_rationals_to_twelve_digits():
    rows = trend_table(["bz", "esd", "so"], 2, 12)
    for row in rows:
        for frac, approx in ((row.eps_star, row.eps_star_approx), (row.r2, row.r2_approx)):
            exact = Decimal(frac.numerator) / Decimal(frac.denominator)
            assert f"{float(exact):.12g}" == f"{approx:.12g}"


def test_trend_csv_shape():
    rows = trend_table(["esd"], 4, 4)
    text = trend_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,target,eps_star,r2,one_minus_r2"
    assert lines[1].startswith("4,esd,11/29,11/29,")


def test_trend_table_rejects_bad_range():
    with pytest.raises(ValueError):
        trend_table(["bz"], 5, 4)
    with pytest.raises(ValueError):
        trend_table(["bz"], 2, 31)


def test_cross_checks_raise_under_optimized_interpreter():
    code = (
        "from fractions import Fraction\n"
        "import valuegeom.combinatorics as c\n"
        "assert False, 'asserts are stripped under -O'\n"
        "c.harmonic_number = lambda n: Fraction(1, 3)\n"
        "try:\n"
        "    c.binomial_harmonic_sum(5)\n"
        "except c.ConsistencyError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(valuegeom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: binomial harmonic sum")
