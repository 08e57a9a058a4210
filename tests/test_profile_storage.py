"""Symmetric profiles stored as integers over one denominator, and the closed-form sums that read them."""

import importlib
import random
from fractions import Fraction as F
from math import gcd

import pytest

from valuegeom import (
    SymmetricValueProfile,
    axis_norm_sq,
    binomial_harmonic_sum,
    egalitarian_shapley,
    gram_fit,
    generalized_pythagoras,
    harmonic_number,
    inner_L,
    named_profile,
    power_harmonic_sum,
    profile_for_token,
    projection_report,
    solidarity_stratum_epsilon,
    stratified_coords,
    trend_table,
    weights,
)
from valuegeom.limits import MAX_CLOSED_FORM_PLAYERS
from util import (
    ProfileReference,
    axis_norm_sq_reference,
    binomial_harmonic_sum_reference,
    harmonic_number_reference,
    inner_L_reference,
    power_harmonic_sum_reference,
    profile_for_token_reference,
    projection_report_reference,
    random_profile,
    solidarity_stratum_epsilon_reference,
    stratified_coords_reference,
    weights_reference,
)

TOKENS = ("sh", "ed", "bz", "esd", "so", "f:-3/5", "f:7/3", "f:1e4300")
CHECKED_MODULES = ("combinatorics", "strata", "fitting", "trends")


def _pairs(values):
    return tuple((x.numerator, x.denominator) for x in values)


def _assert_normalized(p: SymmetricValueProfile) -> None:
    assert len(p.scaled) == 2 * p.n - 1 and all(type(x) is int for x in p.scaled)
    assert type(p.den) is int and p.den > 0 and gcd(p.den, *p.scaled) == 1


def _clear_caches() -> None:
    for name in CHECKED_MODULES:
        for obj in vars(importlib.import_module(f"valuegeom.{name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_closed_form_matches_the_fraction_reference_at_every_n():
    for n in range(2, MAX_CLOSED_FORM_PLAYERS + 1):
        profiles = [profile_for_token(t, n) for t in TOKENS]
        references = [profile_for_token_reference(t, n) for t in TOKENS]
        for token, p, ref in zip(TOKENS, profiles, references):
            _assert_normalized(p)
            assert _pairs(p.alpha) == _pairs(ref.alpha) and _pairs(p.beta) == _pairs(ref.beta), (token, n)
            report = projection_report(p, token)
            got = (report.eps_star, report.dist_sq, report.proj_sq, report.resid_sq, report.r2)
            expected = projection_report_reference(ref)
            assert _pairs(got) == _pairs(expected[:5]) and report.at_shapley == expected[5], (token, n)
            coords = stratified_coords(p)
            eps, delta, top = stratified_coords_reference(ref)
            assert _pairs(coords.eps) == _pairs(eps) and _pairs(coords.delta) == _pairs(delta), (token, n)
            assert _pairs((coords.top_dev_sq,)) == _pairs((top,)), (token, n)
        for i, (p, ref) in enumerate(zip(profiles, references)):
            for q, qref in zip(profiles[i:], references[i:]):
                assert _pairs((inner_L(p, q),)) == _pairs((inner_L_reference(ref, qref),)), n
        assert _pairs(weights(n).w) == _pairs(weights_reference(n)), n


def test_sums_match_the_fraction_reference_at_every_valid_index():
    for n in range(1, MAX_CLOSED_FORM_PLAYERS + 1):
        assert _pairs((harmonic_number(n),)) == _pairs((harmonic_number_reference(n),))
        assert _pairs((binomial_harmonic_sum(n),)) == _pairs((binomial_harmonic_sum_reference(n),))
        assert _pairs((power_harmonic_sum(n),)) == _pairs((power_harmonic_sum_reference(n),))
        if n >= 2:
            assert _pairs((axis_norm_sq(n),)) == _pairs((axis_norm_sq_reference(n),))
            got = tuple(solidarity_stratum_epsilon(a, n) for a in range(1, n))
            expected = tuple(solidarity_stratum_epsilon_reference(a, n) for a in range(1, n))
            assert _pairs(got) == _pairs(expected), n


def test_storage_is_normalized_and_alpha_beta_round_trip():
    rng = random.Random(91)
    for n in (2, 3, 5, 9):
        for p in (random_profile(rng, n), named_profile("so", n), egalitarian_shapley(F(-10**12, 7), n)):
            _assert_normalized(p)
            assert SymmetricValueProfile(p.n, p.alpha, p.beta) == p
            assert all(p.alpha_at(a) == p.alpha[a - 1] for a in range(1, n + 1))
            assert all(p.beta_at(a) == p.beta[a - 1] for a in range(1, n))
    p = SymmetricValueProfile(3, (F(1, 2), 3, F(-5, 6)), (0, F(7, 4)))
    assert p.alpha == (F(1, 2), F(3), F(-5, 6)) and p.beta == (F(0), F(7, 4))
    assert p.scaled == (6, 36, -10, 0, 21) and p.den == 12
    assert SymmetricValueProfile(2, (0, 0), (0,)).den == 1
    with pytest.raises(ValueError, match="expected 3 alpha entries"):
        SymmetricValueProfile(3, (F(1),), (F(0), F(0)))
    with pytest.raises(ValueError, match="expected 2 beta entries"):
        SymmetricValueProfile(3, (F(1),) * 3, (F(0),))


def test_equality_and_hash_ignore_the_scale_entries_are_written_at():
    half = F(1, 2)
    ed = named_profile("ed", 2)
    same = (
        SymmetricValueProfile(2, (F(2, 4), half), (F(3, 6),)),
        SymmetricValueProfile(2, (half, half), (half,)),
        egalitarian_shapley(1, 2),
        egalitarian_shapley(F(4, 4), 2),
        (ed + ed) - ed,
        F(1, 2) * (2 * ed),
        -(-ed),
        named_profile("sh", 2) + (ed - named_profile("sh", 2)),
    )
    for p in same:
        assert p == ed and hash(p) == hash(ed)
        _assert_normalized(p)
    for n in (2, 5, 30):
        assert egalitarian_shapley(0, n) == named_profile("sh", n)
        assert hash(egalitarian_shapley(0, n)) == hash(named_profile("sh", n))
        assert egalitarian_shapley(1, n) == named_profile("ed", n)
        for kind in ("sh", "ed", "bz", "esd", "so"):
            p = named_profile(kind, n)
            for other in (F(1, 3) * (3 * p), (p + p) - p, F(10**12, 7) * (F(7, 10**12) * p)):
                assert other == p and hash(other) == hash(p)
                _assert_normalized(other)
            _assert_normalized(p - p)
            assert (p - p).den == 1
    assert SymmetricValueProfile(2, (half, 1), (0,)) != SymmetricValueProfile(2, (F(1, 3), 1), (0,))


def test_vector_ops_agree_with_pointwise_fraction_arithmetic():
    rng = random.Random(92)
    for n in (2, 4, 7):
        p, q = random_profile(rng, n), egalitarian_shapley(F(rng.randint(-9, 9), rng.randint(1, 9)), n)
        pr, qr = ProfileReference(n, p.alpha, p.beta), ProfileReference(n, q.alpha, q.beta)
        for got, expected in ((p + q, pr + qr), (p - q, pr - qr), (-p, -1 * pr)):
            assert (got.alpha, got.beta) == (expected.alpha, expected.beta)
        for s in (F(-3, 7), 0, 5, F(10**12, 11)):
            got, expected = s * p, s * pr
            assert (got.alpha, got.beta) == (expected.alpha, expected.beta)
    with pytest.raises(ValueError, match="player counts differ"):
        named_profile("sh", 2) + named_profile("sh", 3)


def test_closed_form_kernels_never_build_the_fraction_views():
    for token in ("so", "bz", "f:2/7"):
        p, q = profile_for_token(token, 12), named_profile("esd", 12)
        inner_L(p, q)
        projection_report(p, token)
        assert not {"alpha", "beta"} & vars(p).keys() and not {"alpha", "beta"} & vars(q).keys()


def _count_checks(monkeypatch, run) -> int:
    combinatorics = importlib.import_module("valuegeom.combinatorics")
    real = combinatorics._check
    calls = []

    def counting(ok, what):
        calls.append(what)
        real(ok, what)

    for name in CHECKED_MODULES:
        monkeypatch.setattr(importlib.import_module(f"valuegeom.{name}"), "_check", counting)
    _clear_caches()
    run()
    return len(calls)


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: trend_table(["bz", "esd", "so"], 2, 30), 607),
        (lambda: projection_report(named_profile("so", 64)), 68),
        (lambda: gram_fit(named_profile("so", 30), [named_profile(k, 30) for k in ("ed", "bz", "esd")]), 35),
        (lambda: (generalized_pythagoras(named_profile("so", 30)), weights(30)), 36),
    ]
    + [(lambda kind=kind: projection_report(named_profile(kind, 64)), 2) for kind in ("sh", "ed", "bz", "esd")],
    ids=["trend-table", "project-so-64", "fit-so-30", "pythagoras-weights-so-30",
         "project-sh-64", "project-ed-64", "project-bz-64", "project-esd-64"],
)
def test_every_cross_check_still_runs(monkeypatch, run, expected):
    assert _count_checks(monkeypatch, run) == expected
