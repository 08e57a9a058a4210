"""Exact-equality check suite behind the CLI verify command.

Every check recomputes a published closed-form quantity from scratch and
compares exactly (rational equality, zero tolerance) unless the check is
explicitly about a decimal magnitude, in which case the tolerance is stated
in its label and compared as an exact `Fraction` too. Floats appear only
in the text of a failure's detail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .combinatorics import (
    axis_norm_sq,
    binomial_harmonic_sum,
    harmonic_number,
    power_harmonic_sum,
    solidarity_stratum_epsilon,
)
from .fitting import gram_fit, mixture_profile
from .games import (
    Game,
    dividends,
    from_dividends,
    harsanyi_inner,
    random_h_orthonormal_basis,
    unanimity,
)
from .geometry import (
    banzhaf_optimal_epsilon,
    esd_optimal_epsilon,
    optimal_epsilon,
    projection_report,
)
from .reference import (
    banzhaf_oracle,
    inner_L_general,
    inner_L_in_basis,
    shapley_oracle,
    solidarity_oracle,
)
from .strata import (
    generalized_pythagoras,
    r2_from_moments,
    reconstruct,
    stratified_coords,
    weighted_moments,
    weights,
)
from .values import (
    GeneralLinearValueMap,
    egalitarian_shapley,
    evaluate,
    named_profile,
    profile_from_general,
)

F = Fraction


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str = ""


def _eq(label: str, got, expected) -> CheckResult:
    ok = got == expected
    detail = "" if ok else f"got {got}, expected {expected}"
    return CheckResult(label, ok, detail)


def _glove_game() -> Game:
    worth = lambda m: F(1) if (m & 1) and (m & 0b110) else F(0)
    return Game.from_function(3, worth)


def run_all_checks() -> list[CheckResult]:
    """Run the whole suite; deterministic, a few seconds of exact arithmetic."""
    out: list[CheckResult] = []
    add = out.append

    for n, expected in ((2, F(1)), (3, F(5, 2)), (4, F(29, 6)), (5, F(103, 12))):
        add(_eq(f"axis norm squared at n={n} is {expected}", axis_norm_sq(n), expected))

    add(_eq("binomial harmonic sum at n=1 is 1", binomial_harmonic_sum(1), F(1)))
    add(_eq("binomial harmonic sum at n=2 is 5/2", binomial_harmonic_sum(2), F(5, 2)))
    add(_eq("binomial harmonic sum at n=3 is 29/6", binomial_harmonic_sum(3), F(29, 6)))
    add(_eq("power harmonic sum at n=4 is 20/3", power_harmonic_sum(4), F(20, 3)))

    bz_expected = {2: F(0), 3: F(0), 4: F(1, 58), 5: F(11, 206)}
    for n, expected in bz_expected.items():
        got = optimal_epsilon(named_profile("bz", n))
        add(_eq(f"optimal mix for Banzhaf at n={n} is {expected}", got, expected))
        add(_eq(f"Banzhaf closed form agrees at n={n}", banzhaf_optimal_epsilon(n), got))

    esd_expected = {2: F(0), 3: F(1, 5), 4: F(11, 29), 5: F(55, 103)}
    for n, expected in esd_expected.items():
        got = optimal_epsilon(named_profile("esd", n))
        add(_eq(f"optimal mix for equal surplus division at n={n} is {expected}", got, expected))
        add(_eq(f"equal-surplus closed form agrees at n={n}", esd_optimal_epsilon(n), got))

    rep = projection_report(named_profile("bz", 4), "bz")
    add(_eq("Banzhaf n=4 squared distance is 7/48", rep.dist_sq, F(7, 48)))
    add(_eq("Banzhaf n=4 projection norm is 1/696", rep.proj_sq, F(1, 696)))
    add(_eq("Banzhaf n=4 residual norm is 67/464", rep.resid_sq, F(67, 464)))
    add(_eq("Banzhaf n=4 fit is 2/203", rep.r2, F(2, 203)))

    rep = projection_report(named_profile("esd", 4), "esd")
    add(_eq("equal surplus n=4 squared distance is 11/6", rep.dist_sq, F(11, 6)))
    add(_eq("equal surplus n=4 projection norm is 121/174", rep.proj_sq, F(121, 174)))
    add(_eq("equal surplus n=4 residual norm is 33/29", rep.resid_sq, F(33, 29)))
    add(_eq("equal surplus n=4 fit is 11/29", rep.r2, F(11, 29)))

    rep = projection_report(named_profile("so", 4), "so")
    add(_eq("solidarity n=4 optimal mix is 39/58", rep.eps_star, F(39, 58)))
    add(_eq("solidarity n=4 squared distance is 79/36", rep.dist_sq, F(79, 36)))
    add(_eq("solidarity n=4 projection norm is 507/232", rep.proj_sq, F(507, 232)))
    add(_eq("solidarity n=4 residual norm is 19/2088", rep.resid_sq, F(19, 2088)))
    add(_eq("solidarity n=4 fit is 4563/4582", rep.r2, F(4563, 4582)))

    coords = stratified_coords(named_profile("so", 4))
    add(_eq("solidarity n=4 per-size mix is (23/36, 13/18, 3/4)", coords.eps, (F(23, 36), F(13, 18), F(3, 4))))
    moments = weighted_moments(coords, weights(4))
    add(_eq("solidarity n=4 weighted mean is 39/58", moments.mean, F(39, 58)))
    add(_eq("solidarity n=4 weighted variance is 19/10092", moments.variance, F(19, 10092)))
    add(_eq("solidarity n=4 moment fit matches 4563/4582", r2_from_moments(coords, weights(4)), F(4563, 4582)))

    add(_eq("size weights at n=4 are (18/29, 9/29, 2/29)", weights(4).w, (F(18, 29), F(9, 29), F(2, 29))))
    add(_eq("size weights sum to one at n=7", sum(weights(7).w), F(1)))

    esd_coords = stratified_coords(named_profile("esd", 4))
    add(_eq("equal surplus n=4 per-size mix is (0, 1, 1)", esd_coords.eps, (F(0), F(1), F(1))))
    add(_eq("equal surplus n=4 has no efficiency defect", esd_coords.delta, (F(0),) * 3))

    ok = True
    for n in (4, 8, 12, 16, 20):
        c = stratified_coords(named_profile("bz", n))
        for a in range(1, n):
            if c.eps[a - 1] != 1 - F(a, 1 << (a - 1)) or c.delta[a - 1] != -c.eps[a - 1] / n:
                ok = False
    add(CheckResult("Banzhaf per-size mix 1 - a/2^(a-1) with defect locked at -mix/n, n up to 20", ok))

    fit = gram_fit(named_profile("esd", 4), [named_profile("ed", 4), named_profile("bz", 4)], ["ed", "bz"])
    add(_eq("two-direction Gram determinant is 67/96", fit.gram_det, F(67, 96)))
    add(_eq("two-direction coefficients are (25/67, 24/67)", fit.coeffs, (F(25, 67), F(24, 67))))
    add(_eq("two-direction projection norm is 287/402", fit.proj_sq, F(287, 402)))
    add(_eq("two-direction fit is 287/737", fit.r2_u, F(287, 737)))
    add(_eq("two-direction mixture keeps 18/67 on Shapley", fit.shapley_coefficient, F(18, 67)))
    mix = mixture_profile(fit)
    explicit = (
        F(18, 67) * named_profile("sh", 4)
        + F(25, 67) * named_profile("ed", 4)
        + F(24, 67) * named_profile("bz", 4)
    )
    add(_eq("two-direction mixture profile matches its explicit blend", mix, explicit))

    ok = all(
        1 - projection_report(named_profile("esd", n), "esd").r2 == F(n - 1) / axis_norm_sq(n)
        for n in range(3, 13)
    )
    add(CheckResult("equal-surplus residual share equals (n-1)/axis norm for n in 3..12", ok))

    for n in (20, 30):
        r2 = projection_report(named_profile("bz", n), "bz").r2
        ok = abs(r2 - F(1, 2)) <= F("0.05")
        add(CheckResult(f"Banzhaf fit at n={n} is within 0.05 of 1/2", ok, "" if ok else f"got {float(r2)}"))

    for n, magnitude in ((4, "0.004"), (12, "0.0004"), (20, "9e-06")):
        miss = 1 - projection_report(named_profile("so", n), "so").r2
        ok = F(magnitude) / 2 <= miss <= F(magnitude) * 2
        add(CheckResult(
            f"solidarity residual share at n={n} is about {magnitude} (factor 2)",
            ok,
            "" if ok else f"got {float(miss)}",
        ))

    ok = all(
        solidarity_stratum_epsilon(n - 1, n) == F(n - 1, n)
        and solidarity_stratum_epsilon(1, n) == 1 - F(harmonic_number(n) - 1, n - 1)
        for n in range(3, 13)
    )
    add(CheckResult("solidarity per-size mix special cases at sizes 1 and n-1, n in 3..12", ok))
    ok = all(
        solidarity_stratum_epsilon(n - 2, n) == F((n - 2) * ((n - 1) ** 2 + n), n * (n - 1) ** 2)
        for n in range(4, 13)
    )
    add(CheckResult("solidarity per-size mix special case at size n-2, n in 4..12", ok))

    general = GeneralLinearValueMap.from_unanimity_images(
        5, lambda mask: solidarity_oracle(unanimity(5, mask))
    )
    add(_eq("solidarity definition sum matches the closed-form profile at n=5",
            profile_from_general(general), named_profile("so", 5)))

    glove = _glove_game()
    add(_eq("ordering oracle on the three-player glove game gives (2/3, 1/6, 1/6)",
            shapley_oracle(glove), (F(2, 3), F(1, 6), F(1, 6))))
    add(_eq("subset oracle on the three-player glove game gives (3/4, 1/4, 1/4)",
            banzhaf_oracle(glove), (F(3, 4), F(1, 4), F(1, 4))))
    add(_eq("profile evaluation matches the ordering oracle on the glove game",
            evaluate(named_profile("sh", 3), glove), shapley_oracle(glove)))

    ok = True
    for a_bits in range(1, 16):
        for b_bits in range(1, 16):
            expected = F(1) if a_bits == b_bits else F(0)
            if harsanyi_inner(unanimity(4, a_bits), unanimity(4, b_bits)) != expected:
                ok = False
    add(CheckResult("unanimity games are exactly orthonormal at n=4", ok))

    ok = True
    sh3 = GeneralLinearValueMap.from_profile(named_profile("sh", 3))
    bz3 = GeneralLinearValueMap.from_profile(named_profile("bz", 3))
    ed3 = GeneralLinearValueMap.from_profile(named_profile("ed", 3))
    diff_bz = bz3 - sh3
    diff_ed = ed3 - sh3
    for seed in (0, 1):
        basis = random_h_orthonormal_basis(3, seed)
        if not basis.gram_is_identity():
            ok = False
        for p, q in ((diff_bz, diff_bz), (diff_ed, diff_bz), (diff_ed, diff_ed)):
            if inner_L_in_basis(p, q, basis) != inner_L_general(p, q):
                ok = False
    add(CheckResult("inner products agree across seeded orthonormal bases at n=3", ok))

    rng = random.Random(20240401)
    game = Game(6, tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range((1 << 6) - 1)))
    add(_eq("dividend roundtrip is exact on a seeded random n=6 game",
            from_dividends(dividends(game)), game))

    ok = True
    for eps in (F(0), F(1, 3), F(1), F(-2)):
        prof = egalitarian_shapley(eps, 4)
        for mask in (0b0001, 0b0011, 0b0111):
            payoff = evaluate(prof, unanimity(4, mask))
            for i in range(4):
                if not mask >> i & 1 and payoff[i] != eps / 4:
                    ok = False
    add(CheckResult("outsiders receive exactly eps/n under the mixed family (eps in {0, 1/3, 1, -2})", ok))

    ok = True
    w6 = weights(6)
    for kind in ("bz", "esd", "so"):
        prof = named_profile(kind, 6)
        coords = stratified_coords(prof)
        mean = sum((wa * e for wa, e in zip(w6.w, coords.eps)), F(0))
        if mean != optimal_epsilon(prof):
            ok = False
    add(CheckResult("optimal mix equals the weighted mean of per-size mixes at n=6", ok))

    ok = True
    for n in range(2, 11):
        for kind in ("bz", "esd", "so", "ed"):
            r = projection_report(named_profile(kind, n), kind)
            if r.dist_sq != r.proj_sq + r.resid_sq:
                ok = False
    add(CheckResult("squared distance splits exactly into projection plus residual, n in 2..10", ok))

    ok = all(
        r2_from_moments(stratified_coords(named_profile(k, n)), weights(n))
        == projection_report(named_profile(k, n), k).r2
        for n in range(3, 9)
        for k in ("esd", "so")
    )
    add(CheckResult("moment form of the fit matches the projection form, n in 3..8", ok))

    add(_eq("per-size coefficients (0, 1, 1) reconstruct equal surplus division at n=4",
            reconstruct((F(0), F(1), F(1)), 4), named_profile("esd", 4)))

    add(_eq("per-size breakdown total for Banzhaf at n=4 is 7/48",
            generalized_pythagoras(named_profile("bz", 4)).total, F(7, 48)))

    add(_eq("the mixed family projects to itself with fit 1 (eps = 2/7, n=5)",
            projection_report(egalitarian_shapley(F(2, 7), 5), "f:2/7").r2, F(1)))

    return out
