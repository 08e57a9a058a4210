import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuegeom import (
    Game,
    GeneralLinearValueMap,
    SymmetryViolation,
    banzhaf_oracle,
    egalitarian_shapley,
    evaluate,
    named_profile,
    profile_for_token,
    profile_from_general,
    shapley_oracle,
    solidarity_oracle,
    unanimity,
    worth_weights,
)
from util import payoff_by_dividends, permute_game, random_game, random_profile, rational, wide_game

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def glove_game() -> Game:
    return Game.from_function(3, lambda m: F(1) if (m & 1) and (m & 0b110) else F(0))


def test_shapley_profile_n4():
    p = named_profile("sh", 4)
    assert p.alpha == (F(1), F(1, 2), F(1, 3), F(1, 4))
    assert p.beta == (F(0), F(0), F(0))


def test_banzhaf_profile_n4():
    p = named_profile("bz", 4)
    assert p.alpha == (F(1), F(1, 2), F(1, 4), F(1, 8))
    assert p.beta == (F(0), F(0), F(0))


def test_equal_division_profile():
    p = named_profile("ed", 5)
    assert set(p.alpha) == {F(1, 5)} and set(p.beta) == {F(1, 5)}


def test_equal_surplus_profile():
    p = named_profile("esd", 4)
    assert p.alpha == (F(1), F(1, 4), F(1, 4), F(1, 4))
    assert p.beta == (F(0), F(1, 4), F(1, 4))


def test_solidarity_profile_n4():
    p = named_profile("so", 4)
    assert p.beta == (F(23, 144), F(13, 72), F(3, 16))
    assert p.alpha == (F(25, 48), F(23, 72), F(13, 48), F(1, 4))


def test_named_profile_rejects_unknown_kind():
    with pytest.raises(ValueError):
        named_profile("nucleolus", 4)
    with pytest.raises(ValueError):
        named_profile("sh", 1)


def test_mixed_family_endpoints():
    assert egalitarian_shapley(0, 4) == named_profile("sh", 4)
    assert egalitarian_shapley(1, 4) == named_profile("ed", 4)


def test_mixed_family_midpoint_alpha():
    p = egalitarian_shapley(F(1, 2), 4)
    assert p.alpha_at(2) == F(3, 8)


def test_profile_token_parsing():
    assert profile_for_token("so", 4) == named_profile("so", 4)
    assert profile_for_token("f:1/3", 4) == egalitarian_shapley(F(1, 3), 4)
    assert profile_for_token("f:-2", 3) == egalitarian_shapley(-2, 3)
    with pytest.raises(ValueError):
        profile_for_token("f:one", 4)
    with pytest.raises(ValueError):
        profile_for_token("xx", 4)


def test_efficiency_predicate_all_sizes():
    for n in range(2, 21):
        assert named_profile("sh", n).is_efficient()
        assert named_profile("ed", n).is_efficient()
        assert named_profile("esd", n).is_efficient()
        assert named_profile("so", n).is_efficient()
        assert egalitarian_shapley(F(2, 7), n).is_efficient()
        if n >= 3:
            assert not named_profile("bz", n).is_efficient()
    # at n=2 the Banzhaf profile happens to distribute the full worth
    assert named_profile("bz", 2).is_efficient()


def test_evaluate_equal_division_is_average_of_grand_worth():
    rng = random.Random(3)
    for n in (3, 5):
        game = random_game(rng, n)
        share = game.worth((1 << n) - 1) / n
        assert evaluate(named_profile("ed", n), game) == (share,) * n


def test_evaluate_shapley_on_glove_game():
    assert evaluate(named_profile("sh", 3), glove_game()) == (F(2, 3), F(1, 6), F(1, 6))


def test_evaluate_shapley_on_unanimity():
    for n in (3, 5):
        for bits in (1, (1 << n) - 1, 0b11):
            payoff = evaluate(named_profile("sh", n), unanimity(n, bits))
            a = bits.bit_count()
            for i in range(n):
                assert payoff[i] == (F(1, a) if bits >> i & 1 else F(0))


def test_evaluate_matches_unanimity_payoff():
    for kind in ("sh", "ed", "bz", "esd", "so"):
        p = named_profile(kind, 4)
        for bits in range(1, 16):
            assert evaluate(p, unanimity(4, bits)) == p.unanimity_payoff(bits)


def test_evaluate_rejects_mismatched_n():
    with pytest.raises(ValueError):
        evaluate(named_profile("sh", 3), Game.zero(4))


@given(a=rationals, b=rationals)
@settings(max_examples=40)
def test_evaluate_is_linear(a, b):
    rng = random.Random(int(a * 7919) ^ int(b * 104729) ^ 5)
    g, h = random_game(rng, 4), random_game(rng, 4)
    p = named_profile("so", 4)
    left = evaluate(p, a * g + b * h)
    right = tuple(a * x + b * y for x, y in zip(evaluate(p, g), evaluate(p, h)))
    assert left == right


def test_evaluate_symmetry_under_relabeling():
    rng = random.Random(11)
    for n in (3, 4, 6):
        game = random_game(rng, n)
        payoff = evaluate(named_profile("so", n), game)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = permute_game(game, perm)
            relabeled = evaluate(named_profile("so", n), permuted)
            for i in range(n):
                assert relabeled[perm[i]] == payoff[i]


def test_shapley_oracle_unanimity_pair():
    assert shapley_oracle(unanimity(3, 0b011)) == (F(1, 2), F(1, 2), F(0))


def test_shapley_oracle_glove():
    assert shapley_oracle(glove_game()) == (F(2, 3), F(1, 6), F(1, 6))


def test_shapley_oracle_majority():
    majority = Game.from_function(3, lambda m: F(1) if m.bit_count() >= 2 else F(0))
    assert shapley_oracle(majority) == (F(1, 3), F(1, 3), F(1, 3))


def test_shapley_oracle_cap():
    with pytest.raises(ValueError):
        shapley_oracle(Game.zero(9))


def test_banzhaf_oracle_unanimity():
    for bits in (0b1, 0b101, 0b1111):
        payoff = banzhaf_oracle(unanimity(4, bits))
        a = bits.bit_count()
        for i in range(4):
            assert payoff[i] == (F(1, 1 << (a - 1)) if bits >> i & 1 else F(0))


def test_banzhaf_oracle_glove():
    assert banzhaf_oracle(glove_game()) == (F(3, 4), F(1, 4), F(1, 4))


def test_banzhaf_oracle_additive():
    rng = random.Random(17)
    coeffs = [rational(rng) for _ in range(4)]
    game = Game.from_function(4, lambda m: sum((coeffs[i] for i in range(4) if m >> i & 1), F(0)))
    assert banzhaf_oracle(game) == tuple(coeffs)


def test_solidarity_oracle_grand_unanimity():
    assert solidarity_oracle(unanimity(4, 0b1111)) == (F(1, 4),) * 4


def test_solidarity_oracle_triple_outsider():
    payoff = solidarity_oracle(unanimity(4, 0b0111))
    assert payoff[3] == F(3, 16)
    assert payoff[0] == payoff[1] == payoff[2] == F(13, 48)


def test_solidarity_oracle_singleton_member():
    payoff = solidarity_oracle(unanimity(4, 0b0001))
    assert payoff[0] == F(25, 48)
    assert payoff[1] == payoff[2] == payoff[3] == F(23, 144)


def test_solidarity_oracle_cap():
    with pytest.raises(ValueError):
        solidarity_oracle(Game.zero(13))


def test_profile_from_general_roundtrip():
    p = named_profile("bz", 4)
    assert profile_from_general(GeneralLinearValueMap.from_profile(p)) == p


def test_profile_from_general_detects_member_asymmetry():
    vmap = GeneralLinearValueMap.from_unanimity_images(
        3, lambda m: (F(1), F(0), F(0)) if m == 0b010 else named_profile("sh", 3).unanimity_payoff(m)
    )
    with pytest.raises(SymmetryViolation) as err:
        profile_from_general(vmap)
    assert err.value.first.bits == 0b010


def test_profile_from_general_detects_cross_coalition_asymmetry():
    base = named_profile("sh", 3)

    def image(mask):
        if mask == 0b100:
            return (F(1, 4), F(1, 4), F(1, 2))
        return base.unanimity_payoff(mask)

    with pytest.raises(SymmetryViolation) as err:
        profile_from_general(GeneralLinearValueMap.from_unanimity_images(3, image))
    assert {err.value.first.bits, err.value.second.bits} == {0b001, 0b100}


def test_profile_from_solidarity_oracle_matches_closed_form():
    vmap = GeneralLinearValueMap.from_unanimity_images(
        5, lambda m: solidarity_oracle(unanimity(5, m))
    )
    assert profile_from_general(vmap) == named_profile("so", 5)


@pytest.mark.parametrize("eps", [F(0), F(1, 3), F(1), F(-2)])
def test_dummy_share_of_outsiders(eps):
    for n in range(2, 6):
        prof = egalitarian_shapley(eps, n)
        for bits in range(1, (1 << n) - 1):
            payoff = evaluate(prof, unanimity(n, bits))
            for i in range(n):
                if not bits >> i & 1:
                    assert payoff[i] == eps / n


def test_general_map_apply_matches_evaluate():
    rng = random.Random(23)
    p = named_profile("so", 4)
    vmap = GeneralLinearValueMap.from_profile(p)
    for _ in range(10):
        game = random_game(rng, 4)
        assert vmap.apply(game) == evaluate(p, game)


def test_oracle_agreement_spot_checks():
    rng = random.Random(41)
    for _ in range(5):
        g5 = random_game(rng, 5)
        assert shapley_oracle(g5) == evaluate(named_profile("sh", 5), g5)
        assert banzhaf_oracle(g5) == evaluate(named_profile("bz", 5), g5)
        assert solidarity_oracle(g5) == evaluate(named_profile("so", 5), g5)


def _symmetric_image(profile):
    n = profile.n
    alpha, beta = profile.alpha, (*profile.beta, F(0))

    def image(mask):
        a = mask.bit_count()
        return tuple(alpha[a - 1] if mask >> i & 1 else beta[a - 1] for i in range(n))

    return image


def test_evaluate_matches_dividend_route_on_arbitrary_profiles():
    rng = random.Random(2024)
    for n in range(2, 8):
        games = [
            random_game(rng, n),
            wide_game(rng, n),
            Game(n, tuple(F(rng.randint(-50, 50)) for _ in range((1 << n) - 1))),
            Game.zero(n),
        ]
        for game in games:
            for _ in range(2):
                profile = random_profile(rng, n)
                assert not profile.is_efficient()
                assert evaluate(profile, game) == payoff_by_dividends(game, _symmetric_image(profile))


def test_worth_weights_are_the_textbook_coefficients():
    for n in range(2, 13):
        fact = factorial(n)
        w_in, w_out = worth_weights(named_profile("sh", n))
        assert w_in == tuple(F(factorial(s - 1) * factorial(n - s), fact) for s in range(1, n + 1))
        assert w_out == tuple(F(-factorial(s) * factorial(n - s - 1), fact) for s in range(1, n))
        w_in, w_out = worth_weights(named_profile("bz", n))
        assert w_in == (F(1, 2 ** (n - 1)),) * n
        assert w_out == (F(-1, 2 ** (n - 1)),) * (n - 1)


def test_general_map_apply_on_non_symmetric_maps():
    rng = random.Random(61)
    for n in range(2, 7):
        vmap = GeneralLinearValueMap.from_unanimity_images(
            n, lambda m: [F(rng.randint(-30, 30), rng.choice((1, 2, 3, 7, 11, 360, 10**9 + 7))) for _ in range(n)]
        )
        for game in (random_game(rng, n), wide_game(rng, n), Game.zero(n)):
            expected = payoff_by_dividends(game, lambda m: vmap.actions[m - 1])
            assert vmap.apply(game) == expected
