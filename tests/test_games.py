import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valuegeom import (
    Coalition,
    DividendVector,
    Game,
    HOrthonormalBasis,
    dividends,
    from_dividends,
    harsanyi_inner,
    random_h_orthonormal_basis,
    rotate_pair,
    signed_permutation,
    unanimity,
    unanimity_basis,
)
from util import dividends_by_inclusion_exclusion, random_game, rational, wide_game

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def test_coalition_basics():
    c = Coalition.from_players([0, 2], 3)
    assert c.bits == 0b101
    assert c.size() == 2
    assert c.members() == (0, 2)
    assert c.contains(2) and not c.contains(1)
    assert str(c) == "{0,2}"


def test_coalition_rejects_bad_players():
    with pytest.raises(ValueError):
        Coalition.from_players([3], 3)
    with pytest.raises(ValueError):
        Coalition.from_players([1, 1], 3)
    with pytest.raises(ValueError):
        Coalition(1 << 3, 3)


def test_coalition_rejects_boolean_players():
    with pytest.raises(ValueError, match="player True is a boolean"):
        Coalition.from_players([True], 3)
    with pytest.raises(ValueError, match="player False is a boolean"):
        Coalition.from_players([2, False], 3)


def test_coalition_from_players_names_the_first_bad_player():
    assert Coalition.from_players([3, 0, 2], 4).bits == 0b1101
    assert Coalition.from_players(iter([1, 0]), 2).bits == 0b11
    cases = [
        ([5, 0, 0], "player 5 out of range for n=4"),
        ([0, 0, 5], "player 0 listed twice"),
        ([1, -1], "player -1 out of range for n=4"),
        ([-5], "player -5 out of range for n=4"),
        ([1.0], "player 1.0 out of range for n=4"),
        (["1"], "player '1' out of range for n=4"),
        ([3, 2, 3], "player 3 listed twice"),
    ]
    for players, message in cases:
        with pytest.raises(ValueError) as info:
            Coalition.from_players(players, 4)
        assert str(info.value) == message


def test_unanimity_singleton_two_players():
    g = unanimity(2, 0b01)
    assert g.worth(0b01) == 1
    assert g.worth(0b10) == 0
    assert g.worth(0b11) == 1


def test_unanimity_grand_coalition():
    g = unanimity(4, 0b1111)
    for mask in range(1, 15):
        assert g.worth(mask) == 0
    assert g.worth(0b1111) == 1


def test_unanimity_pair_three_players():
    g = unanimity(3, Coalition.from_players([0, 1], 3))
    ones = [mask for mask in range(1, 8) if g.worth(mask) == 1]
    assert ones == [0b011, 0b111]


def test_unanimity_rejects_bad_generators():
    with pytest.raises(ValueError):
        unanimity(3, 0)
    with pytest.raises(ValueError):
        unanimity(3, 1 << 3)
    with pytest.raises(ValueError):
        unanimity(3, Coalition(0b1, 4))


def test_unanimity_dividends_are_indicators():
    for n in range(2, 6):
        for bits in range(1, 1 << n):
            d = dividends(unanimity(n, bits))
            for mask in range(1, 1 << n):
                assert d.dividends[mask - 1] == (1 if mask == bits else 0)


def test_glove_game_dividends():
    glove = Game.from_function(3, lambda m: F(1) if (m & 1) and (m & 0b110) else F(0))
    d = dividends(glove)
    expected = {0b011: F(1), 0b101: F(1), 0b111: F(-1)}
    for mask in range(1, 8):
        assert d.dividends[mask - 1] == expected.get(mask, F(0))
    assert from_dividends(d) == glove


def test_additive_game_has_singleton_dividends_only():
    rng = random.Random(5)
    for n in range(2, 6):
        coeffs = [rational(rng) for _ in range(n)]
        game = Game.from_function(
            n, lambda m: sum((coeffs[i] for i in range(n) if m >> i & 1), F(0))
        )
        d = dividends(game)
        for mask in range(1, 1 << n):
            if mask.bit_count() == 1:
                assert d.dividends[mask - 1] == coeffs[mask.bit_length() - 1]
            else:
                assert d.dividends[mask - 1] == 0


def test_dividends_match_inclusion_exclusion():
    rng = random.Random(77)
    for n in range(2, 7):
        for _ in range(10):
            game = random_game(rng, n)
            assert dividends(game) == dividends_by_inclusion_exclusion(game)


def test_mobius_roundtrip_200_games_per_size():
    rng = random.Random(1234)
    for n in range(2, 7):
        for _ in range(200):
            game = random_game(rng, n)
            assert from_dividends(dividends(game)) == game


def test_from_dividends_indicator_gives_unanimity():
    for bits in range(1, 16):
        d = DividendVector(4, tuple(F(1) if m == bits else F(0) for m in range(1, 16)))
        assert from_dividends(d) == unanimity(4, bits)


def test_from_dividends_zero():
    d = DividendVector(3, (F(0),) * 7)
    assert from_dividends(d) == Game.zero(3)


def test_dividend_roundtrip_other_direction():
    rng = random.Random(9)
    for n in range(2, 7):
        d = DividendVector(n, tuple(rational(rng) for _ in range((1 << n) - 1)))
        assert dividends(from_dividends(d)) == d


def test_unanimity_games_are_orthonormal():
    for n in (2, 3, 4):
        for a in range(1, 1 << n):
            for b in range(a, 1 << n):
                expected = F(1) if a == b else F(0)
                assert harsanyi_inner(unanimity(n, a), unanimity(n, b)) == expected


def test_inner_of_linear_combination():
    ua = unanimity(3, 0b001)
    ub = unanimity(3, 0b110)
    g = 2 * ua + 3 * ub
    assert harsanyi_inner(g, g) == 13


def test_inner_rejects_mismatched_n():
    with pytest.raises(ValueError):
        harsanyi_inner(unanimity(2, 1), unanimity(3, 1))


@given(a=rationals, b=rationals)
def test_inner_bilinearity(a, b):
    rng = random.Random(int(a * 7919) ^ int(b * 104729))
    g, h, k = (random_game(rng, 3) for _ in range(3))
    lhs = harsanyi_inner(a * g + b * h, k)
    assert lhs == a * harsanyi_inner(g, k) + b * harsanyi_inner(h, k)


def test_inner_positive_definite():
    rng = random.Random(31)
    for n in range(2, 6):
        for _ in range(10):
            g = random_game(rng, n)
            norm = harsanyi_inner(g, g)
            assert norm >= 0
            assert (norm == 0) == (g == Game.zero(n))


def test_zero_rotations_identity_permutation_is_unanimity_basis():
    basis = random_h_orthonormal_basis(3, seed=42, rotations=0, permute=False)
    assert basis.vectors == unanimity_basis(3).vectors


def test_pure_signed_permutation_keeps_gram_identity():
    basis = signed_permutation(unanimity_basis(3), [2, 0, 1, 4, 3, 6, 5], [1, -1, 1, -1, 1, -1, 1])
    assert basis.gram_is_identity()


def test_single_rotation_two_players_gram_identity():
    basis = rotate_pair(unanimity_basis(2), 0, 1, (3, 4, 5))
    rows = basis.dividend_rows()
    assert rows[0] == (F(3, 5), F(4, 5), F(0))
    assert rows[1] == (F(-4, 5), F(3, 5), F(0))
    for i in range(3):
        for j in range(3):
            expected = F(1) if i == j else F(0)
            assert harsanyi_inner(basis.vectors[i], basis.vectors[j]) == expected


def test_rotation_rejects_bad_triple():
    with pytest.raises(ValueError):
        rotate_pair(unanimity_basis(2), 0, 1, (3, 4, 6))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_basis_gram_is_identity(n, seed):
    assert random_h_orthonormal_basis(n, seed).gram_is_identity()


def test_random_basis_rejects_unsupported_n():
    with pytest.raises(ValueError):
        random_h_orthonormal_basis(6, 0)


def test_scaled_basis_is_not_orthonormal():
    basis = unanimity_basis(2)
    scaled = HOrthonormalBasis(2, (2 * basis.vectors[0],) + basis.vectors[1:], "scaled")
    assert not scaled.gram_is_identity()


def test_wide_denominator_games_roundtrip_and_inner_product():
    rng = random.Random(88)
    for n in range(2, 7):
        g, h = wide_game(rng, n), wide_game(rng, n)
        assert from_dividends(dividends(g)) == g
        dg = dividends_by_inclusion_exclusion(g).dividends
        dh = dividends_by_inclusion_exclusion(h).dividends
        assert harsanyi_inner(g, h) == sum(a * b for a, b in zip(dg, dh))
