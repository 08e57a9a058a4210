"""Shared helpers: seeded random inputs and independent brute-force oracles."""

from fractions import Fraction

from valuegeom import DividendVector, Game, SymmetricValueProfile, reconstruct


def rational(rng, lo=-9, hi=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_game(rng, n: int) -> Game:
    return Game(n, tuple(rational(rng) for _ in range((1 << n) - 1)))


def wide_game(rng, n: int) -> Game:
    """Every worth with numerator and denominator up to 10^12."""
    return Game(n, tuple(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in range((1 << n) - 1)))


def random_profile(rng, n: int) -> SymmetricValueProfile:
    return SymmetricValueProfile(
        n,
        tuple(rational(rng) for _ in range(n)),
        tuple(rational(rng) for _ in range(n - 1)),
    )


def random_efficient_profile(rng, n: int) -> SymmetricValueProfile:
    return reconstruct(tuple(rational(rng) for _ in range(n - 1)), n)


def dividends_by_inclusion_exclusion(game: Game) -> DividendVector:
    """Independent dividend computation: alternating subset sums, O(3^n)."""
    n = game.n
    out = []
    for mask in range(1, 1 << n):
        total = Fraction(0)
        sub = mask
        while True:
            sign = -1 if (mask ^ sub).bit_count() & 1 else 1
            total += sign * game.worth(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        out.append(total)
    return DividendVector(n, tuple(out))


def permute_game(game: Game, perm) -> Game:
    """Relabel players: new worth of C is the old worth of the preimage of C."""
    n = game.n
    worths = []
    for mask in range(1, 1 << n):
        pre = 0
        for i in range(n):
            if mask >> perm[i] & 1:
                pre |= 1 << i
        worths.append(game.worth(pre))
    return Game(n, tuple(worths))


def payoff_by_dividends(game: Game, image) -> tuple:
    """Dividend-route definition sum: sum over T of h(T) times the payoff on u_T.

    ``image(mask)`` gives the payoff vector on the unanimity game of ``mask``;
    ``h`` comes from `dividends_by_inclusion_exclusion`.
    """
    h = dividends_by_inclusion_exclusion(game).dividends
    payoff = [Fraction(0)] * game.n
    for mask in range(1, 1 << game.n):
        vec = image(mask)
        for i in range(game.n):
            payoff[i] += h[mask - 1] * vec[i]
    return tuple(payoff)
