"""Exact TU-game primitives: coalitions, games, dividends, orthonormal bases.

Players are indexed 0..n-1 and coalitions are bitmasks (bit i set means
player i belongs). Every worth and dividend is a `fractions.Fraction`;
nothing in this module rounds. The worth of the empty coalition is not
stored, it is structurally zero.

All types are immutable after construction and all functions are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, countOf, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

MIN_PLAYERS = 2
MAX_PLAYERS = 30

#: Largest decimal exponent, in absolute value, of a worth literal such as
#: ``"1e300"``. Reading ``10**e`` exactly costs time superlinear in ``e``, so
#: a larger exponent is refused before any digits are built; 4300 matches
#: CPython's default limit on the digits of an int read from a string.
MAX_WORTH_EXPONENT = 4300

#: Largest player count for random basis generation; a basis has
#: (2^n - 1)^2 rational coefficients, which grows fast.
MAX_BASIS_PLAYERS = 5

#: Integer triples (p, q, r) with p^2 + q^2 = r^2. The pairs (p/r, q/r) are
#: exact cosine/sine values, so plane rotations built from them stay rational.
PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_player_count(n: int) -> None:
    if not MIN_PLAYERS <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in [{MIN_PLAYERS}, {MAX_PLAYERS}], got {n}")


#: For each valid player count n, the bit of each player index 0..n-1. Only
#: ints that are keys here are valid players, so a lookup rejects negative and
#: out-of-range indices in C.
_PLAYER_BITS = {n: {i: 1 << i for i in range(n)} for n in range(MIN_PLAYERS, MAX_PLAYERS + 1)}


def _coalition_bits(players: Sequence[int], n: int) -> int:
    """The bitmask of distinct player indices in 0..n-1.

    Raises ``ValueError`` naming the first player, in list order, that is
    not an int in range (a bool is not a player index) or is listed twice.
    Used by `Coalition.from_players` and, once per coalition entry, by the
    game parser; private because the per-layer benchmark tracer wraps every
    public function, and a wrapper per entry would cost more than the work.
    """
    # Fast path, all in C: exact ints that are all valid keys, and as many set
    # bits as players, so none is repeated. Anything else takes the loop below,
    # which finds the offending player for the message.
    size = len(players)
    try:
        if countOf(map(type, players), int) == size:
            bits = sum(map(_PLAYER_BITS[n].__getitem__, players))
            if bits.bit_count() == size:
                return bits
    except KeyError:
        pass
    bits = 0
    for p in players:
        if isinstance(p, bool):
            raise ValueError(f"player {p!r} is a boolean, not a player index")
        if not isinstance(p, int) or not 0 <= p < n:
            raise ValueError(f"player {p!r} out of range for n={n}")
        if bits >> p & 1:
            raise ValueError(f"player {p} listed twice")
        bits |= 1 << p
    return bits


def coalitions(n: int) -> Iterator[int]:
    """All nonempty coalition bitmasks on n players, in ascending order."""
    return iter(range(1, 1 << n))


@dataclass(frozen=True)
class Coalition:
    """A subset of the player set {0, ..., n-1}, encoded as a bitmask."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_player_count(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"coalition bits {self.bits} out of range for n={self.n}")

    @classmethod
    def from_players(cls, players: Iterable[int], n: int) -> "Coalition":
        return cls(_coalition_bits(list(players), n), n)

    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def contains(self, player: int) -> bool:
        return bool(self.bits >> player & 1)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members())) + "}"


def _as_bits(generators: "Coalition | int", n: int) -> int:
    if isinstance(generators, Coalition):
        if generators.n != n:
            raise ValueError(f"coalition is over n={generators.n}, expected n={n}")
        return generators.bits
    return int(generators)


@dataclass(frozen=True)
class Game:
    """A TU game: exact worths indexed by nonempty coalition bitmask.

    ``worths[m - 1]`` is the worth of the coalition with bitmask ``m``.
    """

    n: int
    worths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_player_count(self.n)
        expected = (1 << self.n) - 1
        if len(self.worths) != expected:
            raise ValueError(f"expected {expected} worths for n={self.n}, got {len(self.worths)}")

    @classmethod
    def zero(cls, n: int) -> "Game":
        return cls(n, ((_ZERO,) * ((1 << n) - 1)))

    @classmethod
    def from_function(cls, n: int, worth: Callable[[int], Fraction]) -> "Game":
        """Build a game from a function of the coalition bitmask."""
        return cls(n, tuple(Fraction(worth(m)) for m in coalitions(n)))

    def worth(self, bits: int) -> Fraction:
        return _ZERO if bits == 0 else self.worths[bits - 1]

    def _require_same_n(self, other: "Game") -> None:
        if self.n != other.n:
            raise ValueError(f"player counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "Game") -> "Game":
        self._require_same_n(other)
        return Game(self.n, tuple(a + b for a, b in zip(self.worths, other.worths)))

    def __sub__(self, other: "Game") -> "Game":
        self._require_same_n(other)
        return Game(self.n, tuple(a - b for a, b in zip(self.worths, other.worths)))

    def __rmul__(self, scalar) -> "Game":
        c = Fraction(scalar)
        return Game(self.n, tuple(c * w for w in self.worths))

    def __neg__(self) -> "Game":
        return Game(self.n, tuple(-w for w in self.worths))


@dataclass(frozen=True)
class DividendVector:
    """Coordinates of a game in the unanimity basis, one per nonempty coalition."""

    n: int
    dividends: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_player_count(self.n)
        expected = (1 << self.n) - 1
        if len(self.dividends) != expected:
            raise ValueError(f"expected {expected} dividends for n={self.n}, got {len(self.dividends)}")


def unanimity(n: int, generators: "Coalition | int") -> Game:
    """The game worth 1 on coalitions containing all the generators, 0 elsewhere."""
    _check_player_count(n)
    bits = _as_bits(generators, n)
    if bits == 0:
        raise ValueError("unanimity generators must be a nonempty coalition")
    if not bits < (1 << n):
        raise ValueError(f"generator bits {bits} out of range for n={n}")
    return Game(n, tuple(_ONE if m & bits == bits else _ZERO for m in coalitions(n)))


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``x`` and one common denominator ``d`` with ``values[k] == x[k] / d``.

    ``d`` is the lcm of the denominators, so only distinct denominators
    cost a division.
    """
    dens = {v.denominator for v in values}
    den = lcm(*dens)
    scale = {q: den // q for q in dens}
    return [v.numerator * scale[v.denominator] for v in values], den


def _as_fractions(values: Iterable[int], den: int) -> tuple[Fraction, ...]:
    """The reduced fractions ``x / den``."""
    return tuple(Fraction(x, den) if x else _ZERO for x in values)


def integer_subset_transform(values: Sequence[Fraction], n: int, sign: int) -> tuple[list[int], int]:
    """The fast subset transform of one rational per nonempty bitmask, on integers.

    The values are scaled by the lcm ``d`` of their denominators, then, in
    place and bit by bit, ``f[m] += sign * f[m without the bit]`` runs on
    every mask holding the bit: O(2^n * n) integer operations. With
    ``sign=-1`` this is the Möbius transform (worths to dividends), with
    ``sign=+1`` the zeta transform (dividends to worths). Returns ``(f, d)``
    where ``f[m] / d`` is the result for bitmask m and ``f[0] == 0``.
    """
    scaled, den = clear_denominators(values)
    f = [0, *scaled]
    op = sub if sign < 0 else add
    size = 1 << n
    for i in range(n):
        step = 1 << i
        span = step << 1
        # Whichever slicing takes fewer Python-level steps: one strided
        # slice per offset inside a block, or one contiguous slice per block.
        if step * span <= size:
            for j in range(step, span):
                f[j::span] = map(op, f[j::span], f[j - step::span])
        else:
            for lo in range(0, size, span):
                hi = lo + step
                f[hi:hi + step] = map(op, f[hi:hi + step], f[lo:hi])
    return f, den


def dividends(game: Game) -> DividendVector:
    """Invert the subset-sum relation between worths and unanimity coordinates.

    Runs `integer_subset_transform` with ``sign=-1``: the worths are scaled
    to integers by the lcm of their denominators, the fast subset transform
    runs on those integers, and each dividend becomes a reduced `Fraction`
    only at the end.
    """
    h, den = integer_subset_transform(game.worths, game.n, -1)
    return DividendVector(game.n, _as_fractions(h[1:], den))


def from_dividends(d: DividendVector) -> Game:
    """Rebuild the worth vector: each coalition sums the dividends of its subsets.

    Runs the same `integer_subset_transform` as `dividends`, with
    ``sign=+1``.
    """
    f, den = integer_subset_transform(d.dividends, d.n, +1)
    return Game(d.n, _as_fractions(f[1:], den))


def harsanyi_inner(g: Game, h: Game) -> Fraction:
    """Dot product of dividend coordinates; unanimity games are orthonormal in it."""
    if g.n != h.n:
        raise ValueError(f"player counts differ: {g.n} vs {h.n}")
    dg, den_g = integer_subset_transform(g.worths, g.n, -1)
    dh, den_h = integer_subset_transform(h.worths, h.n, -1)
    return Fraction(sum(map(mul, dg, dh)), den_g * den_h)


@dataclass(frozen=True)
class HOrthonormalBasis:
    """A basis of the game space that is exactly orthonormal in `harsanyi_inner`."""

    n: int
    vectors: tuple[Game, ...]
    provenance: str = field(compare=False)

    def __post_init__(self) -> None:
        _check_player_count(self.n)
        expected = (1 << self.n) - 1
        if len(self.vectors) != expected:
            raise ValueError(f"expected {expected} basis vectors for n={self.n}, got {len(self.vectors)}")
        for v in self.vectors:
            if v.n != self.n:
                raise ValueError("basis vector has mismatched player count")

    def dividend_rows(self) -> list[tuple[Fraction, ...]]:
        """Unanimity coordinates of each basis vector, row per vector."""
        return [dividends(v).dividends for v in self.vectors]

    def gram_is_identity(self) -> bool:
        """True when every pairwise inner product matches the identity matrix."""
        rows = self.dividend_rows()
        d = len(rows)
        for i in range(d):
            for j in range(i, d):
                expected = _ONE if i == j else _ZERO
                total = _ZERO
                for a, b in zip(rows[i], rows[j]):
                    if a and b:
                        total += a * b
                if total != expected:
                    return False
        return True


def unanimity_basis(n: int) -> HOrthonormalBasis:
    """The canonical orthonormal basis made of all unanimity games."""
    _check_player_count(n)
    return HOrthonormalBasis(n, tuple(unanimity(n, m) for m in coalitions(n)), "unanimity basis")


def signed_permutation(basis: HOrthonormalBasis, order: Sequence[int], signs: Sequence[int]) -> HOrthonormalBasis:
    """Reorder basis vectors and flip some signs; orthonormality is preserved."""
    d = len(basis.vectors)
    if sorted(order) != list(range(d)):
        raise ValueError("order must be a permutation of the basis indices")
    if len(signs) != d or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1, one per basis vector")
    vecs = tuple(basis.vectors[k] if s == 1 else -basis.vectors[k] for k, s in zip(order, signs))
    return HOrthonormalBasis(basis.n, vecs, basis.provenance)


def rotate_pair(basis: HOrthonormalBasis, i: int, j: int, triple: tuple[int, int, int] = (3, 4, 5)) -> HOrthonormalBasis:
    """Apply the exact plane rotation with cosine p/r and sine q/r to vectors i, j."""
    p, q, r = triple
    if p * p + q * q != r * r:
        raise ValueError(f"({p}, {q}, {r}) is not a Pythagorean triple")
    if i == j:
        raise ValueError("rotation needs two distinct basis indices")
    c, s = Fraction(p, r), Fraction(q, r)
    vi, vj = basis.vectors[i], basis.vectors[j]
    vecs = list(basis.vectors)
    vecs[i] = c * vi + s * vj
    vecs[j] = (-s) * vi + c * vj
    return HOrthonormalBasis(basis.n, tuple(vecs), basis.provenance)


def random_h_orthonormal_basis(
    n: int,
    seed: int,
    rotations: int | None = None,
    permute: bool = True,
) -> HOrthonormalBasis:
    """A seeded exactly-orthonormal basis of the game space.

    Starts from the unanimity basis, applies a signed permutation, then a
    seed-derived sequence of rational plane rotations. With ``rotations=0``
    and ``permute=False`` the unanimity basis itself comes back.
    """
    if not MIN_PLAYERS <= n <= MAX_BASIS_PLAYERS:
        raise ValueError(f"random bases are supported for n in [{MIN_PLAYERS}, {MAX_BASIS_PLAYERS}], got {n}")
    rng = random.Random(seed)
    d = (1 << n) - 1
    basis = unanimity_basis(n)
    steps = ["unanimity basis"]
    if permute:
        order = rng.sample(range(d), d)
        signs = [rng.choice((1, -1)) for _ in range(d)]
        basis = signed_permutation(basis, order, signs)
        steps.append("signed permutation")
    count = 2 * d if rotations is None else rotations
    if count < 0:
        raise ValueError("rotations must be nonnegative")
    for _ in range(count):
        i, j = rng.sample(range(d), 2)
        triple = rng.choice(PYTHAGOREAN_TRIPLES)
        basis = rotate_pair(basis, i, j, triple)
    steps.append(f"{count} rational rotations")
    provenance = f"seed={seed}: " + ", ".join(steps)
    return HOrthonormalBasis(n, basis.vectors, provenance)
