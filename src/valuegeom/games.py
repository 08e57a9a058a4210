"""Exact TU-game primitives: coalitions, games, dividends, orthonormal bases.

Players are indexed 0..n-1 and coalitions are bitmasks (bit i set means
player i belongs). Nothing in this module rounds.

A `Game` stores its worths as integers over one positive denominator:
``scaled[m] / den`` is the worth of bitmask m, and ``scaled[0]``, the empty
coalition's, is always 0. The integers and the denominator share no common
factor, so equal worths give equal fields. The subset transform and the
value maps read those integers directly; `Game.worths`, the `Fraction`
view, is built only when something asks for it.

All types are immutable after construction and all functions are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Iterator, Sequence

from .limits import MAX_BASIS_PLAYERS, MAX_PLAYERS, MIN_PLAYERS, _excerpt, _require, _require_game_size
from .limits import MAX_WORTH_EXPONENT  # noqa: F401  (still importable from this module)

#: Integer triples (p, q, r) with p^2 + q^2 = r^2. The pairs (p/r, q/r) are
#: exact cosine/sine values, so plane rotations built from them stay rational.
PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_same_n(*ns: int) -> None:
    """Refuse to combine objects over different player counts.

    Private: the per-layer benchmark tracer wraps public functions, and this
    one runs on every profile operation of the closed-form layers.
    """
    if len(set(ns)) > 1:
        raise ValueError("player counts differ: " + " vs ".join(map(str, ns)))


def _require_coalition_count(items: Sequence, n: int, what: str) -> None:
    """Refuse a player count out of range, or other than one item per nonempty coalition."""
    _require(n, MAX_PLAYERS)
    expected = (1 << n) - 1
    if len(items) != expected:
        raise ValueError(f"expected {expected} {what} for n={n}, got {len(items)}")


class VectorOps:
    """``+``, ``-``, scalar ``*`` and unary ``-`` for frozen dataclasses that
    store ``n``, a tuple of integers ``scaled`` and one positive ``den``
    sharing no factor with all of them. The operands are brought to one
    denominator and combined as integers; each result is reduced again."""

    @classmethod
    def _from_scaled(cls, n: int, scaled: Iterable[int], den: int):
        """The instance holding ``scaled`` over ``den``, for ``den > 0`` sharing no factor with all entries.

        `clear_denominators` of reduced fractions guarantees that, and so
        does the subset transform (its inverse has integer coefficients);
        other integer constructions go through `_reduced`.
        """
        obj = cls.__new__(cls)
        obj._store(n, scaled, den)
        return obj

    def _store(self, n: int, scaled: Iterable[int], den: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scaled", tuple(scaled))
        object.__setattr__(self, "den", den)

    def _combine(self, op: Callable, *others):
        """``op`` on the integers of all operands brought to one denominator (``+``, ``-``, unary ``-``)."""
        _require_same_n(self.n, *(o.n for o in others))
        den = lcm(self.den, *(o.den for o in others))
        columns = (x.scaled if x.den == den else [v * (den // x.den) for v in x.scaled] for x in (self, *others))
        return self._from_scaled(self.n, *_reduced(list(map(op, *columns)), den))

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return self._from_scaled(self.n, *_reduced([x * s.numerator for x in self.scaled], self.den * s.denominator))

    def __neg__(self):
        return self._combine(neg)


def _reduced(scaled: list[int], den: int) -> tuple[list[int], int]:
    """``scaled`` and ``den`` divided by their greatest common divisor."""
    common = gcd(den, *scaled)
    if common == 1:
        return scaled, den
    return [x // common for x in scaled], den // common


#: For each valid player count n, the bit of each player index 0..n-1. Only
#: exact ints that are keys here are valid players, so the game parser's
#: lookup rejects negative and out-of-range indices in C.
_PLAYER_BITS = {n: {i: 1 << i for i in range(n)} for n in range(MIN_PLAYERS, MAX_PLAYERS + 1)}


def _coalition_bits(players: Sequence[int], n: int) -> int:
    """The bitmask of distinct player indices in 0..n-1.

    Raises ``ValueError`` naming the first player, in list order, that is
    not an int in range (a bool is not a player index) or is listed twice.
    Used by `Coalition.from_players` and by the game parser's error path;
    the parser's success path checks all entries at once instead.
    """
    bits = 0
    for p in players:
        if isinstance(p, bool):
            raise ValueError(f"player {p!r} is a boolean, not a player index")
        if not isinstance(p, int) or not 0 <= p < n:
            raise ValueError(f"player {_excerpt(p)} out of range for n={n}")
        if bits >> p & 1:
            raise ValueError(f"player {p} listed twice")
        bits |= 1 << p
    return bits


def coalitions(n: int) -> Iterator[int]:
    """All nonempty coalition bitmasks on n players, in ascending order; n is checked first."""
    _require(n, MAX_PLAYERS)
    return iter(range(1, 1 << n))


@dataclass(frozen=True)
class Coalition:
    """A subset of the player set {0, ..., n-1}, encoded as a bitmask."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _require(self.n, MAX_PLAYERS)
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


@dataclass(frozen=True, init=False)
class Game(VectorOps):
    """A TU game: exact worths indexed by coalition bitmask.

    ``scaled[m] / den`` is the worth of the coalition with bitmask ``m``;
    ``scaled`` has 2^n entries and ``scaled[0] == 0``. ``den`` is positive
    and the gcd of ``den`` and every entry is 1, so equality and hashing
    mean "same worths". ``Game(n, worths)`` takes the 2^n - 1 rationals of
    the nonempty coalitions in bitmask order and clears their denominators
    once; ``worths[m - 1]`` gives them back as `Fraction`s.
    """

    n: int
    scaled: tuple[int, ...]
    den: int

    def __init__(self, n: int, worths: Sequence[Fraction]) -> None:
        _require_game_size(n)
        _require_coalition_count(worths, n, "worths")
        scaled, den = clear_denominators(worths)
        self._store(n, [0, *scaled], den)

    @classmethod
    def zero(cls, n: int) -> "Game":
        _require_game_size(n)
        return cls._from_scaled(n, [0] * (1 << n), 1)

    @classmethod
    def from_function(cls, n: int, worth: Callable[[int], Fraction]) -> "Game":
        """Build a game from a function of the coalition bitmask."""
        _require_game_size(n)
        return cls(n, tuple(Fraction(worth(m)) for m in coalitions(n)))

    @cached_property
    def worths(self) -> tuple[Fraction, ...]:
        """``worths[m - 1]`` is the worth of bitmask m; one `Fraction` per distinct worth."""
        table = {x: Fraction(x, self.den) for x in set(self.scaled)}
        return tuple(map(table.__getitem__, islice(self.scaled, 1, None)))

    def worth(self, bits: int) -> Fraction:
        return self.worths[bits - 1] if bits else _ZERO


@dataclass(frozen=True)
class DividendVector:
    """Coordinates of a game in the unanimity basis, one per nonempty coalition."""

    n: int
    dividends: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _require_coalition_count(self.dividends, self.n, "dividends")


def unanimity(n: int, generators: "Coalition | int") -> Game:
    """The game worth 1 on coalitions containing all the generators, 0 elsewhere."""
    _require_game_size(n)
    bits = _as_bits(generators, n)
    if bits == 0:
        raise ValueError("unanimity generators must be a nonempty coalition")
    if not bits < (1 << n):
        raise ValueError(f"generator bits {bits} out of range for n={n}")
    return Game._from_scaled(n, [int(m & bits == bits) for m in range(1 << n)], 1)


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``x`` and one common denominator ``d`` with ``values[k] == x[k] / d``.

    ``d`` is the lcm of the denominators, so only distinct denominators
    cost a division, and each value's denominator is read once.
    """
    dens = [v.denominator for v in values]
    distinct = set(dens)
    den = lcm(*distinct)
    scale = {q: den // q for q in distinct}
    return list(map(mul, [v.numerator for v in values], map(scale.__getitem__, dens))), den


def _as_fractions(values: Iterable[int], den: int) -> tuple[Fraction, ...]:
    """The reduced fractions ``x / den``."""
    return tuple(Fraction(x, den) if x else _ZERO for x in values)


def integer_subset_transform(values: Iterable[int], n: int, sign: int) -> list[int]:
    """The fast subset transform of one integer per bitmask, entry 0 included.

    In place on a copy and bit by bit, ``f[m] += sign * f[m without the
    bit]`` runs on every mask holding the bit: O(2^n * n) integer
    operations. With ``sign=-1`` this is the Möbius transform (worths to
    dividends), with ``sign=+1`` the zeta transform (dividends to worths).
    Entry 0 is the empty coalition's and stays what it was (0 for a game).
    """
    f = list(values)
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
    return f


def dividends(game: Game) -> DividendVector:
    """Invert the subset-sum relation between worths and unanimity coordinates.

    Runs `integer_subset_transform` with ``sign=-1`` on the game's integer
    worths; each dividend becomes a reduced `Fraction` over the game's
    denominator only at the end.
    """
    h = integer_subset_transform(game.scaled, game.n, -1)
    return DividendVector(game.n, _as_fractions(h[1:], game.den))


def from_dividends(d: DividendVector) -> Game:
    """Rebuild the worth vector: each coalition sums the dividends of its subsets.

    The dividends are scaled to integers by the lcm of their denominators
    and run through the same `integer_subset_transform` as `dividends`,
    with ``sign=+1``; the integers become the game directly.
    """
    scaled, den = clear_denominators(d.dividends)
    return Game._from_scaled(d.n, integer_subset_transform([0, *scaled], d.n, +1), den)


def harsanyi_inner(g: Game, h: Game) -> Fraction:
    """Dot product of dividend coordinates; unanimity games are orthonormal in it."""
    _require_same_n(g.n, h.n)
    dg = integer_subset_transform(g.scaled, g.n, -1)
    dh = integer_subset_transform(h.scaled, h.n, -1)
    return Fraction(sum(map(mul, dg, dh)), g.den * h.den)


@dataclass(frozen=True)
class HOrthonormalBasis:
    """A basis of the game space that is exactly orthonormal in `harsanyi_inner`."""

    n: int
    vectors: tuple[Game, ...]
    provenance: str = field(compare=False)

    def __post_init__(self) -> None:
        _require_coalition_count(self.vectors, self.n, "basis vectors")
        for v in self.vectors:
            if v.n != self.n:
                raise ValueError("basis vector has mismatched player count")

    def dividend_rows(self) -> list[tuple[Fraction, ...]]:
        """Unanimity coordinates of each basis vector, row per vector."""
        return [dividends(v).dividends for v in self.vectors]

    def gram_is_identity(self) -> bool:
        """True when every pairwise inner product matches the identity matrix."""
        return first_non_orthonormal_pair(self.dividend_rows()) is None


def first_non_orthonormal_pair(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, Fraction, Fraction] | None:
    """The first pair of rows whose dot product is not the identity entry.

    Returns ``(i, j, product, expected)`` for the first ``i <= j`` in row
    order, or ``None`` when the rows are exactly orthonormal.
    """
    d = len(rows)
    for i in range(d):
        for j in range(i, d):
            expected = _ONE if i == j else _ZERO
            total = _dot(rows[i], rows[j])
            if total != expected:
                return i, j, total, expected
    return None


def _dot(u: Iterable[Fraction], v: Iterable[Fraction]) -> Fraction:
    """Dot product of two rational vectors, skipping products with a zero factor."""
    total = _ZERO
    for x, y in zip(u, v):
        if x and y:
            total += x * y
    return total


def unanimity_basis(n: int) -> HOrthonormalBasis:
    """The canonical orthonormal basis made of all unanimity games."""
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
    _require(n, MAX_BASIS_PLAYERS, "random basis player count")
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
