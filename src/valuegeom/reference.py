"""Reference code: definition oracles that check the production closed forms.

Each function here recomputes a quantity straight from its definition
(permutations, subsets, within-coalition averages, coalition-by-coalition
sums, an arbitrary orthonormal basis), independently of the closed forms in
`values` and `geometry`. The production paths never call this module; only
the `verify` suite, the `basis-check` command and the tests do, so a fault
in a closed form cannot hide behind the same fault here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .games import Game, HOrthonormalBasis, _dot, _require_same_n, coalitions, first_non_orthonormal_pair
from .limits import BANZHAF_ORACLE_MAX_PLAYERS, MAX_ENUMERATION_PLAYERS, MAX_GENERAL_MAP_PLAYERS
from .limits import SHAPLEY_ORACLE_MAX_PLAYERS, SOLIDARITY_ORACLE_MAX_PLAYERS, _require
from .values import GeneralLinearValueMap, PayoffVector, SymmetricValueProfile

_ZERO = Fraction(0)


def shapley_oracle(game: Game) -> PayoffVector:
    """Average marginal contribution over all player orderings, by full enumeration."""
    n = game.n
    _require(n, SHAPLEY_ORACLE_MAX_PLAYERS, "permutation enumeration player count")
    worths = [_ZERO, *game.worths]
    totals = [_ZERO] * n
    for perm in itertools.permutations(range(n)):
        mask = 0
        for i in perm:
            grown = mask | (1 << i)
            before, after = worths[mask], worths[grown]
            if after != before:
                totals[i] += after - before
            mask = grown
    count = factorial(n)
    return tuple(t / count for t in totals)


def banzhaf_oracle(game: Game) -> PayoffVector:
    """Average marginal contribution over all coalitions of the other players."""
    n = game.n
    _require(n, BANZHAF_ORACLE_MAX_PLAYERS, "subset enumeration player count")
    worths = [_ZERO, *game.worths]
    scale = 1 << (n - 1)
    result = []
    for i in range(n):
        bit = 1 << i
        total = _ZERO
        for mask in range(1 << n):
            if mask & bit:
                continue
            before, after = worths[mask], worths[mask | bit]
            if after != before:
                total += after - before
        result.append(total / scale)
    return tuple(result)


def solidarity_oracle(game: Game) -> PayoffVector:
    """Definition sum of the solidarity value.

    Each coalition containing a player contributes its within-coalition
    average marginal contribution, weighted by (n-s)! (s-1)! / n!.
    """
    n = game.n
    _require(n, SOLIDARITY_ORACLE_MAX_PLAYERS, "coalition enumeration player count")
    worths = [_ZERO, *game.worths]
    fact_n = factorial(n)
    weight = [_ZERO] * (n + 1)
    for s in range(1, n + 1):
        weight[s] = Fraction(factorial(n - s) * factorial(s - 1), fact_n)
    averaged = [_ZERO] * (1 << n)
    for mask in range(1, 1 << n):
        s = mask.bit_count()
        total = _ZERO
        rest = mask
        while rest:
            bit = rest & -rest
            before, after = worths[mask ^ bit], worths[mask]
            if after != before:
                total += after - before
            rest ^= bit
        averaged[mask] = total / s
    result = []
    for i in range(n):
        bit = 1 << i
        total = _ZERO
        for mask in range(1, 1 << n):
            if mask & bit and averaged[mask]:
                total += weight[mask.bit_count()] * averaged[mask]
        result.append(total)
    return tuple(result)


def inner_L_by_enumeration(p: SymmetricValueProfile, q: SymmetricValueProfile) -> Fraction:
    """Same inner product as `geometry.inner_L`, summed payoff-by-payoff over every coalition."""
    _require_same_n(p.n, q.n)
    _require(p.n, MAX_ENUMERATION_PLAYERS, "enumeration player count")
    return sum((_dot(p.unanimity_payoff(mask), q.unanimity_payoff(mask)) for mask in coalitions(p.n)), _ZERO)


def inner_L_general(p: GeneralLinearValueMap, q: GeneralLinearValueMap) -> Fraction:
    """Inner product of two general linear maps, summed over all unanimity games."""
    _require_same_n(p.n, q.n)
    _require(p.n, MAX_GENERAL_MAP_PLAYERS, "general map player count")
    return sum(map(_dot, p.actions, q.actions), _ZERO)


def inner_L_in_basis(
    p: GeneralLinearValueMap, q: GeneralLinearValueMap, basis: HOrthonormalBasis
) -> Fraction:
    """Inner product computed in an arbitrary orthonormal basis of the game space.

    Each basis game is expanded in dividends and the maps are applied by
    linearity. The result must agree exactly with `inner_L_general`; the
    basis is validated first and rejected if its pairwise inner products
    differ from the identity matrix.
    """
    _require_same_n(p.n, q.n, basis.n)
    rows = basis.dividend_rows()
    bad = first_non_orthonormal_pair(rows)
    if bad is not None:
        i, j, acc, expected = bad
        raise ValueError(f"basis is not orthonormal: vectors {i} and {j} pair to {acc}, expected {expected}")
    # A map's payoff to player i on a basis game is the row's dot product
    # with the map's column of unanimity payoffs to player i.
    p_columns, q_columns = list(zip(*p.actions)), list(zip(*q.actions))
    total = _ZERO
    for row in rows:
        p_image = [_dot(row, column) for column in p_columns]
        q_image = [_dot(row, column) for column in q_columns]
        total += _dot(p_image, q_image)
    return total
