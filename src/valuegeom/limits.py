"""Every size limit of the package, and the one range check that enforces them.

Each limit is checked before anything of size n is built. The helpers are
private: the per-layer benchmark tracer wraps every public function, and
the range check runs on every profile operation.
"""

from __future__ import annotations

import math
import re

MIN_PLAYERS = 2
MAX_PLAYERS = 30  # games, bases and general maps: 2^n - 1 entries each; games also meet the budget below
MAX_CLOSED_FORM_PLAYERS = 64  # symmetric profiles, projections, per-size decompositions, fits
MAX_TABULATE_PLAYERS = 20
MAX_TREND_PLAYERS = 30

#: Memory budget, in bytes, for one game and the working lists of the
#: kernels that read it. A game on n players is refused before any of its
#: 2^n entries is allocated when ``_GAME_BYTES_PER_COALITION << n`` exceeds
#: it; with 1 GiB the largest game has 24 players.
GAME_MEMORY_BUDGET = 1 << 30

# Bytes charged per coalition. `valuegeom eval` on sparse games peaked at
# 26, 35 and 53 MB for n = 18, 19 and 20: 36 bytes per added coalition over
# the interpreter's own ~17 MB, rounded up for worths wider than small ints.
_GAME_BYTES_PER_COALITION = 64

#: Largest player count for random basis generation; a basis has
#: (2^n - 1)^2 rational coefficients, which grows fast.
MAX_BASIS_PLAYERS = 5

#: Hard caps keeping the definition-sum oracles inside a sane runtime.
#: These are configuration constants, never silent truncations: exceeding a
#: cap raises.
SHAPLEY_ORACLE_MAX_PLAYERS = 8
BANZHAF_ORACLE_MAX_PLAYERS = 20
SOLIDARITY_ORACLE_MAX_PLAYERS = 12

#: Direct coalition enumeration is kept as a cross-check up to this size.
MAX_ENUMERATION_PLAYERS = 12

#: General (non-symmetric) maps carry n * (2^n - 1) rationals; cap their use.
MAX_GENERAL_MAP_PLAYERS = 6

#: Largest decimal exponent, in absolute value, of a worth literal such as
#: ``"1e300"``. Reading ``10**e`` exactly costs time superlinear in ``e``, so
#: a larger exponent is refused before any digits are built; 4300 matches
#: CPython's default limit on the digits of an int read from a string.
MAX_WORTH_EXPONENT = 4300

# The exponent of a decimal literal, in the grammar `Fraction` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

#: How many characters of an offending value an error message repeats.
_EXCERPT_CHARS = 40

_LOG10_2 = math.log10(2)


def _require(n: int, high: int, what: str = "player count", low: int = MIN_PLAYERS, error=ValueError) -> None:
    """Raise ``error`` naming ``what`` unless ``low <= n <= high``."""
    if not low <= n <= high:
        raise error(f"{what} must be in [{low}, {high}], got {n}")


def _require_game_size(n: int, error=ValueError) -> None:
    """Raise ``error`` unless n is a valid player count whose game fits `GAME_MEMORY_BUDGET`."""
    _require(n, MAX_PLAYERS, error=error)
    need = _GAME_BYTES_PER_COALITION << n
    if need > GAME_MEMORY_BUDGET:
        raise error(
            f"a game on {n} players needs about {need >> 20} MiB, "
            f"beyond the game memory budget GAME_MEMORY_BUDGET of {GAME_MEMORY_BUDGET >> 20} MiB"
        )


def _excerpt(value) -> str:
    """``repr(value)``, or its first characters and its length when it is long.

    A long integer keeps its leading digits unquoted, followed by its digit
    count, so it does not read like a string. Neither is found through
    ``str``, which refuses ints beyond CPython's digit limit.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        magnitude = abs(value)
        digits = _digit_count(magnitude)
        keep = _EXCERPT_CHARS - (value < 0)
        if digits <= keep:
            return repr(value)
        leading = magnitude // 10 ** (digits - keep)
        return f"{'-' * (value < 0)}{leading}… ({digits} digits)"
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _EXCERPT_CHARS:
        return repr(value)
    return f"{text[:_EXCERPT_CHARS] + '…'!r} ({len(text)} characters)"


def _digit_count(m: int) -> int:
    """The number of decimal digits of ``m >= 0``, from its bit length and one or two powers of ten."""
    digits = max(1, int((m.bit_length() - 1) * _LOG10_2) + 1)
    if digits > 1 and m < 10 ** (digits - 1):
        return digits - 1
    return digits + (m >= 10 ** digits)


def _check_exponent(literal: str, what: str, error=ValueError) -> None:
    """Raise ``error`` naming ``what`` if the literal's decimal exponent exceeds `MAX_WORTH_EXPONENT`."""
    match = _EXPONENT.search(literal)
    if match is None:
        return
    try:
        exponent = int(match[1])
    except ValueError:
        return  # too many digits for int(); Fraction fails on it the same way
    if abs(exponent) > MAX_WORTH_EXPONENT:
        raise error(f"{what} {_excerpt(literal)} has a decimal exponent beyond ±{MAX_WORTH_EXPONENT}")
