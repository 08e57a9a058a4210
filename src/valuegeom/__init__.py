"""Exact inner-product geometry of linear value maps on cooperative games.

Everything is computed in exact rational arithmetic: TU games and their
dividend coordinates, symmetric value profiles (Shapley, equal division,
Banzhaf, equal surplus division, solidarity, and the mixed family between
Shapley and equal division), orthogonal projection onto the mixed family,
per-size decompositions, multi-direction fits via the normal equations, and
large-n trend tables. Floats appear only at the reporting boundary.
"""

from .combinatorics import (
    ConsistencyError,
    axis_norm_sq,
    binomial_harmonic_sum,
    harmonic_number,
    power_harmonic_sum,
    solidarity_stratum_epsilon,
)
from .fitting import DependentDirections, GramFit, gram_fit, mixture_profile, solve_normal_equations
from .games import (
    Coalition,
    DividendVector,
    Game,
    HOrthonormalBasis,
    coalitions,
    dividends,
    from_dividends,
    harsanyi_inner,
    random_h_orthonormal_basis,
    rotate_pair,
    signed_permutation,
    unanimity,
    unanimity_basis,
)
from .geometry import (
    ProjectionReport,
    banzhaf_optimal_epsilon,
    esd_optimal_epsilon,
    inner_L,
    optimal_epsilon,
    projection_report,
    residual_profile,
)
from .reference import (
    banzhaf_oracle,
    inner_L_by_enumeration,
    inner_L_general,
    inner_L_in_basis,
    shapley_oracle,
    solidarity_oracle,
)
from .serialize import GameInputError, fraction_str, game_from_json, load_game, rational_to_json
from .strata import (
    Moments,
    PythagorasBreakdown,
    StratifiedCoordinates,
    StratumWeights,
    generalized_pythagoras,
    r2_from_moments,
    reconstruct,
    stratified_coords,
    weighted_moments,
    weights,
)
from .trends import TrendRow, trend_csv, trend_table
from .values import (
    GeneralLinearValueMap,
    PayoffVector,
    SymmetricValueProfile,
    SymmetryViolation,
    egalitarian_shapley,
    evaluate,
    named_profile,
    profile_for_token,
    profile_from_general,
    worth_weights,
)

__version__ = "0.1.0"
