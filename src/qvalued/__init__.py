"""Metric geometry of unordered Q-tuples of points in R^n.

Assignment metrics and splitting machinery (``qspace``), the
sorted-projection, polynomial-coefficient and dual-functional embeddings
(``embed``), Lipschitz extension operators (``extend``), discrete Sobolev
energies with a p-Dirichlet solver (``energy``, ``grids``), and an
empirical property harness (``verify``).
"""

from .embed import (
    DecodeFailure,
    DirectionFrame,
    EmbeddedVector,
    FrameConstructionError,
    build_frame,
    decode,
    pi_e,
    whitney_count,
    whitney_eta,
    whitney_eta_inverse_1d,
    xi,
    xi0,
    xi_isometry_radius,
    xi_isometry_radius_many,
    xi_many,
    zeta_dual_gap,
    zeta_dual_gap_many,
)
from .energy import (
    EnergyReport,
    discrete_energy,
    dp_distance,
    lipschitz_truncation,
    max_difference_quotient,
    solve_dirichlet,
    trace,
    truncate_coords,
)
from .extend import (
    ArgumentError,
    BoundarySample,
    ConeExtension,
    QueryError,
    WhitneyExtension,
    cone_extend,
    extend_to_plane,
)
from .grids import BOUNDARY, INTERIOR, OUTSIDE, GridFunction, disk_mask, empty_grid, square_mask
from .qspace import (
    Matching,
    MetricKind,
    QTuple,
    SplitRadiusError,
    concatenate,
    dist,
    dist_many,
    dist_sorted_1d,
    local_split,
    match_many,
    split_distance,
    split_distance_many,
    support_sigma,
)
from .verify import CheckConfig, CheckReport, run_all

__version__ = "0.1.0"
