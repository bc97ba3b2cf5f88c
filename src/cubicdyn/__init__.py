"""Birational dynamics on affine cubic character-variety surfaces.

Subpackages: params (parameter spaces and walls), surface (involutions,
braid maps, the Coxeter composition), lattice (exact cohomology action),
lines (the 27 lines), counting (exact counts and the periodic-point
solver), cli (command-line front end).
"""

from .params import (
    KappaPoint,
    MonodromyTraces,
    EigenParams,
    ThetaPoint,
    WallReport,
    kappa_to_traces,
    kappa_to_eigen,
    traces_from_eigen,
    traces_to_theta,
    rh_params,
    discriminant,
    wall_membership,
)
from .surface import (
    AffinePoint,
    GroupWord,
    cubic_eval,
    sigma_apply,
    g_apply,
    word_apply,
    coxeter_apply,
    coxeter_jacobian,
    parse_word,
)
from .lattice import (
    CohomClass,
    LatticeEndo,
    LineLabel,
    sigma_star,
    coxeter_star,
    charpoly,
    spectral_radius,
    trace_power,
    eigenvector_checks,
    intersection,
)
from .lines import (
    ProjectiveLine,
    tritangent_line,
    line_from_params,
    all_lines,
    lines_on_surface,
    line_on_surface,
    verify_sigma_line_action,
)
from .counting import (
    CountReport,
    SolverConfig,
    lefschetz_number,
    per_count_closed,
    per_kappa_closed,
    zeta_coefficients,
    solve_periodic,
    solve_for_kappa,
    verify_counts,
    random_offwall_kappa,
)

__version__ = "0.1.0"
