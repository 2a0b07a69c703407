"""kreinlab: a numerical laboratory for Krein systems and their entropy,
ordered-exponential, and unit-circle companions."""

__version__ = "0.1.0"

from .kernel import (
    DecayFit,
    Grid,
    InsufficientDataError,
    KernelError,
    OdeStepError,
    Propagation,
    exp_phase_tail,
    fit_decay,
    propagate,
    series_coeffs_from_samples,
)
from .potentials import (
    Potential,
    TailProfile,
    build_potential,
    oscillation_classify,
    read_potential_csv,
    tail_integral,
)
from .krein import (
    KreinPath,
    SzegoValue,
    ZeroSearchError,
    christoffel_darboux_residual,
    christoffel_m,
    decay_probe_D,
    dump_krein_csv,
    find_pi_zero,
    krein_paths,
    pi_modulus_check,
    reproducing_kernel,
    solve_krein,
    szego_limit,
)
from .ordered_exp import (
    CoeffPair,
    MatrixPath,
    a2_variation,
    a4_explicit,
    diagonal_a_n,
    f_of_s,
    iterated_integral,
    ordered_exp,
    taylor_a,
)
from .entropy import (
    EntropyScan,
    RouteDisagreement,
    classify_alpha,
    entropy_E,
    entropy_sum,
    equivalence_scan,
    n_matrix,
    sobolev_h_minus1,
    variation_D,
)
from .opuc import (
    OrderComparison,
    OrderEstimate,
    VerblunskySeq,
    bs_weight,
    christoffel_lambda,
    compare_orders,
    order_estimate,
    orthogonality_check,
    pi_from_phis,
)
