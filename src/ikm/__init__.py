"""Inertial Krasnoselskii-Mann iterations with built-in certificates.

The package drives relaxed, inertial fixed-point iterations for families of
(quasi-)nonexpansive operators, evaluates the parameter-feasibility
inequalities and worst-case rate constants governing them, replays the
per-iteration Lyapunov inequalities along finished runs, and ships seven
concrete splitting schemes with deterministic benchmark problems.
"""

from .certificates import (
    CheckResult,
    RelaxationSeqReport,
    contraction_constant,
    check_relaxation_constant,
    check_relaxation_seq,
    check_contraction_condition,
    lambda_alpha_1,
    lambda_alpha_q,
    lambda_grid,
    feasibility_poly,
    rate_bound,
    xi_threshold,
)
from .engine import (
    DivergenceError,
    InequalityReport,
    RunResult,
    Schedule,
    StoppingRule,
    Trace,
    TraceRow,
    picard,
    run,
    small_o_check,
    verify_Ck_monotone,
    verify_contraction,
    verify_descent,
    verify_product_bound,
)
from .linalg import (
    DifferenceMap,
    GramMap,
    LinearMap,
    SpectralMap,
    dot,
    norm,
    operator_norm_estimate,
    solve_spd,
)
from .operators import (
    OperatorHandle,
    ProxFunction,
    box,
    davis_yin_op,
    diagonal_quadratic,
    douglas_rachford_op,
    forward_backward_op,
    gradient_step_op,
    l1,
    l2_ball,
    primal_dual_op,
    prox,
    proximal_op,
    quadratic,
    residual,
    split_dr_op,
    zero,
)
from .problems import (
    BenchmarkInstance,
    ReferenceNotConverged,
    make_feasibility,
    make_lasso,
    make_quadratic,
    make_three_term,
    make_tv1d,
)
from .rng import SplitMix64

__version__ = "0.1.0"
