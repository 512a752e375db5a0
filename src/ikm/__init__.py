"""Inertial Krasnoselskii-Mann iterations with built-in certificates.

The package drives relaxed, inertial fixed-point iterations for families of
(quasi-)nonexpansive operators, evaluates the parameter-feasibility
inequalities and worst-case rate constants governing them, replays the
per-iteration Lyapunov inequalities along finished runs, and ships seven
concrete splitting schemes with deterministic benchmark problems.

Imported before NumPy, in a process that sets none of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, the
package sets ``OPENBLAS_NUM_THREADS=1``, so its BLAS calls run on one thread.

``import ikm`` loads :mod:`ikm.certificates`, :mod:`ikm.engine`,
:mod:`ikm.linalg` and :mod:`ikm.rng`; :mod:`ikm.operators` and
:mod:`ikm.problems`, and the names the package takes from them, load on
first access.
"""

import os
import sys

# Every ikm command is a fresh process, and its matrices (at most 200 x 500 in
# the generators) gain nothing from OpenBLAS's thread pool: on a 2-vCPU host
# starting the pool made `import numpy` take 160 ms against 92 ms on one
# thread, and waking it in the lasso build's Gram product and eigvalsh took
# 56-70 ms against 4 ms.  A caller's thread count is kept as given.
if "numpy" not in sys.modules and not any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    ReferenceNotConverged,
    RunResult,
    Schedule,
    StoppingRule,
    Trace,
    TraceRow,
    Verdict,
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
    norm,
    operator_norm_estimate,
    solve_spd,
)
from .rng import SplitMix64

__version__ = "0.1.0"

# names resolved on first access (PEP 562), so that a process which builds
# no problem (ikm certify, check-params, lambda-grid) never compiles the
# modules that define them; each is the submodule's own object
_LAZY = {
    "operators": (
        "OperatorHandle", "ProxFunction", "box", "davis_yin_op", "diagonal_quadratic",
        "douglas_rachford_op", "forward_backward_op", "gradient_step_op", "l1", "l2_ball",
        "primal_dual_op", "prox", "proximal_op", "quadratic", "split_dr_op", "zero",
    ),
    "problems": (
        "BenchmarkInstance", "make_feasibility", "make_lasso", "make_quadratic",
        "make_three_term", "make_tv1d",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's own machinery, so -X importtime reports the module
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_NAMES))
