"""Inertial Krasnoselskii-Mann driver with Lyapunov diagnostics.

The iteration is

    y_k     = x_k + alpha_k (x_k - x_{k-1})
    x_{k+1} = (1 - lambda_k) y_k + lambda_k T_k(y_k)

started from ``x_0 = x_1`` so the first inertial term vanishes.  Each step
records a :class:`TraceRow` with the residual ``||y_k - T_k y_k||``, the speed
``||x_k - x_{k-1}||`` and, when a reference fixed point is supplied, the
Lyapunov quantities

    nu_k     = 1/lambda_k - 1
    delta_k  = nu_{k-1} (1 - alpha_{k-1}) ||x_k - x_{k-1}||^2
    Delta_k  = ||x_k - p||^2 - ||x_{k-1} - p||^2          (Delta_1 = 0)
    C_k      = ||x_k - p||^2 - alpha_{k-1} ||x_{k-1} - p||^2 + delta_k
                                                           (C_1 = ||x_1 - p||^2)

Entries of ``y_k`` and ``x_{k+1}`` below the smallest normal float in
magnitude are set to zero as the step forms them.  The relaxed update decays
as ``(1 - lambda)^k`` on every coordinate where ``T`` returns an exact zero
(as the l1 prox does) and the inertial term carries that decay into
``y_k``, so without the flush those coordinates turn subnormal after a few
hundred steps and every matvec on them runs many times slower.  A subnormal
entry squares to zero, so the norms a trace records do not see it; the
traces and sweep tables of the benchmark workloads are byte-identical with
and without the flush.

A run keeps only the last two iterates and the last inertial point; the
trace rows are its record.  The verify_* functions replay the per-iteration
inequalities of the convergence analysis from those rows alone, whether they
come from a :class:`RunResult` or from an exported CSV.  Distances to ``p``
and steps are columns; the cross terms the inequalities need are
reconstructed through the identity

    lambda_k^2 ||y_k - T_k y_k||^2 = ||x_{k+1} - x_k||^2
        + alpha_k^2 ||x_k - x_{k-1}||^2
        - 2 alpha_k <x_{k+1} - x_k, x_k - x_{k-1}>.

Runs are strictly sequential; independent runs share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .certificates import contraction_constant
from .linalg import Point, flush_subnormals, is_finite, norm
from .operators import OperatorHandle, residual as op_residual

__all__ = [
    "DivergenceError",
    "InequalityReport",
    "RunResult",
    "Schedule",
    "StoppingRule",
    "TraceRow",
    "picard",
    "run",
    "small_o_check",
    "verify_Ck_monotone",
    "verify_contraction",
    "verify_descent",
    "verify_product_bound",
]

# mixed absolute/relative slack used for every inequality replay; sized to
# absorb double-precision rounding over ~1e5 iterations
DEFAULT_TOL = 1e-9


# --------------------------------------------------------------------------
# schedules and stopping


class Schedule:
    """Parameter sequences ``(alpha_k, lambda_k)`` for ``k >= 1``.

    ``alpha_k`` must be nondecreasing in [0, 1); ``lambda_k`` positive
    (values above 1 are legal so over-relaxed and deliberately infeasible
    runs stay expressible).  Use the ``constant``, ``ramp`` or ``table``
    constructors.
    """

    def __init__(self, alpha_fn, lambda_fn, kind: str):
        self._alpha_fn = alpha_fn
        self._lambda_fn = lambda_fn
        self.kind = kind

    @classmethod
    def constant(cls, alpha: float, lam: float) -> "Schedule":
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if lam <= 0.0:
            raise ValueError("lambda must be > 0")
        return cls(lambda k: alpha, lambda k: lam, "constant")

    @classmethod
    def ramp(cls, alpha_start: float, alpha_end: float, ramp_iters: int, lam: float) -> "Schedule":
        """Alpha climbs linearly over ``ramp_iters`` steps, then holds."""
        if not (0.0 <= alpha_start <= alpha_end < 1.0):
            raise ValueError("need 0 <= alpha_start <= alpha_end < 1")
        if ramp_iters < 1:
            raise ValueError("ramp_iters must be >= 1")
        if lam <= 0.0:
            raise ValueError("lambda must be > 0")

        def alpha_fn(k: int) -> float:
            if k >= ramp_iters:
                return alpha_end
            return alpha_start + (alpha_end - alpha_start) * (k - 1) / (ramp_iters - 1) \
                if ramp_iters > 1 else alpha_end

        return cls(alpha_fn, lambda k: lam, "ramp-to-constant")

    @classmethod
    def table(cls, alphas: Sequence[float], lambdas: Sequence[float]) -> "Schedule":
        """Explicit per-index values; both tables hold their last entry."""
        alphas = [float(a) for a in alphas]
        lambdas = [float(l) for l in lambdas]
        if not alphas or not lambdas:
            raise ValueError("tables must be non-empty")
        for a in alphas:
            if not 0.0 <= a < 1.0:
                raise ValueError("alpha values must lie in [0, 1)")
        if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("alpha table must be nondecreasing")
        if min(lambdas) <= 0.0:
            raise ValueError("lambda values must be > 0")

        def pick(table):
            def at(k: int) -> float:
                return table[min(k - 1, len(table) - 1)]
            return at

        return cls(pick(alphas), pick(lambdas), "custom-table")

    def alpha_at(self, k: int) -> float:
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._alpha_fn(k)

    def lambda_at(self, k: int) -> float:
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._lambda_fn(k)


@dataclass(frozen=True)
class StoppingRule:
    """Stop on residual <= residual_tol, step <= stall_tol, or max_iters."""

    max_iters: int
    residual_tol: float = 0.0
    stall_tol: Optional[float] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.residual_tol < 0.0:
            raise ValueError("residual_tol must be >= 0")


# --------------------------------------------------------------------------
# trace


@dataclass
class TraceRow:
    """Diagnostics of one iteration (reference-dependent fields may be None)."""

    k: int
    residual: float
    step: float
    nu_k: float
    delta_k: float
    Delta_k: Optional[float] = None
    C_k: Optional[float] = None
    dist_to_ref: Optional[float] = None
    k_step_sq: float = 0.0
    k_res_sq: float = 0.0
    objective: Optional[float] = None
    rate_bound: Optional[float] = None


class DivergenceError(RuntimeError):
    """Raised when an iterate turns non-finite; carries the partial trace."""

    def __init__(self, k: int, partial: "RunResult"):
        super().__init__(f"divergence detected at iteration k={k}")
        self.k = k
        self.partial = partial


@dataclass
class RunResult:
    """Finished (or aborted) run: trace rows plus the final iterates.

    ``xs`` holds the last two iterates ``[x_prev, x_curr]``, ``x_curr`` being
    the newest one computed, and ``ys`` the last inertial point (empty when no
    step was taken); :func:`picard` returns ``xs = [x]``.
    """

    rows: List[TraceRow]
    xs: List[Point]
    ys: List[Point]
    status: str  # converged | max_iters | stalled | diverged
    schedule: Optional[Schedule] = None
    p_ref: Optional[Point] = None
    operator: Optional[OperatorHandle] = None

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def final_residual(self) -> float:
        return self.rows[-1].residual if self.rows else float("nan")


# --------------------------------------------------------------------------
# stepping


def run(
    T_family: Union[OperatorHandle, Callable[[int], OperatorHandle]],
    x1: Point,
    schedule: Schedule,
    stop: StoppingRule,
    p_ref: Optional[Point] = None,
    objective: Optional[Callable[[Point], float]] = None,
) -> RunResult:
    """Drive the inertial KM iteration and return the full diagnostic trace.

    ``T_family`` is a single operator handle or a map ``k -> handle``.
    Entries of magnitude below ``np.finfo(float).tiny`` are zeroed in ``y_k``
    when ``alpha_k != 0`` and in ``x_{k+1}`` when ``lambda_k != 1``, in the
    arrays the step has just formed; ``T``'s outputs and ``x1`` are never
    modified, so with ``alpha_k = 0`` and ``lambda_k = 1`` a step is
    bit-identical to ``T.apply``.  Memory stays bounded: only the last two
    iterates and the last inertial point are kept.  The run is deterministic;
    divergence raises :class:`DivergenceError` with the partial trace
    attached (intermediate overflow on the way to a detected divergence is
    silenced, since non-finite iterates are handled explicitly).
    """
    if isinstance(T_family, OperatorHandle):
        single = T_family
        fam = lambda k: single  # noqa: E731
    else:
        single = None
        fam = T_family

    x_prev = x_curr = x1
    y_last: Optional[Point] = None
    rows: List[TraceRow] = []
    status = "max_iters"
    a_prev = nu_prev = 0.0

    def result(status: str) -> RunResult:
        ys = [] if y_last is None else [y_last]
        return RunResult(rows, [x_prev, x_curr], ys, status, schedule, p_ref, single)

    with np.errstate(over="ignore", invalid="ignore"):
        d_prev = d_curr = norm(x1 - p_ref) if p_ref is not None else None
        for k in range(1, stop.max_iters + 1):
            a_k = schedule.alpha_at(k)
            l_k = schedule.lambda_at(k)
            if not 0.0 <= a_k < 1.0:
                raise ValueError(f"alpha_{k} = {a_k} outside [0, 1)")
            if a_k < a_prev:
                raise ValueError(f"alpha sequence decreases at k={k}")
            if l_k <= 0.0:
                raise ValueError(f"lambda_{k} = {l_k} must be > 0")

            T = fam(k)
            y = x_curr if a_k == 0.0 else flush_subnormals(x_curr + a_k * (x_curr - x_prev))
            ty = T.apply(y)
            res = norm(y - ty)
            # a finite residual implies finite y and T y; a merely overflowing
            # norm gets the exact test
            if not math.isfinite(res) and not (is_finite(y) and is_finite(ty)):
                raise DivergenceError(k, result("diverged"))

            step = norm(x_curr - x_prev)
            nu_k = 1.0 / l_k - 1.0
            delta = 0.0 if k == 1 else nu_prev * (1.0 - a_prev) * step * step

            Delta_k = C_k = None
            if d_curr is not None:
                if k == 1:
                    Delta_k, C_k = 0.0, d_curr * d_curr
                else:
                    Delta_k = d_curr * d_curr - d_prev * d_prev
                    C_k = d_curr * d_curr - a_prev * d_prev * d_prev + delta

            rows.append(TraceRow(
                k=k,
                residual=res,
                step=step,
                nu_k=nu_k,
                delta_k=delta,
                Delta_k=Delta_k,
                C_k=C_k,
                dist_to_ref=d_curr,
                k_step_sq=k * step * step,
                k_res_sq=k * res * res,
                objective=objective(x_curr) if objective is not None else None,
            ))
            y_last = y

            if res <= stop.residual_tol:
                status = "converged"
                break
            if stop.stall_tol is not None and k > 1 and step <= stop.stall_tol:
                status = "stalled"
                break

            x_new = ty if l_k == 1.0 else flush_subnormals((1.0 - l_k) * y + l_k * ty)
            d_new = norm(x_new - p_ref) if p_ref is not None else None
            # x_{k+1} = T y has passed the test above; a finite distance to p
            # implies a finite x_{k+1}
            known_finite = l_k == 1.0 or (d_new is not None and math.isfinite(d_new))
            if not known_finite and not is_finite(x_new):
                raise DivergenceError(k, result("diverged"))
            x_prev, x_curr = x_curr, x_new
            d_prev, d_curr = d_curr, d_new
            a_prev, nu_prev = a_k, nu_k

    return result(status)


def picard(T: OperatorHandle, x0: Point, tol: float, max_iters: int) -> RunResult:
    """Plain fixed-point iteration ``x <- T x`` without trace (reference runs)."""
    x = x0
    for k in range(1, max_iters + 1):
        tx = T.apply(x)
        r = norm(x - tx)
        # a finite residual implies a finite T x; the exact test is the fallback
        if not math.isfinite(r) and not is_finite(tx):
            raise DivergenceError(k, RunResult([], [x], [], "diverged", operator=T))
        if r <= tol:
            row = TraceRow(k=k, residual=r, step=0.0, nu_k=0.0, delta_k=0.0,
                           k_step_sq=0.0, k_res_sq=k * r * r)
            return RunResult([row], [x], [], "converged", operator=T)
        x = tx
    row = TraceRow(k=max_iters, residual=norm(x - T.apply(x)), step=0.0, nu_k=0.0,
                   delta_k=0.0)
    return RunResult([row], [x], [], "max_iters", operator=T)


# --------------------------------------------------------------------------
# inequality replays


@dataclass
class InequalityReport:
    """Per-index lhs/rhs evaluation of one inequality along a trace."""

    name: str
    ks: List[int]
    lhs: List[float]
    rhs: List[float]
    violations: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def checked(self) -> int:
        return len(self.ks)


def _unpack(trace, schedule):
    """Rows and schedule of a RunResult or a row list, reference validated.

    A RunResult's ``p_ref`` must be a fixed point of its operator (when it
    carries one), and every row must have ``dist_to_ref``.
    """
    if isinstance(trace, RunResult):
        rows, op, p_ref = trace.rows, trace.operator, trace.p_ref
        schedule = schedule or trace.schedule
    else:
        rows, op, p_ref = list(trace), None, None
    if schedule is None:
        raise ValueError("a schedule is required")
    if p_ref is not None:
        _check_ref_fixed(op, p_ref)
    if any(r.dist_to_ref is None for r in rows):
        raise ValueError("trace lacks dist_to_ref; rerun with p_ref")
    return rows, schedule


def _check_ref_fixed(op, p_ref):
    if op is not None and op_residual(op, p_ref) > 1e-10:
        raise ValueError("p_ref is not a fixed point (residual > 1e-10)")


def _alpha_second_diff_sq_from_rows(rows, i, a_k, l_k):
    """alpha_k ||x_{k+1} - 2 x_k + x_{k-1}||^2 reconstructed from scalar columns.

    Eliminating the cross term with the identity in the module docstring gives

        lambda_k^2 ||y_k - T_k y_k||^2 - (1 - alpha_k) ||x_{k+1} - x_k||^2
            + alpha_k (1 - alpha_k) ||x_k - x_{k-1}||^2,

    which never divides by alpha_k, so tiny alpha_k cannot overflow it.
    """
    if a_k == 0.0:
        return 0.0
    step_k = rows[i].step
    step_next = rows[i + 1].step
    res_k = rows[i].residual
    return max(l_k ** 2 * res_k ** 2 - (1.0 - a_k) * step_next ** 2
               + a_k * (1.0 - a_k) * step_k ** 2, 0.0)


def _y_dist_sq_from_rows(rows, i, a_k):
    """||y_k - p||^2 from the distance and step columns (x_0 = x_1 at i = 0)."""
    d_k = rows[i].dist_to_ref ** 2
    d_prevsq = rows[i - 1].dist_to_ref ** 2 if i >= 1 else d_k
    return (1.0 + a_k) * d_k - a_k * d_prevsq + a_k * (1.0 + a_k) * rows[i].step ** 2


def verify_descent(trace, schedule: Optional[Schedule] = None,
                   tol: float = DEFAULT_TOL) -> InequalityReport:
    """Replay the one-step descent inequality along the trace.

    At each k it checks

        Delta_{k+1} + delta_{k+1} + nu_k alpha_k ||x_{k+1} - 2 x_k + x_{k-1}||^2
            <= alpha_k Delta_k
               + [alpha_k (1 + alpha_k) + nu_k alpha_k (1 - alpha_k)] ||x_k - x_{k-1}||^2

    with slack ``tol * (1 + |rhs|)`` for every pair of consecutive rows.  The
    trace needs the ``dist_to_ref`` column; a :class:`RunResult` that carries
    its operator has its ``p_ref`` validated as a fixed point first.
    """
    rows, schedule = _unpack(trace, schedule)
    report = InequalityReport("descent", [], [], [])
    for i in range(len(rows) - 1):
        k = rows[i].k
        a_k = schedule.alpha_at(k)
        l_k = schedule.lambda_at(k)
        nu_k = 1.0 / l_k - 1.0
        d_k = rows[i].dist_to_ref ** 2
        d_next = rows[i + 1].dist_to_ref ** 2
        d_prevsq = rows[i - 1].dist_to_ref ** 2 if i >= 1 else d_k
        Delta_next = d_next - d_k
        Delta_k = 0.0 if k == 1 else d_k - d_prevsq
        lhs = Delta_next + rows[i + 1].delta_k \
            + nu_k * _alpha_second_diff_sq_from_rows(rows, i, a_k, l_k)
        rhs = a_k * Delta_k + (a_k * (1.0 + a_k) + nu_k * a_k * (1.0 - a_k)) * rows[i].step ** 2
        report.ks.append(k)
        report.lhs.append(lhs)
        report.rhs.append(rhs)
        if lhs > rhs + tol * (1.0 + abs(rhs)):
            report.violations.append(k)
    return report


def verify_Ck_monotone(trace, tol: float = DEFAULT_TOL) -> Optional[int]:
    """First k violating ``C_{k+1} <= C_k + tol (1 + C_k)`` / ``C_k >= -tol``, else None."""
    rows = trace.rows if isinstance(trace, RunResult) else list(trace)
    if any(r.C_k is None for r in rows):
        raise ValueError("trace lacks C_k; rerun with p_ref")
    for i, r in enumerate(rows):
        if r.C_k < -tol:
            return r.k
        if i + 1 < len(rows) and rows[i + 1].C_k > r.C_k + tol * (1.0 + r.C_k):
            return r.k
    return None


def verify_contraction(trace, q: float, xi: float, schedule: Optional[Schedule] = None,
                       tol: float = DEFAULT_TOL) -> InequalityReport:
    """Replay the per-step contraction bound for q-quasi-contractive runs:

        ||x_{k+1} - p||^2 <= Q(lambda_k, q, xi) ||y_k - p||^2
                             - xi lambda_k (1 - lambda_k) ||y_k - T y_k||^2.
    """
    rows, schedule = _unpack(trace, schedule)
    report = InequalityReport("contraction", [], [], [])
    for i in range(len(rows) - 1):
        k = rows[i].k
        a_k = schedule.alpha_at(k)
        l_k = schedule.lambda_at(k)
        Qk = contraction_constant(l_k, q, xi)
        lhs = rows[i + 1].dist_to_ref ** 2
        rhs = Qk * _y_dist_sq_from_rows(rows, i, a_k) \
            - xi * l_k * (1.0 - l_k) * rows[i].residual ** 2
        report.ks.append(k)
        report.lhs.append(lhs)
        report.rhs.append(rhs)
        if lhs > rhs + tol * (1.0 + abs(rhs)):
            report.violations.append(k)
    return report


def verify_product_bound(trace, q: float, xi: float, schedule: Optional[Schedule] = None,
                         tol: float = DEFAULT_TOL) -> InequalityReport:
    """Replay the certificate product bound

        ||x_{k+1} - p||^2 - alpha_k ||x_k - p||^2 + xi delta_{k+1}
            <= prod_{j<=k} Q(lambda_j, q, xi) * ||x_1 - p||^2.
    """
    rows, schedule = _unpack(trace, schedule)
    report = InequalityReport("product_bound", [], [], [])
    d1_sq = rows[0].dist_to_ref ** 2
    prod = 1.0
    for i in range(len(rows) - 1):
        k = rows[i].k
        a_k = schedule.alpha_at(k)
        prod *= contraction_constant(schedule.lambda_at(k), q, xi)
        lhs = rows[i + 1].dist_to_ref ** 2 - a_k * rows[i].dist_to_ref ** 2 \
            + xi * rows[i + 1].delta_k
        rhs = prod * d1_sq
        report.ks.append(k)
        report.lhs.append(lhs)
        report.rhs.append(rhs)
        if lhs > rhs + tol * (1.0 + abs(rhs)):
            report.violations.append(k)
    return report


def small_o_check(zeta: Sequence[float]) -> bool:
    """Finite-sample proxy for ``k * zeta_k -> 0`` on summable inputs.

    ``zeta`` must be positive and nonincreasing (validated; tiny relative
    upticks at rounding level are tolerated).  Returns True when the maximum
    of ``k * zeta_k`` over the last quartile is below 10% of its maximum over
    the first quartile.  A documented heuristic, not a limit statement.
    """
    zs = [float(z) for z in zeta]
    if len(zs) < 4:
        raise ValueError("need at least 4 values")
    if min(zs) <= 0.0:
        raise ValueError("values must be positive")
    for a, b in zip(zs, zs[1:]):
        if b > a * (1.0 + 1e-12):
            raise ValueError("sequence is not nonincreasing")
    kz = [(i + 1) * z for i, z in enumerate(zs)]
    quart = max(1, len(zs) // 4)
    return max(kz[-quart:]) < 0.1 * max(kz[:quart])
