"""Inertial Krasnoselskii-Mann driver with Lyapunov diagnostics.

The iteration is

    y_k     = x_k + alpha_k (x_k - x_{k-1})
    x_{k+1} = (1 - lambda_k) y_k + lambda_k T(y_k)

started from ``x_0 = x_1`` so the first inertial term vanishes.  A run's
record is one :class:`Trace` of NumPy columns, one entry per step.  Each step
measures only what it decides on: the residual ``||y_k - T y_k||`` that the
stopping rule reads (recorded with ``alpha_k`` and ``lambda_k``) and whether
``x_{k+1}`` is finite.  The speed ``||x_k - x_{k-1}||``, the distance
``||x_k - p||`` when a reference fixed point is supplied and the objective
when one is are measured once per block of ``BLOCK_ROWS`` steps, from the
differences and iterates the steps copied into the block: row dots by
``np.vecdot`` and one objective call on the ``(r, n)`` stack, which give the
bits per-step ``np.dot`` norms and per-point objective calls would.  Once
per run (also for the partial trace a :class:`DivergenceError` carries) the
rest is derived from those columns:
``k ||x_k - x_{k-1}||^2``, ``k ||y_k - T y_k||^2`` and the Lyapunov
quantities

    nu_k     = 1/lambda_k - 1
    delta_k  = nu_{k-1} (1 - alpha_{k-1}) ||x_k - x_{k-1}||^2
    Delta_k  = ||x_k - p||^2 - ||x_{k-1} - p||^2          (Delta_1 = 0)
    C_k      = ||x_k - p||^2 - alpha_{k-1} ||x_{k-1} - p||^2 + delta_k
                                                           (C_1 = ||x_1 - p||^2)

For an operator whose handle sets ``exact_zeros``, entries of ``y_k`` and
``x_{k+1}`` below the smallest normal float in magnitude are set to zero as
the step forms them.  The relaxed update decays as ``(1 - lambda)^k`` on
every coordinate where ``T`` returns an exact zero (as the l1 prox does)
and the inertial term carries that decay into ``y_k``, so without the flush
those coordinates turn subnormal after a few hundred steps and every matvec
on them runs many times slower.  A subnormal entry squares to zero, so the
norms a trace records do not see it; the traces and sweep tables of the
benchmark workloads are byte-identical with and without the flush.

The derived columns use the scalar products of the step in the same order
(``a_{k-1} * d_{k-1} * d_{k-1}``, never ``a * d**2``), so they have the
bits a per-step computation would give them.

A run keeps only the last two iterates and the last inertial point; the
trace is its record.  The verify_* functions replay the per-iteration
inequalities of the convergence analysis as array expressions over the
trace columns alone, whether they come from a :class:`RunResult` or from an
exported CSV.  They evaluate ``ROW_CHUNK`` indices at a time (the indices
``[lo, hi)`` read the rows ``lo - 1 .. hi``) into the report's preallocated
``lhs`` and ``rhs``, so a replay's memory is one chunk of temporaries plus
its report; the values are those of the whole-column expressions, bit for
bit.  Distances to ``p`` and steps are columns; the cross terms the
inequalities need are reconstructed through the identity

    lambda_k^2 ||y_k - T y_k||^2 = ||x_{k+1} - x_k||^2
        + alpha_k^2 ||x_k - x_{k-1}||^2
        - 2 alpha_k <x_{k+1} - x_k, x_k - x_{k-1}>.

Runs are strictly sequential; independent runs share no mutable state.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .certificates import contraction_constant, scalar_column
from .linalg import flush_subnormals, is_finite, norm
from .operators import OperatorHandle, residual as op_residual

__all__ = [
    "DivergenceError",
    "InequalityReport",
    "RunResult",
    "Schedule",
    "StoppingRule",
    "Trace",
    "TraceRow",
    "as_trace",
    "derive_trace",
    "monotone_prefix",
    "picard",
    "run",
    "schedule_columns",
    "small_o_check",
    "verify_Ck_monotone",
    "verify_contraction",
    "verify_descent",
    "verify_product_bound",
]

# mixed absolute/relative slack used for every inequality replay; sized to
# absorb double-precision rounding over ~1e5 iterations
DEFAULT_TOL = 1e-9

# rows per chunk of every chunked pass over a trace: iteration, CSV write
# and read, scalar columns and the verify_* replays.  Large enough to
# amortize a NumPy call or a "%" format over the chunk, small enough that a
# chunk's temporaries, text or tokens stay in the tens of kilobytes
ROW_CHUNK = 256

# rows per block of iterate differences (and iterates) that run() measures
# at once; 32 rows of a 399-vector are 100 KiB
BLOCK_ROWS = 32


# --------------------------------------------------------------------------
# schedules and stopping


class Schedule:
    """Parameter sequences ``(alpha_k, lambda_k)`` for ``k >= 1``.

    ``alpha_k`` must be nondecreasing in [0, 1); ``lambda_k`` positive
    (values above 1 are legal so over-relaxed and deliberately infeasible
    runs stay expressible).  Use the ``constant``, ``ramp`` or ``table``
    constructors.  ``alpha_col`` and ``lambda_col`` map an int64 index
    array to the float64 column of the same values (the constructors give
    closed forms); without them a column takes one scalar call per index.
    ``const`` is ``(alpha, lambda)`` for a :meth:`constant` schedule, else None.
    """

    def __init__(self, alpha_fn, lambda_fn, kind: str, alpha_col=None, lambda_col=None):
        self._alpha_fn = alpha_fn
        self._lambda_fn = lambda_fn
        self.kind = kind
        self.const: Optional[Tuple[float, float]] = None
        self._alpha_col = alpha_col or (lambda ks: scalar_column(alpha_fn, ks))
        self._lambda_col = lambda_col or (lambda ks: scalar_column(lambda_fn, ks))

    @classmethod
    def constant(cls, alpha: float, lam: float) -> "Schedule":
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if lam <= 0.0:
            raise ValueError("lambda must be > 0")
        schedule = cls(lambda k: alpha, lambda k: lam, "constant",
                       lambda ks: np.full(ks.size, alpha, dtype=np.float64),
                       lambda ks: np.full(ks.size, lam, dtype=np.float64))
        schedule.const = (alpha, lam)
        return schedule

    @classmethod
    def ramp(cls, alpha_start: float, alpha_end: float, ramp_iters: int,
             lambdas: Sequence[float]) -> "Schedule":
        """Alpha climbs linearly over ``ramp_iters`` steps, then holds;
        ``lambdas`` is a table that holds its last entry, as in :meth:`table`."""
        if not (0.0 <= alpha_start <= alpha_end < 1.0):
            raise ValueError("need 0 <= alpha_start <= alpha_end < 1")
        if ramp_iters < 1:
            raise ValueError("ramp_iters must be >= 1")

        def alpha_fn(k: int) -> float:
            if k >= ramp_iters:
                return alpha_end
            return alpha_start + (alpha_end - alpha_start) * (k - 1) / (ramp_iters - 1)

        lambda_fn, lambda_col = _hold_last(_lambda_table(lambdas))
        return cls(alpha_fn, lambda_fn, "ramp-to-constant", lambda_col=lambda_col)

    @classmethod
    def table(cls, alphas: Sequence[float], lambdas: Sequence[float]) -> "Schedule":
        """Explicit per-index values; both tables hold their last entry."""
        alphas = [float(a) for a in alphas]
        if not alphas:
            raise ValueError("tables must be non-empty")
        for a in alphas:
            if not 0.0 <= a < 1.0:
                raise ValueError("alpha values must lie in [0, 1)")
        if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("alpha table must be nondecreasing")
        alpha_fn, alpha_col = _hold_last(alphas)
        lambda_fn, lambda_col = _hold_last(_lambda_table(lambdas))
        return cls(alpha_fn, lambda_fn, "custom-table", alpha_col, lambda_col)

    def alpha_at(self, k: int) -> float:
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._alpha_fn(k)

    def lambda_at(self, k: int) -> float:
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._lambda_fn(k)


def _lambda_table(lambdas: Sequence[float]) -> List[float]:
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("tables must be non-empty")
    if min(lambdas) <= 0.0:
        raise ValueError("lambda values must be > 0")
    return lambdas


def _hold_last(table: List[float]) -> Tuple[Callable[[int], float],
                                           Callable[[np.ndarray], np.ndarray]]:
    """``k -> table[min(k - 1, len - 1)]``, and the same over an index array
    (a float64 copy of the table indexed, so the same floats)."""
    last = len(table) - 1
    values = np.array(table, dtype=np.float64)
    return (lambda k: table[min(k - 1, last)]), (lambda ks: values[np.minimum(ks - 1, last)])


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
    """Diagnostics of one iteration (reference-dependent fields may be None).

    The row view of a :class:`Trace`: ``Trace[i]`` returns one and
    :meth:`Trace.from_rows` accepts a list of them.
    """

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


# the columns of a Trace, in the order of an ikm-trace-v1 CSV; the optional
# columns are None when absent
COLUMNS = tuple(f.name for f in fields(TraceRow))
OPTIONAL_COLUMNS = ("Delta_k", "C_k", "dist_to_ref", "objective", "rate_bound")


class Trace:
    """The diagnostics of a run as NumPy columns, one entry per iteration.

    ``k`` is an int64 column, every other column float64; an optional column
    (see ``OPTIONAL_COLUMNS``) is either filled on every row or None.
    Indexing with an int gives a :class:`TraceRow` of Python scalars,
    slicing gives a Trace, and iteration yields rows, converting
    ``ROW_CHUNK`` rows at a time.
    """

    __slots__ = COLUMNS

    def __init__(self, **columns):
        n = None
        for name in COLUMNS:
            col = columns.pop(name, None)
            if col is not None:
                col = np.asarray(col, dtype=np.int64 if name == "k" else np.float64)
                if col.ndim != 1 or (n is not None and col.size != n):
                    raise ValueError(f"trace column {name} has shape {col.shape}, "
                                     f"expected ({n},)")
                n = col.size
            elif name not in OPTIONAL_COLUMNS:
                raise ValueError(f"trace column {name} is required")
            setattr(self, name, col)
        if columns:
            raise ValueError(f"unknown trace columns {sorted(columns)}")

    @classmethod
    def from_rows(cls, rows: Sequence[TraceRow]) -> "Trace":
        """Columns of a row list; an optional column must be all None or all set."""
        rows = list(rows)
        columns = {}
        for name in COLUMNS:
            values = [getattr(r, name) for r in rows]
            empty = values.count(None)
            if empty == len(values) and name in OPTIONAL_COLUMNS:
                values = None
            elif empty:
                raise ValueError(f"trace column {name} mixes empty and filled rows")
            columns[name] = values
        return cls(**columns)

    def __len__(self) -> int:
        return self.k.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(**{name: None if getattr(self, name) is None
                            else getattr(self, name)[index] for name in COLUMNS})
        return TraceRow(*(None if getattr(self, name) is None else getattr(self, name)[index].item()
                          for name in COLUMNS))

    def __iter__(self) -> Iterator[TraceRow]:
        # a chunk of rows at a time, so iteration holds one chunk of Python
        # scalars besides the columns
        cols = [getattr(self, name) for name in COLUMNS]
        for lo in range(0, len(self), ROW_CHUNK):
            chunk = [itertools.repeat(None) if col is None else col[lo:lo + ROW_CHUNK].tolist()
                     for col in cols]
            yield from itertools.starmap(TraceRow, zip(*chunk))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        for name in COLUMNS:
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
                return False
        return True

    __hash__ = None


def derive_trace(res, step, alpha, lam, dist, objective, k=None) -> Trace:
    """Trace from the measured columns of a run; the rest is derived here.

    ``alpha`` and ``lam`` are the schedule's columns over the trace's
    indices ``k`` (``1 .. n`` when None).  The products are the engine's
    per-step scalar products in the same order, so every derived column has
    the bits the step would have given it (see the module docstring for the
    definitions); the first row takes ``delta = Delta = 0`` and ``C =
    dist^2``.  The measured columns may be ``array("d")`` buffers, which the
    trace's columns view without a copy.
    """
    res = np.asarray(res, dtype=np.float64)
    step = np.asarray(step, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    k = np.arange(1, res.size + 1, dtype=np.int64) if k is None else k
    with np.errstate(over="ignore", invalid="ignore"):
        nu = 1.0 / np.asarray(lam, dtype=np.float64) - 1.0
        delta = np.zeros_like(step)
        delta[1:] = nu[:-1] * (1.0 - a[:-1]) * step[1:] * step[1:]
        Delta = C = d = None
        if dist is not None:
            d = np.asarray(dist, dtype=np.float64)
            dsq = d * d
            Delta = np.zeros_like(d)
            Delta[1:] = dsq[1:] - dsq[:-1]
            C = dsq.copy()
            C[1:] = dsq[1:] - a[:-1] * d[:-1] * d[:-1] + delta[1:]
        # k converts to float64 exactly, element by element
        k_step_sq = k * step * step
        k_res_sq = k * res * res
    return Trace(k=k, residual=res, step=step, nu_k=nu, delta_k=delta, Delta_k=Delta, C_k=C,
                 dist_to_ref=d, k_step_sq=k_step_sq, k_res_sq=k_res_sq,
                 objective=None if objective is None else np.asarray(objective, dtype=np.float64))


class DivergenceError(RuntimeError):
    """Raised when an iterate turns non-finite; carries the partial trace."""

    def __init__(self, k: int, partial: "RunResult"):
        super().__init__(f"divergence detected at iteration k={k}")
        self.k = k
        self.partial = partial


@dataclass
class RunResult:
    """Finished (or aborted) run: its trace plus the final iterates.

    ``xs`` holds the last two iterates ``[x_prev, x_curr]``, ``x_curr`` being
    the newest one computed, and ``ys`` the last inertial point (empty when no
    step was taken); :func:`picard` returns ``xs = [x]``.  ``x_last`` is the
    iterate ``x_k`` the last trace row describes, one of ``xs`` (None without
    rows).  ``rows`` is a :class:`Trace`; a list of :class:`TraceRow` is
    converted on construction.
    """

    rows: Trace
    xs: List[np.ndarray]
    ys: List[np.ndarray]
    status: str  # converged | max_iters | stalled | diverged
    schedule: Optional[Schedule] = None
    p_ref: Optional[np.ndarray] = None
    operator: Optional[OperatorHandle] = None
    x_last: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.rows, Trace):
            self.rows = Trace.from_rows(self.rows)

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def final_residual(self) -> float:
        return float(self.rows.residual[-1]) if len(self.rows) else float("nan")


# --------------------------------------------------------------------------
# stepping


def run(
    T: OperatorHandle,
    x1: np.ndarray,
    schedule: Schedule,
    stop: StoppingRule,
    p_ref: Optional[np.ndarray] = None,
    objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RunResult:
    """Drive the inertial KM iteration and return the full diagnostic trace.

    Each step measures only what it decides on: the residual the stopping
    rule reads and, when ``lambda_k != 1``, whether ``x_{k+1}`` is finite
    (a finite ``<x_{k+1}, x_{k+1}>`` proves it, the exact test is the
    fallback); ``||x_k - x_{k-1}||`` is taken per step only for
    ``stop.stall_tol``.  The step writes ``x_k - x_{k-1}`` (and ``x_k`` when
    ``p_ref`` or ``objective`` is given) into row j of a ``(BLOCK_ROWS, n)``
    block; once the block is full, and before any result is built, the
    ``step`` and ``dist_to_ref`` columns come from row dots of the block
    (``np.vecdot``, the bits of ``np.dot`` per row) and ``objective`` is
    called once on the stack of iterates.  ``objective`` therefore maps an
    ``(r, n)`` stack to ``r`` values, each with the bits of a per-point call.

    A constant schedule (``schedule.const``) is read and checked once; any
    other is read and checked per step.  The ``alpha`` and ``lambda``
    columns the trace derives from come from :func:`schedule_columns` at
    the end.

    When ``T.exact_zeros`` is set, entries of magnitude below
    ``np.finfo(float).tiny`` are zeroed in ``y_k`` when ``alpha_k != 0`` and
    in ``x_{k+1}`` when ``lambda_k != 1``, in the arrays the step has just
    formed; ``T``'s outputs and ``x1`` are never modified, so with
    ``alpha_k = 0`` and ``lambda_k = 1`` a step is bit-identical to
    ``T.apply``.  Only the last two iterates and the last inertial point
    are kept besides the blocks, and the trace costs 8 bytes per column per
    row: the measured values go to ``array("d")`` buffers, which become the
    trace's columns without a copy.  The run is deterministic; divergence
    raises :class:`DivergenceError` with the partial trace attached
    (intermediate overflow on the way to a detected divergence is silenced,
    since non-finite iterates are handled explicitly).
    """
    x_prev = x_curr = x1
    x_last: Optional[np.ndarray] = None
    y_last: Optional[np.ndarray] = None
    # measured columns, 8 bytes a value; the rest of the trace is derived
    # from them at the end
    res_col, step_col = array("d"), array("d")
    dist_col = None if p_ref is None else array("d")
    obj_col = None if objective is None else array("d")
    # rows 0..j-1 of the blocks hold x_k - x_{k-1} and x_k of the steps whose
    # step, distance and objective are not recorded yet
    diffs = np.empty((BLOCK_ROWS, np.size(x1)))
    iterates = None if p_ref is None and objective is None else np.empty_like(diffs)
    j = 0
    status = "max_iters"
    flush_zeros = T.exact_zeros
    const = schedule.const
    if const is not None:
        a_k, l_k = const
        _check_params(1, a_k, l_k, 0.0)
    a_prev = 0.0

    def flush() -> None:
        nonlocal j
        if not j:
            return
        d = diffs[:j]
        step_col.extend([v ** 0.5 for v in np.vecdot(d, d).tolist()])
        if iterates is not None:
            xs = iterates[:j]
            if dist_col is not None:
                e = xs - p_ref
                dist_col.extend([v ** 0.5 for v in np.vecdot(e, e).tolist()])
            if obj_col is not None:
                obj_col.extend(np.asarray(objective(xs), dtype=np.float64).tolist())
        j = 0

    def result(status: str) -> RunResult:
        flush()
        ys = [] if y_last is None else [y_last]
        k = np.arange(1, len(res_col) + 1, dtype=np.int64)
        alpha, lam = schedule_columns(schedule, k)
        trace = derive_trace(res_col, step_col, alpha, lam, dist_col, obj_col, k)
        return RunResult(trace, [x_prev, x_curr], ys, status, schedule, p_ref, T, x_last)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, stop.max_iters + 1):
            if const is None:
                a_k = schedule.alpha_at(k)
                l_k = schedule.lambda_at(k)
                _check_params(k, a_k, l_k, a_prev)
                a_prev = a_k

            diff = np.subtract(x_curr, x_prev, out=diffs[j])
            if iterates is not None:
                iterates[j] = x_curr
            if a_k == 0.0:
                y = x_curr
            else:
                y = x_curr + a_k * diff
                if flush_zeros:
                    flush_subnormals(y)
            ty = T.apply(y)
            res = norm(y - ty)
            # a finite residual implies finite y and T y; a merely overflowing
            # norm gets the exact test
            if not math.isfinite(res) and not (is_finite(y) and is_finite(ty)):
                raise DivergenceError(k, result("diverged"))

            res_col.append(res)
            j += 1
            x_last = x_curr
            y_last = y

            if res <= stop.residual_tol:
                status = "converged"
                break
            if stop.stall_tol is not None and k > 1 and norm(diff) <= stop.stall_tol:
                status = "stalled"
                break
            if j == BLOCK_ROWS:
                flush()

            # x_{k+1} = T y has passed the test above; otherwise a finite
            # squared norm proves x_{k+1} finite
            if l_k == 1.0:
                x_new = ty
            else:
                x_new = (1.0 - l_k) * y + l_k * ty
                if flush_zeros:
                    flush_subnormals(x_new)
                if (not math.isfinite(float(np.dot(x_new, x_new)))
                        and not is_finite(x_new)):
                    raise DivergenceError(k, result("diverged"))
            x_prev, x_curr = x_curr, x_new

        return result(status)


def _check_params(k: int, a_k: float, l_k: float, a_prev: float) -> None:
    """Raise unless ``alpha_k`` lies in [0, 1), is at least ``a_prev`` and
    ``lambda_k > 0``."""
    if not 0.0 <= a_k < 1.0:
        raise ValueError(f"alpha_{k} = {a_k} outside [0, 1)")
    if a_k < a_prev:
        raise ValueError(f"alpha sequence decreases at k={k}")
    if l_k <= 0.0:
        raise ValueError(f"lambda_{k} = {l_k} must be > 0")


def picard(T: OperatorHandle, x0: np.ndarray, tol: float, max_iters: int) -> RunResult:
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
    """Per-index lhs/rhs evaluation of one inequality along a trace.

    ``ks`` (int64), ``lhs`` and ``rhs`` (float64) are NumPy arrays, one
    entry per index checked; ``violations`` is the int64 array of the
    failing indices.
    """

    name: str
    ks: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    violations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def ok(self) -> bool:
        return not self.violations.size

    @property
    def checked(self) -> int:
        return len(self.ks)


def as_trace(trace: Union[RunResult, Trace]) -> Trace:
    """The :class:`Trace` of a RunResult, or the Trace itself."""
    return trace.rows if isinstance(trace, RunResult) else trace


def _unpack(trace, schedule) -> Tuple[Trace, Schedule]:
    """Trace and schedule of a RunResult or Trace, reference validated.

    A RunResult's ``p_ref`` must be a fixed point of its operator (when it
    carries one), and the trace must have the ``dist_to_ref`` column.
    """
    if isinstance(trace, RunResult):
        schedule = schedule or trace.schedule
        if trace.p_ref is not None:
            _check_ref_fixed(trace.operator, trace.p_ref)
    trace = as_trace(trace)
    if schedule is None:
        raise ValueError("a schedule is required")
    if trace.dist_to_ref is None:
        raise ValueError("trace lacks dist_to_ref; rerun with p_ref")
    return trace, schedule


def _check_ref_fixed(op, p_ref):
    if op is not None and op_residual(op, p_ref) > 1e-10:
        raise ValueError("p_ref is not a fixed point (residual > 1e-10)")


def schedule_columns(schedule: Schedule, ks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(alpha_k, lambda_k)`` as float64 arrays over the indices ``ks``.

    Constant and table sequences are filled in closed form, a ramp's alpha
    by one call of its formula per index; each entry has the bits of
    ``alpha_at(k)`` and ``lambda_at(k)``.
    """
    if ks.size and ks.min() < 1:
        raise ValueError("k must be >= 1")
    return schedule._alpha_col(ks), schedule._lambda_col(ks)


def _contraction_column(lam: np.ndarray, q: float, xi: float) -> np.ndarray:
    """``Q(lambda_k, q, xi)`` per entry, one call per distinct lambda.

    The calls run in order of first appearance, so an invalid lambda raises
    the error the first offending index would.
    """
    if lam.size and (lam == lam[0]).all():
        return np.full(lam.size, contraction_constant(float(lam[0]), q, xi))
    values, first, inverse = np.unique(lam, return_index=True, return_inverse=True)
    Q = np.empty(values.size, dtype=np.float64)
    for j in np.argsort(first, kind="stable").tolist():
        Q[j] = contraction_constant(float(values[j]), q, xi)
    return Q[inverse]


def _alpha_second_diff_sq(trace: Trace, a: np.ndarray, lam: np.ndarray,
                          lo: int = 0) -> np.ndarray:
    """alpha_k ||x_{k+1} - 2 x_k + x_{k-1}||^2 for the ``a.size`` indices from ``lo``.

    Eliminating the cross term with the identity in the module docstring gives

        lambda_k^2 ||y_k - T y_k||^2 - (1 - alpha_k) ||x_{k+1} - x_k||^2
            + alpha_k (1 - alpha_k) ||x_k - x_{k-1}||^2,

    clipped at 0, which never divides by alpha_k, so tiny alpha_k cannot
    overflow it; rows with ``alpha_k = 0`` give 0.
    """
    hi = lo + a.size
    step, res = trace.step[lo:hi + 1], trace.residual[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):
        value = (lam * lam) * (res * res) - (1.0 - a) * (step[1:] * step[1:]) \
            + a * (1.0 - a) * (step[:-1] * step[:-1])
        return np.where(a == 0.0, 0.0, np.maximum(value, 0.0))


def _dist_sq(trace: Trace, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``||x_{k-1} - p||^2``, ``||x_k - p||^2`` and ``||x_{k+1} - p||^2`` for the
    indices ``[lo, hi)``, from the rows ``lo - 1 .. hi`` (``x_0 = x_1`` on the
    first row).  Callers silence overflow warnings."""
    d = trace.dist_to_ref[max(lo - 1, 0):hi + 1]
    dsq = d * d
    if lo:
        return dsq[:-2], dsq[1:-1], dsq[2:]
    prev = np.empty(hi, dtype=np.float64)
    prev[:1] = dsq[:1]
    prev[1:] = dsq[:-2]
    return prev, dsq[:-1], dsq[1:]


def _y_dist_sq(trace: Trace, a: np.ndarray, lo: int = 0) -> np.ndarray:
    """||y_k - p||^2 from the distance and step columns, for the ``a.size``
    indices from ``lo``."""
    hi = lo + a.size
    step = trace.step[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):
        prev, cur, _ = _dist_sq(trace, lo, hi)
        return (1.0 + a) * cur - a * prev + a * (1.0 + a) * (step * step)


def _replay(name: str, trace: Trace, tol: float,
            chunk: Callable[[int, int], Tuple[np.ndarray, np.ndarray]]) -> InequalityReport:
    """Report of the inequality whose ``(lhs, rhs)`` over the indices
    ``[lo, hi)`` is ``chunk(lo, hi)``, evaluated ``ROW_CHUNK`` indices at a time.

    Index i pairs the rows i and i + 1, so ``ks`` is ``trace.k[:-1]``.  Each
    chunk is written into the report's arrays and its violations
    (``lhs > rhs + tol (1 + |rhs|)``) counted before the next is formed:
    a replay holds one chunk of temporaries besides its report, whose
    failing indices are then read back from ``lhs`` and ``rhs`` into an
    int64 array of their count.  ``chunk`` runs with overflow, invalid and
    divide-by-zero warnings silenced.
    """
    ks = trace.k[:-1]
    # up front, so that a bad k is reported before any other error
    if ks.size and ks.min() < 1:
        raise ValueError("k must be >= 1")
    lhs, rhs = np.empty(ks.size), np.empty(ks.size)

    def failing(lo: int, hi: int) -> np.ndarray:
        l, r = lhs[lo:hi], rhs[lo:hi]
        return l > r + tol * (1.0 + np.abs(r))

    failed = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, ks.size, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, ks.size)
            lhs[lo:hi], rhs[lo:hi] = chunk(lo, hi)
            failed += int(np.count_nonzero(failing(lo, hi)))
        violations = np.empty(failed, dtype=np.int64)
        i = 0
        for lo in range(0, ks.size if failed else 0, ROW_CHUNK):
            bad = ks[lo:lo + ROW_CHUNK][failing(lo, lo + ROW_CHUNK)]
            violations[i:i + bad.size] = bad
            i += bad.size
    return InequalityReport(name, ks, lhs, rhs, violations)


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
    trace, schedule = _unpack(trace, schedule)

    def chunk(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        ks = trace.k[lo:hi]
        a, lam = schedule_columns(schedule, ks)
        prev, cur, nxt = _dist_sq(trace, lo, hi)
        step = trace.step[lo:hi]
        nu = 1.0 / lam - 1.0
        Delta_k = np.where(ks == 1, 0.0, cur - prev)
        second = _alpha_second_diff_sq(trace, a, lam, lo)
        lhs = (nxt - cur) + trace.delta_k[lo + 1:hi + 1] + nu * second
        rhs = a * Delta_k + (a * (1.0 + a) + nu * a * (1.0 - a)) * (step * step)
        return lhs, rhs

    return _replay("descent", trace, tol, chunk)


def verify_Ck_monotone(trace, tol: float = DEFAULT_TOL) -> Optional[int]:
    """First k violating ``C_{k+1} <= C_k + tol (1 + C_k)`` / ``C_k >= -tol``, else None."""
    trace = as_trace(trace)
    C = trace.C_k
    if C is None:
        raise ValueError("trace lacks C_k; rerun with p_ref")
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, C.size, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, C.size)
            c = C[lo:hi + 1]  # one row of look-ahead
            bad = c[:hi - lo] < -tol
            bad[:c.size - 1] |= c[1:] > c[:-1] + tol * (1.0 + c[:-1])
            if bad.any():
                return int(trace.k[lo + np.argmax(bad)])
    return None


def verify_contraction(trace, q: float, xi: float, schedule: Optional[Schedule] = None,
                       tol: float = DEFAULT_TOL) -> InequalityReport:
    """Replay the per-step contraction bound for q-quasi-contractive runs:

        ||x_{k+1} - p||^2 <= Q(lambda_k, q, xi) ||y_k - p||^2
                             - xi lambda_k (1 - lambda_k) ||y_k - T y_k||^2.
    """
    trace, schedule = _unpack(trace, schedule)

    def chunk(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        a, lam = schedule_columns(schedule, trace.k[lo:hi])
        Q = _contraction_column(lam, q, xi)
        res = trace.residual[lo:hi]
        rhs = Q * _y_dist_sq(trace, a, lo) - xi * lam * (1.0 - lam) * (res * res)
        return _dist_sq(trace, lo, hi)[2], rhs

    return _replay("contraction", trace, tol, chunk)


def verify_product_bound(trace, q: float, xi: float, schedule: Optional[Schedule] = None,
                         tol: float = DEFAULT_TOL) -> InequalityReport:
    """Replay the certificate product bound

        ||x_{k+1} - p||^2 - alpha_k ||x_k - p||^2 + xi delta_{k+1}
            <= prod_{j<=k} Q(lambda_j, q, xi) * ||x_1 - p||^2.

    The product runs across chunks as ``np.cumprod`` of ``[carry, Q_lo,
    ...]``: the same sequential products, bit for bit, as one ``np.cumprod``
    over the whole column.
    """
    trace, schedule = _unpack(trace, schedule)
    d1 = trace.dist_to_ref[:1]
    with np.errstate(over="ignore"):
        d1 = d1 * d1
    carry = np.ones(1)

    def chunk(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        nonlocal carry
        a, lam = schedule_columns(schedule, trace.k[lo:hi])
        prod = np.cumprod(np.concatenate((carry, _contraction_column(lam, q, xi))))[1:]
        carry = prod[-1:]
        _, cur, nxt = _dist_sq(trace, lo, hi)
        return nxt - a * cur + xi * trace.delta_k[lo + 1:hi + 1], prod * d1

    return _replay("product_bound", trace, tol, chunk)


def _k_times_max(zs: np.ndarray, lo: int, hi: int) -> np.floating:
    """``max(k * zs[k - 1])`` over ``k = lo + 1 .. hi``, one chunk at a time
    (nan when a product is nan, as ``np.max`` over the whole range)."""
    with np.errstate(over="ignore"):
        return np.max([np.max(np.arange(i + 1, min(i + ROW_CHUNK, hi) + 1, dtype=np.float64)
                              * zs[i:min(i + ROW_CHUNK, hi)])
                       for i in range(lo, hi, ROW_CHUNK)])


def small_o_check(zeta: Sequence[float]) -> bool:
    """Finite-sample proxy for ``k * zeta_k -> 0`` on summable inputs.

    ``zeta`` must be positive and nonincreasing (validated; tiny relative
    upticks at rounding level are tolerated).  Returns True when the maximum
    of ``k * zeta_k`` over the last quartile is below 10% of its maximum over
    the first quartile.  A documented heuristic, not a limit statement.  An
    array is read in place, one chunk at a time.
    """
    zs = np.asarray(zeta, dtype=np.float64)
    if zs.size < 4:
        raise ValueError("need at least 4 values")
    if zs.min() <= 0.0:
        raise ValueError("values must be positive")
    with np.errstate(over="ignore"):
        for lo in range(0, zs.size - 1, ROW_CHUNK):
            z = zs[lo:lo + ROW_CHUNK + 1]
            if (z[1:] > z[:-1] * (1.0 + 1e-12)).any():
                raise ValueError("sequence is not nonincreasing")
    quart = max(1, zs.size // 4)
    return bool(_k_times_max(zs, zs.size - quart, zs.size) < 0.1 * _k_times_max(zs, 0, quart))


def monotone_prefix(values: Sequence[float], slack: float = 1e-12) -> int:
    """Length of the maximal nonincreasing positive prefix.

    Trace tails that have reached the floating-point floor jitter at rounding
    level; the small-o diagnostic is applied to the prefix that still
    measures the iteration rather than the noise.  An array is scanned in
    place, one chunk at a time.
    """
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, v.size, ROW_CHUNK):
            back = 1 if lo else 0  # one row of look-back past the first chunk
            w = v[lo - back:lo + ROW_CHUNK]
            bad = w[back:] <= 0.0
            bad[1 - back:] |= w[1:] > w[:-1] * (1.0 + slack)
            if bad.any():
                return lo + int(np.argmax(bad))
    return int(v.size)
