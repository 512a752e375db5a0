"""Inertial Krasnoselskii-Mann driver with Lyapunov diagnostics.

The iteration is

    y_k     = x_k + alpha_k (x_k - x_{k-1})
    x_{k+1} = (1 - lambda_k) y_k + lambda_k T(y_k)

started from ``x_0 = x_1`` so the first inertial term vanishes.  The
parameters are sequences held as columns: a :class:`Schedule` maps an int64
index array to the float64 values of ``alpha_k`` and ``lambda_k``.  Its
constructors check every entry, and the run and the replays read it that
way without checking it again.  A run's record is one :class:`Trace`
of NumPy columns, one entry per step.  Each step measures only what it
decides on: the residual ``||y_k - T y_k||`` that the stopping rule reads
and whether ``x_{k+1}`` is finite.  The speed ``||x_k - x_{k-1}||``, the
distance ``||x_k - p||`` when a reference fixed point is supplied and the
objective when one is are measured once per block of ``BLOCK_ROWS`` steps,
from the differences and iterates the steps copied into the block: row dots
by ``np.vecdot`` and one objective call on the ``(r, n)`` stack, which give
the bits per-step ``np.dot`` norms and per-point objective calls would.
A trace is those measured columns, its indices, the run's schedule and its
operator's gamma; the replays form the Lyapunov quantities from them

    eta_k    = gamma lambda_k   (lambda_k when the trace's gamma is None)
    nu_k     = 1/eta_k - 1
    delta_k  = nu_{k-1} (1 - alpha_{k-1}) ||x_k - x_{k-1}||^2
    Delta_k  = ||x_k - p||^2 - ||x_{k-1} - p||^2          (Delta_1 = 0)
    C_k      = ||x_k - p||^2 - alpha_{k-1} ||x_{k-1} - p||^2 + delta_k
                                                           (C_1 = ||x_1 - p||^2)

with ``gamma`` the averagedness constant of the run's operator, ``T = (1 -
gamma) I + gamma R`` for a nonexpansive ``R``: the step ``(1 - lambda) y +
lambda T y`` is ``(1 - eta) y + eta R y``, and the Lyapunov function of the
convergence analysis is that of ``R`` at the relaxation ``eta``, the one the
feasibility certificates are evaluated at.

For an operator whose handle sets ``exact_zeros``, entries of ``y_k`` and
``x_{k+1}`` below the smallest normal float in magnitude are set to zero as
the step forms them.  The relaxed update decays as ``(1 - lambda)^k`` on
every coordinate where ``T`` returns an exact zero (as the l1 prox does)
and the inertial term carries that decay into ``y_k``, so without the flush
those coordinates turn subnormal after a few hundred steps and every matvec
on them runs many times slower.  A subnormal entry squares to zero, so the
norms a trace records do not see it; the traces and sweep tables of the
benchmark workloads are byte-identical with and without the flush.

The replays use the scalar products of the step in the same order
(``a_{k-1} * d_{k-1} * d_{k-1}``, never ``a * d**2``), so they have the
bits a per-step computation would give them, whether a whole column or a
chunk of rows is formed.

A run keeps only the last two iterates and the last inertial point; the
trace is its record.  The verify_* functions replay the per-iteration
inequalities of the convergence analysis as array expressions over a
:class:`Trace` alone, its columns, schedule and gamma, whether it is a run's
or read from an exported CSV.  A run rejects a reference point that is not a
fixed point of its operator (:func:`is_reference_point`), so a trace's
distances are to one.  Each replay returns one :class:`Verdict`.  It judges
``ROW_CHUNK`` indices at a time (the indices ``[lo, hi)`` read the rows
``lo - 1 .. hi``), from one read of the schedule per chunk, and keeps only
the count checked and the first five failing ks; ``C_k`` is formed a chunk
at a time too.  So a replay, passing or failing, holds one chunk of
temporaries and no full-length column, and the values it judges are those
of the whole-column expressions, bit for bit (the ``*_rows`` functions give
them for any chunk).  A comparison is written so that a nan on either side
fails it.  Distances to ``p`` and steps are columns; the cross terms the
inequalities need are reconstructed through the identity

    lambda_k^2 ||y_k - T y_k||^2 = ||x_{k+1} - x_k||^2
        + alpha_k^2 ||x_k - x_{k-1}||^2
        - 2 alpha_k <x_{k+1} - x_k, x_k - x_{k-1}>.

Runs are strictly sequential; independent runs share no mutable state.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .certificates import contraction_constant, effective_relaxation
from .linalg import flush_subnormals, is_finite, norm

__all__ = [
    "ReferenceNotConverged",
    "RunResult",
    "Schedule",
    "StoppingRule",
    "Trace",
    "TraceRow",
    "Verdict",
    "contraction_rows",
    "descent_rows",
    "is_reference_point",
    "monotone_prefix",
    "picard",
    "product_bound_rows",
    "replay",
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

# rows per chunk of every chunked pass over a trace: CSV write and read,
# scalar columns and the verify_* replays.  Large enough to
# amortize a NumPy call or a "%" format over the chunk, small enough that a
# chunk's temporaries, text or tokens stay in the tens of kilobytes
ROW_CHUNK = 256

# rows per block of iterate differences (and iterates) that run() measures
# at once; 32 rows of a 399-vector are 100 KiB
BLOCK_ROWS = 32

# the largest residual ||p - T p|| of a reference fixed point
REF_TOL = 1e-10

# a schedule column: int64 indices in, float64 values out
Column = Callable[[np.ndarray], np.ndarray]


# --------------------------------------------------------------------------
# schedules and stopping


class Schedule:
    """Parameter sequences ``(alpha_k, lambda_k)`` for ``k >= 1``, held as columns.

    A schedule is built by :meth:`constant`, :meth:`ramp` or :meth:`table`,
    which check every entry where they build it: ``alpha_k`` nondecreasing
    in [0, 1), ``lambda_k`` positive (values above 1 are legal so
    over-relaxed and deliberately infeasible runs stay expressible).  Its
    readers take the entries as checked.  ``alpha_col`` and ``lambda_col``
    map an int64 index array ``ks`` to the float64 array of ``alpha_k`` and
    ``lambda_k`` at those indices, in closed form; they are the schedule's
    only definition.  ``(alpha_k, lambda_k) == limit`` for every ``k >=
    const_from``, the length of the longest ramp or table (1 for
    :meth:`constant`).
    """

    def __init__(self, alpha_col: Column, lambda_col: Column, const_from: int,
                 limit: Tuple[float, float]):
        # called by the constructors below, which have checked every entry
        self.alpha_col = alpha_col
        self.lambda_col = lambda_col
        self.const_from = const_from
        self.limit = limit

    @classmethod
    def constant(cls, alpha: float, lam: float) -> "Schedule":
        return cls.table([alpha], [lam])

    @classmethod
    def ramp(cls, alpha_start: float, alpha_end: float, ramp_iters: int,
             lambdas: Sequence[float]) -> "Schedule":
        """Alpha climbs linearly over ``ramp_iters`` steps, then holds;
        ``lambdas`` is a table that holds its last entry, as in :meth:`table`.

        The climb is nondecreasing below ``ramp_iters``, since rounding is
        monotone; a ramp whose ``alpha_{ramp_iters - 1}`` rounds above
        ``alpha_end`` is rejected, as ``ramp(0.3, np.nextafter(1.0, 0.0),
        2**53, [0.5])`` is, whose climb reads 1.0 there."""
        if not (0.0 <= alpha_start <= alpha_end < 1.0):
            raise ValueError("need 0 <= alpha_start <= alpha_end < 1")
        if ramp_iters < 1:
            raise ValueError("ramp_iters must be >= 1")

        def alpha_col(ks: np.ndarray) -> np.ndarray:
            # ramp_iters = 1 divides by zero on entries np.where discards, and
            # a tiny alpha_end - alpha_start gives subnormal entries, as the
            # scalar formula does
            with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
                return np.where(ks >= ramp_iters, alpha_end, alpha_start
                                + (alpha_end - alpha_start) * (ks - 1) / (ramp_iters - 1))

        if ramp_iters > 1 and alpha_col(np.array([ramp_iters - 1]))[0] > alpha_end:
            raise ValueError("the ramp's alpha rounds above alpha_end at k = ramp_iters - 1")
        lambdas = _lambda_table(lambdas)
        return cls(alpha_col, _hold_last(lambdas), max(ramp_iters, len(lambdas)),
                   (alpha_end, lambdas[-1]))

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
        lambdas = _lambda_table(lambdas)
        return cls(_hold_last(alphas), _hold_last(lambdas), max(len(alphas), len(lambdas)),
                   (alphas[-1], lambdas[-1]))

    def columns(self, ks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(alpha_k, lambda_k)`` as float64 arrays over the int64 indices ``ks``."""
        if ks.size and ks.min() < 1:
            raise ValueError("k must be >= 1")
        return self.alpha_col(ks), self.lambda_col(ks)


def _lambda_table(lambdas: Sequence[float]) -> List[float]:
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("tables must be non-empty")
    if not all(lam > 0.0 for lam in lambdas):
        raise ValueError("lambda values must be > 0")
    return lambdas


def _hold_last(table: List[float]) -> Column:
    """``ks -> table[min(k - 1, len - 1)]`` over an index array (a float64
    copy of the table indexed, so the table's floats)."""
    last = len(table) - 1
    values = np.array(table, dtype=np.float64)
    return lambda ks: values[np.minimum(ks - 1, last)]


@dataclass(frozen=True)
class StoppingRule:
    """Stop on residual <= residual_tol, step <= stall_tol, or max_iters."""

    max_iters: int
    residual_tol: float = 0.0
    stall_tol: Optional[float] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # "not x >= 0" also rejects nan, which no comparison stops on
        if not self.residual_tol >= 0.0:
            raise ValueError("residual_tol must be >= 0")
        if self.stall_tol is not None and not self.stall_tol >= 0.0:
            raise ValueError("stall_tol must be >= 0")


# --------------------------------------------------------------------------
# trace


@dataclass
class TraceRow:
    """The stored columns of one iteration (an absent column's field is None).

    The row view of a :class:`Trace`: ``Trace[i]`` returns one.
    """

    k: int
    residual: float
    step: float
    dist_to_ref: Optional[float] = None
    objective: Optional[float] = None
    rate_bound: Optional[float] = None


# the columns a Trace stores, in the order of an ikm-trace-v2 CSV; the
# optional ones are None when absent
STORED_COLUMNS = tuple(f.name for f in fields(TraceRow))
OPTIONAL_COLUMNS = ("dist_to_ref", "objective", "rate_bound")


class Trace:
    """The diagnostics of a run as NumPy columns, one entry per iteration.

    A trace is what its run measured, ``STORED_COLUMNS``, plus the run's
    ``schedule`` and its operator's averagedness ``gamma`` (None when
    unknown): ``k`` is an int64 column, every other column float64, and an
    optional column (see ``OPTIONAL_COLUMNS``) is either filled on every row
    or None.  The replays form the Lyapunov quantities from these (see the
    module docstring).  Indexing with an int gives a :class:`TraceRow` of
    Python scalars.
    """

    __slots__ = STORED_COLUMNS + ("schedule", "gamma")

    def __init__(self, schedule: Schedule, gamma: Optional[float] = None, **columns):
        n = None
        for name in STORED_COLUMNS:
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
        self.schedule = schedule
        self.gamma = gamma

    def eta(self, lam: np.ndarray) -> np.ndarray:
        """The relaxations the replays read, :func:`effective_relaxation` at
        the trace's gamma."""
        return effective_relaxation(lam, self.gamma)

    def __len__(self) -> int:
        return self.k.size

    def __getitem__(self, index) -> TraceRow:
        i = range(len(self))[operator.index(index)]  # an IndexError past either end
        return TraceRow(*(None if col is None else col[i].item()
                          for col in (getattr(self, name) for name in STORED_COLUMNS)))

    # a trace is read as columns, not row by row; without this, __getitem__
    # would make a trace iterable
    __iter__ = None


class ReferenceNotConverged(RuntimeError):
    """A Picard reference run of :mod:`ikm.problems` missed its tolerance
    within its step cap or diverged; ``ikm`` maps it to exit 2 without
    importing that module."""


@dataclass
class RunResult:
    """Finished (or aborted) run: its trace plus the final iterates.

    ``xs`` holds the last two iterates ``[x_prev, x_curr]``, ``x_curr`` being
    the newest one computed, and ``ys`` the last inertial point (empty when no
    step was taken); :func:`picard` returns ``xs = [x]``.  ``x_last`` is the
    iterate ``x_k`` the last trace row describes, one of ``xs`` (None without
    rows).  ``rows`` is a :class:`Trace`, which carries the run's schedule
    and its operator's gamma.
    """

    rows: Trace
    xs: List[np.ndarray]
    ys: List[np.ndarray]
    status: str  # converged | max_iters | stalled | diverged
    x_last: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def final_residual(self) -> float:
        return float(self.rows.residual[-1]) if len(self.rows) else float("nan")


# --------------------------------------------------------------------------
# stepping


def is_reference_point(T, p: np.ndarray) -> bool:
    """Whether ``p`` may serve as the reference fixed point of the operator
    handle ``T``: ``||p - T p|| <= REF_TOL`` (a nan residual is not)."""
    return norm(p - T.apply(p)) <= REF_TOL


def run(
    T,
    x1: np.ndarray,
    schedule: Schedule,
    stop: StoppingRule,
    p_ref: Optional[np.ndarray] = None,
    objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RunResult:
    """Drive the inertial KM iteration of the operator handle ``T`` and
    return the full diagnostic trace, which carries ``T.gamma``.

    A ``p_ref`` that is not a reference point of ``T``
    (:func:`is_reference_point`) raises ``ValueError`` before the first step.
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

    The schedule is read through :meth:`Schedule.columns` one block at a
    time, at the block's first step, over its indices up to
    ``stop.max_iters``, and not checked again: its constructor has checked
    every entry.

    When ``T.exact_zeros`` is set, entries of magnitude below
    ``np.finfo(float).tiny`` are zeroed in ``y_k`` when ``alpha_k != 0`` and
    in ``x_{k+1}`` when ``lambda_k != 1``, in the arrays the step has just
    formed; ``T``'s outputs and ``x1`` are never modified, so with
    ``alpha_k = 0`` and ``lambda_k = 1`` a step is bit-identical to
    ``T.apply``.  Only the last two iterates and the last inertial point
    are kept besides the blocks, and the trace costs 8 bytes per stored
    column per row: the measured values go to ``array("d")`` buffers, which
    become the trace's columns without a copy.  The run is deterministic;
    a divergence ends it with status ``diverged`` and the rows before it
    (overflow on the way there is silenced).
    """
    if p_ref is not None and not is_reference_point(T, p_ref):
        raise ValueError(f"p_ref is not a fixed point (residual > {REF_TOL:g})")
    x_prev = x_curr = x1
    x_last: Optional[np.ndarray] = None
    y_last: Optional[np.ndarray] = None
    # measured columns, 8 bytes a value
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
        trace = Trace(schedule, T.gamma, k=np.arange(1, len(res_col) + 1, dtype=np.int64),
                      residual=res_col, step=step_col, dist_to_ref=dist_col, objective=obj_col)
        return RunResult(trace, [x_prev, x_curr], ys, status, x_last)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, stop.max_iters + 1):
            if j == 0:
                ks = np.arange(k, min(k + BLOCK_ROWS, stop.max_iters + 1), dtype=np.int64)
                alphas, lams = (col.tolist() for col in schedule.columns(ks))
            a_k, l_k = alphas[j], lams[j]

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
                return result("diverged")

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
                    return result("diverged")
            x_prev, x_curr = x_curr, x_new

        return result(status)


def picard(T, x0: np.ndarray, tol: float, max_iters: int) -> RunResult:
    """Plain fixed-point iteration ``x <- T x`` (reference runs).

    The trace is one row, the last index and its residual, and ``x_last`` the
    point it describes (neither when the status is ``diverged``, whose
    overflow is silenced as in :func:`run`), under the schedule ``alpha = 0``,
    ``lambda = 1`` that makes the inertial KM step this iteration.
    """
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iters + 1):
            tx = T.apply(x)
            r = norm(x - tx)
            # a finite residual implies a finite T x; the exact test is the fallback
            if not math.isfinite(r) and not is_finite(tx):
                return RunResult(_picard_trace(), [x], [], "diverged")
            if r <= tol:
                return RunResult(_picard_trace(k, r), [x], [], "converged", x)
            x = tx
    return RunResult(_picard_trace(max_iters, norm(x - T.apply(x))), [x], [], "max_iters", x)


def _picard_trace(k: Optional[int] = None, r: float = 0.0) -> Trace:
    """The trace of :func:`picard`: the row ``(k, r)``, or no row when k is None."""
    ks = [] if k is None else [k]
    return Trace(Schedule.constant(0.0, 1.0), k=ks, residual=[r] * len(ks),
                 step=[0.0] * len(ks))


# --------------------------------------------------------------------------
# inequality replays


@dataclass(frozen=True)
class Verdict:
    """The outcome of one check along a trace.

    ``status`` is ``"PASS"``, ``"FAIL"`` or ``"SKIPPED"``; ``checked`` is
    the count of indices the check judged, ``fails`` the first five failing
    ks in order (empty for a check that judges no single index) and
    ``reason`` why a check was skipped.
    """

    name: str
    status: str
    checked: int = 0
    fails: Tuple[int, ...] = ()
    reason: str = ""


def _needs_dist(trace: Trace, what: str = "dist_to_ref") -> None:
    if trace.dist_to_ref is None:
        raise ValueError(f"trace lacks {what}; rerun with p_ref")


def _contraction_column(lam: np.ndarray, q: float, xi: float) -> np.ndarray:
    """``Q(lambda_k, q, xi)`` per entry: one call for a constant column, else
    one call per entry in index order, so an invalid lambda raises the error
    the first offending index would."""
    if lam.size and (lam == lam[0]).all():
        return np.full(lam.size, contraction_constant(float(lam[0]), q, xi))
    return np.array([contraction_constant(lam_k, q, xi) for lam_k in lam.tolist()],
                    dtype=np.float64)


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


def _next_delta(trace: Trace, a: np.ndarray, lam: np.ndarray, lo: int) -> np.ndarray:
    """``delta_{k+1} = nu_k (1 - alpha_k) ||x_{k+1} - x_k||^2``, ``nu_k = 1/lam_k
    - 1``, for the ``a.size`` indices from ``lo``, from their own ``(alpha_k,
    lam_k)`` with the products of :func:`_ck_rows` in its order."""
    step = trace.step[lo + 1:lo + 1 + a.size]
    return (1.0 / lam - 1.0) * (1.0 - a) * step * step


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


def replay(name: str, ks: np.ndarray, failing: Callable[[int, int], np.ndarray]) -> Verdict:
    """The verdict of a check at ``ks``, a prefix of the trace's ``k``, with
    ``failing(lo, hi)`` the mask of its failing indices among ``ks[lo:hi]``:
    every chunk of ``ROW_CHUNK`` indices is judged (so any chunk's error is
    raised) with overflow, invalid and divide-by-zero warnings silenced, and
    only the count checked and the first five failing ks are kept."""
    # up front, so that a bad k is reported before any other error
    if ks.size and ks.min() < 1:
        raise ValueError("k must be >= 1")
    fails: List[int] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, ks.size, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, ks.size)
            fails += ks[lo:hi][failing(lo, hi)][:5 - len(fails)].tolist()
    return Verdict(name, "FAIL" if fails else "PASS", ks.size, tuple(fails))


def _exceeds(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Where ``lhs <= rhs + tol (1 + |rhs|)`` fails, a nan on either side
    included; index i of an inequality pairs the rows i and i + 1."""
    return ~(lhs <= rhs + tol * (1.0 + np.abs(rhs)))


def descent_rows(trace: Trace, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)`` of :func:`verify_descent` at the indices ``[lo, hi)``."""
    ks = trace.k[lo:hi]
    a, lam = trace.schedule.columns(ks)
    eta = trace.eta(lam)
    prev, cur, nxt = _dist_sq(trace, lo, hi)
    step = trace.step[lo:hi]
    nu = 1.0 / eta - 1.0
    Delta_k = np.where(ks == 1, 0.0, cur - prev)
    second = _alpha_second_diff_sq(trace, a, lam, lo)
    lhs = (nxt - cur) + _next_delta(trace, a, eta, lo) + nu * second
    rhs = a * Delta_k + (a * (1.0 + a) + nu * a * (1.0 - a)) * (step * step)
    return lhs, rhs


def verify_descent(trace: Trace, tol: float = DEFAULT_TOL) -> Verdict:
    """Replay the one-step descent inequality along the trace.

    At each k it checks

        Delta_{k+1} + delta_{k+1} + nu_k alpha_k ||x_{k+1} - 2 x_k + x_{k-1}||^2
            <= alpha_k Delta_k
               + [alpha_k (1 + alpha_k) + nu_k alpha_k (1 - alpha_k)] ||x_k - x_{k-1}||^2

    with slack ``tol * (1 + |rhs|)`` for every pair of consecutive rows,
    under the trace's schedule, with ``nu_k = 1/eta_k - 1`` at the trace's
    ``eta_k = gamma lambda_k`` as in ``C_k``.  The trace needs
    the ``dist_to_ref`` column.
    """
    _needs_dist(trace)
    return replay("descent", trace.k[:-1],
                  lambda lo, hi: _exceeds(*descent_rows(trace, lo, hi), tol))


def _ck_rows(trace: Trace, lo: int, hi: int) -> np.ndarray:
    """``C_k`` for the rows ``[lo, hi)``, from the stored columns of the rows
    ``lo - 1 .. hi - 1`` and one read of the schedule at the ks of the row
    before each row; the first row of the trace takes ``C_1 = ||x_1 - p||^2``.

    The products are those of the per-step expression in its order,
    ``d*d - a*d_prev*d_prev + delta`` (see the module docstring), so a chunk
    of rows has the bits of the whole column.  Callers silence overflow and
    invalid warnings.
    """
    prev = np.arange(lo - 1, hi - 1).clip(0)  # the first row stands in for its own
    a, lam = trace.schedule.columns(trace.k[prev])
    step, d, d_prev = trace.step[lo:hi], trace.dist_to_ref[lo:hi], trace.dist_to_ref[prev]
    delta = (1.0 / trace.eta(lam) - 1.0) * (1.0 - a) * step * step
    C = d * d - a * d_prev * d_prev + delta
    if not lo:
        C[:1] = d[:1] * d[:1]
    return C


def verify_Ck_monotone(trace: Trace, tol: float = DEFAULT_TOL) -> Verdict:
    """The verdict of ``C_{k+1} <= C_k + tol (1 + C_k)`` and ``C_k >= -tol``
    at every row k (the last row has no successor), a nan failing both.

    ``C_k`` is formed ``ROW_CHUNK`` rows at a time by :func:`_ck_rows`, with
    one row of look-ahead.
    """
    _needs_dist(trace, "C_k")

    def failing(lo: int, hi: int) -> np.ndarray:
        c = _ck_rows(trace, lo, min(hi + 1, len(trace)))  # one row of look-ahead
        bad = ~(c[:hi - lo] >= -tol)
        bad[:c.size - 1] |= ~(c[1:] <= c[:-1] + tol * (1.0 + c[:-1]))
        return bad

    return replay("ck", trace.k, failing)


def contraction_rows(trace: Trace, q: float, xi: float, lo: int,
                     hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)`` of :func:`verify_contraction` at the indices ``[lo, hi)``."""
    a, lam = trace.schedule.columns(trace.k[lo:hi])
    Q = _contraction_column(lam, q, xi)
    res = trace.residual[lo:hi]
    rhs = Q * _y_dist_sq(trace, a, lo) - xi * lam * (1.0 - lam) * (res * res)
    return _dist_sq(trace, lo, hi)[2], rhs


def verify_contraction(trace: Trace, q: float, xi: float,
                       tol: float = DEFAULT_TOL) -> Verdict:
    """Replay the per-step contraction bound for q-quasi-contractive runs:

        ||x_{k+1} - p||^2 <= Q(lambda_k, q, xi) ||y_k - p||^2
                             - xi lambda_k (1 - lambda_k) ||y_k - T y_k||^2

    under the trace's schedule; ``Q`` is stated for ``T`` itself, so at
    ``lambda_k``, not ``eta_k``.
    """
    _needs_dist(trace)
    return replay("contraction", trace.k[:-1],
                  lambda lo, hi: _exceeds(*contraction_rows(trace, q, xi, lo, hi), tol))


def product_bound_rows(trace: Trace, q: float, xi: float, lo: int, hi: int,
                       carry: float = 1.0) -> Tuple[np.ndarray, np.ndarray, float]:
    """``(lhs, rhs)`` of :func:`verify_product_bound` at the indices ``[lo,
    hi)`` and ``prod_{j<hi} Q_j``, the next chunk's ``carry`` (this one's is
    ``prod_{j<lo} Q_j``): ``np.cumprod`` of ``[carry, Q_lo, ...]`` has the
    bits of one ``np.cumprod`` over the whole column."""
    a, lam = trace.schedule.columns(trace.k[lo:hi])
    prod = np.cumprod(np.concatenate(([carry], _contraction_column(lam, q, xi))))[1:]
    d1 = trace.dist_to_ref[:1]
    _, cur, nxt = _dist_sq(trace, lo, hi)
    return nxt - a * cur + xi * _next_delta(trace, a, lam, lo), prod * (d1 * d1), prod[-1]


def verify_product_bound(trace: Trace, q: float, xi: float,
                         tol: float = DEFAULT_TOL) -> Verdict:
    """Replay the certificate product bound

        ||x_{k+1} - p||^2 - alpha_k ||x_k - p||^2 + xi delta_{k+1}
            <= prod_{j<=k} Q(lambda_j, q, xi) * ||x_1 - p||^2

    under the trace's schedule, at ``lambda_k`` as for
    :func:`verify_contraction` (``delta_{k+1}`` too), the product carried
    from chunk to chunk (:func:`product_bound_rows`).
    """
    _needs_dist(trace)
    carry = 1.0

    def failing(lo: int, hi: int) -> np.ndarray:
        nonlocal carry
        lhs, rhs, carry = product_bound_rows(trace, q, xi, lo, hi, carry)
        return _exceeds(lhs, rhs, tol)

    return replay("product", trace.k[:-1], failing)


def _squares(roots: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The squares of ``roots[lo:hi]``."""
    part = roots[lo:hi]
    return part * part


def _k_times_max(zs: np.ndarray, lo: int, hi: int) -> np.floating:
    """``max(k * zs[k - 1]**2)`` over ``k = lo + 1 .. hi``, one chunk at a
    time (nan when a product is nan, as ``np.max`` over the whole range)."""
    return np.max([np.max(np.arange(i + 1, min(i + ROW_CHUNK, hi) + 1, dtype=np.float64)
                          * _squares(zs, i, min(i + ROW_CHUNK, hi)))
                   for i in range(lo, hi, ROW_CHUNK)])


def small_o_check(roots: Sequence[float]) -> bool:
    """Finite-sample proxy for ``k * zeta_k -> 0`` on summable inputs, where
    ``zeta_k = roots[k - 1]**2`` (a trace's residual or step column).

    ``zeta`` must be positive, nan excluded, and nonincreasing (validated;
    tiny relative upticks at rounding level are tolerated).  Returns True
    when the maximum of ``k * zeta_k`` over the last quartile is below 10%
    of its maximum over the first quartile.  A documented heuristic, not a
    limit statement.  An array is read in place, one chunk at a time, each
    chunk squared as it is read.
    """
    zs = np.asarray(roots, dtype=np.float64)
    if zs.size < 4:
        raise ValueError("need at least 4 values")
    with np.errstate(over="ignore"):
        # a nan minimum fails, so a chunk holding a nan does
        if not all(_squares(zs, lo, lo + ROW_CHUNK).min() > 0.0
                   for lo in range(0, zs.size, ROW_CHUNK)):
            raise ValueError("values must be positive")
        for lo in range(0, zs.size - 1, ROW_CHUNK):
            z = _squares(zs, lo, lo + ROW_CHUNK + 1)
            if (z[1:] > z[:-1] * (1.0 + 1e-12)).any():
                raise ValueError("sequence is not nonincreasing")
        quart = max(1, zs.size // 4)
        return bool(_k_times_max(zs, zs.size - quart, zs.size)
                    < 0.1 * _k_times_max(zs, 0, quart))


def monotone_prefix(roots: Sequence[float]) -> int:
    """Length of the maximal nonincreasing positive prefix of the squares
    of ``roots``; a square that is not ``> 0``, nan included, ends it.

    Trace tails that have reached the floating-point floor jitter at rounding
    level; the small-o diagnostic is applied to the prefix that still
    measures the iteration rather than the noise.  An array is scanned in
    place, one chunk at a time, each chunk squared as it is scanned.
    """
    v = np.asarray(roots, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, v.size, ROW_CHUNK):
            back = 1 if lo else 0  # one row of look-back past the first chunk
            w = _squares(v, lo - back, lo + ROW_CHUNK)
            bad = ~(w[back:] > 0.0)
            bad[1 - back:] |= w[1:] > w[:-1] * (1.0 + 1e-12)
            if bad.any():
                return lo + int(np.argmax(bad))
    return int(v.size)
