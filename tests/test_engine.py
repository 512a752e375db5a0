import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ikm import problems
from ikm.engine import (
    BLOCK_ROWS,
    DEFAULT_TOL,
    OPTIONAL_COLUMNS,
    ROW_CHUNK,
    RunResult,
    STORED_COLUMNS,
    Schedule,
    StoppingRule,
    Trace,
    _alpha_second_diff_sq,
    _ck_rows,
    _y_dist_sq,
    contraction_constant,
    contraction_rows,
    descent_rows,
    monotone_prefix,
    picard,
    product_bound_rows,
    run,
    small_o_check,
    verify_Ck_monotone,
    verify_contraction,
    verify_descent,
    verify_product_bound,
)
from ikm.engine import is_reference_point
from ikm.linalg import (DifferenceMap, GramMap, LinearMap, SpectralMap, flush_subnormals, norm,
                        operator_norm_estimate)
from ikm.operators import (
    OperatorHandle,
    box,
    davis_yin_op,
    diagonal_quadratic,
    douglas_rachford_op,
    forward_backward_op,
    gradient_step_op,
    l1,
    primal_dual_op,
    split_dr_op,
    zero,
)
from ikm.problems import _orthogonal, _sensing_data, _tv1d_saddle
from ikm.rng import SplitMix64

IDENTITY = douglas_rachford_op(zero(), zero(), 1.0)  # exact identity map


def rand_vec(gen, n):
    return np.array([gen.normal() for _ in range(n)])


def recording_handle(T):
    """``T`` with an ``apply`` that appends each ``(y_k, T y_k)`` to a list."""
    calls = []

    def apply(y):
        ty = T.apply(y)
        calls.append((y, ty))
        return ty

    return dataclasses.replace(T, apply=apply), calls


def per_row(f):
    """A stack objective for ``run`` from a per-point one: ``f`` on each row."""
    return lambda xs: np.array([f(x) for x in xs])


def at(schedule, k):
    """``(alpha_k, lambda_k)`` of a schedule as Python floats."""
    a, lam = schedule.columns(np.array([k]))
    return a.item(), lam.item()


def rebuild_iterates(x1, sched, calls):
    """x_1, ..., x_{K+1} from recorded (y_k, T y_k): x_{k+1} = (1-l) y_k + l T y_k."""
    xs = [x1]
    for k, (y, ty) in enumerate(calls, start=1):
        lam = at(sched, k)[1]
        xs.append(ty if lam == 1.0 else (1.0 - lam) * y + lam * ty)
    return xs


# --------------------------------------------------------------------------
# schedules


def test_schedule_constant_validation():
    # a constant schedule is a table of one entry each, checked as a table
    with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
        Schedule.constant(1.0, 0.5)
    with pytest.raises(ValueError, match="lambda values must be > 0"):
        Schedule.constant(0.5, 0.0)
    # nan fails `lambda > 0` although it also fails `lambda <= 0`
    with pytest.raises(ValueError, match="lambda values must be > 0"):
        Schedule.constant(0.5, np.nan)
    s = Schedule.constant(0.2, 1.5)  # over-relaxation stays expressible
    assert at(s, 10) == (0.2, 1.5)


def test_schedule_ramp():
    s = Schedule.ramp(0.0, 0.3, 4, [0.5])
    vals = [at(s, k)[0] for k in range(1, 7)]
    assert vals == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.3, 0.3])
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match="lambda values must be > 0"):
        Schedule.ramp(0.0, 0.3, 4, [0.5, np.nan])
    # 0.3 + (end - 0.3) * (2**53 - 2) / (2**53 - 1) rounds to 1.0 > end at
    # k = 2**53 - 1, the index before the ramp holds end
    end = np.nextafter(1.0, 0.0)
    with pytest.raises(ValueError, match="rounds above alpha_end"):
        Schedule.ramp(0.3, end, 2 ** 53, [0.5])
    assert at(Schedule.ramp(0.3, end, 2 ** 52, [0.5]), 2 ** 52 - 1)[0] <= end


def test_schedule_table_holds_last_and_validates():
    s = Schedule.table([0.1, 0.2], [0.9, 0.8, 0.7])
    assert at(s, 5) == (0.2, 0.7)
    with pytest.raises(ValueError):
        Schedule.table([0.2, 0.1], [1.0])  # decreasing alpha
    with pytest.raises(ValueError):
        Schedule.table([0.1], [0.0])
    with pytest.raises(ValueError, match="lambda values must be > 0"):
        Schedule.table([0.1], [np.nan, 0.9])


def test_schedule_ramp_validation():
    # alpha is checked before ramp_iters, and both before the lambdas
    for start, end in [(0.5, 1.0), (0.3, 0.2), (-0.1, 0.2), (np.nan, 0.2), (0.1, np.nan)]:
        with pytest.raises(ValueError, match=r"need 0 <= alpha_start <= alpha_end < 1"):
            Schedule.ramp(start, end, 4, [0.0])
    with pytest.raises(ValueError, match="ramp_iters must be >= 1"):
        Schedule.ramp(0.1, 0.2, 0, [0.0])
    with pytest.raises(ValueError, match="tables must be non-empty"):
        Schedule.ramp(0.1, 0.2, 4, [])
    s = Schedule.ramp(0.2, 0.2, 1, [0.5])  # a one-step ramp is a constant
    assert s.const_from == 1 and s.limit == (0.2, 0.5) and at(s, 7) == (0.2, 0.5)


@pytest.mark.parametrize("k", [2, 32, 33, 40])
def test_schedule_table_rejects_a_decrease_at_any_index(k):
    # k = 33 is the first index of a run's second BLOCK_ROWS block, where the
    # run used to check it
    alphas = [0.3] * 40
    alphas[k - 1:] = [0.2] * (41 - k)
    with pytest.raises(ValueError, match="alpha table must be nondecreasing"):
        Schedule.table(alphas, [0.5])
    Schedule.table(alphas[:k - 1], [0.5])  # the entries before it are fine


def test_schedule_checks_entries_no_run_would_reach():
    # the constructors check every entry, so an invalid one deep in a table
    # is refused although the identity converges at k = 1
    with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
        Schedule.table([0.2] * 9 + [1.5], [0.5])
    with pytest.raises(ValueError, match="lambda values must be > 0"):
        Schedule.table([0.1], [0.9] * 4 + [np.nan])
    # an alpha out of range is reported before a lambda in the same table
    with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\)"):
        Schedule.table([np.nan], [-1.0])
    res = run(IDENTITY, np.ones(3), Schedule.table([0.2] * 10, [0.5]), StoppingRule(100, 0.0))
    assert res.status == "converged" and res.iterations == 1


@st.composite
def ramp_and_table_cases(draw):
    """(alpha_start, alpha_end, ramp_iters, alphas, lambdas, ks): ks reach past
    the ramp and both tables."""
    start = draw(st.floats(0.0, 0.99))
    end = draw(st.floats(start, 0.99))
    ramp_iters = draw(st.one_of(st.integers(1, 5), st.integers(1, 10 ** 6)))
    alphas = sorted(draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=6)))
    lambdas = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=6))
    near = st.integers(max(1, ramp_iters - 3), ramp_iters + 3)
    ks = draw(st.lists(st.one_of(st.integers(1, 10), near, st.integers(1, 2 * 10 ** 6)),
                       min_size=1, max_size=20))
    return start, end, ramp_iters, alphas, lambdas, ks


@settings(max_examples=300, deadline=None)
@given(case=ramp_and_table_cases())
@example(case=(0.0, 0.3, 1, [0.1], [0.5], [1, 2, 3]))
@example(case=(0.1, 0.7, 3, [0.0, 0.2], [0.9, 1.3], [1, 2, 3, 4, 10 ** 7]))
# a subnormal ramp entry: NumPy flags the underflow the scalar formula passes over
@example(case=(0.0, 2.2250738585072014e-308, 4, [0.0], [1.0], [2]))
def test_ramp_and_table_columns_match_the_scalar_formulas(case):
    start, end, ramp_iters, alphas, lambdas, ks = case
    # the formulas as scalar Python float arithmetic, one index at a time
    ramp = [end if k >= ramp_iters else start + (end - start) * (k - 1) / (ramp_iters - 1)
            for k in ks]
    alpha_table = [alphas[min(k - 1, len(alphas) - 1)] for k in ks]
    lambda_table = [lambdas[min(k - 1, len(lambdas) - 1)] for k in ks]
    index = np.array(ks, dtype=np.int64)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        ramp_cols = Schedule.ramp(start, end, ramp_iters, lambdas).columns(index)
        table_cols = Schedule.table(alphas, lambdas).columns(index)
    want = np.array(ramp), np.array(lambda_table)
    assert [c.tobytes() for c in ramp_cols] == [c.tobytes() for c in want]
    want = np.array(alpha_table), np.array(lambda_table)
    assert [c.tobytes() for c in table_cols] == [c.tobytes() for c in want]
    assert all(c.dtype == np.float64 for c in ramp_cols + table_cols)


ALPHAS = st.floats(0.0, 1.0, exclude_max=True)
# subnormal lambdas included: positive is all a schedule asks of them
LAMBDAS = st.lists(st.one_of(st.floats(1e-3, 2.0), st.floats(5e-324, 1e-300)),
                   min_size=1, max_size=6)


@st.composite
def built_schedule_cases(draw):
    """(constructor, arguments, ends): the arguments of one ``Schedule``
    constructor, ramps up to ``2**52`` steps included, and the indices at
    which a ramp or a table ends."""
    lambdas = draw(LAMBDAS)
    kind = draw(st.sampled_from(["constant", "ramp", "table"]))
    if kind == "constant":
        return kind, (draw(ALPHAS), lambdas[0]), [1]
    if kind == "table":
        alphas = sorted(draw(st.lists(ALPHAS, min_size=1, max_size=6)))
        return kind, (alphas, lambdas), [len(alphas), len(lambdas)]
    start = draw(ALPHAS)
    end = draw(st.floats(start, 1.0, exclude_max=True))
    ramp_iters = draw(st.one_of(st.integers(1, 5), st.integers(1, 2 ** 52),
                                st.integers(2 ** 52 - 4, 2 ** 52)))
    return kind, (start, end, ramp_iters, lambdas), [ramp_iters, len(lambdas)]


@settings(max_examples=300, deadline=None)
@given(case=built_schedule_cases())
# refused: alpha_{2**53 - 1} rounds to 1.0
@example(case=("ramp", (0.3, np.nextafter(1.0, 0.0), 2 ** 53, [0.5]), [2 ** 53, 1]))
@example(case=("ramp", (0.1, 0.7, 2 ** 52, [0.5, 1e-310]), [2 ** 52, 2]))
def test_built_schedules_hold_what_a_run_reads(case):
    # a run reads a schedule without checking it, so every constructor must
    # give alpha_k nondecreasing in [0, 1) and lambda_k > 0; indices near 1,
    # near the end of each ramp and table and past const_from
    kind, args, ends = case
    try:
        schedule = getattr(Schedule, kind)(*args)
    except ValueError:
        # only a ramp whose climb rounds above alpha_end is refused
        start, end, ramp_iters, _ = args
        assert kind == "ramp" and start + (end - start) * (ramp_iters - 2) / (ramp_iters - 1) > end
        return
    n = schedule.const_from
    ks = {1, 2, 3, n, n + 1, n + 2, n + 10 ** 6}
    for end in ends:
        ks.update(range(max(1, end - 3), end + 4))
    alpha, lam = schedule.columns(np.array(sorted(ks), dtype=np.int64))
    assert ((0.0 <= alpha) & (alpha < 1.0)).all()
    assert (np.diff(alpha) >= 0.0).all()
    assert (lam > 0.0).all()
    assert (alpha[-3:] == schedule.limit[0]).all() and (lam[-3:] == schedule.limit[1]).all()


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(max_iters=0)
    with pytest.raises(ValueError):
        StoppingRule(max_iters=10, residual_tol=-1.0)


@pytest.mark.parametrize("residual_tol, stall_tol, message", [
    (float("nan"), None, "residual_tol must be >= 0"),
    (0.0, -1.0, "stall_tol must be >= 0"),
    (0.0, float("nan"), "stall_tol must be >= 0"),
    (-0.0, -1e-300, "stall_tol must be >= 0"),
])
def test_stopping_rule_rejects_nan_and_negative_tolerances(residual_tol, stall_tol, message):
    # a nan tolerance never stops a run, a negative stall_tol never either
    with pytest.raises(ValueError, match=message):
        StoppingRule(10, residual_tol, stall_tol)
    assert StoppingRule(10, 0.0, 0.0).stall_tol == 0.0
    assert StoppingRule(10, float("inf")).residual_tol == float("inf")


# --------------------------------------------------------------------------
# one KM step through run()


def test_km_step_bit_identical_to_apply_when_unrelaxed(quad_50):
    T = quad_50.operator("gradient")
    gen = SplitMix64(1)
    x = rand_vec(gen, 50)
    res = run(T, x, Schedule.constant(0.0, 1.0), StoppingRule(1, 0.0))
    assert res.status == "max_iters" and res.iterations == 1
    np.testing.assert_array_equal(res.xs[-1], T.apply(x))
    np.testing.assert_array_equal(res.xs[0], x)
    np.testing.assert_array_equal(res.ys[-1], x)


def test_km_step_identity_operator_is_stationary():
    gen = SplitMix64(2)
    x = rand_vec(gen, 7)
    res = run(IDENTITY, x, Schedule.constant(0.3, 0.5), StoppingRule(10, 0.0))
    assert res.status == "converged"
    assert (res.rows.residual == 0.0).all()
    np.testing.assert_allclose(res.xs[-1], x, atol=1e-15)


def test_km_step_fixed_point_absorption(quad_50):
    T = quad_50.operator("gradient")
    p = quad_50.reference_solution
    res = run(T, p, Schedule.constant(0.3, 0.8), StoppingRule(5, 0.0))
    assert norm(res.xs[-1] - p) <= 1e-12
    assert (res.rows.residual <= 1e-12).all()


# --------------------------------------------------------------------------
# run


def test_run_identity_terminates_immediately():
    gen = SplitMix64(3)
    x = rand_vec(gen, 6)
    res = run(IDENTITY, x, Schedule.constant(0.0, 0.5), StoppingRule(100, 0.0))
    assert res.status == "converged"
    assert res.iterations == 1
    assert res.rows[0].residual == 0.0


def test_run_picard_contracts_by_spectral_factor(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    q = T.q_factor
    res = run(T, inst.start_point("gradient"), Schedule.constant(0.0, 1.0),
              StoppingRule(200, 1e-13), p_ref=inst.reference_solution)
    dists = res.rows.dist_to_ref.tolist()
    for a, b in zip(dists, dists[1:]):
        assert b <= q * a * (1.0 + 1e-9) + 1e-12


def test_run_ignores_invalid_entries_past_max_iters():
    # the run reads the schedule at no index past max_iters = 10
    sched = Schedule.table([0.2], [0.5])
    columns, asked = sched.columns, []

    def recording_columns(ks):
        asked.append(ks.max())
        return columns(ks)

    sched.columns = recording_columns
    halve = OperatorHandle(apply=lambda x: 0.5 * x)
    res = run(halve, np.ones(3), sched, StoppingRule(10, 0.0))
    assert res.status == "max_iters" and res.iterations == 10
    assert max(asked) == 10


def test_run_reads_a_table_one_block_at_a_time():
    # alpha and lambda change at every index up to 40, across the first
    # BLOCK_ROWS block; each block is read once, at its first step, up to
    # max_iters
    assert BLOCK_ROWS == 32
    alphas = np.linspace(0.0, 0.6, 40).tolist()
    sched = Schedule.table(alphas, np.linspace(0.5, 1.2, 37).tolist())
    columns, asked = sched.columns, []

    def recording_columns(ks):
        asked.append(ks.tolist())
        return columns(ks)

    sched.columns = recording_columns
    halve, calls = recording_handle(OperatorHandle(apply=lambda x: 0.5 * x))
    x1 = np.ones(3)
    res = run(halve, x1, sched, StoppingRule(70, 0.0))
    assert res.status == "max_iters" and res.iterations == 70
    assert asked == [list(range(1, 33)), list(range(33, 65)), list(range(65, 71))]
    # each y_k is x_k + alpha_k (x_k - x_{k-1}) at the table's alpha_k, bit for bit
    xs = [x1] + rebuild_iterates(x1, sched, calls)
    for k, (y, _) in enumerate(calls, start=1):
        want = xs[k] + at(sched, k)[0] * (xs[k] - xs[k - 1]) if k > 1 else x1
        assert y.tobytes() == want.tobytes()


def test_run_divergence_returns_the_partial_trace():
    # x <- 3x diverges geometrically: 3^k overflows at k = 647, whose T y_k
    # is the first non-finite point, so rows 1 .. 646 are kept
    blow = OperatorHandle(apply=lambda x: 3.0 * x)
    res = run(blow, np.ones(4), Schedule.constant(0.0, 1.0), StoppingRule(10_000, 0.0))
    assert isinstance(res, RunResult)
    assert res.status == "diverged"
    assert res.rows.k.tolist() == list(range(1, 647))


def _reference_divergence(T, x1, lam):
    """First k at which y_k, T y_k or x_{k+1} turns non-finite (alpha = 0),
    the number of rows the run has recorded by then, x_k, and the iterate
    the last of those rows describes."""
    x_prev = x = x1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 10_000):
            ty = T.apply(x)
            if not np.all(np.isfinite(ty)):
                return k, k - 1, x, x_prev
            x_new = (1.0 - lam) * x + lam * ty
            if not np.all(np.isfinite(x_new)):
                return k, k, x, x
            x_prev, x = x, x_new
    raise AssertionError("reference iteration did not diverge")


@pytest.mark.parametrize("factor, lam, x1", [
    # T y overflows first; x_{k+1} = 2 x_k
    (3.0, 0.5, np.ones(4)),
    # T y stays finite while 1.5 T y overflows in x_{k+1}; every residual
    # norm overflows before that, so the exact test runs on each step
    (2.0, 1.5, np.full(4, 7e307 / 2.5 ** 10)),
])
@pytest.mark.parametrize("with_ref", [False, True])
def test_run_relaxed_divergence_k_and_partial_rows(factor, lam, x1, with_ref):
    T = OperatorHandle(apply=lambda x: factor * x)
    k_ref, n_rows, x_k, x_row = _reference_divergence(T, x1, lam)
    p_ref = np.zeros(4) if with_ref else None
    res = run(T, x1, Schedule.constant(0.0, lam), StoppingRule(10_000, 0.0), p_ref=p_ref)
    assert res.status == "diverged" and k_ref > 10
    rows = res.rows
    assert rows.k.tolist() == list(range(1, n_rows + 1))
    np.testing.assert_array_equal(res.xs[-1], x_k)
    # the last row describes x_{k-1} when T y_k overflows, x_k when x_{k+1} does
    assert res.x_last is res.xs[1 if n_rows == k_ref else 0]
    np.testing.assert_array_equal(res.x_last, x_row)
    assert (rows.dist_to_ref is not None) == with_ref
    x = x1
    with np.errstate(over="ignore"):
        for residual in rows.residual.tolist():
            assert residual == norm(x - T.apply(x))
            x = (1.0 - lam) * x + lam * T.apply(x)


@pytest.mark.parametrize("stop, status, index", [
    (StoppingRule(10_000, 1e-8), "converged", 1),
    (StoppingRule(10_000, 0.0, stall_tol=1e-6), "stalled", 1),
    (StoppingRule(25, 0.0), "max_iters", 0),
])
def test_run_x_last_is_the_iterate_of_the_last_row(stop, status, index):
    halve = OperatorHandle(apply=lambda x: 0.5 * x)
    p = np.zeros(3)
    res = run(halve, np.arange(1.0, 4.0), Schedule.constant(0.2, 0.9), stop, p_ref=p,
              objective=per_row(lambda x: float(x @ x)))
    assert res.status == status
    assert res.x_last is res.xs[index]
    last = res.rows[-1]
    assert last.dist_to_ref == norm(res.x_last - p)
    assert last.objective == float(res.x_last @ res.x_last)


def test_run_trace_memory_is_its_columns(tv_200):
    op = tv_200.operator("pd")
    p = tv_200.fixed_point("pd")
    x1 = tv_200.start_point("pd")
    tracemalloc.start()
    try:
        res = run(op, x1, Schedule.constant(0.2, 1.0), StoppingRule(100_000, 1e-10), p_ref=p,
                  objective=lambda x: tv_200.objective(op.extract_solution(x)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "converged" and len(res.rows) > 10_000
    columns = sum(getattr(res.rows, name).nbytes for name in STORED_COLUMNS
                  if getattr(res.rows, name) is not None)
    # 8 bytes a measured value and the two 32-row blocks while stepping
    # (1.58 times the stored columns); forming the six derived columns at
    # the end of the run took 3.34 times
    assert peak < 1.8 * columns


def reference_trace(T, x1, sched, max_iters, p_ref=None, objective=None, stall_tol=None):
    """``run``'s trace (at ``residual_tol = 0``, with ``T.gamma``) from a per-step loop.

    Norms are ``np.dot`` per step and ``objective`` is called on one point
    at a time.  Returns the trace and the step at which an iterate turned
    non-finite (None when none did); on a non-finite ``y_k`` or ``T y_k``
    row k is left out, on a non-finite ``x_{k+1}`` it is kept.
    """
    res, step, dist, obj = ([] for _ in range(4))
    x_prev = x_curr = x1
    diverged = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iters + 1):
            a_k, l_k = at(sched, k)
            diff = x_curr - x_prev
            y = x_curr if a_k == 0.0 else flush_subnormals(x_curr + a_k * diff)
            ty = T.apply(y)
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(ty))):
                diverged = k
                break
            r = y - ty
            res.append(float(np.dot(r, r)) ** 0.5)
            step.append(float(np.dot(diff, diff)) ** 0.5)
            if p_ref is not None:
                e = x_curr - p_ref
                dist.append(float(np.dot(e, e)) ** 0.5)
            if objective is not None:
                obj.append(float(objective(x_curr)))
            if res[-1] <= 0.0 or (stall_tol is not None and k > 1 and step[-1] <= stall_tol):
                break
            x_new = ty if l_k == 1.0 else flush_subnormals((1.0 - l_k) * y + l_k * ty)
            if not np.all(np.isfinite(x_new)):
                diverged = k
                break
            x_prev, x_curr = x_curr, x_new
    trace = Trace(sched, T.gamma, k=np.arange(1, len(res) + 1), residual=res, step=step,
                  dist_to_ref=dist if p_ref is not None else None,
                  objective=obj if objective is not None else None)
    return trace, diverged


def same_trace(got, want):
    """Whether two traces hold the same stored columns by ``tobytes`` (or
    both lack one), the same gamma, and schedules with the same bits at
    their ks."""
    for name in STORED_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        if (a is None) != (b is None) or (a is not None and a.tobytes() != b.tobytes()):
            return False
    return got.gamma == want.gamma and all(
        a.tobytes() == b.tobytes()
        for a, b in zip(got.schedule.columns(got.k), want.schedule.columns(want.k)))


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 3])
@pytest.mark.parametrize("alpha, lam", [(0.0, 1.0), (0.0, 0.9), (0.2, 1.0), (0.2, 0.9)])
def test_run_block_columns_match_a_per_step_loop(rows, alpha, lam):
    # runs cut by max_iters at and around the block boundaries: the columns
    # measured a block at a time have the bits of per-step np.dot norms and
    # per-point objective calls
    inst = problems.make_quadratic(12, 1.0, 10.0, 3)
    T = inst.operator("gradient")
    x1 = inst.start_point("gradient")
    p = inst.fixed_point("gradient")
    sched = Schedule.constant(alpha, lam)
    for p_ref, objective in ((None, None), (p, None), (None, inst.objective),
                             (p, inst.objective)):
        res = run(T, x1, sched, StoppingRule(rows, 0.0), p_ref=p_ref, objective=objective)
        want, diverged = reference_trace(T, x1, sched, rows, p_ref, objective)
        assert res.status == "max_iters" and diverged is None
        assert len(res.rows) == rows
        assert same_trace(res.rows, want)


def test_run_stall_stop_matches_a_per_step_loop():
    inst = problems.make_quadratic(12, 1.0, 10.0, 3)
    T = inst.operator("gradient")
    x1 = inst.start_point("gradient")
    sched = Schedule.constant(0.2, 0.9)
    steps = reference_trace(T, x1, sched, 200)[0].step
    # a step below every earlier one, on a mid-block row past two blocks, as
    # the stall tolerance
    j = next(i for i in range(2 * BLOCK_ROWS + 5, steps.size)
             if steps[i] < steps[1:i].min() and (i + 1) % BLOCK_ROWS)
    tol = float(steps[j])
    want, _ = reference_trace(T, x1, sched, 200, inst.fixed_point("gradient"), inst.objective,
                              stall_tol=tol)
    res = run(T, x1, sched, StoppingRule(200, 0.0, stall_tol=tol),
              p_ref=inst.fixed_point("gradient"), objective=inst.objective)
    assert res.status == "stalled" and len(res.rows) == j + 1
    assert same_trace(res.rows, want)


def test_run_divergence_mid_block_keeps_k_and_partial_rows():
    # T y_k turns NaN at the (BLOCK_ROWS + 5)-th call: the run ends diverged
    # at that k, with the rows before it, the last partial block included
    bad_call = BLOCK_ROWS + 5
    calls = -1  # run() applies T once to check p_ref before its first step

    def apply(y):
        nonlocal calls
        calls += 1
        ty = 0.5 * y
        if calls == bad_call:
            ty[1] = np.nan
        return ty

    halve = OperatorHandle(apply=apply)
    x1, p = np.arange(1.0, 5.0), np.zeros(4)
    sched = Schedule.constant(0.2, 0.9)
    sq = lambda x: float(x @ x)  # noqa: E731
    res = run(halve, x1, sched, StoppingRule(1000, 0.0), p_ref=p, objective=per_row(sq))
    calls = 0
    want, diverged = reference_trace(halve, x1, sched, 1000, p, sq)
    assert res.status == "diverged" and diverged == bad_call
    assert len(res.rows) == bad_call - 1
    assert same_trace(res.rows, want)


@pytest.mark.parametrize("with_ref", [False, True])
def test_run_divergence_on_overflowing_relaxed_step(with_ref):
    # T y = 2 y with lambda = 1.5 from x_1 = 1.8: y_k = 1.8 * 2.5^(k-1), and
    # at k = 774 T y_k = 1.5e308 is finite (its residual norm has overflowed
    # long before, which alone is no divergence) while 1.5 T y_k overflows,
    # so x_{k+1} is the first non-finite iterate and row k is kept; the
    # per-step engine before row blocks gave the same k and rows
    double = OperatorHandle(apply=lambda y: 2.0 * y)
    x1, p = np.full(3, 1.8), np.zeros(3) if with_ref else None
    sched = Schedule.constant(0.0, 1.5)
    res = run(double, x1, sched, StoppingRule(10_000, 0.0), p_ref=p)
    want, diverged = reference_trace(double, x1, sched, 10_000, p)
    assert res.status == "diverged" and diverged == 774
    assert len(res.rows) == 774
    assert np.isfinite(res.xs[1]).all()
    assert same_trace(res.rows, want)


def test_run_keeps_subnormals_out_of_operator_inputs(lasso_default):
    # x_{k+1} = (1 - l) y_k + l T y_k decays as (1 - l)^k on coordinates the
    # l1 prox sets to 0, and x1 starts with subnormal entries; without the
    # flush 176 of these 692 inputs carry subnormal entries, and a matvec on
    # them is many times slower
    inst = lasso_default
    T = inst.operator("fb")
    tiny = np.finfo(float).tiny
    x1 = inst.start_point("fb").copy()
    x1[::7] = 1e-310
    x1_copy = x1.copy()
    inputs_with_subnormals = 0
    outputs = []

    def apply(y):
        nonlocal inputs_with_subnormals
        a = np.abs(y)
        inputs_with_subnormals += bool(np.any((a > 0.0) & (a < tiny)))
        ty = T.apply(y)
        outputs.append((ty, ty.copy()))
        return ty

    res = run(dataclasses.replace(T, apply=apply), x1, Schedule.constant(0.2, 0.9),
              StoppingRule(2000, 1e-10), p_ref=inst.fixed_point("fb"))
    # one apply per step, and one for run()'s check of p_ref
    assert res.status == "converged" and len(outputs) == res.iterations + 1
    assert inputs_with_subnormals == 0
    np.testing.assert_array_equal(x1, x1_copy)
    for ty, ty_copy in outputs:
        np.testing.assert_array_equal(ty, ty_copy)


def test_exact_zeros_marks_the_maps_that_can_make_zeros(quad_50, lasso_default, tv_200,
                                                       three_term_default):
    # l1 prox, box projection and Moreau-form conjugates can map a nonzero
    # entry to an exact zero; a gradient step and the l1 conjugate's clip cannot
    feasibility = problems.make_feasibility(10, 1)
    marks = {
        "gradient": quad_50.operator("gradient").exact_zeros,
        "proximal quadratic": quad_50.operator("proximal").exact_zeros,
        "fb": lasso_default.operator("fb").exact_zeros,
        "pd": tv_200.operator("pd").exact_zeros,
        "sdr": tv_200.operator("sdr").exact_zeros,
        "dy": three_term_default.operator("dy").exact_zeros,
        "dr": feasibility.operator("dr").exact_zeros,
        "pd, Moreau conjugate": primal_dual_op(zero(), box(-1.0, 1.0), DifferenceMap(5),
                                              0.4, 0.4).exact_zeros,
        "default": OperatorHandle(apply=lambda x: x).exact_zeros,
    }
    assert marks == {"gradient": False, "proximal quadratic": False, "fb": True, "pd": False,
                     "sdr": False, "dy": True, "dr": True, "pd, Moreau conjugate": True,
                     "default": True}


@pytest.mark.parametrize("alpha, lam", [(0.05, 0.9), (0.2, 1.0), (0.2, 0.8)])
def test_runs_without_the_flush_give_the_same_bytes(quad_50, tv_200, alpha, lam):
    # the gradient and pd maps skip the subnormal flush; flushing anyway
    # changes no bit of the trace or the iterates
    for inst, scheme in ((quad_50, "gradient"), (tv_200, "pd")):
        T = inst.operator(scheme)
        assert not T.exact_zeros
        runs = [run(handle, inst.start_point(scheme), Schedule.constant(alpha, lam),
                    StoppingRule(3000, 1e-10), p_ref=inst.fixed_point(scheme))
                for handle in (T, dataclasses.replace(T, exact_zeros=True))]
        assert same_trace(runs[0].rows, runs[1].rows)
        for a, b in zip(runs[0].xs + runs[0].ys, runs[1].xs + runs[1].ys):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("builder", [primal_dual_op, split_dr_op])
@pytest.mark.parametrize("n", [3, 20, 200])
def test_difference_map_runs_match_dense_runs_row_for_row(builder, n):
    # the tv1d operators as make_tv1d builds them against the same operators
    # on a dense D
    b = SplitMix64(n).normals(n)
    mu = 0.5
    D = DifferenceMap(n)
    D_dense = LinearMap(np.diff(np.eye(n), axis=0))
    assert operator_norm_estimate(D) == operator_norm_estimate(D_dense)
    # Schur's bound on the dense D is 2, above 2 cos(pi / 2n) at small n
    tau = sigma = 0.99 / D_dense.norm_upper()
    f = diagonal_quadratic(np.ones(n), b)
    structured = builder(f, l1(mu), D, tau, sigma)
    dense = builder(f, l1(mu), D_dense, tau, sigma)

    def objective(L):
        def value(z):
            r = z[:n] - b
            return 0.5 * float(r @ r) + mu * float(np.sum(np.abs(L.apply(z[:n]))))
        return value

    p = _tv1d_saddle(b, mu)
    x1 = np.zeros(2 * n - 1)
    stop = StoppingRule(max_iters=2000)
    for sched in (Schedule.constant(0.2, 1.0), Schedule.constant(0.3, 0.7)):
        got = run(structured, x1, sched, stop, p_ref=p, objective=per_row(objective(D)))
        want = run(dense, x1, sched, stop, p_ref=p, objective=per_row(objective(D_dense)))
        assert same_trace(got.rows, want.rows)  # 2000 rows, or fewer on an exact fixed point
        for a, c in zip(got.xs, want.xs):
            assert np.array_equal(a, c)


def test_spectral_map_gradient_runs_match_dense_runs_column_for_column():
    # a SpectralMap drawn as make_quadratic draws one, against a LinearMap of
    # its matrix: the gradient apply is the same GEMV on the same bits, so
    # every measured column is too
    gen = SplitMix64(1)
    w = [0.01, 10.0] + [gen.uniform_in(0.01, 10.0) for _ in range(48)]
    S = SpectralMap(_orthogonal(gen, 50), w)
    b, x1 = gen.normals(50), gen.normals(50)
    rho = 2.0 / 10.01

    def objective(x):
        xA = np.matmul(x[..., None, :], S.matrix)[..., 0, :]
        return 0.5 * np.vecdot(xA, x) - np.vecdot(x, b)

    p = S.solve(b)
    stop = StoppingRule(20_000, 1e-10)
    for sched in (Schedule.constant(0.0, 1.0), Schedule.constant(0.05, 0.9)):
        got, want = (run(gradient_step_op(A, b, rho), x1, sched, stop, p_ref=p,
                         objective=objective) for A in (S, LinearMap(S.matrix)))
        assert got.status == want.status == "converged"
        for name in ("k", "residual", "step", "dist_to_ref", "objective"):
            assert getattr(got.rows, name).tobytes() == getattr(want.rows, name).tobytes()


@pytest.mark.parametrize("scheme", ["fb", "dy"])
def test_gram_map_sweeps_match_dense_gram_sweeps(scheme, lasso_default, three_term_default):
    # the 40 x 100 test instances' operators on A^T (A x) against the same
    # operators on the dense symmetrized Gram: rounding-level differences
    # per step leave every row's status and length unchanged
    inst = lasso_default if scheme == "fb" else three_term_default
    A, b, _ = _sensing_data(40, 100, 0.1, 1)
    G, atb = A.T @ A, A.T @ b
    rho = inst.default_steps[scheme]["rho"]

    def build(A_spd):
        if scheme == "fb":
            return forward_backward_op(l1(0.1), A_spd, atb, rho)
        return davis_yin_op(l1(0.1), box(-1.0, 1.0), A_spd, atb, rho)

    factored, dense = build(GramMap(A)), build(LinearMap(0.5 * (G + G.T)))
    assert factored.gamma == pytest.approx(dense.gamma, rel=1e-14)
    x1, p = inst.start_point(scheme), inst.fixed_point(scheme)
    stop = StoppingRule(100_000, 1e-11)
    for alpha, lam in [(0.0, 1.0), (0.1, 0.9), (0.3, 0.9), (0.2, 1.2), (0.4, 0.5),
                       (0.15, 1.1), (0.0, 0.5)]:
        sched = Schedule.constant(alpha, lam)
        got, want = run(factored, x1, sched, stop, p_ref=p), run(dense, x1, sched, stop, p_ref=p)
        assert (got.status, len(got.rows)) == (want.status, len(want.rows))


def test_run_stall_detection():
    halve = OperatorHandle(apply=lambda x: 0.5 * x)
    res = run(halve, np.ones(3), Schedule.constant(0.0, 0.5),
              StoppingRule(500, 0.0, stall_tol=1e-8), )
    assert res.status == "stalled"


def test_ck_replay_definition(lasso_default):
    inst = lasso_default
    sched = Schedule.constant(0.2, 0.5)
    res = run(inst.operator("fb"), inst.start_point("fb"), sched,
              StoppingRule(50, 0.0), p_ref=inst.fixed_point("fb"))
    rows = res.rows
    C = _ck_rows(rows, 0, len(rows))
    assert rows.gamma == inst.operator("fb").gamma is not None
    assert rows[0].step == 0.0
    assert C[0] == pytest.approx(rows[0].dist_to_ref ** 2, rel=1e-12)
    for i in range(1, len(rows)):
        r, prev = rows[i], rows[i - 1]
        a_prev, lam_prev = at(sched, r.k - 1)
        # the relaxation eta = gamma lambda of the averaged map's step
        nu_prev = 1.0 / (rows.gamma * lam_prev) - 1.0
        delta = nu_prev * (1 - a_prev) * r.step ** 2
        assert C[i] == pytest.approx(
            r.dist_to_ref ** 2 - a_prev * prev.dist_to_ref ** 2 + delta, rel=1e-9, abs=1e-12)


def test_reconstruction_identity_along_trace(lasso_default):
    # lambda_k^2 res_k^2 == ||x_{k+1}-x_k||^2 + a^2 ||x_k-x_{k-1}||^2
    #                       - 2 a <x_{k+1}-x_k, x_k-x_{k-1}>
    inst = lasso_default
    sched = Schedule.constant(0.25, 0.6)
    T, calls = recording_handle(inst.operator("fb"))
    x1 = inst.start_point("fb")
    res = run(T, x1, sched, StoppingRule(400, 0.0))
    xs = rebuild_iterates(x1, sched, calls)
    np.testing.assert_array_equal(xs[-1], res.xs[-1])
    for k in range(1, len(xs) - 1):
        a, lam = at(sched, k)
        d_next = xs[k] - xs[k - 1]
        d_prev = xs[k - 1] - (xs[k - 2] if k >= 2 else xs[0])
        rhs = norm(d_next) ** 2 + a * a * norm(d_prev) ** 2 - 2 * a * np.dot(d_next, d_prev)
        lhs = lam ** 2 * res.rows[k - 1].residual ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-18)


COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(
    vecs=st.integers(1, 6).flatmap(lambda n: st.tuples(*[arrays(np.float64, n, elements=COORD)] * 4)),
    a=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                st.integers(1, 300).map(lambda e: 10.0 ** -e)),
    lam=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
)
# subnormal squared norms: the two sides differ by one smallest subnormal
@example(vecs=tuple(np.array([v]) for v in (0.0, 1.60495601e-160, 0.0, 0.0)), a=0.5, lam=0.5)
def test_row_reconstructions_match_direct_computation(vecs, a, lam):
    # rows k-1, k, k+1 of one step from x_{k-1}, x_k, T y_k and p, checked
    # against the same quantities computed from the vectors
    x_prev, x_k, ty, p = vecs
    y = x_k + a * (x_k - x_prev)
    x_next = (1.0 - lam) * y + lam * ty
    n = np.linalg.norm
    trace = Trace(Schedule.constant(a, lam), k=[1, 2, 3], residual=[0.0, n(y - ty), 0.0],
                  step=[0.0, n(x_k - x_prev), n(x_next - x_k)],
                  dist_to_ref=[n(x_prev - p), n(x_k - p), n(x_next - p)])
    # rounding of the direct side scales with the vectors themselves, down
    # to a few units of the smallest subnormal where that scale underflows
    scale = sum(n(v) ** 2 for v in (x_prev, x_k, x_next, y, ty, p))
    bound = 1e-10 * scale + 4 * np.finfo(float).smallest_subnormal
    second = a * n(x_next - 2.0 * x_k + x_prev) ** 2
    alphas, lams = np.full(2, a), np.full(2, lam)
    assert abs(_alpha_second_diff_sq(trace, alphas, lams)[1] - second) <= bound
    assert abs(_y_dist_sq(trace, alphas)[1] - n(y - p) ** 2) <= bound


# --------------------------------------------------------------------------
# columnar trace


def test_trace_rows_and_stored_columns(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.2, 0.5),
              StoppingRule(30, 0.0), p_ref=inst.fixed_point("fb"))
    trace = res.rows
    rows = [trace[i] for i in range(len(trace))]
    assert len(rows) == len(trace) == 30
    assert rows[7] == trace[7] == trace[-23] == trace[np.int64(7)]
    assert type(trace[3].k) is int and type(trace[3].residual) is float
    assert trace[0].objective is None and trace[0].rate_bound is None
    # the rows hold the columns' values, field by field, and the stored
    # fields with the schedule and gamma rebuild the trace
    stored = {name: None if getattr(trace, name) is None else [getattr(r, name) for r in rows]
              for name in STORED_COLUMNS}
    for name, values in stored.items():
        assert values == (None if values is None else getattr(trace, name).tolist()), name
    assert same_trace(Trace(trace.schedule, trace.gamma, **stored), trace)
    changed = dict(stored, step=list(stored["step"]))
    changed["step"][4] *= 2
    assert not same_trace(Trace(trace.schedule, trace.gamma, **changed), trace)
    # the replays read a trace's schedule and gamma too
    assert not same_trace(Trace(Schedule.constant(0.2, 0.6), trace.gamma, **stored), trace)
    assert not same_trace(Trace(trace.schedule, **stored), trace)
    empty = Trace(trace.schedule, **{name: [] for name in STORED_COLUMNS
                                     if name not in OPTIONAL_COLUMNS})
    assert len(empty) == 0 and empty.dist_to_ref is None
    # a part of a trace is a slice of its columns; a trace has no slices
    for index in (slice(10, 13), slice(None, None, 2), 7.0):
        with pytest.raises(TypeError):
            trace[index]
    with pytest.raises(IndexError):
        trace[30]
    with pytest.raises(IndexError):
        empty[0]
    with pytest.raises(TypeError):
        iter(trace)
    # a trace is what its run measured: the replays form the Lyapunov
    # quantities, and a trace neither computes nor stores them
    for name in ("nu_k", "delta_k", "Delta_k", "C_k", "k_step_sq", "k_res_sq", "column",
                 "_lyapunov"):
        assert not hasattr(trace, name), name
        with pytest.raises(AttributeError):
            setattr(trace, name, trace.step)
    assert "__eq__" not in vars(Trace) and trace != Trace(trace.schedule, trace.gamma, **stored)


def test_trace_rejects_columns_of_unequal_length():
    schedule = Schedule.constant(0.0, 1.0)
    with pytest.raises(ValueError, match="residual"):
        Trace(schedule, k=[1, 2], residual=[1.0], step=[0.0, 0.0])
    with pytest.raises(ValueError, match="unknown trace columns"):
        Trace(schedule, k=[1], residual=[1.0], step=[0.0], C_k=[0.0])


def per_step_C(trace):
    """``C_k`` row by row with Python floats from the trace's stored fields,
    at ``eta_k = gamma lambda_k`` when the trace has a gamma, in the
    engine's operation order: ``d*d - a*d_prev*d_prev + delta``."""
    out = []
    a_prev = nu_prev = d_prev = None
    for k, step, d in zip(trace.k.tolist(), trace.step.tolist(), trace.dist_to_ref.tolist()):
        if d_prev is None:
            out.append(d * d)
        else:
            delta = nu_prev * (1.0 - a_prev) * step * step
            out.append(d * d - a_prev * d_prev * d_prev + delta)
        a_prev, l_k = at(trace.schedule, k)
        nu_prev = 1.0 / (l_k if trace.gamma is None else trace.gamma * l_k) - 1.0
        d_prev = d
    return out


def rows_Ck(trace, tol):
    """The failing ks of :func:`verify_Ck_monotone`, row by row over
    :func:`per_step_C`; a nan fails."""
    C = per_step_C(trace)
    return [int(trace.k[i]) for i, c in enumerate(C)
            if not c >= -tol or (i + 1 < len(C) and not C[i + 1] <= c + tol * (1.0 + c))]


def same_verdict(got, fails, checked):
    """Whether ``got`` is the verdict of a check over ``checked`` indices
    that fails at the ks ``fails``: their first five, in order."""
    return (got.status == ("FAIL" if fails else "PASS") and got.fails == tuple(fails[:5])
            and got.checked == checked)


@pytest.mark.parametrize("sched", [Schedule.constant(0.2, 0.7),
                                   Schedule.table([0.0, 0.1, 0.1, 0.3], [0.9, 0.4, 1.3])])
def test_ck_rows_match_per_step_scalars_bitwise(quad_50, sched):
    inst = quad_50
    res = run(inst.operator("gradient"), inst.start_point("gradient"), sched,
              StoppingRule(400, 0.0), p_ref=inst.reference_solution)
    assert res.rows.gamma == inst.operator("gradient").gamma < 1.0
    got = _ck_rows(res.rows, 0, len(res.rows))
    assert got.tobytes() == np.array(per_step_C(res.rows)).tobytes()


def test_divergence_partial_trace_replays_C_k():
    blow = OperatorHandle(apply=lambda x: 3.0 * x)
    sched = Schedule.constant(0.1, 0.8)
    res = run(blow, np.ones(4), sched, StoppingRule(10_000, 0.0), p_ref=np.zeros(4))
    assert res.status == "diverged"
    trace = res.rows
    assert len(trace) >= 10
    with np.errstate(over="ignore", invalid="ignore"):
        got = _ck_rows(trace, 0, len(trace))
    assert np.array_equal(got, np.array(per_step_C(trace)), equal_nan=True)
    assert same_verdict(verify_Ck_monotone(trace), rows_Ck(trace, DEFAULT_TOL), len(trace))


def eta_of(trace, lam):
    """``gamma * lam`` at the trace's gamma, ``lam`` when it has none."""
    return lam if trace.gamma is None else trace.gamma * lam


CK_SCHEDULES = {
    "constant": Schedule.constant(0.2, 0.7),
    "ramp": Schedule.ramp(0.0, 0.3, ROW_CHUNK + 20, [0.5, 0.9, 1.1]),
    "table": Schedule.table([0.0, 0.1, 0.1, 0.3], [0.9, 0.4, 1.3]),
}
EDGE_VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 2.2250738585072014e-308,
               1e-160, 0.1, 1.0 / 3.0, 7.0]


def ck_cases(quad_50, sched, n):
    """A run of ``n`` rows with a reference, and a trace of edge values
    (signed zeros, infinities, nans, subnormals) under ``sched``, without a
    gamma and with the run's."""
    T = quad_50.operator("gradient")
    yield run(T, quad_50.start_point("gradient"), sched, StoppingRule(n, 0.0),
              p_ref=quad_50.reference_solution).rows
    gen = np.random.default_rng(3)
    edges = {name: gen.choice(EDGE_VALUES, n) for name in ("residual", "step", "dist_to_ref")}
    for gamma in (None, T.gamma):
        yield Trace(sched, gamma, k=np.arange(1, n + 1), **edges)


@pytest.mark.parametrize("n", [ROW_CHUNK - 1, ROW_CHUNK + 1, 2 * ROW_CHUNK + 5])
@pytest.mark.parametrize("name", sorted(CK_SCHEDULES))
def test_ck_replay_gives_the_per_step_first_failing_k(quad_50, name, n):
    R = ROW_CHUNK
    for trace in ck_cases(quad_50, CK_SCHEDULES[name], n):
        assert len(trace) == n
        want = np.array(per_step_C(trace))
        with np.errstate(over="ignore", invalid="ignore"):
            # any chunk of rows has the bits of the per-step values
            for lo, hi in ((0, n), (0, 1), (1, 2), (R - 1, R + 1), (R, 2 * R + 3),
                           (n - 1, n), (n - R - 2, n - 1), (3, n)):
                hi = min(hi, n)
                if 0 <= lo < hi:
                    assert _ck_rows(trace, lo, hi).tobytes() == want[lo:hi].tobytes(), (lo, hi)
        for tol in (0.0, 1e-9):
            assert same_verdict(verify_Ck_monotone(trace, tol), rows_Ck(trace, tol), n)
    run_without_ref = run(quad_50.operator("gradient"), quad_50.start_point("gradient"),
                          CK_SCHEDULES[name], StoppingRule(n, 0.0)).rows
    with pytest.raises(ValueError, match="lacks C_k"):
        verify_Ck_monotone(run_without_ref)


# row-by-row replays as the engine ran them before the columns, with every
# square written x * x; the column replays must give the same floats


def rows_descent(rows, sched, tol, gamma=None):
    out = ([], [], [], [])
    for i in range(len(rows) - 1):
        k = rows[i].k
        a, lam = at(sched, k)
        nu = 1.0 / (lam if gamma is None else gamma * lam) - 1.0
        sq = lambda v: v * v  # noqa: E731
        d_k, d_next = sq(rows[i].dist_to_ref), sq(rows[i + 1].dist_to_ref)
        d_prev = sq(rows[i - 1].dist_to_ref) if i >= 1 else d_k
        second = 0.0 if a == 0.0 else max(
            lam * lam * sq(rows[i].residual) - (1.0 - a) * sq(rows[i + 1].step)
            + a * (1.0 - a) * sq(rows[i].step), 0.0)
        delta_next = nu * (1.0 - a) * rows[i + 1].step * rows[i + 1].step
        lhs = (d_next - d_k) + delta_next + nu * second
        rhs = a * (0.0 if k == 1 else d_k - d_prev) \
            + (a * (1.0 + a) + nu * a * (1.0 - a)) * sq(rows[i].step)
        _append(out, k, lhs, rhs, tol)
    return out


def rows_contraction(rows, sched, q, xi, tol, product=False):
    out = ([], [], [], [])
    prod = 1.0
    sq = lambda v: v * v  # noqa: E731
    for i in range(len(rows) - 1):
        k = rows[i].k
        a, lam = at(sched, k)
        Q = contraction_constant(lam, q, xi)
        d_k = sq(rows[i].dist_to_ref)
        if product:
            prod *= Q
            # delta_{k+1} at lambda_k, whatever the trace's gamma
            delta = (1.0 / lam - 1.0) * (1.0 - a) * rows[i + 1].step * rows[i + 1].step
            lhs = sq(rows[i + 1].dist_to_ref) - a * d_k + xi * delta
            rhs = prod * sq(rows[0].dist_to_ref)
        else:
            d_prev = sq(rows[i - 1].dist_to_ref) if i >= 1 else d_k
            y = (1.0 + a) * d_k - a * d_prev + a * (1.0 + a) * sq(rows[i].step)
            lhs = sq(rows[i + 1].dist_to_ref)
            rhs = Q * y - xi * lam * (1.0 - lam) * sq(rows[i].residual)
        _append(out, k, lhs, rhs, tol)
    return out


def _append(out, k, lhs, rhs, tol):
    out[0].append(k)
    out[1].append(lhs)
    out[2].append(rhs)
    if not lhs <= rhs + tol * (1.0 + abs(rhs)):  # a nan fails
        out[3].append(k)


def rows_monotone_prefix(values, slack=1e-12):
    n, prev = 0, None
    for v in values:
        if not v > 0.0 or (prev is not None and v > prev * (1.0 + slack)):
            break
        prev, n = v, n + 1
    return n


def same_floats(a, b):
    return np.array_equal(np.array(a, dtype=float), np.array(b, dtype=float), equal_nan=True)


MAGNITUDE = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e-150), st.floats(0.0, 1e150))


@st.composite
def random_traces(draw):
    n = draw(st.integers(1, 25))
    residual, step = (draw(st.lists(MAGNITUDE, min_size=n, max_size=n)) for _ in range(2))
    step[0] = 0.0
    alphas = sorted(draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4)))
    lambdas = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
    sched = Schedule.table(alphas, lambdas)
    gamma = draw(st.one_of(st.none(), st.floats(0.05, 1.0)))
    # the distances of a C_k that moves by small steps, so that both
    # verdicts occur: ||x_k - p||^2 = C_k + alpha_{k-1} ||x_{k-1} - p||^2 -
    # delta_k, clipped at 0 (where the clip binds, C_k moves further)
    a, lam = sched.columns(np.arange(1, n + 1))
    lam = lam if gamma is None else gamma * lam
    target = np.cumsum([draw(st.floats(0.0, 5.0))]
                       + draw(st.lists(st.floats(-1.0, 1e-9), min_size=n - 1, max_size=n - 1)))
    dsq = [target[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n):
            delta = (1.0 / lam[i - 1] - 1.0) * (1.0 - a[i - 1]) * step[i] * step[i]
            dsq.append(max(target[i] + a[i - 1] * dsq[-1] - delta, 0.0))
    trace = Trace(sched, gamma, k=list(range(1, n + 1)), residual=residual, step=step,
                  dist_to_ref=np.sqrt(dsq))
    return trace, sched


def test_random_traces_draw_both_verdicts():
    # the replay test below sees passing and failing traces of each kind
    for replay in (lambda trace: verify_Ck_monotone(trace).status == "PASS",
                   lambda trace: verify_descent(trace).status == "PASS"):
        for verdict in (True, False):
            find(random_traces(), lambda case: replay(case[0]) == verdict,
                 settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


@settings(max_examples=400, deadline=None)
@given(case=random_traces(), q=st.floats(0.01, 1.0), xi=st.floats(0.0, 1.0),
       tol=st.sampled_from([0.0, 1e-9]))
def test_column_replays_match_row_formulas(case, q, xi, tol):
    trace, sched = case
    rows = [trace[i] for i in range(len(trace))]
    n = len(trace) - 1
    for got, got_rows, want in (
        (verify_descent(trace, tol=tol), lambda: descent_rows(trace, 0, n),
         rows_descent(rows, sched, tol, trace.gamma)),
        (verify_contraction(trace, q, xi, tol=tol), lambda: contraction_rows(trace, q, xi, 0, n),
         rows_contraction(rows, sched, q, xi, tol)),
        (verify_product_bound(trace, q, xi, tol=tol),
         lambda: product_bound_rows(trace, q, xi, 0, n)[:2],
         rows_contraction(rows, sched, q, xi, tol, product=True)),
    ):
        assert want[0] == trace.k[:-1].tolist()
        if n:
            with np.errstate(all="ignore"):
                lhs, rhs = got_rows()
            assert same_floats(lhs, want[1]) and same_floats(rhs, want[2])
        assert same_verdict(got, want[3], n)
    assert same_verdict(verify_Ck_monotone(trace, tol=tol), rows_Ck(trace, tol), n + 1)
    with np.errstate(invalid="ignore"):
        c_roots = np.sqrt(np.array(per_step_C(trace)))  # a negative C_k has a nan root
    # both square their input: the row references read the same squares
    for roots in (trace.residual, trace.step[1:], c_roots):
        values = roots * roots
        n = monotone_prefix(roots)
        assert n == rows_monotone_prefix(values.tolist())
        if n >= 4:
            zs = values[:n].tolist()
            kz = [(i + 1) * z for i, z in enumerate(zs)]
            quart = max(1, n // 4)
            assert small_o_check(roots[:n]) == (max(kz[-quart:]) < 0.1 * max(kz[:quart]))


def test_column_replays_match_row_formulas_on_a_run(quad_50):
    T = quad_50.operator("gradient")
    sched = Schedule.ramp(0.0, 0.1, 50, [0.9])
    res = run(T, quad_50.start_point("gradient"), sched, StoppingRule(3000, 1e-12),
              p_ref=quad_50.reference_solution)
    rows = [res.rows[i] for i in range(len(res.rows))]
    n = len(rows) - 1
    want = rows_contraction(rows, sched, T.q_factor, 1.0, 1e-9)
    assert same_verdict(verify_contraction(res.rows, T.q_factor, 1.0), [], n)
    lhs, rhs = contraction_rows(res.rows, T.q_factor, 1.0, 0, n)
    assert lhs.tolist() == want[1] and rhs.tolist() == want[2]
    want = rows_descent(rows, sched, 1e-9, T.gamma)
    assert same_verdict(verify_descent(res.rows), [], n)
    lhs, rhs = descent_rows(res.rows, 0, n)
    assert lhs.tolist() == want[1] and rhs.tolist() == want[2]


# whole-column forms of the replays, as they were before the replays ran a
# chunk at a time; the chunked replays must give their bits


def whole_columns(sched, ks):
    return (np.array([at(sched, k)[0] for k in ks.tolist()], dtype=np.float64),
            np.array([at(sched, k)[1] for k in ks.tolist()], dtype=np.float64))


def whole_Q(lam, q, xi):
    return np.array([contraction_constant(v, q, xi) for v in lam.tolist()], dtype=np.float64)


def whole_report(ks, lhs, rhs, tol):
    bad = ~(lhs <= rhs + tol * (1.0 + np.abs(rhs)))  # a nan fails
    return ks, lhs, rhs, ks[bad].tolist()


def whole_dist_sq(trace):
    dsq = trace.dist_to_ref * trace.dist_to_ref
    return dsq, np.concatenate((dsq[:1], dsq[:-2]))[:dsq.size - 1]


def whole_descent(trace, sched, tol):
    ks = trace.k[:-1]
    a, lam = whole_columns(sched, ks)
    dsq, prev = whole_dist_sq(trace)
    step, res = trace.step, trace.residual[:-1]
    nu = 1.0 / eta_of(trace, lam) - 1.0
    second = np.where(a == 0.0, 0.0, np.maximum(
        (lam * lam) * (res * res) - (1.0 - a) * (step[1:] * step[1:])
        + a * (1.0 - a) * (step[:-1] * step[:-1]), 0.0))
    lhs = (dsq[1:] - dsq[:-1]) + nu * (1.0 - a) * step[1:] * step[1:] + nu * second
    rhs = a * np.where(ks == 1, 0.0, dsq[:-1] - prev) \
        + (a * (1.0 + a) + nu * a * (1.0 - a)) * (step[:-1] * step[:-1])
    return whole_report(ks, lhs, rhs, tol)


def whole_contraction(trace, q, xi, sched, tol):
    ks = trace.k[:-1]
    a, lam = whole_columns(sched, ks)
    dsq, prev = whole_dist_sq(trace)
    step, res = trace.step[:-1], trace.residual[:-1]
    y = (1.0 + a) * dsq[:-1] - a * prev + a * (1.0 + a) * (step * step)
    rhs = whole_Q(lam, q, xi) * y - xi * lam * (1.0 - lam) * (res * res)
    return whole_report(ks, dsq[1:], rhs, tol)


def whole_product(trace, q, xi, sched, tol):
    ks = trace.k[:-1]
    a, lam = whole_columns(sched, ks)
    dsq, _ = whole_dist_sq(trace)
    step = trace.step[1:]
    # delta_{k+1} at lambda_k, whatever the trace's gamma
    lhs = dsq[1:] - a * dsq[:-1] + xi * ((1.0 / lam - 1.0) * (1.0 - a) * step * step)
    return whole_report(ks, lhs, np.cumprod(whole_Q(lam, q, xi)) * dsq[:1], tol)


def whole_monotone_prefix(v, slack=1e-12):
    bad = ~(v > 0.0)
    bad[1:] |= v[1:] > v[:-1] * (1.0 + slack)
    return int(np.argmax(bad)) if bad.any() else int(v.size)


def whole_small_o(zs):
    if np.any(zs[1:] > zs[:-1] * (1.0 + 1e-12)):
        raise ValueError("sequence is not nonincreasing")
    kz = np.arange(1, zs.size + 1, dtype=np.float64) * zs
    quart = max(1, zs.size // 4)
    return bool(kz[-quart:].max() < 0.1 * kz[:quart].max())


def outcome(fn, *args):
    """``fn(*args)``, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def chunked(rows, n):
    """The ``(lhs, rhs)`` of the row function ``rows(lo, hi)`` over the
    indices ``[0, n)``, ``ROW_CHUNK`` at a time as the replays form them,
    joined."""
    parts = [rows(lo, min(lo + ROW_CHUNK, n)) for lo in range(0, n, ROW_CHUNK)]
    return tuple(np.concatenate([part[i] for part in parts] or [np.empty(0)]) for i in (0, 1))


def product_chunks(trace, q, xi):
    """:func:`product_bound_rows` as a row function that carries the running
    product from one call to the next, as the replay does."""
    carry = 1.0

    def rows(lo, hi):
        nonlocal carry
        lhs, rhs, carry = product_bound_rows(trace, q, xi, lo, hi, carry)
        return lhs, rhs

    return rows


def replay_outcome(verify, rows, trace, *args):
    """The verdict of ``verify(trace, *args)`` with the chunked rows it
    judged, or the text of the ValueError it raises."""
    try:
        return (verify(trace, *args),) + chunked(rows, len(trace) - 1)
    except ValueError as exc:
        return f"ValueError: {exc}"


def same_report(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    verdict, lhs, rhs = got
    ks, want_lhs, want_rhs, violations = want
    return (lhs.tobytes() == want_lhs.tobytes() and rhs.tobytes() == want_rhs.tobytes()
            and same_verdict(verdict, violations, ks.size))


@pytest.fixture(scope="module")
def chunk_run():
    # slow enough (mu = 0.01) that every row of a 3R + 2 row run still moves
    inst = problems.make_quadratic(20, 0.01, 10.0, 3)
    T = inst.operator("gradient")
    n = 3 * ROW_CHUNK + 2
    res = run(T, inst.start_point("gradient"), Schedule.constant(0.05, 0.9),
              StoppingRule(n, 0.0), p_ref=inst.reference_solution)
    assert len(res.rows) == n
    return res.rows, T.q_factor


R = ROW_CHUNK
CHUNK_SCHEDULES = {
    "constant": Schedule.constant(0.05, 0.9),
    "ramp": Schedule.ramp(0.0, 0.1, R + 10, [0.5, 0.7, 0.9]),
    # lambda changes across the first chunk boundary and leaves (0, 1] at k = R + 6
    "table": Schedule.table([0.0, 0.02, 0.04] + [0.05] * R,
                            [0.9, 0.8] + [0.95] * (R - 2) + [0.7, 0.85, 0.9, 0.9, 0.9, 1.2, 0.9]),
}


def corrupted(trace, length, row, schedule=None):
    # C_k, Delta_k and delta_k follow the corrupted distance and step, under
    # ``schedule`` (the trace's own when None) and the trace's gamma
    cols = {name: None if getattr(trace, name) is None else getattr(trace, name)[:length].copy()
            for name in STORED_COLUMNS}
    if row is not None and row < length:
        cols["dist_to_ref"][row] *= 1.5
        cols["step"][row] *= 2.0
        cols["residual"][row] *= 4.0
    return Trace(schedule or trace.schedule, trace.gamma, **cols)


@pytest.mark.parametrize("length", [1, 2, R - 1, R, R + 1, 2 * R + 1, 3 * R + 2])
@pytest.mark.parametrize("row", [None, R - 1, R, R + 1])
def test_chunked_replays_match_whole_columns(chunk_run, length, row):
    trace = corrupted(chunk_run[0], length, row)
    q = chunk_run[1]
    with np.errstate(all="ignore"):
        for sched in CHUNK_SCHEDULES.values():
            # the same columns under each schedule
            run_trace = corrupted(chunk_run[0], length, row, sched)
            for tol in (0.0, 1e-9):
                assert same_report(
                    replay_outcome(verify_descent, lambda lo, hi: descent_rows(run_trace, lo, hi),
                                   run_trace, tol),
                    outcome(whole_descent, run_trace, sched, tol))
                for xi in (0.7, 1.0):
                    assert same_report(
                        replay_outcome(verify_contraction,
                                       lambda lo, hi: contraction_rows(run_trace, q, xi, lo, hi),
                                       run_trace, q, xi, tol),
                        outcome(whole_contraction, run_trace, q, xi, sched, tol))
                    assert same_report(
                        replay_outcome(verify_product_bound, product_chunks(run_trace, q, xi),
                                       run_trace, q, xi, tol),
                        outcome(whole_product, run_trace, q, xi, sched, tol))
        for tol in (0.0, 1e-9):
            assert same_verdict(verify_Ck_monotone(trace, tol), rows_Ck(trace, tol), length)
        for roots in (trace.residual, trace.step[1:]):
            values = roots * roots
            n = monotone_prefix(roots)
            assert n == whole_monotone_prefix(values)
            for m in (n, max(n, 4)):
                zs = values[:m]
                if zs.size >= 4 and zs.min() > 0.0:
                    assert outcome(small_o_check, roots[:m]) == outcome(whole_small_o, zs)
    if row is not None and row < length:
        # the corruption is seen, in whichever chunk it falls
        assert verify_descent(trace).status == "FAIL"


def test_chunked_product_bound_carries_the_running_product(chunk_run):
    for name in ("constant", "ramp"):
        sched = CHUNK_SCHEDULES[name]
        trace = corrupted(chunk_run[0], 3 * R + 2, None, sched)
        trace.dist_to_ref[0] = 1.0  # rhs is then the running product itself
        rhs = chunked(product_chunks(trace, chunk_run[1], 0.7), len(trace) - 1)[1]
        lam = whole_columns(sched, trace.k[:-1])[1]
        assert rhs.tobytes() == np.cumprod(whole_Q(lam, chunk_run[1], 0.7)).tobytes()


@pytest.mark.parametrize("at", [R - 1, R, R + 1, 2 * R])
def test_chunked_small_o_and_prefix_see_an_uptick_at_a_chunk_boundary(at):
    roots = 1.0 / np.arange(1, 3 * R + 3, dtype=np.float64)
    roots[at] = 2.0 * roots[at - 1]
    assert monotone_prefix(roots) == whole_monotone_prefix(roots * roots) == at
    with pytest.raises(ValueError, match="not nonincreasing"):
        small_o_check(roots)
    roots[at] = 0.0  # a square that is not positive
    assert monotone_prefix(roots) == at
    assert small_o_check(roots[:at]) == whole_small_o(roots[:at] * roots[:at])


# --------------------------------------------------------------------------
# inequality replays


def test_descent_non_inertial_fb(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.0, 0.5),
              StoppingRule(2000, 1e-11), p_ref=inst.fixed_point("fb"))
    rep = verify_descent(res.rows)
    assert rep.status == "PASS"
    assert rep.checked == res.iterations - 1


def test_descent_inertial_dr_feasibility():
    inst = problems.make_feasibility(20, 3)
    res = run(inst.operator("dr"), inst.start_point("dr"), Schedule.constant(0.2, 0.5),
              StoppingRule(10_000, 0.0), p_ref=inst.fixed_point("dr"))
    rep = verify_descent(res.rows)
    assert rep.status == "PASS"


def exact_descent(xs, p, sched, gamma):
    """(lhs, rhs) of the descent inequality at k = 1..len(xs)-1 from iterates,
    at ``eta_k = gamma lambda_k``."""
    dists2 = [norm(x - p) ** 2 for x in xs]
    steps2 = [0.0] + [norm(xs[j] - xs[j - 1]) ** 2 for j in range(1, len(xs))]
    out = []
    for k in range(1, len(xs)):
        a_k, lam_k = at(sched, k)
        nu_k = 1.0 / (gamma * lam_k) - 1.0
        second = xs[k] - 2.0 * xs[k - 1] + (xs[k - 2] if k >= 2 else xs[0])
        Delta_k = 0.0 if k == 1 else dists2[k - 1] - dists2[k - 2]
        step_k_sq = 0.0 if k == 1 else steps2[k - 1]
        lhs = dists2[k] - dists2[k - 1] + nu_k * (1.0 - a_k) * steps2[k] \
            + nu_k * a_k * norm(second) ** 2
        rhs = a_k * Delta_k + (a_k * (1.0 + a_k) + nu_k * a_k * (1.0 - a_k)) * step_k_sq
        out.append((lhs, rhs))
    return out


def test_descent_rows_path_matches_exact_path(lasso_default):
    inst = lasso_default
    sched = Schedule.constant(0.2, 0.5)
    p = inst.fixed_point("fb")
    T, calls = recording_handle(inst.operator("fb"))
    x1 = inst.start_point("fb")
    res = run(T, x1, sched, StoppingRule(500, 0.0), p_ref=p)
    # the first call is run()'s check of p_ref
    exact = exact_descent(rebuild_iterates(x1, sched, calls[1:]), p, sched, T.gamma)
    recon = verify_descent(res.rows)
    assert all(lhs <= rhs + 1e-9 * (1.0 + abs(rhs)) for lhs, rhs in exact)
    assert recon.status == "PASS"
    assert recon.checked == len(exact) - 1  # rows lack the final iterate
    for (l1v, _), l2v in zip(exact, descent_rows(res.rows, 0, recon.checked)[0]):
        assert l1v == pytest.approx(l2v, rel=1e-6, abs=1e-9)


def corrupt_dist(trace, i, by):
    """A copy of the trace with ``by`` added to ``dist_to_ref`` at row ``i``."""
    cols = {name: getattr(trace, name) for name in STORED_COLUMNS}
    cols["dist_to_ref"] = cols["dist_to_ref"].copy()
    cols["dist_to_ref"][i] += by
    return Trace(trace.schedule, trace.gamma, **cols)


def test_descent_flags_corrupted_state(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.2, 0.5),
              StoppingRule(200, 0.0), p_ref=inst.fixed_point("fb"))
    j = 100  # corrupt ||x_{101} - p||
    rep = verify_descent(corrupt_dist(res.rows, j, 1.0))
    assert rep.status == "FAIL"
    assert set(rep.fails) <= {j, j + 1, j + 2}


def test_contraction_flags_corrupted_state(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    res = run(T, inst.start_point("gradient"), Schedule.constant(0.05, 0.9),
              StoppingRule(200, 0.0), p_ref=inst.reference_solution)
    assert verify_contraction(res.rows, T.q_factor, 1.0).status == "PASS"
    j = 100  # corrupt ||x_{101} - p||
    rep = verify_contraction(corrupt_dist(res.rows, j, 1.0), T.q_factor, 1.0)
    assert rep.status == "FAIL"
    assert set(rep.fails) <= {j, j + 1, j + 2}


def test_descent_requires_fixed_point_reference(lasso_default):
    # a reference point is checked where it enters a run, before the first step
    inst = lasso_default
    gen = SplitMix64(4)
    T, calls = recording_handle(inst.operator("fb"))
    with pytest.raises(ValueError, match=r"^p_ref is not a fixed point \(residual > 1e-10\)$"):
        run(T, inst.start_point("fb"), Schedule.constant(0.0, 0.5), StoppingRule(50, 0.0),
            p_ref=rand_vec(gen, 100))
    assert len(calls) == 1  # the reference check's own apply
    p = inst.fixed_point("fb")
    assert is_reference_point(T, p) and not is_reference_point(T, p + 1e-6)
    assert not is_reference_point(T, np.full(100, np.nan))
    res_no_ref = run(inst.operator("fb"), inst.start_point("fb"),
                     Schedule.constant(0.0, 0.5), StoppingRule(50, 0.0))
    with pytest.raises(ValueError, match="p_ref"):
        verify_descent(res_no_ref.rows)


def test_Ck_monotone_feasible_and_baseline(quad_50):
    inst = quad_50
    for alpha, lam in ((0.2, 0.5), (0.0, 0.9)):
        res = run(inst.operator("proximal"), inst.start_point("proximal"),
                  Schedule.constant(alpha, lam), StoppingRule(3000, 1e-13),
                  p_ref=inst.reference_solution)
        assert verify_Ck_monotone(res.rows).status == "PASS"


def test_Ck_monotone_reports_infeasible_schedule():
    inst = problems.make_quadratic(20, 1.0, 10.0, 3)
    res = run(inst.operator("proximal", rho=1.0), inst.start_point("proximal"),
              Schedule.constant(0.9, 0.99), StoppingRule(3000, 1e-13),
              p_ref=inst.reference_solution)
    assert res.status == "converged"  # run completes despite infeasibility
    assert verify_Ck_monotone(res.rows).status == "FAIL"


def test_Ck_monotone_requires_reference(lasso_default):
    res = run(lasso_default.operator("fb"), lasso_default.start_point("fb"),
              Schedule.constant(0.0, 0.5), StoppingRule(20, 0.0))
    with pytest.raises(ValueError):
        verify_Ck_monotone(res.rows)


def test_contraction_and_product_bound_rows_path(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    sched = Schedule.constant(0.05, 0.9)
    res = run(T, inst.start_point("gradient"), sched, StoppingRule(500, 1e-12),
              p_ref=inst.reference_solution)
    # the run's trace, and a trace of its stored columns as a CSV reader builds one
    stored = Trace(sched, T.gamma, **{name: getattr(res.rows, name) for name in STORED_COLUMNS})
    from_run = verify_contraction(res.rows, T.q_factor, 1.0)
    assert from_run.status == "PASS" and from_run == verify_contraction(stored, T.q_factor, 1.0)
    n = len(stored) - 1
    for got, want in zip(contraction_rows(res.rows, T.q_factor, 1.0, 0, n),
                         contraction_rows(stored, T.q_factor, 1.0, 0, n)):
        assert got.tobytes() == want.tobytes()
    assert verify_product_bound(res.rows, T.q_factor, 1.0).status == "PASS"


# --------------------------------------------------------------------------
# small-o helper


def test_small_o_inverse_square_passes():
    # the roots of 1/k^2
    assert small_o_check([1.0 / k for k in range(1, 401)])


def test_small_o_harmonic_fails():
    # the roots of 1/k
    assert not small_o_check([k ** -0.5 for k in range(1, 401)])


def test_small_o_validates_input():
    with pytest.raises(ValueError):
        small_o_check([1.0, 2.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        small_o_check([1.0, 0.5, 0.0, 0.05])
    with pytest.raises(ValueError):
        small_o_check([1.0, 0.5])


def test_a_nan_ends_the_monotone_prefix_and_fails_small_o_validation():
    roots = [4.0, 3.0, np.nan, 1.0, 0.5]
    assert monotone_prefix(roots) == rows_monotone_prefix([r * r for r in roots]) == 2
    with pytest.raises(ValueError, match="positive"):
        small_o_check([1.0, 0.5, np.nan, 0.1])


def test_small_o_on_feasible_inertial_run(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.2, 0.5),
              StoppingRule(20_000, 1e-10), p_ref=inst.fixed_point("fb"))
    assert res.status == "converged"
    assert small_o_check(res.rows.step[1:])
    assert small_o_check(res.rows.residual)


# --------------------------------------------------------------------------
# picard helper


def test_picard_reaches_fixed_point(quad_50):
    inst = quad_50
    res = picard(inst.operator("gradient"), inst.start_point("gradient"), 1e-11, 10_000)
    assert res.status == "converged"
    assert res.x_last is res.xs[0]
    assert norm(res.x_last - inst.reference_solution) <= 1e-9
    # the point the max_iters row describes
    res = picard(inst.operator("gradient"), inst.start_point("gradient"), 0.0, 5)
    assert res.status == "max_iters" and res.rows.k.tolist() == [5]
    assert res.x_last is res.xs[0]


def test_picard_divergence_returns_the_last_finite_iterate():
    # 3^647 overflows: x = 3^646, by 646 products, is the last finite iterate,
    # and no row is kept
    res = picard(OperatorHandle(apply=lambda x: 3.0 * x), np.ones(2), 1e-11, 10_000)
    assert res.status == "diverged" and len(res.rows) == 0 and res.x_last is None
    x = np.ones(2)
    for _ in range(646):
        x = 3.0 * x
    np.testing.assert_array_equal(res.xs[0], x)


def test_a_failing_replay_holds_no_more_than_a_passing_one():
    # at tol = 0 descent "fails" on rows at rounding level all along a long
    # converged run; a verdict keeps the first five of them and the count
    # checked, so neither replay holds a column of the trace's length
    inst = problems.make_quadratic(5, 0.01, 10.0, 1)
    schedule = Schedule.constant(0.05, 0.9)
    trace = run(inst.operator("gradient"), inst.start_point("gradient"), schedule,
                StoppingRule(100_000, 0.0), p_ref=inst.reference_solution).rows
    assert len(trace) == 100_000

    def traced(tol):
        tracemalloc.start()
        try:
            rep = verify_descent(trace, tol=tol)
            return rep, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    passing, passing_peak = traced(DEFAULT_TOL)
    failing, failing_peak = traced(0.0)
    assert passing.status == "PASS" and failing.status == "FAIL" and len(failing.fails) == 5
    assert passing.checked == failing.checked == len(trace) - 1
    assert passing_peak < trace.k.nbytes and failing_peak <= passing_peak
