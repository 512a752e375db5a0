import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ikm import problems
from ikm.engine import (
    BLOCK_ROWS,
    DEFAULT_TOL,
    COLUMNS,
    DivergenceError,
    OPTIONAL_COLUMNS,
    ROW_CHUNK,
    RunResult,
    Schedule,
    StoppingRule,
    Trace,
    TraceRow,
    _alpha_second_diff_sq,
    _y_dist_sq,
    contraction_constant,
    derive_trace,
    monotone_prefix,
    picard,
    run,
    small_o_check,
    verify_Ck_monotone,
    verify_contraction,
    verify_descent,
    verify_product_bound,
)
from ikm.linalg import (DifferenceMap, GramMap, LinearMap, dot, flush_subnormals, norm,
                        operator_norm_estimate)
from ikm.operators import (
    OperatorHandle,
    box,
    davis_yin_op,
    diagonal_quadratic,
    douglas_rachford_op,
    forward_backward_op,
    l1,
    primal_dual_op,
    split_dr_op,
    zero,
)
from ikm.problems import _sensing_data, _tv1d_saddle
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


def rebuild_iterates(x1, sched, calls):
    """x_1, ..., x_{K+1} from recorded (y_k, T y_k): x_{k+1} = (1-l) y_k + l T y_k."""
    xs = [x1]
    for k, (y, ty) in enumerate(calls, start=1):
        lam = sched.lambda_at(k)
        xs.append(ty if lam == 1.0 else (1.0 - lam) * y + lam * ty)
    return xs


# --------------------------------------------------------------------------
# schedules


def test_schedule_constant_validation():
    with pytest.raises(ValueError):
        Schedule.constant(1.0, 0.5)
    with pytest.raises(ValueError):
        Schedule.constant(0.5, 0.0)
    s = Schedule.constant(0.2, 1.5)  # over-relaxation stays expressible
    assert s.alpha_at(10) == 0.2
    assert s.lambda_at(10) == 1.5


def test_schedule_ramp():
    s = Schedule.ramp(0.0, 0.3, 4, [0.5])
    vals = [s.alpha_at(k) for k in range(1, 7)]
    assert vals == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.3, 0.3])
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_schedule_table_holds_last_and_validates():
    s = Schedule.table([0.1, 0.2], [0.9, 0.8, 0.7])
    assert s.alpha_at(5) == 0.2
    assert s.lambda_at(5) == 0.7
    with pytest.raises(ValueError):
        Schedule.table([0.2, 0.1], [1.0])  # decreasing alpha
    with pytest.raises(ValueError):
        Schedule.table([0.1], [0.0])


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(max_iters=0)
    with pytest.raises(ValueError):
        StoppingRule(max_iters=10, residual_tol=-1.0)


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
    assert all(r.residual == 0.0 for r in res.rows)
    np.testing.assert_allclose(res.xs[-1], x, atol=1e-15)


def test_km_step_fixed_point_absorption(quad_50):
    T = quad_50.operator("gradient")
    p = quad_50.reference_solution
    res = run(T, p, Schedule.constant(0.3, 0.8), StoppingRule(5, 0.0))
    assert norm(res.xs[-1] - p) <= 1e-12
    assert all(r.residual <= 1e-12 for r in res.rows)


def test_km_step_parameter_validation():
    x = np.zeros(3)
    with pytest.raises(ValueError):
        run(IDENTITY, x, Schedule(lambda k: 1.0, lambda k: 0.5, "custom"), StoppingRule(1, 0.0))
    with pytest.raises(ValueError):
        run(IDENTITY, x, Schedule(lambda k: 0.0, lambda k: 0.0, "custom"), StoppingRule(1, 0.0))


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
    dists = [r.dist_to_ref for r in res.rows]
    for a, b in zip(dists, dists[1:]):
        assert b <= q * a * (1.0 + 1e-9) + 1e-12


def test_run_rejects_decreasing_alpha():
    alphas = {1: 0.3, 2: 0.2}
    sched = Schedule(lambda k: alphas.get(k, 0.2), lambda k: 0.5, "custom")
    halve = OperatorHandle(apply=lambda x: 0.5 * x, name="halve")
    with pytest.raises(ValueError, match="decreases"):
        run(halve, np.ones(3), sched, StoppingRule(10, 0.0))


def test_run_divergence_carries_partial_trace():
    # x <- 3x diverges geometrically
    blow = OperatorHandle(apply=lambda x: 3.0 * x, name="blow")
    with pytest.raises(DivergenceError) as exc:
        run(blow, np.ones(4), Schedule.constant(0.0, 1.0), StoppingRule(10_000, 0.0))
    err = exc.value
    assert err.k > 10
    assert isinstance(err.partial, RunResult)
    assert err.partial.status == "diverged"
    assert len(err.partial.rows) >= err.k - 1


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
    T = OperatorHandle(apply=lambda x: factor * x, name="scale")
    k_ref, n_rows, x_k, x_row = _reference_divergence(T, x1, lam)
    p_ref = np.zeros(4) if with_ref else None
    with pytest.raises(DivergenceError) as exc:
        run(T, x1, Schedule.constant(0.0, lam), StoppingRule(10_000, 0.0), p_ref=p_ref)
    err = exc.value
    assert err.k == k_ref > 10
    assert [r.k for r in err.partial.rows] == list(range(1, n_rows + 1))
    np.testing.assert_array_equal(err.partial.xs[-1], x_k)
    # the last row describes x_{k-1} when T y_k overflows, x_k when x_{k+1} does
    assert err.partial.x_last is err.partial.xs[1 if n_rows == k_ref else 0]
    np.testing.assert_array_equal(err.partial.x_last, x_row)
    x = x1
    with np.errstate(over="ignore"):
        for r in err.partial.rows:
            assert r.residual == norm(x - T.apply(x))
            assert (r.dist_to_ref is not None) == with_ref
            x = (1.0 - lam) * x + lam * T.apply(x)


@pytest.mark.parametrize("stop, status, index", [
    (StoppingRule(10_000, 1e-8), "converged", 1),
    (StoppingRule(10_000, 0.0, stall_tol=1e-6), "stalled", 1),
    (StoppingRule(25, 0.0), "max_iters", 0),
])
def test_run_x_last_is_the_iterate_of_the_last_row(stop, status, index):
    halve = OperatorHandle(apply=lambda x: 0.5 * x, name="halve")
    p = np.zeros(3)
    res = run(halve, np.arange(1.0, 4.0), Schedule.constant(0.2, 0.9), stop, p_ref=p,
              objective=per_row(lambda x: float(x @ x)))
    assert res.status == status
    assert res.x_last is res.xs[index]
    last = res.rows[-1]
    assert last.dist_to_ref == norm(res.x_last - p)
    assert last.objective == float(res.x_last @ res.x_last)


def test_trace_iteration_holds_one_chunk_of_rows():
    n = 100_000
    ramp = np.linspace(1.0, 2.0, n)
    trace = Trace(k=np.arange(1, n + 1), **{name: ramp for name in COLUMNS if name != "k"})
    tracemalloc.start()
    try:
        first = next(iter(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == trace[0]
    # 9.2 MiB of columns; converting them all before the first row took 37 MiB
    assert peak < 1 << 20
    part = Trace(k=np.arange(1, 2501), **{name: ramp[:2500] for name in COLUMNS
                                          if name not in OPTIONAL_COLUMNS + ("k",)})
    assert list(part) == [part[i] for i in range(len(part))]


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
    columns = sum(getattr(res.rows, name).nbytes for name in COLUMNS
                  if getattr(res.rows, name) is not None)
    # 8 bytes a measured value while stepping, then the derived columns
    assert peak < 2.2 * columns


def reference_trace(T, x1, sched, max_iters, p_ref=None, objective=None, stall_tol=None):
    """``run``'s trace (at ``residual_tol = 0``) from a per-step loop.

    Norms are ``np.dot`` per step and ``objective`` is called on one point
    at a time.  Returns the trace and the step at which an iterate turned
    non-finite (None when none did); on a non-finite ``y_k`` or ``T y_k``
    row k is left out, on a non-finite ``x_{k+1}`` it is kept.
    """
    res, step, alpha, lam, dist, obj = ([] for _ in range(6))
    x_prev = x_curr = x1
    diverged = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iters + 1):
            a_k, l_k = sched.alpha_at(k), sched.lambda_at(k)
            diff = x_curr - x_prev
            y = x_curr if a_k == 0.0 else flush_subnormals(x_curr + a_k * diff)
            ty = T.apply(y)
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(ty))):
                diverged = k
                break
            r = y - ty
            res.append(float(np.dot(r, r)) ** 0.5)
            step.append(float(np.dot(diff, diff)) ** 0.5)
            alpha.append(a_k)
            lam.append(l_k)
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
    trace = derive_trace(res, step, alpha, lam, dist if p_ref is not None else None,
                           obj if objective is not None else None)
    return trace, diverged


def assert_same_columns(got, want):
    """Every column of two traces equal by ``tobytes`` (or both absent)."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


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
        assert_same_columns(res.rows, want)


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
    assert_same_columns(res.rows, want)


def test_run_divergence_mid_block_keeps_k_and_partial_rows():
    # T y_k turns NaN at the (BLOCK_ROWS + 5)-th call: DivergenceError at that
    # k, with the rows before it, the last partial block included
    bad_call = BLOCK_ROWS + 5
    calls = 0

    def apply(y):
        nonlocal calls
        calls += 1
        ty = 0.5 * y
        if calls == bad_call:
            ty[1] = np.nan
        return ty

    halve = OperatorHandle(apply=apply, name="halve")
    x1, p = np.arange(1.0, 5.0), np.zeros(4)
    sched = Schedule.constant(0.2, 0.9)
    sq = lambda x: float(x @ x)  # noqa: E731
    with pytest.raises(DivergenceError) as err:
        run(halve, x1, sched, StoppingRule(1000, 0.0), p_ref=p, objective=per_row(sq))
    calls = 0
    want, diverged = reference_trace(halve, x1, sched, 1000, p, sq)
    assert err.value.k == diverged == bad_call
    assert len(err.value.partial.rows) == bad_call - 1
    assert_same_columns(err.value.partial.rows, want)


@pytest.mark.parametrize("with_ref", [False, True])
def test_run_divergence_on_overflowing_relaxed_step(with_ref):
    # T y = 2 y with lambda = 1.5 from x_1 = 1.8: y_k = 1.8 * 2.5^(k-1), and
    # at k = 774 T y_k = 1.5e308 is finite (its residual norm has overflowed
    # long before, which alone is no divergence) while 1.5 T y_k overflows,
    # so x_{k+1} is the first non-finite iterate and row k is kept; the
    # per-step engine before row blocks gave the same k and rows
    double = OperatorHandle(apply=lambda y: 2.0 * y, name="double")
    x1, p = np.full(3, 1.8), np.zeros(3) if with_ref else None
    sched = Schedule.constant(0.0, 1.5)
    with pytest.raises(DivergenceError) as err:
        run(double, x1, sched, StoppingRule(10_000, 0.0), p_ref=p)
    want, diverged = reference_trace(double, x1, sched, 10_000, p)
    assert err.value.k == diverged == 774
    assert len(err.value.partial.rows) == 774
    assert np.isfinite(err.value.partial.xs[1]).all()
    assert_same_columns(err.value.partial.rows, want)


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
    assert res.status == "converged" and len(outputs) == res.iterations
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
        assert_same_columns(runs[0].rows, runs[1].rows)
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
        assert got.rows == want.rows  # 2000 rows, or fewer on an exact fixed point
        for a, c in zip(got.xs, want.xs):
            assert np.array_equal(a, c)


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
    halve = OperatorHandle(apply=lambda x: 0.5 * x, name="halve")
    res = run(halve, np.ones(3), Schedule.constant(0.0, 0.5),
              StoppingRule(500, 0.0, stall_tol=1e-8), )
    assert res.status == "stalled"


def test_trace_row_definitions(lasso_default):
    inst = lasso_default
    sched = Schedule.constant(0.2, 0.5)
    res = run(inst.operator("fb"), inst.start_point("fb"), sched,
              StoppingRule(50, 0.0), p_ref=inst.fixed_point("fb"))
    rows = res.rows
    assert rows[0].step == 0.0
    assert rows[0].delta_k == 0.0
    assert rows[0].Delta_k == 0.0
    assert rows[0].C_k == pytest.approx(rows[0].dist_to_ref ** 2, rel=1e-12)
    for i in range(1, len(rows)):
        r, prev = rows[i], rows[i - 1]
        nu_prev = 1.0 / sched.lambda_at(r.k - 1) - 1.0
        a_prev = sched.alpha_at(r.k - 1)
        assert r.delta_k == pytest.approx(nu_prev * (1 - a_prev) * r.step ** 2, rel=1e-12)
        assert r.C_k == pytest.approx(
            r.dist_to_ref ** 2 - a_prev * prev.dist_to_ref ** 2 + r.delta_k, rel=1e-9, abs=1e-12)
        assert r.Delta_k == pytest.approx(
            r.dist_to_ref ** 2 - prev.dist_to_ref ** 2, rel=1e-9, abs=1e-12)
        assert r.k_step_sq == pytest.approx(r.k * r.step ** 2, rel=1e-12)
        assert r.k_res_sq == pytest.approx(r.k * r.residual ** 2, rel=1e-12)


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
        a = sched.alpha_at(k)
        lam = sched.lambda_at(k)
        d_next = xs[k] - xs[k - 1]
        d_prev = xs[k - 1] - (xs[k - 2] if k >= 2 else xs[0])
        rhs = norm(d_next) ** 2 + a * a * norm(d_prev) ** 2 - 2 * a * dot(d_next, d_prev)
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

    def row(k, step, residual, dist):
        return TraceRow(k=k, residual=residual, step=step, nu_k=0.0, delta_k=0.0,
                        dist_to_ref=dist)

    trace = Trace.from_rows([row(1, 0.0, 0.0, n(x_prev - p)),
                             row(2, n(x_k - x_prev), n(y - ty), n(x_k - p)),
                             row(3, n(x_next - x_k), 0.0, n(x_next - p))])
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


def test_trace_rows_slices_and_equality(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.2, 0.5),
              StoppingRule(30, 0.0), p_ref=inst.fixed_point("fb"))
    trace = res.rows
    rows = list(trace)
    assert len(rows) == len(trace) == 30
    assert rows[7] == trace[7] == trace[-23]
    assert type(trace[3].k) is int and type(trace[3].residual) is float
    assert trace[0].objective is None and trace[0].rate_bound is None
    assert list(trace[10:13]) == rows[10:13]
    assert Trace.from_rows(rows) == trace
    assert RunResult(rows, res.xs, res.ys, res.status).rows == trace
    changed = list(rows)
    changed[4] = dataclasses.replace(changed[4], step=changed[4].step * 2)
    assert Trace.from_rows(changed) != trace
    empty = Trace.from_rows([])
    assert len(empty) == 0 and list(empty) == [] and empty.dist_to_ref is None


def test_trace_from_rows_rejects_mixed_optional_column():
    rows = [TraceRow(k=1, residual=1.0, step=0.0, nu_k=0.0, delta_k=0.0, dist_to_ref=1.0),
            TraceRow(k=2, residual=0.5, step=0.5, nu_k=0.0, delta_k=0.0)]
    with pytest.raises(ValueError, match="dist_to_ref mixes"):
        Trace.from_rows(rows)
    with pytest.raises(ValueError, match="residual"):
        Trace(k=[1, 2], residual=[1.0], step=[0.0, 0.0], nu_k=[0.0, 0.0], delta_k=[0.0, 0.0],
              k_step_sq=[0.0, 0.0], k_res_sq=[0.0, 0.0])


def per_step_derivation(trace, sched):
    """The derived columns as the engine computed them row by row with floats."""
    out = {name: [] for name in ("nu_k", "delta_k", "Delta_k", "C_k", "k_step_sq", "k_res_sq")}
    a_prev = nu_prev = 0.0
    d_prev = None
    for r in trace:
        a_k, l_k = sched.alpha_at(r.k), sched.lambda_at(r.k)
        nu_k = 1.0 / l_k - 1.0
        delta = 0.0 if r.k == 1 else nu_prev * (1.0 - a_prev) * r.step * r.step
        d = r.dist_to_ref
        out["nu_k"].append(nu_k)
        out["delta_k"].append(delta)
        out["Delta_k"].append(0.0 if r.k == 1 else d * d - d_prev * d_prev)
        out["C_k"].append(d * d if r.k == 1 else d * d - a_prev * d_prev * d_prev + delta)
        out["k_step_sq"].append(r.k * r.step * r.step)
        out["k_res_sq"].append(r.k * r.residual * r.residual)
        a_prev, nu_prev, d_prev = a_k, nu_k, d
    return out


@pytest.mark.parametrize("sched", [Schedule.constant(0.2, 0.7),
                                   Schedule.table([0.0, 0.1, 0.1, 0.3], [0.9, 0.4, 1.3])])
def test_derived_columns_match_per_step_scalars_bitwise(quad_50, sched):
    inst = quad_50
    res = run(inst.operator("gradient"), inst.start_point("gradient"), sched,
              StoppingRule(400, 0.0), p_ref=inst.reference_solution)
    want = per_step_derivation(res.rows, sched)
    for name, values in want.items():
        got = getattr(res.rows, name)
        assert got.tobytes() == np.array(values).tobytes(), name


def test_divergence_partial_trace_has_derived_columns():
    blow = OperatorHandle(apply=lambda x: 3.0 * x, name="blow")
    sched = Schedule.constant(0.1, 0.8)
    with pytest.raises(DivergenceError) as exc:
        run(blow, np.ones(4), sched, StoppingRule(10_000, 0.0), p_ref=np.zeros(4))
    trace = exc.value.partial.rows
    assert len(trace) >= 10
    want = per_step_derivation(trace, sched)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, values in want.items():
            assert np.array_equal(getattr(trace, name), np.array(values), equal_nan=True), name


# row-by-row replays as the engine ran them before the columns, with every
# square written x * x; the column replays must give the same floats


def rows_descent(rows, sched, tol):
    out = ([], [], [], [])
    for i in range(len(rows) - 1):
        k = rows[i].k
        a, lam = sched.alpha_at(k), sched.lambda_at(k)
        nu = 1.0 / lam - 1.0
        sq = lambda v: v * v  # noqa: E731
        d_k, d_next = sq(rows[i].dist_to_ref), sq(rows[i + 1].dist_to_ref)
        d_prev = sq(rows[i - 1].dist_to_ref) if i >= 1 else d_k
        second = 0.0 if a == 0.0 else max(
            lam * lam * sq(rows[i].residual) - (1.0 - a) * sq(rows[i + 1].step)
            + a * (1.0 - a) * sq(rows[i].step), 0.0)
        lhs = (d_next - d_k) + rows[i + 1].delta_k + nu * second
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
        a, lam = sched.alpha_at(k), sched.lambda_at(k)
        Q = contraction_constant(lam, q, xi)
        d_k = sq(rows[i].dist_to_ref)
        if product:
            prod *= Q
            lhs = sq(rows[i + 1].dist_to_ref) - a * d_k + xi * rows[i + 1].delta_k
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
    if lhs > rhs + tol * (1.0 + abs(rhs)):
        out[3].append(k)


def rows_Ck(rows, tol):
    for i, r in enumerate(rows):
        if r.C_k < -tol or (i + 1 < len(rows) and rows[i + 1].C_k > r.C_k + tol * (1.0 + r.C_k)):
            return r.k
    return None


def rows_monotone_prefix(values, slack=1e-12):
    n, prev = 0, None
    for v in values:
        if v <= 0.0 or (prev is not None and v > prev * (1.0 + slack)):
            break
        prev, n = v, n + 1
    return n


def same_floats(a, b):
    return np.array_equal(np.array(a, dtype=float), np.array(b, dtype=float), equal_nan=True)


MAGNITUDE = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e-150), st.floats(0.0, 1e150))


@st.composite
def random_traces(draw):
    n = draw(st.integers(1, 25))
    cols = {name: draw(st.lists(MAGNITUDE, min_size=n, max_size=n))
            for name in ("residual", "step", "dist_to_ref")}
    cols["delta_k"] = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    # C_k moves by small steps so that both verdicts occur
    c0 = draw(st.floats(-1e-8, 5.0))
    steps = draw(st.lists(st.floats(-1.0, 1e-9), min_size=n, max_size=n))
    cols["C_k"] = list(np.cumsum([c0] + steps[1:]))
    cols["step"][0] = 0.0
    zeros = [0.0] * n
    trace = Trace(k=list(range(1, n + 1)), nu_k=zeros, Delta_k=zeros, k_step_sq=zeros,
                  k_res_sq=zeros, **cols)
    alphas = sorted(draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4)))
    lambdas = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
    sched = Schedule.table(alphas, lambdas)
    return trace, sched


@settings(max_examples=400, deadline=None)
@given(case=random_traces(), q=st.floats(0.01, 1.0), xi=st.floats(0.0, 1.0),
       tol=st.sampled_from([0.0, 1e-9]))
def test_column_replays_match_row_formulas(case, q, xi, tol):
    trace, sched = case
    rows = list(trace)
    for got, want in (
        (verify_descent(trace, sched, tol=tol), rows_descent(rows, sched, tol)),
        (verify_contraction(trace, q, xi, sched, tol=tol),
         rows_contraction(rows, sched, q, xi, tol)),
        (verify_product_bound(trace, q, xi, sched, tol=tol),
         rows_contraction(rows, sched, q, xi, tol, product=True)),
    ):
        assert got.ks.tolist() == want[0]
        assert same_floats(got.lhs, want[1]) and same_floats(got.rhs, want[2])
        assert got.violations.dtype == np.int64 and got.violations.tolist() == want[3]
    assert verify_Ck_monotone(trace, tol=tol) == rows_Ck(rows, tol)
    for values in (trace.residual * trace.residual, trace.step[1:] * trace.step[1:],
                   trace.C_k):
        n = monotone_prefix(values)
        assert n == rows_monotone_prefix(values.tolist())
        if n >= 4:
            zs = values[:n].tolist()
            kz = [(i + 1) * z for i, z in enumerate(zs)]
            quart = max(1, n // 4)
            assert small_o_check(values[:n]) == (max(kz[-quart:]) < 0.1 * max(kz[:quart]))


def test_column_replays_match_row_formulas_on_a_run(quad_50):
    T = quad_50.operator("gradient")
    sched = Schedule.ramp(0.0, 0.1, 50, [0.9])
    res = run(T, quad_50.start_point("gradient"), sched, StoppingRule(3000, 1e-12),
              p_ref=quad_50.reference_solution)
    rows = list(res.rows)
    got = verify_contraction(res, T.q_factor, 1.0)
    want = rows_contraction(rows, sched, T.q_factor, 1.0, 1e-9)
    assert got.ok and got.lhs.tolist() == want[1] and got.rhs.tolist() == want[2]
    got = verify_descent(res)
    want = rows_descent(rows, sched, 1e-9)
    assert got.ok and got.lhs.tolist() == want[1] and got.rhs.tolist() == want[2]


# whole-column forms of the replays, as they were before the replays ran a
# chunk at a time; the chunked replays must give their bits


def whole_columns(sched, ks):
    return (np.array([sched.alpha_at(k) for k in ks.tolist()], dtype=np.float64),
            np.array([sched.lambda_at(k) for k in ks.tolist()], dtype=np.float64))


def whole_Q(lam, q, xi):
    return np.array([contraction_constant(v, q, xi) for v in lam.tolist()], dtype=np.float64)


def whole_report(ks, lhs, rhs, tol):
    bad = lhs > rhs + tol * (1.0 + np.abs(rhs))
    return ks, lhs, rhs, ks[bad].tolist()


def whole_dist_sq(trace):
    dsq = trace.dist_to_ref * trace.dist_to_ref
    return dsq, np.concatenate((dsq[:1], dsq[:-2]))[:dsq.size - 1]


def whole_descent(trace, sched, tol):
    ks = trace.k[:-1]
    a, lam = whole_columns(sched, ks)
    dsq, prev = whole_dist_sq(trace)
    step, res = trace.step, trace.residual[:-1]
    nu = 1.0 / lam - 1.0
    second = np.where(a == 0.0, 0.0, np.maximum(
        (lam * lam) * (res * res) - (1.0 - a) * (step[1:] * step[1:])
        + a * (1.0 - a) * (step[:-1] * step[:-1]), 0.0))
    lhs = (dsq[1:] - dsq[:-1]) + trace.delta_k[1:] + nu * second
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
    lhs = dsq[1:] - a * dsq[:-1] + xi * trace.delta_k[1:]
    return whole_report(ks, lhs, np.cumprod(whole_Q(lam, q, xi)) * dsq[:1], tol)


def whole_Ck(trace, tol):
    C = trace.C_k
    bad = C < -tol
    bad[:-1] |= C[1:] > C[:-1] + tol * (1.0 + C[:-1])
    return int(trace.k[np.argmax(bad)]) if bad.any() else None


def whole_monotone_prefix(v, slack=1e-12):
    bad = v <= 0.0
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


def same_report(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    ks, lhs, rhs, violations = want
    return (got.ks.tobytes() == ks.tobytes() and got.lhs.tobytes() == lhs.tobytes()
            and got.rhs.tobytes() == rhs.tobytes() and got.violations.dtype == np.int64
            and got.violations.tolist() == violations)


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


def corrupted(trace, length, row):
    cols = {name: None if getattr(trace, name) is None else getattr(trace, name)[:length].copy()
            for name in COLUMNS}
    if row is not None and row < length:
        cols["dist_to_ref"][row] *= 1.5
        cols["C_k"][row] = 3.0 * cols["C_k"][row] + 1.0
        cols["step"][row] *= 2.0
        cols["residual"][row] *= 4.0
    return Trace(**cols)


@pytest.mark.parametrize("length", [1, 2, R - 1, R, R + 1, 2 * R + 1, 3 * R + 2])
@pytest.mark.parametrize("row", [None, R - 1, R, R + 1])
def test_chunked_replays_match_whole_columns(chunk_run, length, row):
    trace = corrupted(chunk_run[0], length, row)
    q = chunk_run[1]
    with np.errstate(all="ignore"):
        for sched in CHUNK_SCHEDULES.values():
            for tol in (0.0, 1e-9):
                assert same_report(outcome(verify_descent, trace, sched, tol),
                                   outcome(whole_descent, trace, sched, tol))
                for xi in (0.7, 1.0):
                    assert same_report(outcome(verify_contraction, trace, q, xi, sched, tol),
                                       outcome(whole_contraction, trace, q, xi, sched, tol))
                    assert same_report(outcome(verify_product_bound, trace, q, xi, sched, tol),
                                       outcome(whole_product, trace, q, xi, sched, tol))
        for tol in (0.0, 1e-9):
            assert verify_Ck_monotone(trace, tol) == whole_Ck(trace, tol)
        for values in (trace.residual * trace.residual, trace.step[1:] * trace.step[1:]):
            n = monotone_prefix(values)
            assert n == whole_monotone_prefix(values)
            for zs in (values[:n], values[:max(n, 4)]):
                if zs.size >= 4 and zs.min() > 0.0:
                    assert outcome(small_o_check, zs) == outcome(whole_small_o, zs)
    if row is not None and row < length:
        # the corruption is seen, in whichever chunk it falls
        assert not verify_descent(trace, CHUNK_SCHEDULES["constant"]).ok


def test_chunked_product_bound_carries_the_running_product(chunk_run):
    trace = corrupted(chunk_run[0], 3 * R + 2, None)
    trace.dist_to_ref[0] = 1.0  # rhs is then the running product itself
    for name in ("constant", "ramp"):
        sched = CHUNK_SCHEDULES[name]
        rep = verify_product_bound(trace, chunk_run[1], 0.7, sched)
        lam = whole_columns(sched, trace.k[:-1])[1]
        assert rep.rhs.tobytes() == np.cumprod(whole_Q(lam, chunk_run[1], 0.7)).tobytes()


@pytest.mark.parametrize("at", [R - 1, R, R + 1, 2 * R])
def test_chunked_small_o_and_prefix_see_an_uptick_at_a_chunk_boundary(at):
    zs = 1.0 / np.arange(1, 3 * R + 3, dtype=np.float64) ** 2
    zs[at] = 2.0 * zs[at - 1]
    assert monotone_prefix(zs) == whole_monotone_prefix(zs) == at
    with pytest.raises(ValueError, match="not nonincreasing"):
        small_o_check(zs)
    zs[at] = -zs[at]
    assert monotone_prefix(zs) == at
    assert small_o_check(zs[:at]) == whole_small_o(zs[:at])


# --------------------------------------------------------------------------
# inequality replays


def test_descent_non_inertial_fb(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.0, 0.5),
              StoppingRule(2000, 1e-11), p_ref=inst.fixed_point("fb"))
    rep = verify_descent(res)
    assert rep.ok
    assert rep.checked == res.iterations - 1


def test_descent_inertial_dr_feasibility():
    inst = problems.make_feasibility(20, 3)
    res = run(inst.operator("dr"), inst.start_point("dr"), Schedule.constant(0.2, 0.5),
              StoppingRule(10_000, 0.0), p_ref=inst.fixed_point("dr"))
    rep = verify_descent(res)
    assert rep.ok


def exact_descent(xs, p, sched):
    """(lhs, rhs) of the descent inequality at k = 1..len(xs)-1 from iterates."""
    dists2 = [norm(x - p) ** 2 for x in xs]
    steps2 = [0.0] + [norm(xs[j] - xs[j - 1]) ** 2 for j in range(1, len(xs))]
    out = []
    for k in range(1, len(xs)):
        a_k = sched.alpha_at(k)
        nu_k = 1.0 / sched.lambda_at(k) - 1.0
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
    exact = exact_descent(rebuild_iterates(x1, sched, calls), p, sched)
    recon = verify_descent(res)
    assert all(lhs <= rhs + 1e-9 * (1.0 + abs(rhs)) for lhs, rhs in exact)
    assert recon.ok
    assert recon.checked == len(exact) - 1  # rows lack the final iterate
    for (l1v, _), l2v in zip(exact, recon.lhs):
        assert l1v == pytest.approx(l2v, rel=1e-6, abs=1e-9)


def corrupt_dist(res, i, by):
    rows = [dataclasses.replace(r) for r in res.rows]
    rows[i].dist_to_ref += by
    return dataclasses.replace(res, rows=rows)


def test_descent_flags_corrupted_state(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.2, 0.5),
              StoppingRule(200, 0.0), p_ref=inst.fixed_point("fb"))
    j = 100  # corrupt ||x_{101} - p||
    rep = verify_descent(corrupt_dist(res, j, 1.0))
    assert not rep.ok
    assert set(rep.violations.tolist()) <= {j, j + 1, j + 2}


def test_contraction_flags_corrupted_state(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    res = run(T, inst.start_point("gradient"), Schedule.constant(0.05, 0.9),
              StoppingRule(200, 0.0), p_ref=inst.reference_solution)
    assert verify_contraction(res, T.q_factor, 1.0).ok
    j = 100  # corrupt ||x_{101} - p||
    rep = verify_contraction(corrupt_dist(res, j, 1.0), T.q_factor, 1.0)
    assert not rep.ok
    assert set(rep.violations.tolist()) <= {j, j + 1, j + 2}


def test_descent_requires_fixed_point_reference(lasso_default):
    inst = lasso_default
    gen = SplitMix64(4)
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.0, 0.5),
              StoppingRule(50, 0.0), p_ref=rand_vec(gen, 100))
    with pytest.raises(ValueError, match="not a fixed point"):
        verify_descent(res)
    res_no_ref = run(inst.operator("fb"), inst.start_point("fb"),
                     Schedule.constant(0.0, 0.5), StoppingRule(50, 0.0))
    with pytest.raises(ValueError, match="p_ref"):
        verify_descent(res_no_ref)


def test_Ck_monotone_feasible_and_baseline(quad_50):
    inst = quad_50
    for alpha, lam in ((0.2, 0.5), (0.0, 0.9)):
        res = run(inst.operator("proximal"), inst.start_point("proximal"),
                  Schedule.constant(alpha, lam), StoppingRule(3000, 1e-13),
                  p_ref=inst.reference_solution)
        assert verify_Ck_monotone(res) is None


def test_Ck_monotone_reports_infeasible_schedule():
    inst = problems.make_quadratic(20, 1.0, 10.0, 3)
    res = run(inst.operator("proximal", rho=1.0), inst.start_point("proximal"),
              Schedule.constant(0.9, 0.99), StoppingRule(3000, 1e-13),
              p_ref=inst.reference_solution)
    assert res.status == "converged"  # run completes despite infeasibility
    assert verify_Ck_monotone(res) is not None


def test_Ck_monotone_requires_reference(lasso_default):
    res = run(lasso_default.operator("fb"), lasso_default.start_point("fb"),
              Schedule.constant(0.0, 0.5), StoppingRule(20, 0.0))
    with pytest.raises(ValueError):
        verify_Ck_monotone(res)


def test_contraction_and_product_bound_rows_path(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    sched = Schedule.constant(0.05, 0.9)
    res = run(T, inst.start_point("gradient"), sched, StoppingRule(500, 1e-12),
              p_ref=inst.reference_solution)
    from_result = verify_contraction(res, T.q_factor, 1.0)
    from_rows = verify_contraction(res.rows, T.q_factor, 1.0, schedule=sched)
    assert from_result.ok and from_rows.ok
    assert from_result.lhs.tobytes() == from_rows.lhs.tobytes()
    assert from_result.rhs.tobytes() == from_rows.rhs.tobytes()
    prod = verify_product_bound(res, T.q_factor, 1.0)
    assert prod.ok


# --------------------------------------------------------------------------
# small-o helper


def test_small_o_inverse_square_passes():
    assert small_o_check([1.0 / k ** 2 for k in range(1, 401)])


def test_small_o_harmonic_fails():
    assert not small_o_check([1.0 / k for k in range(1, 401)])


def test_small_o_validates_input():
    with pytest.raises(ValueError):
        small_o_check([1.0, 2.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        small_o_check([1.0, 0.5, -0.1, 0.05])
    with pytest.raises(ValueError):
        small_o_check([1.0, 0.5])


def test_small_o_on_feasible_inertial_run(lasso_default):
    inst = lasso_default
    res = run(inst.operator("fb"), inst.start_point("fb"), Schedule.constant(0.2, 0.5),
              StoppingRule(20_000, 1e-10), p_ref=inst.fixed_point("fb"))
    assert res.status == "converged"
    assert small_o_check([r.step ** 2 for r in res.rows[1:]])
    assert small_o_check([r.residual ** 2 for r in res.rows])


# --------------------------------------------------------------------------
# picard helper


def test_picard_reaches_fixed_point(quad_50):
    inst = quad_50
    res = picard(inst.operator("gradient"), inst.start_point("gradient"), 1e-11, 10_000)
    assert res.status == "converged"
    assert norm(res.xs[0] - inst.reference_solution) <= 1e-9


def test_failing_replay_holds_only_its_index_array_more():
    # at tol = 0 descent "fails" on rows at rounding level all along a long
    # converged run; the failing indices cost 8 bytes each and nothing else
    inst = problems.make_quadratic(5, 0.01, 10.0, 1)
    schedule = Schedule.constant(0.05, 0.9)
    trace = run(inst.operator("gradient"), inst.start_point("gradient"), schedule,
                StoppingRule(100_000, 0.0), p_ref=inst.reference_solution).rows
    assert len(trace) == 100_000

    def traced(tol):
        tracemalloc.start()
        try:
            rep = verify_descent(trace, schedule, tol=tol)
            return rep, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    passing, passing_peak = traced(DEFAULT_TOL)
    failing, failing_peak = traced(0.0)
    assert passing.ok and not failing.ok
    assert failing.violations.dtype == np.int64 and failing.violations.size > 10_000
    assert failing_peak <= passing_peak + failing.violations.nbytes
