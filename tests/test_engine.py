import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ikm import problems
from ikm.engine import (
    DivergenceError,
    RunResult,
    Schedule,
    StoppingRule,
    TraceRow,
    _alpha_second_diff_sq_from_rows,
    _y_dist_sq_from_rows,
    picard,
    run,
    small_o_check,
    verify_Ck_monotone,
    verify_contraction,
    verify_descent,
    verify_product_bound,
)
from ikm.linalg import dot, norm
from ikm.operators import OperatorHandle, douglas_rachford_op, zero
from ikm.rng import SplitMix64

IDENTITY = douglas_rachford_op(zero(), zero(), 1.0)  # exact identity map


def rand_vec(gen, n):
    return np.array([gen.normal() for _ in range(n)])


def recording_family(T):
    """``k -> T`` whose ``apply`` appends each ``(y_k, T y_k)`` to a list."""
    calls = []

    def apply(y):
        ty = T.apply(y)
        calls.append((y, ty))
        return ty

    handle = dataclasses.replace(T, apply=apply)
    return (lambda k: handle), calls


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
    s = Schedule.ramp(0.0, 0.3, 4, 0.5)
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


def test_run_supports_per_iteration_family(quad_50):
    inst = quad_50
    T1 = inst.operator("gradient", rho=2.0 / 11.0)
    T2 = inst.operator("gradient", rho=1.0 / 11.0)
    fam = lambda k: T1 if k % 2 else T2  # noqa: E731
    res = run(fam, inst.start_point("gradient"), Schedule.constant(0.0, 1.0),
              StoppingRule(2000, 1e-11), p_ref=inst.reference_solution)
    assert res.status == "converged"
    assert res.operator is None


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
    the number of rows the run has recorded by then, and x_k."""
    x = x1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 10_000):
            ty = T.apply(x)
            if not np.all(np.isfinite(ty)):
                return k, k - 1, x
            x_new = (1.0 - lam) * x + lam * ty
            if not np.all(np.isfinite(x_new)):
                return k, k, x
            x = x_new
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
    k_ref, n_rows, x_last = _reference_divergence(T, x1, lam)
    p_ref = np.zeros(4) if with_ref else None
    with pytest.raises(DivergenceError) as exc:
        run(T, x1, Schedule.constant(0.0, lam), StoppingRule(10_000, 0.0), p_ref=p_ref)
    err = exc.value
    assert err.k == k_ref > 10
    assert [r.k for r in err.partial.rows] == list(range(1, n_rows + 1))
    np.testing.assert_array_equal(err.partial.xs[-1], x_last)
    x = x1
    with np.errstate(over="ignore"):
        for r in err.partial.rows:
            assert r.residual == norm(x - T.apply(x))
            assert (r.dist_to_ref is not None) == with_ref
            x = (1.0 - lam) * x + lam * T.apply(x)


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
    fam, calls = recording_family(inst.operator("fb"))
    x1 = inst.start_point("fb")
    res = run(fam, x1, sched, StoppingRule(400, 0.0))
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

    rows = [row(1, 0.0, 0.0, n(x_prev - p)),
            row(2, n(x_k - x_prev), n(y - ty), n(x_k - p)),
            row(3, n(x_next - x_k), 0.0, n(x_next - p))]
    # rounding of the direct side scales with the vectors themselves
    scale = sum(n(v) ** 2 for v in (x_prev, x_k, x_next, y, ty, p))
    second = a * n(x_next - 2.0 * x_k + x_prev) ** 2
    assert abs(_alpha_second_diff_sq_from_rows(rows, 1, a, lam) - second) <= 1e-10 * scale
    assert abs(_y_dist_sq_from_rows(rows, 1, a) - n(y - p) ** 2) <= 1e-10 * scale


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
    fam, calls = recording_family(inst.operator("fb"))
    x1 = inst.start_point("fb")
    res = run(fam, x1, sched, StoppingRule(500, 0.0), p_ref=p)
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
    assert rep.violations
    assert set(rep.violations) <= {j, j + 1, j + 2}


def test_contraction_flags_corrupted_state(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    res = run(T, inst.start_point("gradient"), Schedule.constant(0.05, 0.9),
              StoppingRule(200, 0.0), p_ref=inst.reference_solution)
    assert verify_contraction(res, T.q_factor, 1.0).ok
    j = 100  # corrupt ||x_{101} - p||
    rep = verify_contraction(corrupt_dist(res, j, 1.0), T.q_factor, 1.0)
    assert rep.violations
    assert set(rep.violations) <= {j, j + 1, j + 2}


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
    assert from_result.lhs == from_rows.lhs and from_result.rhs == from_rows.rhs
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
