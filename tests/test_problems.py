import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ikm import cli, linalg, problems
from ikm.engine import Schedule, StoppingRule, is_reference_point, picard, run
from ikm.linalg import norm
from ikm.operators import OperatorHandle, proximal_op, quadratic
from ikm.problems import _sensing_data, _tv1d_saddle
from ikm.rng import SplitMix64


# --------------------------------------------------------------------------
# quadratic


def test_quadratic_equal_extremes_is_scaled_identity():
    inst = problems.make_quadratic(6, 2.0, 2.0, 5)
    # conjugating 2I by an orthogonal matrix gives back 2I up to rounding
    T = inst.operator("gradient", rho=0.4)
    gen = SplitMix64(1)
    x = np.array([gen.normal() for _ in range(6)])
    # T x = x - rho(Ax - b) with A = 2I
    expected = x - 0.4 * (2.0 * x - _quad_b(inst, 6, 2.0))
    np.testing.assert_allclose(T.apply(x), expected, atol=1e-12)
    np.testing.assert_allclose(inst.reference_solution, _quad_b(inst, 6, 2.0) / 2.0, atol=1e-12)


def _quad_b(inst, dim, L_smooth):
    # recover b from the gradient operator: T(0) = rho * b
    T = inst.operator("gradient", rho=1.0 / L_smooth)
    return T.apply(np.zeros(dim)) * L_smooth


def test_quadratic_two_point_spectrum_contracts_exactly():
    inst = problems.make_quadratic(2, 1.0, 10.0, 7)
    T = inst.operator("gradient", rho=2.0 / 11.0)
    assert T.q_factor == pytest.approx(9.0 / 11.0, abs=1e-12)
    p = inst.reference_solution
    x = inst.start_point("gradient")
    # both eigen-factors have magnitude exactly 9/11, so distances scale by it
    for _ in range(40):
        x_next = T.apply(x)
        assert norm(x_next - p) == pytest.approx(9.0 / 11.0 * norm(x - p), rel=1e-10)
        x = x_next


def test_quadratic_reference_residual(quad_50):
    inst = quad_50
    T = inst.operator("gradient")
    assert is_reference_point(T, inst.reference_solution)


def test_quadratic_spectral_consistency(quad_50):
    inst = quad_50
    gen = SplitMix64(2)
    A_mu, A_L = 1.0, 10.0
    T = inst.operator("gradient", rho=1e-9)
    for _ in range(100):
        x = np.array([gen.normal() for _ in range(50)])
        # Rayleigh quotient of A recovered from the gradient step at tiny rho
        Ax = (x - T.apply(x)) / 1e-9 + _quad_b(inst, 50, A_L)
        ray = float(x @ Ax) / float(x @ x)
        assert A_mu - 1e-4 <= ray <= A_L + 1e-4


def test_quadratic_validation():
    with pytest.raises(ValueError):
        problems.make_quadratic(1, 1.0, 2.0, 0)
    with pytest.raises(ValueError):
        problems.make_quadratic(5, 3.0, 2.0, 0)


# --------------------------------------------------------------------------
# lasso


def test_lasso_reference_certificates(lasso_default):
    inst = lasso_default
    T = inst.operator("fb")
    assert is_reference_point(T, inst.reference_solution)
    f0 = inst.objective(inst.reference_solution)
    gen = SplitMix64(3)
    for _ in range(100):
        pert = np.array([gen.normal() for _ in range(100)]) * gen.uniform_in(1e-4, 0.1)
        assert inst.objective(inst.reference_solution + pert) >= f0 - 1e-10


def test_lasso_subgradient_oracle(lasso_default):
    inst = lasso_default
    x = inst.reference_solution
    mu = 0.1
    A, b, _ = _sensing_data(40, 100, 0.1, 1)
    g = A.T @ (A @ x - b)
    for i in range(x.size):
        if x[i] > 1e-9:
            assert abs(g[i] + mu) <= 1e-6
        elif x[i] < -1e-9:
            assert abs(g[i] - mu) <= 1e-6
        else:
            assert abs(g[i]) <= mu + 1e-6


def test_lasso_huge_regularizer_gives_zero():
    A, b, _ = _sensing_data(10, 15, 0.2, 4)
    mu_big = float(np.abs(A.T @ b).max()) * 1.5
    inst = problems.make_lasso(10, 15, 0.2, mu_big, 4)
    np.testing.assert_array_equal(inst.reference_solution, np.zeros(15))


def test_lasso_bit_reproducible():
    a = problems.make_lasso(12, 30, 0.2, 0.05, 9)
    b = problems.make_lasso(12, 30, 0.2, 0.05, 9)
    np.testing.assert_array_equal(a.reference_solution, b.reference_solution)
    np.testing.assert_array_equal(a.start_point("fb"), b.start_point("fb"))
    assert a.default_steps == b.default_steps


def test_lasso_spectral_data(lasso_default):
    inst = lasso_default
    A, _, _ = _sensing_data(40, 100, 0.1, 1)
    eigs = np.linalg.eigvalsh(A.T @ A)
    mu, L_smooth = linalg.GramMap(A).spectrum()
    assert L_smooth == pytest.approx(float(eigs[-1]), rel=1e-12)
    assert mu == pytest.approx(max(float(eigs[0]), 0.0), abs=1e-10)
    assert inst.default_steps["fb"]["rho"] == 1.0 / L_smooth


# --------------------------------------------------------------------------
# tv1d


def test_tv1d_zero_regularizer_reference_is_data():
    inst = problems.make_tv1d(50, 0.0, 2)
    T = inst.operator("pd")
    assert is_reference_point(T, inst.fixed_point("pd"))
    # with no regularization the denoised signal is the observation itself
    sig = inst.reference_solution
    assert inst.objective(sig) == pytest.approx(0.0, abs=1e-20)


def test_tv1d_huge_regularizer_flattens_to_mean():
    inst = problems.make_tv1d(60, 0.0, 11)
    b = inst.reference_solution  # mu=0 reference equals the observation
    mu_big = 1e3 * (b.max() - b.min())
    flat = problems.make_tv1d(60, mu_big, 11)
    # limit oracle: minimizing over constant signals gives the mean
    np.testing.assert_allclose(flat.reference_solution, np.full(60, b.mean()), atol=1e-9)


def tv1d_norm_estimate(n):
    """The power estimate of ``||D||`` that make_tv1d's default steps use."""
    return linalg.operator_norm_estimate(linalg.DifferenceMap(n))


def test_tv1d_norm_estimate_below_two(tv_200):
    est = tv1d_norm_estimate(200)
    assert tv_200.default_steps["pd"]["tau"] == 0.99 / est
    assert est <= 2.0
    assert est > 1.9  # forward differences approach 2


def test_tv1d_saddle_is_fixed_point_of_both_schemes(tv_200):
    inst = tv_200
    z = inst.fixed_point("pd")
    # and for non-default admissible steps
    for steps in ({}, {"tau": 0.3, "sigma": 0.7}):
        for scheme in ("pd", "sdr"):
            assert norm(z - inst.operator(scheme, **steps).apply(z)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    b=st.integers(3, 60).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(-10.0, 10.0))),
    mu=st.floats(0.0, 2.0, exclude_min=True),
)
# x* is flat on the last five samples, the scan leaves a jump of -3e-27 there
@example(b=np.array([0.0, 0.0, -1.0, 0.0, 0.0, 1e-10, 1.88685795e-267, 0.0]), mu=1e-10)
def test_tv1d_saddle_meets_optimality_conditions(b, mu):
    # optimality of (x, y) for 0.5 ||x - b||^2 + mu ||D x||_1, checked
    # without reference to how the solver found it
    z = _tv1d_saddle(b, mu)
    x, y = z[:b.size], z[b.size:]
    D = np.diff(np.eye(b.size), axis=0)
    assert np.all(np.abs(y) <= mu)
    np.testing.assert_allclose(D.T @ y, b - x, rtol=0.0, atol=1e-12)
    dx = D @ x
    # a jump at rounding level is not a jump of x*, and has no sign to check
    jumps = np.abs(dx) > 1e-12
    np.testing.assert_allclose(y[jumps], mu * np.sign(dx[jumps]), rtol=0.0, atol=1e-12)


def test_tv1d_builds_exact_reference_at_n_1000():
    inst = problems.make_tv1d(1000, 0.5, 1)
    z = inst.fixed_point("pd")
    assert norm(z - inst.operator("pd").apply(z)) <= 1e-12
    assert norm(z - inst.operator("sdr").apply(z)) <= 1e-12


def test_tv1d_builds_in_linear_time_and_memory():
    # a dense D would be 128 MB at this size and its power estimate seconds long
    start = time.perf_counter()
    inst = problems.make_tv1d(4000, 0.5, 1)
    op = inst.operator("pd")
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        problems.make_tv1d(4000, 0.5, 1).operator("pd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 5 * 2 ** 20
    z = inst.fixed_point("pd")
    assert norm(z - op.apply(z)) <= 1e-12


def test_tv1d_pd_and_sdr_agree(tv_200):
    inst = tv_200
    start = inst.start_point("sdr")
    sdr = inst.operator("sdr")
    res = picard(sdr, start, 1e-12, 1_000_000)
    assert res.status == "converged"
    assert norm(sdr.extract_solution(res.xs[0]) - inst.reference_solution) <= 1e-6


def test_tv1d_bit_reproducible():
    a = problems.make_tv1d(40, 0.3, 8)
    b = problems.make_tv1d(40, 0.3, 8)
    np.testing.assert_array_equal(a.reference_solution, b.reference_solution)


# --------------------------------------------------------------------------
# three-term


def test_three_term_trivial_box_matches_lasso(lasso_default):
    loose = problems.make_three_term(40, 100, 0.1, -math.inf, math.inf, 1)
    assert norm(loose.reference_solution - lasso_default.reference_solution) <= 1e-6


def test_three_term_data_stream_matches_lasso():
    A1, b1, t1 = _sensing_data(40, 100, 0.1, 1)
    A2, b2, t2 = _sensing_data(40, 100, 0.1, 1)
    np.testing.assert_array_equal(A1, A2)
    np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(t1, t2)


def test_three_term_tight_box_clamps(three_term_default):
    inst = problems.make_three_term(10, 20, 0.05, 0.5, 0.5 + 1e-3, 6)
    x = inst.reference_solution
    assert np.all(x >= 0.5 - 1e-6)
    assert np.all(x <= 0.5 + 1e-3 + 1e-6)


def test_three_term_reference_residual(three_term_default):
    inst = three_term_default
    T = inst.operator("dy")
    assert is_reference_point(T, inst.fixed_point("dy"))
    # extracted solution stays consistent with the stored reference
    np.testing.assert_allclose(
        T.extract_solution(inst.fixed_point("dy")), inst.reference_solution, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([(12, 30), (20, 50), (40, 100)]), seed=st.integers(1, 5),
       ratio=st.floats(0.01, 1.99))
@example(size=(40, 100), seed=1, ratio=0.5)
@example(size=(40, 100), seed=1, ratio=1.9)
def test_three_term_fixed_point_at_any_rho_comes_from_the_one_reference(size, seed, ratio):
    # the Davis-Yin fixed point moves with rho, the extracted solution does
    # not: rho = ratio * rho0 covers (0, 2/L) on both sides of rho0 = 1/L, and
    # the box [-0.5, 0.5] binds some coordinates
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_picard(mp)
        inst = problems.make_three_term(*size, 0.1, -0.5, 0.5, seed)
        rho = ratio * inst.default_steps["dy"]["rho"]
        T = inst.operator("dy", rho=rho)
        z = inst.fixed_point("dy", rho=rho)
        assert is_reference_point(T, z)
        np.testing.assert_allclose(T.extract_solution(z), inst.reference_solution,
                                   rtol=0, atol=1e-12)
        assert len(calls) == 1


def test_three_term_objective_projects_to_box(three_term_default):
    inst = three_term_default
    gen = SplitMix64(5)
    x = np.array([gen.normal() * 10 for _ in range(100)])
    assert math.isfinite(inst.objective(x))


# --------------------------------------------------------------------------
# feasibility


@pytest.mark.parametrize("fixture, scheme", [("quad_50", "gradient"), ("lasso_default", "fb"),
                                             ("tv_200", "pd"), ("three_term_default", "dy")])
def test_objective_on_a_stack_matches_per_point_calls(fixture, scheme, request):
    # engine.run calls the objective once per block of iterates; each value
    # must have the bits of a call on that point alone
    inst = request.getfixturevalue(fixture)
    extract = inst.operator(scheme).extract_solution
    size = inst.start_point(scheme).size
    stack = 1.5 * SplitMix64(31).normals(7 * size).reshape(7, size)
    got = inst.objective(extract(stack))
    want = np.array([inst.objective(extract(p)) for p in stack])
    assert got.shape == (7,) and np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def test_feasibility_origin_is_exact_fixed_point():
    inst = problems.make_feasibility(20, 3)
    T = inst.operator("dr")
    p = inst.reference_solution
    assert norm(p - T.apply(p)) == 0.0
    for r in (0.5, 1.0, 2.0):
        assert norm(p - inst.operator("dr", r=r).apply(p)) == 0.0


def test_feasibility_dr_converges_into_both_sets():
    inst = problems.make_feasibility(12, 7)
    res = run(inst.operator("dr"), inst.start_point("dr"), Schedule.constant(0.0, 1.0),
              StoppingRule(5000, 1e-12))
    sol = inst.operator("dr").extract_solution(res.xs[0])
    assert norm(sol) <= 0.8 * (1 + 1e-9)  # inside the ball
    # inside the box as well: projecting onto it changes nothing
    np.testing.assert_allclose(prox_box_of(12, 7, sol), sol, atol=1e-9)


def prox_box_of(dim, seed, x):
    # rebuild the box from the generator's documented stream
    gen = SplitMix64(seed)
    c = np.array([gen.normal() for _ in range(dim)])
    c *= 0.5 / max(norm(c), 1e-12)
    return np.clip(x, c - 1.0, c + 1.0)


def test_feasibility_bit_reproducible():
    a = problems.make_feasibility(15, 2)
    b = problems.make_feasibility(15, 2)
    np.testing.assert_array_equal(a.start_point("dr"), b.start_point("dr"))


# --------------------------------------------------------------------------
# instance surface


def test_unknown_scheme_and_step_rejected(quad_50):
    with pytest.raises(ValueError):
        quad_50.operator("pd")
    with pytest.raises(ValueError):
        quad_50.operator("gradient", tau=0.1)


def test_default_steps_are_reported(lasso_default, tv_200):
    A, _, _ = _sensing_data(40, 100, 0.1, 1)
    assert lasso_default.default_steps["fb"]["rho"] == pytest.approx(
        1.0 / linalg.GramMap(A).spectrum()[1])
    tau = tv_200.default_steps["pd"]["tau"]
    sigma = tv_200.default_steps["pd"]["sigma"]
    assert tau * sigma * tv1d_norm_estimate(200) ** 2 <= 1.0


@pytest.mark.parametrize("kind, scheme", [("lasso", "fb"), ("three_term", "dy")])
def test_least_squares_build_problem_runs_one_eigendecomposition(tmp_path, monkeypatch, kind,
                                                                 scheme):
    # the instance, its reference run and the configured operator share the
    # Gram map's cached spectrum, taken from the 40 x 40 Gram A A^T
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(M, *args, **kwargs):
        shapes.append(M.shape)
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = tmp_path / "ls.cfg"
    cfg.write_text(f"problem.kind = {kind}\nproblem.m = 40\nproblem.n = 100\n"
                   f"algorithm.scheme = {scheme}\noutput.trace = ls.csv\n", encoding="utf-8")
    _, instance, *_ = cli.build_problem(str(cfg), cli.read_run)
    assert instance.fixed_point(scheme) is not None
    assert shapes == [(40, 40)]


def _count_picard(monkeypatch):
    calls = []
    picard_fn = problems.picard

    def counted(*args):
        calls.append(args)
        return picard_fn(*args)

    monkeypatch.setattr(problems, "picard", counted)
    return calls


@pytest.mark.parametrize("make, scheme", [
    (lambda: problems.make_lasso(20, 50, 0.1, 0.1, 3), "fb"),
    (lambda: problems.make_three_term(20, 50, 0.1, -0.5, 0.5, 3), "dy"),
])
def test_least_squares_reference_is_solved_once_on_first_read(monkeypatch, make, scheme):
    calls = _count_picard(monkeypatch)
    inst = make()
    assert calls == []
    z = inst.fixed_point(scheme)
    assert len(calls) == 1
    x = inst.reference_solution
    assert inst.fixed_point(scheme) is z and inst.reference_solution is x
    assert len(calls) == 1
    # the lazy reference is the build-time one: a Picard run at the default
    # steps from the start point, to REFERENCE_TOL under REFERENCE_CAP
    T = inst.operator(scheme)
    want = picard(T, inst.start_point(scheme), problems.REFERENCE_TOL,
                  problems.REFERENCE_CAP)
    assert want.status == "converged"
    assert z.tobytes() == want.xs[0].tobytes()
    assert x.tobytes() == (want.xs[0] if scheme == "fb"
                           else T.extract_solution(want.xs[0])).tobytes()


def test_three_term_solves_one_reference_at_any_rho(monkeypatch):
    # one Picard run at the default steps serves every rho, and the default
    # rho gets its fixed point itself
    calls = _count_picard(monkeypatch)
    inst = problems.make_three_term(20, 50, 0.1, -0.5, 0.5, 3)
    rho0 = inst.default_steps["dy"]["rho"]
    inst.fixed_point("dy", rho=0.5 * rho0)
    assert len(calls) == 1 and calls[0][0].gamma == inst.operator("dy").gamma
    z = inst.fixed_point("dy")
    assert inst.fixed_point("dy", rho=rho0) is z
    inst.fixed_point("dy", rho=1.5 * rho0)
    assert len(calls) == 1


def test_least_squares_reference_that_misses_the_tolerance_raises_on_read(monkeypatch):
    monkeypatch.setattr(problems, "REFERENCE_CAP", 3)
    inst = problems.make_lasso(20, 50, 0.1, 0.1, 3)
    with pytest.raises(problems.ReferenceNotConverged,
                       match="lasso reference run did not reach 1e-12"):
        inst.reference_solution


def test_three_term_other_rho_reference_that_misses_the_tolerance_raises(monkeypatch):
    # another rho maps the default reference, so its miss raises there too:
    # no missed reference is dropped
    monkeypatch.setattr(problems, "REFERENCE_CAP", 3)
    inst = problems.make_three_term(20, 50, 0.1, -0.5, 0.5, 3)
    rho_alt = 0.5 * inst.default_steps["dy"]["rho"]
    with pytest.raises(problems.ReferenceNotConverged,
                       match="three_term reference run did not reach 1e-12 in 3 steps"):
        inst.fixed_point("dy", rho=rho_alt)


def test_a_diverging_reference_run_raises_not_converged():
    blow = OperatorHandle(apply=lambda x: 3.0 * x)
    with pytest.raises(problems.ReferenceNotConverged, match="^lasso reference run diverged$"):
        problems._picard_reference("lasso", blow, np.ones(2))


def test_quadratic_build_factors_nothing(monkeypatch):
    # the reference, (mu, L) and the prox all come from the drawn
    # eigendecomposition: no Cholesky and no eigvalsh
    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # linalg reaches Cholesky through the scipy.linalg module's attributes
    count(scipy.linalg, "cho_factor")
    count(scipy.linalg, "cho_solve")
    count(np.linalg, "eigvalsh")
    for seed in (1, 2, 3):
        inst = problems.make_quadratic(50, 0.01, 10.0, seed)
        for scheme in ("gradient", "proximal"):
            T = inst.operator(scheme)
            T.apply(inst.start_point(scheme))
            assert inst.fixed_point(scheme) is not None
    assert calls == []
    # a generic dense quadratic still takes the counted Cholesky path
    proximal_op(quadratic(linalg.LinearMap(np.eye(3)), np.zeros(3)), 1.0).apply(np.ones(3))
    assert calls == ["cho_factor", "eigvalsh", "cho_solve"]
