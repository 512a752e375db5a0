"""End-to-end acceptance суite: one test per shipped guarantee.

Each test prints a single PASS line on success (run ``pytest -s`` to see
them); a failing assertion is the FAIL signal.  Long runs are shared through
module-scoped fixtures.
"""

import io
import time

import numpy as np
import pytest

from ikm import certificates as cert
from ikm import cli, problems
from ikm.engine import (
    Schedule,
    StoppingRule,
    picard,
    run,
    small_o_check,
    verify_Ck_monotone,
    verify_contraction,
    verify_descent,
    verify_product_bound,
)
from ikm.linalg import LinearMap, norm
from ikm.operators import (
    box,
    davis_yin_op,
    douglas_rachford_op,
    forward_backward_op,
    l1,
    zero,
)
from ikm.rng import SplitMix64


def ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


# --------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def lasso_run(lasso_default):
    inst = lasso_default
    sched = Schedule.constant(0.2, 0.5)
    t0 = time.perf_counter()
    result = run(inst.operator("fb"), inst.start_point("fb"), sched,
                 StoppingRule(max_iters=10_000, residual_tol=0.0),
                 p_ref=inst.fixed_point("fb"))
    elapsed = time.perf_counter() - t0
    return inst, sched, result, elapsed


@pytest.fixture(scope="module")
def gradient_rate_run(quad_50):
    inst = quad_50
    T = inst.operator("gradient", rho=2.0 / 11.0)
    q = T.q_factor
    alpha = 0.05
    lam = cert.lambda_alpha_q(alpha, q)
    sched = Schedule.constant(alpha, lam)
    result = run(T, inst.start_point("gradient"), sched,
                 StoppingRule(max_iters=100_000, residual_tol=1e-12),
                 p_ref=inst.reference_solution)
    return inst, T, q, alpha, lam, sched, result


def test_criterion_1_lyapunov_monotonicity(lasso_run):
    inst, sched, result, elapsed = lasso_run
    h1 = cert.check_relaxation_constant(0.2, 0.5)
    assert h1.lhs == pytest.approx(0.44) and h1.rhs == pytest.approx(0.64)
    assert h1.satisfied
    assert result.iterations == 10_000
    assert verify_Ck_monotone(result.rows, tol=1e-9).status == "PASS"
    assert elapsed < 5.0
    ok(1, f"C_k nonincreasing over 10^4 inertial FB iterations in {elapsed:.2f}s")


def test_criterion_2_small_o_residuals(lasso_run):
    _, _, result, _ = lasso_run
    rows = result.rows
    # the tail of a fully converged trace measures rounding noise, not the
    # iteration: apply the summability diagnostic, which squares the
    # columns, on the monotone prefix
    n_res = cli.monotone_prefix(rows.residual)
    n_step = cli.monotone_prefix(rows.step[1:])
    assert n_res >= 1000 and n_step >= 1000
    assert small_o_check(rows.residual[:n_res])
    assert small_o_check(rows.step[1:n_step + 1])
    k_res_sq = rows.k * rows.residual * rows.residual
    k_step_sq = rows.k * rows.step * rows.step
    res_below = np.flatnonzero((0 < k_res_sq) & (k_res_sq < 1e-10))
    step_below = np.flatnonzero((rows.k > 1) & (0 < k_step_sq) & (k_step_sq < 1e-10))
    assert res_below.size and step_below.size
    k_res_below, k_step_below = int(rows.k[res_below[0]]), int(rows.k[step_below[0]])
    assert k_res_below < 10_000 and k_step_below < 10_000
    assert k_res_sq[-1] < 1e-10 and k_step_sq[-1] < 1e-10
    ok(2, f"k*res^2 < 1e-10 from k={k_res_below}, k*step^2 from k={k_step_below}")


def test_criterion_3_descent_inequality(lasso_run):
    _, _, result, _ = lasso_run
    rep = verify_descent(result.rows, tol=1e-9)
    assert rep.status == "PASS", rep

    # under-relaxed so the two-set feasibility trace stays nontrivial for
    # the full iteration budget
    feas = problems.make_feasibility(20, 3)
    dr_result = run(feas.operator("dr"), feas.start_point("dr"),
                    Schedule.constant(0.2, 0.1),
                    StoppingRule(max_iters=10_000, residual_tol=0.0),
                    p_ref=feas.fixed_point("dr"))
    rep_dr = verify_descent(dr_result.rows, tol=1e-9)
    # the trace has no row for x_{10001}, so the last pair checked is (9999, 10000)
    assert dr_result.iterations == 10_000
    assert rep_dr.checked == dr_result.iterations - 1
    assert rep_dr.status == "PASS", rep_dr
    ok(3, f"zero violations over {rep.checked} FB and {rep_dr.checked} DR indices")


def test_criterion_4_linear_rate_bound(gradient_rate_run):
    inst, T, q, alpha, lam, sched, result = gradient_rate_run
    assert q == pytest.approx(9.0 / 11.0, abs=1e-12)
    assert cert.check_contraction_condition(alpha, lam, q, 1.0).margin >= -1e-10
    Q = cert.contraction_constant(lam, q, 1.0)
    assert alpha < Q < 1.0
    d1 = result.rows.dist_to_ref[0].item() ** 2
    assert result.status == "converged"
    worst = -np.inf
    for k, dist in zip(result.rows.k.tolist(), result.rows.dist_to_ref.tolist()):
        # rate_bound(j) bounds the squared distance after j steps; trace row k
        # holds the iterate after k-1 steps
        bound = cert.rate_bound(k - 1, alpha, Q, d1)
        worst = max(worst, dist ** 2 - bound)
    assert worst <= 1e-10, f"bound violated by {worst}"
    ok(4, f"measured distance within rate envelope for {result.iterations} "
          f"iterations (worst margin {worst:.2e})")


def test_criterion_5_per_step_contraction_and_product(gradient_rate_run):
    _, T, q, alpha, lam, sched, result = gradient_rate_run
    repc = verify_contraction(result.rows, q, 1.0, tol=1e-9)
    assert repc.status == "PASS", repc
    repp = verify_product_bound(result.rows, q, 1.0, tol=1e-9)
    assert repp.status == "PASS", repp
    ok(5, f"contraction and certificate product hold at all {repc.checked} steps")


def test_criterion_6_lambda_grid(tmp_path):
    t0 = time.perf_counter()
    cells = list(cert.lambda_grid(100, 99))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert len(cells) == 100 * 99
    for alpha, q, lam in cells:
        assert abs(cert.feasibility_poly(lam, alpha, q)) <= 1e-10
        if alpha == 0.0:
            assert lam == 1.0
    alphas = sorted({alpha for alpha, _, _ in cells})
    for alpha in alphas:
        assert abs(cert.lambda_alpha_q(alpha, 0.999) - cert.lambda_alpha_1(alpha)) <= 1e-3
    out = tmp_path / "grid.csv"
    assert cli.cmd_lambda_grid(100, 99, str(out), out=io.StringIO()) == cli.EXIT_OK
    assert len(out.read_text().splitlines()) == 3 + 9900
    ok(6, f"9900-cell grid certified in {elapsed:.2f}s")


def test_criterion_7_scheme_reductions():
    gen = SplitMix64(123)
    n = 8
    M = np.array([[gen.normal() for _ in range(n)] for _ in range(n)])
    A = M.T @ M / n + 0.4 * np.eye(n)
    b = np.array([gen.normal() for _ in range(n)])
    rho = 0.8 / float(np.linalg.eigvalsh(A)[-1])
    f_prox = l1(0.3)

    dy_fb = davis_yin_op(zero(), f_prox, LinearMap(A), b, rho)
    fb = forward_backward_op(f_prox, LinearMap(A), b, rho)
    worst_fb = 0.0
    for _ in range(100):
        z = np.array([gen.normal() for _ in range(n)])
        worst_fb = max(worst_fb, norm(dy_fb.apply(z) - fb.apply(z)))
    assert worst_fb <= 1e-12

    fB, fA = l1(0.4), box(-0.5, 0.5)
    dy_dr = davis_yin_op(fB, fA, LinearMap(np.zeros((n, n))), np.zeros(n), 0.9)
    dr = douglas_rachford_op(fA, fB, 0.9)
    worst_dr = 0.0
    for _ in range(100):
        z = np.array([gen.normal() for _ in range(n)])
        worst_dr = max(worst_dr, norm(dy_dr.apply(z) - dr.apply(z)))
    assert worst_dr <= 1e-12
    ok(7, f"Davis-Yin collapses to FB ({worst_fb:.1e}) and DR ({worst_dr:.1e})")


def test_criterion_8_cross_algorithm_consistency(tv_200, lasso_default):
    inst = tv_200
    sdr = inst.operator("sdr")
    sdr_run = picard(sdr, inst.start_point("sdr"), 1e-12, 1_000_000)
    assert sdr_run.status == "converged"
    gap_tv = norm(sdr.extract_solution(sdr_run.xs[0]) - inst.reference_solution)
    assert gap_tv <= 1e-6

    loose = problems.make_three_term(40, 100, 0.1, -np.inf, np.inf, 1)
    gap_tt = norm(loose.reference_solution - lasso_default.reference_solution)
    assert gap_tt <= 1e-6
    ok(8, f"pd vs sdr gap {gap_tv:.1e}; dy(trivial box) vs lasso gap {gap_tt:.1e}")


SWEEP_TV = """
problem.kind = tv1d
problem.n = 200
problem.mu_reg = 0.5
problem.seed = 1
algorithm.scheme = pd
stopping.max_iters = 100000
stopping.residual_tol = 1e-6
sweep.1.alpha = 0.0
sweep.1.lambda = 1.0
sweep.2.alpha = 0.2
sweep.2.lambda = 1.0
output.table = {table}
"""

SWEEP_DY = """
problem.kind = three_term
problem.m = 40
problem.n = 100
problem.mu_reg = 0.1
problem.box_lo = -1.0
problem.box_hi = 1.0
problem.seed = 1
algorithm.scheme = dy
stopping.max_iters = 100000
stopping.residual_tol = 1e-6
sweep.1.alpha = 0.0
sweep.1.lambda = 1.0
sweep.2.alpha = 0.2
sweep.2.lambda = 1.0
output.table = {table}
"""


def _read_sweep(path):
    lines = path.read_text().splitlines()
    header = lines[2].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[3:]]


@pytest.mark.parametrize("template,scheme", [(SWEEP_TV, "pd"), (SWEEP_DY, "dy")])
def test_criterion_9_inertial_benefit_report(tmp_path, template, scheme):
    cfg = tmp_path / f"sweep_{scheme}.cfg"
    table = tmp_path / f"sweep_{scheme}.csv"
    cfg.write_text(template.format(table=table))
    assert cli.cmd_sweep(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    rows = _read_sweep(table)
    baseline = next(r for r in rows if r["alpha"] == "0")
    inertial = next(r for r in rows if r["alpha"] != "0")
    for r in (baseline, inertial):
        assert r["status"] == "converged"
        assert float(r["final_residual"]) <= 1e-6
    # the comparison is reported, not asserted
    ok(9, f"{scheme}: baseline {baseline['iterations']} vs inertial "
          f"{inertial['iterations']} iterations to 1e-6")


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "det.cfg"
    trace = tmp_path / "det.csv"
    cfg.write_text(f"""
problem.kind = lasso
problem.m = 40
problem.n = 100
problem.sparsity = 0.1
problem.mu_reg = 0.1
problem.seed = 1
algorithm.scheme = fb
schedule.alpha = 0.2
schedule.lambda = 0.5
stopping.max_iters = 800
stopping.residual_tol = 1e-12
output.trace = {trace}
""")
    assert cli.cmd_run(str(cfg), out=io.StringIO()) in (cli.EXIT_OK, cli.EXIT_MAX_ITERS)
    first = trace.read_bytes()
    assert cli.cmd_run(str(cfg), out=io.StringIO()) in (cli.EXIT_OK, cli.EXIT_MAX_ITERS)
    second = trace.read_bytes()
    assert first == second
    ok(10, f"two consecutive runs produced identical {len(first)}-byte traces")
