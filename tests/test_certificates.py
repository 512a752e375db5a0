import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ikm import certificates as cert
from ikm.engine import Schedule, Trace


# --------------------------------------------------------------------------
# contraction_constant


def test_contraction_constant_xi_zero_is_squared_linear_form():
    for lam in (0.1, 0.5, 0.9, 1.0):
        for q in (0.2, 0.7, 0.99):
            assert cert.contraction_constant(lam, q, 0.0) == pytest.approx((1 - lam + lam * q) ** 2, abs=1e-15)


def test_contraction_constant_lambda_one_is_q_squared():
    for q in (0.3, 0.8):
        for xi in (0.0, 0.4, 1.0):
            assert cert.contraction_constant(1.0, q, xi) == pytest.approx(q * q, abs=1e-15)


def test_contraction_constant_frozen_value():
    # both closed forms evaluate to 0.59375 at (0.5, 0.5, 0.5)
    assert cert.contraction_constant(0.5, 0.5, 0.5) == 0.59375


def test_contraction_constant_monotonicity_grid():
    lams = [0.1 * i for i in range(1, 11)]
    qs = [0.1 * i for i in range(1, 10)]
    xis = [0.25 * i for i in range(5)]
    for q in qs:
        for xi in xis:
            vals = [cert.contraction_constant(l, q, xi) for l in lams]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))  # decreasing in lambda
    for lam in lams:
        for xi in xis:
            vals = [cert.contraction_constant(lam, q, xi) for q in qs]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))  # increasing in q
    for lam in lams:
        for q in qs:
            vals = [cert.contraction_constant(lam, q, xi) for xi in xis]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))  # increasing in xi


def test_contraction_constant_chain_bounds():
    for lam in (0.2, 0.6, 0.95):
        for q in (0.1, 0.5, 0.9):
            q0 = cert.contraction_constant(lam, q, 0.0)
            q1 = cert.contraction_constant(lam, q, 1.0)
            assert q * q <= q0 + 1e-15
            for xi in (0.2, 0.5, 0.8):
                assert q0 - 1e-15 <= cert.contraction_constant(lam, q, xi) <= q1 + 1e-15
            assert q1 == pytest.approx(1 - lam + lam * q * q, abs=1e-15)


def test_contraction_constant_range_validation():
    with pytest.raises(ValueError):
        cert.contraction_constant(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        cert.contraction_constant(0.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        cert.contraction_constant(0.5, 0.5, 1.5)


# --------------------------------------------------------------------------
# constant-parameter relaxation bound


def test_relaxation_constant_alpha_zero_is_lambda_below_one():
    assert cert.check_relaxation_constant(0.0, 0.999).satisfied
    assert not cert.check_relaxation_constant(0.0, 1.0).satisfied


def test_relaxation_constant_frozen_arithmetic():
    entry = cert.check_relaxation_constant(0.2, 0.5)
    assert entry.lhs == pytest.approx(0.44)
    assert entry.rhs == pytest.approx(0.64)
    assert entry.satisfied
    entry = cert.check_relaxation_constant(0.5, 1.0)
    assert entry.lhs == pytest.approx(1.0)
    assert entry.rhs == pytest.approx(0.25)
    assert not entry.satisfied


def test_relaxation_seq_constant_matches_constant_check():
    for alpha, lam in ((0.0, 0.5), (0.2, 0.5), (0.3, 0.4), (0.45, 0.2)):
        sched = Schedule.constant(alpha, lam)
        rep = cert.check_relaxation_seq(sched, range(2, 200))
        entry = cert.check_relaxation_constant(alpha, lam)
        # lambda * expression == lhs - rhs identically
        for v in rep.values:
            assert lam * v == pytest.approx(entry.lhs - entry.rhs, abs=1e-14)
        assert bool((rep.values < 0.0).all()) == entry.satisfied


def test_relaxation_seq_ramp_tail_equals_constant_tail():
    sched = Schedule.ramp(0.0, 0.3, 100, [0.4])
    rep = cert.check_relaxation_seq(sched, range(2, 1000))
    const_val = cert.check_relaxation_seq(Schedule.constant(0.3, 0.4), range(2, 10)).values[0]
    # past const_from both k and k - 1 read the limit (0.3, 0.4)
    assert sched.const_from == 100 and sched.limit == (0.3, 0.4)
    assert (rep.values[rep.ks > 100] == const_val).all()


def test_relaxation_seq_lambda_to_one_fails():
    lambdas = [1.0 - 0.5 / k for k in range(1, 2001)]
    sched = Schedule.table([0.1] * 2000, lambdas)
    rep = cert.check_relaxation_seq(sched, range(2, 2000))
    # expression tends to alpha(1+alpha) = 0.11 > 0, about 0.11 - 0.45 / k
    assert (rep.values[rep.ks >= 10] > 0.0).all()


def at(schedule, k):
    """``(alpha_k, lambda_k)`` of a schedule as Python floats."""
    a, lam = schedule.columns(np.array([k]))
    return a.item(), lam.item()


def rows_relaxation_seq(schedule, ks, gamma=None):
    """The sequence check one index at a time at ``eta = gamma * lambda``
    (``lambda`` when gamma is None): (ks, values)."""
    ks = sorted(k for k in ks if k >= 2)

    def at_eta(k):
        a, lam = at(schedule, k)
        return a, lam if gamma is None else gamma * lam

    values = [cert.relaxation_seq_term(*at_eta(k), *at_eta(k - 1)) for k in ks]
    return ks, values


@st.composite
def seq_schedules(draw):
    # subnormal lambdas make nu infinite, and with alpha = 0 the values nan
    lambdas = draw(st.lists(st.one_of(st.floats(1e-3, 2.0), st.floats(5e-324, 1e-300)),
                            min_size=1, max_size=6))
    if draw(st.booleans()):
        alphas = sorted(draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=6)))
        return Schedule.table(alphas, lambdas)
    a0 = draw(st.floats(0.0, 0.9))
    return Schedule.ramp(a0, draw(st.floats(a0, 0.99)), draw(st.integers(1, 20)), lambdas)


@settings(max_examples=300, deadline=None)
@given(schedule=seq_schedules(),
       ks=st.one_of(st.integers(2, 80).map(lambda n: range(2, n)),
                    st.lists(st.integers(0, 40), max_size=30)),
       # above 1/2, so gamma * 5e-324 does not round to 0
       gamma=st.one_of(st.none(), st.floats(0.5, 1.0, exclude_min=True)))
# nan values, duplicates and a gap
@example(schedule=Schedule.table([0.0], [1e-310, 0.5, 1e-310]), ks=[5, 2, 3, 3, 9, 1],
         gamma=None)
# gamma * lambda_2 is subnormal, so nu_2 overflows to inf
@example(schedule=Schedule.table([0.1], [0.9, 1e-310]), ks=[2, 3], gamma=0.5)
def test_relaxation_seq_matches_scalar_formula(schedule, ks, gamma):
    want_ks, want_values = rows_relaxation_seq(schedule, ks, gamma)
    if not want_ks:
        with pytest.raises(ValueError, match="k >= 2"):
            cert.check_relaxation_seq(schedule, ks, gamma)
        return
    rep = cert.check_relaxation_seq(schedule, ks, gamma)
    assert rep.ks.tolist() == want_ks
    # bit for bit: nan and the sign of zero included
    assert rep.values.tobytes() == np.array(want_values).tobytes()


@settings(max_examples=200, deadline=None)
@given(lams=st.lists(st.floats(5e-324, 2.0), min_size=1, max_size=8),
       gamma=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)))
def test_effective_relaxation_is_gamma_times_lambda(lams, gamma):
    # the one definition of eta, for a scalar and an array, and the trace's
    # replays read the same products
    lam = np.array(lams)
    want = lam if gamma is None else np.array([gamma * l for l in lams])
    assert cert.effective_relaxation(lam, gamma).tobytes() == want.tobytes()
    assert cert.effective_relaxation(lams[0], gamma) == want[0]
    if gamma is None:
        assert cert.effective_relaxation(lam, None) is lam
    trace = Trace(Schedule.constant(0.1, 0.5), gamma, k=[1], residual=[0.0], step=[0.0])
    assert trace.eta(lam).tobytes() == want.tobytes()
    assert "effective_relaxation" not in cert.__all__


@settings(max_examples=300, deadline=None)
@given(schedule=seq_schedules())
def test_ramp_and_table_are_their_limit_from_const_from_on(schedule):
    ks = np.arange(schedule.const_from, schedule.const_from + 65)
    alpha, lam = schedule.columns(ks)
    want = [np.full(ks.size, value, dtype=np.float64) for value in schedule.limit]
    assert [alpha.tobytes(), lam.tobytes()] == [w.tobytes() for w in want]


# --------------------------------------------------------------------------
# quasi-contractive condition


def test_contraction_condition_alpha_zero_always_holds():
    # every alpha-carrying term drops; what remains is -xi Q nu <= 0
    for lam in (0.2, 0.7, 1.0):
        for q in (0.3, 0.9):
            for xi in (0.0, 0.5, 1.0):
                entry = cert.check_contraction_condition(0.0, lam, q, xi)
                nu = 1.0 / lam - 1.0
                assert entry.lhs == pytest.approx(-xi * cert.contraction_constant(lam, q, xi) * nu, abs=1e-15)
                assert entry.satisfied


def test_contraction_condition_xi_zero_ruled_out_with_inertia():
    for alpha in (0.05, 0.2, 0.6):
        for lam in (0.1, 0.5, 0.9):
            for q in (0.3, 0.8):
                assert not cert.check_contraction_condition(alpha, lam, q, 0.0).satisfied


def test_contraction_condition_q_one_reduction():
    for alpha in (0.1, 0.3):
        for lam in (0.2, 0.6):
            for xi in (0.5, 1.0):
                entry = cert.check_contraction_condition(alpha, lam, 1.0, xi)
                reduced = lam * alpha * (1 + alpha) - xi * (1 - lam) * (1 - alpha) ** 2
                assert lam * entry.lhs == pytest.approx(reduced, abs=1e-14)


def test_contraction_condition_lambda_one_needs_alpha_zero():
    assert not cert.check_contraction_condition(0.3, 1.0, 0.9, 1.0).satisfied
    assert cert.check_contraction_condition(0.0, 1.0, 0.9, 1.0).satisfied


# --------------------------------------------------------------------------
# feasibility_poly and its root


def test_feasibility_poly_boundary_identities():
    for alpha in (0.0, 0.2, 0.7):
        for q in (0.1, 0.9):
            assert cert.feasibility_poly(0.0, alpha, q) == pytest.approx((1 - alpha) ** 2, abs=1e-15)
            assert cert.feasibility_poly(1.0, alpha, q) == pytest.approx(-alpha * q * q * (1 + alpha), abs=1e-14)


def test_feasibility_poly_frozen_coefficients():
    a, b, c = cert.feasibility_poly_coefficients(0.2, 0.9)
    assert a == pytest.approx(0.1976, abs=1e-12)
    assert b == pytest.approx(1.032, abs=1e-12)
    assert c == pytest.approx(0.64, abs=1e-12)


def test_lambda_alpha_q_boundary_alpha_zero():
    for q in (0.1, 0.5, 0.9):
        assert cert.lambda_alpha_q(0.0, q) == 1.0


def test_lambda_alpha_q_vs_quadratic_formula_oracle():
    for alpha, q in ((0.2, 0.9), (0.05, 9.0 / 11.0), (0.5, 0.3), (0.8, 0.99)):
        a, b, c = cert.feasibility_poly_coefficients(alpha, q)
        root = (b - math.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert cert.lambda_alpha_q(alpha, q) == pytest.approx(root, abs=5e-12)
        assert abs(cert.feasibility_poly(cert.lambda_alpha_q(alpha, q), alpha, q)) <= 1e-10


def test_lambda_alpha_q_bracketing_inequality():
    for alpha in (0.01, 0.1, 0.3, 0.6, 0.9):
        for q in (0.05, 0.3, 0.7, 0.95):
            lam = cert.lambda_alpha_q(alpha, q)
            lo, hi = cert.lambda_bracket(alpha, q)
            assert lo - 1e-10 <= lam <= hi + 1e-10
            assert 0.0 < lam <= 1.0


def test_lambda_alpha_q_boundary_feasibility():
    for alpha in (0.05, 0.2, 0.5):
        for q in (0.3, 0.8, 9.0 / 11.0):
            lam = cert.lambda_alpha_q(alpha, q)
            assert cert.check_contraction_condition(alpha, lam, q, 1.0).margin >= -1e-10


@pytest.mark.parametrize("alpha, q", [
    *((alpha, q) for alpha in (1e-17, 1e-16, 1e-300, 5e-324) for q in (0.1, 0.5, 0.99)),
    (0.5, 1e-9), (0.3, 1e-10)])
def test_lambda_alpha_q_returns_the_feasible_end_when_f1_rounds_to_zero(alpha, q):
    # feasibility_poly(1) = -alpha q^2 (1 + alpha) rounds to zero, at a tiny
    # alpha or at a tiny q: no sign change on [0, 1], so the bisection keeps
    # lo, where the polynomial is positive, within tol below the root of the
    # q = 0 polynomial, (1 - alpha)^2 / (1 + alpha^2) (1.0 at a tiny alpha)
    assert cert.feasibility_poly(1.0, alpha, q) >= 0.0
    lam = cert.lambda_alpha_q(alpha, q)
    assert cert.feasibility_poly(lam, alpha, q) > 0.0
    root = (1.0 - alpha) ** 2 / (1.0 + alpha * alpha)
    assert root - 1e-12 <= lam < root
    assert cert.check_contraction_condition(alpha, lam, q, 1.0).satisfied


def test_lambda_alpha_1_values():
    assert cert.lambda_alpha_1(0.0) == 1.0
    assert cert.lambda_alpha_1(0.5) == pytest.approx(0.25)


def test_lambda_alpha_q_tends_to_lambda_alpha_1():
    for alpha in (0.1, 0.4, 0.8):
        gap = abs(cert.lambda_alpha_q(alpha, 0.999) - cert.lambda_alpha_1(alpha))
        assert gap <= 1e-3


# --------------------------------------------------------------------------
# xi threshold


def test_xi_threshold_alpha_zero():
    assert cert.xi_threshold(0.0, 0.5, 0.8) == 0.0


def test_xi_threshold_boundary_and_scan_oracle():
    xi = cert.xi_threshold(0.3, 0.3, 0.8)
    assert xi is not None
    assert abs(cert.check_contraction_condition(0.3, 0.3, 0.8, xi).margin) <= 1e-12
    assert not cert.check_contraction_condition(0.3, 0.3, 0.8, xi - 1e-6).satisfied
    # coarse scan oracle: first xi on a fine grid that passes
    step = 1e-5
    first = next(k * step for k in range(1, 100001)
                 if cert.check_contraction_condition(0.3, 0.3, 0.8, k * step).satisfied)
    assert abs(first - xi) <= step + 1e-12


def test_xi_threshold_none_when_infeasible():
    # strong inertia with long steps: the display product exceeds one
    assert cert.xi_threshold(0.8, 0.9, 0.9) is None
    # lambda = 1 leaves no room unless alpha = 0
    assert cert.xi_threshold(0.5, 1.0, 0.9) is None


def test_xi_threshold_q_to_one_recovers_linear_case():
    alpha, lam = 0.2, 0.4
    expected = alpha * lam * (1 + alpha) / ((1 - lam) * (1 - alpha) ** 2)
    assert cert.xi_threshold(alpha, lam, 1.0) == pytest.approx(expected, rel=1e-12)
    got = cert.xi_threshold(alpha, lam, 0.9999)
    assert got == pytest.approx(expected, abs=1e-3)


# --------------------------------------------------------------------------
# rate bounds


def rate_bound_sum(k, alpha, Qs, d1):
    """Geometric-sum form ``[alpha^k + sum_j alpha^{k-j} prod_{i<=j} Q_i] d1``
    of the rate envelope, the oracle for ``cert.rate_bound``'s quotient.

    ``Qs`` may be a scalar (constant contraction) or a sequence of per-step
    constants ``Q_1 .. Q_k``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(Qs, (int, float)):
        Qs = [float(Qs)] * k
    else:
        Qs = list(Qs)
        if len(Qs) < k:
            raise ValueError(f"need {k} per-step constants, got {len(Qs)}")
    total = alpha ** k
    prod = 1.0
    for j in range(1, k + 1):
        prod *= Qs[j - 1]
        total += alpha ** (k - j) * prod
    return total * d1


def test_rate_bound_alpha_zero_collapses_to_geometric():
    for k in (1, 2, 10, 60):
        assert cert.rate_bound(k, 0.0, 0.5, 2.0) == pytest.approx(0.5 ** k * 2.0, rel=1e-14)


def test_rate_bound_k1_sum_form():
    alpha, Q, d1 = 0.3, 0.7, 1.7
    assert cert.rate_bound(1, alpha, Q, d1) == pytest.approx((alpha + Q) * d1, rel=1e-14)
    assert rate_bound_sum(1, alpha, Q, d1) == pytest.approx((alpha + Q) * d1, rel=1e-14)


def test_rate_bound_quotient_equals_sum_form():
    cases = [(0.05, 0.688), (0.2, 0.9), (0.0, 0.4), (0.3, 0.31), (0.6, 0.61)]
    for alpha, Q in cases:
        for k in range(0, 201, 10):
            quot = cert.rate_bound(k, alpha, Q, 1.0)
            summ = rate_bound_sum(k, alpha, Q, 1.0)
            assert quot == pytest.approx(summ, rel=1e-12)


def test_rate_bound_rejects_equal_constants():
    with pytest.raises(ValueError):
        cert.rate_bound(3, 0.5, 0.5, 1.0)
    assert cert.rate_bound(0, 0.2, 0.7, 4.0) == 4.0


def test_rate_bound_sum_per_step_sequence():
    Qs = [0.9, 0.8, 0.7]
    val = rate_bound_sum(3, 0.5, Qs, 1.0)
    expected = 0.5 ** 3 + 0.5 ** 2 * 0.9 + 0.5 * 0.9 * 0.8 + 0.9 * 0.8 * 0.7
    assert val == pytest.approx(expected, rel=1e-14)


# --------------------------------------------------------------------------
# lambda grid


def test_lambda_grid_small():
    cells = list(cert.lambda_grid(10, 9))
    assert len(cells) == 90
    assert all(lam == 1.0 for alpha, q, lam in cells if alpha == 0.0)
    assert all(0.0 < lam <= 1.0 for _, _, lam in cells)
    with pytest.raises(ValueError):
        list(cert.lambda_grid(1, 9))


# --------------------------------------------------------------------------
# property tests of the closed forms

EPS = 2.0 ** -52


def _smaller_root(alpha, q):
    """Smaller root of ``feasibility_poly`` by the cancellation-free quadratic formula."""
    a, b, c = cert.feasibility_poly_coefficients(alpha, q)
    return 2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))


@settings(max_examples=500, deadline=None)
@given(lam=st.floats(0.0, 1.0, exclude_min=True), q=st.floats(0.0, 1.0, exclude_min=True),
       xi=st.floats(0.0, 1.0))
def test_contraction_constant_forms_agree(lam, q, xi):
    base = 1.0 - lam + lam * q
    form1 = xi * (1.0 - lam + lam * q * q) + (1.0 - xi) * base * base
    form2 = base * base + xi * lam * (1.0 - lam) * (1.0 - q) ** 2
    # both lie in [0, 1] and take a handful of roundings each
    assert abs(form1 - form2) <= 8 * EPS
    assert cert.contraction_constant(lam, q, xi) == form2


@settings(max_examples=500, deadline=None)
@given(alpha=st.floats(0.01, 0.99), q=st.floats(0.05, 0.99))
def test_lambda_alpha_q_is_the_unique_root_in_the_unit_interval(alpha, q):
    lam = cert.lambda_alpha_q(alpha, q)
    assert 0.0 < lam < 1.0
    lo, hi = cert.lambda_bracket(alpha, q)
    assert lo - 1e-12 <= lam <= hi + 1e-12
    # bisection to 1e-12 against the closed form (itself good to ~1e-13 here)
    assert abs(lam - _smaller_root(alpha, q)) <= 2e-12
    # a > 0, so the other root is the larger one; it lies beyond 1
    a, b, c = cert.feasibility_poly_coefficients(alpha, q)
    assert a > 0.0
    assert (b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a) > 1.0


@settings(max_examples=500, deadline=None)
@given(alpha=st.floats(0.01, 0.95), lam=st.floats(0.01, 0.99), q=st.floats(0.01, 1.0))
def test_xi_threshold_lies_on_the_condition_boundary(alpha, lam, q):
    def lhs(xi):
        return cert.check_contraction_condition(alpha, lam, q, xi).lhs

    nu = 1.0 / lam - 1.0
    # size of the terms the condition's lhs cancels, to scale the rounding
    scale = alpha * (1.0 + alpha) + nu * alpha * (1.0 - alpha) + nu * (1.0 - alpha)
    tol = 1e-12 * scale
    xi = cert.xi_threshold(alpha, lam, q)
    if xi is None:
        # lhs is concave in xi with lhs(0) > 0: no root in (0, 1] means
        # the condition fails on all of it, at xi = 1 in particular
        assert lhs(1.0) > -tol
        return
    assert 0.0 < xi <= 1.0 + 1e-12
    assert abs(lhs(xi)) <= tol
    assert lhs(xi * (1.0 - 1e-6)) > -tol
    assert lhs(1.0) <= tol


@settings(max_examples=500, deadline=None)
@given(k=st.integers(0, 300), alpha=st.floats(0.0, 0.95), Q=st.floats(0.05, 0.99),
       d1=st.floats(1e-3, 1e3))
def test_rate_bound_equals_sum_form_for_constant_q(k, alpha, Q, d1):
    # the quotient form cancels when Q is close to alpha
    assume(abs(Q - alpha) >= 0.05)
    assert cert.rate_bound(k, alpha, Q, d1) == pytest.approx(
        rate_bound_sum(k, alpha, Q, d1), rel=1e-12)


@settings(max_examples=500, deadline=None)
@given(alpha=st.floats(0.0, 0.99), q=st.floats(0.05, 0.99))
def test_lambda_bracket_encloses_the_root(alpha, q):
    lo, hi = cert.lambda_bracket(alpha, q)
    root = _smaller_root(alpha, q)
    assert 0.0 < lo <= hi <= 1.0
    assert lo * (1.0 - 1e-12) <= root <= hi * (1.0 + 1e-12)
