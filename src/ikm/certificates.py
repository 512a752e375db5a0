"""Closed-form feasibility certificates and worst-case rate constants.

Every parameter inequality used by the inertial KM analysis is evaluated
here as a pure function: the constant-parameter relaxation bound, its
sequence form, the quasi-contractive condition and its boundary curve
``lambda_alpha_q`` (the unique root of the quadratic ``feasibility_poly`` in (0, 1)),
the auxiliary-weight threshold ``xi_threshold`` and the geometric rate
envelope.  Checks report (lhs, rhs, margin); strict inequalities are
satisfied only with a strictly positive margin, the non-strict contraction
condition accepts margin zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "CheckResult",
    "RelaxationSeqReport",
    "contraction_constant",
    "check_relaxation_constant",
    "check_relaxation_seq",
    "check_contraction_condition",
    "lambda_alpha_1",
    "lambda_alpha_q",
    "lambda_grid",
    "lambda_grid_points",
    "feasibility_poly",
    "feasibility_poly_coefficients",
    "rate_bound",
    "xi_threshold",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one inequality: margin = rhs - lhs, satisfied per strictness."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def contraction_constant(lam: float, q: float, xi: float) -> float:
    """Contraction constant of one relaxed step against a q-contractive map,
    ``(1 - lam + lam q)^2 + xi lam (1 - lam)(1 - q)^2``.

    It equals ``xi (1 - lam + lam q^2) + (1 - xi)(1 - lam + lam q)^2``, the
    convex combination of the two bounds it interpolates.  Decreasing in
    ``lam``, increasing in ``q`` and ``xi``.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    base = 1.0 - lam + lam * q
    return base * base + xi * lam * (1.0 - lam) * (1.0 - q) ** 2


def check_relaxation_constant(alpha: float, lambda_eff: float) -> CheckResult:
    """Constant-parameter relaxation bound ``lam (1 - a + 2 a^2) < (1 - a)^2``.

    ``lambda_eff`` should be the effective relaxation (gamma * lambda) when
    the operator's averagedness gamma is known.  Strict.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if lambda_eff <= 0.0:
        raise ValueError("lambda must be > 0")
    lhs = lambda_eff * (1.0 - alpha + 2.0 * alpha * alpha)
    rhs = (1.0 - alpha) ** 2
    return CheckResult("relaxation", lhs, rhs, lhs < rhs)


def relaxation_seq_term(alpha_k: float, lam_k: float, alpha_prev: float, lam_prev: float) -> float:
    """Sequence-form feasibility expression at one index (negative is good)."""
    nu_k = 1.0 / lam_k - 1.0
    nu_prev = 1.0 / lam_prev - 1.0
    return (
        alpha_k * (1.0 + alpha_k)
        + nu_k * alpha_k * (1.0 - alpha_k)
        - nu_prev * (1.0 - alpha_prev)
    )


@dataclass(frozen=True)
class RelaxationSeqReport:
    """Per-index values of the sequence feasibility expression.

    ``ks`` (int64) and ``values`` (float64) are NumPy arrays, one entry per
    index evaluated; the form holds at an index whose value is negative.
    """

    ks: np.ndarray
    values: np.ndarray


def check_relaxation_seq(schedule, ks: Iterable[int]) -> RelaxationSeqReport:
    """Evaluate the sequence feasibility expression over ``ks``.

    ``schedule`` is anything exposing ``columns(ks)``, which maps an int64
    index array to the float64 arrays ``(alpha_k, lambda_k)``, as a
    :class:`ikm.engine.Schedule` does.  Indices below 2 are skipped (the
    expression looks one step back).  The columns are read once over the
    sorted ``ks``, and once over ``k - 1`` for the ``k`` whose predecessor
    is not in ``ks``.  The values are array expressions with the operations
    of :func:`relaxation_seq_term` in its order, so each has the bits the
    scalar function gives it.
    """
    ks = np.fromiter(ks, dtype=np.int64)
    ks.sort()
    ks = ks[np.searchsorted(ks, 2):]
    if not ks.size:
        raise ValueError("need at least one index k >= 2")
    alpha, lam = schedule.columns(ks)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nu = 1.0 / lam - 1.0
        # the k - 1 term is the previous entry's when that index is k - 1;
        # the other indices evaluate it on their own
        back = np.empty_like(nu)
        back[1:] = nu[:-1] * (1.0 - alpha[:-1])
        own = np.diff(ks, prepend=0) != 1
        alpha_prev, lam_prev = schedule.columns(ks[own] - 1)
        back[own] = (1.0 / lam_prev - 1.0) * (1.0 - alpha_prev)
        values = alpha * (1.0 + alpha) + nu * alpha * (1.0 - alpha) - back
    return RelaxationSeqReport(ks=ks, values=values)


def check_contraction_condition(alpha: float, lam: float, q: float, xi: float) -> CheckResult:
    """Constant-parameter quasi-contractive condition (non-strict).

    ``Q a (1 + a) + xi nu a (1 - a) - xi Q nu (1 - a) <= 0`` with
    ``Q = contraction_constant(lam, q, xi)`` and ``nu = (1 - lam) / lam``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    Q = contraction_constant(lam, q, xi)
    nu = 1.0 / lam - 1.0
    lhs = (
        Q * alpha * (1.0 + alpha)
        + xi * nu * alpha * (1.0 - alpha)
        - xi * Q * nu * (1.0 - alpha)
    )
    return CheckResult("contraction", lhs, 0.0, lhs <= 0.0)


def feasibility_poly_coefficients(alpha: float, q: float) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of ``feasibility_poly(lam) = a lam^2 - b lam + c``."""
    a = (1.0 + alpha * alpha) * (1.0 - q * q)
    b = 2.0 * alpha * alpha + (1.0 - alpha) * (2.0 - q * q)
    c = (1.0 - alpha) ** 2
    return a, b, c


def feasibility_poly(lam: float, alpha: float, q: float) -> float:
    """Feasibility polynomial whose sign decides the q-contractive condition.

    ``feasibility_poly(0) = (1 - alpha)^2`` and ``feasibility_poly(1) = -alpha q^2 (1 + alpha)``, so for
    alpha, q in (0, 1) there is exactly one root in (0, 1).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    a, b, c = feasibility_poly_coefficients(alpha, q)
    return (a * lam - b) * lam + c


def lambda_alpha_1(alpha: float) -> float:
    """Largest feasible constant relaxation in the q -> 1 limit.

    Solves the equality case of the constant-parameter bound:
    ``(1 - a)^2 / (a (1 + a) + (1 - a)^2)``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    num = (1.0 - alpha) ** 2
    return num / (alpha * (1.0 + alpha) + num)


def lambda_alpha_q(alpha: float, q: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Unique root of ``feasibility_poly`` in (0, 1) by bisection.

    For ``alpha = 0`` the root degenerates to the boundary and 1 is returned.
    Bisection runs to absolute tolerance ``tol`` on lambda (200 iterations
    cap; 2^-200 is far below any requested tolerance) and returns the
    midpoint of its last bracket.  When ``feasibility_poly(1) = -alpha q^2
    (1 + alpha)`` rounds to zero or above (``alpha q^2`` below about
    ``1e-16``: any ``q`` at ``alpha = 1e-17``, but also ``alpha = 0.5`` at
    ``q = 1e-9``), ``[0, 1]`` brackets no sign change in floating point;
    the same bisection then returns the feasible end ``lo`` of its last
    bracket, at which the polynomial is positive.  That end is ``1 -
    2^-40`` at the default ``tol`` for a tiny ``alpha``, and within ``tol``
    below the root near ``(1 - alpha)^2 / (1 + alpha^2)`` for a tiny ``q``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if alpha == 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    f_lo = feasibility_poly(lo, alpha, q)
    f_hi = feasibility_poly(hi, alpha, q)
    if not f_lo > 0.0:  # cannot happen: f(0) = (1 - alpha)^2
        raise ValueError("feasibility_poly is not positive at 0")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if feasibility_poly(mid, alpha, q) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi) if f_hi < 0.0 else lo


def lambda_bracket(alpha: float, q: float) -> tuple[float, float]:
    """Closed-form enclosure ``[ratio * lambda_{a,1}, lambda_{a,1}]`` of the root."""
    top = lambda_alpha_1(alpha)
    ratio = (2.0 * alpha * alpha + (1.0 - alpha)) / (
        2.0 * alpha * alpha + (1.0 - alpha) * (2.0 - q * q)
    )
    return ratio * top, top


def xi_threshold(alpha: float, lam: float, q: float) -> Optional[float]:
    """Least xi in (0, 1] making ``check_contraction_condition`` pass, or None when impossible.

    The condition is quadratic in xi (the contraction constant itself depends
    on xi) with a concave left-hand side, so the feasible region is
    ``xi >= xi*`` for the larger root ``xi*``; that root exists exactly when
    ``1 - lam + lam q^2 > alpha`` and the product
    ``[a lam (1+a) / ((1-a)(1-lam))] * [(1-lam+lam q^2) / (1-lam+lam q^2-a)]``
    is below one.  At ``alpha = 0`` every xi works and 0 is returned.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if alpha == 0.0:
        return 0.0
    if lam == 1.0:
        return None
    Q1 = 1.0 - lam + lam * q * q
    if Q1 - alpha <= 0.0:
        return None
    product = (
        alpha * lam * (1.0 + alpha) / ((1.0 - alpha) * (1.0 - lam))
    ) * (Q1 / (Q1 - alpha))
    if product >= 1.0:
        return None
    nu = 1.0 / lam - 1.0
    Q0 = (1.0 - lam + lam * q) ** 2
    D = lam * (1.0 - lam) * (1.0 - q) ** 2
    # lhs(xi) = -a xi^2 + b xi + c, concave with lhs(0) > 0 > lhs(1).
    a = D * nu * (1.0 - alpha)
    b = D * alpha * (1.0 + alpha) + nu * alpha * (1.0 - alpha) - Q0 * nu * (1.0 - alpha)
    c = Q0 * alpha * (1.0 + alpha)
    if a == 0.0:  # q = 1: the condition is genuinely linear in xi
        return -c / b
    # positive root of a xi^2 - b xi - c = 0 (the roots straddle zero since
    # c > 0); stable two-branch quadratic formula avoids cancellation.
    disc = math.sqrt(b * b + 4.0 * a * c)
    qq = 0.5 * (b + math.copysign(disc, b)) if b != 0.0 else 0.5 * disc
    return max(qq / a, -c / qq)


def rate_bound(k: int, alpha: float, Q_const: float, d1: float) -> float:
    """Worst-case envelope for the squared distance after ``k`` steps.

    ``[(alpha^{k+1} - Q^{k+1}) / (alpha - Q)] * d1``, the closed form of the
    geometric sum ``sum_{j=0..k} alpha^{k-j} Q^j * d1``; ``k = 0`` gives
    ``d1`` itself.  Requires ``Q_const != alpha`` (the equality case is
    incompatible with the feasibility condition).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0.0 < Q_const < 1.0:
        raise ValueError("Q_const must lie in (0, 1)")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if Q_const == alpha:
        raise ValueError("Q_const = alpha is excluded")
    return (alpha ** (k + 1) - Q_const ** (k + 1)) / (alpha - Q_const) * d1


def lambda_grid_points(alpha_steps: int, q_steps: int):
    """Grid nodes: alpha in {0, 1/n, ...}, q strictly inside (0, 1)."""
    if alpha_steps < 2 or q_steps < 2:
        raise ValueError("step counts must be >= 2")
    alphas = [i / alpha_steps for i in range(alpha_steps)]
    qs = [(j + 1) / (q_steps + 1) for j in range(q_steps)]
    return alphas, qs


def lambda_grid(alpha_steps: int, q_steps: int):
    """Yield ``(alpha, q, lambda_alpha_q)`` over the default grid, each cell
    asserted against the closed-form enclosure before being yielded."""
    alphas, qs = lambda_grid_points(alpha_steps, q_steps)
    for alpha in alphas:
        for q in qs:
            lam = lambda_alpha_q(alpha, q)
            lo, hi = lambda_bracket(alpha, q)
            if not lo - 1e-10 <= lam <= hi + 1e-10:
                raise AssertionError(
                    f"bracketing violated at alpha={alpha}, q={q}: "
                    f"{lo} <= {lam} <= {hi}"
                )
            yield alpha, q, lam
