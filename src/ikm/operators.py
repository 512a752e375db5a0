"""Proximal building blocks and composite splitting operators.

Each splitting scheme is packaged as an :class:`OperatorHandle`: an evaluable
self-map together with whatever contraction metadata can be certified for it
(averagedness ``gamma``, quasi-contraction factor ``q_factor``, cocoercivity
``beta`` of an embedded forward term) and a map from fixed points back to
problem solutions.  Handles are immutable and their ``apply`` is pure, so
concurrent evaluation on distinct inputs is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .linalg import DifferenceMap, GramMap, LinearMap, norm, spd_solver
# re-exported: the benchmark harness wraps ``operators.operator_norm_estimate``
from .linalg import operator_norm_estimate  # noqa: F401

__all__ = [
    "OperatorHandle",
    "ProxFunction",
    "box",
    "davis_yin_op",
    "diagonal_quadratic",
    "douglas_rachford_op",
    "evaluate",
    "forward_backward_op",
    "gradient_step_op",
    "l1",
    "l2_ball",
    "make_prox_conjugate",
    "primal_dual_op",
    "prox",
    "prox_conjugate",
    "quadratic",
    "residual",
    "split_dr_op",
    "zero",
]


# --------------------------------------------------------------------------
# prox-friendly functions


@dataclass(frozen=True)
class ProxFunction:
    """Convex function with a closed-form (or one-solve) proximal map.

    ``kind`` is one of ``l1``, ``box``, ``quadratic``, ``l2_ball``, ``zero``;
    the remaining fields are per-kind parameters.  A quadratic holds either a
    matrix ``A`` or, when diagonal, only its diagonal ``diag``.
    """

    kind: str
    weight: float = 0.0
    lo: np.ndarray | float = 0.0
    hi: np.ndarray | float = 0.0
    A: Optional[LinearMap] = None
    b: Optional[np.ndarray] = None
    radius: float = 0.0
    diag: Optional[np.ndarray] = None


def l1(weight: float) -> ProxFunction:
    """``weight * ||x||_1``."""
    if weight < 0:
        raise ValueError("l1 weight must be >= 0")
    return ProxFunction("l1", weight=float(weight))


def box(lo, hi) -> ProxFunction:
    """Indicator of the box [lo, hi] (infinite bounds allowed as markers)."""
    lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(lo_a > hi_a):
        raise ValueError("box requires lo <= hi")
    return ProxFunction("box", lo=lo_a, hi=hi_a)


def quadratic(A: LinearMap, b: np.ndarray) -> ProxFunction:
    """``0.5 x^T A x - b^T x`` with A symmetric positive semidefinite."""
    return ProxFunction("quadratic", A=A, b=np.asarray(b, dtype=float))


def diagonal_quadratic(diag: np.ndarray, b: np.ndarray) -> ProxFunction:
    """``0.5 x^T diag(d) x - b^T x`` with ``d >= 0``, held by ``d`` alone (no n x n matrix)."""
    d = np.asarray(diag, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("diagonal entries must be >= 0")
    return ProxFunction("quadratic", diag=d, b=np.asarray(b, dtype=float))


def l2_ball(radius: float) -> ProxFunction:
    """Indicator of the origin-centered Euclidean ball of given radius."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    return ProxFunction("l2_ball", radius=float(radius))


def zero() -> ProxFunction:
    """The identically-zero function (prox = identity)."""
    return ProxFunction("zero")


def evaluate(f: ProxFunction, x: np.ndarray) -> float:
    """Function value at ``x`` (indicators return 0 or +inf)."""
    if f.kind == "zero":
        return 0.0
    if f.kind == "l1":
        return f.weight * float(np.sum(np.abs(x)))
    if f.kind == "box":
        return 0.0 if bool(np.all(x >= f.lo) and np.all(x <= f.hi)) else math.inf
    if f.kind == "l2_ball":
        return 0.0 if norm(x) <= f.radius * (1.0 + 1e-12) else math.inf
    if f.kind == "quadratic":
        if f.A is None:
            return 0.5 * float(x @ (f.diag * x)) - float(f.b @ x)
        return 0.5 * float(x @ f.A.matrix @ x) - float(f.b @ x)
    raise ValueError(f"unknown kind {f.kind!r}")


def _into(out: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """``v`` itself, or ``out`` holding a copy of it."""
    if out is None:
        return v
    out[...] = v
    return out


def make_prox(f: ProxFunction, rho: float) -> Callable[..., np.ndarray]:
    """Specialized closure for ``v -> prox_{rho f}(v)``.

    The quadratic kind factors ``I + rho A`` once (a diagonal quadratic is
    solved directly), which is what makes long resolvent iterations cheap.
    The closure takes an optional ``out=`` array, which may be ``v`` itself,
    and writes the result there with the same operations.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if f.kind == "zero":
        return lambda v, out=None: _into(out, v)
    if f.kind == "l1":
        t = rho * f.weight

        def soft_threshold(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            # two passes: v minus its clip to [-t, t]
            clip = np.maximum(v, -t)
            return np.subtract(v, np.minimum(clip, t, out=clip), out=out)

        return soft_threshold
    if f.kind == "box":
        lo, hi = f.lo, f.hi
        return lambda v, out=None: np.clip(v, lo, hi, out=out)
    if f.kind == "l2_ball":
        r = f.radius

        def project(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            nv = norm(v)
            return _into(out, v) if nv <= r else np.multiply(v, r / nv, out=out)

        return project
    if f.kind == "quadratic":
        rho_b = rho * f.b
        if f.A is None:
            scale = 1.0 + rho * f.diag

            def solve_diagonal(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
                w = np.add(v, rho_b, out=out)
                return np.divide(w, scale, out=w)

            return solve_diagonal
        solve = spd_solver(LinearMap(np.eye(f.A.rows) + rho * f.A.matrix))
        return lambda v, out=None: _into(out, solve(v + rho_b))
    raise ValueError(f"unknown kind {f.kind!r}")


def prox(f: ProxFunction, rho: float, v: np.ndarray) -> np.ndarray:
    """Proximal map: the minimizer of ``f(u) + ||u - v||^2 / (2 rho)``."""
    return make_prox(f, rho)(v)


def make_prox_conjugate(f: ProxFunction, sigma: float) -> Callable[..., np.ndarray]:
    """Specialized closure for ``v -> prox_{sigma f*}(v)``.

    For ``f = w ||.||_1`` the conjugate is the indicator of ``[-w, w]^n``,
    so the prox is the clip ``min(max(v, -w), w)`` for every ``sigma``
    (Chambolle and Pock, JMIV 40, 2011).  Every other kind goes through
    Moreau's identity, ``v - sigma * prox_{f/sigma}(v / sigma)``.  As with
    :func:`make_prox`, an optional ``out=`` array (``v`` allowed) receives
    the result.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if f.kind == "l1":
        w = f.weight

        def clip(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            low = np.maximum(v, -w, out=out)
            return np.minimum(low, w, out=low)

        return clip
    pf = make_prox(f, 1.0 / sigma)

    def moreau(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        scaled = v / sigma
        scaled = pf(scaled, out=scaled)
        return np.subtract(v, np.multiply(sigma, scaled, out=scaled), out=out)

    return moreau


def prox_conjugate(f: ProxFunction, sigma: float, w: np.ndarray) -> np.ndarray:
    """Prox of ``sigma * f^*`` at ``w`` (see :func:`make_prox_conjugate`)."""
    return make_prox_conjugate(f, sigma)(w)


# --------------------------------------------------------------------------
# operator handles


@dataclass(frozen=True)
class OperatorHandle:
    """Evaluable self-map with certified metadata.

    ``gamma`` is the averagedness constant (T = (1-gamma) I + gamma R with R
    nonexpansive), ``q_factor`` a certified factor with ``||Tx - p|| <=
    q ||x - p||`` against the fixed point, ``beta`` the cocoercivity constant
    of an embedded forward term.  ``extract_solution`` maps a fixed point of
    ``apply`` to a solution of the underlying problem.  ``exact_zeros`` says
    whether ``apply`` can map a nonzero entry to an exact zero, as an l1
    prox, a box projection or a Moreau-form conjugate prox can; the engine
    then flushes subnormals from the points it forms (see
    :mod:`ikm.engine`).  The constructors below set it from their parts.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    gamma: Optional[float] = None
    q_factor: Optional[float] = None
    beta: Optional[float] = None
    extract_solution: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    notes: Tuple[str, ...] = field(default_factory=tuple)
    exact_zeros: bool = True


def _zeroes(f: ProxFunction) -> bool:
    """Whether ``prox_{rho f}`` can map a nonzero entry to an exact zero."""
    return f.kind in ("l1", "box")


def _conjugate_zeroes(g: ProxFunction) -> bool:
    """The same for ``prox_{sigma g*}``: every kind but l1 (a clip) goes
    through Moreau's identity, whose difference can cancel exactly."""
    return g.kind != "l1"


def residual(T: OperatorHandle, y: np.ndarray) -> float:
    """Fixed-point residual ``||y - T y||``."""
    return norm(y - T.apply(y))


def _spectrum_bounds(A: Union[LinearMap, GramMap]) -> Tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric map (a Gram map's cached spectrum)."""
    if isinstance(A, GramMap):
        return A.spectrum()
    M = A.matrix
    if M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(M).max())):
        raise ValueError("expected a symmetric matrix")
    eigs = np.linalg.eigvalsh(M)
    return float(eigs[0]), float(eigs[-1])


def gradient_step_op(A_spd: LinearMap, b: np.ndarray, rho: float) -> OperatorHandle:
    """Explicit gradient step ``x -> x - rho (A x - b)`` on a quadratic.

    Averagedness is ``rho * L / 2`` (cocoercivity ``beta = 1/L``); the
    quasi-contraction factor is the spectral value ``max |1 - rho * eig|``,
    attached only when it is strictly below one.
    """
    mu, L = _spectrum_bounds(A_spd)
    if L <= 0:
        raise ValueError("A must have a positive largest eigenvalue")
    if not 0.0 < rho < 2.0 / L:
        raise ValueError(f"rho must lie in (0, {2.0 / L:.6g})")
    q = max(abs(1.0 - rho * mu), abs(1.0 - rho * L))
    M, bb = A_spd.matrix, np.asarray(b, dtype=float)

    def apply(x: np.ndarray) -> np.ndarray:
        return x - rho * (M @ x - bb)

    return OperatorHandle(
        apply=apply,
        gamma=rho * L / 2.0,
        q_factor=q if q < 1.0 else None,
        beta=1.0 / L,
        extract_solution=lambda x: x,
        name="gradient",
        exact_zeros=False,
    )


def proximal_op(f: ProxFunction, rho: float) -> OperatorHandle:
    """Resolvent iteration map ``x -> prox_{rho f}(x)`` (1/2-averaged)."""
    p = make_prox(f, rho)
    q = None
    if f.kind == "quadratic":
        mu = float(np.min(f.diag)) if f.A is None else _spectrum_bounds(f.A)[0]
        if mu > 0:
            q = 1.0 / (1.0 + rho * mu)
    return OperatorHandle(
        apply=p,
        gamma=0.5,
        q_factor=q,
        extract_solution=lambda x: x,
        name="proximal",
        exact_zeros=_zeroes(f),
    )


def forward_backward_op(
    f_nonsmooth: ProxFunction, A_spd: Union[LinearMap, GramMap], b: np.ndarray, rho: float
) -> OperatorHandle:
    """Forward-backward map ``x -> prox_{rho f}(x - rho (A x - b))``.

    With ``L`` the largest eigenvalue of ``A`` the forward term is
    ``1/L``-cocoercive and the composition is ``2/(4 - rho L)``-averaged; a
    vanishing forward term (A = 0, b = 0) degenerates to the plain resolvent,
    which is 1/2-averaged.
    """
    mu, L = _spectrum_bounds(A_spd)
    bb = np.asarray(b, dtype=float)
    if L > 0:
        beta = 1.0 / L
        if not 0.0 < rho < 2.0 * beta:
            raise ValueError(f"rho must lie in (0, {2.0 * beta:.6g})")
        gamma = 2.0 / (4.0 - rho * L)
    else:
        if rho <= 0:
            raise ValueError("rho must be > 0")
        beta = None
        gamma = 0.5 if norm(bb) == 0.0 else None
    p = make_prox(f_nonsmooth, rho)
    A_apply = A_spd.apply

    def apply(x: np.ndarray) -> np.ndarray:
        return p(x - rho * (A_apply(x) - bb))

    return OperatorHandle(
        apply=apply,
        gamma=gamma,
        beta=beta,
        extract_solution=lambda x: x,
        name="forward-backward",
        exact_zeros=_zeroes(f_nonsmooth),
    )


def douglas_rachford_op(fA: ProxFunction, fB: ProxFunction, r: float) -> OperatorHandle:
    """Douglas-Rachford map ``z -> z + J_{rA}(2 J_{rB} z - z) - J_{rB} z``.

    1/2-averaged; a fixed point ``z`` yields the solution ``J_{rB} z``.
    """
    if r <= 0:
        raise ValueError("r must be > 0")
    pa, pb = make_prox(fA, r), make_prox(fB, r)

    def apply(z: np.ndarray) -> np.ndarray:
        xb = pb(z)
        xa = pa(2.0 * xb - z)
        return z + (xa - xb)

    return OperatorHandle(
        apply=apply,
        gamma=0.5,
        extract_solution=pb,
        name="douglas-rachford",
        exact_zeros=_zeroes(fA) or _zeroes(fB),
    )


def _check_steps(L: Union[LinearMap, DifferenceMap], tau: float, sigma: float) -> None:
    """Require ``tau * sigma * ||L||^2 <= 1`` against a certified upper bound on ``||L||``.

    A power-iteration estimate approaches ``||L||`` from below, so steps set
    from it can pass a check against it while violating the true bound.
    """
    if tau <= 0 or sigma <= 0:
        raise ValueError("tau and sigma must be > 0")
    upper = L.norm_upper()
    if tau * sigma * upper * upper > 1.0 + 1e-12:
        raise ValueError(f"step bound violated: tau*sigma*||L||^2 may reach "
                         f"{tau * sigma * upper * upper:.6g} > 1 (||L|| <= {upper:.6g})")


def primal_dual_op(
    f: ProxFunction, g: ProxFunction, L: Union[LinearMap, DifferenceMap], tau: float,
    sigma: float
) -> OperatorHandle:
    """One sweep of primal-dual splitting for ``min f(x) + g(L x)``.

    A point is the flat array ``p = [x; y]`` of length ``L.cols + L.rows``.
    Updates ``x+ = prox_{tau f}(x - tau L^T y)`` then ``y+ =
    prox_{sigma g*}(y + sigma L (2 x+ - x))`` and returns ``[x+; y+]`` as a
    new array, both blocks written in place with ``out=`` ufuncs and one
    scratch vector; ``p`` is never written.  The dual prox comes from
    :func:`make_prox_conjugate`: a clip to ``[-w, w]`` for ``g = w ||.||_1``,
    Moreau's identity otherwise.  Requires ``tau * sigma * ||L||^2 <= 1``,
    checked against ``L.norm_upper()``.  The map is 1/2-averaged on the
    product space and the primal block ``p[..., :n]`` of a fixed point
    solves the problem (``extract_solution`` also takes a stack of points).
    """
    _check_steps(L, tau, sigma)
    pf = make_prox(f, tau)
    pg_conj = make_prox_conjugate(g, sigma)
    n = L.cols

    def apply(p: np.ndarray) -> np.ndarray:
        # x+ and y+ are formed in the two blocks of one fresh array, in the
        # order of pf(x - tau L^T y) and pg*(y + sigma L (2 x+ - x)); the only
        # other array is the scratch 2 x+ - x
        x, y = p[:n], p[n:]
        out = np.empty(p.shape)
        xp, yp = out[:n], out[n:]
        L.apply_adjoint(y, out=xp)
        np.multiply(tau, xp, out=xp)
        pf(np.subtract(x, xp, out=xp), out=xp)
        ext = np.multiply(2.0, xp)
        L.apply(np.subtract(ext, x, out=ext), out=yp)
        np.multiply(sigma, yp, out=yp)
        pg_conj(np.add(y, yp, out=yp), out=yp)
        return out

    return OperatorHandle(
        apply=apply,
        gamma=0.5,
        extract_solution=lambda p: p[..., :n],
        name="primal-dual",
        notes=("averagedness 1/2 holds in the step-induced product metric",),
        exact_zeros=_zeroes(f) or _conjugate_zeroes(g),
    )


def split_dr_op(
    f: ProxFunction, g: ProxFunction, L: Union[LinearMap, DifferenceMap], tau: float,
    sigma: float
) -> OperatorHandle:
    """Split Douglas-Rachford sweep with scalar preconditioners.

    A point is the flat array ``p = [x; y]`` of length ``L.cols + L.rows``.
    Per iteration::

        v  = prox_{sigma g*}(y + sigma L x)
        x+ = prox_{tau f}(x - tau L^T v)
        y+ = sigma * L (x+ - x) + v

    and ``[x+; y+]`` is returned as a new array, both blocks written in place
    with ``out=`` ufuncs and one scratch array; ``p`` is never written.
    The dual prox comes from :func:`make_prox_conjugate`: a clip to
    ``[-w, w]`` for ``g = w ||.||_1``, Moreau's identity otherwise.
    Averagedness 1/2 is assumed in the preconditioned metric (flagged in
    ``notes``); requires ``tau * sigma * ||L||^2 <= 1``, checked against
    ``L.norm_upper()``.  The primal block ``p[..., :n]`` of a fixed point
    solves the problem (``extract_solution`` also takes a stack of points).
    """
    _check_steps(L, tau, sigma)
    pf = make_prox(f, tau)
    pg_conj = make_prox_conjugate(g, sigma)
    n = L.cols

    def apply(p: np.ndarray) -> np.ndarray:
        # v, then x+, then y+ = sigma L (x+ - x) + v are formed in the blocks
        # of one fresh array (v in the y block) in the order of the formulas;
        # the only other array is the scratch for x+ - x and its image
        x, y = p[:n], p[n:]
        out = np.empty(p.shape)
        xp, yp = out[:n], out[n:]
        L.apply(x, out=yp)
        np.multiply(sigma, yp, out=yp)
        pg_conj(np.add(y, yp, out=yp), out=yp)
        L.apply_adjoint(yp, out=xp)
        np.multiply(tau, xp, out=xp)
        pf(np.subtract(x, xp, out=xp), out=xp)
        scratch = np.empty(n + yp.size)
        diff, image = scratch[:n], scratch[n:]
        L.apply(np.subtract(xp, x, out=diff), out=image)
        np.add(np.multiply(sigma, image, out=image), yp, out=yp)
        return out

    return OperatorHandle(
        apply=apply,
        gamma=0.5,
        extract_solution=lambda p: p[..., :n],
        name="split-douglas-rachford",
        notes=("averagedness 1/2 assumed in the scalar-preconditioned metric",),
        exact_zeros=_zeroes(f) or _conjugate_zeroes(g),
    )


def davis_yin_op(
    fB: ProxFunction, fA: ProxFunction, A_spd: Union[LinearMap, GramMap], b: np.ndarray,
    rho: float
) -> OperatorHandle:
    """Three-operator splitting map for two prox terms plus a smooth quadratic.

    ``T z = z + J_{rho A}(2 J_{rho B} z - z - rho C(J_{rho B} z)) - J_{rho B} z``
    with ``C x = A_spd x - b``; averagedness ``2 beta / (4 beta - rho)`` where
    ``beta = 1 / L(A_spd)``.  Collapses to forward-backward when ``fB = 0``
    and to Douglas-Rachford when the smooth term vanishes.
    """
    mu, L_sm = _spectrum_bounds(A_spd)
    if L_sm > 0:
        beta = 1.0 / L_sm
        if not 0.0 < rho < 2.0 * beta:
            raise ValueError(f"rho must lie in (0, {2.0 * beta:.6g})")
    else:
        if rho <= 0:
            raise ValueError("rho must be > 0")
        beta = None
    pb_ = make_prox(fB, rho)
    pa_ = make_prox(fA, rho)
    A_apply, bb = A_spd.apply, np.asarray(b, dtype=float)

    def apply(z: np.ndarray) -> np.ndarray:
        xb = pb_(z)
        xa = pa_(2.0 * xb - z - rho * (A_apply(xb) - bb))
        return z + (xa - xb)

    return OperatorHandle(
        apply=apply,
        gamma=2.0 / (4.0 - rho * L_sm),
        beta=beta,
        extract_solution=pb_,
        name="davis-yin",
        exact_zeros=_zeroes(fA) or _zeroes(fB),
    )
