"""Proximal building blocks and composite splitting operators.

Each splitting scheme is packaged as an :class:`OperatorHandle`: an evaluable
self-map together with whatever contraction metadata can be certified for it
(averagedness ``gamma``, quasi-contraction factor ``q_factor``, cocoercivity
``beta`` of an embedded forward term) and a map from fixed points back to
problem solutions.  Handles are immutable and their ``apply`` is pure, so
concurrent evaluation on distinct inputs is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .linalg import DifferenceMap, GramMap, LinearMap, SpectralMap, norm, spd_solver
# re-exported: the benchmark harness wraps ``operators.operator_norm_estimate``
from .linalg import operator_norm_estimate  # noqa: F401

__all__ = [
    "OperatorHandle",
    "ProxFunction",
    "box",
    "davis_yin_op",
    "diagonal_quadratic",
    "douglas_rachford_op",
    "forward_backward_op",
    "gradient_step_op",
    "l1",
    "l2_ball",
    "make_prox",
    "make_prox_conjugate",
    "primal_dual_op",
    "prox",
    "proximal_op",
    "quadratic",
    "split_dr_op",
    "zero",
]


# --------------------------------------------------------------------------
# prox-friendly functions

#: ``v -> prox(v)``, writing the same bits to an optional ``out=`` (``v`` allowed)
Prox = Callable[..., np.ndarray]


def _into(out: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """``v`` itself, or ``out`` holding a copy of it."""
    if out is None:
        return v
    out[...] = v
    return out


@dataclass(frozen=True)
class ProxFunction:
    """Convex function with a closed-form (or one-solve) proximal map.

    ``prox_map(rho)`` returns the closure ``v -> prox_{rho f}(v)``, prepared
    once per ``rho``.  ``conjugate_map(sigma)``, when set, returns the closure
    ``v -> prox_{sigma f*}(v)`` in closed form; without it the conjugate prox
    goes through Moreau's identity (:func:`make_prox_conjugate`).
    ``exact_zeros`` says whether ``prox_{rho f}`` can map a nonzero entry to an
    exact zero, and ``modulus`` is the strong-convexity modulus of ``f`` (0
    when it is not strongly convex).  The constructors below build each.
    """

    prox_map: Callable[[float], Prox]
    conjugate_map: Optional[Callable[[float], Prox]] = None
    exact_zeros: bool = False
    modulus: float = 0.0


def l1(weight: float) -> ProxFunction:
    """``weight * ||x||_1``.

    Its conjugate is the indicator of ``[-weight, weight]^n``, so the prox of
    ``sigma f*`` is the clip ``min(max(v, -weight), weight)`` for every
    ``sigma`` (Chambolle and Pock, JMIV 40, 2011).
    """
    if weight < 0:
        raise ValueError("l1 weight must be >= 0")
    w = float(weight)

    def prox_map(rho: float) -> Prox:
        t = rho * w

        def soft_threshold(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            # two passes: v minus its clip to [-t, t]
            clip = np.maximum(v, -t)
            return np.subtract(v, np.minimum(clip, t, out=clip), out=out)

        return soft_threshold

    def clip(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        low = np.maximum(v, -w, out=out)
        return np.minimum(low, w, out=low)

    return ProxFunction(prox_map, conjugate_map=lambda sigma: clip, exact_zeros=True)


def box(lo, hi) -> ProxFunction:
    """Indicator of the box [lo, hi] (infinite bounds allowed as markers)."""
    lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(lo_a > hi_a):
        raise ValueError("box requires lo <= hi")
    return ProxFunction(lambda rho: lambda v, out=None: np.clip(v, lo_a, hi_a, out=out),
                        exact_zeros=True)


def _spectrum_bounds(A: Union[LinearMap, GramMap, SpectralMap]) -> Tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric map (read off a Gram or spectral map)."""
    if isinstance(A, (GramMap, SpectralMap)):
        return A.spectrum()
    M = A.matrix
    if M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(M).max())):
        raise ValueError("expected a symmetric matrix")
    eigs = np.linalg.eigvalsh(M)
    return float(eigs[0]), float(eigs[-1])


def quadratic(A: Union[LinearMap, SpectralMap], b: np.ndarray) -> ProxFunction:
    """``0.5 x^T A x - b^T x`` with A symmetric positive semidefinite.

    The prox solves with ``I + rho A``, prepared once per ``rho``, which is
    what makes long resolvent iterations cheap: a :class:`SpectralMap` forms
    the dense ``Q diag(1 / (1 + rho w)) Q^T``, so each apply is one GEMV; a
    dense ``LinearMap`` is Cholesky-factored.  The modulus is the smallest
    eigenvalue of ``A``.
    """
    bb = np.asarray(b, dtype=float)

    def prox_map(rho: float) -> Prox:
        rho_b = rho * bb
        if isinstance(A, SpectralMap):
            R = A.resolvent(rho)
            return lambda v, out=None: np.matmul(R, v + rho_b, out=out)
        solve = spd_solver(LinearMap(np.eye(A.rows) + rho * A.matrix))
        return lambda v, out=None: _into(out, solve(v + rho_b))

    return ProxFunction(prox_map, modulus=max(_spectrum_bounds(A)[0], 0.0))


def diagonal_quadratic(diag: np.ndarray, b: np.ndarray) -> ProxFunction:
    """``0.5 x^T diag(d) x - b^T x`` with ``d >= 0``, held by ``d`` alone (no n x n matrix)."""
    d = np.asarray(diag, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("diagonal entries must be >= 0")
    bb = np.asarray(b, dtype=float)

    def prox_map(rho: float) -> Prox:
        rho_b, scale = rho * bb, 1.0 + rho * d

        def solve_diagonal(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
            w = np.add(v, rho_b, out=out)
            return np.divide(w, scale, out=w)

        return solve_diagonal

    return ProxFunction(prox_map, modulus=float(np.min(d)))


def l2_ball(radius: float) -> ProxFunction:
    """Indicator of the origin-centered Euclidean ball of given radius."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    r = float(radius)

    def project(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        nv = norm(v)
        return _into(out, v) if nv <= r else np.multiply(v, r / nv, out=out)

    return ProxFunction(lambda rho: project)


def zero() -> ProxFunction:
    """The identically-zero function (prox = identity)."""
    return ProxFunction(lambda rho: lambda v, out=None: _into(out, v))


def make_prox(f: ProxFunction, rho: float) -> Prox:
    """Specialized closure for ``v -> prox_{rho f}(v)``, built by ``f.prox_map``."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return f.prox_map(rho)


def prox(f: ProxFunction, rho: float, v: np.ndarray) -> np.ndarray:
    """Proximal map: the minimizer of ``f(u) + ||u - v||^2 / (2 rho)``."""
    return make_prox(f, rho)(v)


def make_prox_conjugate(f: ProxFunction, sigma: float) -> Prox:
    """Specialized closure for ``v -> prox_{sigma f*}(v)``.

    ``f.conjugate_map`` builds it where ``f`` has one (the clip of
    :func:`l1`); every function without a closed-form conjugate prox goes
    through Moreau's identity, ``v - sigma * prox_{f/sigma}(v / sigma)``.
    As with :func:`make_prox`, an optional ``out=`` array (``v`` allowed)
    receives the result.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if f.conjugate_map is not None:
        return f.conjugate_map(sigma)
    pf = make_prox(f, 1.0 / sigma)

    def moreau(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        scaled = v / sigma
        scaled = pf(scaled, out=scaled)
        return np.subtract(v, np.multiply(sigma, scaled, out=scaled), out=out)

    return moreau


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
    notes: Tuple[str, ...] = field(default_factory=tuple)
    exact_zeros: bool = True


def _forward_step(A: Union[LinearMap, GramMap, SpectralMap],
                  rho: float) -> Tuple[float, float, Optional[float]]:
    """``(mu, L, beta)`` of a smooth quadratic with Hessian ``A``, once ``rho``
    is checked as a forward step on it.

    With ``L`` the largest eigenvalue of ``A`` the gradient ``x -> A x - b``
    is ``beta = 1/L``-cocoercive and ``rho`` must lie in ``(0, 2 beta)``; at
    ``L = 0`` it is a translation, any ``rho > 0`` is admitted and ``beta``
    is None.  ``mu`` is the smallest eigenvalue.
    """
    mu, L = _spectrum_bounds(A)
    if L > 0:
        beta = 1.0 / L
        if not 0.0 < rho < 2.0 * beta:
            raise ValueError(f"rho must lie in (0, {2.0 * beta:.6g})")
        return mu, L, beta
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return mu, L, None


def gradient_step_op(A_spd: Union[LinearMap, SpectralMap], b: np.ndarray,
                     rho: float) -> OperatorHandle:
    """Explicit gradient step ``x -> x - rho (A x - b)`` on a quadratic.

    Averagedness is ``rho * L / 2`` (cocoercivity ``beta = 1/L``); the
    quasi-contraction factor is the spectral value ``max |1 - rho * eig|``,
    attached only when it is strictly below one.
    """
    mu, L, beta = _forward_step(A_spd, rho)
    if beta is None:
        raise ValueError("A must have a positive largest eigenvalue")
    q = max(abs(1.0 - rho * mu), abs(1.0 - rho * L))
    M, bb = A_spd.matrix, np.asarray(b, dtype=float)

    def apply(x: np.ndarray) -> np.ndarray:
        return x - rho * (M @ x - bb)

    return OperatorHandle(
        apply=apply,
        gamma=rho * L / 2.0,
        q_factor=q if q < 1.0 else None,
        beta=beta,
        extract_solution=lambda x: x,
        exact_zeros=False,
    )


def proximal_op(f: ProxFunction, rho: float) -> OperatorHandle:
    """Resolvent iteration map ``x -> prox_{rho f}(x)`` (1/2-averaged).

    For a ``mu``-strongly convex ``f`` the prox is a ``1/(1 + rho mu)``
    contraction, attached as ``q_factor``.
    """
    return OperatorHandle(
        apply=make_prox(f, rho),
        gamma=0.5,
        q_factor=1.0 / (1.0 + rho * f.modulus) if f.modulus > 0 else None,
        extract_solution=lambda x: x,
        exact_zeros=f.exact_zeros,
    )


def forward_backward_op(
    f_nonsmooth: ProxFunction, A_spd: Union[LinearMap, GramMap], b: np.ndarray, rho: float
) -> OperatorHandle:
    """Forward-backward map ``x -> prox_{rho f}(x - rho (A x - b))``.

    With ``L`` the largest eigenvalue of ``A`` the forward term is
    ``1/L``-cocoercive and the composition is ``2/(4 - rho L)``-averaged; a
    vanishing smooth term (A = 0) leaves a prox after a translation, which is
    firmly nonexpansive, and the formula gives its 1/2.
    """
    _, L, beta = _forward_step(A_spd, rho)
    p = make_prox(f_nonsmooth, rho)
    A_apply, bb = A_spd.apply, np.asarray(b, dtype=float)

    def apply(x: np.ndarray) -> np.ndarray:
        return p(x - rho * (A_apply(x) - bb))

    return OperatorHandle(
        apply=apply,
        gamma=2.0 / (4.0 - rho * L),
        beta=beta,
        extract_solution=lambda x: x,
        exact_zeros=f_nonsmooth.exact_zeros,
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
        exact_zeros=fA.exact_zeros or fB.exact_zeros,
    )


def _coupled_parts(f: ProxFunction, g: ProxFunction, L: Union[LinearMap, DifferenceMap],
                   tau: float, sigma: float) -> Tuple[Prox, Prox, int, dict]:
    """``prox_{tau f}``, ``prox_{sigma g*}``, ``n = L.cols`` and the handle
    fields ``primal_dual_op`` and ``split_dr_op`` share.

    Requires ``tau * sigma * ||L||^2 <= 1`` against the certified upper bound
    ``L.norm_upper()``; a power-iteration estimate approaches ``||L||`` from
    below, so steps set from it could violate the true bound.  Both maps are
    declared 1/2-averaged in a step-induced metric, and the primal block
    ``p[..., :n]`` of a fixed point (or of a stack of points) is the solution.
    A Moreau-form conjugate prox can cancel to an exact zero; the clip cannot.
    """
    if tau <= 0 or sigma <= 0:
        raise ValueError("tau and sigma must be > 0")
    upper = L.norm_upper()
    if tau * sigma * upper * upper > 1.0 + 1e-12:
        raise ValueError(f"step bound violated: tau*sigma*||L||^2 may reach "
                         f"{tau * sigma * upper * upper:.6g} > 1 (||L|| <= {upper:.6g})")
    n = L.cols
    fields = dict(gamma=0.5, extract_solution=lambda p: p[..., :n],
                  exact_zeros=f.exact_zeros or g.conjugate_map is None)
    return make_prox(f, tau), make_prox_conjugate(g, sigma), n, fields


def primal_dual_op(
    f: ProxFunction, g: ProxFunction, L: Union[LinearMap, DifferenceMap], tau: float,
    sigma: float
) -> OperatorHandle:
    """One sweep of primal-dual splitting for ``min f(x) + g(L x)``.

    A point is the flat array ``p = [x; y]`` of length ``L.cols + L.rows``.
    Updates ``x+ = prox_{tau f}(x - tau L^T y)`` then ``y+ =
    prox_{sigma g*}(y + sigma L (2 x+ - x))`` and returns ``[x+; y+]`` as a
    new array, both blocks written in place with ``out=`` ufuncs and one
    scratch vector; ``p`` is never written.  Requires ``tau * sigma *
    ||L||^2 <= 1``, and is 1/2-averaged on the product space in the
    step-induced metric (see :func:`_coupled_parts`).
    """
    pf, pg_conj, n, fields = _coupled_parts(f, g, L, tau, sigma)

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
        notes=("averagedness 1/2 holds in the step-induced product metric",),
        **fields,
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
    Requires ``tau * sigma * ||L||^2 <= 1``; averagedness 1/2 is assumed in
    the preconditioned metric, flagged in ``notes`` (see
    :func:`_coupled_parts`).
    """
    pf, pg_conj, n, fields = _coupled_parts(f, g, L, tau, sigma)

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
        notes=("averagedness 1/2 assumed in the scalar-preconditioned metric",),
        **fields,
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
    _, L_sm, beta = _forward_step(A_spd, rho)
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
        exact_zeros=fA.exact_zeros or fB.exact_zeros,
    )
