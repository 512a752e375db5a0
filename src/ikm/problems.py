"""Deterministic desk-scale benchmark instances with reference solutions.

Every generator is a pure function of its parameters and seed (randomness
comes from the SplitMix64 stream documented in :mod:`ikm.rng`), so instances
are bit-reproducible.  References are exact where the problem allows: the
quadratic's is a solve through the eigendecomposition it is drawn from
(:class:`ikm.linalg.SpectralMap`), tv1d's a direct (finite-step) solve of the
denoising problem with its dual in closed form, and the feasibility one is
known by construction.  The lasso and three-term references come from a
non-inertial Picard run to residual 1e-12, which certifies them, at the step
``1/L`` from one eigendecomposition of the smaller Gram of the design
(:meth:`ikm.linalg.GramMap.spectrum`); a run that misses 1e-12 raises
:class:`ReferenceNotConverged`.  An instance has one start point and one
reference, solved on its first read, so a caller that needs none (``ikm
sweep``) pays none; the Davis-Yin fixed point at another step comes from it
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .engine import ReferenceNotConverged, picard
from .linalg import DifferenceMap, GramMap, SpectralMap, norm, operator_norm_estimate, solve_spd
from .operators import (
    OperatorHandle,
    box,
    davis_yin_op,
    diagonal_quadratic,
    douglas_rachford_op,
    forward_backward_op,
    gradient_step_op,
    l1,
    l2_ball,
    prox,
    primal_dual_op,
    proximal_op,
    quadratic,
    split_dr_op,
)
from .rng import SplitMix64

__all__ = [
    "BenchmarkInstance",
    "ReferenceNotConverged",
    "make_feasibility",
    "make_lasso",
    "make_quadratic",
    "make_three_term",
    "make_tv1d",
]

REFERENCE_TOL = 1e-12
REFERENCE_CAP = 1_000_000


@dataclass
class BenchmarkInstance:
    """One benchmark problem with scheme builders and reference data.

    ``builders`` maps a scheme name to a closure over step parameters, and
    every scheme starts at ``start``.  ``objective`` maps a point to its
    value, or a stack of points along the last axis to one value per point,
    with the bits of per-point calls.  ``solve_reference`` returns
    ``(fixed_point, solution)``: the fixed point every scheme shares at its
    default steps and the minimizer it gives.  It runs on the first read of
    :meth:`fixed_point` or :attr:`reference_solution`, and its result is
    kept.  Where the fixed point moves with the steps, ``fixed_at(z, x,
    **steps)`` maps that pair to the fixed point at the given steps.
    """

    kind: str
    objective: Optional[Callable[[np.ndarray], np.ndarray]]
    default_steps: Dict[str, Dict[str, float]]
    builders: Dict[str, Callable[..., OperatorHandle]] = field(repr=False)
    start: np.ndarray = field(repr=False)
    solve_reference: Callable[[], Tuple[np.ndarray, np.ndarray]] = field(repr=False)
    fixed_at: Optional[Callable[..., np.ndarray]] = field(repr=False, default=None)
    _reference: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default=None)

    def _solved_reference(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._reference is None:
            self._reference = self.solve_reference()
        return self._reference

    @property
    def reference_solution(self) -> np.ndarray:
        """The reference minimizer, solved on the first read."""
        return self._solved_reference()[1]

    @property
    def schemes(self) -> Tuple[str, ...]:
        return tuple(self.builders)

    def resolve_steps(self, scheme: str, **steps) -> Dict[str, float]:
        if scheme not in self.builders:
            raise ValueError(f"{self.kind} does not support scheme {scheme!r}")
        resolved = dict(self.default_steps[scheme])
        for key, val in steps.items():
            if val is not None:
                if key not in resolved:
                    raise ValueError(f"scheme {scheme!r} takes no parameter {key!r}")
                resolved[key] = float(val)
        return resolved

    def operator(self, scheme: str, **steps) -> OperatorHandle:
        resolved = self.resolve_steps(scheme, **steps)
        return self.builders[scheme](**resolved)

    def start_point(self, scheme: str) -> np.ndarray:
        self.resolve_steps(scheme)
        return self.start

    def fixed_point(self, scheme: str, **steps) -> np.ndarray:
        """Reference fixed point for the scheme at the given steps, from the
        one solved reference."""
        resolved = self.resolve_steps(scheme, **steps)
        z, x = self._solved_reference()
        return z if self.fixed_at is None else self.fixed_at(z, x, **resolved)


# --------------------------------------------------------------------------
# shared random pieces


def _picard_reference(kind: str, T: OperatorHandle, x0: np.ndarray) -> np.ndarray:
    """Fixed point of ``T`` by a Picard run to ``REFERENCE_TOL``.

    ``picard`` is looked up in this module when the run is made, so a
    wrapper installed on ``problems.picard`` sees every reference run.
    """
    run = picard(T, x0, REFERENCE_TOL, REFERENCE_CAP)
    if run.status == "diverged":
        raise ReferenceNotConverged(f"{kind} reference run diverged")
    if run.status != "converged":
        raise ReferenceNotConverged(f"{kind} reference run did not reach {REFERENCE_TOL:g} "
                                    f"in {REFERENCE_CAP} steps")
    return run.xs[0]


def _orthogonal(gen: SplitMix64, n: int) -> np.ndarray:
    M = gen.normals(n * n).reshape(n, n)
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diagonal(R))


def _sensing_data(m: int, n: int, sparsity: float, seed: int):
    """Design matrix, planted sparse truth and noisy observations."""
    if m < 2 or n < 2:
        raise ValueError("m and n must be >= 2")
    if not 0.0 < sparsity < 1.0:
        raise ValueError("sparsity must lie in (0, 1)")
    gen = SplitMix64(seed)
    A = gen.normals(m * n).reshape(m, n)
    A /= math.sqrt(m)
    k_nz = max(1, round(sparsity * n))
    idx = list(range(n))
    gen.shuffle(idx)
    truth = np.zeros(n)
    truth[idx[:k_nz]] = gen.normals(k_nz)
    clean = A @ truth
    level = 0.01 * (clean.max() - clean.min())  # 1% of signal range
    b = clean + level * gen.normals(m)
    return A, b, truth


def _tv1d_saddle(b: np.ndarray, mu: float) -> np.ndarray:
    """Exact saddle point ``[x*; y*]`` of ``0.5 ||x - b||^2 + mu ||D x||_1``.

    The primal is Condat's direct algorithm (L. Condat, "A Direct Algorithm
    for 1-D Total Variation Denoising", IEEE Signal Processing Letters
    20(11), 2013).  One left-to-right scan grows the current constant
    segment while the running dual stays inside ``[-mu, mu]``;
    ``vmin``/``vmax`` bound the segment's value and ``umin``/``umax`` are the
    dual values they imply at sample ``k``.  When a bound is violated the
    segment is emitted up to the last position where that bound was tight
    (``kminus``/``kplus``) and the scan restarts there.  Worst case O(n^2),
    linear in practice.

    ``D^T y = b - x*`` then has the unique solution
    ``y_i = -sum_{j<=i} (b - x*)_j``; the clip only removes rounding beyond
    the dual box ``|y| <= mu``.
    """
    obs = b.tolist()
    n = len(obs)
    x = [0.0] * n
    k = k0 = kminus = kplus = 0
    vmin, vmax = obs[0] - mu, obs[0] + mu
    umin, umax = mu, -mu
    while True:
        while k == n - 1:  # right boundary: the dual must end at zero
            if umin < 0.0:  # vmin too high, a negative jump ends the segment
                x[k0:kminus + 1] = [vmin] * (kminus + 1 - k0)
                k = k0 = kminus = kminus + 1
                vmin, umin = obs[k], mu
                umax = vmin + umin - vmax
            elif umax > 0.0:  # vmax too low, a positive jump ends the segment
                x[k0:kplus + 1] = [vmax] * (kplus + 1 - k0)
                k = k0 = kplus = kplus + 1
                vmax, umax = obs[k], -mu
                umin = vmax + umax - vmin
            else:
                vmin += umin / (k - k0 + 1)
                x[k0:] = [vmin] * (n - k0)
                x_star = np.array(x)
                return np.concatenate((x_star, np.clip(np.cumsum(x_star - b)[:-1], -mu, mu)))
        umin += obs[k + 1] - vmin
        if umin < -mu:  # negative jump
            x[k0:kminus + 1] = [vmin] * (kminus + 1 - k0)
            k = k0 = kminus = kplus = kminus + 1
            vmin = obs[k]
            vmax = vmin + 2.0 * mu
            umin, umax = mu, -mu
            continue
        umax += obs[k + 1] - vmax
        if umax > mu:  # positive jump
            x[k0:kplus + 1] = [vmax] * (kplus + 1 - k0)
            k = k0 = kminus = kplus = kplus + 1
            vmax = obs[k]
            vmin = vmax - 2.0 * mu
            umin, umax = mu, -mu
            continue
        k += 1  # no jump: sample k joins the segment
        if umin >= mu:
            kminus = k
            vmin += (umin - mu) / (k - k0 + 1)
            umin = mu
        if umax <= -mu:
            kplus = k
            vmax += (umax + mu) / (k - k0 + 1)
            umax = -mu


# --------------------------------------------------------------------------
# generators


def make_quadratic(dim: int, mu: float, L: float, seed: int) -> BenchmarkInstance:
    """Strongly convex quadratic ``0.5 x^T A x - b^T x`` with known spectrum.

    Eigenvalues ``w`` are drawn uniformly in [mu, L] with both extremes
    always present, then conjugated by a random orthogonal ``Q``; ``A`` is
    the :class:`SpectralMap` of ``(Q, w)``, so the operators read ``(mu, L)``
    off ``w`` and the reference is the direct solve ``Q ((Q^T b) / w)`` of
    ``A x = b``.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not 0.0 < mu <= L:
        raise ValueError("need 0 < mu <= L")
    gen = SplitMix64(seed)
    eigs = [mu, L] + [gen.uniform_in(mu, L) for _ in range(dim - 2)]
    Q = _orthogonal(gen, dim)
    A_map = SpectralMap(Q, eigs)
    A = A_map.matrix
    b = gen.normals(dim)
    x0 = gen.normals(dim)
    ref = solve_spd(A_map, b)

    def objective(x: np.ndarray):
        # x @ A as one GEMV per point and np.vecdot for the dots: a stack
        # gets the bits of per-point calls
        xA = np.matmul(x[..., None, :], A)[..., 0, :]
        return 0.5 * np.vecdot(xA, x) - np.vecdot(x, b)

    rho_grad = 2.0 / (mu + L)
    f_quad = quadratic(A_map, b)
    builders = {
        "gradient": lambda rho: gradient_step_op(A_map, b, rho),
        "proximal": lambda rho: proximal_op(f_quad, rho),
    }
    return BenchmarkInstance(
        kind="quadratic",
        objective=objective,
        default_steps={"gradient": {"rho": rho_grad}, "proximal": {"rho": 1.0}},
        builders=builders,
        start=x0,
        solve_reference=lambda: (ref, ref),
    )


def make_lasso(m: int, n: int, sparsity: float, mu_reg: float, seed: int) -> BenchmarkInstance:
    """LASSO instance ``0.5 ||A x - b||^2 + mu ||x||_1``.

    The smooth term's Hessian ``A^T A`` is a :class:`GramMap` of the m x n
    design: each forward step applies ``A^T (A x)`` and no n x n array is
    kept.  The default step ``rho = 1/L`` comes from its one cached
    eigendecomposition, of the m x m ``A A^T`` when ``m < n``, which the
    operator builds reuse.  The reference is a non-inertial
    forward-backward run at ``rho = 1/L`` to residual 1e-12 (cap 1e6
    iterations; :class:`ReferenceNotConverged` if it is not reached), made
    on the first read of the reference; its fixed-point residual certifies
    optimality for any admissible step size.
    """
    if mu_reg <= 0.0:
        raise ValueError("mu_reg must be > 0")
    A, b, _ = _sensing_data(m, n, sparsity, seed)
    gram_map = GramMap(A)
    atb = A.T @ b
    L_s = gram_map.spectrum()[1]
    x0 = np.zeros(n)

    def build_fb(rho: float) -> OperatorHandle:
        return forward_backward_op(l1(mu_reg), gram_map, atb, rho)

    rho_default = 1.0 / L_s

    def solve_reference():
        ref = _picard_reference("lasso", build_fb(rho_default), x0)
        return ref, ref

    def objective(x: np.ndarray):
        r = np.matmul(A, x[..., :, None])[..., 0] - b
        return 0.5 * np.vecdot(r, r) + mu_reg * np.abs(x).sum(axis=-1)

    return BenchmarkInstance(
        kind="lasso",
        objective=objective,
        default_steps={"fb": {"rho": rho_default}},
        builders={"fb": build_fb},
        start=x0,
        solve_reference=solve_reference,
    )


def make_tv1d(n: int, mu_reg: float, seed: int) -> BenchmarkInstance:
    """1-D total-variation denoising ``0.5 ||x - b||^2 + mu ||D x||_1``.

    ``D`` is the (n-1) x n forward-difference map, held as a
    :class:`DifferenceMap` (no matrix, O(n) applies, norm ``2 cos(pi/(2n))``),
    and the data term is a diagonal quadratic held by its diagonal, so the
    instance stores no n x n array and each operator apply costs O(n).  The
    default steps are ``tau = sigma = 0.99 / est`` with ``est`` the power
    estimate of ``||D||``; the operators check them against the closed-form
    norm.  Both schemes iterate on the flat array
    ``[x; y]`` of length ``2n - 1`` (primal ``x``, then dual ``y``) and
    start at zero.  The primal-dual and the split Douglas-Rachford builders
    target the same saddle point, so the one reference fixed point is
    valid for either scheme at any admissible step sizes.  The saddle point
    is exact: the primal by Condat's direct algorithm, the dual from
    ``D^T y = b - x*``, which has one solution because ``D^T`` is
    injective.  It works at every ``n``, and ``mu_reg = 0`` gives back
    ``[b; 0]``.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if mu_reg < 0.0:
        raise ValueError("mu_reg must be >= 0")
    gen = SplitMix64(seed)
    n_seg = 5
    levels = [gen.uniform_in(-1.0, 1.0) for _ in range(n_seg)]
    signal = np.empty(n)
    seg = n // n_seg
    for i in range(n_seg):
        end = n if i == n_seg - 1 else (i + 1) * seg
        signal[i * seg:end] = levels[i]
    level = 0.01 * (signal.max() - signal.min())
    b = signal + level * gen.normals(n)

    D_map = DifferenceMap(n)
    norm_L = operator_norm_estimate(D_map)

    f = diagonal_quadratic(np.ones(n), b)
    g = l1(mu_reg)
    tau = sigma = 0.99 / norm_L

    builders = {
        "pd": lambda tau, sigma: primal_dual_op(f, g, D_map, tau, sigma),
        "sdr": lambda tau, sigma: split_dr_op(f, g, D_map, tau, sigma),
    }
    defaults = {"pd": {"tau": tau, "sigma": sigma}, "sdr": {"tau": tau, "sigma": sigma}}

    saddle = _tv1d_saddle(b, mu_reg)

    def objective(x: np.ndarray):
        r = x - b
        return 0.5 * np.vecdot(r, r) + mu_reg * np.abs(D_map.apply(x)).sum(axis=-1)

    return BenchmarkInstance(
        kind="tv1d",
        objective=objective,
        default_steps=defaults,
        builders=builders,
        start=np.zeros(2 * n - 1),
        solve_reference=lambda: (saddle, saddle[:n]),
    )


def make_three_term(m: int, n: int, mu_reg: float, box_lo: float, box_hi: float,
                    seed: int, sparsity: float = 0.1) -> BenchmarkInstance:
    """Box-constrained LASSO split into three terms for Davis-Yin.

    Data generation consumes the same random stream as :func:`make_lasso`,
    so equal (m, n, sparsity, seed) yield the identical design and
    observations, and the smooth term is the same :class:`GramMap` of the
    design (``A^T (A x)`` per step, no n x n array kept), with the same
    ``L`` from the smaller Gram.  The reference ``z0`` is a Picard run at
    the default ``rho0 = 1/L``, made on the first read of the reference
    (:class:`ReferenceNotConverged` if it does not reach 1e-12), and gives
    ``x* = prox(z0)``.  The fixed point at any rho is ``x* + rho v*`` with
    ``v* = (z0 - x*) / rho0`` the l1 subgradient at ``x*`` (Davis and Yin,
    Set-Valued Var. Anal. 25, 2017), and ``z0`` itself at ``rho0``.
    """
    if box_lo >= box_hi:
        raise ValueError("need box_lo < box_hi")
    A, b, _ = _sensing_data(m, n, sparsity, seed)
    gram_map = GramMap(A)
    atb = A.T @ b
    L_s = gram_map.spectrum()[1]
    fB = l1(mu_reg)
    fA = box(box_lo, box_hi)
    lo_arr, hi_arr = np.asarray(box_lo, dtype=float), np.asarray(box_hi, dtype=float)

    def build_dy(rho: float) -> OperatorHandle:
        return davis_yin_op(fB, fA, gram_map, atb, rho)

    rho_default = 1.0 / L_s
    z0 = np.zeros(n)

    def solve_reference():
        z_star = _picard_reference("three_term", build_dy(rho_default), z0)
        return z_star, prox(fB, rho_default, z_star)

    def fixed_at(z_star, x_star, rho):
        return z_star if rho == rho_default else x_star + rho * (z_star - x_star) / rho_default

    def objective(x: np.ndarray):
        # evaluated on the box projection so near-feasible iterates report
        # a finite value
        xp = np.clip(x, lo_arr, hi_arr)
        r = np.matmul(A, xp[..., :, None])[..., 0] - b
        return 0.5 * np.vecdot(r, r) + mu_reg * np.abs(xp).sum(axis=-1)

    return BenchmarkInstance(
        kind="three_term",
        objective=objective,
        default_steps={"dy": {"rho": rho_default}},
        builders={"dy": build_dy},
        start=z0,
        solve_reference=solve_reference,
        fixed_at=fixed_at,
    )


def make_feasibility(dim: int, seed: int) -> BenchmarkInstance:
    """Two-set feasibility: an origin-centered ball against a shifted box.

    The sets are built so the origin lies well inside the intersection; it
    is therefore an exact fixed point of the Douglas-Rachford map for every
    step size and serves as the reference.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    gen = SplitMix64(seed)
    c = gen.normals(dim)
    c *= 0.5 / max(norm(c), 1e-12)  # ||c||_inf <= 0.5, so 0 stays inside the box
    fB = l2_ball(0.8)
    fA = box(c - 1.0, c + 1.0)

    def build_dr(r: float) -> OperatorHandle:
        return douglas_rachford_op(fA, fB, r)

    z0 = 3.0 * gen.normals(dim)
    ref = np.zeros(dim)
    return BenchmarkInstance(
        kind="feasibility",
        objective=None,
        default_steps={"dr": {"r": 1.0}},
        builders={"dr": build_dr},
        start=z0,
        solve_reference=lambda: (ref, ref),
    )
