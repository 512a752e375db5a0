"""Real linear algebra shared by every other module.

Every point is a 1-D float64 numpy array; a point of a product space
``X x Y`` is the concatenation ``[x; y]``. Linear maps are either dense
(:class:`LinearMap`, a stored matrix) or structured
(:class:`DifferenceMap`, forward differences applied in O(n) with no
matrix); both expose ``rows``, ``cols``, ``apply``, ``apply_adjoint`` (each
writes into an ``out=`` array when given one) and a certified upper bound
``norm_upper()`` on the operator norm.  The SPD map
``K^T K`` of a least-squares term is a :class:`GramMap`, held by its m x n
factor ``K``: it applies ``K^T (K x)`` and stores no n x n Gram; its
spectrum comes from one eigendecomposition of the smaller of ``K K^T`` and
``K^T K``, formed for it and dropped, cached on the map.  A symmetric map
whose eigendecomposition is known is a :class:`SpectralMap` of ``(Q, w)``:
its spectrum, solves and resolvents come from ``Q`` and ``w`` with no
factorization.  Cholesky (SciPy) serves only :func:`spd_solver` on a
dense :class:`LinearMap`: ``scipy.linalg`` loads on the first such
solve, so a process that makes none never loads it.  Everything here
is a pure function of its inputs: reductions go through a single NumPy
build in a fixed order, so repeated calls are bit-reproducible within one
installation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy

from .rng import SplitMix64

__all__ = [
    "DifferenceMap",
    "GramMap",
    "LinearMap",
    "SpectralMap",
    "flush_subnormals",
    "norm",
    "operator_norm_estimate",
    "solve_spd",
    "spd_solver",
]


def norm(a: np.ndarray) -> float:
    """Euclidean norm, ``np.dot(a, a) ** 0.5`` (no shape check)."""
    return float(np.dot(a, a)) ** 0.5


def is_finite(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a)))


_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Zero, in place, every entry of ``a`` with ``|a_i| < tiny`` and return ``a``.

    Only for arrays the caller has just formed and owns: subnormal operands
    make every later matvec on the point many times slower.
    """
    a[np.abs(a) < _TINY] = 0.0
    return a


@dataclass(frozen=True)
class LinearMap:
    """Dense linear operator between finite-dimensional spaces."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("LinearMap expects a 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(self.matrix, x, out=out)

    def apply_adjoint(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(self.matrix.T, y, out=out)

    def norm_upper(self) -> float:
        """Schur's bound ``sqrt(||L||_1 ||L||_inf)`` on the operator norm.

        The factor covers the rounding of the two absolute sums.
        """
        a = np.abs(self.matrix)
        one, inf = float(a.sum(axis=0).max()), float(a.sum(axis=1).max())
        return math.sqrt(one * inf) * (1.0 + (self.rows + self.cols) * _EPS)


class DifferenceMap:
    """Forward differences ``(D x)_i = x_{i+1} - x_i``, an (n-1) x n map.

    Held without a matrix: ``apply`` and ``apply_adjoint`` cost O(n).  Each
    output entry is one subtraction (or a negation), so both agree bit for
    bit with the dense +-1 bidiagonal matrix times the same vector, up to the
    sign of a zero.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("DifferenceMap needs n >= 2")
        self.n = n

    @property
    def rows(self) -> int:
        return self.n - 1

    @property
    def cols(self) -> int:
        return self.n

    def apply(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``D x``; a stack of points along the last axis gives the stack of images."""
        return np.subtract(x[..., 1:], x[..., :-1], out=out)

    def apply_adjoint(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.n)
        out[0] = -y[0]
        np.subtract(y[:-1], y[1:], out=out[1:-1])
        out[-1] = y[-1]
        return out

    def norm_upper(self) -> float:
        """``||D|| = 2 cos(pi / (2n))``, rounded up.

        ``D D^T`` is the (n-1) x (n-1) tridiagonal matrix with 2 on the
        diagonal and -1 beside it, whose largest eigenvalue is
        ``2 + 2 cos(pi / n) = 4 cos^2(pi / (2n))``.  The factor lifts the
        few-ulp error of the rounded argument and of ``cos`` above the exact
        value.
        """
        return 2.0 * math.cos(math.pi / (2 * self.n)) * (1.0 + 4.0 * _EPS)


class GramMap:
    """The SPD map ``K^T K`` (n x n) held by its m x n factor ``K``.

    ``apply(x)`` is ``K.T @ (K @ x)``, which reads ``2mn`` doubles and forms
    no n x n array.
    """

    __slots__ = ("factor", "_spectrum")

    def __init__(self, K: np.ndarray):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2:
            raise ValueError("GramMap expects a 2-D factor")
        if not np.all(np.isfinite(K)):
            raise ValueError("factor has non-finite entries")
        self.factor = K
        self._spectrum: Optional[Tuple[float, float]] = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.factor.T @ (self.factor @ x)

    def spectrum(self) -> Tuple[float, float]:
        """``(mu, L)``: smallest (clipped at 0) and largest eigenvalue of ``K^T K``.

        One ``eigvalsh`` of the smaller symmetrized Gram ``0.5 (G + G^T)``,
        made on the first call and cached; the Gram is formed for it and
        dropped.  ``G`` is the m x m ``K K^T`` when ``m < n`` and the n x n
        ``K^T K`` otherwise: the nonzero eigenvalues of the two are the same
        (Golub & Van Loan, *Matrix Computations*, 8.6), so ``L`` agrees with
        the n x n decomposition up to rounding (a few ulps), at a fraction of
        its memory and time.  ``mu`` is 0 when ``m < n``, where ``K^T K`` is
        singular.
        """
        if self._spectrum is None:
            m, n = self.factor.shape
            K = self.factor
            G = K @ K.T if m < n else K.T @ K
            G += G.T
            G *= 0.5
            eigs = np.linalg.eigvalsh(G)
            mu = 0.0 if m < n else max(float(eigs[0]), 0.0)
            self._spectrum = (mu, float(eigs[-1]))
        return self._spectrum


class SpectralMap:
    """The symmetric map ``Q diag(w) Q^T`` (n x n) held by its eigendecomposition.

    ``Q`` is orthogonal and ``w`` holds the eigenvalues.  ``matrix`` is the
    dense symmetrized ``0.5 (A + A^T)`` of ``A = Q diag(w) Q^T``: ``apply``
    is one GEMV on it, which beats the two of ``Q (w * (Q^T x))``.  The
    spectrum, solves and resolvents read ``(Q, w)`` and factor nothing
    (Golub & Van Loan, *Matrix Computations*, 8.1).
    """

    __slots__ = ("Q", "w", "matrix")

    def __init__(self, Q: np.ndarray, w):
        Q, w = np.asarray(Q, dtype=float), np.asarray(w, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or w.shape != Q.shape[:1]:
            raise ValueError("SpectralMap expects an n x n Q and n eigenvalues")
        A = Q @ np.diag(w) @ Q.T
        self.Q, self.w, self.matrix = Q, w, 0.5 * (A + A.T)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def spectrum(self) -> Tuple[float, float]:
        """``(min w, max w)``."""
        return float(self.w.min()), float(self.w.max())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``Q ((Q^T b) / w)``; every ``w`` must be nonzero."""
        return self.Q @ ((self.Q.T @ b) / self.w)

    def resolvent(self, rho: float) -> np.ndarray:
        """The dense matrix ``(I + rho A)^{-1} = Q diag(1 / (1 + rho w)) Q^T``."""
        return (self.Q * (1.0 / (1.0 + rho * self.w))) @ self.Q.T


def operator_norm_estimate(L: Union[LinearMap, DifferenceMap], iters: int = 200,
                           seed: int = 0) -> float:
    """Largest singular value of ``L`` by power iteration on ``L^T L``.

    The returned value is ``||L v||`` for a unit vector ``v``, hence a lower
    bound on the true operator norm that converges to it from below.  The
    start vector is drawn from a :class:`SplitMix64` stream, so the estimate
    is a pure function of ``(L, iters, seed)``.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    gen = SplitMix64(seed)
    v = gen.normals(L.cols)
    nv = norm(v)
    if nv == 0.0:  # astronomically unlikely; keep deterministic anyway
        v[0] = 1.0
        nv = 1.0
    v = v / nv
    est = 0.0
    for _ in range(iters):
        w = L.apply_adjoint(L.apply(v))
        nw = norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        est = norm(L.apply(v))
    return est


def solve_spd(M: Union[LinearMap, SpectralMap], b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` for symmetric positive definite ``M`` (see :func:`spd_solver`)."""
    return spd_solver(M)(b)


def spd_solver(M: Union[LinearMap, SpectralMap]) -> Callable[[np.ndarray], np.ndarray]:
    """Prefactored SPD solver; raises ``ValueError`` if ``M`` is not SPD.

    A :class:`SpectralMap` solves from its eigendecomposition; a dense
    :class:`LinearMap` is Cholesky-factored once by ``scipy.linalg``, which
    SciPy's lazy submodule loading imports on the first such call.
    """
    if isinstance(M, SpectralMap):
        if M.spectrum()[0] <= 0.0:
            raise ValueError("matrix is not positive definite")
        return M.solve
    A = M.matrix
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    try:
        factor = scipy.linalg.cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(factor, b)

    return solve
