"""Dense real linear algebra shared by every other module.

Points of the base space are 1-D float64 numpy arrays; points of a product
space (primal x dual) are :class:`BlockVector`. Everything here is a pure
function of its inputs: reductions go through a single NumPy build in a fixed
order, so repeated calls are bit-reproducible within one installation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .rng import SplitMix64

__all__ = [
    "BlockVector",
    "LinearMap",
    "Point",
    "combine",
    "dot",
    "flush_subnormals",
    "norm",
    "operator_norm_estimate",
    "solve_spd",
    "spd_solver",
]


@dataclass(frozen=True)
class BlockVector:
    """Point (primal, dual) of a product space X x Y."""

    primal: np.ndarray
    dual: np.ndarray

    def __add__(self, other: "BlockVector") -> "BlockVector":
        return BlockVector(self.primal + other.primal, self.dual + other.dual)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        return BlockVector(self.primal - other.primal, self.dual - other.dual)

    def __mul__(self, s: float) -> "BlockVector":
        return BlockVector(self.primal * s, self.dual * s)

    __rmul__ = __mul__

    @property
    def dim(self) -> int:
        return self.primal.size + self.dual.size


Point = Union[np.ndarray, BlockVector]


def dot(a: Point, b: Point) -> float:
    """Euclidean inner product (block-wise for product-space points)."""
    if isinstance(a, BlockVector) or isinstance(b, BlockVector):
        return dot(a.primal, b.primal) + dot(a.dual, b.dual)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def norm(a: Point) -> float:
    """Euclidean norm, ``sqrt(dot(a, a))``."""
    return dot(a, a) ** 0.5


def combine(a: Point, s: float, b: Point, t: float) -> Point:
    """Affine combination ``s*a + t*b``."""
    if isinstance(a, BlockVector):
        return BlockVector(
            combine(a.primal, s, b.primal, t), combine(a.dual, s, b.dual, t)
        )
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return s * a + t * b


def is_finite(a: Point) -> bool:
    if isinstance(a, BlockVector):
        return bool(np.all(np.isfinite(a.primal)) and np.all(np.isfinite(a.dual)))
    return bool(np.all(np.isfinite(a)))


_TINY = np.finfo(float).tiny


def flush_subnormals(a: Point) -> Point:
    """Zero, in place, every entry of ``a`` with ``|a_i| < tiny`` and return ``a``.

    Only for arrays the caller has just formed and owns: subnormal operands
    make every later matvec on the point many times slower.
    """
    if isinstance(a, BlockVector):
        flush_subnormals(a.primal)
        flush_subnormals(a.dual)
    else:
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.matrix.T @ y


def operator_norm_estimate(L: LinearMap, iters: int = 200, seed: int = 0) -> float:
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


def solve_spd(M: LinearMap, b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` for symmetric positive definite ``M`` (Cholesky)."""
    return spd_solver(M)(b)


def spd_solver(M: LinearMap) -> Callable[[np.ndarray], np.ndarray]:
    """Prefactored SPD solver; raises ``ValueError`` if ``M`` is not SPD."""
    A = M.matrix
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    try:
        factor = cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        return cho_solve(factor, b)

    return solve
