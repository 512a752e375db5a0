import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ikm
from ikm.linalg import (
    DifferenceMap,
    GramMap,
    LinearMap,
    SpectralMap,
    norm,
    operator_norm_estimate,
    solve_spd,
)
from ikm.operators import make_prox, quadratic
from ikm.problems import _orthogonal, make_quadratic
from ikm.rng import SplitMix64


def rand_vec(gen, n):
    return np.array([gen.normal() for _ in range(n)])


def test_dot_orthogonal_and_definition():
    assert np.dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert np.dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_dot_positivity_on_random_vectors():
    gen = SplitMix64(1)
    for _ in range(50):
        x = rand_vec(gen, 17)
        assert np.dot(x, x) >= 0.0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        np.dot(np.zeros(3), np.zeros(4))


def test_norm_examples_and_homogeneity():
    assert norm(np.array([3.0, 4.0])) == 5.0
    assert norm(np.zeros(6)) == 0.0
    gen = SplitMix64(2)
    for _ in range(50):
        x = rand_vec(gen, 9)
        s = gen.uniform_in(-5.0, 5.0)
        assert norm(s * x) == pytest.approx(abs(s) * norm(x), rel=1e-12)


def test_cauchy_schwarz():
    gen = SplitMix64(4)
    for _ in range(200):
        a, b = rand_vec(gen, 12), rand_vec(gen, 12)
        assert abs(np.dot(a, b)) <= norm(a) * norm(b) * (1.0 + 1e-12)


def test_linear_map_adjoint_consistency():
    gen = SplitMix64(5)
    M = LinearMap(np.array([[gen.normal() for _ in range(7)] for _ in range(5)]))
    for _ in range(100):
        x, y = rand_vec(gen, 7), rand_vec(gen, 5)
        lhs = np.dot(M.apply(x), y)
        rhs = np.dot(x, M.apply_adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_linear_map_rejects_bad_input():
    with pytest.raises(ValueError):
        LinearMap(np.zeros(3))
    with pytest.raises(ValueError):
        LinearMap(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_operator_norm_identity():
    est = operator_norm_estimate(LinearMap(np.eye(3)), iters=50, seed=0)
    assert est == pytest.approx(1.0, abs=1e-10)


def test_operator_norm_diagonal():
    est = operator_norm_estimate(LinearMap(np.diag([1.0, 2.0, 5.0])), iters=200, seed=0)
    assert est == pytest.approx(5.0, abs=1e-8)


def test_operator_norm_difference_matrix_vs_eigen_oracle():
    # forward differences on 8 points, zero row at the end
    n = 8
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i], D[i, i + 1] = -1.0, 1.0
    # oracle: brute-force eigendecomposition of D^T D
    sigma_max = float(np.sqrt(np.linalg.eigvalsh(D.T @ D)[-1]))
    est = operator_norm_estimate(LinearMap(D), iters=500, seed=0)
    assert est == pytest.approx(sigma_max, abs=1e-9)
    assert est <= sigma_max + 1e-12  # lower bound, converging from below


def test_operator_norm_zero_map_and_determinism():
    assert operator_norm_estimate(LinearMap(np.zeros((4, 4)))) == 0.0
    L = LinearMap(np.arange(12.0).reshape(3, 4))
    assert operator_norm_estimate(L, 100, 7) == operator_norm_estimate(L, 100, 7)


def test_solve_spd_identity_and_scaling():
    gen = SplitMix64(6)
    b = rand_vec(gen, 5)
    np.testing.assert_allclose(solve_spd(LinearMap(np.eye(5)), b), b, atol=1e-14)
    np.testing.assert_allclose(solve_spd(LinearMap(2.0 * np.eye(5)), b), b / 2.0, atol=1e-14)


def test_solve_spd_random_residual():
    gen = SplitMix64(7)
    M = np.array([[gen.normal() for _ in range(10)] for _ in range(10)])
    A = M.T @ M + 0.5 * np.eye(10)
    b = rand_vec(gen, 10)
    x = solve_spd(LinearMap(A), b)
    assert norm(A @ x - b) <= 1e-10 * (1.0 + norm(b))


def test_solve_spd_rejects_non_spd():
    with pytest.raises(ValueError):
        solve_spd(LinearMap(np.diag([1.0, -1.0])), np.ones(2))
    with pytest.raises(ValueError):
        solve_spd(LinearMap(np.array([[1.0, 2.0], [0.0, 1.0]])), np.ones(2))


DENSE_SPD = """
import json, sys
import numpy as np
from ikm.linalg import LinearMap, solve_spd
from ikm.operators import proximal_op, quadratic

A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
b, v, rho = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.7]), 0.7
prox = proximal_op(quadratic(LinearMap(A), b), rho).apply(v)
x = solve_spd(LinearMap(A), b)
want_prox = np.linalg.solve(np.eye(3) + rho * A, v + rho * b)
want_x = np.linalg.solve(A, b)
print(json.dumps({"scipy.linalg": "scipy.linalg" in sys.modules,
                  "prox": float(np.linalg.norm(prox - want_prox) / np.linalg.norm(want_prox)),
                  "solve": float(np.linalg.norm(x - want_x) / np.linalg.norm(want_x))}))
"""


def test_a_dense_prox_and_solve_load_no_scipy_linalg(tmp_path):
    # a fresh interpreter, since the pytest process may have loaded
    # scipy.linalg: a dense quadratic's prox and a dense solve_spd go through
    # one eigh and agree with NumPy's LU solves
    src = os.path.dirname(os.path.dirname(os.path.abspath(ikm.__file__)))
    proc = subprocess.run([sys.executable, "-c", DENSE_SPD], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["scipy.linalg"] is False
    assert got["prox"] <= 1e-13 and got["solve"] <= 1e-13, got


# --------------------------------------------------------------------------
# symmetric maps held by their eigendecomposition


def spectral_draw(dim, mu, L, seed):
    """The map and right-hand side of ``make_quadratic(dim, mu, L, seed)``."""
    gen = SplitMix64(seed)
    w = [mu, L] + [gen.uniform_in(mu, L) for _ in range(dim - 2)]
    return SpectralMap(_orthogonal(gen, dim), w), gen.normals(dim)


def test_spectral_map_matrix_is_the_symmetrized_product():
    S, _ = spectral_draw(50, 0.01, 10.0, 1)
    A = S.Q @ np.diag(S.w) @ S.Q.T
    assert S.matrix.tobytes() == (0.5 * (A + A.T)).tobytes()
    x = SplitMix64(2).normals(50)
    assert S.apply(x).tobytes() == LinearMap(S.matrix).apply(x).tobytes()
    assert S.spectrum() == (0.01, 10.0)


def test_spectral_map_rejects_bad_input():
    with pytest.raises(ValueError):
        SpectralMap(np.eye(3), [1.0, 2.0])
    with pytest.raises(ValueError):
        SpectralMap(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(ValueError, match="not positive definite"):
        solve_spd(SpectralMap(np.eye(2), [1.0, 0.0]), np.ones(2))
    with pytest.raises(ValueError, match="^matrix is not square$"):
        SpectralMap.of(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        SpectralMap.of(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # asymmetry at the 1e-12 relative tolerance: admitted below it, not above
    SpectralMap.of(np.array([[1.0, 1e-13], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        SpectralMap.of(np.array([[1.0, 1e-11], [0.0, 1.0]]))


def test_spectral_map_of_a_dense_matrix_keeps_it():
    gen = SplitMix64(3)
    M = gen.normals(36).reshape(6, 6)
    A = M @ M.T + np.eye(6)
    S = SpectralMap.of(A)
    assert S.matrix is A
    x = gen.normals(6)
    assert S.apply(x).tobytes() == (A @ x).tobytes()
    assert np.allclose(S.Q @ np.diag(S.w) @ S.Q.T, A, rtol=0.0, atol=1e-13 * np.abs(A).max())
    assert S.spectrum() == (S.w[0], S.w[-1])


def test_dense_quadratic_with_an_indefinite_resolvent_is_rejected_at_make_prox():
    # eigenvalues 1 and -2: I + rho A is definite for rho < 1/2 only
    f = quadratic(LinearMap(np.diag([1.0, -2.0])), np.zeros(2))
    assert f.modulus == 0.0
    make_prox(f, 0.4)
    with pytest.raises(ValueError, match="^matrix is not positive definite$"):
        make_prox(f, 0.5)
    with pytest.raises(ValueError, match="^matrix is not positive definite$"):
        make_prox(f, 1.0)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), log_mu=st.floats(-3.0, 0.0),
       log_kappa=st.floats(0.0, 3.0), log_rho_L=st.floats(-2.0, 2.0))
def test_spectral_map_closed_forms(dim, seed, log_mu, log_kappa, log_rho_L):
    mu = 10.0 ** log_mu
    L = mu * 10.0 ** log_kappa
    eps = np.finfo(float).eps
    # the reference Q ((Q^T b) / w) is a fixed point of the gradient map
    inst = make_quadratic(dim, mu, L, seed)
    p = inst.reference_solution
    T = inst.operator("gradient")
    assert norm(p - T.apply(p)) <= 1e-13 * (1.0 + norm(p))
    # (min w, max w) against eigvalsh of the rounded matrix: Weyl's bound on
    # the rounding of Q diag(w) Q^T plus eigvalsh's backward error.  The
    # largest gap over 150,000 draws of these parameters was 8.9 eps max w
    S, b = spectral_draw(dim, mu, L, seed)
    eigs = np.linalg.eigvalsh(S.matrix)
    lo, hi = S.spectrum()
    assert max(abs(lo - eigs[0]), abs(hi - eigs[-1])) <= 16 * eps * hi
    # the one-GEMV prox against an LU solve with I + rho A, where
    # cond(I + rho A) <= 1 + rho L <= 101
    rho = 10.0 ** log_rho_L / L
    v = np.random.default_rng(seed).standard_normal(dim)
    got = make_prox(quadratic(S, b), rho)(v)
    want = np.linalg.solve(np.eye(dim) + rho * S.matrix, v + rho * b)
    assert norm(got - want) <= 1e-12 * norm(want)


# --------------------------------------------------------------------------
# structured forward differences


def dense_difference(n):
    return np.diff(np.eye(n), axis=0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       zero_frac=st.floats(0.0, 1.0), spread=st.integers(0, 300))
def test_difference_map_matches_dense_matrix_bitwise(n, seed, zero_frac, spread):
    # signed zeros and magnitudes from 10^-spread to 10^spread in one vector
    rng = np.random.default_rng(seed)

    def draw(m):
        v = rng.standard_normal(m) * 10.0 ** rng.integers(-spread, spread + 1, m)
        zeros = rng.random(m) < zero_frac
        v[zeros] = np.copysign(0.0, v[zeros])
        return v

    x, y = draw(n), draw(n - 1)
    D = DifferenceMap(n)
    dense = LinearMap(dense_difference(n))
    assert (D.rows, D.cols) == (dense.rows, dense.cols)
    assert np.array_equal(D.apply(x), dense.apply(x))
    assert np.array_equal(D.apply_adjoint(y), dense.apply_adjoint(y))


def test_difference_map_norm_estimate_matches_dense():
    for n in (2, 3, 20, 200):
        assert operator_norm_estimate(DifferenceMap(n)) == \
            operator_norm_estimate(LinearMap(dense_difference(n)))


def test_norm_upper_bounds_the_spectral_norm():
    for n in (2, 3, 8, 50, 200):
        exact = float(np.linalg.norm(dense_difference(n), 2))
        upper = DifferenceMap(n).norm_upper()
        assert exact <= upper <= exact * (1.0 + 1e-14)
        assert upper == pytest.approx(2.0 * math.cos(math.pi / (2 * n)), rel=1e-15)
        # a power estimate is a lower bound and may sit well below the norm
        assert operator_norm_estimate(DifferenceMap(n)) <= upper
    gen = SplitMix64(8)
    for rows, cols in ((1, 1), (3, 5), (7, 4), (30, 30)):
        M = gen.normals(rows * cols).reshape(rows, cols)
        L = LinearMap(M)
        a = np.abs(M)
        schur = math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())
        assert float(np.linalg.norm(M, 2)) <= L.norm_upper()
        assert L.norm_upper() == pytest.approx(schur, rel=1e-13)
    assert LinearMap(np.zeros((2, 3))).norm_upper() == 0.0


# --------------------------------------------------------------------------
# Gram maps held by their factor


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       spread=st.integers(0, 3))
def test_gram_map_matches_the_dense_gram(m, n, seed, spread):
    # wide, square and tall shapes; entries from 10^-spread to 10^spread
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-spread, spread + 1, (m, n))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
    G = K.T @ K
    gram = 0.5 * (G + G.T)
    K_map = GramMap(K)
    got, want = K_map.apply(x), LinearMap(gram).apply(x)
    # K^T (K x) and the Gram product are each within about (m + n) u
    # |K|^T |K| |x| of K^T K x (u = eps / 2, one inner product of length n
    # and one of length m per entry), hence within (m + n + 2) eps of each other
    eps = np.finfo(float).eps
    bound = (m + n + 2) * eps * (np.abs(K).T @ (np.abs(K) @ np.abs(x)))
    assert np.all(np.abs(got - want) <= bound)
    # the spectrum is decomposed from the smaller symmetrized Gram: the m x m
    # K K^T when m < n, this same n x n one otherwise
    mu, L = K_map.spectrum()
    S = K @ K.T if m < n else G
    eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert L == eigs[-1]
    assert mu == (0.0 if m < n else max(eigs[0], 0.0))
    assert K_map.spectrum() is K_map.spectrum()  # cached


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       spread=st.integers(0, 3))
def test_gram_map_spectrum_is_within_rounding_of_the_n_by_n_decomposition(m, n, seed, spread):
    # Forming either Gram takes inner products of length m or n, and eigvalsh
    # is backward stable with an error of a small multiple of its dimension
    # times eps; so each computed L lies within about (m + n) eps L of the
    # exact ||K||^2, and the two within c (m + n) eps L of each other.  c = 4:
    # over 37,000 draws of these shapes the largest gap was 0.84 (m + n) eps L.
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-spread, spread + 1, (m, n))
    G = K.T @ K
    L_nn = np.linalg.eigvalsh(0.5 * (G + G.T))[-1]
    L = GramMap(K).spectrum()[1]
    assert abs(L - L_nn) <= 4 * (m + n) * np.finfo(float).eps * L_nn


def test_gram_map_spectrum_of_a_wide_factor_stays_under_one_mib():
    # the 200 x 200 Gram of a 200 x 500 factor, not the 500 x 500 one (2 MB,
    # 3.9 MiB peak with the symmetrization's copy)
    K = GramMap(np.random.default_rng(0).standard_normal((200, 500)))
    tracemalloc.start()
    try:
        K.spectrum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_gram_map_rejects_bad_input():
    with pytest.raises(ValueError):
        GramMap(np.zeros(3))
    with pytest.raises(ValueError):
        GramMap(np.array([[1.0, np.nan]]))
