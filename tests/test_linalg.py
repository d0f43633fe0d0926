import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channel_oracle import eig_roots, eig_roots_pullback, inv_sqrt_psd, left_inverse
from lqcoord import linalg
from lqcoord.errors import NotPsd, NotSymmetric, RankDeficient, ZeroMatrix
from pmp_oracle import NotPd, solve_sylvester_lyapunov


def _rng(seed=0):
    return np.random.default_rng(seed)


def _reconstruct(f: linalg.SvdFactors) -> np.ndarray:
    """Gamma0 Psi Gamma1' with Psi1 in the top-left block of a d0 x d1 Psi."""
    Psi = np.zeros((f.Gamma0.shape[0], f.Gamma1.shape[0]))
    Psi[:f.r, :f.r] = np.diag(f.Psi1)
    return f.Gamma0 @ Psi @ f.Gamma1.T


def _eigenpair(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pair = linalg.sym_eig(M)
    return pair.U, pair.H


def _pinv_sqrt(M: np.ndarray) -> np.ndarray:
    """The truncated inverse square root the channel map uses."""
    return eig_roots(*_eigenpair(M))[1]


# --- psd_sqrt ---------------------------------------------------------------

def test_psd_sqrt_identity():
    np.testing.assert_allclose(linalg.psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_random_reconstruction():
    rng = _rng(1)
    R = rng.standard_normal((4, 4))
    M = R @ R.T
    S = linalg.psd_sqrt(M)
    assert np.linalg.norm(S @ S - M) / np.linalg.norm(M) < 1e-9
    np.testing.assert_allclose(S, S.T, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_psd_sqrt_square_property(dim, seed):
    rng = _rng(seed)
    R = rng.standard_normal((dim, dim))
    M = R @ R.T
    S = linalg.psd_sqrt(M)
    assert (np.linalg.norm(S @ S - M, "fro")
            / (np.linalg.norm(M, "fro") + 1e-12)) < 1e-9


def test_psd_sqrt_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        linalg.psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsd):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_tiny_negative():
    M = np.diag([1.0, -5e-11])
    S = linalg.psd_sqrt(M)
    assert S[1, 1] == 0.0


# --- left inverse (oracle helper) --------------------------------------------

def test_pinv_identity():
    np.testing.assert_allclose(left_inverse(np.eye(3)), np.eye(3),
                               atol=1e-14)


def test_pinv_unit_column():
    Q = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(left_inverse(Q), np.array([[1.0, 0.0]]),
                               atol=1e-14)


def test_pinv_left_inverse_property():
    rng = _rng(2)
    for _ in range(100):
        d0 = int(rng.integers(1, 5))
        d1 = d0 + int(rng.integers(0, 4))
        Q = rng.standard_normal((d1, d0))
        if np.linalg.matrix_rank(Q) < d0:
            continue
        Qd = left_inverse(Q)
        np.testing.assert_allclose(Qd @ Q, np.eye(d0), atol=1e-10)


def test_pinv_rank_deficient_raises():
    Q = np.ones((4, 2))
    with pytest.raises(RankDeficient):
        left_inverse(Q)


def test_pinv_fully_actuated_projection(fa_model):
    Q = fa_model.B1.T
    Qd = left_inverse(Q)
    np.testing.assert_allclose(Qd @ Q, np.eye(4), atol=1e-10)


# --- sym_eig ----------------------------------------------------------------

def test_sym_eig_identity():
    pair = linalg.sym_eig(np.eye(2))
    np.testing.assert_allclose(pair.H, [1.0, 1.0])
    np.testing.assert_allclose(pair.U @ pair.U.T, np.eye(2), atol=1e-12)


def test_sym_eig_diagonal_sorted():
    pair = linalg.sym_eig(np.diag([3.0, 5.0]))
    np.testing.assert_allclose(pair.H, [5.0, 3.0])


def test_sym_eig_channel_gain(fa_model):
    Q = np.eye(4)
    Q1 = fa_model.B1 @ Q
    M = Q1.T @ np.linalg.solve(fa_model.W, Q1)
    pair = linalg.sym_eig(M)
    assert np.all(pair.H > 0)
    np.testing.assert_allclose((pair.U * pair.H) @ pair.U.T, M, atol=1e-10)
    np.testing.assert_allclose(pair.U.T @ pair.U, np.eye(4), atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_sym_eig_reconstruction_property(dim, seed):
    rng = _rng(seed)
    R = rng.standard_normal((dim, dim))
    M = R @ R.T
    pair = linalg.sym_eig(M)
    np.testing.assert_allclose((pair.U * pair.H) @ pair.U.T, M, atol=1e-10)
    np.testing.assert_allclose(pair.U.T @ pair.U, np.eye(dim), atol=1e-10)
    assert np.all(np.diff(pair.H) <= 1e-12)


# --- svd_factor -------------------------------------------------------------

def test_svd_identity():
    f = linalg.svd_factor(np.eye(2))
    assert f.r == 2
    np.testing.assert_allclose(f.Psi1, [1.0, 1.0])
    np.testing.assert_allclose(_reconstruct(f), np.eye(2), atol=1e-12)


def test_svd_unit_column():
    f = linalg.svd_factor(np.array([[1.0], [0.0]]))
    assert f.r == 1
    np.testing.assert_allclose(f.Psi1, [1.0])
    np.testing.assert_allclose(np.abs(f.Gamma1), [[1.0]])
    np.testing.assert_allclose(_reconstruct(f), [[1.0], [0.0]], atol=1e-12)


def test_svd_under_actuated_preset(ua_model):
    f = linalg.svd_factor(ua_model.B1)
    assert f.r == 2
    assert ua_model.d0 // f.r == 2  # period tau
    np.testing.assert_allclose(_reconstruct(f), ua_model.B1, atol=1e-10)
    assert np.all(np.diff(f.Psi1) <= 0) and np.all(f.Psi1 > 0)


def test_svd_zero_matrix_raises():
    with pytest.raises(ZeroMatrix):
        linalg.svd_factor(np.zeros((3, 2)))


# --- solve_sylvester_lyapunov (the minimum-principle oracle's solver) -------

def test_sylvester_identity_A():
    rng = _rng(3)
    R = rng.standard_normal((3, 3))
    RHS = R + R.T
    X = solve_sylvester_lyapunov(np.eye(3), RHS)
    np.testing.assert_allclose(X, RHS / 2, atol=1e-12)


def test_sylvester_scalar():
    X = solve_sylvester_lyapunov(np.array([[2.0]]), np.array([[6.0]]))
    np.testing.assert_allclose(X, [[1.5]])


def test_sylvester_residual_random():
    rng = _rng(4)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        R = rng.standard_normal((d, d))
        A = R @ R.T + 0.1 * np.eye(d)
        S = rng.standard_normal((d, d))
        RHS = S + S.T
        X = solve_sylvester_lyapunov(A, RHS)
        resid = np.linalg.norm(A @ X + X @ A - RHS, "fro")
        assert resid / (np.linalg.norm(RHS, "fro") + 1e-30) < 1e-10
        np.testing.assert_allclose(X, X.T, atol=1e-10)


def test_sylvester_needs_pd():
    with pytest.raises(NotPd):
        solve_sylvester_lyapunov(np.diag([1.0, 0.0]), np.eye(2))


# --- truncated inverse square root (eig_roots) -------------------------------

def test_pinv_sqrt_matches_inverse_when_well_conditioned():
    rng = _rng(5)
    R = rng.standard_normal((4, 4))
    M = R @ R.T + np.eye(4)
    np.testing.assert_allclose(_pinv_sqrt(M),
                               np.linalg.inv(linalg.psd_sqrt(M)), atol=1e-10)


def test_pinv_sqrt_truncates_dead_directions():
    M = np.diag([1.0, 1e-30])
    P = _pinv_sqrt(M)
    assert P[0, 0] == pytest.approx(1.0)
    assert P[1, 1] == 0.0


def test_sqrt_and_pinv_sqrt_consistent():
    rng = _rng(6)
    R = rng.standard_normal((5, 5))
    M = R @ R.T
    S, Sinv = eig_roots(*_eigenpair(M))
    np.testing.assert_allclose(S, linalg.psd_sqrt(M), atol=1e-13)
    np.testing.assert_allclose(Sinv, inv_sqrt_psd(M), atol=1e-13)


@pytest.mark.parametrize("H", [[4.0, 1.0, 0.25], [3.0, 3.0, 0.5],
                               [1.0, 1e-3, 0.0]])
def test_eig_roots_adjoint_matches_central_differences(H):
    # repeated eigenvalues and a truncated (zero) direction included; the
    # perturbation leaves the truncated block alone, so that direction
    # stays below the cutoff and the map stays differentiable along it
    rng = _rng(7)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    pair = linalg.EigenPair(U=U, H=np.array(H))
    M = (U * pair.H) @ U.T
    root_bar, inv_bar = rng.standard_normal((2, 3, 3))
    dM = linalg.sym_part(rng.standard_normal((3, 3)))
    dead = pair.H == 0.0
    dM = U @ np.where(np.outer(dead, dead), 0.0, U.T @ dM @ U) @ U.T

    def f(X):
        root, inv = eig_roots(*_eigenpair(X))
        return np.sum(root_bar * root) + np.sum(inv_bar * inv)

    h = 1e-6
    fd = (f(M + h * dM) - f(M - h * dM)) / (2 * h)
    grad = eig_roots_pullback(U, linalg.eig_roots_kernels(pair.H),
                              root_bar, inv_bar)
    np.testing.assert_allclose(grad, grad.T, atol=0)
    assert np.sum(grad * dM) == pytest.approx(fd, rel=1e-6)


def test_eig_roots_kernels_of_a_stack_are_the_kernels_of_each_spectrum():
    # the exact-cost engine builds the kernels of all steps in one call
    H = np.array([[4.0, 1.0, 0.25], [3.0, 3.0, 0.5], [1.0, 1e-3, 0.0],
                  [2.0, 1e-20, 0.0]])
    F_root, F_inv = linalg.eig_roots_kernels(H)
    for t, spectrum in enumerate(H):
        f_root, f_inv = linalg.eig_roots_kernels(spectrum)
        np.testing.assert_array_equal(F_root[t], f_root)
        np.testing.assert_array_equal(F_inv[t], f_inv)
