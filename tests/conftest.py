import numpy as np
import pytest

from antitri import frobenius_norm, matrix, zeros


def rel_err(x, y):
    return frobenius_norm(x - y) / max(1.0, frobenius_norm(y))


def assert_close(x, y, tol=1e-10):
    err = rel_err(x, y)
    assert err <= tol, f"relative error {err:.3e} exceeds {tol:.1e}"


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return matrix(rng.uniform(-1, 1, (n, m)) + 1j * rng.uniform(-1, 1, (n, m)))


def jordan_nilpotent(n):
    j = zeros(n, n)
    for k in range(n - 1):
        j[k, k + 1] = 1.0
    return j


def unimodular_pair(rng, n, shears=None):
    """Integer unimodular S with its exact integer inverse."""
    s = np.eye(n, dtype=np.int64)
    s_inv = np.eye(n, dtype=np.int64)
    for _ in range(n + 2 if shears is None else shears):
        i, j = rng.integers(0, n, 2)
        c = int(rng.integers(-2, 3))
        if i == j or c == 0:
            continue
        trial = s.copy()
        trial[i, :] += c * trial[j, :]
        if np.max(np.abs(trial)) > 40:
            continue
        s = trial
        s_inv[:, j] -= c * s_inv[:, i]
    return s.astype(np.complex128), s_inv.astype(np.complex128)


def well_conditioned(rng, n):
    """Invertible with capped condition number: unimodular shear of a diagonal."""
    d = np.diag(rng.uniform(1.0, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    s, s_inv = unimodular_pair(rng, n, shears=n)
    return matrix(s @ d @ s_inv)


def mixed_similarity(rng, n):
    """S diag(C, N) S^-1 with invertible C, nilpotent Jordan N, exact S^-1."""
    r = int(rng.integers(0, n + 1))
    c = np.diag(rng.uniform(0.5, 2.0, r) * np.exp(1j * rng.uniform(0, 2 * np.pi, r)))
    block = zeros(n, n)
    block[:r, :r] = c
    block[r:, r:] = jordan_nilpotent(n - r)
    s, s_inv = unimodular_pair(rng, n)
    return matrix(s @ block @ s_inv), block, s, s_inv


def svd_index(a):
    """ind(a) from singular values, independent of the library's elimination.

    range(a^(k+1)) is a applied to an orthonormal basis of range(a^k), so
    rounding stays at the level of |a| instead of compounding over powers;
    a singular value counts when it exceeds 1e-9 |a|_2.
    """
    a = np.asarray(a, dtype=np.complex128)
    cut = 1e-9 * (float(np.linalg.norm(a, 2)) if a.size else 0.0)
    basis = np.eye(a.shape[0], dtype=np.complex128)
    k = 0
    while basis.shape[1]:
        u, s, _ = np.linalg.svd(a @ basis, full_matrices=False)
        r = int(np.count_nonzero(s > cut))
        if r == basis.shape[1]:
            break
        basis = u[:, :r]
        k += 1
    return k


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
