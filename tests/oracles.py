"""Independent dense oracles used to freeze expected values.

Everything here is deliberately written against plain numpy, not against the
package under test: norms go through SVD (the library uses an eigensolve),
embeddings through explicit Kronecker folds, and the cyclic shift through an
explicitly constructed basis-permutation matrix.
"""

from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(mats):
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, mats)


def embed_dense(factors: dict, n: int) -> np.ndarray:
    """Full matrix of a sitewise factor dict on n sites (site 1 leftmost)."""
    return kron_chain([factors.get(x, I2) for x in range(1, n + 1)])


def svd_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def shift_permutation(d: int, n: int) -> np.ndarray:
    """Basis permutation P with P (a1 x ... x aN) P* = a2 x ... x aN x a1."""
    dim = d**n
    p = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        digits = []
        t = j
        for _ in range(n):
            digits.append(t % d)
            t //= d
        digits = digits[::-1]  # digits[0] is the site-1 (most significant) digit
        rotated = digits[1:] + digits[:1]
        nj = 0
        for dig in rotated:
            nj = nj * d + dig
        p[nj, j] = 1.0
    return p


def shifted_dense(mat: np.ndarray, j: int, d: int, n: int) -> np.ndarray:
    p = shift_permutation(d, n)
    pj = np.linalg.matrix_power(p, j % n)
    return pj @ mat @ pj.conj().T


def shift_average_dense(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    return sum(shifted_dense(mat, j, d, n) for j in range(n)) / n


def rho_chain(rho: np.ndarray, n: int) -> np.ndarray:
    return kron_chain([rho] * n)


def average_variance_dense(rho: np.ndarray, a: np.ndarray, n: int) -> float:
    """Variance of the shift average of the one-site matrix ``a`` in rho^{(x) n}.

    The average is the dense shift average of ``a`` placed on site 1, and the
    variance is tr(rho_n avg^2) - tr(rho_n avg)^2, all as full matrices.
    """
    d = a.shape[0]
    avg = shift_average_dense(kron_chain([a] + [np.eye(d, dtype=complex)] * (n - 1)), d, n)
    rho_n = rho_chain(rho, n)
    mean = np.trace(rho_n @ avg)
    return float(np.real(np.trace(rho_n @ avg @ avg) - mean**2))


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_complex(rng, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def kron_term_dense(scalar, blocks, sites, d: int) -> np.ndarray:
    """``scalar * (x) blocks`` on the ascending ``sites``, one full Kronecker product per term.

    The blocks are folded left to right with an identity on the remaining
    sites, scaled, and their tensor legs permuted into site order -- the
    per-term construction the in-place assembler replaced, kept as its
    bit-exact reference.  Scaling is an explicit ufunc call so that numpy
    never evaluates it in place with the operands swapped.
    """
    covered = [s for b in blocks for s in b.sites]
    rest = [s for s in sites if s not in covered]
    mats = [b.matrix for b in blocks]
    if rest:
        mats.append(np.eye(d ** len(rest), dtype=complex))
    out = np.multiply(scalar, kron_chain(mats))
    order = covered + rest
    if order == list(sites):
        return out
    n = len(order)
    axes = [order.index(s) for s in sites]
    return out.reshape((d,) * (2 * n)).transpose(axes + [a + n for a in axes]).reshape(out.shape)
