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


def factor_copies(blocks) -> list:
    """``(sites, matrix)`` of every factor of an operator, in first-site order.

    A record with ``ranges`` (a run) contributes its one-site matrix once per
    site, read off the ranges in plain Python; any other record is one
    factor on its ``sites``.
    """
    out = []
    for b in blocks:
        if hasattr(b, "ranges"):
            out += [((x,), b.matrix) for r in b.ranges for x in r]
        else:
            out.append((tuple(b.sites), b.matrix))
    return sorted(out, key=lambda f: f[0][0])


def kron_term_dense(scalar, blocks, sites, d: int) -> np.ndarray:
    """``scalar * (x) blocks`` on the ascending ``sites``, one full Kronecker product per term.

    Runs are taken apart by :func:`factor_copies`, and the factors are
    folded left to right with an identity on the remaining
    sites, scaled, and their tensor legs permuted into site order -- the
    per-term construction the in-place assembler replaced, kept as its
    bit-exact reference.  Scaling is an explicit ufunc call so that numpy
    never evaluates it in place with the operands swapped.
    """
    factors = factor_copies(blocks)
    covered = [s for f_sites, _ in factors for s in f_sites]
    rest = [s for s in sites if s not in covered]
    mats = [m for _, m in factors]
    if rest:
        mats.append(np.eye(d ** len(rest), dtype=complex))
    out = np.multiply(scalar, kron_chain(mats))
    order = covered + rest
    if order == list(sites):
        return out
    n = len(order)
    axes = [order.index(s) for s in sites]
    return out.reshape((d,) * (2 * n)).transpose(axes + [a + n for a in axes]).reshape(out.shape)


def expectation_per_block(rho: np.ndarray, s) -> complex:
    """State value of an operator sum in rho^{(x) N}, one contraction per factor.

    Each factor's value is tr(rho^{(x) k} B) for its k sites, with the
    Kronecker power formed explicitly; a term's value is its weight times its
    scalar times every factor's value, multiplied in site order, a run once
    per site (:func:`factor_copies`).  Only the sum's ``terms`` and each
    operator's ``scalar`` and ``blocks`` are read.
    """
    total = 0j
    for w, op in s.terms:
        val = w * op.scalar
        for sites, m in factor_copies(op.blocks):
            val *= np.trace(kron_chain([rho] * len(sites)) @ m)
        total += val
    return complex(total)


def norm_exact_per_block(op) -> float:
    """Operator norm of a product of disjoint factors: |scalar| times each
    factor's SVD norm, a run's once per site."""
    out = abs(op.scalar)
    for _, m in factor_copies(op.blocks):
        out *= svd_norm(m)
    return float(out)
