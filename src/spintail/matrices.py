"""Dense matrix kernels: Pauli matrices, adjoints, exact operator norms.

All functions work on plain ``numpy.ndarray`` with ``complex128`` entries, or
``float64`` ones for a real matrix, and are pure; matrices returned by
constructors are ``complex128`` and marked read-only, as is the matrix of
every ``localops.Block``.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ContractViolation

# Largest total dimension for which dense matrices are materialized; the
# docstrings of localops.sum_commutator and localops.norm state what it caps,
# and a norm's dense_cap (default this).  It is not the dimension above which
# localops.norm's "auto" route leaves the dense eigensolve (the measured
# crossovers localops._AUTO_DENSE_DIM_COMPLEX and _AUTO_DENSE_DIM_REAL, one
# per dtype of the sum, whose table compares both routes).
# 4096 = 2^12, i.e. twelve qubit sites.  Seconds per eigvalsh, measured once
# per size at one OpenBLAS thread on an Intel Xeon VM (numpy 2.4):
#
#   dim   complex Hermitian   real symmetric   complex Gram product + solve
#    512        0.08               0.02                  0.11
#   1024        0.55               0.14                  0.79
#   2048        3.9                0.9                   4.8
#   4096       31                  7.0                  41
DENSE_DIM_CAP = 4096

# is_self_adjoint holds when the skew defect ||a - a*||_F is at most this
# multiple of max |a_ij|; operator_norm_dense then takes its self-adjoint
# route, and localops.norm decides its Krylov route by it, step by step.
_SELF_ADJOINT_RTOL = 1e-13

# entries per row tile when scanning a dense matrix for its skew defect
_TILE_ENTRIES = 2**15

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def pauli(kind) -> np.ndarray:
    """Return a standard 2x2 Pauli matrix.

    ``kind`` is 1, 2, 3 or the string ``"identity"``.
    """
    if kind == 1:
        return _frozen(_SIGMA1)
    if kind == 2:
        return _frozen(_SIGMA2)
    if kind == 3:
        return _frozen(_SIGMA3)
    if kind == "identity":
        return _frozen(np.eye(2))
    raise ContractViolation(f"unknown Pauli kind: {kind!r}")


def check_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ContractViolation("matrix entries must be finite (no NaN/Inf)")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def _skew_defect_and_max(a: np.ndarray) -> tuple[float, float]:
    """``(||a - a*||_F, max |a_ij|)``, accumulated over row tiles of ``a``.

    Each tile holds at most ``_TILE_ENTRIES`` entries, so no temporary is
    as large as ``a``.
    """
    n = a.shape[0]
    step = max(1, _TILE_ENTRIES // n)
    defect2 = 0.0
    amax = 0.0
    for i in range(0, n, step):
        rows = a[i : i + step]
        amax = max(amax, float(np.abs(rows).max()))
        diff = rows - a[:, i : i + step].conj().T
        defect2 += float(np.vdot(diff, diff).real)
    return float(np.sqrt(defect2)), amax


def is_self_adjoint(a: np.ndarray) -> bool:
    """Whether ``||a - a*||_F <= _SELF_ADJOINT_RTOL * max |a_ij|`` for a square ``a``."""
    defect, amax = _skew_defect_and_max(a)
    return defect <= _SELF_ADJOINT_RTOL * amax


def operator_norm_dense(a: np.ndarray, dim_cap: int = DENSE_DIM_CAP) -> float:
    """Exact operator (spectral) norm of a square matrix.

    A matrix whose imaginary part is exactly zero is handled in float64, where
    the eigensolve costs about a quarter of the complex one; a float64 matrix
    is taken as it is, with no complex copy.  Then one of two routes:

    * self-adjoint: ``max(|lambda_min|, |lambda_max|)`` of ``eigvalsh(a)``,
      with no Gram product.  ``eigvalsh`` reads only the lower triangle, so it
      solves the Hermitian H that agrees with ``a`` there, and
      ``| ||H|| - ||a|| | <= ||H - a||_F <= ||a - a*||_F``.  Because
      ``max |a_ij| <= ||a||``, the route is taken only when
      ``||a - a*||_F <= _SELF_ADJOINT_RTOL * max |a_ij|``, which bounds its
      relative error by 1e-13 beyond the eigensolver's own rounding;
    * Gram: ``sqrt(lambda_max(a* a))`` by a Hermitian eigensolve of the Gram
      product, cheaper than a full SVD.
    """
    a = np.asarray(a)
    if a.dtype != np.float64:
        a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"operator norm needs a square matrix, got {a.shape}")
    if a.shape[0] > dim_cap:
        raise CapacityError(
            f"dense norm at dimension {a.shape[0]} exceeds cap {dim_cap}; "
            "use the iterative path"
        )
    if a.dtype.kind == "c" and not np.any(a.imag):
        a = a.real
    if is_self_adjoint(a):
        eig = np.linalg.eigvalsh(a)
        return float(max(abs(eig[0]), abs(eig[-1])))
    top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
    return float(np.sqrt(max(top, 0.0)))
