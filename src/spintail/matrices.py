"""Dense matrix kernels: Pauli matrices, adjoints, exact operator norms.

All functions work on plain ``numpy.ndarray`` with ``complex128`` entries, or
``float64`` ones for a real matrix, and are pure; matrices returned by
constructors are ``complex128`` and marked read-only, as is the matrix of
every ``localops.Block``.
"""

from __future__ import annotations

import math

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

# p a, for a phase p of 1 or 1j, is self-adjoint when its defect
# ||p a - (p a)*||_F is at most this multiple of max |a_ij|; _phase_scan is the
# one place that compares it.  operator_norm_dense then takes its self-adjoint
# route, and in localops self_adjoint_phase decides the Krylov route from a
# plan's steps and the decoupled route's phase from its group matrices.
_SELF_ADJOINT_RTOL = 1e-13

# entries per row tile when scanning a dense matrix for its defect
_TILE_ENTRIES = 2**15

_PAULI = {1: [[0, 1], [1, 0]], 2: [[0, -1j], [1j, 0]], 3: [[1, 0], [0, -1]], "identity": np.eye(2)}


def pauli(kind) -> np.ndarray:
    """Return a standard 2x2 Pauli matrix, a new read-only array.

    ``kind`` is 1, 2, 3 or the string ``"identity"``, looked up in one table
    (so ``1.0``, ``True`` and numpy integers select as the integer they equal).
    """
    try:
        out = np.array(_PAULI[kind], dtype=complex)
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ContractViolation(f"unknown Pauli kind: {kind!r}") from None
    out.flags.writeable = False
    return out


def check_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ContractViolation("matrix entries must be finite (no NaN/Inf)")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def _unit_scale(x: float) -> float:
    """``2**-e`` for ``e`` the exponent of ``x``, which takes ``x`` into [1/2, 1):
    at most ``2**1000``, for a subnormal ``x``, and 1 for ``x = 0``."""
    return math.ldexp(1.0, min(-math.frexp(x)[1], 1000))


def _phase_scan(a: np.ndarray, phase) -> tuple[bool, float]:
    """``(phase * a is self-adjoint, max |a_ij|)`` for a square ``a`` and a
    ``phase`` of 1 or 1j, over row tiles of ``a``.

    ``phase * a`` is self-adjoint when its defect, ``||a - a*||_F`` for 1
    and ``||a + a*||_F = ||1j a - (1j a)*||_F`` for 1j, is at most
    ``_SELF_ADJOINT_RTOL * max |a_ij|``; no phase-scaled copy is formed.
    Each tile holds at most ``_TILE_ENTRIES`` entries, so no temporary is
    as large as ``a``.  One pass finds ``max |a_ij|`` and refuses an entry
    that is not finite, and a second sums the squares of the defect times
    the :func:`_unit_scale` of that maximum, a power of two, so the defect
    neither overflows nor underflows where ``a`` does not.
    """
    n = a.shape[0]
    step = max(1, _TILE_ENTRIES // n)
    tiles = [slice(i, i + step) for i in range(0, n, step)]
    amax = 0.0
    for t in tiles:  # numpy's max, unlike Python's, keeps a NaN, of a tile or its initial value
        amax = float(np.abs(a[t]).max(initial=amax))
    if not math.isfinite(amax):
        raise ContractViolation("matrix entries must be finite (no NaN/Inf)")
    scale = _unit_scale(amax)
    defect2 = 0.0
    for t in tiles:
        diff = a[t] - a[:, t].conj().T if phase == 1 else a[t] + a[:, t].conj().T
        diff *= scale
        defect2 += float(np.vdot(diff, diff).real)
    return math.sqrt(defect2) / scale <= _SELF_ADJOINT_RTOL * amax, amax


def self_adjoint_phase(mats):
    """``1``, or else ``1j``, when that phase times every matrix of the
    collection ``mats`` is self-adjoint (:func:`_phase_scan`); ``None`` when
    neither is.  ``mats`` is read once per phase, so it is a list or a view,
    not an iterator."""
    for phase in (1, 1j):
        if all(_phase_scan(m, phase)[0] for m in mats):
            return phase
    return None


def operator_norm_dense(a: np.ndarray, dim_cap: int = DENSE_DIM_CAP) -> float:
    """Exact operator (spectral) norm of a square matrix.

    A matrix whose imaginary part is exactly zero is handled in float64, where
    the eigensolve costs about a quarter of the complex one; a float64 matrix
    is taken as it is, with no complex copy.  An entry that is not finite is
    refused by the scan of :func:`_phase_scan`, before any eigensolve.  Then
    one of two routes:

    * self-adjoint: ``max(|lambda_min|, |lambda_max|)`` of ``eigvalsh(a)``,
      with no Gram product.  ``eigvalsh`` reads only the lower triangle, so it
      solves the Hermitian H that agrees with ``a`` there, and
      ``| ||H|| - ||a|| | <= ||H - a||_F <= ||a - a*||_F``.  Because
      ``max |a_ij| <= ||a||``, the route is taken only when
      ``||a - a*||_F <= _SELF_ADJOINT_RTOL * max |a_ij|``, which bounds its
      relative error by 1e-13 beyond the eigensolver's own rounding;
    * Gram: ``sqrt(lambda_max(a* a))`` by a Hermitian eigensolve of the Gram
      product, cheaper than a full SVD.  The product squares the entries, so
      when ``max |a_ij|`` is outside [2**-500, 2**500], ``a`` is first scaled
      by its :func:`_unit_scale`, a power of two, and the root divided by it.
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
    self_adjoint, amax = _phase_scan(a, 1)
    if self_adjoint:
        eig = np.linalg.eigvalsh(a)
        return float(max(abs(eig[0]), abs(eig[-1])))
    # a scaled copy costs one more matrix; inside [2**-500, 2**500] the product
    # stays in range (entries at most n amax**2, top eigenvalue at least amax**2)
    scale = 1.0 if 2.0**-500 < amax < 2.0**500 else _unit_scale(amax)
    if scale != 1.0:
        a = scale * a
    top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
    return float(np.sqrt(max(top, 0.0))) / scale
