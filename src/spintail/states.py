"""Translation-invariant product states and factorized expectations.

Expectations of operator sums are computed term by term, contracting the
one-site density matrix against each block's tensor legs; the full-volume
density matrix is never formed outside test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .localops import (
    Block,
    LocalOperator,
    OperatorSum,
    _check_support_fits,
    check_volume,
)
from .matrices import check_finite
from .shifts import gamma_average, gamma_pow

__all__ = [
    "ProductState",
    "product_state",
    "expectation",
    "average_variance",
    "induced_invariance_residual",
]


@dataclass(frozen=True, eq=False)
class ProductState:
    """One density matrix per site, identical across sites."""

    rho: np.ndarray
    site_dim: int


# Absolute tolerance of the self-adjointness, trace and positivity checks.
ATOL = 1e-12


def product_state(rho) -> ProductState:
    """Validate and freeze a one-site density matrix.

    Requires self-adjointness and unit trace within ``ATOL`` and eigenvalues
    above ``-ATOL``.
    """
    rho = check_finite(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ContractViolation(f"density matrix must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > ATOL:
        raise ContractViolation("density matrix must be self-adjoint")
    if abs(np.trace(rho) - 1.0) > ATOL:
        raise ContractViolation(f"density matrix trace is {np.trace(rho):.6g}, expected 1")
    if np.linalg.eigvalsh(rho)[0] < -ATOL:
        raise ContractViolation("density matrix must be positive semidefinite")
    rho = np.array(rho, dtype=complex)
    rho.flags.writeable = False
    return ProductState(rho, rho.shape[0])


def _block_expectation(blk: Block, rho: np.ndarray, d: int) -> complex:
    # tr((rho^{(x) k}) B) contracted leg by leg: einsum with integer subscripts
    k = len(blk.sites)
    tensor = blk.matrix.reshape((d,) * (2 * k))
    operands = [tensor, list(range(2 * k))]
    for t in range(k):
        operands.extend([rho, [k + t, t]])
    return complex(np.einsum(*operands, []))


def expectation(state: ProductState, s: OperatorSum, volume) -> complex:
    """State value of a sum, factorized over each term's blocks.

    A single :class:`LocalOperator` goes in as ``op.as_sum()``.
    """
    if state.site_dim != s.site_dim:
        raise ContractViolation("state and operator disagree on site dimension")
    n = check_volume(volume)
    _check_support_fits(s.support, n)
    total = 0j
    for w, op in s.terms:
        val = w * op.scalar
        for blk in op.blocks:
            val *= _block_expectation(blk, state.rho, state.site_dim)
        total += val
    return total


def _check_averaging_seed(seed: LocalOperator) -> None:
    if len(seed.support) > 1:
        raise ContractViolation("variance seeds act on at most one site")
    if abs(np.imag(seed.scalar)) > ATOL:
        raise ContractViolation("variance seeds must be self-adjoint")
    for blk in seed.blocks:
        eff = seed.scalar * blk.matrix
        if np.max(np.abs(eff - eff.conj().T)) > ATOL:
            raise ContractViolation("variance seeds must be self-adjoint")


def average_variance(state: ProductState, seed: LocalOperator, volume) -> float:
    """Variance of the shift average of a one-site observable, in connected form.

    In a product state, shifted copies on different sites are uncorrelated,
    so only the N coinciding pairs contribute: the value is
    (<A^2> - <A>^2) / N for the one-site seed A.  Neither the cost nor the
    rounding error grows with N.
    """
    _check_averaging_seed(seed)
    n = check_volume(volume)
    a = seed.as_sum()
    mean = expectation(state, a, n)
    var = np.real(expectation(state, a * a, n) - mean**2) / n
    return float(max(var, 0.0))


def induced_invariance_residual(
    state: ProductState, seed: LocalOperator, volume, j: int
) -> float:
    """|omega(avg(shift^j seed)) - omega(avg(seed))| at one volume.

    Cyclic averaging absorbs shifts, so this vanishes identically at every
    finite volume; the returned residual only measures float noise.
    """
    n = check_volume(volume)
    shifted = gamma_average(gamma_pow(seed, n, j), n)
    plain = gamma_average(seed, n)
    return float(
        abs(expectation(state, shifted, n) - expectation(state, plain, n))
    )
