"""Cyclic left shift on a finite volume, its powers and its average.

The shift acts by relabeling supports, never through permutation matrices:
a factor at site x moves to site ((x - 1 - j) mod N) + 1 under j
applications.  On elementary tensors this sends
a_1 (x) a_2 (x) ... (x) a_N to a_2 (x) ... (x) a_N (x) a_1.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .localops import (
    Block,
    LocalOperator,
    OperatorSum,
    _make_op,
    _permute_site_axes,
    check_volume,
    norm,
    operator_sum,
    zero_sum,
)

__all__ = [
    "gamma_pow",
    "gamma_average",
    "eval_gamma_sequence",
    "is_gamma_invariant",
]


def _relabel_block(b: Block, j: int, n: int, d: int) -> Block:
    new_sites = [((s - 1 - j) % n) + 1 for s in b.sites]
    order = np.argsort(new_sites)
    sorted_sites = tuple(new_sites[i] for i in order)
    if tuple(order) == tuple(range(len(new_sites))):
        return Block(sorted_sites, b.matrix)
    mat = _permute_site_axes(b.matrix, new_sites, sorted_sites, d)
    return Block(sorted_sites, mat)


def gamma_pow(a, volume, j: int):
    """Apply j cyclic left shifts; pure support relabeling, norm-preserving."""
    n = check_volume(volume)
    j = int(j) % n
    if isinstance(a, OperatorSum):
        if a.support and a.support[-1] > n:
            raise ContractViolation(f"support {a.support} outside volume of {n} sites")
        return operator_sum(
            [(w, gamma_pow(op, n, j)) for w, op in a.terms], a.site_dim
        )
    if a.support and a.support[-1] > n:
        raise ContractViolation(f"support {a.support} outside volume of {n} sites")
    if j == 0:
        return a
    blocks = [_relabel_block(b, j, n, a.site_dim) for b in a.blocks]
    return _make_op(a.site_dim, a.scalar, blocks)


def gamma_average(a, volume) -> OperatorSum:
    """The averaged shift (1/N) sum_j gamma^j, as an N-fold term list.

    Accepts a :class:`LocalOperator` or an :class:`OperatorSum`; no
    densification happens.
    """
    n = check_volume(volume)
    if isinstance(a, LocalOperator):
        a = a.as_sum()
    terms = []
    for w, op in a.terms:
        for j in range(n):
            terms.append((w / n, gamma_pow(op, n, j)))
    return operator_sum(terms, a.site_dim)


def eval_gamma_sequence(seq, volume) -> OperatorSum:
    """Shift average of ``seq.seed`` over the volume; zero below ``seq.window`` sites."""
    n = check_volume(volume)
    if n < seq.window:
        return zero_sum(seq.seed.site_dim)
    return gamma_average(seq.seed, n)


def is_gamma_invariant(a, volume) -> bool:
    """True iff one shift moves the operator by at most 1e-10 in norm."""
    n = check_volume(volume)
    s = a.as_sum() if isinstance(a, LocalOperator) else a
    diff = gamma_pow(s, n, 1) - s
    return norm(diff, n).value <= 1e-10
