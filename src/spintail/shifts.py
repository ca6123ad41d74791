"""Cyclic left shift on a finite volume, its powers and its average.

The shift acts by relabeling supports, never through permutation matrices:
a factor at site x moves to site ((x - 1 - j) mod N) + 1 under j
applications.  On elementary tensors this sends
a_1 (x) a_2 (x) ... (x) a_N to a_2 (x) ... (x) a_N (x) a_1.

One builder, :func:`gamma_average`, makes the average: all N shifted terms,
or, given a local region (a probe's support), only the shifts meeting it, so
work does not grow with N.  The classical mirror moves its translates through
the same site map and rule.
"""

from __future__ import annotations

from .errors import ContractViolation
from .localops import (
    OperatorSum,
    check_volume,
    fits_volume,
    is_integer,
    norm,
    operator_sum,
    relabel,
    zero_sum,
)

__all__ = [
    "gamma_pow",
    "gamma_average",
    "eval_gamma_sequence",
    "is_gamma_invariant",
]


def gamma_pow(a, volume, j: int):
    """Apply j cyclic left shifts; pure support relabeling, norm-preserving."""
    n = check_volume(volume, a.support)
    if not is_integer(j):
        raise ContractViolation(f"shift powers are integers, got {j!r}")
    j = int(j) % n
    if j == 0:
        return a
    if isinstance(a, OperatorSum):
        return OperatorSum(a.site_dim, tuple((w, gamma_pow(op, n, j)) for w, op in a.terms))
    return relabel(a, _site_map(a.support, n, j))


def _site_map(sites, n: int, j: int) -> dict[int, int]:
    """Where j cyclic left shifts carry each of ``sites`` in a volume of n sites."""
    return {s: (s - 1 - j) % n + 1 for s in sites}


def _meeting_shifts(support, n: int, region=None):
    """Ascending shifts j: every one, or with a ``region`` those meeting it.

    gamma^j carries site x onto site y exactly when j = x - y (mod n), so a
    region keeps at most |support| * |region| shifts, whatever n is.
    """
    if region is None:
        return range(n)
    return sorted({(x - y) % n for x in support for y in region if y <= n})


def gamma_average(a, volume, region=None) -> OperatorSum:
    """The averaged shift (1/N) sum_j gamma^j as the terms (w / N) gamma^j(op), ascending j.

    Accepts a :class:`LocalOperator` or an :class:`OperatorSum`; no
    densification happens.  With a ``region``, each term is shifted only by
    the shifts carrying its own support onto it, which gives the full
    average's terms meeting ``region``, with the same weights and order,
    since shifted terms merge only on a shared support.
    """
    n = check_volume(volume)
    a = a.as_sum()
    terms = [
        (w / n, gamma_pow(op, n, j))
        for w, op in a.terms
        for j in _meeting_shifts(op.support, n, region)
    ]
    return operator_sum(terms, a.site_dim)


def eval_gamma_sequence(seq, volume, region=None) -> OperatorSum:
    """:func:`gamma_average` of ``seq.seed``, on ``region`` if given; zero until the seed fits."""
    n = check_volume(volume)
    if not fits_volume(seq.seed.support, n):
        return zero_sum(seq.seed.site_dim)
    return gamma_average(seq.seed, n, region)


def is_gamma_invariant(a, volume) -> bool:
    """True iff one shift moves the operator by at most 1e-10 in norm."""
    n = check_volume(volume)
    s = a.as_sum()
    diff = gamma_pow(s, n, 1) - s
    return norm(diff, n).value <= 1e-10
