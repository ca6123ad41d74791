"""Cyclic left shift on a finite volume, its powers and its average.

The shift acts by relabeling supports, never through permutation matrices:
a factor at site x moves to site ((x - 1 - j) mod N) + 1 under j
applications.  On elementary tensors this sends
a_1 (x) a_2 (x) ... (x) a_N to a_2 (x) ... (x) a_N (x) a_1.

The average builds all N shifted terms.  Given a local region (a probe's
support), :func:`eval_gamma_sequence` and the classical mirror build only the
shifts meeting it, with the same weights and order, so work does not grow with N.
"""

from __future__ import annotations

from .localops import (
    LocalOperator,
    OperatorSum,
    check_volume,
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


def gamma_average(a, volume) -> OperatorSum:
    """The averaged shift (1/N) sum_j gamma^j, as an N-fold term list.

    Accepts a :class:`LocalOperator` or an :class:`OperatorSum`; no
    densification happens.
    """
    n = check_volume(volume)
    if isinstance(a, LocalOperator):
        a = a.as_sum()
    return _shift_average(a, n)


def _shift_average(a: OperatorSum, n: int, region=None) -> OperatorSum:
    """The terms (w / n) gamma^j(op) of the shift average, for ascending j.

    Shifted terms merge only when they share a support, so with a ``region``
    the result is the full average's terms on it: same weights, same order.
    """
    shifts = _meeting_shifts(a.support, n, region)
    terms = []
    for w, op in a.terms:
        for j in shifts:
            terms.append((w / n, gamma_pow(op, n, j)))
    return operator_sum(terms, a.site_dim)


def eval_gamma_sequence(seq, volume, region=None) -> OperatorSum:
    """Shift average of ``seq.seed``, or its terms meeting ``region``; zero below the window."""
    n = check_volume(volume)
    if n < seq.window:
        return zero_sum(seq.seed.site_dim)
    if region is None:
        return gamma_average(seq.seed, n)
    return _shift_average(seq.seed.as_sum(), n, region)


def is_gamma_invariant(a, volume) -> bool:
    """True iff one shift moves the operator by at most 1e-10 in norm."""
    n = check_volume(volume)
    s = a.as_sum() if isinstance(a, LocalOperator) else a
    diff = gamma_pow(s, n, 1) - s
    return norm(diff, n).value <= 1e-10
