"""Cyclic left shift on a finite volume, its powers and its average.

The shift acts by relabeling supports, never through permutation matrices:
a factor at site x moves to site ((x - 1 - j) mod N) + 1 under j
applications.  On elementary tensors this sends
a_1 (x) a_2 (x) ... (x) a_N to a_2 (x) ... (x) a_N (x) a_1.

The average builds all N shifted terms.  A caller that only needs the shifts
meeting a fixed local region (a commutator with a probe) takes
:func:`_meeting_average`, which builds only those shifts, with the same
weights and in the same order, so its work does not grow with N.
"""

from __future__ import annotations

from .localops import (
    LocalOperator,
    OperatorSum,
    _check_support_fits,
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
    n = check_volume(volume)
    j = int(j) % n
    sup = a.support
    _check_support_fits(sup, n)
    if j == 0:
        return a
    if isinstance(a, OperatorSum):
        return OperatorSum(a.site_dim, tuple((w, gamma_pow(op, n, j)) for w, op in a.terms))
    return relabel(a, {s: (s - 1 - j) % n + 1 for s in sup})


def gamma_average(a, volume) -> OperatorSum:
    """The averaged shift (1/N) sum_j gamma^j, as an N-fold term list.

    Accepts a :class:`LocalOperator` or an :class:`OperatorSum`; no
    densification happens.
    """
    n = check_volume(volume)
    if isinstance(a, LocalOperator):
        a = a.as_sum()
    return _shift_average(a, n, range(n))


def _meeting_average(seq, n: int, region) -> OperatorSum:
    """The terms of ``eval_gamma_sequence(seq, n)`` whose support meets ``region``.

    gamma^j carries seed site x onto site y exactly when j = x - y (mod n),
    so at most |support| * |region| shifts are built, whatever n is.
    """
    if n < seq.window:
        return zero_sum(seq.seed.site_dim)
    shifts = sorted({(x - y) % n for x in seq.seed.support for y in region if y <= n})
    return _shift_average(seq.seed.as_sum(), n, shifts)


def _shift_average(a: OperatorSum, n: int, shifts) -> OperatorSum:
    """The terms (w / n) gamma^j(op) of the shift average, for ascending j in ``shifts``.

    Shifted terms merge only when they share a support.  So when ``shifts``
    holds every j whose shifted support meets some region, the result is the
    full average's terms on that region: same weights, same order.
    """
    terms = []
    for w, op in a.terms:
        for j in shifts:
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
