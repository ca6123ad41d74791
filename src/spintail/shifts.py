"""Cyclic left shift on a finite volume, its powers and its average, for both algebras.

The shift acts by relabeling supports, never through permutation matrices:
a factor at site x moves to site ((x - 1 - j) mod N) + 1 under j
applications.  On elementary tensors this sends
a_1 (x) a_2 (x) ... (x) a_N to a_2 (x) ... (x) a_N (x) a_1.

An element is a :class:`~spintail.localops.LocalOperator`, an
:class:`~spintail.localops.OperatorSum` or a trigonometric observable of
:mod:`spintail.classical`.  Each moves its sites by ``_moved(moves)``, a
piecewise translation (:func:`~spintail.localops.relabel`), lists a sum's
terms with their sites by ``_parts()`` and sums terms in order by
``_of(terms)``, so :func:`gamma_pow` and the one shift average,
:func:`gamma_average`, serve both algebras.  Given a local region (a probe's
support), the average builds only the shifts carrying some term onto it, so
work does not grow with N.
"""

from __future__ import annotations

from .errors import ContractViolation
from .localops import check_volume, fits_volume, is_integer, norm

__all__ = [
    "gamma_pow",
    "gamma_average",
    "eval_gamma_sequence",
    "is_gamma_invariant",
]


def gamma_pow(a, volume, j: int):
    """Apply j cyclic left shifts to any element, norm-preserving: two translations of its
    supports, sites 1..j right by n - j and the rest left by j."""
    n = check_volume(volume, a)
    if not is_integer(j):
        raise ContractViolation(f"shift powers are integers, got {j!r}")
    j = int(j) % n
    if j == 0:
        return a
    return a._moved(((1, n - j), (j + 1, -j)))


def _meeting_shifts(support, n: int, region=None):
    """Ascending shifts j: every one, or with a ``region`` those meeting it.

    gamma^j carries site x onto site y exactly when j = x - y (mod n), so a
    region keeps at most |support| * |region| shifts, whatever n is.  Region
    sites outside the volume meet nothing.
    """
    if region is None:
        return range(n)
    return sorted({(x - y) % n for x in support for y in region if 1 <= y <= n})


def gamma_average(a, volume, region=None):
    """The averaged shift (1/N) sum_j gamma^j(a), of an operator, a sum or a classical observable.

    For each shift j, in ascending order, the terms of ``a`` that j moves
    onto ``region`` (every term without one) are moved as one element by
    :func:`gamma_pow`; the moved elements are summed in that order, equal
    terms merging, and scaled by 1/N once.  With a ``region`` this gives the
    full average's terms meeting it, with the same values and order, since
    each such term collects the same contributions in the same order.
    """
    n = check_volume(volume)
    a = a.as_sum()
    carried: dict[int, list] = {}
    for sites, term in a._parts():
        for j in _meeting_shifts(sites, n, region):
            carried.setdefault(j, []).append(term)
    moved = [
        gamma_pow(a if len(terms) == len(a.terms) else a._of(terms), n, j)
        for j, terms in sorted(carried.items())
    ]
    return a._of([t for m in moved for t in m.terms]).scale(1.0 / n)


def eval_gamma_sequence(seq, volume, region=None):
    """:func:`gamma_average` of ``seq.seed``, on ``region`` if given; zero until the seed fits."""
    n = check_volume(volume)
    if not fits_volume(seq.seed.support, n):
        return seq.seed.as_sum().scale(0)
    return gamma_average(seq.seed, n, region)


def is_gamma_invariant(a, volume) -> bool:
    """True iff one shift moves the operator by at most 1e-10 in norm."""
    n = check_volume(volume)
    s = a.as_sum()
    diff = gamma_pow(s, n, 1) - s
    return norm(diff, n).value <= 1e-10
