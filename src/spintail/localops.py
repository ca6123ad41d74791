"""Support-aware operators on finite chain volumes.

An operator here is a complex scalar times a tensor product of dense factors
acting on disjoint finite sets of sites; identities are implicit everywhere
else.  Each factor record is a :class:`Block`, one matrix on a tuple of sites
(a single block is the ordinary (support, dense matrix) local operator), or a
:class:`Run`, one one-site matrix repeated on every site of a few ranges, so
a sitewise product over N sites is one record per distinct factor and its
norm, state value, adjoint, shifts and products read ranges, not its N sites,
which are expanded into one-site blocks only where a dense matrix is built.
Sums of such operators are kept as term lists.

Basis convention (bit-exact, relied on by tests and serialized data): site 1
is the most significant tensor factor, so a basis state with digit ``j_x`` at
site ``x`` of a volume of ``N`` sites has index ``sum_x j_x * d**(N - x)``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ContractViolation
from .matrices import DENSE_DIM_CAP, adjoint, check_finite, is_self_adjoint, operator_norm_dense

__all__ = [
    "Block",
    "Run",
    "LocalOperator",
    "OperatorSum",
    "TracePoint",
    "local_operator",
    "from_site_factors",
    "pauli_at",
    "operator_sum",
    "product",
    "commutator",
    "sum_commutator",
    "sum_product",
    "norm",
    "dense_matrix",
    "relabel",
]

# Bytes of one vector of the Krylov kernel, whose length is dim on a
# self-adjoint sum (a or i a) and 2 dim on the dilation of any other: 2**23
# complex or 2**24 float64 amplitudes, so on qubits a complex sum reaches 2**23
# states (2**22 on the dilation) and a real one off i a 2**24 (2**23).
# Lanczos peaks at about 36 kernel vectors: its ITERATIVE_BASIS rows, the
# result of an apply, one or two dim-length scratch vectors for the apply
# plan, and the Gram-Schmidt temporaries.  Tracemalloc at N = 14 and 16, in
# kernel vectors, on a: real symmetric two-site shift average (which
# restarts) 36.3 and 36.1 in complex arithmetic, 36.4 and 36.1 in float64,
# rotated sigma3 35.2 and 35.0, rotated sigma1 sigma1 (whose wrap bond is a
# two-step chain) 36.2 and 36.0; on the dilation, the last two seeds with
# each factor times diag(1, exp(i pi / 3)) 34.6 and 34.5, and 35.2 and 35.1,
# and a random complex two-site average 34.7 and 34.6.  So about 4.5 GiB at
# the cap, in either dtype.
ITERATIVE_STATE_CAP = 2**27
# the ``method`` values :func:`norm` accepts
NORM_METHODS = ("dense", "iterative", "auto")
# Convergence: the dominant Ritz pair's residual norm is at most this times
# |theta| (or at the rounding level _ROUNDING_RESIDUAL, whichever is larger).
ITERATIVE_TOL = 1e-9
# Applies of the kernel's operator (a, i a or the dilation) before a norm is
# reported unconverged.
ITERATIVE_MAX_ITER = 10000
# Basis vectors before a thick restart, which keeps (ITERATIVE_BASIS - 1) // 2
# Ritz vectors.
ITERATIVE_BASIS = 32

# Largest compacted dimension that method="auto" sends to the dense eigensolve,
# for a complex sum and for a real one (:func:`_is_real`: every weight, scalar
# and block with an exactly zero imaginary part); above it, and above
# dense_cap, auto takes Lanczos.  Best-of-5 milliseconds per norm, dense vs
# iterative, lowest to highest over three random draws of each shift average,
# at one OpenBLAS thread on a 2-vCPU Intel Xeon VM (numpy 2.4), with the
# kernel testing its Ritz pairs every few applies (host speed drifts up to 2x:
# compare within a row).  Complex: rotated sigma3 and rotated sigma1
# sigma1 run on a, a random complex two-site seed on the dilation; real: a
# random two-site seed that is symmetric (on a, in float64), antisymmetric (on
# i a, complex) or neither (on the dilation, in float64):
#
#   dim  rotated sigma3        rotated sigma1 sigma1  complex two-site
#    64  0.68-0.71 vs 0.93-1.0  0.73-0.80 vs 1.1      0.87-0.94 vs 6.5-8.4
#   128  2.1-2.2   vs 0.90-0.96 2.2       vs 0.87-0.90 2.2-3.1  vs 4.4-10
#   256  7.8-8.7   vs 0.67-1.1  7.6-7.8   vs 0.64-0.66 10       vs 5.6-8.8
#   512  46-47     vs 0.88-0.94 46-49     vs 0.74-0.81 64-66    vs 7.5-11
#
#   dim  symmetric             antisymmetric         neither
#    64  0.32-0.36 vs 1.5-2.3  0.29-0.42 vs 1.8-2.3  0.30-0.46 vs 4.1-7.0
#   128  0.77-1.1  vs 1.5-3.2  0.80-1.0  vs 2.1-3.0  0.84-1.0  vs 3.0-5.3
#   256  3.0-3.1   vs 1.9-3.8  3.1       vs 2.7-3.1  3.4-3.5   vs 3.7-6.9
#   512  14        vs 2.2-5.2  16-17     vs 3.3-4.3  17        vs 4.7-10
#
# At 1024 Lanczos leads by 10-300x on every seed.  The complex seeds cross over
# between 64 and 128 (the dilation's near 256).  The real ones split by route:
# at 256 Lanczos led on 5 of the 6 self-adjoint draws, and dense on the 3
# dilation draws, by 1.1-2x, so the real crossover stays at 256 until one
# crossover per route can weigh both.  On these draws both routes agree to
# 1e-13 relative, except where one start vector does not resolve a tight top
# pair (a symmetric draw at 1024: 2.2e-10, for a pair 2.4e-10 apart).
# DENSE_DIM_CAP, the memory cap, is a separate limit.
_AUTO_DENSE_DIM_COMPLEX = 64
_AUTO_DENSE_DIM_REAL = 256

# Neighbouring terms whose supports fit in a window of at most this many
# states are assembled into one dense block on the window (_compile_plan).
# Best-of-3 microseconds per apply of a for the shift averages of
# the table above, same machine:
#
#   window               2      4      8     16     32
#   N = 10  sigma3      62     31     26     24     16
#           sigma1^2   117     68     44     32     46
#           two-site    85     84     60     46     60
#   N = 14  sigma3     670    361    299    297    224
#           sigma1^2  1279    813    479    453    709
#           two-site  1087   1046    828    685    883
_WINDOW_DIM = 16
# A block on D contiguous states with R states after it runs as one 2-D GEMM
# against kron(M, I_R) when R == 1 or D * R is at most this, and otherwise as
# a batched matmul over the R-column slices, which is slow on thin slices.
# Microseconds per block at N = 14, folded 2-D GEMM / batched matmul:
#
#   D * R     D = 2       D = 4       D = 8       D = 16
#      8     33 / 511    35 / 596
#     16     64 / 417    65 / 411    65 / 501
#     32    101 / 207    99 / 220   101 / 250   102 / 406
#     64    178 / 115   176 / 128   175 / 152   180 / 227
#    128    351 /  84   358 /  94   347 /  63   221 /  84
_FOLD_TAIL_DIM = 32

# Rounding in one apply of a, i a or the dilation, scaled to norm bound
# sum |w| ||op|| <= 1, is about eps, so the residual of the dominant Ritz pair
# cannot fall much below eps.  The iterative norm also stops once that
# residual is at most this, which only matters for a sum that cancels to a
# norm below about 1e-5 of its bound.
_ROUNDING_RESIDUAL = 64 * float(np.finfo(float).eps)
# Applies between two Ritz tests of the Krylov kernel, away from the tests it
# must make.  One pass of the benchmark's norm_dense workload (seed 1: six
# Lanczos norms at dims 512 and 1024) runs 79 applies and 22 tests with a gap
# of 4, against 78 and 78 when every apply is tested, and its kernel time falls
# from 7.5 to 5.6 ms (best of 15, one OpenBLAS thread, 2-vCPU Intel Xeon VM).
# A gap of 3 is no faster (80 applies, 28 tests), nor is a schedule that
# extrapolates the residuals' decay to place each test (78 and 26, 5.5 ms).
_TEST_GAP = 4


def fits_volume(support, n: int) -> bool:
    """Whether the ascending sites ``support`` lie in the volume {1, ..., n}."""
    return not support or (support[0] >= 1 and support[-1] <= n)


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_volume(n, support=()) -> int:
    """Site count of the chain segment {1, ..., n}, which must hold ``support``.

    ``support`` is an ascending tuple of sites, or an operator or sum, of
    which only the first and last site (its ``ends``) are compared; its full
    ``support`` is built only to name it in the refusal.
    """
    if not is_integer(n) or n < 1:
        raise ContractViolation(f"volumes have at least one site, got {n}")
    n = int(n)
    if not fits_volume(getattr(support, "ends", support), n):
        support = getattr(support, "support", support)
        raise ContractViolation(f"support {support} does not fit in volume of {n} sites")
    return n


@dataclass(frozen=True, eq=False)
class Block:
    """Dense matrix acting jointly on an ascending tuple of sites.

    Its matrix is read-only, frozen once where it is made (:func:`_read_only`).
    """

    sites: tuple[int, ...]
    matrix: np.ndarray

    # copies of the matrix in the operator's product
    count = 1

    @property
    def first(self) -> int:
        return self.sites[0]

    @property
    def last(self) -> int:
        return self.sites[-1]

    @property
    def width(self) -> int:
        """Sites one copy of the matrix acts on."""
        return len(self.sites)

    def each_site(self):
        return self.sites


@dataclass(frozen=True, eq=False)
class Run:
    """One one-site matrix on every site of ``ranges``: a sitewise product's factor.

    ``ranges`` holds its sites as ascending ranges in the normal form of
    :func:`_ranges`, so its size (``count``) and ends are read off its ranges,
    and it is moved and met by range arithmetic.  A run has at least two
    sites; one site is a :class:`Block` (:func:`_sitewise`).  :meth:`pieces`
    expands it into one-site blocks, which only a dense build needs.
    """

    ranges: tuple[range, ...]
    matrix: np.ndarray

    width = 1

    @property
    def first(self) -> int:
        return self.ranges[0][0]

    @property
    def last(self) -> int:
        return self.ranges[-1][-1]

    @property
    def count(self) -> int:
        return sum(map(_size, self.ranges))

    def each_site(self):
        return itertools.chain.from_iterable(self.ranges)

    def pieces(self) -> tuple[Block, ...]:
        return tuple(Block((x,), self.matrix) for x in self.each_site())


_range_start = operator.attrgetter("start")


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, frozen: each block matrix is frozen once, where it is made."""
    matrix.flags.writeable = False
    return matrix


def _size(r: range) -> int:
    """The sites of ``r``; ``len`` refuses a range of more than ``sys.maxsize`` sites."""
    return (r[-1] - r[0]) // r.step + 1 if r else 0


def _sitewise(matrix, ranges) -> Block | Run:
    """The one-site ``matrix`` on every site of ``ranges`` (ascending ranges,
    not all empty): a :class:`Run` on their normal form (:func:`_ranges`), or
    a :class:`Block` on a single site.  Every run is made here."""
    ranges = _ranges(ranges)
    if len(ranges) == 1 and _size(ranges[0]) == 1:
        return Block((ranges[0][0],), matrix)
    return Run(ranges, matrix)


def _ranges(ranges) -> tuple[range, ...]:
    """The sites of ascending ``ranges`` in normal form: each range as long as it can be, from
    the left.  A site extends the last range when that holds one site or the site is one step
    past it.  Replayed per range, on its first site and then on the rest at once (which all
    extend, or all start one range), the rule walks no site."""
    out: list[range] = []
    for r in ranges:
        for part in filter(None, (r[:1], r[1:])):
            if out and (_size(out[-1]) == 1 or part[0] - out[-1][-1] == out[-1].step):
                out[-1] = range(out[-1].start, part[-1] + 1, part[0] - out[-1][-1])
            else:
                out.append(part)
    return tuple(out)


def _cut(r: range, site: int) -> tuple[range, range]:
    """``r`` cut into its sites below ``site`` and the rest."""
    k = _size(range(r.start, site, r.step))
    return r[:k], r[k:]


def _meet(r: range, q: range) -> range:
    """The sites two ranges share, as one range of step lcm(r.step, q.step), or empty."""
    g = math.gcd(r.step, q.step)
    if not (r and q) or (q.start - r.start) % g:
        return range(0)
    step = r.step // g * q.step
    # r's first site congruent to q.start modulo q.step (Chinese remainder theorem)
    k = (q.start - r.start) // g * pow(r.step // g, -1, q.step // g) % (q.step // g)
    x, lo = r.start + k * r.step, max(r.start, q.start)
    return range(x - (x - lo) // step * step, min(r[-1], q[-1]) + 1, step)


def _less(r: range, sub: range) -> list[range]:
    """The sites of ``r`` outside ``sub``, a range of its sites, as ascending ranges."""
    if not sub:
        return [r]
    k, m = (sub.start - r.start) // r.step, sub.step // r.step
    end = k + (_size(sub) - 1) * m
    # the sites between sub's: none for m = 1, one range for m = 2, else m - 1 at a time
    gaps = [r[i + 1 : i + m] for i in range(k, end, m)] if m > 2 else [r[k + 1 : end : 2]] * (m - 1)
    return [r[:k], *gaps, r[end + 1 :]]


def _split(ranges, by) -> tuple[tuple[range, ...], tuple[range, ...]]:
    """``(inside, outside)``: the sites of the ascending ``ranges`` that the ascending ``by``
    hold and the rest, in normal form.  One merge pass: a range meets only the ranges of
    ``by`` whose span overlaps its own, so the cost is linear in the ranges in and out."""
    inside, outside, i = [], [], 0
    for r in ranges:
        while i < len(by) and by[i][-1] < r[0]:
            i += 1
        j = i
        while r and j < len(by) and by[j][0] <= r[-1]:
            q = by[j]
            before, r = _cut(r, q[0])
            span, r = _cut(r, q[-1] + 1)
            common = _meet(span, q)
            inside.append(common)
            outside += [before, *_less(span, common)]
            j += 1
        outside.append(r)
    return _ranges(inside), _ranges(outside)


def _pieces(blocks):
    """``blocks`` with each run expanded into one-site blocks, in first-site order."""
    if not any(isinstance(b, Run) for b in blocks):
        return blocks
    pieces = (p for b in blocks for p in (b.pieces() if isinstance(b, Run) else (b,)))
    return sorted(pieces, key=_first)


_first = operator.attrgetter("first")


def _check_block(sites, matrix, d) -> Block:
    given = tuple(sites)
    if not given:
        raise ContractViolation("blocks need at least one site; use the scalar field")
    if not all(map(is_integer, given)) or given[0] < 1 or list(given) != sorted(set(given)):
        raise ContractViolation(f"block sites are strictly increasing integers >= 1, got {given}")
    sites = tuple(map(int, given))
    matrix = check_finite(matrix)
    dim = d ** len(sites)
    if matrix.shape != (dim, dim):
        raise ContractViolation(
            f"block on {len(sites)} sites of local dimension {d} needs shape "
            f"({dim}, {dim}), got {matrix.shape}"
        )
    return Block(sites, _read_only(matrix.copy()))


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """``scalar *`` tensor product of disjoint-support blocks (identity elsewhere).

    Canonical form: records sorted by first site, none exactly zero or
    exactly the identity, a :class:`Run` on at least two sites, and zero
    stored as ``0j`` with no blocks.
    """

    site_dim: int
    scalar: complex
    blocks: tuple[Block, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(s for b in self.blocks for s in b.each_site()))

    @property
    def ends(self) -> tuple[int, ...]:
        """``(first, last)`` site of the support, or ``()`` with no blocks."""
        if not self.blocks:
            return ()
        return self.blocks[0].first, max(b.last for b in self.blocks)

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0

    # adjoint maps canonical form to canonical form, so it builds the result
    # directly, not through _make_op; ``or 0j`` stores any zero as 0j.  Each
    # record keeps its sites: a run stays one run.

    def adjoint(self) -> LocalOperator:
        blocks = tuple(replace(b, matrix=_read_only(adjoint(b.matrix))) for b in self.blocks)
        return LocalOperator(self.site_dim, self.scalar.conjugate() or 0j, blocks)

    def as_sum(self) -> OperatorSum:
        return OperatorSum(self.site_dim, () if self.is_zero else ((1 + 0j, self),))

    def _moved(self, moves) -> LocalOperator:
        return relabel(self, moves)

    def norm_exact(self, dim_cap: int = DENSE_DIM_CAP) -> float:
        """Operator norm, exact via multiplicativity across disjoint factors.

        Each record's matrix is solved once and its norm raised to the
        record's ``count`` (:func:`_power`), so a run costs one solve at any
        length, and a product that underflows returns 0, not a denormal.
        """
        out = abs(self.scalar)
        for b in self.blocks:
            out *= _power(operator_norm_dense(b.matrix, dim_cap), b.count)
        return float(out)

    def __repr__(self) -> str:
        blocks = ",".join(
            "{" + ",".join(map(str, b.sites if type(b) is Block else b.ranges)) + "}"
            for b in self.blocks
        )
        return (
            f"LocalOperator(d={self.site_dim}, scalar={self.scalar:.6g}, "
            f"blocks=[{blocks}])"
        )


def _power(x, count: int):
    """``x ** count`` for a positive integer ``count``, by repeated squaring.

    Only multiplications, so a real value held as a complex keeps an exact
    zero imaginary part (``complex ** int`` goes through the polar form
    above small exponents), and ``x`` itself comes back for a count of 1.
    """
    out = None
    while True:
        if count & 1:
            out = x if out is None else out * x
        count >>= 1
        if not count:
            return out
        x = x * x


def _make_op(site_dim, scalar, blocks, kept=()) -> LocalOperator:
    """The one exact-zero/exact-identity test, run once on each new block.

    ``blocks`` were just computed or just taken from a caller; ``kept`` are
    blocks of canonical operators and pass through untested.  All of them
    are pairwise disjoint.
    """
    scalar = complex(scalar)
    out = list(kept)
    for b in blocks:
        if not np.count_nonzero(b.matrix):
            scalar = 0j
            break
        if not np.array_equal(b.matrix, np.eye(b.matrix.shape[0])):
            out.append(b)
    if scalar == 0:
        return LocalOperator(site_dim, 0j, ())
    out.sort(key=_first)
    return LocalOperator(site_dim, scalar, tuple(out))


def local_operator(matrix, sites, site_dim: int = 2) -> LocalOperator:
    """Operator given by one dense ``matrix`` on the ascending ``sites`` tuple.

    An empty ``sites`` tuple with a 1x1 ``matrix`` denotes a scalar multiple
    of the identity.
    """
    sites = tuple(sites)
    if not sites:
        matrix = check_finite(matrix)
        if matrix.shape != (1, 1):
            raise ContractViolation("empty support requires a 1x1 matrix")
        return _make_op(site_dim, complex(matrix[0, 0]), [])
    return _make_op(site_dim, 1.0, [_check_block(sites, matrix, site_dim)])


def from_site_factors(factors: dict[int, np.ndarray], site_dim: int = 2) -> LocalOperator:
    """Product operator with one single-site factor per entry of ``factors``."""
    blocks = [_check_block((s,), m, site_dim) for s, m in sorted(factors.items())]
    return _make_op(site_dim, 1.0, blocks)


def zero_op(site_dim: int = 2) -> LocalOperator:
    return LocalOperator(site_dim, 0j, ())


def pauli_at(kind, site: int) -> LocalOperator:
    from .matrices import pauli

    return local_operator(pauli(kind), (site,))


@dataclass(frozen=True, eq=False)
class OperatorSum:
    """Formal complex-weighted sum of :class:`LocalOperator` terms."""

    site_dim: int
    terms: tuple[tuple[complex, LocalOperator], ...]

    @property
    def support(self) -> tuple[int, ...]:
        if len(self.terms) == 1:  # no union needed; every shift of a one-term seed asks
            return self.terms[0][1].support
        return tuple(sorted({s for _, op in self.terms for s in op.support}))

    @property
    def ends(self) -> tuple[int, ...]:
        """``(first, last)`` site of the union support, or ``()`` when it is empty."""
        ends = [op.ends for _, op in self.terms if op.blocks]
        return (min(e[0] for e in ends), max(e[1] for e in ends)) if ends else ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # one-to-one on canonical terms: nothing merges, only exact-0 weights drop

    def scale(self, c: complex) -> OperatorSum:
        terms = ((complex(c * w), op) for w, op in self.terms)
        return OperatorSum(self.site_dim, tuple(t for t in terms if t[0] != 0))

    def adjoint(self) -> OperatorSum:
        terms = tuple((w.conjugate(), op.adjoint()) for w, op in self.terms)
        return OperatorSum(self.site_dim, terms)

    def __add__(self, other: OperatorSum) -> OperatorSum:
        _same_dim(self, other)
        return operator_sum(list(self.terms) + list(other.terms), self.site_dim)

    def __sub__(self, other: OperatorSum) -> OperatorSum:
        return self + other.scale(-1.0)

    def __mul__(self, other: OperatorSum) -> OperatorSum:
        return sum_product(self, other)

    def as_sum(self) -> OperatorSum:
        return self

    # the shift protocol of spintail.shifts, shared with the classical observables
    def _moved(self, moves) -> OperatorSum:
        return OperatorSum(self.site_dim, tuple((w, relabel(op, moves)) for w, op in self.terms))

    def _parts(self):
        return [(op.support, (w, op)) for w, op in self.terms]

    def _of(self, terms) -> OperatorSum:
        return operator_sum(terms, self.site_dim)

    def __repr__(self) -> str:
        ends = "..".join(map(str, dict.fromkeys(self.ends)))
        return f"OperatorSum(d={self.site_dim}, {len(self.terms)} terms on {{{ends}}})"


def _same_dim(a, b):
    if a.site_dim != b.site_dim:
        raise ContractViolation(
            f"mismatched site dimensions: {a.site_dim} vs {b.site_dim}"
        )


def _op_fingerprint(op: LocalOperator):
    """Hashable value of ``op``: its scalar and each record's sites (a run's
    ranges) and matrix bytes."""
    return (
        op.scalar,
        tuple((b.sites if type(b) is Block else b.ranges, b.matrix.tobytes()) for b in op.blocks),
    )


def operator_sum(terms, site_dim: int | None = None) -> OperatorSum:
    """Build an :class:`OperatorSum`.

    Terms with value-identical operators are merged by summing coefficients,
    so differences of equal sums cancel to the empty term list exactly;
    exactly-zero terms are dropped.
    """
    merged: dict = {}
    for w, op in terms:
        w = complex(w)
        if site_dim is None:
            site_dim = op.site_dim
        elif op.site_dim != site_dim:
            raise ContractViolation("all terms of a sum must share site_dim")
        if w == 0 or op.is_zero:
            continue
        key = _op_fingerprint(op)
        if key in merged:
            merged[key] = (merged[key][0] + w, merged[key][1])
        else:
            merged[key] = (w, op)
    if site_dim is None:
        raise ContractViolation("cannot infer site_dim of an empty sum; pass it explicitly")
    kept = tuple((w, op) for w, op in merged.values() if w != 0)
    return OperatorSum(site_dim, kept)


def zero_sum(site_dim: int = 2) -> OperatorSum:
    return OperatorSum(site_dim, ())


def _moved_site(moves, site: int) -> int:
    """Where the piecewise translation ``moves`` (see :func:`relabel`) carries ``site``."""
    return site + moves[bisect.bisect_right(moves, (site, math.inf)) - 1][1]


def _shifted(ranges, moves):
    """The ascending ``ranges`` cut where the pieces of ``moves`` change, each part shifted."""
    for r in ranges:
        i = bisect.bisect_right(moves, (r[0], math.inf)) - 1
        while r:
            part, r = _cut(r, moves[i + 1][0]) if i + 1 < len(moves) else (r, range(0))
            yield range(part.start + moves[i][1], part.stop + moves[i][1], part.step)
            i += 1


def relabel(op: LocalOperator, moves) -> LocalOperator:
    """``op`` with its sites moved by the piecewise translation ``moves``.

    ``moves`` holds ascending ``(start, offset)`` pairs, the first at or below every site:
    a site from ``start`` up to the next pair's moves by ``offset``.  The move is one-to-one
    on the support, so canonical form is kept.  A block moves site by site, its tensor legs
    permuted to match; a run's ranges are cut where the pieces change and each part shifted.
    """
    d = op.site_dim
    blocks = []
    for b in op.blocks:
        if isinstance(b, Run):
            blocks.append(_sitewise(b.matrix, sorted(_shifted(b.ranges, moves), key=_range_start)))
            continue
        new = [_moved_site(moves, s) for s in b.sites]
        sites = tuple(sorted(new))
        mat = b.matrix
        if list(sites) != new:
            legs = sorted(range(len(new)), key=new.__getitem__)
            axes = legs + [i + len(legs) for i in legs]
            mat = _read_only(mat.reshape((d,) * len(axes)).transpose(axes).reshape(mat.shape))
        blocks.append(Block(sites, mat))
    blocks.sort(key=_first)
    return LocalOperator(d, op.scalar, tuple(blocks))


# ---------------------------------------------------------------------------
# dense materialization

_ONE = np.ones((1, 1), dtype=complex)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy's ``kron`` of two matrices, bit for bit: each entry one product ``a_ij * b_kl``."""
    return np.multiply(a[:, None, :, None], b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _assemble(terms, sites, d, dim_cap, dtype=complex) -> np.ndarray:
    """Dense matrix of ``sum w * scalar * (x) blocks`` on the ascending tuple ``sites``.

    ``terms`` holds ``(w, scalar, blocks)`` triples, whose runs are expanded
    here into one-site blocks.  The output is allocated once, as ``dtype``.
    Each term adds ``w * (scalar * K)``, with ``K`` the Kronecker product of
    its blocks, along the diagonal of its spectator sites, at the basis
    indices of one transpose of the index tensor to the legs (covered,
    spectators): O(dim * K.shape[0]) work, with no identity factor and no
    permuted copy.  A float ``dtype`` keeps the real parts, which is exact
    for terms with an exactly zero imaginary part: a complex product of such
    factors rounds as the real one.
    """
    dim = d ** len(sites)
    if dim > dim_cap:
        raise CapacityError(
            f"dense materialization at dimension {_dim_text(d, len(sites))} exceeds cap {dim_cap}"
        )
    index = np.arange(dim).reshape((d,) * len(sites))
    out = np.zeros((dim, dim), dtype=dtype)
    for w, scalar, blocks in terms:
        blocks = _pieces(blocks)
        covered = [sites.index(s) for b in blocks for s in b.sites]
        spectators = [i for i in range(len(sites)) if i not in covered]
        kron = reduce(_kron, [b.matrix for b in blocks]) if blocks else _ONE
        # ufunc calls, not operators: numpy may evaluate ``c * temporary`` in
        # place as ``temporary * c``, and complex products round differently
        # with the operands swapped
        block = np.multiply(w, np.multiply(scalar, kron))
        if out.dtype.kind == "f":
            block = block.real
        idx = index.transpose(covered + spectators).reshape(len(block), -1)
        out[idx[:, None], idx[None, :]] += block[:, :, None]
    return out


def dense_matrix(obj, volume, dim_cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Full d^N x d^N matrix of an operator or sum on the given volume."""
    n = check_volume(volume, obj)
    terms = [(w, op.scalar, op.blocks) for w, op in obj.as_sum().terms]
    return _assemble(terms, tuple(range(1, n + 1)), obj.site_dim, dim_cap)


# ---------------------------------------------------------------------------
# products and commutators


def _overlap_components(blocks_a, blocks_b):
    """Blocks of two operators grouped by support-overlap connectivity, as
    (a-blocks, b-blocks) pairs in order of each component's first block.  Blocks
    within one operator are disjoint, so a component of two blocks or more
    mixes both operators."""
    nodes = [(0, b) for b in blocks_a] + [(1, b) for b in blocks_b]
    parent, owner = list(range(len(nodes))), {}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (_, blk) in enumerate(nodes):
        for s in blk.sites:
            parent[find(i)] = find(owner.setdefault(s, i))
    comps: dict[int, tuple[list, list]] = {}
    for i, (side, blk) in enumerate(nodes):
        comps.setdefault(find(i), ([], []))[side].append(blk)
    return list(comps.values())


def _split_overlaps(blocks_a, blocks_b):
    """``(shared, pairs, rest)``: the overlap components of blocks holding blocks of
    both operators, as (a-blocks, b-blocks) pairs; ``(ranges, a-matrix, b-matrix)``
    where two runs meet, one one-site component per site of ``ranges``; every
    other record.  From a block, a run gives up only the block's own sites, as
    one-site blocks in its component; what remains of a run stays one record.
    """
    nodes, pairs, rest = ([], []), [], []
    for side, (mine, other) in enumerate(((blocks_a, blocks_b), (blocks_b, blocks_a))):
        for x in mine:
            if isinstance(x, Block):
                nodes[side].append(x)
                continue
            left = x.ranges
            for y in other:
                if isinstance(y, Run):
                    taken, left = _split(left, y.ranges)
                    if taken and not side:
                        pairs.append((taken, x.matrix, y.matrix))
                else:
                    taken, left = _split(left, tuple(range(s, s + 1) for s in y.sites))
                    nodes[side].extend(Block((s,), x.matrix) for r in taken for s in r)
            if left:
                rest.append(_sitewise(x.matrix, left))
    comps = _overlap_components(*(sorted(n, key=_first) for n in nodes))
    rest += [blk for c in comps if not all(c) for blk in c[0] + c[1]]
    return [c for c in comps if all(c)], pairs, rest


def _overlap_size(shared, pairs) -> tuple[int, int]:
    """``(components, sites)`` of a :func:`_split_overlaps`, counted on the runs' ranges."""
    common = sum(_size(r) for ranges, _, _ in pairs for r in ranges)
    sites = sum(len({s for blk in x + y for s in blk.sites}) for x, y in shared)
    return len(shared) + common, sites + common


def _densify(ablks, bblks, d):
    """The sites of ``ablks`` and ``bblks`` and the dense matrix of each list on them."""
    sites = tuple(sorted({s for blk in ablks + bblks for s in blk.sites}))
    am = _assemble([(1.0, 1.0, ablks)], sites, d, DENSE_DIM_CAP)
    return sites, am, _assemble([(1.0, 1.0, bblks)], sites, d, DENSE_DIM_CAP)


def _dim_within(d: int, sites: int, cap: int) -> bool:
    """Whether ``d ** sites <= cap``, without forming a huge power."""
    return d ** min(sites, int(cap).bit_length() + 1) <= cap


def _dim_text(d: int, sites: int, times: int = 1) -> str:
    """``times * d**sites``, as that product past 2**64 (Python writes no int of 4300 digits)."""
    if _dim_within(d, sites, 2**64):
        return str(times * d**sites)
    return f"{times} * {d}**{sites}".removeprefix("1 * ")


def product(a: LocalOperator, b: LocalOperator) -> LocalOperator:
    """Operator product: overlap components of blocks densified, two runs' common sites one run."""
    _same_dim(a, b)
    d, scalar = a.site_dim, a.scalar * b.scalar
    if scalar == 0:
        return zero_op(d)
    shared, pairs, rest = _split_overlaps(a.blocks, b.blocks)
    new = [_sitewise(_read_only(ma @ mb), ranges) for ranges, ma, mb in pairs]
    new += [Block(s, _read_only(am @ bm)) for s, am, bm in (_densify(*c, d) for c in shared)]
    return _make_op(d, scalar, new, rest)


def commutator(a: LocalOperator, b: LocalOperator) -> LocalOperator:
    """``a b - b a`` as one operator; exactly zero, with no matrix work, for disjoint supports.

    The union of the overlaps is densified; :func:`sum_commutator` states the caps,
    which are checked on counted sites before any run's common sites are listed.
    """
    _same_dim(a, b)
    d = a.site_dim
    shared, pairs, rest = _split_overlaps(a.blocks, b.blocks)
    if not (shared or pairs):
        return zero_op(d)
    parts, union = _overlap_size(shared, pairs)
    if parts > 1 and not _dim_within(d, union, DENSE_DIM_CAP):
        raise CapacityError(
            f"commutator overlaps need dimension {_dim_text(d, union)}, above the cap "
            f"{DENSE_DIM_CAP}; sum_commutator keeps operators that meet on several overlaps "
            "as two factored products"
        )
    shared += [([Block((s,), x)], [Block((s,), y)]) for rs, x, y in pairs for r in rs for s in r]
    sites, am, bm = _densify(*([blk for c in shared for blk in c[k]] for k in (0, 1)), d)
    comm = _read_only(am @ bm - bm @ am)
    return _make_op(d, a.scalar * b.scalar, [Block(sites, comm)], rest)


def _keeps_factored(d: int, shared, pairs, rest) -> bool:
    """Whether :func:`sum_commutator` keeps a split meeting pair as ``a b`` and ``- b a``.

    Densified, the union U of several separate overlaps costs matrix products
    and a dense eigensolve cubic in U; factored, the router norms the pair on
    its joint support J.  Factored wins when U is above ``DENSE_DIM_CAP``, or
    above the real sums' crossover ``_AUTO_DENSE_DIM_REAL`` while J is within
    the cap (x^12 against z^12: 21 s and 1.3 GB densified, 30 ms factored,
    one OpenBLAS thread, 2-vCPU Intel Xeon VM).
    """
    parts, union = _overlap_size(shared, pairs)
    joint = union + sum(b.count * b.width for b in rest)
    return parts > 1 and not _dim_within(d, union, _AUTO_DENSE_DIM_REAL) and (
        not _dim_within(d, union, DENSE_DIM_CAP) or _dim_within(d, joint, DENSE_DIM_CAP)
    )


def sum_product(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    _same_dim(a, b)
    terms = []
    for wa, oa in a.terms:
        for wb, ob in b.terms:
            terms.append((wa * wb, product(oa, ob)))
    return operator_sum(terms, a.site_dim)


def sum_commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Termwise commutator; term pairs with disjoint supports are skipped.

    Products densify each overlap component, and commutators the union of
    their overlaps, each up to ``DENSE_DIM_CAP``.  A pair that meets on
    several overlaps whose union is too large to densify cheaply
    (:func:`_keeps_factored`) is kept as two factored products.  A norm's
    ``dense_cap`` caps only the matrices the norm builds.
    """
    _same_dim(a, b)
    terms = []
    for wa, oa in a.terms:
        for wb, ob in b.terms:
            shared, pairs, rest = _split_overlaps(oa.blocks, ob.blocks)
            if not (shared or pairs):
                continue
            if _keeps_factored(a.site_dim, shared, pairs, rest):
                terms += [(wa * wb, product(oa, ob)), (-wa * wb, product(ob, oa))]
            else:
                terms.append((wa * wb, commutator(oa, ob)))
    return operator_sum(terms, a.site_dim)


# ---------------------------------------------------------------------------
# matrix-free application: a compiled apply plan
#
# An iterative norm applies the same sum hundreds of times, so it compiles the
# sum once into a plan: a tuple of chains, each a tuple of steps run in order,
# whose results are summed.  Coefficients are folded into the blocks.  On a
# contiguous support a step is one GEMM on a view of the flat state, with no
# transpose.


class _Step(NamedTuple):
    """One block of a plan: ``matrix`` applied to the ``shape`` view of a flat state.

    On a contiguous support with ``lead`` states before it, ``D`` on it and
    ``tail`` after it, ``shape`` is ``(lead, D * tail)`` and ``matrix`` is
    ``kron(M, I_tail).T``, or ``shape`` is ``(lead, D, tail)`` and ``matrix``
    is ``M``; ``axes`` is None.  On any other support ``axes`` holds the tensor
    legs of its sites, ``shape`` is ``(d,) * m`` and ``matrix`` is ``M`` as a
    ``(d,) * 2k`` tensor.
    """

    matrix: np.ndarray
    shape: tuple[int, ...]
    axes: tuple[int, ...] | None


def _block_step(sites, mat, m, d) -> _Step:
    k = len(sites)
    if sites[-1] - sites[0] + 1 != k:
        return _Step(mat.reshape((d,) * (2 * k)), (d,) * m, tuple(s - 1 for s in sites))
    lead, dim, tail = d ** (sites[0] - 1), mat.shape[0], d ** (m - sites[-1])
    if tail == 1 or dim * tail <= _FOLD_TAIL_DIM:
        return _Step(_kron(mat, np.eye(tail)).T, (lead, dim * tail), None)
    return _Step(mat, (lead, dim, tail), None)


def _apply_block(step: _Step, src: np.ndarray, dst: np.ndarray) -> None:
    """``dst = step src`` for flat state vectors ``src`` and ``dst``."""
    mat, shape, axes = step
    if axes is None:
        if len(shape) == 2:
            np.matmul(src.reshape(shape), mat, out=dst.reshape(shape))
        else:
            np.matmul(mat, src.reshape(shape), out=dst.reshape(shape))
        return
    k = len(axes)
    out = np.tensordot(mat, src.reshape(shape), axes=(list(range(k, 2 * k)), list(axes)))
    dst.reshape(shape)[...] = np.moveaxis(out, range(k), axes)


def _compile_plan(terms, m: int, d: int, dtype=complex) -> tuple[tuple[_Step, ...], ...]:
    """The apply plan of ``sum w * op`` over ``terms`` on the sites {1..m}.

    A term whose support spans at most ``_WINDOW_DIM`` states joins the
    current window of neighbouring terms (in site order) while the window
    still spans at most ``_WINDOW_DIM`` states, and each window is assembled
    into one block on its sites.  Larger one-block terms are summed per
    support; larger multi-block terms keep their blocks as a chain, because a
    block on sites that are not contiguous takes the slower tensordot route
    (the two one-site factors of a wrap bond {1, m} take 75 us as a chain at
    N = 14, and 235 us as one block on {1, m}).  Summed per support, terms
    that are self-adjoint only together give one self-adjoint step, which the
    phase rule of :func:`_hermitian_phase` reads step by step: in ``a*a`` of
    a self-adjoint two-site average, neither ``op_i op_j`` nor ``op_j op_i``
    is self-adjoint, but their sum on the shared support is (as one-step
    chains they sent ``a*a`` at N = 8..10 to the dilation).
    Every step matrix is ``dtype``: windows and summed terms are assembled in
    it, and chain matrices cast once (a float keeps the real parts).
    """
    small, large, chains = [], {}, []
    for w, op in terms:
        blocks = _pieces(op.blocks)
        term = (w, op.scalar, blocks)
        support = op.support or (1,)
        if d ** (support[-1] - support[0] + 1) <= _WINDOW_DIM:
            small.append((support[0], support[-1], term))
        elif len(blocks) <= 1:
            large.setdefault(support, []).append(term)
        else:
            lead = np.multiply(w, np.multiply(op.scalar, blocks[0].matrix))
            mats = [lead] + [b.matrix for b in blocks[1:]]
            if np.dtype(dtype).kind == "f":
                mats = [np.ascontiguousarray(mat.real) for mat in mats]
            chains.append(tuple(_block_step(b.sites, mat, m, d) for b, mat in zip(blocks, mats)))
    windows = []
    for lo, hi, term in sorted(small, key=lambda t: t[0]):
        if windows and d ** (max(hi, windows[-1][1]) - windows[-1][0] + 1) <= _WINDOW_DIM:
            windows[-1][1] = max(hi, windows[-1][1])
            windows[-1][2].append(term)
        else:
            windows.append([lo, hi, [term]])
    groups = [(tuple(range(lo, hi + 1)), ts) for lo, hi, ts in windows] + list(large.items())
    blocks = [(_block_step(s, _assemble(ts, s, d, math.inf, dtype), m, d),) for s, ts in groups]
    return tuple(blocks + chains)


def _run_plan(plan, v: np.ndarray, out: np.ndarray, scratch) -> None:
    """``out = A v`` for the sum ``A`` that ``plan`` compiles.

    ``scratch`` holds one state vector, or two when some chain has more than
    one step; neither may be ``v`` or ``out``.
    """
    if not plan:
        out[...] = 0
    for i, chain in enumerate(plan):
        src = v
        for k, step in enumerate(chain):
            dst = out if i == 0 and k == len(chain) - 1 else scratch[k % 2]
            _apply_block(step, src, dst)
            src = dst
        if i:
            out += src


def _square(step: _Step) -> np.ndarray:
    """The matrix of ``step`` as a square matrix, the one the step applies or its transpose."""
    k = math.isqrt(step.matrix.size)
    return step.matrix.reshape(k, k)


def _adjoint_plan(plan):
    """The plan of ``a*`` from the plan of ``a``: each step's square matrix
    conjugate-transposed, in the same chains and order.  A chain's steps act
    on disjoint sites, so they commute, and its lead step then carries the
    conjugated weight."""

    def step_adjoint(s):
        return s._replace(matrix=np.ascontiguousarray(_square(s).conj().T).reshape(s.matrix.shape))

    return tuple(tuple(map(step_adjoint, chain)) for chain in plan)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class TracePoint:
    """One volume of a trace, the only per-point record from :func:`norm` to the
    report.  ``bound`` is the envelope or reference the value is checked against,
    if any; ``seconds`` (wall-clock), ``iterations`` (applies of the operator
    the Krylov kernel runs: ``a``, ``i a`` or the dilation) and ``route`` (the
    :func:`norm` route that made the point: ``exact``, ``decoupled``, ``dense``,
    ``lanczos-a``, ``lanczos-ia`` or ``lanczos-dilation``; empty on a point no
    norm made) never reach the report and are ignored by equality."""

    n: int
    value: float
    converged: bool = True
    bound: float | None = None
    seconds: float = field(default=0.0, compare=False)
    iterations: int = field(default=0, compare=False)
    route: str = field(default="", compare=False)


def _fits(op: LocalOperator, dense_cap) -> bool:
    """Whether every block of ``op`` is within ``dense_cap``, so its exact norm is dense."""
    return all(b.matrix.shape[0] <= dense_cap for b in op.blocks)


def _stacked(solve, mats: dict) -> dict:
    """``{key: row}`` for the dict ``mats``, the row of ``solve`` on its matrix:
    ``solve`` runs once per shape, on that shape's matrices stacked."""
    shapes: dict = {}
    for k, m in mats.items():
        shapes.setdefault(m.shape, {})[k] = m
    return {k: x for ms in shapes.values() for k, x in zip(ms, solve(np.stack([*ms.values()])))}


def _norm_bound(terms, dense_cap) -> float:
    """The upper bound on the norm of the sum of the terms that :func:`norm` scales by."""
    fits = [_fits(op, dense_cap) for _, op in terms]
    mats = {id(b.matrix): b.matrix for (_, op), ok in zip(terms, fits) if ok for b in op.blocks}
    two = _stacked(lambda x: np.linalg.svd(x, compute_uv=False)[:, 0], mats)
    total = 0.0
    for (w, op), ok in zip(terms, fits):
        each = (_power(float(two[id(b.matrix)] if ok else np.linalg.norm(b.matrix)), b.count)
                for b in op.blocks)
        total += abs(w * op.scalar) * math.prod(each)
    return total


def _compact_terms(s: OperatorSum):
    """Relabel the union support to {1..m} if it is not that; norms are invariant under this.

    ``m`` is at least 1, so a sum of identity multiples still has a site to act on.
    """
    union = s.support
    if union and union[-1] != len(union):
        # one piece per maximal block of consecutive sites
        moves = [(x, i + 1 - x) for i, x in enumerate(union) if not i or union[i - 1] != x - 1]
        return [(w, relabel(op, moves)) for w, op in s.terms], len(union)
    return s.terms, max(len(union), 1)


def _cgs2(basis, w):
    """Orthogonalize ``w`` in place against the orthonormal rows of ``basis``
    by classical Gram-Schmidt, twice; returns the coefficients and ``||w||``.
    A float64 basis takes no conjugates."""
    real = basis.dtype.kind == "f"
    coeffs = np.zeros(len(basis), dtype=basis.dtype)
    for _ in range(2):
        c = basis @ w if real else np.conj(basis @ np.conj(w))
        w -= c @ basis
        coeffs += c
    return coeffs, float(np.linalg.norm(w))


def _power_iteration_norm(apply, dim, rng, dtype=complex):
    """Largest ``|eigenvalue|`` of the self-adjoint operator ``apply`` on
    vectors of length ``dim`` and type ``dtype``, by thick-restart Lanczos.
    For ``float`` the operator is real symmetric, and the basis, ``T`` and
    the start vector (``dim`` standard normal draws) are float64.

    Lanczos with full reorthogonalization, one vector at a time: each basis
    row in turn is applied, orthogonalized against the whole basis and
    appended, so the coefficients form ``T = Q* A Q``.  It starts from one
    random vector.  The Ritz pairs at both ends of the spectrum of the
    applied part are tested (an ``eigh`` of ``T[:done, :done]``) after every
    ``_TEST_GAP``-th apply, and always before a restart, which needs the
    Ritz vectors, at an exhausted space and at the last apply.  The residual
    norm of a pair ``(theta, y)`` is ``||T[done:size, :done] y||``.  With
    ``theta`` the end of larger ``|theta|``, convergence needs its residual
    to be at most ``ITERATIVE_TOL * |theta|``, which puts ``theta`` that
    close to an eigenvalue, or at most the rounding level of one apply once
    :func:`norm` has scaled ``a`` to a norm bound of at most 1
    (``_ROUNDING_RESIDUAL``); and the other end ``theta'`` must pass the
    same test or be bounded below, ``|theta'| + res' < |theta|``.
    When the basis of ``ITERATIVE_BASIS`` vectors is full and cannot hold the
    whole space, it restarts thick (Wu and Simon, SIAM J. Matrix Anal. Appl.
    22, 2000) before the next apply: the ``(ITERATIVE_BASIS - 1) // 2`` Ritz
    vectors of largest ``|theta|``, from either end, of the test just before
    it replace the applied part, ``T`` becomes ``diag(theta)`` with the
    coupling rows ``T[done:size, :done] Y`` of the vectors not yet applied,
    and no Ritz vector is applied again.
    A Ritz value lies inside the spectrum, so the value does not exceed the
    norm beyond rounding.  One start vector cannot resolve a cluster
    narrower than about ``ITERATIVE_TOL * |theta|``, and the value may then
    fall inside it, at most its width below the norm (a real symmetric
    two-site shift average at N = 10 whose top pair is 2.4e-10 apart, relative,
    came back 1.5e-10 low).
    Returns ``(value, converged, applies)``.  (The name predates the Lanczos
    kernel; ``bench/tracing.py`` wraps it by name and counts the calls of
    its first argument, so ``dtype`` comes last.)
    """
    cap = min(ITERATIVE_BASIS, dim)
    keep = (ITERATIVE_BASIS - 1) // 2
    q = np.zeros((cap, dim), dtype=dtype)
    t = np.zeros((cap, cap), dtype=dtype)
    rng.standard_normal(out=q[0].view(np.float64))
    q[0] /= np.linalg.norm(q[0])
    size = 1
    done = applies = 0
    best = 0.0
    while done < size and applies < ITERATIVE_MAX_ITER:
        if size == cap < dim:
            # full: keep the Ritz vectors of largest |theta| (vals, vecs of the
            # last test), then the unapplied rows
            pick = np.argsort(np.abs(vals))[-keep:]
            ritz = vecs[:, pick]
            step = -(-dim // keep)  # so each product holds at most one state vector
            for c in range(0, dim, step):
                q[:keep, c : c + step] = ritz.T @ q[:done, c : c + step]
            coupling = t[done:size, :done] @ ritz
            for i in range(size - done):  # row by row: a block copy would overlap
                q[keep + i] = q[done + i]
            t[:] = 0.0
            t[:keep, :keep] = np.diag(vals[pick])
            t[keep : keep + size - done, :keep] = coupling
            size, done = keep + size - done, keep
        w = apply(q[done])
        applies += 1
        scale = float(np.linalg.norm(w))
        t[:size, done], beta = _cgs2(q[:size], w)
        done += 1
        if beta > 1e-12 * scale and size < dim:  # else nothing outside the span but rounding
            np.divide(w, beta, out=q[size])
            t[size, done - 1] = beta
            size += 1
        # a restart needs the Ritz vectors, and the loop ends on an exhausted space
        # or at the last apply: test there, and elsewhere every _TEST_GAP applies
        if applies % _TEST_GAP and done < size != cap and applies < ITERATIVE_MAX_ITER:
            continue
        vals, vecs = np.linalg.eigh(t[:done, :done])
        top, other = (0, -1) if abs(vals[0]) > abs(vals[-1]) else (-1, 0)
        theta = abs(float(vals[top]))
        best = max(best, theta)
        res = np.linalg.norm(t[done:size, :done] @ vecs[:, [top, other]], axis=0)
        tol = max(ITERATIVE_TOL * theta, _ROUNDING_RESIDUAL)
        if res[0] <= tol and (res[1] <= tol or abs(vals[other]) + res[1] < theta):
            return theta, True, applies
    return best, False, applies


def _is_real(terms) -> bool:
    """Whether every weight, every scalar and every block matrix of the
    ``(w, op)`` pairs ``terms`` has an exactly zero imaginary part."""
    return not any(
        w.imag or op.scalar.imag or any(np.any(b.matrix.imag) for b in op.blocks)
        for w, op in terms
    )


def _phase(mats):
    """``1``, or else ``1j``, when that phase times every matrix of the collection
    ``mats`` passes :func:`~spintail.matrices.is_self_adjoint`; ``None`` when
    neither does."""
    for phase in (1, 1j):
        if all(is_self_adjoint(phase * m) for m in mats):
            return phase
    return None


def _hermitian_phase(plan):
    """The phase that makes the sum ``plan`` compiles self-adjoint, read off its
    steps' square matrices (:func:`_square`) by :func:`_phase`: the phase of
    the chains' lead steps when every other step is self-adjoint (``1`` when
    every step is, ``1j`` when every lead step is anti-self-adjoint), and
    ``None`` otherwise.  The lead step carries a chain's weight, and the
    steps of a chain commute, so ``1j`` times the chain is then self-adjoint."""
    rest = _phase([_square(step) for chain in plan for step in chain[1:]])
    return _phase([_square(chain[0]) for chain in plan]) if rest == 1 else None


def _moved_down(b: Block | Run, first: int) -> tuple:
    """A block's sites, or a run's ranges, less ``first``."""
    if isinstance(b, Run):
        return tuple(range(r.start - first, r.stop - first, r.step) for r in b.ranges)
    return tuple(x - first for x in b.sites)


def _decoupled_norm(terms, n: int, d: int, cap: int, dtype) -> TracePoint | None:
    """The ``decoupled`` point of a Kronecker sum, or None when ``terms`` are not one.

    The ``(w, op)`` pairs ``terms``, sorted by their ends, are swept into groups on
    disjoint site intervals.  With two groups or more, each on an interval of at
    most ``cap`` states (read off the ends, so no site is listed) and with no term
    on no site, each distinct group is assembled on its interval once (translates
    of one group, as in a shift average, are one group).  If ``phase`` times every
    group matrix is self-adjoint, for one ``phase`` of 1 or 1j shared by all
    groups (:func:`_phase`), the sum's spectrum is every sum of one eigenvalue
    per group (Horn and Johnson, *Topics in Matrix Analysis*, 1991, Thm 4.4.5),
    so its norm is ``max(|sum lambda_min|, |sum lambda_max|)``, the extremes
    taken from one stacked ``eigvalsh`` per distinct group shape
    (:func:`_stacked`) and summed over every group by ``math.fsum``.  That is
    exact at any volume, with ``iterations`` 0: no dense eigensolve of the
    whole sum and no Krylov apply, so the benchmark's tracer counts the point
    as ``exact``.  :func:`norm` tries this under ``"auto"`` only, with ``cap``
    the crossover of the sum's dtype (or ``dense_cap``, if lower); every other
    sum keeps the router.
    """
    ends = [op.ends for _, op in terms]
    if () in ends:
        return None
    groups: list = []  # [first, last, (w, scalar, blocks) triples]
    for i in sorted(range(len(terms)), key=ends.__getitem__):
        (first, last), (w, op) = ends[i], terms[i]
        if groups and first <= groups[-1][1]:
            groups[-1][1] = max(groups[-1][1], last)
        else:
            groups.append([first, last, []])
        if not _dim_within(d, groups[-1][1] - groups[-1][0] + 1, cap):
            return None
        groups[-1][2].append((w, op.scalar, op.blocks))
    if len(groups) < 2:
        return None
    # a group's key: its width, and its weights, scalars and block matrices with
    # their sites relative to its first; translates, as in a shift average, share it
    keys = [
        (last - first, tuple(
            (w, scalar, tuple((_moved_down(b, first), id(b.matrix)) for b in blocks))
            for w, scalar, blocks in triples
        ))
        for first, last, triples in groups
    ]
    mats = {k: _assemble(g[2], tuple(range(g[0], g[1] + 1)), d, cap, dtype)
            for k, g in dict(zip(keys, groups)).items()}
    if (phase := _phase(mats.values())) is None:
        return None
    extremes = _stacked(lambda x: np.linalg.eigvalsh(phase * x)[:, [0, -1]], mats)
    eig = np.array([extremes[k] for k in keys])
    return TracePoint(n, max(abs(math.fsum(eig[:, 0])), abs(math.fsum(eig[:, 1]))),
                      route="decoupled")


def _check_state(d: int, m: int, copies: int, dtype) -> None:
    """Refuse a Krylov vector of ``copies * d**m`` amplitudes above ``ITERATIVE_STATE_CAP``."""
    nbytes = copies * np.dtype(dtype).itemsize
    if not _dim_within(d, m, ITERATIVE_STATE_CAP // nbytes):
        raise CapacityError(
            f"iterative norm needs state vectors of length {_dim_text(d, m, copies)} "
            f"({_dim_text(d, m, nbytes)} bytes), above the cap of {ITERATIVE_STATE_CAP} bytes"
        )


def _dense_norm(terms, n: int, m: int, d: int, dense_cap: int, dtype) -> TracePoint:
    """The ``dense`` point of the compacted ``(w, op)`` pairs ``terms`` on sites
    ``1..m``.

    It assembles them in one ``dim x dim`` array, float64 for a real sum, and
    hands it to :func:`~spintail.matrices.operator_norm_dense`:
    ``max |eigvalsh(a)|`` when the skew defect ``||a - a*||_F`` proves that
    within 1e-13 relative of the norm, ``sqrt(lambda_max(a* a))`` otherwise.
    It accepts dimensions up to ``dense_cap`` (default 4096), where the
    eigensolve took 5.5 s for a real sum and 25-30 s for a complex one (2-vCPU
    Intel Xeon, one BLAS thread), and refuses a larger one, naming the
    iterative route.
    """
    if not _dim_within(d, m, dense_cap):
        raise CapacityError(
            f"dense norm at dimension {_dim_text(d, m)} exceeds cap {dense_cap}; "
            "use method='iterative'"
        )
    triples = [(w, op.scalar, op.blocks) for w, op in terms]
    mat = _assemble(triples, tuple(range(1, m + 1)), d, dense_cap, dtype)
    return TracePoint(n, operator_norm_dense(mat, dense_cap), route="dense")


def _lanczos_norm(terms, n: int, m: int, d: int, dense_cap: int, dtype, seed: int) -> TracePoint:
    """The Krylov point of the compacted ``(w, op)`` pairs ``terms`` on sites
    ``1..m``: matrix-free thick-restart Lanczos from a start vector seeded by
    ``(seed, n, len(terms))``.

    It scales ``a`` exactly, by the power of two just above the bound
    ``sum |w scalar| prod ||block||^count``, to a norm of at most 1, so the
    kernel's stop test is relative; the bound takes the 2-norms of the
    distinct block matrices of each shape from one stacked SVD (Frobenius
    norms in a term with a block above ``dense_cap``).  It compiles ``a``
    into an apply plan (dense windows of neighbouring terms, one GEMM per
    block on a view of the state, no transposes) and decides once, by the
    same skew rule on each step's matrix (:func:`_hermitian_phase`), which
    operator the kernel runs, and names it in ``route``:
    ``lanczos-a``, on ``a`` itself, when every step is self-adjoint;
    ``lanczos-ia``, on ``i a``, when every chain's lead step is
    anti-self-adjoint and its other steps self-adjoint (as for commutators of
    self-adjoint sums); otherwise ``lanczos-dilation``, on the self-adjoint
    dilation ``[[0, a], [a*, 0]]`` on vectors of length ``2 dim``, whose
    eigenvalues are the singular values of ``a`` and their negatives.  It
    compiles one plan on every route: ``i a`` applies it and multiplies the
    result by ``1j`` in place, and the dilation applies it and its adjoint
    (:func:`_adjoint_plan`).  Every array it builds (plan, kernel vectors) is
    of the sum's dtype, except on ``i a``, which is complex: a real sum there
    casts its plan to complex once.  On every route the norm is
    the larger ``|theta|`` of the two ends of the spectrum, from one random
    start vector.  The path holds about 36 of the kernel's vectors at its
    peak, and ``ITERATIVE_STATE_CAP`` bounds the bytes of one: 2**23 qubit
    states for a complex sum, 2**24 for a real one off ``i a``, halved on the
    dilation; a sum above it even in float64 on ``a`` is refused before its
    plan is built.
    A norm that has not converged within ``ITERATIVE_MAX_ITER`` applies is
    reported via the ``converged`` flag, never as a silent wrong answer;
    ``iterations`` counts the applies.
    """
    # above the cap even in float64 on a, no route fits: refuse before the plan is built
    if not _dim_within(d, m, ITERATIVE_STATE_CAP // 8):
        _check_state(d, m, 1, dtype)
    scale = math.ldexp(1.0, -math.frexp(_norm_bound(terms, dense_cap))[1])
    terms = [(scale * w, op) for w, op in terms]
    plan = _compile_plan(terms, m, d, dtype)
    phase = _hermitian_phase(plan)
    if phase == 1j:  # run on i a, which is complex whatever the dtype of a
        dtype = complex
        plan = tuple(tuple(s._replace(matrix=s.matrix.astype(complex, copy=False)) for s in c)
                     for c in plan)
    _check_state(d, m, 1 if phase else 2, dtype)
    dim = d**m
    # on the dilation [[0, a], [a*, 0]], whose eigenvalues are +-sigma_i(a)
    adj = () if phase else _adjoint_plan(plan)
    chained = any(len(chain) > 1 for chain in plan)
    scratch = [np.empty(dim, dtype=dtype) for _ in range(1 + chained)]
    out = np.empty(dim if phase else 2 * dim, dtype=dtype)

    def apply(v):
        # the result is overwritten by the next call
        if phase:
            _run_plan(plan, v, out, scratch)
            if phase == 1j:
                np.multiply(out, 1j, out=out)
        else:
            _run_plan(plan, v[dim:], out[:dim], scratch)
            _run_plan(adj, v[:dim], out[dim:], scratch)
        return out

    rng = np.random.default_rng((seed, n, len(terms)))
    value, converged, applies = _power_iteration_norm(apply, len(out), rng, dtype)
    route = "lanczos-a" if phase == 1 else "lanczos-ia" if phase else "lanczos-dilation"
    return TracePoint(n, value / scale, converged, iterations=applies, route=route)


def norm(
    s,
    volume,
    method: str = "auto",
    *,
    dense_cap: int = DENSE_DIM_CAP,
    seed: int = 7,
) -> TracePoint:
    """Operator norm of a sum (or single operator), as the volume's :class:`TracePoint`.

    ``method`` is ``"dense"`` (exact eigensolve), ``"iterative"``
    (matrix-free Lanczos, deterministic seeded start), or ``"auto"``, a
    router on measured speed.  Products densify each overlap component, and
    commutators the union of their overlaps, each up to ``DENSE_DIM_CAP``;
    :func:`sum_commutator` keeps a pair that meets on several overlaps as two
    factored products when their union is too large to densify cheaply
    (:func:`_keeps_factored`).  ``dense_cap`` (default 4096) caps only the
    matrices a norm builds.  The routes, in the order tried, each named in
    the point's ``route``:

    - ``exact``, for every method: the zero sum, and a single term whose
      blocks all fit in ``dense_cap``, the product of its per-block dense
      norms (:meth:`LocalOperator.norm_exact`); a larger one goes on.
    - ``decoupled``, under ``"auto"`` only: a Kronecker sum
      (:func:`_decoupled_norm`).
    - A sum whose largest term alone is too large for the method's route is
      refused from that term, before any site is listed.  Every other sum is
      compacted onto its union support, which leaves the norm unchanged, and
      read off once whether it is real: every weight, scalar and block matrix
      with an exactly zero imaginary part (:func:`_is_real`).
    - ``dense`` (:func:`_dense_norm`), under ``"dense"``, and under ``"auto"``
      up to the crossover of the sum's dtype, ``_AUTO_DENSE_DIM_COMPLEX``
      (64) or ``_AUTO_DENSE_DIM_REAL`` (256), or up to ``dense_cap`` when that
      is lower.
    - ``lanczos-a``, ``lanczos-ia`` or ``lanczos-dilation``
      (:func:`_lanczos_norm`), under ``"iterative"``, and under ``"auto"``
      above that crossover.
    """
    s = s.as_sum()
    n = check_volume(volume, s)
    if method not in NORM_METHODS:
        raise ContractViolation(f"unknown norm method {method!r}")
    if seed < 0:
        raise ContractViolation(f"norm seeds are nonnegative integers, got {seed}")
    if s.is_zero:
        return TracePoint(n, 0.0, route="exact")
    if len(s.terms) == 1:
        w, op = s.terms[0]
        if _fits(op, dense_cap):  # a larger block falls through to the router
            return TracePoint(n, abs(w) * op.norm_exact(dense_cap), route="exact")
    d = s.site_dim
    dtype = float if _is_real(s.terms) else complex
    crossover = _AUTO_DENSE_DIM_REAL if dtype is float else _AUTO_DENSE_DIM_COMPLEX
    crossover = min(crossover, dense_cap)
    if method == "auto" and (point := _decoupled_norm(s.terms, n, d, crossover, dtype)):
        return point
    # a term's records are disjoint, so the largest term bounds the compacted size from
    # below: past the route's cap, the routes refuse on it, listing no site
    least = max(sum(b.count * b.width for b in op.blocks) for _, op in s.terms)
    cap = dense_cap if method == "dense" else ITERATIVE_STATE_CAP // 8
    terms, m = _compact_terms(s) if _dim_within(d, least, cap) else ((), least)
    if method == "dense" or method == "auto" and _dim_within(d, m, crossover):
        return _dense_norm(terms, n, m, d, dense_cap, dtype)
    return _lanczos_norm(terms, n, m, d, dense_cap, dtype, seed)
