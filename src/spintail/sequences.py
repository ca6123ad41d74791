"""Volume-indexed observable sequences.

A sequence is an evaluation rule N -> OperatorSum on the volume {1,...,N},
not a stored array; schedules pick which volumes to look at.  The built-in
kinds cover embedded local observables, observables translated to the moving
edge of the volume, shift averages of a fixed seed, sitewise products, and
pointwise *-algebra combinations of all of these.  The sitewise products
(uniform, parity-alternating, block-alternating, and the half-chain filling
pattern) are one class, :class:`SiteProduct`, whose constructors differ only in
their factors and in the rule that gives each factor its sites in a volume,
as a few ranges.  The value holds one record per factor that occurs (a
:class:`~spintail.localops.Run`, or a one-site block), so evaluating it, and
its norm, state value and commutator with a probe, cost the same at any N.

:class:`LocalEmbedSeq` and :class:`GammaSeq` also take a trigonometric seed
(:mod:`spintail.classical`), and read the seed's own zero below its support.
The one sequence protocol, quantum and classical, is ``eval(n, region=None)``:
a shift average (:class:`GammaSeq`) returns only its terms meeting
``region``, a probe's support; a sum, scale or adjoint passes it to its
children; a product and every other kind ignore it.  The estimators call it
on every sequence alike.  The pointwise combinations are one class,
:class:`SeqMap`, which applies a function to its children's values at each
volume; :func:`SeqSum`, :func:`SeqProduct`, :func:`SeqAdjoint` and
:func:`SeqScale` build it.  A sequence's ``site_dim`` is read from its
matrices (None for trigonometric values); a combination's children share one.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ContractViolation
from .localops import (
    LocalOperator,
    OperatorSum,
    TracePoint,
    _first,
    _read_only,
    _same_dim,
    _sitewise,
    check_volume,
    fits_volume,
    from_site_factors,
    is_integer,
    norm,
    relabel,
    sum_product,
    zero_sum,
)
from .matrices import check_finite, operator_norm_dense
from .shifts import eval_gamma_sequence, gamma_pow

__all__ = [
    "ObservableSequence",
    "LocalEmbedSeq",
    "TranslatedToInfinity",
    "GammaSeq",
    "SiteProduct",
    "UniformProduct",
    "ParityProduct",
    "BlockProduct",
    "HalfChain",
    "SeqSum",
    "SeqProduct",
    "SeqAdjoint",
    "SeqScale",
    "VolumeSchedule",
    "as_schedule",
    "seq_norm_trace",
]


class ObservableSequence:
    """Base class; subclasses implement ``eval(n, region=None) -> OperatorSum`` and
    ``site_dim``, the site dimension of their values (None: classical values)."""

    def eval(self, n: int, region=None) -> OperatorSum:
        raise NotImplementedError


def _site_dim(mat) -> int:
    shape = np.shape(check_finite(mat))
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ContractViolation(f"site operators are square matrices, got shape {shape}")
    return shape[0]


@dataclass
class LocalEmbedSeq(ObservableSequence):
    """A fixed local element, present once the volume contains its support."""

    seed: LocalOperator

    @property
    def site_dim(self) -> int | None:
        return self.seed.site_dim

    def eval(self, n: int, region=None) -> OperatorSum:
        value = self.seed.as_sum()
        return value if fits_volume(self.seed.support, check_volume(n)) else value.scale(0)


@dataclass
class TranslatedToInfinity(ObservableSequence):
    """A single-site operator placed at a volume-dependent site.

    The default rule puts it at the rightmost site, the simplest choice that
    walks off to infinity with the volume.
    """

    site_op: np.ndarray
    site_rule: Callable[[int], int] | None = None

    def __post_init__(self):
        # checked and canonicalized once: eval only moves the factor to its
        # site, and site_op is a read-only copy of the same checked matrix
        self.site_dim = _site_dim(self.site_op)
        self._factor = from_site_factors({1: self.site_op}, self.site_dim)
        self.site_op = _read_only(check_finite(self.site_op).copy())

    def site_at(self, n: int) -> int:
        x = n if self.site_rule is None else self.site_rule(n)
        if not is_integer(x) or not fits_volume((x,), n):
            raise ContractViolation(f"site rule gave {x!r}, not a site of the volume of {n} sites")
        return int(x)

    def eval(self, n: int, region=None) -> OperatorSum:
        n = check_volume(n)
        return relabel(self._factor, ((1, self.site_at(n) - 1),)).as_sum()


@dataclass
class GammaSeq(ObservableSequence):
    """Shift average of a fixed seed over each volume; zero until the volume holds the seed.

    :meth:`from_seed` moves any seed to start at site 1.
    """

    seed: LocalOperator

    @property
    def site_dim(self) -> int | None:
        return self.seed.site_dim

    @classmethod
    def from_seed(cls, seed: LocalOperator) -> "GammaSeq":
        sup = seed.support
        if not sup:
            raise ContractViolation("gamma-sequence seeds need nonempty support")
        # shifting sites sup[0]..sup[-1] left by sup[0] - 1 never wraps
        return cls(gamma_pow(seed, sup[-1], sup[0] - 1))

    def eval(self, n: int, region=None) -> OperatorSum:
        return eval_gamma_sequence(self, n, region)


@dataclass
class SiteProduct(ObservableSequence):
    """Sitewise product: in volume n, factor k sits on the sites ``runs(n)[k]``.

    ``runs(n)`` gives each factor its sites as a tuple of ascending ranges,
    disjoint across factors; every other site carries the identity.  Every
    factor needs norm <= 1 so the sequence stays uniformly bounded.
    """

    factors: tuple[np.ndarray, ...]
    runs: Callable[[int], tuple[tuple[range, ...], ...]]

    def __post_init__(self):
        # each factor is checked and canonicalized once: an exact zero makes
        # every product it enters zero, an exact identity is None, any other
        # factor is a read-only matrix that eval places as one record
        if not self.factors:
            raise ContractViolation("sitewise products need at least one factor")
        d = self.site_dim = _site_dim(self.factors[0])
        ops = [from_site_factors({1: m}, d) for m in self.factors]
        self._zeros = frozenset(k for k, op in enumerate(ops) if op.is_zero)
        self.factors = tuple(op.blocks[0].matrix if op.blocks else None for op in ops)
        if any(m is not None and operator_norm_dense(m) > 1.0 + 1e-12 for m in self.factors):
            raise ContractViolation(
                "product-sequence site operators need norm <= 1 to stay uniformly bounded"
            )

    def eval(self, n: int, region=None) -> OperatorSum:
        n = check_volume(n)
        blocks = []
        for k, ranges in enumerate(self.runs(n)):
            if not any(ranges):
                continue
            if k in self._zeros:
                return zero_sum(self.site_dim)
            if self.factors[k] is not None:
                blocks.append(_sitewise(self.factors[k], ranges))
        blocks.sort(key=_first)
        return LocalOperator(self.site_dim, 1 + 0j, tuple(blocks)).as_sum()


def UniformProduct(site_op) -> SiteProduct:
    """The same single-site factor on every site of the volume."""
    return SiteProduct((site_op,), lambda n: ((range(1, n + 1),),))


def ParityProduct(odd_op, even_op) -> SiteProduct:
    """Sitewise product alternating by site parity; site 1 counts as odd."""
    return SiteProduct((odd_op, even_op), lambda n: ((range(1, n + 1, 2),), (range(2, n + 1, 2),)))


def _block_runs(rule: Callable[[int], int]):
    """The ``runs`` of a block-alternating product: the sites of its even- and of its
    odd-indexed blocks in {1, ..., n}.  Block k covers sites (sum_{i<k} B_i, sum_{i<=k} B_i]
    for the rule k -> B_k, whose lengths must be strictly increasing positive integers;
    a violation raises as soon as the offending block is needed."""
    ends = [0]  # the last site of each block so far, after a 0

    def runs(n: int) -> tuple[tuple[range, ...], tuple[range, ...]]:
        while ends[-1] < n:
            k = len(ends) - 1
            b, last = rule(k), ends[-1] - ends[-2] if k else 0
            if not is_integer(b) or b <= last:
                raise ContractViolation(
                    f"block lengths must be strictly increasing positive integers; "
                    f"B_{k} = {b} after {last or 'start'}"
                )
            ends.append(ends[-1] + int(b))
        count = bisect.bisect_left(ends, n)
        blocks = [range(ends[k] + 1, min(ends[k + 1], n) + 1) for k in range(count)]
        return tuple(blocks[0::2]), tuple(blocks[1::2])

    return runs


def default_block_lengths(n: int) -> int:
    """Smallest strictly increasing rule: B_n = n + 1."""
    return n + 1


def BlockProduct(
    even_op, odd_op, block_lengths: Callable[[int], int] = default_block_lengths
) -> SiteProduct:
    """Sitewise product alternating between blocks of strictly increasing length.

    Sites in even-indexed blocks carry ``even_op``, odd-indexed blocks carry
    ``odd_op``.
    """
    return SiteProduct((even_op, odd_op), _block_runs(block_lengths))


def HalfChain(site_op) -> SiteProduct:
    """Identity on the left ceil(N/2) sites, a fixed factor on the rest."""
    return SiteProduct((site_op,), lambda n: ((range(n - n // 2 + 1, n + 1),),))


@dataclass
class SeqMap(ObservableSequence):
    """Pointwise combination: volume n carries ``combine(n, *(s.eval(n, region) for s in inner))``.

    With ``regional`` set, ``region`` reaches the children: the terms of a sum,
    a scale or an adjoint meeting it are those of its children's values
    meeting it.  A product's terms meeting it pair factor terms that miss it,
    so :func:`SeqProduct` evaluates its children whole.  The children share
    one ``site_dim``, which the combination takes; sums and scales take
    classical sequences (``site_dim`` None) too, products and adjoints refuse them.
    """

    combine: Callable[..., OperatorSum]
    inner: tuple[ObservableSequence, ...]
    regional: bool = True

    def __post_init__(self):
        for s in self.inner:
            _same_dim(self.inner[0], s)
        self.site_dim = self.inner[0].site_dim

    def eval(self, n: int, region=None) -> OperatorSum:
        region = region if self.regional else None
        return self.combine(n, *(s.eval(n, region) for s in self.inner))


def SeqSum(left: ObservableSequence, right: ObservableSequence) -> SeqMap:
    return SeqMap(lambda n, a, b: a + b, (left, right))


def _quantum(name, *seqs) -> None:
    if classical := [seq for seq in seqs if seq.site_dim is None]:
        raise ContractViolation(f"{name} takes quantum sequences; {classical[0]!r} is classical")


def SeqProduct(left: ObservableSequence, right: ObservableSequence) -> SeqMap:
    _quantum("SeqProduct", left, right)
    # sum_product is looked up at each evaluation, so a wrapper on it sees the call
    return SeqMap(lambda n, a, b: sum_product(a, b), (left, right), regional=False)


def SeqAdjoint(inner: ObservableSequence) -> SeqMap:
    _quantum("SeqAdjoint", inner)
    return SeqMap(lambda n, a: a.adjoint(), (inner,))


def SeqScale(factor: complex | Callable[[int], complex], inner: ObservableSequence) -> SeqMap:
    """Scale by a constant, or by a per-volume factor such as 1/N."""
    at = factor if callable(factor) else (lambda n: factor)
    return SeqMap(lambda n, a: a.scale(complex(at(n))), (inner,))


@dataclass(frozen=True)
class VolumeSchedule:
    """Strictly increasing volumes standing in for the growth to infinity."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise ContractViolation("schedules need at least one point")
        if not all(map(is_integer, pts)) or pts[0] < 1 or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ContractViolation(
                f"schedule points must be strictly increasing positive integers, got {pts}"
            )
        object.__setattr__(self, "points", tuple(map(int, pts)))

    def trace(self, point: Callable[[int], TracePoint]) -> list[TracePoint]:
        """Evaluate ``point(n)`` at every volume in order, timing each call.

        ``point(n)`` returns the :class:`~spintail.localops.TracePoint` at
        ``n``; each is returned with ``seconds`` set to the wall-clock time of
        its call.  Every trace in the package, quantum or classical, is built
        by this loop.
        """
        out = []
        for n in self.points:
            t0 = time.perf_counter()
            out.append(replace(point(n), seconds=time.perf_counter() - t0))
        return out


def as_schedule(points, min_points: int = 1) -> VolumeSchedule:
    """``points`` as a schedule, refused when it has fewer than ``min_points`` volumes."""
    if not isinstance(points, VolumeSchedule):
        points = VolumeSchedule(() if points is None else tuple(points))
    if len(points.points) < min_points:
        raise ContractViolation(f"this estimator needs at least {min_points} schedule points")
    return points


def seq_norm_trace(
    seq: ObservableSequence,
    schedule,
    method: str = "auto",
    **norm_kwargs,
) -> list[TracePoint]:
    """Per-volume norm of a sequence along a schedule, one timed point per volume.

    Points where the iterative solver fails to converge are reported with
    their flag rather than aborting the trace.
    """
    return as_schedule(schedule).trace(lambda n: norm(seq.eval(n), n, method, **norm_kwargs))
