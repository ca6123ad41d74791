"""Volume-indexed observable sequences.

A sequence is an evaluation rule N -> OperatorSum on the volume {1,...,N},
not a stored array; schedules pick which volumes to look at.  The built-in
kinds cover embedded local observables, observables translated to the moving
edge of the volume, shift averages of a fixed seed, sitewise products, and
pointwise *-algebra combinations of all of these.  The sitewise products
(uniform, parity-alternating, block-alternating, and the half-chain filling
pattern) are one class, :class:`SiteProduct`, whose constructors differ only in
their factors and in the rule that picks a factor, or the identity, per site.

The one sequence protocol is ``eval(n)``: :meth:`VolumeSchedule.trace` calls
nothing else, so the classical sequences (plain dataclasses in
:mod:`spintail.classical`) and anything else with ``eval`` trace the same
way.  :class:`ObservableSequence` is only the base of the operator-valued
kinds, which carry a ``site_dim``; they are combined by building
:class:`SeqSum`, :class:`SeqProduct`, :class:`SeqAdjoint` and
:class:`SeqScale` directly.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation
from .localops import (
    Block,
    LocalOperator,
    NormResult,
    OperatorSum,
    check_volume,
    from_site_factors,
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
    "make_block_partition",
    "VolumeSchedule",
    "as_schedule",
    "seq_norm_trace",
]


class ObservableSequence:
    """Base class; subclasses implement ``eval(n) -> OperatorSum``."""

    site_dim: int = 2

    def eval(self, n: int) -> OperatorSum:
        raise NotImplementedError


def _bounded_site_op(mat, d) -> np.ndarray:
    mat = check_finite(mat)
    if mat.shape != (d, d):
        raise ContractViolation(f"site operators must be {d}x{d}, got {mat.shape}")
    if operator_norm_dense(mat) > 1.0 + 1e-12:
        raise ContractViolation(
            "product-sequence site operators need norm <= 1 to stay uniformly bounded"
        )
    return mat


@dataclass
class LocalEmbedSeq(ObservableSequence):
    """A fixed local operator, present once the volume contains its support."""

    seed: LocalOperator

    def __post_init__(self):
        self.site_dim = self.seed.site_dim

    def eval(self, n: int) -> OperatorSum:
        n = check_volume(n)
        sup = self.seed.support
        if sup and sup[-1] > n:
            return zero_sum(self.site_dim)
        return self.seed.as_sum()


@dataclass
class TranslatedToInfinity(ObservableSequence):
    """A single-site operator placed at a volume-dependent site.

    The default rule puts it at the rightmost site, the simplest choice that
    walks off to infinity with the volume.
    """

    site_op: np.ndarray
    site_rule: Callable[[int], int] | None = None
    site_dim: int = 2

    def __post_init__(self):
        # checked and canonicalized once: eval only moves the factor to its
        # site, and site_op is a read-only copy of the same checked matrix
        self._factor = from_site_factors({1: self.site_op}, self.site_dim)
        self.site_op = Block((1,), check_finite(self.site_op).copy()).matrix

    def site_at(self, n: int) -> int:
        x = n if self.site_rule is None else int(self.site_rule(n))
        if not 1 <= x <= n:
            raise ContractViolation(f"site rule gave {x}, outside volume of {n} sites")
        return x

    def eval(self, n: int) -> OperatorSum:
        n = check_volume(n)
        return relabel(self._factor, {1: self.site_at(n)}).as_sum()


@dataclass
class GammaSeq(ObservableSequence):
    """Shift average of a fixed seed over each volume; zero below the window.

    ``window`` is the length of the interval {1, ..., window} holding the
    seed's support; :meth:`from_seed` moves any seed there first.
    """

    seed: LocalOperator
    window: int

    def __post_init__(self):
        self.site_dim = self.seed.site_dim

    @classmethod
    def from_seed(cls, seed: LocalOperator) -> "GammaSeq":
        sup = seed.support
        if not sup:
            raise ContractViolation("gamma-sequence seeds need nonempty support")
        # shifting sites sup[0]..sup[-1] left by sup[0] - 1 never wraps
        seed = gamma_pow(seed, sup[-1], sup[0] - 1)
        return cls(seed, seed.support[-1])

    def eval(self, n: int) -> OperatorSum:
        return eval_gamma_sequence(self, check_volume(n))


@dataclass
class SiteProduct(ObservableSequence):
    """Sitewise product: site x of volume n carries ``factors[pick(x, n)]``.

    A ``pick`` of ``None`` leaves the site as the identity.  Every factor needs
    norm <= 1 so the sequence stays uniformly bounded.
    """

    factors: tuple[np.ndarray, ...]
    pick: Callable[[int, int], int | None]
    site_dim: int = 2

    def __post_init__(self):
        # each factor is checked and canonicalized once: an exact zero makes
        # every product it enters zero, an exact identity is None, any other
        # factor is a read-only matrix that eval shares between sites
        ops = [from_site_factors({1: _bounded_site_op(m, self.site_dim)}, self.site_dim)
               for m in self.factors]
        self._zeros = frozenset(k for k, op in enumerate(ops) if op.is_zero)
        self.factors = tuple(op.blocks[0].matrix if op.blocks else None for op in ops)

    def eval(self, n: int) -> OperatorSum:
        n = check_volume(n)
        blocks = []
        for x in range(1, n + 1):
            k = self.pick(x, n)
            if k in self._zeros:
                return zero_sum(self.site_dim)
            if k is not None and self.factors[k] is not None:
                blocks.append(Block((x,), self.factors[k]))
        return LocalOperator(self.site_dim, 1 + 0j, tuple(blocks)).as_sum()


def UniformProduct(site_op, site_dim: int = 2) -> SiteProduct:
    """The same single-site factor on every site of the volume."""
    return SiteProduct((site_op,), lambda x, n: 0, site_dim)


def ParityProduct(odd_op, even_op, site_dim: int = 2) -> SiteProduct:
    """Sitewise product alternating by site parity; site 1 counts as odd."""
    return SiteProduct((odd_op, even_op), lambda x, n: 1 - x % 2, site_dim)


def make_block_partition(rule: Callable[[int], int]) -> Callable[[int], int]:
    """Turn a block-length rule n -> B_n into a total map site -> block index.

    Block n covers sites (sum_{k<n} B_k, sum_{k<=n} B_k].  Lengths must be
    positive and strictly increasing; violations raise as soon as the
    offending block is materialized.
    """
    boundaries = [0]
    lengths: list[int] = []

    def block_of(site: int) -> int:
        site = int(site)
        if site < 1:
            raise ContractViolation(f"sites are >= 1, got {site}")
        while boundaries[-1] < site:
            n = len(lengths)
            b = int(rule(n))
            if b <= 0 or (lengths and b <= lengths[-1]):
                raise ContractViolation(
                    f"block lengths must be strictly increasing positive integers; "
                    f"B_{n} = {b} after {lengths[-1] if lengths else 'start'}"
                )
            lengths.append(b)
            boundaries.append(boundaries[-1] + b)
        return bisect.bisect_left(boundaries, site) - 1

    return block_of


def default_block_lengths(n: int) -> int:
    """Smallest strictly increasing rule: B_n = n + 1."""
    return n + 1


def BlockProduct(
    even_op, odd_op, block_lengths: Callable[[int], int] = default_block_lengths, site_dim: int = 2
) -> SiteProduct:
    """Sitewise product alternating between blocks of strictly increasing length.

    Sites in even-indexed blocks carry ``even_op``, odd-indexed blocks carry
    ``odd_op``.
    """
    block_of = make_block_partition(block_lengths)
    return SiteProduct((even_op, odd_op), lambda x, n: block_of(x) % 2, site_dim)


def HalfChain(site_op, site_dim: int = 2) -> SiteProduct:
    """Identity on the left ceil(N/2) sites, a fixed factor on the rest."""
    return SiteProduct((site_op,), lambda x, n: 0 if x > n - n // 2 else None, site_dim)


@dataclass
class SeqSum(ObservableSequence):
    left: ObservableSequence
    right: ObservableSequence

    def __post_init__(self):
        self.site_dim = self.left.site_dim

    def eval(self, n: int) -> OperatorSum:
        return self.left.eval(n) + self.right.eval(n)


@dataclass
class SeqProduct(ObservableSequence):
    left: ObservableSequence
    right: ObservableSequence

    def __post_init__(self):
        self.site_dim = self.left.site_dim

    def eval(self, n: int) -> OperatorSum:
        return sum_product(self.left.eval(n), self.right.eval(n))


@dataclass
class SeqAdjoint(ObservableSequence):
    inner: ObservableSequence

    def __post_init__(self):
        self.site_dim = self.inner.site_dim

    def eval(self, n: int) -> OperatorSum:
        return self.inner.eval(n).adjoint()


@dataclass
class SeqScale(ObservableSequence):
    """Scale by a constant, or by a per-volume factor such as 1/N."""

    factor: complex | Callable[[int], complex]
    inner: ObservableSequence

    def __post_init__(self):
        self.site_dim = self.inner.site_dim

    def eval(self, n: int) -> OperatorSum:
        c = self.factor(n) if callable(self.factor) else self.factor
        return self.inner.eval(n).scale(complex(c))


@dataclass(frozen=True)
class VolumeSchedule:
    """Strictly increasing volumes standing in for the growth to infinity."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise ContractViolation("schedules need at least one point")
        if pts[0] < 1 or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ContractViolation(
                f"schedule points must be strictly increasing positive integers, got {pts}"
            )

    def trace(self, point: Callable[[int], object]) -> tuple[list[tuple], tuple[float, ...]]:
        """Evaluate ``point(n)`` at every volume in order, timing each call.

        Returns the ``(n, point(n))`` pairs and the wall-clock seconds of each
        call.  Every trace in the package, quantum or classical, is built by
        this loop.
        """
        pairs = []
        seconds = []
        for n in self.points:
            t0 = time.perf_counter()
            pairs.append((n, point(n)))
            seconds.append(time.perf_counter() - t0)
        return pairs, tuple(seconds)


def as_schedule(points) -> VolumeSchedule:
    if isinstance(points, VolumeSchedule):
        return points
    return VolumeSchedule(tuple(int(p) for p in points))


def seq_norm_trace(
    seq: ObservableSequence,
    schedule,
    method: str = "auto",
    **norm_kwargs,
) -> tuple[list[tuple[int, NormResult]], tuple[float, ...]]:
    """Per-volume norms of a sequence along a schedule, and the seconds per point.

    Points where the iterative solver fails to converge are reported with
    their flag rather than aborting the trace.
    """
    return as_schedule(schedule).trace(lambda n: norm(seq.eval(n), n, method, **norm_kwargs))
