"""Support-aware operators on finite chain volumes.

An operator here is a complex scalar times a tensor product of dense blocks
acting on disjoint finite sets of sites; identities are implicit everywhere
else.  A single block is the ordinary (support, dense matrix) local operator;
per-site blocks encode long product operators without ever materializing the
full-volume matrix.  Sums of such operators are kept as term lists.

Basis convention (bit-exact, relied on by tests and serialized data): site 1
is the most significant tensor factor, so a basis state with digit ``j_x`` at
site ``x`` of a volume of ``N`` sites has index ``sum_x j_x * d**(N - x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError, ContractViolation
from .matrices import DENSE_DIM_CAP, adjoint, check_finite, operator_norm_dense

__all__ = [
    "Block",
    "LocalOperator",
    "OperatorSum",
    "NormResult",
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

# Longest state vector an iterative norm works on.  Block Lanczos peaks at
# about 38 complex vectors of this length, its ITERATIVE_BASIS rows plus the
# apply temporaries (tracemalloc, rotated-sigma3 shift average: 38.0 vectors at
# N = 14, 37.2 at N = 16), so about 4.75 GiB at the cap.
ITERATIVE_STATE_CAP = 2**23
# Convergence: the top Ritz pair's residual norm is at most this times theta
# (or at the rounding level _ROUNDING_RESIDUAL, whichever is larger).
ITERATIVE_TOL = 1e-9
# gram_apply calls before a norm is reported unconverged.
ITERATIVE_MAX_ITER = 10000
# Vectors in the Lanczos start block: top clusters up to this size resolve outright.
ITERATIVE_BLOCK = 4
# Basis vectors kept before a restart from the top Ritz vectors; at least 2 * ITERATIVE_BLOCK.
ITERATIVE_BASIS = 32

# Largest compacted dimension that method="auto" sends to the dense eigensolve;
# above it (and above dense_cap) auto takes block Lanczos.  Best-of-5
# milliseconds per norm, dense vs iterative, for shift averages of three seeds
# at one OpenBLAS thread on a 2-vCPU Intel Xeon VM (numpy 2.4):
#
#   dim   rotated sigma3   rotated sigma1 sigma1   real symmetric two-site
#   128     2.2 vs  5.1        2.6 vs 12.7             1.5 vs 32
#   256    13.1 vs  8.7        8.6 vs  7.8             4.7 vs 41
#   512    68   vs 12.1       66   vs 22              21   vs 57
#  1024   384   vs 22        429   vs 12             147   vs 77
#
# Both routes agree to 2e-15 relative.  One crossover for every dtype: at 512
# the complex seeds save about 50 ms a norm where the real one loses 36.
# DENSE_DIM_CAP, the memory cap, is a separate limit.
_AUTO_DENSE_DIM = 256

# Rounding in one apply of a* a, scaled to norm bound sum |w| ||op|| <= 1, is
# about eps * ||a||, so the residual of the top Ritz pair cannot fall much
# below eps * sqrt(theta).  The iterative norm also stops once that residual is
# at most this times sqrt(theta), which only matters for a sum that cancels to
# a norm below about 1e-5 of its bound.
_ROUNDING_RESIDUAL = 64 * float(np.finfo(float).eps)


def check_volume(n) -> int:
    """Site count of the chain segment {1, ..., n}; at least one site."""
    n = int(n)
    if n < 1:
        raise ContractViolation(f"volumes have at least one site, got {n}")
    return n


@dataclass(frozen=True, eq=False)
class Block:
    """Dense matrix acting on an ascending tuple of sites; the matrix is made read-only."""

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _check_block(sites, matrix, d) -> Block:
    given = tuple(sites)
    sites = tuple(int(s) for s in given)
    if not sites:
        raise ContractViolation("blocks need at least one site; use the scalar field")
    if sites != given or sites[0] < 1 or any(a >= b for a, b in zip(sites, sites[1:])):
        raise ContractViolation(f"block sites are strictly increasing integers >= 1, got {given}")
    matrix = check_finite(matrix)
    dim = d ** len(sites)
    if matrix.shape != (dim, dim):
        raise ContractViolation(
            f"block on {len(sites)} sites of local dimension {d} needs shape "
            f"({dim}, {dim}), got {matrix.shape}"
        )
    return Block(sites, matrix.copy())


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """``scalar *`` tensor product of disjoint-support blocks (identity elsewhere).

    Canonical form: blocks sorted by first site, none exactly zero or exactly
    the identity, and zero stored as ``0j`` with no blocks.
    """

    site_dim: int
    scalar: complex
    blocks: tuple[Block, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(s for b in self.blocks for s in b.sites))

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0

    # adjoint and scale map canonical form to canonical form, so they build the
    # result directly, not through _make_op; ``or 0j`` stores any zero as 0j

    def adjoint(self) -> LocalOperator:
        blocks = tuple(Block(b.sites, adjoint(b.matrix)) for b in self.blocks)
        return LocalOperator(self.site_dim, self.scalar.conjugate() or 0j, blocks)

    def scale(self, c: complex) -> LocalOperator:
        scalar = complex(self.scalar * c) or 0j
        return LocalOperator(self.site_dim, scalar, self.blocks if scalar else ())

    def as_sum(self) -> OperatorSum:
        return OperatorSum(self.site_dim, () if self.is_zero else ((1 + 0j, self),))

    def norm_exact(self, dim_cap: int = DENSE_DIM_CAP) -> float:
        """Operator norm, exact via multiplicativity across disjoint factors."""
        out = abs(self.scalar)
        for b in self.blocks:
            out *= operator_norm_dense(b.matrix, dim_cap)
        return float(out)

    def __repr__(self) -> str:
        blocks = ",".join("{" + ",".join(map(str, b.sites)) + "}" for b in self.blocks)
        return (
            f"LocalOperator(d={self.site_dim}, scalar={self.scalar:.6g}, "
            f"blocks=[{blocks}])"
        )


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
    out.sort(key=lambda b: b.sites[0])
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
        return tuple(sorted({s for _, op in self.terms for s in op.support}))

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

    def __repr__(self) -> str:
        sup = ",".join(map(str, self.support))
        return f"OperatorSum(d={self.site_dim}, {len(self.terms)} terms on {{{sup}}})"


def _same_dim(a, b):
    if a.site_dim != b.site_dim:
        raise ContractViolation(
            f"mismatched site dimensions: {a.site_dim} vs {b.site_dim}"
        )


def _op_fingerprint(op: LocalOperator):
    return (op.scalar, tuple((b.sites, b.matrix.tobytes()) for b in op.blocks))


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


def relabel(op: LocalOperator, site_map) -> LocalOperator:
    """Move the factor at each site ``x`` of ``op`` to site ``site_map[x]``.

    ``site_map`` is one-to-one on the support, so canonical form is kept.  A
    block whose sites change order has its tensor legs permuted to match.
    """
    d = op.site_dim
    blocks = []
    for b in op.blocks:
        new = [site_map[s] for s in b.sites]
        sites = tuple(sorted(new))
        mat = b.matrix
        if list(sites) != new:
            legs = sorted(range(len(new)), key=new.__getitem__)
            axes = legs + [i + len(legs) for i in legs]
            mat = mat.reshape((d,) * len(axes)).transpose(axes).reshape(mat.shape)
        blocks.append(Block(sites, mat))
    blocks.sort(key=lambda b: b.sites[0])
    return LocalOperator(d, op.scalar, tuple(blocks))


# ---------------------------------------------------------------------------
# dense materialization

_ONE = np.ones((1, 1), dtype=complex)


def _digit_offsets(legs, place, d) -> np.ndarray:
    """Basis-index offsets of every digit string on ``legs``, first leg most significant."""
    off = np.zeros(1, dtype=np.intp)
    for s in legs:
        off = (off[:, None] + np.arange(d) * place[s]).ravel()
    return off


def _assemble(terms, sites, d, dim_cap) -> np.ndarray:
    """Dense matrix of ``sum w * scalar * (x) blocks`` on the ascending tuple ``sites``.

    ``terms`` holds ``(w, scalar, blocks)`` triples.  The output is allocated
    once.  Each term adds ``w * (scalar * K)``, with ``K`` the Kronecker
    product of its blocks, along the diagonal of its spectator sites through
    basis-index offsets: O(dim * K.shape[0]) work, with no identity factor
    and no permuted copy.
    """
    dim = d ** len(sites)
    if dim > dim_cap:
        raise CapacityError(
            f"dense materialization at dimension {dim} exceeds cap {dim_cap}"
        )
    place = {s: d ** (len(sites) - 1 - i) for i, s in enumerate(sites)}
    out = np.zeros((dim, dim), dtype=complex)
    for w, scalar, blocks in terms:
        covered = [s for b in blocks for s in b.sites]
        spectators = [s for s in sites if s not in covered]
        kron = reduce(np.kron, [b.matrix for b in blocks]) if blocks else _ONE
        # ufunc calls, not operators: numpy may evaluate ``c * temporary`` in
        # place as ``temporary * c``, and complex products round differently
        # with the operands swapped
        block = np.multiply(w, np.multiply(scalar, kron))
        idx = _digit_offsets(covered, place, d)[:, None] + _digit_offsets(spectators, place, d)
        out[idx[:, None], idx[None, :]] += block[:, :, None]
    return out


def dense_matrix(obj, volume, dim_cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Full d^N x d^N matrix of an operator or sum on the given volume."""
    n = check_volume(volume)
    _check_support_fits(obj.support, n)
    if isinstance(obj, LocalOperator):
        terms = [(1.0, obj.scalar, obj.blocks)]
    else:
        terms = [(w, op.scalar, op.blocks) for w, op in obj.terms]
    return _assemble(terms, tuple(range(1, n + 1)), obj.site_dim, dim_cap)


def _check_support_fits(support, n):
    if support and (support[0] < 1 or support[-1] > n):
        raise ContractViolation(
            f"support {support} does not fit in volume of {n} sites"
        )


# ---------------------------------------------------------------------------
# products and commutators


def _overlap_components(blocks_a, blocks_b):
    """Group blocks of two operators by support-overlap connectivity.

    Returns a list of components, each a pair (list of a-blocks, list of
    b-blocks).  Blocks within one operator are disjoint, so any component with
    more than one node mixes both operators.
    """
    nodes = [("a", b) for b in blocks_a] + [("b", b) for b in blocks_b]
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    site_owner: dict[int, int] = {}
    for i, (_, blk) in enumerate(nodes):
        for s in blk.sites:
            if s in site_owner:
                ra, rb = find(site_owner[s]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                site_owner[s] = i
    comps: dict[int, tuple[list, list]] = {}
    for i, (tag, blk) in enumerate(nodes):
        comp = comps.setdefault(find(i), ([], []))
        comp[0 if tag == "a" else 1].append(blk)
    return list(comps.values())


def product(a: LocalOperator, b: LocalOperator) -> LocalOperator:
    """Operator product; densifies only on support-overlap components."""
    _same_dim(a, b)
    d = a.site_dim
    scalar = a.scalar * b.scalar
    if scalar == 0:
        return zero_op(d)
    new, kept = [], []
    for ablks, bblks in _overlap_components(a.blocks, b.blocks):
        if ablks and bblks:
            sites = tuple(sorted({s for blk in ablks + bblks for s in blk.sites}))
            am = _assemble([(1.0, 1.0, ablks)], sites, d, DENSE_DIM_CAP)
            bm = _assemble([(1.0, 1.0, bblks)], sites, d, DENSE_DIM_CAP)
            new.append(Block(sites, am @ bm))
        else:
            kept.extend(ablks or bblks)
    return _make_op(d, scalar, new, kept)


def commutator(a: LocalOperator, b: LocalOperator) -> LocalOperator:
    """``a b - b a``; exactly zero, with no matrix work, for disjoint supports."""
    _same_dim(a, b)
    d = a.site_dim
    if a.is_zero or b.is_zero or not (set(a.support) & set(b.support)):
        return zero_op(d)
    spectators = []
    mixed_a, mixed_b = [], []
    for ablks, bblks in _overlap_components(a.blocks, b.blocks):
        if ablks and bblks:
            mixed_a.extend(ablks)
            mixed_b.extend(bblks)
        else:
            spectators.extend(ablks or bblks)
    sites = tuple(sorted({s for blk in mixed_a + mixed_b for s in blk.sites}))
    am = _assemble([(1.0, 1.0, mixed_a)], sites, d, DENSE_DIM_CAP)
    bm = _assemble([(1.0, 1.0, mixed_b)], sites, d, DENSE_DIM_CAP)
    return _make_op(d, a.scalar * b.scalar, [Block(sites, am @ bm - bm @ am)], spectators)


def sum_product(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    _same_dim(a, b)
    terms = []
    for wa, oa in a.terms:
        for wb, ob in b.terms:
            terms.append((wa * wb, product(oa, ob)))
    return operator_sum(terms, a.site_dim)


def sum_commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Termwise commutator with the disjoint-support short-circuit.

    When a single term pair overlaps on a region too large to densify (two
    long product operators), the pair is kept as the difference of the two
    factored products instead.
    """
    _same_dim(a, b)
    terms = []
    for wa, oa in a.terms:
        for wb, ob in b.terms:
            try:
                c = commutator(oa, ob)
            except CapacityError:
                terms.append((wa * wb, product(oa, ob)))
                terms.append((-wa * wb, product(ob, oa)))
                continue
            if not c.is_zero:
                terms.append((wa * wb, c))
    return operator_sum(terms, a.site_dim)


# ---------------------------------------------------------------------------
# matrix-free application


def _apply_block_tensor(vec_t: np.ndarray, blk: Block, d: int) -> np.ndarray:
    k = len(blk.sites)
    axes = [s - 1 for s in blk.sites]
    t = blk.matrix.reshape((d,) * (2 * k))
    out = np.tensordot(t, vec_t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, range(k), axes)


def _apply_terms(vec_t: np.ndarray, terms, d: int) -> np.ndarray:
    out = np.zeros_like(vec_t)
    for w, op in terms:
        cur = vec_t
        for blk in op.blocks:
            cur = _apply_block_tensor(cur, blk, d)
        out += (w * op.scalar) * cur
    return out


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class NormResult:
    value: float
    converged: bool
    iterations: int = 0


def _norm_bound(terms, dense_cap) -> float:
    """``sum |w| ||op||``, an upper bound on the norm of the sum of the terms;
    a block above ``dense_cap`` counts with its Frobenius norm."""
    total = 0.0
    for w, op in terms:
        try:
            total += abs(w) * op.norm_exact(dense_cap)
        except CapacityError:
            total += abs(w * op.scalar) * math.prod(
                float(np.linalg.norm(b.matrix)) for b in op.blocks
            )
    return total


def _compact_terms(s: OperatorSum):
    """Relabel the union support to {1..m}; norms are invariant under this."""
    union = s.support
    rank = {site: i + 1 for i, site in enumerate(union)}
    return [(w, relabel(op, rank)) for w, op in s.terms], len(union)


# Columns per step of the in-place restart rotation.
_ROTATE_CHUNK = 2**14


def _cgs2(basis, w):
    """Orthogonalize ``w`` in place against the orthonormal rows of ``basis``
    by classical Gram-Schmidt, twice; returns the coefficients and ``||w||``."""
    coeffs = np.zeros(len(basis), dtype=complex)
    for _ in range(2):
        c = np.conj(basis @ np.conj(w))
        w -= c @ basis
        coeffs += c
    return coeffs, float(np.linalg.norm(w))


def _power_iteration_norm(gram_apply, dim, rng):
    """Largest singular value via block Lanczos on ``a* a``.

    Band Lanczos with full reorthogonalization, one vector at a time: each
    basis row in turn is applied, orthogonalized against the whole basis and
    appended, so the coefficients form ``T = Q* (a* a) Q``.  The start block
    holds ``ITERATIVE_BLOCK`` random vectors, which resolves top clusters up
    to that size.  Once every vector of the start block has been applied, the
    top Ritz pair ``(theta, y)`` of the applied part is tested after each
    apply.  Its residual norm is ``||T[done:size, :done] y||`` combined with
    ``|y_last| * beta`` when the basis was too full to take the last residual,
    of norm ``beta``; convergence is declared when it is at most
    ``ITERATIVE_TOL * theta``, which puts ``theta`` that close to an
    eigenvalue of ``a* a``, or at most ``_ROUNDING_RESIDUAL * sqrt(theta)``,
    the rounding level of ``gram_apply`` once :func:`norm` has scaled ``a``
    to a norm bound of at most 1.  A full basis of ``ITERATIVE_BASIS``
    vectors restarts from the top Ritz vectors, unless it can hold the whole
    space.
    ``iterations`` counts ``gram_apply`` calls.  (The name predates the
    Lanczos kernel; ``bench/tracing.py`` wraps it by name.)
    """
    b = min(ITERATIVE_BLOCK, dim)
    cap = min(ITERATIVE_BASIS, dim)
    q = np.zeros((cap, dim), dtype=complex)
    t = np.zeros((cap, cap), dtype=complex)
    for i in range(b):
        rng.standard_normal(out=q[i].view(np.float64))
        _, length = _cgs2(q[:i], q[i])
        q[i] /= length
    size = b
    done = applies = 0
    best = 0.0
    while done < size and applies < ITERATIVE_MAX_ITER:
        w = gram_apply(q[done])
        applies += 1
        scale = float(np.linalg.norm(w))
        t[:size, done], beta = _cgs2(q[:size], w)
        done += 1
        if beta <= 1e-12 * scale or size == dim:
            beta = 0.0  # nothing outside the basis span but rounding
        elif size < cap:
            np.divide(w, beta, out=q[size])
            t[size, done - 1] = beta
            size += 1
            beta = 0.0
        vals, vecs = np.linalg.eigh(t[:done, :done])
        theta = float(vals[-1])
        best = max(best, theta)
        if done < b:
            continue
        y = vecs[:, -1]
        res = np.hypot(np.linalg.norm(t[done:size, :done] @ y), abs(y[-1]) * beta)
        if res <= max(ITERATIVE_TOL * theta, _ROUNDING_RESIDUAL * np.sqrt(max(theta, 0.0))):
            return NormResult(float(np.sqrt(max(theta, 0.0))), True, applies)
        if beta:
            # the basis is full: restart from the top Ritz vectors, top first
            ritz = vecs[:, : -b - 1 : -1].T
            for c in range(0, dim, _ROTATE_CHUNK):
                q[:b, c : c + _ROTATE_CHUNK] = ritz @ q[:done, c : c + _ROTATE_CHUNK]
            t[:] = 0.0
            size = b
            done = 0
    return NormResult(float(np.sqrt(max(best, 0.0))), False, applies)


def norm(
    s,
    volume,
    method: str = "auto",
    *,
    dense_cap: int = DENSE_DIM_CAP,
    seed: int = 7,
) -> NormResult:
    """Operator norm of a sum (or single operator) on the given volume.

    ``method`` is ``"dense"`` (exact eigensolve), ``"iterative"``
    (matrix-free block Lanczos on ``a* a``, deterministic seeded start), or
    ``"auto"``.  Two separate limits apply to the compacted dimension.
    ``dense_cap`` is the memory cap: ``"dense"`` refuses a larger matrix with
    a :class:`CapacityError` that names the iterative route.  ``"auto"`` is a
    router on measured speed: it takes dense only up to the crossover
    ``_AUTO_DENSE_DIM``, or ``dense_cap`` when that is lower, and block
    Lanczos above.  Both paths first compact the sum onto its union support,
    which leaves the norm unchanged.
    The dense path assembles the compacted sum in one ``dim x dim`` array and
    hands it to :func:`~spintail.matrices.operator_norm_dense`: float64 when
    the imaginary part is exactly zero, ``max |eigvalsh(a)|`` when the skew
    defect ``||a - a*||_F`` proves that within 1e-13 relative of the norm,
    ``sqrt(lambda_max(a* a))`` otherwise.  Single-term sums are exact
    products of per-block dense norms for every method.  An iterative norm
    that has not converged within ``ITERATIVE_MAX_ITER`` applies of ``a* a``
    is reported via the ``converged`` flag, never as a silent wrong answer.
    """
    if isinstance(s, LocalOperator):
        s = s.as_sum()
    n = check_volume(volume)
    _check_support_fits(s.support, n)
    if method not in ("dense", "iterative", "auto"):
        raise ContractViolation(f"unknown norm method {method!r}")
    if seed < 0:
        raise ContractViolation(f"norm seeds are nonnegative integers, got {seed}")
    if s.is_zero:
        return NormResult(0.0, True, 0)
    if len(s.terms) == 1:
        w, op = s.terms[0]
        try:
            return NormResult(abs(w) * op.norm_exact(dense_cap), True, 0)
        except CapacityError:
            if method == "dense":
                raise
            # a single block larger than the cap: fall through to iteration
    terms, m = _compact_terms(s)
    d = s.site_dim
    dim = d**m
    if method == "auto":
        method = "dense" if dim <= min(_AUTO_DENSE_DIM, dense_cap) else "iterative"
    if method == "dense":
        if dim > dense_cap:
            raise CapacityError(
                f"dense norm at dimension {dim} exceeds cap {dense_cap}; "
                "use method='iterative'"
            )
        mat = _assemble(
            [(w, op.scalar, op.blocks) for w, op in terms], tuple(range(1, m + 1)), d, dense_cap
        )
        return NormResult(operator_norm_dense(mat, dense_cap), True, 0)
    if dim > ITERATIVE_STATE_CAP:
        raise CapacityError(
            f"iterative norm needs state vectors of length {dim}, above the cap "
            f"{ITERATIVE_STATE_CAP}"
        )
    # weights scaled by the power of two just above the norm bound, which is
    # exact, give a* a norm at most 1, so the kernel's stop test is relative
    scale = math.ldexp(1.0, -math.frexp(_norm_bound(terms, dense_cap))[1])
    terms = [(scale * w, op) for w, op in terms]
    adj_terms = [(np.conj(w), op.adjoint()) for w, op in terms]
    shape = (d,) * m if m else (1,)

    def gram_apply(v):
        t = v.reshape(shape)
        t = _apply_terms(t, terms, d)
        t = _apply_terms(t, adj_terms, d)
        return t.reshape(v.shape)

    rng = np.random.default_rng((seed, n, len(terms)))
    res = _power_iteration_norm(gram_apply, dim, rng)
    return NormResult(res.value / scale, res.converged, res.iterations)
