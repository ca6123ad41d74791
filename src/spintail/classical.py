"""The commutative side: trigonometric observables on per-site torus phase spaces.

Each site carries a torus T^2 with angle coordinates (q_x, p_x) and canonical
bracket {q_x, p_x} = 1.  Observables are finite Fourier series
``f = sum_k c(k) prod_x exp(i (m_x q_x + n_x p_x))`` stored as coefficient
maps keyed by integer frequency tuples, so products and Poisson brackets are
exact on coefficients: only the amplitudes are floating point.

The sup norm is reported as an interval: the l1 coefficient norm is a
rigorous upper bound, the maximum over a uniform angle grid a lower bound.
Bracket traces are classified on the l1 upper bound alone, non-vanishing
claims included; the grid lower bound feeds no classification.

The shift and sequence code take an observable as they take an operator sum:
``ClassicalCyclicAverage`` and ``cyclic_average_eval`` are ``GammaSeq`` and
``gamma_average`` under their classical names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import MIN_POINTS, DecayReport, TracePoint, check_probe, classify_trace
from .errors import CapacityError, ContractViolation
from .localops import _moved_site, check_volume, is_integer
from .sequences import GammaSeq, as_schedule
from .shifts import gamma_average

__all__ = [
    "TrigObservable",
    "trig_term",
    "cos_q",
    "sin_q",
    "cos_p",
    "sin_p",
    "poisson_bracket",
    "sup_norm_bounds",
    "cyclic_average_eval",
    "ClassicalCyclicAverage",
    "TailShifted",
    "tail_sequence",
    "bracket_decay_test",
]

# key: ((site, m, n), ...) sorted by site, (m, n) != (0, 0) at every entry
FreqKey = tuple[tuple[int, int, int], ...]


def _canonical_key(freqs) -> FreqKey:
    items = []
    for site, m, n in freqs:
        if not is_integer(site) or site < 1:
            raise ContractViolation(f"sites are >= 1, got {site}")
        if not (is_integer(m) and is_integer(n)):
            raise ContractViolation(f"frequencies are integers, got ({m}, {n})")
        site, m, n = int(site), int(m), int(n)
        if (m, n) != (0, 0):
            items.append((site, m, n))
    items.sort()
    sites = [s for s, _, _ in items]
    if len(set(sites)) != len(sites):
        raise ContractViolation("duplicate site in a frequency tuple")
    return tuple(items)


@dataclass(frozen=True, eq=False)
class TrigObservable:
    """Finite Fourier series over finitely many torus sites."""

    coeffs: dict[FreqKey, complex]
    site_dim = None  # no matrix algebra on its sites: a classical element

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({s for key in self.coeffs for s, _, _ in key}))

    @property
    def ends(self) -> tuple[int, ...]:
        return self.support[:1] + self.support[-1:]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def terms(self) -> tuple[tuple[FreqKey, complex], ...]:
        """The ``(key, coefficient)`` pairs, in order."""
        return tuple(self.coeffs.items())

    def as_sum(self) -> "TrigObservable":
        return self

    def l1_norm(self) -> float:
        return float(sum(abs(c) for c in self.coeffs.values()))

    # the shift protocol of spintail.shifts, shared with operator sums
    def _moved(self, moves) -> "TrigObservable":
        """The observable with its sites moved by the piecewise translation ``moves``."""
        return _build(
            (_canonical_key((_moved_site(moves, s), m, n) for s, m, n in key), c)
            for key, c in self.coeffs.items()
        )

    def _parts(self):
        return [([s for s, _, _ in key], (key, c)) for key, c in self.coeffs.items()]

    def _of(self, terms) -> "TrigObservable":
        return _build(terms)

    def evaluate(self, angles: dict[tuple[int, str], float]) -> complex:
        """Value at a point; ``angles`` maps (site, "q"|"p") to an angle."""
        total = 0j
        for key, c in self.coeffs.items():
            phase = 0.0
            for s, m, n in key:
                phase += m * angles.get((s, "q"), 0.0) + n * angles.get((s, "p"), 0.0)
            total += c * np.exp(1j * phase)
        return complex(total)

    def __add__(self, other: "TrigObservable") -> "TrigObservable":
        return _build([*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other: "TrigObservable") -> "TrigObservable":
        return self + other.scale(-1.0)

    def scale(self, c) -> "TrigObservable":
        c = complex(c)
        return _build((k, c * v) for k, v in self.coeffs.items())

    def __mul__(self, other: "TrigObservable") -> "TrigObservable":
        return _build(
            (_merge_keys(k1, k2), c1 * c2)
            for k1, c1 in self.coeffs.items()
            for k2, c2 in other.coeffs.items()
        )


def _build(pairs) -> TrigObservable:
    """Sum the ``(key, coefficient)`` pairs in order; keys that sum to zero are dropped."""
    out: dict[FreqKey, complex] = {}
    for key, c in pairs:
        out[key] = out.get(key, 0j) + c
    return TrigObservable({k: v for k, v in out.items() if v != 0})


def _merge_keys(k1: FreqKey, k2: FreqKey) -> FreqKey:
    acc: dict[int, tuple[int, int]] = {s: (m, n) for s, m, n in k1}
    for s, m, n in k2:
        pm, pn = acc.get(s, (0, 0))
        acc[s] = (pm + m, pn + n)
    return tuple(
        (s, m, n) for s, (m, n) in sorted(acc.items()) if (m, n) != (0, 0)
    )


def trig_term(amplitude, freqs) -> TrigObservable:
    """One Fourier term: ``amplitude * prod exp(i (m q_site + n p_site))``.

    ``freqs`` is an iterable of (site, m, n) triples.
    """
    amplitude = complex(amplitude)
    if amplitude == 0:
        return TrigObservable({})
    return TrigObservable({_canonical_key(freqs): amplitude})


def cos_q(site: int) -> TrigObservable:
    return trig_term(0.5, [(site, 1, 0)]) + trig_term(0.5, [(site, -1, 0)])


def sin_q(site: int) -> TrigObservable:
    return trig_term(-0.5j, [(site, 1, 0)]) + trig_term(0.5j, [(site, -1, 0)])


def cos_p(site: int) -> TrigObservable:
    return trig_term(0.5, [(site, 0, 1)]) + trig_term(0.5, [(site, 0, -1)])


def sin_p(site: int) -> TrigObservable:
    return trig_term(-0.5j, [(site, 0, 1)]) + trig_term(0.5j, [(site, 0, -1)])


def poisson_bracket(f: TrigObservable, g: TrigObservable) -> TrigObservable:
    """Canonical bracket, exact on coefficients.

    Two exponentials with frequencies k, k' combine to the frequency sum with
    the integer symplectic factor -sum_x (m_x n'_x - n_x m'_x); sites present
    in only one factor contribute nothing, so disjoint supports give the
    empty coefficient map exactly.
    """
    pairs = []
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            g_at = {s: (m, n) for s, m, n in k2}
            s_factor = 0
            for s, m, n in k1:
                m2, n2 = g_at.get(s, (0, 0))
                s_factor += m * n2 - n * m2
            if s_factor == 0:
                continue
            # canonical multiplication order, so the two cross terms of
            # {f, f} cancel bitwise and antisymmetry is exact
            prod = c1 * c2 if k1 <= k2 else c2 * c1
            pairs.append((_merge_keys(k1, k2), (-s_factor) * prod))
    return _build(pairs)


# Grid lower bounds evaluate at most GRID_POINT_CAP points in all (about a
# second), at most GRID_CHUNK at once, and fewer when the observable has more
# than GRID_ENTRY_CAP // GRID_CHUNK terms, so that the terms x points arrays
# of a chunk (phases, then exponentials) hold at most GRID_ENTRY_CAP entries.
# Memory then stays bounded whatever the term count: tracemalloc peaks of 38,
# 34 and 33 MiB for 16, 64 and 160 terms on a 2**20-point grid, against 38,
# 134 and 326 MiB with chunks of GRID_CHUNK points.
GRID_POINT_CAP = 1 << 20
GRID_CHUNK = 1 << 16
GRID_ENTRY_CAP = 1 << 20


def sup_norm_bounds(f: TrigObservable, grid_points: int = 64) -> tuple[float, float]:
    """(lower, upper) enclosure of the sup norm.

    upper: l1 norm of coefficients (rigorous).  lower: max |f| over a uniform
    grid with ``grid_points`` angles per active coordinate, streamed in
    chunks of at most ``GRID_CHUNK`` points and ``GRID_ENTRY_CAP`` (term,
    point) pairs.  Grids of more than ``GRID_POINT_CAP`` points are refused
    before any evaluation.
    """
    if not is_integer(grid_points) or grid_points < 8:
        raise ContractViolation(f"grids need at least 8 points per angle, got {grid_points!r}")
    grid_points = int(grid_points)
    upper = f.l1_norm()
    coords = sorted(
        {(s, 0) for key in f.coeffs for s, m, _ in key if m != 0}
        | {(s, 1) for key in f.coeffs for s, _, n in key if n != 0}
    )
    if not coords:
        lower = abs(sum(f.coeffs.values())) if f.coeffs else 0.0
        return float(lower), upper
    ncoords = len(coords)
    total = grid_points**ncoords
    if total > GRID_POINT_CAP:
        fits = int(GRID_POINT_CAP ** (1 / ncoords))
        fits += (fits + 1) ** ncoords <= GRID_POINT_CAP  # the float root may fall short
        raise CapacityError(
            f"a grid of {total} points over {ncoords} active coordinates exceeds the cap of "
            f"{GRID_POINT_CAP}; grid_points={fits} fits"
            + ("" if fits >= 8 else ", below the minimum of 8: reduce the support")
        )
    keys = list(f.coeffs.items())
    coord_index = {c: i for i, c in enumerate(coords)}
    freq_rows = np.zeros((len(keys), len(coords)))
    for r, (key, _) in enumerate(keys):
        for s, m, n in key:
            if (s, 0) in coord_index:
                freq_rows[r, coord_index[(s, 0)]] = m
            if (s, 1) in coord_index:
                freq_rows[r, coord_index[(s, 1)]] = n
    amps = np.array([c for _, c in keys])
    step = 2.0 * np.pi / grid_points
    lower = 0.0
    chunk = max(1, min(GRID_CHUNK, GRID_ENTRY_CAP // len(keys)))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        angles = np.array(np.unravel_index(idx, (grid_points,) * ncoords), dtype=float) * step
        vals = amps @ np.exp(1j * (freq_rows @ angles))
        lower = max(lower, float(np.max(np.abs(vals))))
    return lower, upper


ClassicalCyclicAverage = GammaSeq
cyclic_average_eval = gamma_average


@dataclass
class TailShifted:
    """The observable pushed past the volume: its support starts at site N + 1.

    By construction its bracket with anything supported in {1, ..., N_0}
    vanishes exactly once N >= N_0.
    """

    f: TrigObservable
    site_dim = None

    def eval(self, n: int, region=None) -> TrigObservable:
        n = check_volume(n)
        sup = self.f.support
        return self.f._moved(((sup[0], n + 1 - sup[0]),)) if sup else self.f


def tail_sequence(f: TrigObservable) -> TailShifted:
    return TailShifted(f)


def bracket_decay_test(seq, probe: TrigObservable, schedule) -> DecayReport:
    """Trace of l1 upper bounds of {a_N, probe}; classification as for norms.

    ``seq`` is any classical sequence, evaluated on the probe's support, so a
    :class:`ClassicalCyclicAverage` builds only its translates meeting the
    probe, the only ones with a nonzero bracket: same trace, bit for bit.
    Every classification, a ``bounded_nonvanishing`` one included, is made
    on these upper bounds alone; no lower bound enters.
    Like the quantum estimators, it needs at least
    :data:`~spintail.asymptotics.MIN_POINTS` schedule points, and like
    ``gamma_bound_check`` it refuses a probe outside the smallest volume.
    """
    schedule = as_schedule(schedule, MIN_POINTS)
    check_probe(probe, schedule)
    trace = schedule.trace(
        lambda n: TracePoint(n, poisson_bracket(seq.eval(n, probe.support), probe).l1_norm())
    )
    return classify_trace(trace)
