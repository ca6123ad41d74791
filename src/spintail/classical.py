"""Commutative mirror: trigonometric observables on per-site torus phase spaces.

Each site carries a torus T^2 with angle coordinates (q_x, p_x) and canonical
bracket {q_x, p_x} = 1.  Observables are finite Fourier series
``f = sum_k c(k) prod_x exp(i (m_x q_x + n_x p_x))`` stored as coefficient
maps keyed by integer frequency tuples, so products and Poisson brackets are
exact on coefficients: only the amplitudes are floating point.

The sup norm is reported as an interval: the l1 coefficient norm is a
rigorous upper bound, the maximum over a uniform angle grid a lower bound.
Vanishing claims use the upper bound, non-vanishing claims the lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import DecayReport, classify_trace
from .errors import CapacityError, ContractViolation
from .sequences import as_schedule

__all__ = [
    "TrigObservable",
    "trig_term",
    "constant",
    "cos_q",
    "sin_q",
    "cos_p",
    "sin_p",
    "poisson_bracket",
    "sup_norm_bounds",
    "cyclic_average_eval",
    "ClassicalLocalEmbed",
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
        site, m, n = int(site), int(m), int(n)
        if site < 1:
            raise ContractViolation(f"sites are >= 1, got {site}")
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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({s for key in self.coeffs for s, _, _ in key}))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def l1_norm(self) -> float:
        return float(sum(abs(c) for c in self.coeffs.values()))

    def is_real(self) -> bool:
        for key, c in self.coeffs.items():
            mirror = tuple((s, -m, -n) for s, m, n in key)
            if abs(self.coeffs.get(mirror, 0j) - np.conj(c)) > 1e-12:
                return False
        return True

    def conjugate(self) -> "TrigObservable":
        out: dict[FreqKey, complex] = {}
        for key, c in self.coeffs.items():
            out[tuple((s, -m, -n) for s, m, n in key)] = np.conj(c)
        return _build(out)

    def _moved(self, site_of) -> "TrigObservable":
        """The observable with each factor at site s moved to ``site_of(s)``."""
        out: dict[FreqKey, complex] = {}
        for key, c in self.coeffs.items():
            new = _canonical_key((site_of(s), m, n) for s, m, n in key)
            out[new] = out.get(new, 0j) + c
        return _build(out)

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
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0j) + c
        return _build(out)

    def __sub__(self, other: "TrigObservable") -> "TrigObservable":
        return self + other.scale(-1.0)

    def scale(self, c) -> "TrigObservable":
        c = complex(c)
        return _build({k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "TrigObservable") -> "TrigObservable":
        out: dict[FreqKey, complex] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = _merge_keys(k1, k2)
                out[key] = out.get(key, 0j) + c1 * c2
        return _build(out)


def _build(coeffs: dict[FreqKey, complex]) -> TrigObservable:
    return TrigObservable({k: v for k, v in coeffs.items() if v != 0})


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


def constant(c) -> TrigObservable:
    return trig_term(c, [])


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
    out: dict[FreqKey, complex] = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            g_at = {s: (m, n) for s, m, n in k2}
            s_factor = 0
            for s, m, n in k1:
                m2, n2 = g_at.get(s, (0, 0))
                s_factor += m * n2 - n * m2
            if s_factor == 0:
                continue
            key = _merge_keys(k1, k2)
            # canonical multiplication order, so the two cross terms of
            # {f, f} cancel bitwise and antisymmetry is exact
            prod = c1 * c2 if k1 <= k2 else c2 * c1
            out[key] = out.get(key, 0j) + (-s_factor) * prod
    return _build(out)


# Grid lower bounds cover at most this many active sites, and evaluate at
# most GRID_CHUNK grid points at once so memory stays bounded.
GRID_SITE_CAP = 3
GRID_CHUNK = 1 << 16


def sup_norm_bounds(f: TrigObservable, grid_points: int = 64) -> tuple[float, float]:
    """(lower, upper) enclosure of the sup norm.

    upper: l1 norm of coefficients (rigorous).  lower: max |f| over a uniform
    grid with ``grid_points`` angles per active coordinate, streamed in
    chunks of ``GRID_CHUNK`` points.  Grids over more than ``GRID_SITE_CAP``
    active sites are refused.
    """
    if grid_points < 8:
        raise ContractViolation("grids need at least 8 points per angle")
    upper = f.l1_norm()
    coords = sorted(
        {(s, 0) for key in f.coeffs for s, m, _ in key if m != 0}
        | {(s, 1) for key in f.coeffs for s, _, n in key if n != 0}
    )
    if not coords:
        lower = abs(sum(f.coeffs.values())) if f.coeffs else 0.0
        return float(lower), upper
    active_sites = {s for s, _ in coords}
    if len(active_sites) > GRID_SITE_CAP:
        raise CapacityError(
            f"grid evaluation over {len(active_sites)} active sites exceeds the "
            f"cap of {GRID_SITE_CAP}; reduce the support"
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
    ncoords = len(coords)
    total = grid_points**ncoords
    step = 2.0 * np.pi / grid_points
    lower = 0.0
    for start in range(0, total, GRID_CHUNK):
        idx = np.arange(start, min(start + GRID_CHUNK, total))
        digits = np.empty((ncoords, idx.size), dtype=float)
        rem = idx
        for c in range(ncoords - 1, -1, -1):
            digits[c] = rem % grid_points
            rem = rem // grid_points
        angles = digits * step
        vals = amps @ np.exp(1j * (freq_rows @ angles))
        lower = max(lower, float(np.max(np.abs(vals))))
    return lower, upper


def cyclic_average_eval(f: TrigObservable, n: int) -> TrigObservable:
    """(1/N) sum of all cyclic translates inside {1, ..., N}."""
    sup = f.support
    if sup and sup[-1] > n:
        raise ContractViolation(f"support {sup} outside volume of {n} sites")
    acc: dict[FreqKey, complex] = {}
    for j in range(n):
        for key, c in f._moved(lambda s: (s - 1 - j) % n + 1).coeffs.items():
            acc[key] = acc.get(key, 0j) + c
    return _build(acc).scale(1.0 / n)


# The classical sequences: plain evaluation rules N -> TrigObservable.  Like
# every sequence a trace reads, each needs only ``eval(n)``.


@dataclass
class ClassicalLocalEmbed:
    f: TrigObservable

    def eval(self, n: int) -> TrigObservable:
        sup = self.f.support
        if sup and sup[-1] > n:
            return TrigObservable({})
        return self.f


@dataclass
class ClassicalCyclicAverage:
    f: TrigObservable

    def eval(self, n: int) -> TrigObservable:
        if self.f.support and self.f.support[-1] > n:
            return TrigObservable({})
        return cyclic_average_eval(self.f, n)


@dataclass
class TailShifted:
    """The observable pushed past the volume: its support starts at site N + 1.

    By construction its bracket with anything supported in {1, ..., N_0}
    vanishes exactly once N >= N_0.
    """

    f: TrigObservable

    def eval(self, n: int) -> TrigObservable:
        sup = self.f.support
        return self.f._moved(lambda s: s + n + 1 - sup[0]) if sup else self.f


def tail_sequence(f: TrigObservable) -> TailShifted:
    return TailShifted(f)


def bracket_decay_test(seq, probe: TrigObservable, schedule) -> DecayReport:
    """Trace of l1 upper bounds of {a_N, probe}; classification as for norms.

    ``seq`` is any classical sequence, that is anything with ``eval(n)``
    returning a :class:`TrigObservable`.  Upper bounds suffice for vanishing
    claims; they are exact for the single-translate overlaps exercised here.
    """
    pairs, secs = as_schedule(schedule).trace(
        lambda n: poisson_bracket(seq.eval(n), probe).l1_norm()
    )
    return classify_trace(pairs, secs)
