"""Seeded workload generator: benchmark seed -> spintail CLI configs plus references.

Each workload is a list of :class:`Case`.  A case holds the config exactly as
a CLI user would write it (the program receives nothing else), the
per-series classifications that config must produce, and a
``reference`` callable giving every expected point value.  References come
from closed forms or from this file's own numpy code, never from spintail,
and are only evaluated after the timed passes so they do not touch the
measured process's peak memory.

Why each workload and input property was chosen:

* ``norm_dense`` -- norm, decay and equivalence traces of shift averages at
  volumes 4..10 (compacted dimension 16..1024, below ``DENSE_DIM_CAP``).
  Every multi-term point takes the dense route under ``auto``, so dense
  assembly and the eigensolve dominate and the term-algebra layers do
  little.  This is where a router or dense-kernel change shows.  N stops at
  10 so that one pass takes three to four seconds; N = 11 alone costs about 4 s.
* ``norm_iterative`` -- the same rotated seeds at volumes 13 and 14
  (dimension 8192 and 16384, above the cap), so every multi-term point takes
  block power iteration and ``gram_apply`` dominates.  A router change
  should leave it unmoved; an iterative-kernel change moves it and leaves
  ``norm_dense`` alone.  Each schedule starts at the seed's own window,
  where the shift average collapses to one term (exact route), so the trace
  has the three points a tail fit needs without a costly N = 15 point.
* ``macro_averages`` -- large-N work with few or exact norms: gamma-bound
  on geometric schedules into the thousands, ``variance`` up to 128 sites
  (quadratic in N), a product-sequence expectation at thousands of sites
  and the classical cyclic-average bracket decay.  The parts are sized so
  that no experiment kind dominates a pass.  This is where O(W) statistics,
  overlapping-shift generation and classical accumulation show, while the
  dense and iterative norm layers do almost nothing.

Input properties:

* Rotated seeds use one seeded Haar-random 2x2 unitary U on every site:
  ``U s3 U*`` and ``(U s1 U*) (x) (U s1 U*)``.  Their shift averages are
  unitarily equivalent to commuting Ising sums, so the norm is exactly 1 at
  every N and commutators against the rotated probe are exactly 2/N and 4/N,
  while the matrices the program sees are dense and complex.
* Random two-site seeds are real symmetric 4x4 matrices (a subset of
  Hermitian).  Complex two-site literals cannot be written in a config: a
  4x4 matrix with ``[re, im]`` entries is read as a per-site matrix list by
  ``spintail.cli``.  Their norms are checked against a numpy eigensolve.
* Product states are random one-site density matrices.  For ``variance``
  the Bloch length stays below 0.9, so the one-site variance is bounded away
  from zero; for ``expect`` the observable is aligned with the Bloch vector
  and the Bloch length lies in [0.995, 0.9995], so ``<u>^N`` stays far above
  underflow at 4096 sites.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("norm_dense", "norm_iterative", "macro_averages")

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@dataclass
class Case:
    label: str
    config: dict
    # series label -> expected classification
    classification: dict[str, str]
    # () -> series label -> expected value at each schedule point
    reference: Callable[[], dict[str, list[float]]]
    text: str = field(init=False)

    def __post_init__(self):
        self.text = json.dumps(self.config, sort_keys=True)


def _cmat(m) -> list:
    """A matrix as rows of [re, im] entries (only valid inside per-site lists)."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _rmat(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m)]


def _rotated_paulis(rng) -> tuple[np.ndarray, np.ndarray]:
    """(U s1 U*, U s3 U*) for one Haar-random 2x2 unitary U."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return u @ S1 @ u.conj().T, u @ S3 @ u.conj().T


def _site_op(mats, sites) -> dict:
    return {"matrix": [_cmat(m) for m in mats], "sites": list(sites)}


def _gamma(op) -> dict:
    return {"kind": "gamma", "seed": op}


def _scale_1_over_n(seq) -> dict:
    return {"kind": "scale", "factor": "1/N", "inner": seq}


def _config(experiment, schedule, seed, **fields) -> dict:
    cfg = {
        "experiment": experiment,
        "schedule": list(schedule),
        "method": "auto",
        "seed": seed,
        "assert": {"all_converged": True},
    }
    cfg.update(fields)
    return cfg


def ring_average_norm(h: np.ndarray, n: int) -> float:
    """max |eigenvalue| of (1/n) sum_j h on bond (j, j+1 mod n), h real symmetric 4x4.

    Built by permuting basis indices of ``h (x) 1`` (site 1 most significant)
    and solved with a real symmetric eigensolve -- a different route from the
    program's block relabelling, complex assembly and Gram eigensolve.
    """
    dim = 2**n
    bond = np.kron(h, np.eye(dim // 4))
    idx = np.arange(dim)
    # rotate digits left by one site: bond (1, 2) -> (2, 3) -> ... -> (n, 1)
    step = ((idx << 1) & (dim - 1)) | (idx >> (n - 1))
    perm = idx
    total = np.zeros((dim, dim))
    for _ in range(n):
        total += bond[np.ix_(perm, perm)]
        perm = step[perm]
    return float(np.max(np.abs(np.linalg.eigvalsh(total)))) / n


def _constant(labels_values):
    return lambda: labels_values


def _norm_dense(rng, seed) -> list[Case]:
    r1, r3 = _rotated_paulis(rng)
    a = rng.normal(size=(4, 4))
    h = (a + a.T) / 2
    s3 = _gamma(_site_op([r3], [1]))
    s11 = _gamma(_site_op([r1, r1], [1, 2]))
    gh = _gamma({"matrix": _rmat(h), "sites": [1, 2]})
    sched = list(range(4, 11))
    ones = [1.0] * len(sched)
    inv = [1.0 / n for n in sched]
    return [
        Case(
            "norm rotated s3",
            _config("norm", sched, seed, sequence=s3),
            {"norm": "bounded_nonvanishing"},
            _constant({"norm": ones}),
        ),
        Case(
            "norm rotated s1s1",
            _config("norm", sched, seed, sequence=s11),
            {"norm": "bounded_nonvanishing"},
            _constant({"norm": ones}),
        ),
        Case(
            "decay random two-site / N",
            _config("decay", sched, seed, sequence=_scale_1_over_n(gh)),
            {"vanishing": "vanishing"},
            lambda: {"vanishing": [ring_average_norm(h, n) / n for n in sched]},
        ),
        Case(
            "equiv random two-site",
            _config(
                "equiv",
                sched,
                seed,
                sequence=gh,
                sequence2={"kind": "sum", "left": gh, "right": _scale_1_over_n(s3)},
            ),
            {"difference": "vanishing"},
            _constant({"difference": inv}),
        ),
    ]


def _norm_iterative(rng, seed) -> list[Case]:
    r1, r3 = _rotated_paulis(rng)
    s3 = _gamma(_site_op([r3], [1]))
    s11 = _gamma(_site_op([r1, r1], [1, 2]))
    return [
        Case(
            "norm rotated s3",
            _config("norm", [1, 13, 14], seed, sequence=s3),
            {"norm": "bounded_nonvanishing"},
            _constant({"norm": [1.0, 1.0, 1.0]}),
        ),
        Case(
            "norm rotated s1s1",
            _config("norm", [2, 13, 14], seed, sequence=s11),
            {"norm": "bounded_nonvanishing"},
            _constant({"norm": [1.0, 1.0, 1.0]}),
        ),
    ]


def _random_bloch(rng, lo, hi) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(lo, hi)


def _bloch_op(v) -> np.ndarray:
    return v[0] * S1 + v[1] * S2 + v[2] * S3


def _density(bloch) -> np.ndarray:
    return (I2 + _bloch_op(bloch)) / 2


def _macro_averages(rng, seed) -> list[Case]:
    r1, r3 = _rotated_paulis(rng)
    geo = [2**k for k in range(4, 14)]  # 16 .. 8192
    geo_short = [2**k for k in range(4, 13)]  # 16 .. 4096

    # variance: random Hermitian one-site observable in a random mixed state
    rho_v = _density(_random_bloch(rng, 0.3, 0.9))
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    obs = (z + z.conj().T) / 2
    mean = np.trace(rho_v @ obs).real
    one_site_var = np.trace(rho_v @ obs @ obs).real - mean**2
    var_sched = [16, 32, 64, 128]

    # expect: uniform product of the observable aligned with the Bloch vector
    bloch = _random_bloch(rng, 0.995, 0.9995)
    aligned = _bloch_op(bloch / np.linalg.norm(bloch))
    rho_e = _density(bloch)
    site_mean = np.trace(rho_e @ aligned).real
    exp_sched = [256, 512, 1024, 2048, 4096]

    # classical: a (e^{i(k q1 + l p2)} + c.c.) against cos p1 -> 2 a k / N
    amp = float(rng.uniform(0.5, 1.5))
    k, l = (int(x) for x in rng.integers(1, 3, size=2))
    f = {
        "terms": [
            {"amplitude": amp, "freqs": [[1, k, 0], [2, 0, l]]},
            {"amplitude": amp, "freqs": [[1, -k, 0], [2, 0, -l]]},
        ]
    }
    cl_sched = [64, 128, 256, 512, 1024]

    return [
        Case(
            "gamma-bound rotated s1s1 vs rotated s3@1",
            _config(
                "gamma-bound",
                geo,
                seed,
                sequence=_gamma(_site_op([r1, r1], [1, 2])),
                probe=_site_op([r3], [1]),
            ),
            {"commutator": "vanishing"},
            _constant({"commutator": [4.0 / n for n in geo]}),
        ),
        Case(
            "gamma-bound rotated s3 vs rotated s1@1",
            _config(
                "gamma-bound",
                geo_short,
                seed,
                sequence=_gamma(_site_op([r3], [1])),
                probe=_site_op([r1], [1]),
            ),
            {"commutator": "vanishing"},
            _constant({"commutator": [2.0 / n for n in geo_short]}),
        ),
        Case(
            "variance random state",
            _config(
                "variance",
                var_sched,
                seed,
                state={"rho": _cmat(rho_v)},
                observable=_site_op([obs], [1]),
            ),
            {"variance": "vanishing"},
            _constant({"variance": [one_site_var / n for n in var_sched]}),
        ),
        Case(
            "expect uniform product",
            _config(
                "expect",
                exp_sched,
                seed,
                state={"rho": _cmat(rho_e)},
                sequence={"kind": "uniform-product", "op": _cmat(aligned)},
            ),
            {"expectation.re": "vanishing", "expectation.im": "vanishing"},
            _constant(
                {
                    "expectation.re": [site_mean**n for n in exp_sched],
                    "expectation.im": [0.0] * len(exp_sched),
                }
            ),
        ),
        Case(
            "classical cyclic average",
            _config(
                "classical-decay",
                cl_sched,
                seed,
                sequence={"kind": "cyclic-average", "f": f},
                probe={"named": "cos_p", "site": 1},
            ),
            {"bracket.l1": "vanishing"},
            _constant({"bracket.l1": [2.0 * amp * k / n for n in cl_sched]}),
        ),
    ]


_BUILDERS = {
    "norm_dense": _norm_dense,
    "norm_iterative": _norm_iterative,
    "macro_averages": _macro_averages,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of ``workload`` for benchmark seed ``seed``; same seed, same cases."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, seed)
