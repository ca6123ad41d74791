"""The one sequence protocol, ``eval(n, region=None)``, on every kind.

A shift average given a region returns only its terms meeting it, in the
full value's order and with its weights; every other kind ignores the region.
The estimators call ``eval(n, probe.support)`` on whatever sequence they get.
"""

import numpy as np
import pytest

import spintail as st
import spintail.classical as cl
from spintail import shifts
from spintail.localops import _op_fingerprint

from oracles import SX, SZ, random_complex

_RNG = np.random.default_rng(61)
_LOCAL = st.LocalEmbedSeq(st.local_operator(random_complex(_RNG, 4), (2, 3)))
_TRANSLATED = st.TranslatedToInfinity(SX)
_GAMMA = st.GammaSeq.from_seed(st.from_site_factors({1: SX, 3: random_complex(_RNG, 2)}))

# name -> (sequence, whether it is a shift average)
KINDS = {
    "local": (_LOCAL, False),
    "translated": (_TRANSLATED, False),
    "gamma": (_GAMMA, True),
    "uniform": (st.UniformProduct(SX), False),
    "parity": (st.ParityProduct(SX, SZ), False),
    "block": (st.BlockProduct(SX, SZ), False),
    "half-chain": (st.HalfChain(SZ), False),
    "sum": (st.SeqSum(_LOCAL, _GAMMA), False),
    "product": (st.SeqProduct(_GAMMA, _TRANSLATED), False),
    "adjoint": (st.SeqAdjoint(_GAMMA), False),
    "scale": (st.SeqScale(lambda n: 1.0 / n, _GAMMA), False),
    "classical-local": (cl.ClassicalLocalEmbed(cl.cos_q(2) + cl.sin_p(3)), False),
    # every term of the seed lies on its whole support {1, 2}
    "classical-average": (cl.ClassicalCyclicAverage(cl.cos_q(1) * cl.sin_p(2)), True),
    "classical-tail": (cl.TailShifted(cl.sin_q(1) * cl.cos_p(2)), False),
}


def _terms(value):
    """``(weight, term, sites)`` in order, for an operator sum or a trigonometric observable."""
    if isinstance(value, cl.TrigObservable):
        return [(c, key, {s for s, _, _ in key}) for key, c in value.coeffs.items()]
    return [(w, _op_fingerprint(op), set(op.support)) for w, op in value.terms]


@pytest.mark.parametrize("name", KINDS)
def test_region_is_read_only_by_shift_averages(name):
    seq, shift_average = KINDS[name]
    for n in (1, 3, 4, 7):
        full = _terms(seq.eval(n))
        for region in ((1,), (2, 5), (4,), (9,)):
            expected = [t for t in full if t[2] & set(region)] if shift_average else full
            assert _terms(seq.eval(n, region)) == expected, (n, region)


def test_commutant_builds_only_the_shifts_meeting_each_probe(monkeypatch):
    seed = st.from_site_factors({1: SX, 2: SX})
    seq = st.GammaSeq.from_seed(seed)
    calls = []
    original = shifts.gamma_pow

    def counting(a, volume, j):
        calls.append(volume)
        return original(a, volume, j)

    monkeypatch.setattr(shifts, "gamma_pow", counting)
    sched = [256, 512, 1024, 2048]
    for label, probe in st.default_probes():
        calls.clear()
        (res,) = st.commutant_membership(seq, [(label, probe)], sched)
        assert res.passed
        per_point = [calls.count(n) for n in sched]
        assert max(per_point) <= len(seed.support) * len(probe.support), label


def test_commutant_values_match_the_full_average():
    seq = st.GammaSeq.from_seed(st.from_site_factors({1: SX, 2: SZ}))
    sched = [4, 5, 6, 7]
    for (label, probe), res in zip(st.default_probes(), st.commutant_membership(seq, None, sched)):
        full = [st.norm(st.sum_commutator(seq.eval(n), probe.as_sum()), n) for n in sched]
        assert res.report.points == tuple(full), label
