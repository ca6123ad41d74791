"""The one sequence protocol, ``eval(n, region=None)``, on every kind.

A shift average given a region returns only its terms meeting it, in the
full value's order and with its weights.  A sum, a scale and an adjoint pass
the region to their children, so their terms meeting it are the full
value's terms meeting it; every other kind, a product included, ignores it.
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
# a seed whose terms lie on different supports, {1} and {1, 2}
_GAMMA_MIXED = st.GammaSeq.from_seed(st.operator_sum(
    [(1.0, st.pauli_at(3, 1)), (0.5, st.local_operator(random_complex(_RNG, 4), (1, 2)))]))

# name -> (sequence, what it does with a region): "average" keeps only its terms
# meeting it, "passes" hands it to its children, "ignores" returns the full value
KINDS = {
    "local": (_LOCAL, "ignores"),
    "translated": (_TRANSLATED, "ignores"),
    "gamma": (_GAMMA, "average"),
    "gamma-mixed-supports": (_GAMMA_MIXED, "average"),
    "uniform": (st.UniformProduct(SX), "ignores"),
    "parity": (st.ParityProduct(SX, SZ), "ignores"),
    "block": (st.BlockProduct(SX, SZ), "ignores"),
    "half-chain": (st.HalfChain(SZ), "ignores"),
    "sum": (st.SeqSum(_LOCAL, _GAMMA), "passes"),
    "sum-of-averages": (st.SeqSum(_GAMMA, _GAMMA_MIXED), "passes"),
    "product": (st.SeqProduct(_GAMMA, _TRANSLATED), "ignores"),
    "adjoint": (st.SeqAdjoint(_GAMMA), "passes"),
    "scale": (st.SeqScale(lambda n: 1.0 / n, _GAMMA), "passes"),
    "classical-local": (st.LocalEmbedSeq(cl.cos_q(2) + cl.sin_p(3)), "ignores"),
    "classical-average": (cl.ClassicalCyclicAverage(cl.cos_q(1) * cl.sin_p(2)), "average"),
    # terms on different supports, {1} and {2}
    "classical-average-mixed": (cl.ClassicalCyclicAverage(cl.cos_q(1) + cl.cos_q(2)), "average"),
    "classical-tail": (cl.TailShifted(cl.sin_q(1) * cl.cos_p(2)), "ignores"),
}


# the site dimension each kind's values have: None for the classical kinds
SITE_DIMS = {name: None if name.startswith("classical") else 2 for name in KINDS}


def test_every_kind_and_element_answers_its_site_dimension():
    for name, (seq, _) in KINDS.items():
        assert seq.site_dim == SITE_DIMS[name], name
    qutrit = st.local_operator(np.diag([1, 0.5, 0.2]), (1,), site_dim=3)
    elements = [(st.pauli_at(1, 2), 2), (st.pauli_at(1, 2).as_sum(), 2), (qutrit, 3),
                (qutrit.as_sum(), 3), (cl.cos_q(1), None), (cl.cos_q(1) * cl.sin_p(2), None)]
    for element, site_dim in elements:
        assert element.site_dim == site_dim, element


@pytest.mark.parametrize("name", KINDS)
def test_values_have_their_kinds_site_dimension(name):
    seq, _ = KINDS[name]
    for n in (1, 3, 4, 7):
        for region in (None, (2,)):
            assert seq.eval(n, region).site_dim == seq.site_dim, (n, region)


def _terms(value):
    """``(weight, term, sites)`` in order, for an operator sum or a trigonometric observable."""
    if isinstance(value, cl.TrigObservable):
        return [(c, key, {s for s, _, _ in key}) for key, c in value.coeffs.items()]
    return [(w, _op_fingerprint(op), set(op.support)) for w, op in value.terms]


@pytest.mark.parametrize("name", KINDS)
def test_region_is_read_only_by_shift_averages(name):
    seq, role = KINDS[name]
    for n in (1, 3, 4, 7):
        full = _terms(seq.eval(n))
        for region in ((1,), (2, 5), (4,), (9,), (0,)):
            got = _terms(seq.eval(n, region))
            meeting = [t for t in full if t[2] & set(region)]
            assert [t for t in got if t[2] & set(region)] == meeting, (n, region)
            if role == "average":
                assert got == meeting, (n, region)
            if role == "ignores":
                assert got == full, (n, region)


def test_average_of_terms_on_different_supports_meets_the_region():
    # cos q1 + cos q2 at N = 7 on site 4: the translates of cos q1 and of cos q2
    # landing on site 4, and nothing on sites 3 or 5
    got = cl.ClassicalCyclicAverage(cl.cos_q(1) + cl.cos_q(2)).eval(7, (4,))
    assert [{s for s, _, _ in key} for key in got.coeffs] == [{4}, {4}]


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
        # the average moves its terms through gamma_pow, once per meeting shift
        assert min(per_point) >= 1, label
        assert max(per_point) <= len(seed.support) * len(probe.support), label


def test_commutant_values_match_the_full_average():
    seq = st.GammaSeq.from_seed(st.from_site_factors({1: SX, 2: SZ}))
    sched = [4, 5, 6, 7]
    for (label, probe), res in zip(st.default_probes(), st.commutant_membership(seq, None, sched)):
        full = [st.norm(st.sum_commutator(seq.eval(n), probe.as_sum()), n) for n in sched]
        assert res.report.points == tuple(full), label


@pytest.mark.parametrize("wrap", [lambda g: st.SeqScale(2.0, g), lambda g: st.SeqSum(g, g),
                                  lambda g: st.SeqAdjoint(g)], ids=["scale", "sum", "adjoint"])
def test_combinations_build_only_the_shifts_meeting_each_probe(wrap, monkeypatch):
    # the sigma1 sigma1 shift average under a scale, sum or adjoint: its
    # children are evaluated on each probe's support, so no combination
    # builds all N shifts
    seed = st.from_site_factors({1: SX, 2: SX})
    seq = wrap(st.GammaSeq.from_seed(seed))
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
        assert min(per_point) >= 1, label
        assert max(per_point) <= 2 * len(seed.support) * len(probe.support), label
