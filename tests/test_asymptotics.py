import numpy as np
import pytest

import spintail as st
from spintail import asymptotics
from spintail.asymptotics import TracePoint

from oracles import SX, SZ, embed_dense, svd_norm


def gamma_sigma3():
    return st.GammaSeq.from_seed(st.pauli_at(3, 1))


def inverse_volume_seq():
    return st.SeqScale(lambda n: 1.0 / n, st.LocalEmbedSeq(st.pauli_at(1, 1)))


class TestClassification:
    def test_unconverged_point_dominates(self):
        pts = [TracePoint(n, 1.0 / n, converged=(n != 8)) for n in (2, 4, 8, 16)]
        rep = st.classify_trace(pts)
        assert rep.classification == "unconverged"

    def test_tiny_tail_is_vanishing(self):
        pts = [TracePoint(n, 0.0) for n in (2, 4, 8, 16)]
        assert st.classify_trace(pts).classification == "vanishing"

    def test_decaying_exponent_is_vanishing(self):
        pts = [TracePoint(n, 3.0 / n) for n in (2, 4, 8, 16, 32)]
        rep = st.classify_trace(pts)
        assert rep.classification == "vanishing"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-9)

    def test_constant_is_bounded_nonvanishing(self):
        pts = [TracePoint(n, 2.0) for n in (2, 4, 8, 16)]
        rep = st.classify_trace(pts)
        assert rep.classification == "bounded_nonvanishing"
        assert rep.fitted_exponent == pytest.approx(0.0, abs=1e-12)

    def test_single_point_unclassifiable(self):
        rep = st.classify_trace([TracePoint(4, 0.5)])
        assert rep.fitted_exponent is None
        assert rep.classification == "unconverged"

    def test_point_equality_ignores_seconds(self):
        a = TracePoint(4, 0.5, bound=1.0, seconds=0.25)
        b = TracePoint(4, 0.5, bound=1.0, seconds=3.0)
        assert a == b and hash(a) == hash(b)
        assert a != TracePoint(4, 0.5, seconds=0.25)
        assert st.classify_trace([a] * 4) == st.classify_trace([b] * 4)

    def test_points_kept_as_given(self):
        pts = tuple(TracePoint(n, 1.0 / n, bound=2.0 / n, seconds=0.1 * n) for n in (2, 4, 8))
        rep = st.classify_trace(pts)
        assert rep.points == pts
        assert [p.seconds for p in rep.points] == [0.1 * n for n in (2, 4, 8)]

    def test_slow_decay_stays_undecided(self):
        # exponent -0.3 is neither vanishing at tol 0.5 nor flat
        pts = [TracePoint(n, n**-0.3) for n in (2, 4, 8, 16, 32)]
        assert st.classify_trace(pts).classification == "unconverged"


class TestQuotientNorm:
    def test_gamma_sequence_estimate_one(self):
        est, rep = st.quotient_norm_estimate(gamma_sigma3(), [2, 4, 6, 8, 10])
        assert est == pytest.approx(1.0, abs=1e-9)
        assert rep.classification == "bounded_nonvanishing"

    def test_inverse_volume_tail_max(self):
        est, rep = st.quotient_norm_estimate(inverse_volume_seq(), [2, 4, 8, 16])
        # tail half is {8, 16}: the estimate is exactly 1/8
        assert est == 0.125
        assert rep.classification == "vanishing"

    def test_uniform_product_estimate_one(self):
        est, _ = st.quotient_norm_estimate(st.UniformProduct(SX), [2, 5, 9, 14])
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_eventually_constant_trace_estimate_exact(self):
        # once the volume contains the support, the trace is the constant
        # norm: tail max equals the limit exactly
        seq = st.LocalEmbedSeq(st.pauli_at(1, 4))
        est, rep = st.quotient_norm_estimate(seq, [2, 4, 6, 8])
        assert est == 1.0
        assert [p.value for p in rep.points] == [0.0, 1.0, 1.0, 1.0]

    def test_needs_four_points(self):
        with pytest.raises(st.ContractViolation):
            st.quotient_norm_estimate(gamma_sigma3(), [2, 4, 8])


class TestEquivalence:
    def test_reflexive(self):
        a = gamma_sigma3()
        rep = st.equivalence_test(a, a, [2, 4, 6, 8])
        assert all(p.value == 0.0 for p in rep.points)
        assert rep.classification == "vanishing"

    def test_inverse_volume_perturbation(self):
        a = gamma_sigma3()
        b = st.SeqSum(a, inverse_volume_seq())
        rep = st.equivalence_test(a, b, [4, 6, 8, 10])
        assert rep.classification == "vanishing"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-6)
        for p in rep.points:
            assert p.value == pytest.approx(1.0 / p.n, abs=1e-12)

    def test_neighbouring_translates_are_inequivalent(self):
        a = st.TranslatedToInfinity(SX)
        b = st.TranslatedToInfinity(SX, lambda n: max(1, n - 1))
        rep = st.equivalence_test(a, b, [2, 4, 6, 8])
        # || sx (x) 1 - 1 (x) sx || = 2 by 4x4 diagonalization
        oracle = svd_norm(embed_dense({1: SX}, 2) - embed_dense({2: SX}, 2))
        assert oracle == pytest.approx(2.0, abs=1e-12)
        for p in rep.points:
            assert p.value == pytest.approx(2.0, abs=1e-9)
        assert rep.classification == "bounded_nonvanishing"

    def test_symmetry(self):
        a = gamma_sigma3()
        b = st.UniformProduct(SZ)
        r1 = st.equivalence_test(a, b, [2, 4, 6, 8])
        r2 = st.equivalence_test(b, a, [2, 4, 6, 8])
        for p, q in zip(r1.points, r2.points):
            assert abs(p.value - q.value) <= 1e-12

    def test_triangle_inequality_on_traces(self):
        sched = [2, 4, 6, 8]
        a = gamma_sigma3()
        b = st.UniformProduct(SZ)
        c = st.LocalEmbedSeq(st.pauli_at(1, 1))
        ab = st.equivalence_test(a, b, sched).values
        bc = st.equivalence_test(b, c, sched).values
        ac = st.equivalence_test(a, c, sched).values
        for x, y, z in zip(ac, ab, bc):
            assert x <= y + z + 1e-9


class TestVanishing:
    def test_zero_sequence(self):
        seq = st.SeqScale(0.0, gamma_sigma3())
        rep = st.vanishing_test(seq, [2, 4, 6, 8])
        assert rep.classification == "vanishing"

    def test_inverse_volume(self):
        rep = st.vanishing_test(inverse_volume_seq(), [2, 4, 8, 16, 32])
        assert rep.classification == "vanishing"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.05)

    def test_gamma_sequence_does_not_vanish(self):
        rep = st.vanishing_test(gamma_sigma3(), [2, 4, 6, 8])
        assert rep.classification == "bounded_nonvanishing"


class TestCommutantMembership:
    def test_gamma_vs_sigma1_probe_trace(self):
        results = st.commutant_membership(
            gamma_sigma3(), [("pauli1@1", st.pauli_at(1, 1))], [4, 6, 8, 10, 12]
        )
        rep = results[0].report
        for p in rep.points:
            # single overlapping shift contributes (1/N) [sz, sx], norm 2/N
            assert p.value == pytest.approx(2.0 / p.n, abs=1e-12)
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-6)
        assert results[0].passed

    def test_translated_passes_with_exact_zeros(self):
        seq = st.TranslatedToInfinity(SX)
        results = st.commutant_membership(
            seq, [("pauli3@2", st.pauli_at(3, 2))], [3, 4, 6, 8]
        )
        rep = results[0].report
        assert all(p.value == 0.0 for p in rep.points)
        assert results[0].passed

    def test_uniform_product_fails(self):
        results = st.commutant_membership(
            st.UniformProduct(SX), [("pauli3@1", st.pauli_at(3, 1))], [4, 6, 8, 10]
        )
        rep = results[0].report
        for p in rep.points:
            assert p.value == pytest.approx(2.0, abs=1e-12)
        assert rep.classification == "bounded_nonvanishing"
        assert not results[0].passed

    def test_uniform_product_two_block_probe_is_exact_at_every_volume(self):
        # the probe is x on site 1 times z on site 2, two blocks meeting x^N on
        # two separate sites: their 4 x 4 union is densified, one exact term
        results = st.commutant_membership(st.UniformProduct(SX), None, [4, 8, 16, 32])
        (res,) = [r for r in results if r.label == "pauli1*pauli3@1,2"]
        assert res.report.values == (2.0, 2.0, 2.0, 2.0)

    def test_default_probe_set(self):
        probes = st.default_probes()
        assert len(probes) == 7
        labels = [lbl for lbl, _ in probes]
        assert "pauli1*pauli3@1,2" in labels

    def test_oversized_probe_skipped(self):
        seq = gamma_sigma3()
        results = st.commutant_membership(
            seq, [("far", st.pauli_at(1, 9))], [4, 6, 8, 10]
        )
        assert results[0].skipped
        assert "exceeds" in results[0].reason

    def test_gamma_passes_all_default_probes(self):
        results = st.commutant_membership(gamma_sigma3(), None, [4, 6, 8, 10, 12, 14])
        for res in results:
            assert not res.skipped
            assert res.passed, res.label
            if any(p.value > 0 for p in res.report.points):
                assert res.report.fitted_exponent == pytest.approx(-1.0, abs=0.15)
            else:
                # probes commuting with every shifted copy give an exactly
                # zero trace, vanishing with no fit
                assert res.report.fitted_exponent is None


class TestGammaBound:
    def test_single_site_case(self):
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        rep = st.gamma_bound_check(seq, st.pauli_at(1, 1), [4, 6, 8, 10])
        assert rep.points[0].value == pytest.approx(0.5, abs=1e-12)
        assert (rep.points[0].n, rep.points[0].bound) == (4, pytest.approx(1.0))
        assert rep.bound_violations == ()

    def test_identity_probe_degenerate(self):
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        rep = st.gamma_bound_check(seq, st.from_site_factors({}), [4, 6, 8, 10])
        assert all(p.value == 0.0 for p in rep.points)
        assert all(p.bound > 0 for p in rep.points)
        assert rep.bound_violations == ()

    def test_two_site_seed(self):
        seed = st.from_site_factors({1: SX, 2: SX})
        seq = st.GammaSeq.from_seed(seed)
        rep = st.gamma_bound_check(seq, st.pauli_at(3, 1), list(range(4, 13)))
        for p in rep.points:
            assert p.bound == pytest.approx(2.0 * 3.0 / p.n)
            assert p.value <= p.bound + 1e-9
        assert rep.bound_violations == ()

    def test_large_volumes_build_only_meeting_shifts(self, monkeypatch):
        # sigma1 (x) sigma1 against sigma3@1: only the shifts landing a seed
        # site on site 1 (j = 0, 1) are built, so W0 + Wp - 1 = 2 terms at any N
        handed = []
        original = asymptotics.sum_commutator

        def recording(a, b):
            handed.append(len(a.terms))
            return original(a, b)

        monkeypatch.setattr(asymptotics, "sum_commutator", recording)
        seq = st.GammaSeq.from_seed(st.from_site_factors({1: SX, 2: SX}))
        sched = [2**k for k in range(14, 21)]
        rep = st.gamma_bound_check(seq, st.pauli_at(3, 1), sched)
        assert [p.value for p in rep.points] == [4.0 / n for n in sched]
        assert rep.classification == "vanishing"
        assert rep.bound_violations == ()
        assert handed and max(handed) <= 2

    def test_probe_outside_smallest_volume_refused(self):
        # below a volume holding it, the probe would trace zeros (0.0 at
        # N = 4, 8, 16) and the report would read unconverged
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        refusal = r"probe support \(20,\) exceeds smallest volume 4"
        with pytest.raises(st.ContractViolation, match=refusal):
            st.gamma_bound_check(seq, st.pauli_at(1, 20), [4, 8, 16, 32, 64])
        # a probe on the smallest volume's last site is traced
        rep = st.gamma_bound_check(seq, st.pauli_at(1, 4), [4, 8, 16, 32, 64])
        assert rep.points[0].value == pytest.approx(0.5, abs=1e-12)

    def test_violations_reported_not_raised(self, monkeypatch):
        # absurd negative slack forces every nonzero point over the line;
        # the report carries the violating volumes instead of crashing
        monkeypatch.setattr(asymptotics, "BOUND_SLACK", -10.0)
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        rep = st.gamma_bound_check(seq, st.pauli_at(1, 1), [4, 6, 8, 10])
        assert rep.bound_violations == (4, 6, 8, 10)


class TestMutualCommutator:
    def test_translated_pair_constant_two(self):
        a = st.TranslatedToInfinity(SX)
        c = st.TranslatedToInfinity(SZ)
        rep = st.mutual_commutator_trace(a, c, list(range(2, 11)))
        for p in rep.points:
            assert p.value == pytest.approx(2.0, abs=1e-9)
        assert all(p.bound == 2.0 for p in rep.points)
        assert rep.bound_violations == ()

    def test_self_commutator_zero(self):
        a = st.TranslatedToInfinity(SX)
        rep = st.mutual_commutator_trace(a, a, [2, 4, 6, 8])
        assert all(p.value == 0.0 for p in rep.points)

    def test_different_site_dimensions_refused(self):
        # a qubit and a qutrit site operator: refused before the one-site
        # reference multiplies a 2x2 by a 3x3 matrix
        a = st.TranslatedToInfinity(SX)
        c = st.TranslatedToInfinity(np.diag([1, 0.5, 0.2]))
        assert c.site_dim == 3
        with pytest.raises(st.ContractViolation, match="site dimensions"):
            st.mutual_commutator_trace(a, c, [2, 3])

    def test_translated_vs_half_chain(self):
        # oracle at N <= 10: the half-chain pattern puts its factor on the
        # last site for N >= 2, so the trace is 0 then constant 2
        a = st.TranslatedToInfinity(SX)
        c = st.HalfChain(SZ)
        sched = list(range(1, 11))
        rep = st.mutual_commutator_trace(a, c, sched)
        for n, p in zip(sched, rep.points):
            half = n - n // 2
            factors = {x: SZ for x in range(half + 1, n + 1)}
            dense_c = embed_dense(factors, n)
            dense_a = embed_dense({n: SX}, n)
            oracle = svd_norm(dense_a @ dense_c - dense_c @ dense_a)
            assert p.value == pytest.approx(oracle, abs=1e-10)
        assert [round(p.value, 12) for p in rep.points] == [0.0] + [2.0] * 9
        assert rep.classification == "bounded_nonvanishing"
