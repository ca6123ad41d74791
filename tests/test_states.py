import numpy as np
import pytest

import spintail as st

from oracles import I2, SX, SZ, random_complex, rho_chain

RHO_UP06 = 0.5 * (I2 + 0.6 * SZ)  # diag(0.8, 0.2)
RHO_MINUS = 0.5 * (I2 - SX)
RHO_MIXED = 0.5 * I2


class TestProductStateValidation:
    def test_accepts_valid(self):
        state = st.product_state(RHO_UP06)
        assert state.site_dim == 2

    def test_trace_checked(self):
        with pytest.raises(st.ContractViolation, match="trace"):
            st.product_state(0.9 * RHO_UP06)

    def test_hermiticity_checked(self):
        bad = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(st.ContractViolation, match="self-adjoint"):
            st.product_state(bad)

    def test_positivity_checked(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(st.ContractViolation, match="positive"):
            st.product_state(bad)


class TestExpectation:
    def test_identity_normalization(self):
        state = st.product_state(RHO_UP06)
        assert st.expectation(state, st.from_site_factors({}).as_sum(), 5) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gamma_average_of_sigma3(self, n):
        state = st.product_state(RHO_UP06)
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        val = st.expectation(state, seq.eval(n), n)
        assert val.real == pytest.approx(0.6, abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_uniform_product_oscillates(self, n):
        state = st.product_state(RHO_MINUS)
        seq = st.UniformProduct(SX)
        val = st.expectation(state, seq.eval(n), n)
        assert val.real == pytest.approx((-1.0) ** n, abs=1e-12)

    def test_oscillation_magnitude_law(self):
        # |<uniform product>| = |tr(rho a)|^N
        state = st.product_state(RHO_UP06)
        c = abs(np.trace(RHO_UP06 @ SZ))
        seq = st.UniformProduct(SZ)
        for n in range(1, 13):
            val = abs(st.expectation(state, seq.eval(n), n))
            assert val == pytest.approx(c**n, abs=1e-10)

    @pytest.mark.parametrize(
        "make_seq",
        [
            lambda: st.UniformProduct(SX),
            lambda: st.ParityProduct(SX, SZ),
            lambda: st.BlockProduct(SX, SZ),
            lambda: st.HalfChain(SZ),
            lambda: st.GammaSeq.from_seed(st.pauli_at(3, 1)),
            lambda: st.TranslatedToInfinity(SX),
        ],
    )
    def test_factorized_matches_dense_oracle(self, make_seq):
        state = st.product_state(RHO_UP06)
        seq = make_seq()
        for n in range(1, 11):
            s = seq.eval(n)
            lhs = st.expectation(state, s, n)
            rhs = np.trace(rho_chain(RHO_UP06, n) @ st.dense_matrix(s, n))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_positivity_on_random_sums(self):
        rng = np.random.default_rng(60)
        state = st.product_state(RHO_UP06)
        for _ in range(20):
            terms = []
            for _k in range(3):
                sites = tuple(
                    sorted(rng.choice(range(1, 6), rng.integers(1, 3), replace=False))
                )
                mat = random_complex(rng, 2 ** len(sites))
                terms.append((rng.normal() + 1j * rng.normal(), st.local_operator(mat, sites)))
            s = st.operator_sum(terms)
            val = st.expectation(state, st.sum_product(s.adjoint(), s), 5)
            assert val.real >= -1e-10

    def test_support_outside_volume(self):
        state = st.product_state(RHO_UP06)
        with pytest.raises(st.ContractViolation):
            st.expectation(state, st.pauli_at(3, 9).as_sum(), 4)


class TestAverageVariance:
    def test_biased_sigma3(self):
        state = st.product_state(RHO_UP06)
        val = st.average_variance(state, st.pauli_at(3, 1), 8)
        assert val == pytest.approx((1 - 0.36) / 8, abs=1e-12)

    def test_identity_constant(self):
        state = st.product_state(RHO_UP06)
        for n in (2, 5, 9):
            assert st.average_variance(state, st.local_operator([[1.0]], ()), n) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_maximally_mixed(self):
        state = st.product_state(RHO_MIXED)
        assert st.average_variance(state, st.pauli_at(3, 1), 4) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_exact_inverse_volume_law(self):
        state = st.product_state(RHO_UP06)
        vals = [st.average_variance(state, st.pauli_at(3, 1), n) * n for n in range(4, 13)]
        for v in vals:
            assert v == pytest.approx(0.64, abs=1e-9)

    def test_dense_oracle(self):
        state = st.product_state(RHO_UP06)
        for n in range(2, 9):
            avg = st.dense_matrix(st.gamma_average(st.pauli_at(3, 1), n), n)
            rho_n = rho_chain(RHO_UP06, n)
            mean = np.trace(rho_n @ avg).real
            second = np.trace(rho_n @ avg @ avg).real
            assert st.average_variance(state, st.pauli_at(3, 1), n) == pytest.approx(
                second - mean**2, abs=1e-10
            )

    def test_two_site_seed_rejected(self):
        state = st.product_state(RHO_UP06)
        seed = st.from_site_factors({1: SX, 2: SX})
        with pytest.raises(st.ContractViolation):
            st.average_variance(state, seed, 4)

    def test_non_self_adjoint_rejected(self):
        state = st.product_state(RHO_UP06)
        seed = st.local_operator(np.array([[0, 1], [0, 0]], dtype=complex), (1,))
        with pytest.raises(st.ContractViolation):
            st.average_variance(state, seed, 4)


class TestInducedInvariance:
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_single_site_seed(self, j):
        state = st.product_state(RHO_UP06)
        res = st.induced_invariance_residual(state, st.pauli_at(3, 1), 6, j)
        assert res <= 1e-12

    def test_multi_site_seed(self):
        state = st.product_state(RHO_UP06)
        seed = st.from_site_factors({1: SX, 2: SX})
        res = st.induced_invariance_residual(state, seed, 8, 3)
        assert res <= 1e-12

    def test_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            m = random_complex(rng, 2)
            rho = m @ m.conj().T
            rho = rho / np.trace(rho)
            state = st.product_state(rho)
            res = st.induced_invariance_residual(state, st.pauli_at(1, 1), 5, 2)
            assert res <= 1e-12
