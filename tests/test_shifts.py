import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_h

import spintail as st
import spintail.classical as cl
from spintail.localops import _op_fingerprint
from spintail.shifts import is_gamma_invariant

from oracles import (
    SX,
    SZ,
    embed_dense,
    kron_chain,
    random_complex,
    shift_average_dense,
    shifted_dense,
)


def _sum_and_observable(rng):
    """An operator sum and a trigonometric observable, each with a term that wraps."""
    s = st.operator_sum([
        (0.5 - 1j, st.local_operator(random_complex(rng, 4), (2, 3))),
        (2.0, st.from_site_factors({1: random_complex(rng, 2), 5: random_complex(rng, 2)})),
    ])
    return s, cl.cos_q(2) * cl.sin_p(3) + cl.cos_p(5) * cl.sin_q(1)


def _exact(x):
    """The terms of an operator, a sum or a trigonometric observable, exactly comparable."""
    if isinstance(x, cl.TrigObservable):
        return list(x.coeffs.items())
    return [(w, _op_fingerprint(op)) for w, op in x.as_sum().terms]


class TestGammaPow:
    def test_single_site_moves_to_last(self):
        # on three sites, one shift sends a factor at site 1 to site 3:
        # a (x) 1 (x) 1  ->  1 (x) 1 (x) a
        out = st.gamma_pow(st.pauli_at(3, 1), 3, 1)
        assert out.support == (3,)
        assert np.array_equal(st.dense_matrix(out, 3), embed_dense({3: SZ}, 3))

    def test_zero_power_is_identity(self):
        a = st.pauli_at(1, 2)
        assert st.gamma_pow(a, 4, 0) is a

    def test_full_cycle_is_identity(self):
        rng = np.random.default_rng(40)
        n = 5
        a = st.local_operator(random_complex(rng, 4), (2, 3))
        out = a
        for _ in range(n):
            out = st.gamma_pow(out, n, 1)
        assert np.array_equal(st.dense_matrix(out, n), st.dense_matrix(a, n))
        # every element kind comes back term for term, bit for bit
        for x in (a, *_sum_and_observable(rng)):
            out = x
            for _ in range(n):
                out = st.gamma_pow(out, n, 1)
            assert _exact(out) == _exact(x)

    def test_periodicity(self):
        rng = np.random.default_rng(41)
        a = st.local_operator(random_complex(rng, 2), (3,))
        lhs = st.gamma_pow(a, 5, 2)
        rhs = st.gamma_pow(a, 5, 7)
        assert lhs.support == rhs.support
        assert np.array_equal(lhs.blocks[0].matrix, rhs.blocks[0].matrix)
        for x in _sum_and_observable(rng):
            assert _exact(st.gamma_pow(x, 5, 2)) == _exact(st.gamma_pow(x, 5, 7))

    def test_matches_permutation_oracle(self):
        # defining action on elementary tensors, via an explicitly built
        # basis permutation
        rng = np.random.default_rng(42)
        n = 4
        factors = {x: random_complex(rng, 2) for x in range(1, n + 1)}
        op = st.from_site_factors(factors)
        dense = st.dense_matrix(op, n)
        for j in range(n):
            lhs = st.dense_matrix(st.gamma_pow(op, n, j), n)
            assert np.allclose(lhs, shifted_dense(dense, j, 2, n), atol=1e-12)

    def test_defining_equation_on_elementary_tensor(self):
        rng = np.random.default_rng(43)
        n = 3
        mats = [random_complex(rng, 2) for _ in range(n)]
        op = st.from_site_factors({x: mats[x - 1] for x in range(1, n + 1)})
        shifted = st.gamma_pow(op, n, 1)
        expected = kron_chain([mats[1], mats[2], mats[0]])
        assert np.allclose(st.dense_matrix(shifted, n), expected, atol=1e-12)

    def test_norm_preserved_exactly_single_site(self):
        rng = np.random.default_rng(44)
        a = st.local_operator(random_complex(rng, 2), (1,))
        moved = st.gamma_pow(a, 6, 3)
        # pure relabeling: the block matrix is the same object
        assert moved.blocks[0].matrix is a.blocks[0].matrix

    def test_norm_preserved_with_wraparound(self):
        rng = np.random.default_rng(45)
        a = st.local_operator(random_complex(rng, 4), (1, 2))
        moved = st.gamma_pow(a, 4, 1)  # support wraps to {1, 4}
        assert moved.support == (1, 4)
        assert moved.norm_exact() == pytest.approx(a.norm_exact(), abs=1e-12)

    def test_entangled_block_wraparound_dense(self):
        # swap-asymmetric two-site blocks, qubit and qutrit: the wraparound
        # relabeling must also permute the tensor legs, which norm
        # preservation alone cannot distinguish
        rng = np.random.default_rng(49)
        for d, n in ((2, 4), (3, 3)):
            op = st.local_operator(random_complex(rng, d * d), (1, 2), site_dim=d)
            dense0 = st.dense_matrix(op, n)
            for j in range(n):
                lhs = st.dense_matrix(st.gamma_pow(op, n, j), n)
                rhs = shifted_dense(dense0, j, d, n)
                assert np.allclose(lhs, rhs, atol=1e-12), f"d={d}, shift {j}"

    def test_three_site_entangled_block_shifts(self):
        rng = np.random.default_rng(53)
        op = st.local_operator(random_complex(rng, 8), (2, 3, 4))
        dense0 = st.dense_matrix(op, 5)
        for j in range(5):
            lhs = st.dense_matrix(st.gamma_pow(op, 5, j), 5)
            rhs = shifted_dense(dense0, j, 2, 5)
            assert np.allclose(lhs, rhs, atol=1e-12), f"shift {j}"

    def test_star_endomorphism(self):
        rng = np.random.default_rng(46)
        n = 4
        a = st.local_operator(random_complex(rng, 4), (1, 2))
        b = st.local_operator(random_complex(rng, 4), (2, 3))
        j = 1
        lhs = st.dense_matrix(st.gamma_pow(st.product(a, b), n, j), n)
        rhs = st.dense_matrix(
            st.product(st.gamma_pow(a, n, j), st.gamma_pow(b, n, j)), n
        )
        assert np.allclose(lhs, rhs, atol=1e-12)
        lhs = st.dense_matrix(st.gamma_pow(a.adjoint(), n, j), n)
        rhs = st.dense_matrix(st.gamma_pow(a, n, j).adjoint(), n)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_support_outside_volume(self):
        with pytest.raises(st.ContractViolation):
            st.gamma_pow(st.pauli_at(1, 5), 3, 1)


class TestGammaAverage:
    def test_two_site_average_of_sigma3(self):
        avg = st.gamma_average(st.pauli_at(3, 1), 2)
        assert len(avg.terms) == 2
        expected = 0.5 * (embed_dense({1: SZ}, 2) + embed_dense({2: SZ}, 2))
        assert np.allclose(st.dense_matrix(avg, 2), expected, atol=1e-14)
        assert st.norm(avg, 2, "dense").value == pytest.approx(1.0, abs=1e-12)

    def test_identity_seed(self):
        avg = st.gamma_average(st.from_site_factors({}), 4)
        assert np.allclose(st.dense_matrix(avg, 4), np.eye(16), atol=1e-14)

    def test_two_site_seed_wraparound(self):
        seed = st.from_site_factors({1: SX, 2: SX})
        avg = st.gamma_average(seed, 4)
        assert len(avg.terms) == 4
        supports = sorted(op.support for _, op in avg.terms)
        assert supports == [(1, 2), (1, 4), (2, 3), (3, 4)]
        oracle = shift_average_dense(st.dense_matrix(seed, 4), 2, 4)
        assert np.allclose(st.dense_matrix(avg, 4), oracle, atol=1e-13)

    def test_averaging_is_idempotent(self):
        rng = np.random.default_rng(47)
        for n in (2, 5, 8):
            a = st.local_operator(random_complex(rng, 4), (1, 2))
            once = st.gamma_average(a, n)
            twice = st.gamma_average(once, n)
            assert np.allclose(
                st.dense_matrix(twice, n), st.dense_matrix(once, n), atol=1e-10
            )


class TestGammaSequence:
    def test_seed_normalized_to_leftmost(self):
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 4))
        assert seq.seed.support == (1,)

    def test_window_spans_hull(self):
        seed = st.from_site_factors({2: SX, 4: SX})
        seq = st.GammaSeq.from_seed(seed)
        assert seq.seed.support == (1, 3)

    def test_below_window_is_zero(self):
        seed = st.from_site_factors({1: SX, 2: SX, 3: SX})
        seq = st.GammaSeq.from_seed(seed)
        assert st.eval_gamma_sequence(seq, 2).is_zero

    def test_four_site_eval(self):
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        out = st.eval_gamma_sequence(seq, 4)
        expected = sum(embed_dense({x: SZ}, 4) for x in range(1, 5)) / 4
        assert np.allclose(st.dense_matrix(out, 4), expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_norm_one_at_every_volume(self, n):
        # the all-up product state is an eigenvector with eigenvalue 1
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        method = "dense" if 2**n <= 1024 else "iterative"
        res = st.norm(st.eval_gamma_sequence(seq, n), n, method)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_scalar_seed_rejected(self):
        with pytest.raises(st.ContractViolation):
            st.GammaSeq.from_seed(st.from_site_factors({}))


class TestGammaInvariance:
    def test_identity_invariant(self):
        assert is_gamma_invariant(st.from_site_factors({}), 4)

    def test_localized_not_invariant(self):
        assert not is_gamma_invariant(st.pauli_at(3, 1), 3)

    def test_average_is_invariant(self):
        rng = np.random.default_rng(48)
        seed = st.local_operator(random_complex(rng, 2), (1,))
        avg = st.gamma_average(seed, 6)
        assert is_gamma_invariant(avg, 6)


def term_list(terms):
    """Weights and fingerprints in term order: equal lists mean the same sum, term for term."""
    return [(w, _op_fingerprint(op)) for w, op in terms]


@settings(max_examples=150, deadline=None, database=None)
@given(
    st_h.integers(0, 2**32 - 1),
    st_h.sets(st_h.integers(1, 5), min_size=1, max_size=3),
    st_h.booleans(),
    st_h.sets(st_h.integers(1, 12), min_size=1, max_size=2),
    st_h.integers(1, 12),
)
# wrap-around: N = 3 < W0 + Wp = 4, so every shift meets the probe
@example(0, {1, 2}, True, {1, 2}, 3)
# below the window: both sides are the zero sum
@example(1, {1, 5}, False, {2}, 4)
def test_meeting_shifts_give_the_full_commutator(rng_seed, seed_sites, factored, probe_sites, n):
    rng = np.random.default_rng(rng_seed)
    seed_sites = tuple(sorted(seed_sites))
    if factored:
        seed = st.from_site_factors({x: random_complex(rng, 2) for x in seed_sites})
    else:
        seed = st.local_operator(random_complex(rng, 2 ** len(seed_sites)), seed_sites)
    probe_sites = tuple(sorted(probe_sites))
    probe = st.local_operator(random_complex(rng, 2 ** len(probe_sites)), probe_sites).as_sum()
    seq = st.GammaSeq.from_seed(seed)

    full = seq.eval(n)
    meeting = st.eval_gamma_sequence(seq, n, probe.support)
    assert term_list(meeting.terms) == term_list(
        (w, op) for w, op in full.terms if set(op.support) & set(probe_sites)
    )
    if st.localops.fits_volume(seq.seed.support, n):
        assert len(meeting.terms) <= len(seed.support) * len(probe_sites)
    assert term_list(st.sum_commutator(meeting, probe).terms) == term_list(
        st.sum_commutator(full, probe).terms
    )
