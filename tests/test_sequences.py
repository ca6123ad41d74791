import numpy as np
import pytest

import spintail as st
from spintail.cli import _parse_block_lengths, _Problems
from spintail.sequences import as_schedule, default_block_lengths, make_block_partition

from oracles import I2, SX, SZ, embed_dense, kron_chain, random_complex


class TestHalfChain:
    def test_reproduces_displayed_pattern(self):
        # N = 1..8: identity on the first N - floor(N/2) sites, a on the rest
        rng = np.random.default_rng(50)
        a = random_complex(rng, 2)
        a = a / np.linalg.svd(a, compute_uv=False)[0]
        seq = st.HalfChain(a)
        for n in range(1, 9):
            ks = n - n // 2
            expected = kron_chain([np.eye(2)] * ks + [a] * (n // 2))
            assert np.allclose(st.dense_matrix(seq.eval(n), n), expected, atol=1e-12)

    def test_localization_short_circuit(self):
        # once the identity prefix covers the probe site the commutator is
        # exactly the empty term list
        seq = st.HalfChain(SZ)
        probe = st.pauli_at(1, 3).as_sum()
        for n in range(5, 15):
            comm = st.sum_commutator(seq.eval(n), probe)
            assert comm.terms == ()

    def test_norm_cap_at_construction(self):
        with pytest.raises(st.ContractViolation):
            st.HalfChain(2.0 * SX)


class TestTranslated:
    def test_default_rightmost_placement(self):
        seq = st.TranslatedToInfinity(SX)
        out = seq.eval(6)
        assert out.terms[0][1].support == (6,)
        assert np.allclose(st.dense_matrix(out, 6), embed_dense({6: SX}, 6), atol=1e-14)

    def test_custom_rule(self):
        seq = st.TranslatedToInfinity(SX, lambda n: max(1, n - 1))
        assert seq.eval(5).terms[0][1].support == (4,)

    def test_rule_outside_volume(self):
        seq = st.TranslatedToInfinity(SX, lambda n: n + 1)
        with pytest.raises(st.ContractViolation):
            seq.eval(3)

    def test_factor_checked_once_at_construction(self):
        m = SX.copy()
        seq = st.TranslatedToInfinity(m)
        m[0, 1] = 5.0
        assert np.array_equal(st.dense_matrix(seq.eval(3), 3), embed_dense({3: SX}, 3))
        assert np.array_equal(seq.site_op, SX)
        assert not seq.site_op.flags.writeable


class TestProducts:
    def test_uniform_product_squares_to_identity(self):
        seq = st.SeqProduct(st.UniformProduct(SX), st.UniformProduct(SX))
        out = seq.eval(5)
        assert np.allclose(st.dense_matrix(out, 5), np.eye(32), atol=1e-12)

    def test_parity_product_is_alternating(self):
        seq = st.ParityProduct(SX, SZ)
        expected = kron_chain([SX, SZ, SX, SZ, SX])
        assert np.allclose(st.dense_matrix(seq.eval(5), 5), expected, atol=1e-14)

    def test_uniform_product_norm_cap(self):
        with pytest.raises(st.ContractViolation):
            st.UniformProduct(1.5 * SZ)


class TestBlockPartition:
    def test_default_prefix(self):
        block_of = make_block_partition(default_block_lengths)
        assert [block_of(x) for x in range(1, 7)] == [0, 1, 1, 2, 2, 2]

    def test_site_six_in_even_block(self):
        block_of = make_block_partition(default_block_lengths)
        assert block_of(6) == 2
        assert block_of(6) % 2 == 0  # even-indexed block

    def test_first_site_of_each_block(self):
        block_of = make_block_partition(default_block_lengths)
        prefix = 0
        for n in range(6):
            first = 1 + prefix
            assert block_of(first) == n
            if first > 1:
                assert block_of(first - 1) == n - 1
            prefix += n + 1

    def test_non_increasing_rule_rejected(self):
        block_of = make_block_partition(lambda n: 3)
        with pytest.raises(st.ContractViolation):
            block_of(4)

    def test_block_product_assignment(self):
        seq = st.BlockProduct(SX, SZ)
        # blocks: [1], [2,3], [4,5,6] -> x, z, z, x, x, x
        expected = kron_chain([SX, SZ, SZ, SX, SX, SX])
        assert np.allclose(st.dense_matrix(seq.eval(6), 6), expected, atol=1e-14)


def _contraction(rng, d):
    a = random_complex(rng, d)
    return a / np.linalg.svd(a, compute_uv=False)[0]


def _explicit_lengths(lengths):
    # the block-length rule a config's "lengths" list parses to
    return _parse_block_lengths(lengths, _Problems(), "lengths")


def _block_index(x, lengths):
    ends = np.cumsum(lengths)
    return int(np.searchsorted(ends, x))


# kind -> (number of factors, builder from (factors, d), the factor index the
# kind puts at site x of volume n, None for the identity)
PRODUCT_KINDS = {
    "uniform": (1, lambda ms, d: st.UniformProduct(*ms, d), lambda x, n: 0),
    "parity": (2, lambda ms, d: st.ParityProduct(*ms, d), lambda x, n: 0 if x % 2 else 1),
    "block": (
        2,
        lambda ms, d: st.BlockProduct(*ms, site_dim=d),
        lambda x, n: _block_index(x, [1, 2, 3, 4, 5]) % 2,
    ),
    "block-explicit": (
        2,
        lambda ms, d: st.BlockProduct(*ms, _explicit_lengths([2, 3, 5, 9]), d),
        lambda x, n: _block_index(x, [2, 3, 5, 9]) % 2,
    ),
    "half-chain": (
        1,
        lambda ms, d: st.HalfChain(*ms, d),
        lambda x, n: 0 if x > (n + 1) // 2 else None,
    ),
}


class TestSiteProductStructure:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
    def test_single_term_with_expected_factors(self, kind, d):
        # n = 1 covers the half chain's all-identity volume
        count, build, expected_pick = PRODUCT_KINDS[kind]
        rng = np.random.default_rng(53)
        mats = [_contraction(rng, d) for _ in range(count)]
        seq = build(mats, d)
        for n in range(1, 14):
            out = seq.eval(n)
            assert out.site_dim == d
            ((w, op),) = out.terms
            assert w == 1 and op.scalar == 1
            expected = {
                x: mats[k] for x in range(1, n + 1) if (k := expected_pick(x, n)) is not None
            }
            assert [b.sites for b in op.blocks] == [(x,) for x in expected]
            for b in op.blocks:
                assert np.array_equal(b.matrix, expected[b.sites[0]])

    def test_exact_identity_and_zero_factors(self):
        # canonical form: identity sites stay implicit, and one zero site
        # makes the whole product the empty sum
        ((_, op),) = st.ParityProduct(SX, I2).eval(5).terms
        assert [b.sites for b in op.blocks] == [(1,), (3,), (5,)]
        with_zero = st.ParityProduct(SX, np.zeros((2, 2)))
        assert len(with_zero.eval(1).terms) == 1
        assert with_zero.eval(2).is_zero

    def test_factor_checked_at_construction_is_the_one_placed(self):
        m = SX.copy()
        seq = st.UniformProduct(m)
        m[0, 1] = 5.0  # past the norm bound checked at construction
        ((_, op),) = seq.eval(3).terms
        assert all(np.array_equal(b.matrix, SX) for b in op.blocks)

    def test_explicit_block_lengths_run_out(self):
        seq = st.BlockProduct(SX, SZ, _explicit_lengths([2, 3]))
        assert len(seq.eval(5).terms[0][1].blocks) == 5
        with pytest.raises(st.ContractViolation, match="exhausted"):
            seq.eval(6)


class TestPointwiseAlgebra:
    def _random_seqs(self, rng):
        a = st.LocalEmbedSeq(st.local_operator(random_complex(rng, 4), (1, 2)))
        b = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        return a, b

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sum_product_adjoint_scale(self, n):
        rng = np.random.default_rng(51)
        a, b = self._random_seqs(rng)
        da = st.dense_matrix(a.eval(n), n)
        db = st.dense_matrix(b.eval(n), n)
        assert np.allclose(st.dense_matrix(st.SeqSum(a, b).eval(n), n), da + db, atol=1e-10)
        assert np.allclose(
            st.dense_matrix(st.SeqProduct(a, b).eval(n), n), da @ db, atol=1e-10
        )
        assert np.allclose(
            st.dense_matrix(st.SeqAdjoint(a).eval(n), n), da.conj().T, atol=1e-10
        )
        assert np.allclose(
            st.dense_matrix(st.SeqScale(2.5j, a).eval(n), n), 2.5j * da, atol=1e-10
        )


class TestBoundedness:
    def test_uniform_bounds_per_kind(self):
        rng = np.random.default_rng(52)
        seed = st.local_operator(random_complex(rng, 2), (1,))
        cases = [
            (st.UniformProduct(SX), 1.0),
            (st.ParityProduct(SX, SZ), 1.0),
            (st.BlockProduct(SX, SZ), 1.0),
            (st.HalfChain(SZ), 1.0),
            (st.GammaSeq.from_seed(seed), seed.norm_exact()),
        ]
        for seq, bound in cases:
            # auto: dense up to localops._AUTO_DENSE_DIM, block Lanczos beyond
            trace, _ = st.seq_norm_trace(seq, range(2, 13), "auto", dense_cap=1024)
            assert all(res.converged for _, res in trace)
            assert max(res.value for _, res in trace) <= bound + 1e-9


class TestNormTrace:
    def test_uniform_product_constant_one(self):
        trace, _ = st.seq_norm_trace(st.UniformProduct(SX), [2, 5, 9, 14])
        assert [res.value for _, res in trace] == [1.0, 1.0, 1.0, 1.0]

    def test_inverse_volume_scaling(self):
        seq = st.SeqScale(lambda n: 1.0 / n, st.LocalEmbedSeq(st.pauli_at(1, 1)))
        trace, _ = st.seq_norm_trace(seq, [2, 4, 8])
        assert [res.value for _, res in trace] == [0.5, 0.25, 0.125]

    def test_gamma_trace_constant_one(self):
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        trace, _ = st.seq_norm_trace(seq, [2, 4, 6, 8, 10])
        for _, res in trace:
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_local_embed_zero_before_fit(self):
        seq = st.LocalEmbedSeq(st.pauli_at(1, 4))
        trace, _ = st.seq_norm_trace(seq, [2, 3, 4, 5])
        assert [res.value for _, res in trace] == [0.0, 0.0, 1.0, 1.0]


class TestSchedule:
    def test_strictly_increasing_required(self):
        with pytest.raises(st.ContractViolation):
            st.VolumeSchedule((4, 4))

    def test_nonempty_required(self):
        with pytest.raises(st.ContractViolation):
            st.VolumeSchedule(())

    def test_coercion(self):
        sched = as_schedule([2, 4, 6])
        assert sched.points == (2, 4, 6)
