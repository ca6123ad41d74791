from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

import spintail as st
from spintail import localops
from spintail.errors import CapacityError, ContractViolation

from oracles import (
    I2,
    SX,
    SY,
    SZ,
    embed_dense,
    kron_term_dense,
    random_complex,
    random_hermitian,
    svd_norm,
)


def random_block_op(rng, sites, d=2):
    dim = d ** len(sites)
    return st.local_operator(random_complex(rng, dim), sites, site_dim=d)


def rotated_sigma3_average(rng):
    """Shift average of ``u SZ u*`` for a random unitary ``u``; norm 1 at every volume."""
    u, _ = np.linalg.qr(random_complex(rng, 2))
    return st.GammaSeq.from_seed(st.local_operator(u @ SZ @ u.conj().T, (1,)))


def real_two_site_average(rng):
    """Shift average of a random real symmetric two-site seed."""
    a = rng.normal(size=(4, 4))
    return st.GammaSeq.from_seed(st.local_operator((a + a.T) / 2, (1, 2)))


def tiny_rotated_sigma3_average(rng):
    """The rotated-sigma3 shift average scaled to norm 1e-6."""
    return st.SeqScale(1e-6, rotated_sigma3_average(rng))


def apply_sum(s, v, n):
    """The matrix-free kernel behind iterative norms, on a flat state of ``n`` sites."""
    vec_t = v.reshape((s.site_dim,) * n)
    return localops._apply_terms(vec_t, s.terms, s.site_dim).reshape(v.shape)


class TestEmbed:
    # dense_matrix is the embedding of a local operator into the full volume
    def test_single_site_between_identities(self):
        expected = np.kron(I2, np.kron(SZ, I2))
        assert np.array_equal(st.dense_matrix(st.pauli_at(3, 2), 3), expected)

    def test_scalar_embeds_to_identity(self):
        assert np.array_equal(st.dense_matrix(st.local_operator([[1.0]], ()), 2), np.eye(4))

    def test_embedding_is_isometric(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = random_block_op(rng, (1,))
            embedded = st.dense_matrix(a, 5)
            assert st.operator_norm_dense(embedded) == pytest.approx(a.norm_exact(), abs=1e-10)

    def test_support_outside_volume(self):
        with pytest.raises(ContractViolation):
            st.dense_matrix(st.pauli_at(1, 5), 3)

    def test_interleaved_supports(self):
        # block on {1,4} with another on {2,3}: leg permutation must untangle
        rng = np.random.default_rng(22)
        a = random_block_op(rng, (1, 4))
        b = random_block_op(rng, (2, 3))
        prod = st.product(a, b)
        lhs = st.dense_matrix(prod, 4)
        a4 = st.dense_matrix(a, 4)
        b4 = st.dense_matrix(b, 4)
        assert np.allclose(lhs, a4 @ b4, atol=1e-12)


class TestProduct:
    def test_same_site_square(self):
        out = st.product(st.pauli_at(1, 1), st.pauli_at(1, 1))
        assert np.array_equal(st.dense_matrix(out, 1), np.eye(2))

    def test_disjoint_supports_tensor(self):
        out = st.product(st.pauli_at(1, 1), st.pauli_at(3, 4))
        assert out.support == (1, 4)
        assert np.allclose(st.dense_matrix(out, 4), embed_dense({1: SX, 4: SZ}, 4))

    def test_identity_is_unit(self):
        rng = np.random.default_rng(23)
        a = random_block_op(rng, (2, 3))
        out = st.product(a, st.from_site_factors({}))
        assert np.array_equal(st.dense_matrix(out, 3), st.dense_matrix(a, 3))

    def test_mismatched_site_dim(self):
        a = st.local_operator(np.eye(3) * 2, (1,), site_dim=3)
        with pytest.raises(ContractViolation):
            st.product(a, st.pauli_at(1, 1))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            a = random_block_op(rng, tuple(sorted(rng.choice(range(1, 6), 2, replace=False))))
            b = random_block_op(rng, tuple(sorted(rng.choice(range(1, 6), 2, replace=False))))
            lhs = st.dense_matrix(st.product(a, b), 5)
            rhs = st.dense_matrix(a, 5) @ st.dense_matrix(b, 5)
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestCommutator:
    def test_pauli_pair(self):
        out = st.commutator(st.pauli_at(1, 1), st.pauli_at(3, 1))
        assert np.allclose(st.dense_matrix(out, 1), -2j * SY)
        assert st.norm(out.as_sum(), 1).value == pytest.approx(2.0, abs=1e-12)

    def test_disjoint_short_circuit(self):
        out = st.commutator(st.pauli_at(1, 1), st.pauli_at(3, 7))
        assert out.is_zero
        assert out.blocks == ()

    def test_self_commutator(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            a = random_block_op(rng, (1, 2))
            assert st.commutator(a, a).is_zero

    def test_leibniz(self):
        # [a a', b] = a [a', b] + [a, b] a'
        rng = np.random.default_rng(26)
        for _ in range(10):
            a = random_block_op(rng, (1, 2))
            ap = random_block_op(rng, (2, 3))
            b = random_block_op(rng, (1, 3))
            lhs = st.dense_matrix(st.commutator(st.product(a, ap), b), 3)
            rhs = st.dense_matrix(st.product(a, st.commutator(ap, b)), 3) + st.dense_matrix(
                st.product(st.commutator(a, b), ap), 3
            )
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_star_compatibility(self):
        # adjoint([a, b]) = [adjoint(b), adjoint(a)]
        rng = np.random.default_rng(27)
        for _ in range(10):
            a = random_block_op(rng, (1, 2))
            b = random_block_op(rng, (2,))
            lhs = st.dense_matrix(st.commutator(a, b).adjoint(), 2)
            rhs = st.dense_matrix(st.commutator(b.adjoint(), a.adjoint()), 2)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_disjoint_sum_commutator_empty_terms(self):
        a = st.operator_sum([(1.0, st.pauli_at(1, 1)), (0.5, st.pauli_at(2, 2))])
        b = st.pauli_at(3, 9).as_sum()
        out = st.sum_commutator(a, b)
        assert out.terms == ()

    @pytest.mark.parametrize("n, expected", [(13, 2.0), (14, 0.0)])
    def test_capacity_fallback_keeps_factored_products(self, n, expected):
        # [x^N, z^N] = ((-i)^N - i^N) y^N: norm 2 at odd N, exactly 0 at even N.
        # Above the dense cap the overlap cannot be densified, so the pair is
        # kept as x^N z^N - z^N x^N.
        a = st.UniformProduct(st.pauli(1)).eval(n)
        b = st.UniformProduct(st.pauli(3)).eval(n)
        (_, x), (_, z) = a.terms[0], b.terms[0]
        with pytest.raises(CapacityError):
            st.commutator(x, z)
        out = st.sum_commutator(a, b)
        assert [w for w, _ in out.terms] == [1, -1]
        for (_, got), want in zip(out.terms, (st.product(x, z), st.product(z, x))):
            assert got.scalar == want.scalar and len(got.blocks) == n
            assert all(g.sites == h.sites and np.array_equal(g.matrix, h.matrix)
                       for g, h in zip(got.blocks, want.blocks))
        res = st.norm(out, n)
        assert res.converged
        if expected:
            assert res.value == pytest.approx(expected, rel=1e-12)
        else:
            assert res.value == 0.0


class TestSumApply:
    def test_zero_sum(self):
        out = apply_sum(st.operator_sum([], 2), np.ones(8, dtype=complex), 3)
        assert np.array_equal(out, np.zeros(8))

    def test_diagonal_action_on_all_up(self):
        # sigma3 at site 1 leaves |00...0> (index 0) alone with eigenvalue +1
        n = 5
        v = np.zeros(2**n, dtype=complex)
        v[0] = 1.0
        out = apply_sum(st.pauli_at(3, 1).as_sum(), v, n)
        assert np.array_equal(out, v)

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(28)
        n = 8
        seed = st.pauli_at(3, 1)
        s = st.gamma_average(seed, n)
        mat = st.dense_matrix(s, n)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        assert np.allclose(apply_sum(s, v, n), mat @ v, atol=1e-10)

    def test_multi_block_apply(self):
        rng = np.random.default_rng(29)
        n = 6
        op = st.from_site_factors({2: random_complex(rng, 2), 5: random_complex(rng, 2)})
        s = op.as_sum()
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        assert np.allclose(apply_sum(s, v, n), st.dense_matrix(s, n) @ v, atol=1e-10)


class TestNorm:
    def test_identity_iterative(self):
        assert st.norm(st.from_site_factors({}).as_sum(), 10, "iterative").value == 1.0

    def test_half_sum_of_sigma3(self):
        # eigenvalues of (Z1 + Z2)/2 are {1, 0, 0, -1}
        s = st.operator_sum([(0.5, st.pauli_at(3, 1)), (0.5, st.pauli_at(3, 2))])
        res = st.norm(s, 2, "dense")
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_sum(self):
        assert st.norm(st.operator_sum([], 2), 4).value == 0.0

    def test_exactly_cancelling_sum(self):
        a = st.pauli_at(1, 1)
        s = st.operator_sum([(1.0, a), (-1.0, a)])
        res = st.norm(s, 3, "iterative")
        assert res.value == 0.0 and res.converged

    @pytest.mark.parametrize("method", ["dense", "iterative", "auto"])
    def test_negative_seed_refused(self, method):
        multi = rotated_sigma3_average(np.random.default_rng(61)).eval(5)
        for s in (multi, st.pauli_at(1, 2)):
            with pytest.raises(ContractViolation, match="seed"):
                st.norm(s, 5, method, seed=-3)

    def test_dense_capacity_error_mentions_iterative(self):
        s = st.operator_sum(
            [(1.0, st.pauli_at(1, i)) for i in range(1, 8)]
        )
        with pytest.raises(CapacityError, match="iterative"):
            st.norm(s, 7, "dense", dense_cap=16)

    @pytest.mark.parametrize(
        "average", [rotated_sigma3_average, real_two_site_average, tiny_rotated_sigma3_average]
    )
    def test_auto_routes_on_compacted_dimension(self, average):
        seq = average(np.random.default_rng(41))
        top = localops._AUTO_DENSE_DIM.bit_length() - 1  # qubit sites at the crossover
        for n in (top - 2, top):  # at or below the crossover
            s = seq.eval(n)
            assert st.norm(s, n) == st.norm(s, n, "dense")
        for n in (top + 1, top + 2):  # above it
            s = seq.eval(n)
            auto = st.norm(s, n)
            assert auto == st.norm(s, n, "iterative") and auto.iterations > 0
            assert auto.value == pytest.approx(st.norm(s, n, "dense").value, rel=1e-12, abs=0)

    def test_dense_cap_below_crossover_wins(self):
        # dimension 2^n is below the crossover but above the cap
        n = localops._AUTO_DENSE_DIM.bit_length() - 2
        s = rotated_sigma3_average(np.random.default_rng(42)).eval(n)
        auto = st.norm(s, n, dense_cap=2 ** (n - 1))
        assert auto == st.norm(s, n, "iterative") and auto.iterations > 0
        with pytest.raises(CapacityError, match="iterative"):
            st.norm(s, n, "dense", dense_cap=2 ** (n - 1))

    def test_block_above_cap_falls_through_to_iteration(self):
        # dense_cap 2 refuses the exact norm of one two-site block, so auto
        # iterates, scaled by the block's Frobenius norm
        a = random_complex(np.random.default_rng(44), 4)
        res = st.norm(st.local_operator(a, (1, 2)), 2, dense_cap=2)
        assert res.converged and res.iterations > 0
        assert res.value == pytest.approx(svd_norm(a), rel=1e-12)

    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7])
    def test_iterative_stop_relative_to_cancelled_norm(self, gap):
        # a - a' for shift averages whose seeds differ by gap: the norm is
        # about gap times the bound sum |w| ||op||, and the start block alone
        # sees only a random Rayleigh quotient of it
        rng = np.random.default_rng(43)
        u, v = (np.linalg.qr(random_complex(rng, 2))[0] for _ in range(2))
        a, b = (
            st.GammaSeq.from_seed(st.local_operator(m, (1,))).eval(10) for m in (u, u + gap * v)
        )
        s = st.operator_sum(list(a.terms) + [(-w, op) for w, op in b.terms])
        res = st.norm(s, 10, "iterative")
        assert res.converged and res.iterations > localops.ITERATIVE_BLOCK
        # a* a carries the rounding of a, about eps / gap relative to its norm
        assert res.value == pytest.approx(st.norm(s, 10, "dense").value, rel=1e-9 + 1e-15 / gap)

    def test_unconverged_flag(self, monkeypatch):
        monkeypatch.setattr(localops, "ITERATIVE_MAX_ITER", 1)
        s = st.operator_sum([(1.0, st.pauli_at(1, 1)), (0.7, st.pauli_at(3, 2))])
        res = st.norm(s, 2, "iterative")
        assert not res.converged

    def test_dense_iterative_agree_on_random_sums(self):
        rng = np.random.default_rng(30)
        n = 9
        for _ in range(10):
            terms = []
            for _k in range(rng.integers(2, 5)):
                sites = tuple(
                    sorted(rng.choice(range(1, n + 1), rng.integers(1, 3), replace=False))
                )
                coeff = rng.normal() + 1j * rng.normal()
                terms.append((coeff, random_block_op(rng, sites)))
            s = st.operator_sum(terms)
            dense = st.norm(s, n, "dense").value
            it = st.norm(s, n, "iterative")
            assert it.converged
            assert it.value == pytest.approx(dense, abs=1e-8, rel=1e-8)

    def test_no_silent_wrong_answer_on_tight_cluster(self):
        # two nearly equal top singular values stall a single-vector
        # Rayleigh quotient convincingly below the true norm; the block
        # iteration must either resolve the cluster or flag non-convergence
        d1 = np.diag([1.0, 1.0 - 1e-6, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01]).astype(complex)
        d2 = np.diag([0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        s = st.operator_sum(
            [(1.0, st.local_operator(d1, (1, 2, 3))), (1.0, st.local_operator(d2, (1, 2, 3)))]
        )
        dense = st.norm(s, 3, "dense").value
        res = st.norm(s, 3, "iterative")
        assert (not res.converged) or abs(res.value - dense) <= 1e-8

    def test_near_degenerate_top_pair(self):
        # top singular values 1 + 1e-3 mu and 1 - 1e-7 + 1e-3 mu: a single
        # Krylov vector cannot separate them within the apply budget, and a
        # squared-residual test accepts a Ritz value between them
        rng = np.random.default_rng(37)
        diag = np.concatenate([[1.0, 1.0 - 1e-7], rng.uniform(0.0, 0.99, 1022)])
        h = random_hermitian(rng, 2)
        s = st.operator_sum(
            [
                (1.0, st.local_operator(np.diag(diag).astype(complex), tuple(range(1, 11)))),
                (1e-3, st.local_operator(h, (11,))),
            ]
        )
        res = st.norm(s, 11, "iterative")
        assert res.converged
        exact = 1.0 + 1e-3 * np.linalg.eigvalsh(h)[-1]
        assert res.value == pytest.approx(exact, rel=1e-9, abs=0)

    @pytest.mark.parametrize("n", [12, 13])
    def test_restarted_basis_keeps_top_value(self, monkeypatch, n):
        # a basis of 12 restarts several times; testing convergence before
        # the restarted start block is applied returns the second value 11/13
        monkeypatch.setattr(localops, "ITERATIVE_BASIS", 12)
        seq = rotated_sigma3_average(np.random.default_rng(38))
        res = st.norm(seq.eval(n), n, "iterative")
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [9, 10])
    def test_restarted_basis_on_non_normal_commutator(self, monkeypatch, n):
        rng = np.random.default_rng(39 + n)
        a, b = (st.GammaSeq.from_seed(random_block_op(rng, (1, 2))).eval(n) for _ in range(2))
        c = st.sum_commutator(a, b)
        dense = st.norm(c, n, "dense").value
        monkeypatch.setattr(localops, "ITERATIVE_BASIS", 12)
        res = st.norm(c, n, "iterative")
        assert res.converged
        assert res.value == pytest.approx(dense, abs=1e-8, rel=1e-8)

    def test_space_smaller_than_block(self):
        # dimension 2 < ITERATIVE_BLOCK: the start block spans the space
        s = st.operator_sum([(1.0, st.pauli_at(1, 1)), (0.7, st.pauli_at(3, 1))])
        res = st.norm(s, 1, "iterative")
        assert res.converged
        assert res.value == pytest.approx(np.sqrt(1.49), rel=1e-12)

    def test_iterations_count_applies(self, monkeypatch):
        calls = []
        kernel = localops._power_iteration_norm

        def counted(gram_apply, dim, rng):
            return kernel(lambda v: calls.append(1) or gram_apply(v), dim, rng)

        monkeypatch.setattr(localops, "_power_iteration_norm", counted)
        res = st.norm(rotated_sigma3_average(np.random.default_rng(40)).eval(9), 9, "iterative")
        assert res.converged and res.iterations == len(calls) > 0

    def test_state_cap_named(self, monkeypatch):
        monkeypatch.setattr(localops, "ITERATIVE_STATE_CAP", 8)
        # four one-site terms compact to dimension 16, above the cap
        s = st.operator_sum([(1.0, st.pauli_at(1, x)) for x in range(1, 5)])
        with pytest.raises(CapacityError, match="cap 8"):
            st.norm(s, 4, "iterative")

    def test_compaction_beats_volume_cap(self):
        # union support is small, so dense works even when d^N would not
        s = st.operator_sum([(1.0, st.pauli_at(1, 1)), (1.0, st.pauli_at(3, 20))])
        res = st.norm(s, 20, "dense")
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_compacted_norm_matches_full_volume_oracle(self):
        # gapped supports force nontrivial relabeling; the full d^N SVD is
        # the independent reference
        rng = np.random.default_rng(33)
        n = 8
        for _ in range(10):
            terms = []
            for _k in range(3):
                sites = tuple(sorted(rng.choice(range(1, n + 1), 2, replace=False)))
                terms.append(
                    (complex(rng.normal(), rng.normal()), random_block_op(rng, sites))
                )
            s = st.operator_sum(terms)
            assert st.norm(s, n, "dense").value == pytest.approx(
                svd_norm(st.dense_matrix(s, n)), abs=1e-9
            )

    def test_product_operator_norm_multiplicative(self):
        rng = np.random.default_rng(31)
        facs = {x: random_complex(rng, 2) for x in range(1, 15)}
        op = st.from_site_factors(facs)
        expected = 1.0
        for m in facs.values():
            expected *= svd_norm(m)
        assert st.norm(op.as_sum(), 14).value == pytest.approx(expected, rel=1e-10)


def random_mixed_sum(rng, d, sites):
    """Complex-weighted sum on ``sites`` (at least four): a bond joining the
    first and last site, a product with one block per site, a two-block
    product, and one single-site term per site."""
    ops = [
        random_block_op(rng, (sites[0], sites[-1]), d),
        st.from_site_factors({x: random_complex(rng, d) for x in sites[::2]}, d),
        st.product(random_block_op(rng, sites[1:3], d), random_block_op(rng, sites[-1:], d)),
    ] + [random_block_op(rng, (x,), d) for x in sites]
    return st.operator_sum([(complex(rng.normal(), rng.normal()), op) for op in ops], d)


def per_term_kron_sum(terms, sites, d):
    out = np.zeros((d ** len(sites),) * 2, dtype=complex)
    for w, op in terms:
        out += np.multiply(w, kron_term_dense(op.scalar, op.blocks, sites, d))
    return out


class TestAssembly:
    @pytest.mark.parametrize("d, sites, n", [(2, (2, 3, 5, 7), 8), (3, (1, 2, 3, 5), 5)])
    def test_bit_exact_against_per_term_kron(self, d, sites, n):
        rng = np.random.default_rng(36)
        for _ in range(5):
            s = random_mixed_sum(rng, d, sites)
            assert any(len(op.blocks) > 1 for _, op in s.terms)
            full = tuple(range(1, n + 1))
            assert np.array_equal(st.dense_matrix(s, n), per_term_kron_sum(s.terms, full, d))
            # after compaction the (first, last) bond joins sites 1 and m
            terms, m = localops._compact_terms(s)
            compact = tuple(range(1, m + 1))
            assert any(b.sites == (1, m) for _, op in terms for b in op.blocks)
            got = localops._assemble(
                [(w, op.scalar, op.blocks) for w, op in terms], compact, d, st.DENSE_DIM_CAP
            )
            assert np.array_equal(got, per_term_kron_sum(terms, compact, d))

    def test_single_operator_bit_exact(self):
        rng = np.random.default_rng(37)
        op = st.product(random_block_op(rng, (1, 4)), random_block_op(rng, (2,))).scale(0.5j)
        assert np.array_equal(
            st.dense_matrix(op, 5), kron_term_dense(op.scalar, op.blocks, tuple(range(1, 6)), 2)
        )


class TestConfigurableSiteDimension:
    def test_qutrit_commutator_matches_dense(self):
        rng = np.random.default_rng(34)
        a = st.local_operator(random_complex(rng, 3), (1,), site_dim=3)
        b = st.local_operator(random_complex(rng, 9), (1, 2), site_dim=3)
        c = st.commutator(a, b)
        da, db = st.dense_matrix(a, 2), st.dense_matrix(b, 2)
        assert np.allclose(st.dense_matrix(c, 2), da @ db - db @ da, atol=1e-10)

    def test_qutrit_norm_routes_agree(self):
        rng = np.random.default_rng(35)
        terms = [
            (1.0, st.local_operator(random_complex(rng, 3), (1,), site_dim=3)),
            (0.5j, st.local_operator(random_complex(rng, 9), (2, 3), site_dim=3)),
        ]
        s = st.operator_sum(terms)
        dense = st.norm(s, 3, "dense").value
        it = st.norm(s, 3, "iterative")
        assert it.converged
        assert it.value == pytest.approx(dense, abs=1e-8, rel=1e-8)


def test_norms_against_arpack():
    # third, unrelated eigensolver as a referee between the two in-tree
    # routes; skipped quietly where scipy is absent
    sparse_linalg = pytest.importorskip("scipy.sparse.linalg")
    rng = np.random.default_rng(36)
    n = 7
    for _ in range(10):
        terms = []
        for _k in range(3):
            sites = tuple(sorted(rng.choice(range(1, n + 1), 2, replace=False)))
            terms.append((complex(rng.normal(), rng.normal()), random_block_op(rng, sites)))
        s = st.operator_sum(terms)
        dense = st.dense_matrix(s, n)
        ref = float(
            sparse_linalg.svds(dense, k=1, return_singular_vectors=False, random_state=0)[0]
        )
        assert st.norm(s, n, "dense").value == pytest.approx(ref, abs=1e-7, rel=1e-7)
        assert st.norm(s, n, "iterative").value == pytest.approx(ref, abs=1e-7, rel=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    st_h.integers(0, 2**32 - 1),
    st_h.lists(
        st_h.tuples(st_h.integers(1, 4), st_h.integers(1, 4)).map(
            lambda t: tuple(sorted(set(t)))
        ),
        min_size=3,
        max_size=3,
    ),
)
def test_product_associative(seed, supports):
    rng = np.random.default_rng(seed)
    ops = [
        st.local_operator(random_complex(rng, 2 ** len(sup)), sup) for sup in supports
    ]
    a, b, c = ops
    lhs = st.dense_matrix(st.product(st.product(a, b), c), 4)
    rhs = st.dense_matrix(st.product(a, st.product(b, c)), 4)
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st_h.integers(0, 2**32 - 1), st_h.integers(1, 5), st_h.integers(5, 8))
def test_embedding_isometry_property(seed, site, volume):
    rng = np.random.default_rng(seed)
    a = st.local_operator(random_complex(rng, 2), (site,))
    assert st.operator_norm_dense(st.dense_matrix(a, volume)) == pytest.approx(
        a.norm_exact(), abs=1e-10
    )


class TestValidation:
    def test_volume_must_be_positive(self):
        with pytest.raises(ContractViolation):
            localops.check_volume(0)

    def test_block_dimension_checked(self):
        with pytest.raises(ContractViolation):
            st.local_operator(np.eye(3), (1,))

    def test_nan_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ContractViolation):
            st.local_operator(bad, (1,))

    def test_sites_must_increase(self):
        with pytest.raises(ContractViolation):
            st.local_operator(np.eye(4), (2, 1))

    def test_every_block_matrix_read_only(self):
        rng = np.random.default_rng(62)
        a = random_block_op(rng, (1, 2))
        b = random_block_op(rng, (2, 4))
        wrapped = st.gamma_pow(a, 3, 1)  # sites (1, 2) -> (3, 1): legs permuted
        assert [blk.sites for blk in wrapped.blocks] == [(1, 3)]
        compacted, m = localops._compact_terms(st.operator_sum([(1.0, a), (1.0, b)]))
        assert m == 3
        made = [a.adjoint(), a.scale(2j), st.product(a, b), st.commutator(a, b), wrapped]
        made += [op for _, op in compacted]
        for op in made:
            assert op.blocks
            for blk in op.blocks:
                with pytest.raises(ValueError):
                    blk.matrix[0, 0] = 0


# ---------------------------------------------------------------------------
# canonical form: decided once, where a matrix is made

# exact factors that fold: Paulis square to the identity, and zero and the
# identity themselves; the last index draws a random complex factor instead
FOLDING_FACTORS = (SX, SY, SZ, I2, np.diag([1, 1j]), np.zeros((2, 2)))
VOLUME = 4


def assert_canonical(op):
    """Blocks sorted by first site and disjoint, none exactly zero or the
    identity, every matrix read-only; zero is exactly ``0j`` with no blocks."""
    if op.is_zero:
        assert repr(op.scalar) == "0j" and op.blocks == ()
        return
    firsts = [blk.sites[0] for blk in op.blocks]
    assert firsts == sorted(firsts)
    sites = [s for blk in op.blocks for s in blk.sites]
    assert len(sites) == len(set(sites))
    for blk in op.blocks:
        assert list(blk.sites) == sorted(set(blk.sites))
        assert np.count_nonzero(blk.matrix)
        assert not np.array_equal(blk.matrix, np.eye(len(blk.matrix)))
        assert not blk.matrix.flags.writeable


def assert_canonical_sum(s):
    for w, op in s.terms:
        assert w != 0 and not op.is_zero
        assert_canonical(op)


@st_h.composite
def folding_operators(draw):
    """Operators on sites 1..VOLUME through every public constructor, often
    with factors that are exactly zero, exactly the identity, or square to it."""
    rng = np.random.default_rng(draw(st_h.integers(0, 2**32 - 1)))

    def factor():
        k = draw(st_h.integers(0, len(FOLDING_FACTORS)))
        return FOLDING_FACTORS[k] if k < len(FOLDING_FACTORS) else random_complex(rng, 2)

    kind = draw(st_h.sampled_from(["factors", "kron", "dense", "scalar"]))
    if kind == "factors":
        sites = draw(st_h.sets(st_h.integers(1, VOLUME), max_size=VOLUME))
        return st.from_site_factors({s: factor() for s in sites})
    if kind == "scalar":
        return st.local_operator([[draw(st_h.sampled_from([0.0, 1.0, -2j]))]], ())
    sites = tuple(sorted(draw(st_h.sets(st_h.integers(1, VOLUME), min_size=1, max_size=2))))
    if kind == "kron":
        return st.local_operator(reduce(np.kron, [factor() for _ in sites]), sites)
    return st.local_operator(random_complex(rng, 2 ** len(sites)), sites)


@settings(max_examples=80, deadline=None)
@given(folding_operators(), folding_operators())
def test_canonical_form_property(a, b):
    da, db = st.dense_matrix(a, VOLUME), st.dense_matrix(b, VOLUME)
    prod, comm = st.product(a, b), st.commutator(a, b)
    for op in (a, b, prod, comm):
        assert_canonical(op)
    assert np.allclose(st.dense_matrix(prod, VOLUME), da @ db, atol=1e-12)
    assert np.allclose(st.dense_matrix(comm, VOLUME), da @ db - db @ da, atol=1e-12)
    sa = st.operator_sum([(1.0, a), (0.5j, b)], 2)
    sb = st.operator_sum([(1.0, b), (-2.0, a)], 2)
    dsa, dsb = st.dense_matrix(sa, VOLUME), st.dense_matrix(sb, VOLUME)
    sprod, scomm = st.sum_product(sa, sb), st.sum_commutator(sa, sb)
    for s in (sa, sb, sprod, scomm):
        assert_canonical_sum(s)
    assert np.allclose(st.dense_matrix(sprod, VOLUME), dsa @ dsb, atol=1e-12)
    assert np.allclose(st.dense_matrix(scomm, VOLUME), dsa @ dsb - dsb @ dsa, atol=1e-12)


def sequence_kinds(seed_op, f, g):
    """One sequence of every operator-valued kind, built from the given parts."""
    kinds = [
        st.LocalEmbedSeq(seed_op),
        st.TranslatedToInfinity(f),
        st.TranslatedToInfinity(g, lambda n: max(1, n - 1)),
        st.UniformProduct(f),
        st.ParityProduct(f, g),
        st.BlockProduct(f, g),
        st.HalfChain(g),
    ]
    if seed_op.support:
        kinds.append(st.GammaSeq.from_seed(seed_op))
    a, b = kinds[1], kinds[4]
    kinds += [st.SeqSum(a, b), st.SeqProduct(a, b), st.SeqAdjoint(b),
              st.SeqScale(lambda n: 1 / n, b)]
    return kinds


@settings(max_examples=40, deadline=None)
@given(folding_operators(), st_h.integers(0, len(FOLDING_FACTORS) - 1),
       st_h.integers(0, len(FOLDING_FACTORS) - 1))
def test_every_sequence_kind_evaluates_to_canonical_form(seed_op, i, j):
    f, g = FOLDING_FACTORS[i], FOLDING_FACTORS[j]
    for seq in sequence_kinds(seed_op, f, g):
        for n in range(1, VOLUME + 2):
            assert_canonical_sum(seq.eval(n))


class TestCheckedOnce:
    def test_square_folds_next_to_pass_through_block(self):
        a = st.from_site_factors({1: SX, 2: SZ})
        out = st.product(a, st.pauli_at(1, 1))
        assert len(out.blocks) == 1 and out.blocks[0] is a.blocks[1]

    def test_product_passes_blocks_through_unchanged(self):
        rng = np.random.default_rng(63)
        a = st.from_site_factors({1: SX, 3: random_complex(rng, 2), 5: SY})
        b = st.from_site_factors({2: SZ, 3: SX, 4: random_complex(rng, 2)})
        out = st.product(a, b)
        assert [blk.sites for blk in out.blocks] == [(1,), (2,), (3,), (4,), (5,)]
        kept = [out.blocks[k] for k in (0, 1, 3, 4)]
        passed = [a.blocks[0], b.blocks[0], b.blocks[2], a.blocks[2]]
        assert all(blk is want for blk, want in zip(kept, passed))

    def test_commuting_overlap_is_exact_zero(self):
        xx = st.local_operator(np.kron(SX, SX), (1, 2))
        zz = st.local_operator(np.kron(SZ, SZ), (1, 2))
        out = st.commutator(xx, st.product(zz, st.pauli_at(2, 4)))
        assert repr(out.scalar) == "0j" and out.blocks == ()

    def test_zero_factor_makes_zero(self):
        out = st.from_site_factors({1: SX, 2: np.zeros((2, 2))})
        assert repr(out.scalar) == "0j" and out.blocks == ()
        assert st.product(st.pauli_at(1, 1), out).blocks == ()

    def test_commutator_keeps_spectators_as_given(self):
        a = st.from_site_factors({1: SX, 3: SY})
        out = st.commutator(a, st.pauli_at(3, 1))
        assert out.blocks[1] is a.blocks[1]
        assert np.array_equal(out.blocks[0].matrix, -2j * SY)

    def test_distinct_keys_must_be_distinct_sites(self):
        with pytest.raises(ContractViolation):
            st.from_site_factors({1: SX, 1.5: SZ})
