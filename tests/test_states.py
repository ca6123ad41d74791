import numpy as np
import pytest

import spintail as st
from spintail import localops, states

from oracles import (
    I2,
    SX,
    SY,
    SZ,
    average_variance_dense,
    expectation_per_block,
    kron_term_dense,
    norm_exact_per_block,
    random_complex,
    random_hermitian,
    rho_chain,
    shifted_dense,
    svd_norm,
)

RHO_UP06 = 0.5 * (I2 + 0.6 * SZ)  # diag(0.8, 0.2)
RHO_MINUS = 0.5 * (I2 - SX)
RHO_MIXED = 0.5 * I2
# a state in which every Pauli matrix has a nonzero value
RHO_TILTED = 0.5 * (I2 + 0.3 * SX + 0.4 * SY + 0.5 * SZ)


def random_variance_cases(rng_seed, count):
    """(rho, A, state, seed): rho a random pure state mixed with 20-70% of the
    maximally mixed one, A a random Hermitian one-site observable; d = 2, 3 in turn."""
    rng = np.random.default_rng(rng_seed)
    for k in range(count):
        d = 2 + k % 2
        m = random_complex(rng, d)
        pure = m @ m.conj().T / np.trace(m @ m.conj().T).real
        t = rng.uniform(0.2, 0.7)
        rho = (1 - t) * pure + t * np.eye(d) / d
        a = random_hermitian(rng, d)
        yield rho, a, st.product_state(rho), st.local_operator(a, (1,), site_dim=d)


def variance_over_shift_pairs(state, seed, n) -> float:
    """The N^2 route: the average times itself over all N^2 shift pairs, minus the squared mean."""
    avg = st.gamma_average(seed, n)
    first = st.expectation(state, avg, n)
    return float(np.real(st.expectation(state, st.sum_product(avg, avg), n) - first**2))


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

    def test_site_dimension_must_match_the_sum(self):
        qutrits = st.product_state(np.eye(3) / 3)
        with pytest.raises(st.ContractViolation, match="disagree on site dimension"):
            st.expectation(qutrits, st.pauli_at(3, 1).as_sum(), 2)


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

    def test_overflow_is_refused(self):
        # finite factors, but the weight overflows: a state value of nan+nanj
        # is refused, not returned
        s = st.pauli_at(3, 1).as_sum().scale(1e300).scale(1e300)
        with pytest.raises(st.ContractViolation, match="not finite"):
            st.expectation(st.product_state(RHO_UP06), s, 2)


def _site_factor(rng, scale=0.9):
    """A random complex one-site matrix of operator norm ``scale``."""
    m = random_complex(rng, 2)
    return scale * m / svd_norm(m)


def _shared_factor_sequences():
    """(id, sequence) pairs whose terms share block matrices in different ways."""
    rng = np.random.default_rng(23)
    f, g = _site_factor(rng), _site_factor(rng)
    gamma = st.GammaSeq.from_seed(st.local_operator(random_complex(rng, 4) / 4, (1, 2)))
    return [
        ("uniform", st.UniformProduct(f)),
        ("parity", st.ParityProduct(f, g)),
        ("block", st.BlockProduct(f, g)),
        ("half_chain", st.HalfChain(f)),
        ("gamma_two_site", gamma),
        ("product_gamma_uniform", st.SeqProduct(gamma, st.UniformProduct(g))),
        # equal factors held as two distinct matrix objects, one per parity
        ("parity_equal_values", st.ParityProduct(f, f.copy())),
    ]


SHARED = _shared_factor_sequences()


class TestSharedFactors:
    """Each factor record's matrix is evaluated once and raised to its count."""

    @pytest.mark.parametrize("seq", [q for _, q in SHARED], ids=[i for i, _ in SHARED])
    def test_matches_per_block_oracle(self, seq):
        state = st.product_state(RHO_TILTED)
        for n in (1, 2, 3, 5, 8, 13, 40, 101):
            s = seq.eval(n)
            ref = expectation_per_block(RHO_TILTED, s)
            assert abs(st.expectation(state, s, n) - ref) <= 1e-12 * abs(ref)
            for _, op in s.terms:
                ref = norm_exact_per_block(op)
                assert abs(op.norm_exact() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("seq", [q for _, q in SHARED], ids=[i for i, _ in SHARED])
    def test_matches_dense_chain(self, seq):
        state = st.product_state(RHO_TILTED)
        for n in range(1, 11):
            s = seq.eval(n)
            dense = sum((kron_term_dense(w * op.scalar, op.blocks, range(1, n + 1), 2)
                         for w, op in s.terms), np.zeros((2**n, 2**n)))
            rho_n = rho_chain(RHO_TILTED, n)
            ref = np.einsum("ij,ji->", rho_n, dense)
            # the trace sums 4**n products, so its rounding scales with their moduli
            scale = np.einsum("ij,ji->", np.abs(rho_n), np.abs(dense))
            assert abs(st.expectation(state, s, n) - ref) <= 1e-12 * scale
            if n > 6:  # a dense SVD per term costs seconds above six sites
                continue
            for _, op in s.terms:
                ref = svd_norm(kron_term_dense(op.scalar, op.blocks, range(1, n + 1), 2))
                assert abs(op.norm_exact() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("seq", [q for _, q in SHARED], ids=[i for i, _ in SHARED])
    def test_adjoint_keeps_shared_factors(self, seq):
        state = st.product_state(RHO_TILTED)
        for n in (1, 2, 5, 13, 101):
            s, adj = seq.eval(n), st.SeqAdjoint(seq).eval(n)
            for (_, op), (_, op_adj) in zip(s.terms, adj.terms):
                # one adjoint per record, on the record's own sites
                assert [(type(b), b.count, b.first, b.last) for b in op_adj.blocks] == [
                    (type(b), b.count, b.first, b.last) for b in op.blocks
                ]
                ref = norm_exact_per_block(op_adj)
                assert abs(op_adj.norm_exact() - ref) <= 1e-12 * ref
            ref = expectation_per_block(RHO_TILTED, adj)
            assert abs(st.expectation(state, adj, n) - ref) <= 1e-12 * abs(ref)

    def test_adjoint_of_uniform_product_has_one_factor(self):
        s = st.SeqAdjoint(st.UniformProduct(SX)).eval(4096)
        ((_, op),) = s.terms
        (run,) = op.blocks
        assert isinstance(run, localops.Run) and run.ranges == (range(1, 4097),)
        ref = expectation_per_block(RHO_MINUS, s)
        assert ref == 1 and st.expectation(st.product_state(RHO_MINUS), s, 4096) == ref
        assert op.norm_exact() == pytest.approx(norm_exact_per_block(op), rel=1e-12)

    def test_real_site_value_keeps_a_zero_imaginary_part(self):
        # (-1 + 0j) ** 4097 has an imaginary part of about 1.7e-13
        val = st.expectation(st.product_state(RHO_MINUS), st.UniformProduct(SX).eval(4097), 4097)
        assert val == -1 and val.imag == 0

    def test_underflow_gives_zero(self):
        state = st.product_state(RHO_MIXED)
        s = st.UniformProduct(np.diag([0.66, 0.66])).eval(4096)
        assert st.expectation(state, s, 4096) == 0
        assert s.terms[0][1].norm_exact() == 0

    def test_small_product_is_accurate(self):
        state = st.product_state(RHO_MIXED)
        s = st.UniformProduct(np.diag([0.66, 0.66])).eval(1024)
        ref = 0.66**1024
        assert abs(st.expectation(state, s, 1024) - ref) <= 1e-13 * ref
        assert abs(s.terms[0][1].norm_exact() - ref) <= 1e-13 * ref

    @pytest.mark.parametrize(
        "seq, calls",
        [
            (st.UniformProduct(SX), 1),
            (st.ParityProduct(SX, SZ), 2),
            (st.ParityProduct(SX, SX.copy()), 2),
        ],
        ids=["uniform", "parity", "parity_equal_values"],
    )
    def test_one_evaluation_per_distinct_matrix(self, seq, calls, monkeypatch):
        counts = {"expect": 0, "norm": 0}

        def counted(key, original):
            def wrapper(*args):
                counts[key] += 1
                return original(*args)

            return wrapper

        s = seq.eval(4096)
        monkeypatch.setattr(states, "_block_expectation",
                            counted("expect", states._block_expectation))
        monkeypatch.setattr(localops, "operator_norm_dense",
                            counted("norm", localops.operator_norm_dense))
        st.expectation(st.product_state(RHO_TILTED), s, 4096)
        s.terms[0][1].norm_exact()
        assert counts == {"expect": calls, "norm": calls}


def _sitewise_products():
    """(id, sequence): one sequence of each sitewise-product constructor."""
    rng = np.random.default_rng(29)
    f, g = _site_factor(rng), _site_factor(rng)
    return [
        ("uniform", st.UniformProduct(f)),
        ("parity", st.ParityProduct(f, g)),
        ("block", st.BlockProduct(f, g)),
        ("half_chain", st.HalfChain(g)),
    ]


PRODUCTS = _sitewise_products()


def _times_site(m, p, x, n, right):
    """``m (I (x) p (x) I)`` with ``p`` on site x of n qubits, or ``(I (x) p (x) I) m``."""
    if right:
        t = m.reshape(2**n, 2 ** (x - 1), 2, 2 ** (n - x))
        return np.einsum("iajb,jk->iakb", t, p).reshape(m.shape)
    t = m.reshape(2 ** (x - 1), 2, 2 ** (n - x), 2**n)
    return np.einsum("kj,ajbi->akbi", p, t).reshape(m.shape)


class TestSitewiseRecords:
    """Each consumer of a sitewise product's records against plain-numpy oracles:
    the per-factor values of ``oracles.py`` and the dense trace against rho_chain."""

    @staticmethod
    def _check(op, dense, rho_n, n):
        state = st.product_state(RHO_TILTED)
        s = op.as_sum()
        got = st.expectation(state, s, n)
        ref = expectation_per_block(RHO_TILTED, s)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-300)
        trace = np.einsum("ij,ji->", rho_n, dense)
        scale = np.einsum("ij,ji->", np.abs(rho_n), np.abs(dense))
        assert abs(got - trace) <= 1e-12 * scale
        ref = norm_exact_per_block(op)
        assert abs(op.norm_exact() - ref) <= 1e-12 * ref
        if n <= 6:  # a dense SVD per operator costs seconds above six sites
            assert op.norm_exact() == pytest.approx(svd_norm(dense), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seq", [q for _, q in PRODUCTS], ids=[i for i, _ in PRODUCTS])
    def test_consumers_match_oracles(self, seq):
        rng = np.random.default_rng(31)
        for n in range(1, 11):
            ((_, op),) = seq.eval(n).terms
            sites = range(1, n + 1)
            dense = kron_term_dense(op.scalar, op.blocks, sites, 2)
            rho_n = rho_chain(RHO_TILTED, n)
            self._check(op, dense, rho_n, n)
            adj = op.adjoint()
            assert np.array_equal(kron_term_dense(adj.scalar, adj.blocks, sites, 2),
                                  dense.conj().T)
            self._check(adj, dense.conj().T, rho_n, n)
            if n <= 6:  # shifts relabel a run's sites
                for j in range(n):
                    moved = st.gamma_pow(op, n, j)
                    assert np.allclose(kron_term_dense(moved.scalar, moved.blocks, sites, 2),
                                       shifted_dense(dense, j, 2, n), rtol=0, atol=1e-14)
            # every site up to six sites, then the ends and the middle
            for x in sites if n <= 6 else sorted({1, n // 2, n - 1, n}):
                p = random_complex(rng, 2)
                probe = st.local_operator(p, (x,))
                right = _times_site(dense, p, x, n, right=True)
                left = _times_site(dense, p, x, n, right=False)
                for got, want in (
                    (st.product(op, probe), right),
                    (st.product(probe, op), left),
                    (st.commutator(op, probe), right - left),
                ):
                    assert np.allclose(kron_term_dense(got.scalar, got.blocks, sites, 2), want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())
                    self._check(got, want, rho_n, n)
                    # the probe meets the product only at its own site; elsewhere
                    # the product's matrices are kept as they are
                    for b in got.blocks:
                        if x in b.each_site():
                            assert b.sites == (x,)
                        else:
                            assert any(b.matrix is a.matrix for a in op.blocks)

    @pytest.mark.parametrize("seq", [q for _, q in PRODUCTS], ids=[i for i, _ in PRODUCTS])
    def test_shift_and_its_inverse_cancel_exactly(self, seq):
        # a shift there and back gives the same sites, and its runs hold them as
        # the same ranges, so the difference has no terms (the block product's
        # even sites {1, 4, 5, 6, 11, 12, 13} at N = 13 once came back split
        # differently from the constructor's)
        for n in range(1, 15):
            a = seq.eval(n)
            for j in range(n):
                assert (a - st.gamma_pow(st.gamma_pow(a, n, j), n, n - j)).terms == (), (n, j)

    def test_a_billion_sites_are_never_walked(self, monkeypatch):
        # expanding a run here would take minutes and gigabytes; fail at once instead
        def walked(self):
            raise AssertionError("a run's sites were walked")

        monkeypatch.setattr(localops.Run, "each_site", walked)
        monkeypatch.setattr(localops.Run, "pieces", walked)
        n = 10**9
        s = st.UniformProduct(SX).eval(n)
        ((_, op),) = s.terms
        assert [type(b) for b in op.blocks] == [localops.Run] and op.ends == (1, n)
        assert st.expectation(st.product_state(RHO_MINUS), s, n) == 1  # (-1) ** n
        assert op.norm_exact() == 1
        probe = st.pauli_at(3, 1)
        # sx sz - sz sx = -2i sy on site 1, and sx on every other site
        for comm in (st.commutator(op, probe), st.sum_commutator(s, probe.as_sum()).terms[0][1]):
            first, rest = comm.blocks
            assert first.sites == (1,) and np.array_equal(first.matrix, -2j * SY)
            assert rest.ranges == (range(2, n + 1),) and rest.matrix is op.blocks[0].matrix
            assert comm.norm_exact() == 2
            assert st.expectation(st.product_state(RHO_MINUS), comm.as_sum(), n) == 0
        assert st.norm(st.sum_commutator(s, probe.as_sum()), n).value == 2
        # a shift moves each range as two translated pieces, which rejoin
        assert st.gamma_pow(op, n, 12345).blocks[0].ranges == (range(1, n + 1),)
        odd_z = st.ParityProduct(SZ, SX).eval(n)
        moved = st.gamma_pow(odd_z, n, 1).terms[0][1].blocks
        # z moves from the odd sites to the even ones, x from the even to the odd
        assert [b.ranges for b in moved] == [(range(1, n, 2),), (range(2, n + 1, 2),)]
        assert [np.array_equal(b.matrix, m) for b, m in zip(moved, (SX, SZ))] == [True, True]
        # x^N times (z on odd sites, x on even): xz = -i y on the odd sites, and
        # xx, the identity, on the even ones; <y> = 1 in rho_y, so the value
        # is (-i)^(N/2) = 1, N/2 being a multiple of 4
        ((_, prod),) = st.sum_product(s, odd_z).terms
        (run,) = prod.blocks
        assert run.ranges == (range(1, n, 2),) and np.array_equal(run.matrix, SX @ SZ)
        rho_y = 0.5 * (I2 + SY)
        assert st.expectation(st.product_state(rho_y), st.sum_product(s, odd_z), n) == 1
        # [x^N, z^N] stays factored, each product one run on all N sites; the
        # commutator alone names the union's dimension without writing it out
        z = st.UniformProduct(SZ).eval(n)
        out = st.sum_commutator(s, z)
        assert [w for w, _ in out.terms] == [1, -1]
        for (_, got), m in zip(out.terms, (SX @ SZ, SZ @ SX)):
            (run,) = got.blocks
            assert run.ranges == (range(1, n + 1),) and np.array_equal(run.matrix, m)
        with pytest.raises(st.CapacityError, match=r"dimension 2\*\*1000000000, above"):
            st.commutator(op, z.terms[0][1])
        # past sys.maxsize sites, where len() refuses a range, range arithmetic still holds
        n = 10**30
        s, z, odd_z = (seq.eval(n) for seq in (
            st.UniformProduct(SX), st.UniformProduct(SZ), st.ParityProduct(SZ, SX)))
        ((_, op),) = s.terms
        assert op.norm_exact() == 1 and st.norm(s, n).value == 1
        assert st.expectation(st.product_state(RHO_MINUS), s, n) == 1
        assert st.norm(odd_z, n).value == 1
        assert st.gamma_pow(op, n, 12345).blocks[0].ranges == (range(1, n + 1),)
        moved = st.gamma_pow(odd_z, n, 1).terms[0][1].blocks
        assert [b.ranges for b in moved] == [(range(1, n, 2),), (range(2, n + 1, 2),)]
        ((_, prod),) = st.sum_product(s, odd_z).terms
        assert [b.ranges for b in prod.blocks] == [(range(1, n, 2),)]
        # N/2 is a multiple of 4 here too
        assert st.expectation(st.product_state(rho_y), st.sum_product(s, odd_z), n) == 1
        out = st.sum_commutator(s, z)
        assert [w for w, _ in out.terms] == [1, -1]
        assert [got.blocks[0].ranges for _, got in out.terms] == [(range(1, n + 1),)] * 2


class TestAverageVariance:
    def test_biased_sigma3(self):
        state = st.product_state(RHO_UP06)
        val = st.average_variance(state, st.pauli_at(3, 1), 8)
        assert val == pytest.approx((1 - 0.36) / 8, abs=1e-12)

    def test_identity_constant(self):
        # a scalar seed has no spread: exactly zero, with no rounding left over
        state = st.product_state(RHO_UP06)
        for c in (0.0, 1.0, 0.1, -3.7, 2.5e-3):
            for n in (1, 2, 5, 9, 1000):
                assert st.average_variance(state, st.local_operator([[c]], ()), n) == 0.0

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
        cases = [(RHO_UP06, SZ, st.product_state(RHO_UP06), st.pauli_at(3, 1))]
        for rho, a, state, seed in cases + list(random_variance_cases(63, 6)):
            for n in range(1, 9 if rho.shape[0] == 2 else 6):
                assert st.average_variance(state, seed, n) == pytest.approx(
                    average_variance_dense(rho, a, n), rel=1e-12
                )

    def test_random_cases_match_shift_pair_route(self):
        for _rho, _a, state, seed in random_variance_cases(64, 4):
            for n in (1, 2, 7, 16, 30):
                assert st.average_variance(state, seed, n) == pytest.approx(
                    variance_over_shift_pairs(state, seed, n), rel=1e-12
                )

    def test_random_cases_match_closed_form(self):
        # (tr(rho A^2) - tr(rho A)^2) / N, at volumes the pair route cannot reach
        for rho, a, state, seed in random_variance_cases(65, 10):
            mean = np.trace(rho @ a)
            one_site = np.real(np.trace(rho @ a @ a) - mean**2)
            for n in (1, 3, 128, 4099, 2**20):
                assert st.average_variance(state, seed, n) == pytest.approx(
                    one_site / n, rel=1e-14
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
