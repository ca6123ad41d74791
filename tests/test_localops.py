import itertools
import time
from functools import reduce
from unittest import mock

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
    factor_copies,
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


def random_two_site_average(rng):
    """Shift average of a random complex two-site seed, not self-adjoint."""
    return st.GammaSeq.from_seed(random_block_op(rng, (1, 2)))


def rotated_sigma1_sigma1_average(rng):
    """Shift average of ``(u SX u*) (x) (u SX u*)`` on two sites for a random unitary
    ``u``: complex and self-adjoint, with norm 1 at every volume, and connected
    from N = 3 on by its wrap bond, so no volume splits it into decoupled groups."""
    u, _ = np.linalg.qr(random_complex(rng, 2))
    r = u @ SX @ u.conj().T
    return st.GammaSeq.from_seed(st.from_site_factors({1: r, 2: r}))


def tiny_rotated_sigma1_sigma1_average(rng):
    """The rotated sigma1 sigma1 shift average scaled to norm 1e-6."""
    return st.SeqScale(1e-6, rotated_sigma1_sigma1_average(rng))


def compiled_apply(s, v, n, adjoint=False):
    """The compiled apply plan of ``s`` (or of its adjoint) run on a flat state of
    ``n`` sites; returns ``(plan, result)``."""
    terms = s.adjoint().terms if adjoint else s.terms
    plan = localops._compile_plan(terms, n, s.site_dim)
    out, scratch = np.empty_like(v), [np.empty_like(v), np.empty_like(v)]
    localops._run_plan(plan, v, out, scratch)
    return plan, out


def apply_sum(s, v, n):
    """The matrix-free kernel behind iterative norms, on a flat state of ``n`` sites."""
    return compiled_apply(s, v, n)[1]


def random_sum(rng, supports, d=2, product_form=()):
    """Random complex weights times random operators on ``supports`` (``()`` is
    a multiple of the identity); the supports listed in ``product_form`` get
    one random block per site."""
    terms = []
    for sites in supports:
        if sites in product_form:
            factors = st.from_site_factors({x: random_complex(rng, d) for x in sites}, site_dim=d)
            op = st.product(random_block_op(rng, (), d), factors)  # a scalar other than 1
        else:
            op = random_block_op(rng, sites, d)
        terms.append((complex(rng.normal(), rng.normal()), op))
    return st.operator_sum(terms, d)


def random_hermitian_sum(rng, supports, d=2, product_form=()):
    """Like :func:`random_sum`, with Hermitian blocks and real weights, so that
    every step of its apply plan is self-adjoint."""
    terms = []
    for sites in supports:
        blocks = [(x,) for x in sites] if sites in product_form else [sites]
        op = reduce(
            st.product,
            [st.local_operator(random_hermitian(rng, d ** len(b)), b, site_dim=d) for b in blocks],
        )
        terms.append((rng.normal(), op))
    return st.operator_sum(terms, d)


def norm_and_plans(s, n):
    """The iterative norm of ``s`` and the number of apply plans it compiled:
    one on ``a`` or ``i a``, two (``a`` and ``a*``) on the dilation
    ``[[0, a], [a*, 0]]``."""
    with mock.patch.object(localops, "_compile_plan", wraps=localops._compile_plan) as spy:
        res = st.norm(s, n, "iterative")
    return res, spy.call_count


def right_cyclic(mat):
    """``mat`` times the cyclic permutation of its basis, a non-Hermitian unitary:
    the singular values stay, and the sum leaves the self-adjoint route."""
    return mat @ np.roll(np.eye(len(mat)), 1, axis=0)


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
        # Above the dense cap the union of the overlaps cannot be densified,
        # and the error names the route that keeps x^N z^N - z^N x^N factored.
        a = st.UniformProduct(st.pauli(1)).eval(n)
        b = st.UniformProduct(st.pauli(3)).eval(n)
        (_, x), (_, z) = a.terms[0], b.terms[0]
        with pytest.raises(CapacityError, match="sum_commutator"):
            st.commutator(x, z)
        out = st.sum_commutator(a, b)
        assert_factored_pair(out, x, z, n)
        res = st.norm(out, n)
        assert res.converged
        if expected:
            assert res.value == pytest.approx(expected, rel=1e-12)
        else:
            assert res.value == 0.0

    def test_one_overlap_above_cap_names_no_route(self):
        # one 13-site overlap component: the factored form would densify it too
        rng = np.random.default_rng(28)
        a = random_block_op(rng, tuple(range(1, 8)))
        b = random_block_op(rng, tuple(range(7, 14)))
        for call in (st.commutator, lambda x, y: st.sum_commutator(x.as_sum(), y.as_sum())):
            with pytest.raises(CapacityError, match="dimension 8192") as exc:
                call(a, b)
            assert "sum_commutator" not in str(exc.value)

    def test_union_above_crossover_with_spectators_is_one_term(self):
        # z on sites 1..9 against x^16: nine one-site overlaps, a 512-dimensional
        # union, joint support 2^16 above the cap.  Densified, the norm is exact on
        # one term; factored, it would need Lanczos on 2^16-long vectors.
        x = st.UniformProduct(st.pauli(1)).eval(16)
        z = st.from_site_factors({s: st.pauli(3) for s in range(1, 10)}).as_sum()
        out = st.sum_commutator(x, z)
        assert len(out.terms) == 1 and out.terms[0][1].blocks[0].sites == tuple(range(1, 10))
        assert st.norm(out, 16).value == pytest.approx(2.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_separate_overlaps_stay_factored_below_cap(self, n, monkeypatch):
        # x^N and z^N meet on N one-site overlaps.  Densifying their union would
        # take a 2^N x 2^N matrix; kept factored, none is assembled above 2 x 2.
        a = st.UniformProduct(st.pauli(1)).eval(n)
        b = st.UniformProduct(st.pauli(3)).eval(n)
        assemble, built = localops._assemble, []

        def recording(*args):
            out = assemble(*args)
            built.append(out.shape[0])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(localops, "_assemble", recording)
            out = st.sum_commutator(a, b)
        assert max(built, default=2) == 2
        assert_factored_pair(out, a.terms[0][1], b.terms[0][1], n)
        assert st.norm(out, n).value == pytest.approx(2.0 if n % 2 else 0.0, rel=0, abs=1e-12)


def assert_factored_pair(out, x, z, n):
    """``out`` is ``x z - z x`` kept as the two products, each one run on all ``n`` sites."""
    assert [w for w, _ in out.terms] == [1, -1]
    for (_, got), want in zip(out.terms, (st.product(x, z), st.product(z, x))):
        (run,) = got.blocks
        assert isinstance(run, localops.Run) and run.ranges == (range(1, n + 1),)
        assert localops._op_fingerprint(got) == localops._op_fingerprint(want)


# Where a and b meet inside one overlap component: (a's block offsets, b's block
# offsets) from the component's first site.
_OVERLAP_KINDS = (
    ([(0,)], [(0,)]),
    ([(0, 1)], [(1,)]),
    ([(0,)], [(0, 1)]),
    ([(0, 1)], [(0, 1)]),
    ([(0, 1)], [(1, 2)]),
    ([(0, 1), (2,)], [(1, 2)]),
)
_OVERLAP_SITES = 9


def _kind_width(kind):
    return 1 + max(o for blocks in kind for sites in blocks for o in sites)


@st_h.composite
def overlapping_pairs(draw):
    """Products ``a``, ``b`` of random complex one- and two-site factors that meet
    on 1 to 3 separate overlap components, with a spectator factor of either
    operator, or none, on the site after each; returns ``(a, b, components,
    overlap sites, volume)``."""
    rng = np.random.default_rng(draw(st_h.integers(0, 2**32 - 1)))
    k = draw(st_h.integers(1, 3))
    sites = ([], [])
    first, union = 1, 0
    for i in range(k):
        # each later component needs at least one site and the site after it
        room = _OVERLAP_SITES - first - 2 * (k - 1 - i)
        kind = draw(st_h.sampled_from([c for c in _OVERLAP_KINDS if _kind_width(c) <= room]))
        for side, offsets in zip(sites, kind):
            side.extend(tuple(first + o for o in block) for block in offsets)
        first += _kind_width(kind)
        union += _kind_width(kind)
        owner = draw(st_h.sampled_from([0, 1, None]))
        if owner is not None:
            sites[owner].append((first,))
        first += 1

    def operator(blocks):
        scalar = st.local_operator([[complex(rng.normal(), rng.normal())]], ())
        factors = [st.local_operator(random_complex(rng, 2 ** len(s)) / 2, s) for s in blocks]
        return reduce(st.product, factors, scalar)

    return operator(sites[0]), operator(sites[1]), k, union, first - 1


@settings(max_examples=60, deadline=None)
@given(overlapping_pairs(), st_h.sampled_from([2, 8, 32, localops._AUTO_DENSE_DIM_REAL]))
def test_sum_commutator_form_follows_overlaps(pair, crossover):
    # every joint support here is within DENSE_DIM_CAP, so a pair meeting on
    # several overlaps is factored exactly when their union is above the crossover
    a, b, k, union, n = pair
    wa, wb = 0.5 - 1j, 2.0 + 0.25j
    with mock.patch.object(localops, "_AUTO_DENSE_DIM_REAL", crossover):
        out = st.sum_commutator(st.operator_sum([(wa, a)]), st.operator_sum([(wb, b)]))
    da, db = st.dense_matrix(a, n), st.dense_matrix(b, n)
    assert np.abs(st.dense_matrix(out, n) - wa * wb * (da @ db - db @ da)).max() <= 1e-12
    got = [(w, localops._op_fingerprint(op)) for w, op in out.terms]
    if k == 1 or 2**union <= crossover:
        assert got == [(wa * wb, localops._op_fingerprint(st.commutator(a, b)))]
    else:
        assert got == [(wa * wb, localops._op_fingerprint(st.product(a, b))),
                       (-wa * wb, localops._op_fingerprint(st.product(b, a)))]


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


# (sites, site_dim, supports, supports in product form)
BONDS_7 = [(x, x + 1) for x in range(1, 7)] + [(1, 7)]
LINE_8 = tuple(range(1, 9))
PLAN_CASES = {
    "one_site": (7, 2, [(x,) for x in range(1, 8)], ()),
    "bonds_wrap_block": (7, 2, BONDS_7, ()),
    "bonds_wrap_product": (7, 2, BONDS_7, BONDS_7),
    "shared_supports": (6, 2, [(2, 3), (2, 3), (2, 3), (5,), (5,), (1, 6), (1, 6), ()], ()),
    "long_product": (8, 2, [LINE_8, (2, 5, 7), (3,), (8,)], [LINE_8, (2, 5, 7)]),
    "gapped_block": (7, 2, [(2, 5), (3, 6, 7), (4,)], ()),
    "site_dim_3": (
        5, 3, [(x,) for x in range(1, 6)] + [(x, x + 1) for x in range(1, 5)] + [(1, 5), ()], ()
    ),
    # tails of 1 to 16 states behind blocks of 2 to 16 states
    "short_tails": (
        8, 2, [(8,), (7, 8), (6, 7, 8), (5, 6, 7, 8), (4, 5, 6, 7), (3, 4, 5, 6), (2, 3, 4, 5)], ()
    ),
    "one_site_volume": (1, 2, [(1,), (1,), ()], ()),
}


class TestApplyPlan:
    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    @pytest.mark.parametrize("adjoint", [False, True], ids=["plan", "adjoint_plan"])
    def test_matches_dense_oracle(self, case, adjoint):
        n, d, supports, product_form = PLAN_CASES[case]
        rng = np.random.default_rng(sorted(PLAN_CASES).index(case) + 70)
        s = random_sum(rng, supports, d, product_form)
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        dense = st.dense_matrix(s, n)
        want = (dense.conj().T if adjoint else dense) @ v
        _, got = compiled_apply(s, v, n, adjoint)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    @pytest.mark.parametrize("phase", [1, 1j], ids=["self_adjoint", "anti_self_adjoint"])
    def test_hermitian_plan_matches_dense_oracle(self, case, phase):
        n, d, supports, product_form = PLAN_CASES[case]
        rng = np.random.default_rng(sorted(PLAN_CASES).index(case) + 90)
        s = random_hermitian_sum(rng, supports, d, product_form).scale(phase)
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        want = st.dense_matrix(s, n) @ v
        plan, got = compiled_apply(s, v, n)
        assert localops._hermitian_phase(plan) == phase
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_non_hermitian_plan_has_no_phase(self):
        n, d, supports, product_form = PLAN_CASES["bonds_wrap_product"]
        s = random_sum(np.random.default_rng(83), supports, d, product_form)
        plan, _ = compiled_apply(s, np.ones(d**n, dtype=complex), n)
        assert localops._hermitian_phase(plan) is None

    def test_terms_on_one_support_merge(self):
        s = random_sum(np.random.default_rng(80), [(9, 10)] * 3 + [(4,)] * 2)
        plan, _ = compiled_apply(s, np.ones(2**10, dtype=complex), 10)
        assert sorted(len(chain) for chain in plan) == [1, 1]

    def test_neighbours_pack_into_windows(self):
        # one-site terms on 7 qubit sites fill ceil(7 / sites per window) windows
        per = localops._WINDOW_DIM.bit_length() - 1
        s = random_sum(np.random.default_rng(81), [(x,) for x in range(1, 8)])
        plan, _ = compiled_apply(s, np.ones(2**7, dtype=complex), 7)
        assert [len(chain) for chain in plan] == [1] * -(-7 // per)

    def test_long_product_kept_as_chain(self):
        s = random_sum(
            np.random.default_rng(82), [tuple(range(1, 9)), (4,)], product_form=[tuple(range(1, 9))]
        )
        plan, _ = compiled_apply(s, np.ones(2**8, dtype=complex), 8)
        assert sorted(len(chain) for chain in plan) == [1, 8]


class TestNorm:
    def test_identity_iterative(self):
        assert st.norm(st.from_site_factors({}).as_sum(), 10, "iterative").value == 1.0

    def test_identity_multiples_iterative(self):
        # two terms with empty support compact onto no sites at all
        one = st.local_operator([[1.0]], ())
        s = st.OperatorSum(2, ((1.0 + 0j, one), (2.0 + 0j, one)))
        assert st.norm(s, 3, "iterative").value == pytest.approx(3.0, rel=1e-14)

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
        "average",
        [rotated_sigma1_sigma1_average, real_two_site_average, tiny_rotated_sigma1_sigma1_average],
    )
    def test_auto_routes_on_compacted_dimension(self, average):
        seq = average(np.random.default_rng(41))
        # the crossover of the seed's dtype: real when no entry has an imaginary part
        real = not np.any(st.dense_matrix(seq.eval(2), 2).imag)
        crossover = localops._AUTO_DENSE_DIM_REAL if real else localops._AUTO_DENSE_DIM_COMPLEX
        top = crossover.bit_length() - 1  # qubit sites at the crossover
        for n in (top - 2, top):  # at or below the crossover
            s = seq.eval(n)
            assert st.norm(s, n) == st.norm(s, n, "dense")
        for n in (top + 1, top + 2):  # above it
            s = seq.eval(n)
            auto = st.norm(s, n)
            assert auto == st.norm(s, n, "iterative") and auto.iterations > 0
            assert auto.value == pytest.approx(st.norm(s, n, "dense").value, rel=1e-12, abs=0)

    def test_dense_cap_below_crossover_wins(self):
        # dimension 2^n is below the (complex) crossover but above the cap
        n = localops._AUTO_DENSE_DIM_COMPLEX.bit_length() - 2
        s = rotated_sigma1_sigma1_average(np.random.default_rng(42)).eval(n)
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
        # about gap times the bound sum |w| ||op||, and the dilation's first
        # apply sees only a random Rayleigh quotient of it
        rng = np.random.default_rng(43)
        u, v = (np.linalg.qr(random_complex(rng, 2))[0] for _ in range(2))
        a, b = (
            st.GammaSeq.from_seed(st.local_operator(m, (1,))).eval(10) for m in (u, u + gap * v)
        )
        s = st.operator_sum(list(a.terms) + [(-w, op) for w, op in b.terms])
        res = st.norm(s, 10, "iterative")
        assert res.converged and res.iterations > 1
        # the dilation carries the rounding of a and a*, about eps / gap
        # relative to its norm
        assert res.value == pytest.approx(st.norm(s, 10, "dense").value, rel=1e-9 + 1e-15 / gap)

    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7])
    def test_hermitian_stop_relative_to_cancelled_norm(self, gap):
        # the same cancellation between Hermitian seeds, so the kernel runs on a
        rng = np.random.default_rng(46)
        h, k = random_hermitian(rng, 2), random_hermitian(rng, 2)
        a, b = (
            st.GammaSeq.from_seed(st.local_operator(m, (1,))).eval(10) for m in (h, h + gap * k)
        )
        s = st.operator_sum(list(a.terms) + [(-w, op) for w, op in b.terms])
        res, plans = norm_and_plans(s, 10)
        assert plans == 1 and res.converged and res.iterations > 1
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
        # Rayleigh quotient convincingly below the true norm; the iterative
        # norm must either resolve the cluster or flag non-convergence
        d1 = np.diag([1.0, 1.0 - 1e-6, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01]).astype(complex)
        d2 = np.diag([0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        s = st.operator_sum(
            [(1.0, st.local_operator(d1, (1, 2, 3))), (1.0, st.local_operator(d2, (1, 2, 3)))]
        )
        dense = st.norm(s, 3, "dense").value
        res = st.norm(s, 3, "iterative")
        assert (not res.converged) or abs(res.value - dense) <= 1e-8

    def test_no_silent_wrong_answer_on_tight_cluster_gram(self):
        # the same singular values on a non-Hermitian sum, which runs on the dilation
        d1 = np.diag([1.0, 1.0 - 1e-6, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01]).astype(complex)
        d2 = np.diag([0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        s = st.operator_sum(
            [(1.0, st.local_operator(right_cyclic(d), (1, 2, 3))) for d in (d1, d2)]
        )
        dense = st.norm(s, 3, "dense").value
        res, plans = norm_and_plans(s, 3)
        assert plans == 2
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

    def test_near_degenerate_top_pair_gram(self):
        # the sum of the test above times the unitary (cyclic on sites 1..10) x I,
        # which keeps its singular values and takes it off the self-adjoint route
        rng = np.random.default_rng(37)
        diag = np.concatenate([[1.0, 1.0 - 1e-7], rng.uniform(0.0, 0.99, 1022)])
        h = random_hermitian(rng, 2)
        sites = tuple(range(1, 11))
        cyclic = st.local_operator(right_cyclic(np.eye(1024)), sites)
        s = st.operator_sum(
            [
                (1.0, st.local_operator(right_cyclic(np.diag(diag).astype(complex)), sites)),
                (1e-3, st.product(cyclic, st.local_operator(h, (11,)))),
            ]
        )
        res, plans = norm_and_plans(s, 11)
        assert plans == 2 and res.converged
        exact = 1.0 + 1e-3 * np.linalg.eigvalsh(h)[-1]
        assert res.value == pytest.approx(exact, rel=1e-9, abs=0)

    @pytest.mark.parametrize("n", [12, 13])
    def test_restarted_basis_keeps_top_value(self, monkeypatch, n):
        # a basis of 12 restarts several times; testing convergence before
        # the row a restart carries over is applied returns the second value 11/13
        monkeypatch.setattr(localops, "ITERATIVE_BASIS", 12)
        seq = rotated_sigma3_average(np.random.default_rng(38))
        res = st.norm(seq.eval(n), n, "iterative")
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [12, 13])
    def test_restarted_basis_keeps_top_value_gram(self, monkeypatch, n):
        # seed u sigma3 V u* with V = diag(1, exp(i pi / 3)): a normal, non-Hermitian
        # average whose norm is still 1, reached when every site takes eigenvalue 1
        monkeypatch.setattr(localops, "ITERATIVE_BASIS", 12)
        u, _ = np.linalg.qr(random_complex(np.random.default_rng(38), 2))
        seed = u @ SZ @ np.diag([1.0, np.exp(1j * np.pi / 3)]) @ u.conj().T
        seq = st.GammaSeq.from_seed(st.local_operator(seed, (1,)))
        res, plans = norm_and_plans(seq.eval(n), n)
        assert plans == 2 and res.converged and res.iterations > 12
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

    def test_space_smaller_than_basis(self):
        # dimension 2: one vector and its image span the space on a, and on
        # the dilation (norm 1 + |c| for c = 0.7j) the basis is cut to its 4
        # states
        for c, plans, expected in [(0.7, 1, np.sqrt(1.49)), (0.7j, 2, 1.7)]:
            s = st.operator_sum([(1.0, st.pauli_at(1, 1)), (c, st.pauli_at(3, 1))])
            res, compiled = norm_and_plans(s, 1)
            assert compiled == plans and res.converged
            assert res.value == pytest.approx(expected, rel=1e-12)

    def test_other_end_must_converge_or_be_bounded(self):
        # the isolated top eigenvalue 1 converges within a few applies while the
        # bottom Ritz value is still resolving a cluster that reaches -(1 + 1e-5):
        # stopping on the top end alone would return 1
        diag = np.concatenate(
            [[1.0], -(1.0 + 1e-5) + 1e-4 * np.arange(100), np.linspace(-0.5, 0.5, 200)]
        )
        value, converged, applies = localops._power_iteration_norm(
            lambda v: diag * v, len(diag), np.random.default_rng(0)
        )
        assert converged and applies > localops.ITERATIVE_BASIS
        assert value == pytest.approx(1.0 + 1e-5, rel=1e-9)

    def test_iterations_count_applies(self, monkeypatch):
        calls = []
        kernel = localops._power_iteration_norm

        def counted(apply, dim, *args):
            return kernel(lambda v: calls.append(1) or apply(v), dim, *args)

        monkeypatch.setattr(localops, "_power_iteration_norm", counted)
        res = st.norm(rotated_sigma3_average(np.random.default_rng(40)).eval(9), 9, "iterative")
        assert res.converged and res.iterations == len(calls) > 0

    def test_plan_compiled_once_per_norm(self, monkeypatch):
        compiled, applies = [], []
        compile_plan, kernel = localops._compile_plan, localops._power_iteration_norm

        def counted(apply, dim, *args):
            return kernel(lambda v: applies.append(1) or apply(v), dim, *args)

        monkeypatch.setattr(
            localops, "_compile_plan", lambda *args: compiled.append(1) or compile_plan(*args)
        )
        monkeypatch.setattr(localops, "_power_iteration_norm", counted)
        # one plan for a Hermitian a, one for a real anti-self-adjoint a, whose
        # float plan turns complex for i a, or one for a and one for a* on the
        # dilation, however many times the kernel applies it
        real = real_two_site_average(np.random.default_rng(45)).eval(9)
        sigma1 = st.GammaSeq.from_seed(st.pauli_at(1, 1)).eval(9)
        cases = [
            (real, 1),
            (st.sum_commutator(real, sigma1), 1),
            (random_two_site_average(np.random.default_rng(45)).eval(9), 2),
        ]
        for s, plans in cases:
            compiled.clear()
            applies.clear()
            res = st.norm(s, 9, "iterative")
            assert res.converged and len(applies) > 2 and len(compiled) == plans

    def test_state_cap_named(self, monkeypatch):
        monkeypatch.setattr(localops, "ITERATIVE_STATE_CAP", 64)
        # four one-site terms of a real sum compact to dimension 16, 128 bytes
        # of float64, above the cap
        s = st.operator_sum([(1.0, st.pauli_at(1, x)) for x in range(1, 5)])
        with pytest.raises(CapacityError, match=r"16 \(128 bytes\), above the cap of 64 bytes"):
            st.norm(s, 4, "iterative")
        # the cap bounds the bytes of the kernel's vector: dim amplitudes on a
        # self-adjoint sum, and 2 dim on the dilation of any other
        monkeypatch.setattr(localops, "ITERATIVE_STATE_CAP", 128)
        assert st.norm(s, 4, "iterative").converged
        with pytest.raises(CapacityError, match=r"length 32 \(512 bytes\), above the cap of 128"):
            st.norm(s.scale(1 + 1j), 4, "iterative")

    def test_real_sum_reaches_twice_the_complex_dimension(self, monkeypatch):
        # 256 bytes hold 16 complex amplitudes or 32 float64 ones
        monkeypatch.setattr(localops, "ITERATIVE_STATE_CAP", 256)
        sigma1, sigma2 = ([(1.0, st.pauli_at(k, x)) for x in range(1, 6)] for k in (1, 2))
        real, hermitian = st.operator_sum(sigma1), st.operator_sum(sigma2)
        assert st.norm(real, 5, "iterative").value == pytest.approx(5.0, rel=1e-12)
        with pytest.raises(CapacityError, match=r"length 32 \(512 bytes\), above the cap of 256"):
            st.norm(hermitian, 5, "iterative")
        assert st.norm(st.operator_sum(sigma2[:4]), 4, "iterative").converged
        # on the dilation, 2 dim amplitudes: a real sum fits at dimension 16
        # and a complex one does not
        raising = st.operator_sum(
            [(1.0, st.local_operator([[0, 1.0], [0, 0]], (x,))) for x in range(1, 5)]
        )
        res = st.norm(raising, 4, "iterative")
        assert res.converged and res.value == pytest.approx(st.norm(raising, 4, "dense").value)
        with pytest.raises(CapacityError, match="above the cap of 256 bytes"):
            st.norm(raising.scale(1j), 4, "iterative")

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


FLOAT, COMPLEX = np.dtype(float), np.dtype(complex)


def norm_and_basis_dtypes(s, n):
    """The iterative norm of ``s`` and the dtypes of the Krylov bases that
    ``_cgs2`` orthogonalized against."""
    seen, cgs2 = set(), localops._cgs2

    def spy(basis, w):
        seen.add(basis.dtype)
        return cgs2(basis, w)

    with mock.patch.object(localops, "_cgs2", spy):
        res = st.norm(s, n, "iterative")
    return res, seen


class TestRealArithmetic:
    """A real sum, every weight, scalar and block of which has an exactly zero
    imaginary part, runs Lanczos in float64 on ``a`` and on the dilation; ``i a``
    and every complex sum stay complex."""

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_real_symmetric_sum_runs_in_float64(self, n):
        s = real_two_site_average(np.random.default_rng(41)).eval(n)
        res, dtypes = norm_and_basis_dtypes(s, n)
        assert res.converged and dtypes == {FLOAT}
        assert res.value == pytest.approx(st.norm(s, n, "dense").value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_complex_sums_stay_complex(self, n):
        real = real_two_site_average(np.random.default_rng(41)).eval(n)
        sigma1 = st.GammaSeq.from_seed(st.pauli_at(1, 1)).eval(n)
        cases = [
            rotated_sigma3_average(np.random.default_rng(41)).eval(n),  # complex entries, on a
            real.scale(1j),  # on i a
            st.sum_commutator(real, sigma1),  # real, but antisymmetric: on i a
        ]
        for s in cases:
            res, dtypes = norm_and_basis_dtypes(s, n)
            assert res.converged and dtypes == {COMPLEX}
            if n < 11:  # a complex dense eigensolve at dimension 2048 takes seconds
                assert res.value == pytest.approx(st.norm(s, n, "dense").value, rel=1e-12, abs=0)

    def test_real_dilation_runs_in_float64(self):
        seed = st.local_operator(np.random.default_rng(48).normal(size=(4, 4)), (1, 2))
        s = st.GammaSeq.from_seed(seed).eval(10)
        (res, dtypes), (_, plans) = norm_and_basis_dtypes(s, 10), norm_and_plans(s, 10)
        assert plans == 2 and res.converged and dtypes == {FLOAT}
        assert res.value == pytest.approx(st.norm(s, 10, "dense").value, rel=1e-12, abs=0)

    def test_plan_steps_take_the_kernel_dtype(self, monkeypatch):
        # every step matrix of every plan the kernel runs (a, i a, or a and a*
        # on the dilation) has the kernel's dtype: float64 for a real sum off
        # the i a route, complex otherwise
        seen, run_plan = set(), localops._run_plan

        def spy(plan, *args):
            seen.update(step.matrix.dtype for chain in plan for step in chain)
            return run_plan(plan, *args)

        monkeypatch.setattr(localops, "_run_plan", spy)
        flip = np.array([[0, 1.0], [-1.0, 0]])  # real antisymmetric
        pair = st.GammaSeq.from_seed(st.from_site_factors({1: st.pauli(1), 2: st.pauli(1)}))
        sigma3 = st.GammaSeq.from_seed(st.pauli_at(3, 1)).eval(9)
        real = real_two_site_average(np.random.default_rng(41)).eval(9)
        sigma1 = st.GammaSeq.from_seed(st.pauli_at(1, 1)).eval(9)
        antisymmetric_chains = st.operator_sum([
            (1.0, st.product(st.local_operator(flip, (1,)), st.pauli_at(1, 5))),
            (0.5, st.product(st.local_operator(flip, (2,)), st.pauli_at(3, 6))),
            (0.3, st.local_operator(flip, (3,))),
            (0.2, st.local_operator(flip, (4,))),
        ])
        cases = [
            (real, FLOAT),  # on a
            (pair.eval(9), FLOAT),  # on a, with two-step chains
            (st.sum_commutator(pair.eval(9), sigma3), FLOAT),  # on the dilation
            (st.sum_commutator(real, sigma1), COMPLEX),  # real, on i a
            (antisymmetric_chains, COMPLEX),  # real, on i a, with two-step chains
            (rotated_sigma3_average(np.random.default_rng(41)).eval(9), COMPLEX),  # on a
            (random_two_site_average(np.random.default_rng(41)).eval(9), COMPLEX),  # dilation
        ]
        for s, dtype in cases:
            seen.clear()
            res = st.norm(s, 9, "iterative")
            assert res.converged and seen == {dtype}
            assert res.value == pytest.approx(st.norm(s, 9, "dense").value, rel=1e-12, abs=0)

    def test_auto_crossover_follows_dtype(self):
        # dimension 128 is above the complex crossover, 256 at the real one
        complex_sum = rotated_sigma1_sigma1_average(np.random.default_rng(41)).eval(7)
        assert st.norm(complex_sum, 7).iterations > 0
        real_sum = real_two_site_average(np.random.default_rng(41)).eval(8)
        assert st.norm(real_sum, 8).iterations == 0

    def test_real_assembly_is_the_complex_real_part(self):
        # so the dense route of a real sum gives the same value, bit for bit
        rng = np.random.default_rng(49)
        product = st.from_site_factors({x: rng.normal(size=(2, 2)) for x in (1, 3, 6)})
        s = real_two_site_average(rng).eval(6) + st.operator_sum([(0.3, product)])
        terms = [(w, op.scalar, op.blocks) for w, op in s.terms]
        sites = tuple(range(1, 7))
        full = localops._assemble(terms, sites, 2, st.DENSE_DIM_CAP)
        real = localops._assemble(terms, sites, 2, st.DENSE_DIM_CAP, float)
        assert real.dtype == FLOAT and not np.any(full.imag)
        assert np.array_equal(real, full.real)
        with mock.patch.object(
            localops, "operator_norm_dense", wraps=localops.operator_norm_dense
        ) as spy:
            value = st.norm(s, 6, "dense").value
        assert spy.call_args.args[0].dtype == FLOAT
        assert value == st.operator_norm_dense(full)


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
        blocks = st.product(random_block_op(rng, (1, 4)), random_block_op(rng, (2,)))
        op = st.product(st.local_operator(np.array([[0.5j]]), ()), blocks)
        assert op.scalar == 0.5j
        assert np.array_equal(
            st.dense_matrix(op, 5), kron_term_dense(op.scalar, op.blocks, tuple(range(1, 6)), 2)
        )

    @pytest.mark.parametrize("d, sites", [(2, (2, 3, 5, 7)), (3, (1, 3, 4, 6))])
    def test_bit_exact_on_sites_with_gaps(self, d, sites):
        # the sites themselves, not {1..m}, as an overlap component is densified;
        # the first and last site make a bond over the gaps, and a run covers
        # the second and fourth
        rng = np.random.default_rng(38)
        factor = localops._read_only(random_complex(rng, d))
        step = sites[3] - sites[1]
        run = localops._sitewise(factor, [range(sites[1], sites[3] + 1, step)])
        run = localops.LocalOperator(d, 0.5j, (run,))
        assert run.support == sites[1::2] and run.blocks[0].count == 2
        for _ in range(3):
            s = random_mixed_sum(rng, d, sites) + st.operator_sum([(0.3 - 1j, run)], d)
            terms = [(w, op.scalar, op.blocks) for w, op in s.terms]
            got = localops._assemble(terms, sites, d, st.DENSE_DIM_CAP)
            assert np.array_equal(got, per_term_kron_sum(s.terms, sites, d))


def _ranges_site_by_site(sites) -> tuple[range, ...]:
    """The ranges' normal form one site at a time: a site extends the last range
    when that holds one site or the site is one step past it."""
    out = []
    for s in sites:
        if out and (len(out[-1]) == 1 or s - out[-1][-1] == out[-1].step):
            out[-1] = range(out[-1].start, s + 1, s - out[-1][-1])
        else:
            out.append(range(s, s + 1))
    return tuple(out)


def test_range_normal_form_is_the_site_rule():
    # brute force: every ascending set of sites in 1..8, split every way into
    # consecutive progressions, with empty ranges around them
    for mask in range(1, 2**8):
        sites = [s for s in range(1, 9) if mask >> (s - 1) & 1]
        want = _ranges_site_by_site(sites)
        for cuts in itertools.product((False, True), repeat=len(sites) - 1):
            bounds = [0] + [i for i, cut in enumerate(cuts, 1) if cut] + [len(sites)]
            chunks = [sites[a:b] for a, b in zip(bounds, bounds[1:])]
            if any(len(set(np.diff(c))) > 1 for c in chunks):
                continue
            ranges = [range(c[0], c[-1] + 1, c[1] - c[0] if len(c) > 1 else 1) for c in chunks]
            got = localops._ranges([range(0), *ranges, range(9, 9)])
            assert [tuple(r) for r in got] == [tuple(r) for r in want], ranges


# every nonempty range of sites in 1..12 with step 1..4, one per set of sites
SMALL_RANGES = list({tuple(r): r for s in range(1, 5) for a in range(1, 13)
                     for r in (range(a, b + 1, s) for b in range(a, 13))}.values())


def _site_sets(rng, count):
    """``count`` random nonempty sets of sites in 1..12, each as its ascending normal form."""
    out = []
    while len(out) < count:
        sites = [x for x in range(1, 13) if rng.random() < 0.5]
        if sites:
            out.append(_ranges_site_by_site(sites))
    return out


def _as_tuples(ranges):
    return [tuple(r) for r in ranges]


def test_cut_against_sets():
    for r in SMALL_RANGES:
        for site in range(0, 15):
            below, rest = localops._cut(r, site)
            assert list(below) == [x for x in r if x < site]
            assert list(rest) == [x for x in r if x >= site]


def test_meet_against_sets():
    for r, q in itertools.product(SMALL_RANGES, repeat=2):
        common = localops._meet(r, q)
        assert set(common) == set(r) & set(q), (r, q)
        assert _as_tuples(localops._ranges([common])) == _as_tuples(filter(None, [common]))


def test_split_against_sets():
    # one range by one range, every pair; then random normal forms by random normal forms
    rng = np.random.default_rng(31)
    sets = _site_sets(rng, 300)
    cases = [((r,), (q,)) for r, q in itertools.product(SMALL_RANGES, repeat=2)]
    cases += list(zip(sets, sets[1:]))
    for ranges, by in cases:
        sites, held = set(itertools.chain(*ranges)), set(itertools.chain(*by))
        inside, outside = localops._split(ranges, by)
        assert _as_tuples(inside) == _as_tuples(_ranges_site_by_site(sorted(sites & held)))
        assert _as_tuples(outside) == _as_tuples(_ranges_site_by_site(sorted(sites - held)))


def _run_op(ranges, matrix=SX):
    return localops.LocalOperator(2, 1 + 0j, (localops._sitewise(matrix, ranges),))


def test_shifted_runs_land_in_normal_form():
    # every cyclic shift of every run on sites in 1..12, within every volume that holds it
    rng = np.random.default_rng(32)
    runs = [(r,) for r in SMALL_RANGES if len(r) > 1]
    runs += [s for s in _site_sets(rng, 200) if sum(map(len, s)) > 1]
    for ranges in runs:
        sites = list(itertools.chain(*ranges))
        for n in range(sites[-1], 13):
            for j in range(n):
                (moved,) = st.gamma_pow(_run_op(ranges), n, j).blocks
                want = _ranges_site_by_site(sorted((x - 1 - j) % n + 1 for x in sites))
                assert _as_tuples(moved.ranges) == _as_tuples(want), (ranges, n, j)


def test_compacted_runs_land_in_normal_form():
    # a run next to a block: compaction moves each maximal block of consecutive
    # support sites as one piece, onto the ranks of its sites
    rng = np.random.default_rng(33)
    runs = [s for s in _site_sets(rng, 300) if sum(map(len, s)) > 1]
    for ranges, other in zip(runs, rng.integers(1, 16, size=len(runs))):
        sites = list(itertools.chain(*ranges))
        if other in sites:
            continue
        s = st.operator_sum([(1.0, _run_op(ranges)), (1.0, st.pauli_at(3, int(other)))])
        rank = {x: i + 1 for i, x in enumerate(s.support)}
        terms, m = localops._compact_terms(s)
        assert m == len(rank)
        (run,) = [b for _, op in terms for b in op.blocks if isinstance(b, localops.Run)]
        want = _ranges_site_by_site([rank[x] for x in sites])
        assert _as_tuples(run.ranges) == _as_tuples(want), (ranges, other)


def test_refusals_past_the_decimal_digit_limit_are_fast():
    # Python will not write an int of more than 4300 digits in decimal
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match=r"dimension 2\*\*20000 exceeds cap 4096"):
        st.dense_matrix(st.pauli_at(1, 1), 20000)
    s = st.UniformProduct(SX).eval(20000) + st.UniformProduct(SZ).eval(20000)
    with mock.patch.object(localops, "_compile_plan", side_effect=AssertionError("compiled")):
        with mock.patch.object(localops, "_norm_bound", side_effect=AssertionError("bounded")):
            with pytest.raises(CapacityError, match=r"length 2\*\*20000 \(8 \* 2\*\*20000 bytes\)"):
                st.norm(s, 20000)
    assert time.perf_counter() - t0 < 1


def test_a_sum_of_products_is_refused_without_listing_a_site(monkeypatch):
    # one term's records bound the compacted size from below, so a sum no route
    # holds is refused before its union support is listed
    def walked(self):
        raise AssertionError("a run's sites were walked")

    monkeypatch.setattr(localops.Run, "each_site", walked)
    n = 10**30
    s = st.UniformProduct(SX).eval(n) + st.UniformProduct(SZ).eval(n)
    iterative = rf"length 2\*\*{n} \(8 \* 2\*\*{n} bytes\)"
    t0 = time.perf_counter()
    for method, refusal in [("auto", iterative), ("iterative", iterative),
                            ("dense", rf"dimension 2\*\*{n} exceeds cap 4096")]:
        with pytest.raises(CapacityError, match=refusal):
            st.norm(s, n, method)
    assert time.perf_counter() - t0 < 1


@st_h.composite
def decoupled_sums(draw):
    """``(s, n)``: 2-4 groups of 1-3 adjacent sites, one or two sites apart, ending at N <= 10.
    Each group holds a random block on all its sites and one on its first site,
    real or complex, and all are self-adjoint or all anti-self-adjoint."""
    widths = draw(st_h.lists(st_h.integers(1, 3), min_size=2, max_size=4)
                  .filter(lambda ws: sum(ws) + len(ws) - 1 <= 10))
    gaps = draw(st_h.lists(st_h.integers(1, 2), min_size=len(widths) - 1,
                           max_size=len(widths) - 1))
    if sum(widths) + sum(gaps) > 10:
        gaps = [1] * len(gaps)
    real, phase = draw(st_h.booleans()), draw(st_h.sampled_from([1, 1j]))
    rng = np.random.default_rng(draw(st_h.integers(0, 2**32 - 1)))

    def block(sites):
        dim = 2 ** len(sites)
        m = rng.normal(size=(dim, dim)) if real else random_complex(rng, dim)
        m = m + m.conj().T if phase == 1 else m - m.conj().T
        return st.local_operator(m, sites)

    terms, first = [], draw(st_h.integers(1, 11 - sum(widths) - sum(gaps)))
    for width, gap in zip(widths, gaps + [0]):
        sites = tuple(range(first, first + width))
        terms += [(rng.normal(), block(sites)), (rng.normal(), block(sites[:1]))]
        first += width + gap
    return st.operator_sum(terms), first - 1


def fallback_sums():
    """``name -> (s, n)``: complex sums that are not Kronecker sums of two or more groups
    that are self-adjoint up to one shared phase, each with at least two terms on sites."""
    rng = np.random.default_rng(63)
    hermitian = [st.local_operator(random_hermitian(rng, 2), (x,)) for x in (1, 5)]
    sigma_plus = st.local_operator(np.array([[0, 1], [0, 0]]), (3,))
    wrap = st.from_site_factors({1: random_hermitian(rng, 2), 8: random_hermitian(rng, 2)})
    wide = st.local_operator(random_hermitian(rng, 2**7), tuple(range(1, 8)))
    anti = st.local_operator(1j * random_hermitian(rng, 2), (5,))
    bond = st.local_operator(random_hermitian(rng, 4), (1, 2))
    one = st.local_operator([[1.0]], ())
    return {
        "sigma_plus": (st.operator_sum([(0.5, hermitian[0]), (0.7, sigma_plus)]), 3),
        "no_site": (st.operator_sum([(0.5, hermitian[0]), (0.7, hermitian[1]), (0.2, one)]), 5),
        "wrap_bond": (st.operator_sum(
            [(0.5, wrap)] + [(0.1, st.pauli_at(3, x)) for x in range(2, 8)]), 8),
        "above_crossover": (st.operator_sum([(0.5, wide), (0.7, st.pauli_at(1, 9))]), 9),
        "mixed_phases": (st.operator_sum([(0.5, hermitian[0]), (0.7, anti)]), 5),
        "one_group": (st.operator_sum([(0.5, hermitian[0]), (0.7, bond)]), 3),
    }


class TestDecoupledNorm:
    """``auto``'s route for a sum of groups on disjoint sites (a Kronecker sum)."""

    @settings(max_examples=60, deadline=None)
    @given(decoupled_sums())
    def test_matches_dense(self, case):
        s, n = case
        # neither the dense eigensolve nor the Krylov kernel runs
        with mock.patch.object(localops, "operator_norm_dense", side_effect=AssertionError):
            auto = st.norm(s, n)
        assert auto.converged and auto.iterations == 0
        assert auto.value == pytest.approx(st.norm(s, n, "dense").value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [64, 10**4])
    def test_rotated_sigma3_average_past_every_cap(self, n):
        s = rotated_sigma3_average(np.random.default_rng(62)).eval(n)
        res = st.norm(s, n)
        assert res.converged and res.iterations == 0
        assert res.value == pytest.approx(1.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", sorted(fallback_sums()))
    def test_fallbacks_keep_the_router(self, name):
        s, n = fallback_sums()[name]
        m = len(s.support) or 1
        route = "dense" if 2**m <= localops._AUTO_DENSE_DIM_COMPLEX else "iterative"
        with mock.patch.object(
            localops, "operator_norm_dense", wraps=localops.operator_norm_dense
        ) as spy:
            auto = st.norm(s, n)
        assert spy.called == (route == "dense")
        routed = st.norm(s, n, route)
        assert auto == routed and auto.iterations == routed.iterations
        assert (auto.iterations > 0) == (route == "iterative")


class TestKron:
    """The broadcast Kronecker product the assembler and the apply plan use."""

    @pytest.mark.parametrize("left, right", [((2, 2), (2, 2)), ((4, 4), (2, 2)),
                                             ((2, 3), (3, 1)), ((1, 4), (5, 2))])
    @pytest.mark.parametrize("dtypes", [(float, float), (complex, complex),
                                        (complex, float), (float, complex)])
    def test_bit_exact_against_numpy(self, left, right, dtypes):
        rng = np.random.default_rng(39)

        def draw(shape, dtype):
            out = rng.normal(size=shape)
            return out + 1j * rng.normal(size=shape) if dtype is complex else out

        a, b = draw(left, dtypes[0]), draw(right, dtypes[1])
        got = localops._kron(a, b)
        assert got.dtype == np.kron(a, b).dtype
        assert np.array_equal(got, np.kron(a, b))

    def test_unit_and_identity(self):
        m = random_complex(np.random.default_rng(40), 4)
        for a, b in ((localops._ONE, m), (m, localops._ONE), (m, np.eye(3)), (m.real, np.eye(2))):
            assert np.array_equal(localops._kron(a, b), np.kron(a, b))


class TestNormBound:
    """The Krylov scale's bound against its definition: sum |w| ||op||, each
    term's exact norm, or with a block above ``dense_cap`` the product of the
    Frobenius norms of all its blocks."""

    @staticmethod
    def by_definition(terms, dense_cap):
        total = 0.0
        for w, op in terms:
            if localops._fits(op, dense_cap):
                total += abs(w) * op.norm_exact(dense_cap)
            else:
                total += abs(w * op.scalar) * float(
                    np.prod([np.linalg.norm(b.matrix) ** b.count for b in op.blocks])
                )
        return total

    @staticmethod
    def bound(terms, dense_cap=st.DENSE_DIM_CAP):
        # outside any dense eigensolve, which the benchmark's tracer reads as the dense route
        with mock.patch.object(localops, "operator_norm_dense", side_effect=AssertionError):
            return localops._norm_bound(terms, dense_cap)

    def sums(self):
        rng = np.random.default_rng(43)
        contraction = random_complex(rng, 2) / 3
        runs = st.operator_sum([
            (2 - 1j, st.UniformProduct(contraction).eval(6).terms[0][1]),
            (0.5j, st.ParityProduct(contraction, st.pauli(3)).eval(7).terms[0][1]),
        ])
        assert max(b.count for _, op in runs.terms for b in op.blocks) > 1
        return {
            "shift average": rotated_sigma3_average(rng).eval(9),
            "two-site average": random_two_site_average(rng).eval(7),
            "multi-block": random_mixed_sum(rng, 2, (1, 2, 4, 5, 6)),
            "runs": runs,
            "d = 3": random_mixed_sum(rng, 3, (1, 2, 3, 5)),
        }

    def test_equals_sum_of_exact_term_norms(self):
        sums = self.sums()
        assert all(any(w.imag for w, _ in sums[k].terms) for k in ("multi-block", "runs", "d = 3"))
        for label, s in sums.items():
            want = self.by_definition(s.terms, st.DENSE_DIM_CAP)
            assert self.bound(s.terms) == pytest.approx(want, rel=1e-12, abs=0), label

    def test_block_above_dense_cap_counts_frobenius(self):
        rng = np.random.default_rng(44)
        big = st.product(random_block_op(rng, (1, 2)), random_block_op(rng, (4,)))
        s = st.operator_sum([(1.5j, big), (0.7, random_block_op(rng, (3,)))])
        want = self.by_definition(s.terms, 2)
        assert self.bound(s.terms, 2) == pytest.approx(want, rel=1e-12, abs=0)
        # both blocks of the large term by Frobenius, which exceeds the 2-norm here
        frobenius = abs(1.5j * big.scalar) * np.prod([np.linalg.norm(b.matrix) for b in big.blocks])
        assert want == pytest.approx(frobenius + 0.7 * s.terms[1][1].norm_exact(), rel=1e-12)
        assert want > self.by_definition(s.terms, st.DENSE_DIM_CAP)


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


@settings(max_examples=30, deadline=None)
@given(st_h.integers(0, 2**32 - 1), st_h.sampled_from(["hermitian", "anti_hermitian", "general"]))
def test_iterative_norm_matches_oracle_property(seed, kind):
    # one-site terms on every site, two random bonds and a long two-block
    # product (a chain of its plan), on a basis small enough to restart
    rng = np.random.default_rng(seed)
    n = 6
    bonds = [tuple(sorted(rng.choice(range(1, n + 1), 2, replace=False))) for _ in range(2)]
    supports = [(x,) for x in range(1, n + 1)] + bonds + [(1, n)]
    if kind == "general":
        s = random_sum(rng, supports, product_form=[(1, n)])
        expected_plans = 2
    else:
        s = random_hermitian_sum(rng, supports, product_form=[(1, n)])
        s, expected_plans = (s.scale(1j) if kind == "anti_hermitian" else s), 1
    with mock.patch.object(localops, "ITERATIVE_BASIS", 8):
        res, plans = norm_and_plans(s, n)
    assert plans == expected_plans and res.converged and res.iterations > 8
    assert res.value == pytest.approx(svd_norm(st.dense_matrix(s, n)), rel=1e-9)


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
        made = [a.adjoint(), st.product(a, b), st.commutator(a, b), wrapped]
        made += [op for _, op in compacted]
        for op in made:
            assert op.blocks
            for blk in op.blocks:
                with pytest.raises(ValueError):
                    blk.matrix[0, 0] = 0


def test_every_record_matrix_from_the_public_constructors_is_read_only():
    # each matrix is frozen once where it is made: checked blocks, products,
    # commutators, adjoints, permuted copies, and the factors runs share
    rng = np.random.default_rng(64)
    f, g = random_complex(rng, 2) / 3, random_complex(rng, 2) / 3
    two = random_block_op(rng, (1, 3))
    ops = [two, st.pauli_at(2, 2), st.from_site_factors({1: f, 4: g}), st.gamma_pow(two, 4, 1)]
    for seq in (st.UniformProduct(f), st.ParityProduct(f, g), st.BlockProduct(f, g),
                st.HalfChain(g), st.TranslatedToInfinity(f), st.GammaSeq.from_seed(two)):
        ops += [op for _, op in seq.eval(7).terms]
        ops += [op for _, op in st.SeqAdjoint(seq).eval(7).terms]
    made = []
    for a in ops:
        made += [a.adjoint(), st.gamma_pow(a, 7, 2)]  # a block on (1, 3) wraps to (6, 1)
        for b in ops[:4]:
            made += [st.product(a, b), st.commutator(a, b)]
            made += [op for _, op in st.sum_commutator(a.as_sum(), b.as_sum()).terms]
    assert any(isinstance(blk, localops.Run) for op in made for blk in op.blocks)
    for op in ops + made:
        for blk in op.blocks:
            assert not blk.matrix.flags.writeable, (op, blk)
    assert not st.TranslatedToInfinity(f).site_op.flags.writeable


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
    firsts = [blk.first for blk in op.blocks]
    assert firsts == sorted(firsts)
    sites = [s for sites, _ in factor_copies(op.blocks) for s in sites]
    assert len(sites) == len(set(sites))
    for blk in op.blocks:
        if isinstance(blk, localops.Run):  # nonempty ascending ranges, two sites or more
            assert all(blk.ranges) and blk.count >= 2
            assert all(a[-1] < b[0] for a, b in zip(blk.ranges, blk.ranges[1:]))
            assert blk.matrix.shape == (op.site_dim, op.site_dim)
        else:
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
