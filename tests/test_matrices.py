import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spintail.errors import CapacityError, ContractViolation
from spintail.localops import (
    dense_matrix,
    from_site_factors,
    local_operator,
    pauli_at,
    product,
)
from spintail.matrices import (
    _SELF_ADJOINT_RTOL,
    adjoint,
    operator_norm_dense,
    pauli,
    self_adjoint_phase,
)

from oracles import SX, SY, SZ, svd_norm


class TestPauli:
    def test_identity(self):
        assert np.array_equal(pauli("identity"), np.eye(2))

    def test_pauli3_is_diag(self):
        assert np.array_equal(pauli(3), np.diag([1, -1]).astype(complex))
        assert np.array_equal(pauli(3), adjoint(pauli(3)))
        assert np.array_equal(pauli(3) @ pauli(3), np.eye(2))

    def test_pauli1_squares_to_identity(self):
        assert np.array_equal(pauli(1) @ pauli(1), np.eye(2))

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            pauli(4)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_anticommutation(self, j, k):
        # sigma^j sigma^k + sigma^k sigma^j = 2 delta_jk I, exactly
        a, b = pauli(j), pauli(k)
        anti = a @ b + b @ a
        expected = 2 * np.eye(2) if j == k else np.zeros((2, 2))
        assert np.array_equal(anti, expected)


class TestKron:
    """Dense matrices are Kronecker products with site 1 the most significant factor."""

    def test_identity_case(self):
        assert np.array_equal(dense_matrix(from_site_factors({}), 2), np.eye(4))

    def test_pauli3_with_identity(self):
        # hand expansion of 2x2 (x) 2x2
        assert np.array_equal(
            dense_matrix(pauli_at(3, 1), 2), np.diag([1, 1, -1, -1]).astype(complex)
        )

    def test_pauli1_with_pauli1(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
        both = from_site_factors({1: pauli(1), 2: pauli(1)})
        assert np.array_equal(dense_matrix(both, 2), expected)

    def test_block_structure(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = dense_matrix(product(local_operator(a, (1,)), local_operator(b, (2, 3))), 3)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4], a[i, j] * b)

    def test_left_fold_bit_exact(self):
        rng = np.random.default_rng(5)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        out = dense_matrix(from_site_factors(dict(enumerate(mats, start=1))), 3)
        assert np.array_equal(out, np.kron(np.kron(mats[0], mats[1]), mats[2]))

    def test_bilinearity_exact(self):
        # dyadic entries keep every product representable, so distributivity
        # holds bit-exactly
        rng = np.random.default_rng(7)

        def dyadic():
            return (
                rng.integers(-8, 9, size=(2, 2)) + 1j * rng.integers(-8, 9, size=(2, 2))
            ) / 8.0

        for _ in range(20):
            a, b, c = dyadic(), dyadic(), dyadic()
            out = dense_matrix(from_site_factors({1: a + b, 2: c}), 2)
            assert np.array_equal(out, np.kron(a, c) + np.kron(b, c))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            dense_matrix(pauli_at(1, 7), 7, dim_cap=100)


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_pauli2_self_adjoint(self):
        assert np.array_equal(adjoint(SY), SY)

    def test_scalar_conjugation(self):
        assert np.array_equal(adjoint(2j * SX), -2j * SX)

    def test_involution(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(adjoint(adjoint(a)), a)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm_dense(np.eye(8)) == 1.0

    def test_pauli1(self):
        # singular values of sigma^1 are {1, 1}
        assert operator_norm_dense(SX) == 1.0

    def test_commutator_norm(self):
        # [sigma1, sigma3] = -2i sigma2 by 2x2 brute force
        comm = SX @ SZ - SZ @ SX
        assert np.array_equal(comm, -2j * SY)
        assert operator_norm_dense(comm) == pytest.approx(2.0, abs=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ContractViolation):
            operator_norm_dense(np.ones((2, 3)))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            operator_norm_dense(np.eye(8), dim_cap=4)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert operator_norm_dense(a) == pytest.approx(svd_norm(a), rel=1e-10)

    @pytest.mark.parametrize(
        "kind",
        ["complex hermitian", "real symmetric", "real nonsymmetric", "general complex", "zero", "1x1"],
    )
    def test_every_route_matches_lapack_norm(self, kind):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        a = {
            "complex hermitian": m + m.conj().T,
            "real symmetric": m.real + m.real.T,
            "real nonsymmetric": m.real,
            "general complex": m,
            "zero": np.zeros((8, 8)),
            "1x1": np.array([[-3 + 4j]]),
        }[kind]
        assert operator_norm_dense(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    @pytest.mark.parametrize("skew, gram", [(0.0, False), (1e-9, True)])
    def test_skew_defect_selects_route(self, monkeypatch, skew, gram):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        k = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        a = (m + m.conj().T) + skew * (k - k.conj().T)
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: solved.append(x) or eigvalsh(x))
        value = operator_norm_dense(a)
        assert len(solved) == 1
        assert np.array_equal(solved[0], a.conj().T @ a if gram else a)
        assert value == pytest.approx(svd_norm(a), rel=1e-12)


finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(arrays(np.complex128, (3, 3), elements=finite_complex))
def test_cstar_identity(a):
    # ||a* a|| = ||a||^2 at the matrix level
    lhs = operator_norm_dense(adjoint(a) @ a)
    rhs = operator_norm_dense(a) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.complex128, (2, 2), elements=finite_complex),
    arrays(np.complex128, (4, 4), elements=finite_complex),
)
def test_norm_multiplicative_on_kron(a, b):
    lhs = operator_norm_dense(np.kron(a, b))
    rhs = operator_norm_dense(a) * operator_norm_dense(b)
    assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


def _reference_phase(mats):
    """The phase rule written out: ``p * a`` formed for p = 1, then 1j, and its
    Frobenius defect ``||p a - (p a)*||_F`` taken on the defect times a power of
    two that brings ``max |a_ij|`` near 1 (at most ``2**1000``, for a subnormal
    maximum), divided back, and compared with ``_SELF_ADJOINT_RTOL * max |a_ij|``."""
    for p in (1, 1j):
        ok = True
        for a in mats:
            b = p * a
            amax = np.abs(a).max()
            e = 2.0 ** min(-int(np.frexp(amax)[1]), 1000)
            ok = ok and np.linalg.norm((b - b.conj().T) * e) / e <= _SELF_ADJOINT_RTOL * amax
        if ok:
            return p
    return None


@st.composite
def phase_collections(draw):
    """One to three square matrices of one size n in {1, 2, 4, 8, 16, 64, 200},
    each real or complex, self-adjoint, skew or general, perturbed by 0 to
    1e-12 relative around the 1e-13 threshold and scaled by 1, 1e200, 1e-200
    or 1e-310; a zero matrix joins a quarter of them.  Entries come from a
    drawn numpy seed, so no perturbation lands on the threshold exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 64, 200]))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        real = draw(st.booleans())
        m, k = (rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
                for _ in range(2))
        a = draw(st.sampled_from([m + m.conj().T, m - m.conj().T, m]))
        rel = draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 5e-14, 1e-13, 2e-13, 1e-12]))
        a = a + rel * rng.uniform(0.5, 1.5) * np.abs(a).max() * k
        mats.append(a * draw(st.sampled_from([1.0, 1e200, 1e-200, 1e-310])))
    if draw(st.integers(0, 3)) == 0:
        mats.insert(draw(st.integers(0, len(mats))), np.zeros((n, n)))
    return mats


@settings(max_examples=300, deadline=None)
@given(phase_collections())
def test_self_adjoint_phase_matches_reference(mats):
    assert self_adjoint_phase(mats) == _reference_phase(mats)


def test_self_adjoint_phase_copies_no_matrix():
    # a 1024 x 1024 complex skew matrix holds 16 MB; the scan reads it in
    # tiles, with no phase-scaled copy (the copy alone would be 16 MB)
    rng = np.random.default_rng(16)
    m = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    skew = m - m.conj().T
    tracemalloc.start()
    try:
        phase = self_adjoint_phase([skew])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phase == 1j
    assert peak < skew.nbytes / 4


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0, np.inf), complex(np.nan, 1)])
def test_non_finite_matrix_refused_before_lapack(monkeypatch, entry):
    # 512 x 512 complex is scanned in eight row tiles; the entry sits in the last
    a = np.eye(512, dtype=complex)
    a[500, 3] = entry
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: pytest.fail("LAPACK called"))
    with pytest.raises(ContractViolation, match="finite"):
        operator_norm_dense(a)
    with pytest.raises(ContractViolation, match="finite"):
        self_adjoint_phase([np.eye(512), a])
