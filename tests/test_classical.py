import numpy as np
import pytest

import spintail.classical as cl
from spintail.errors import CapacityError, ContractViolation


def random_trig(rng, sites=(1, 2, 3), n_terms=3):
    out = cl.TrigObservable({})
    for _ in range(n_terms):
        freqs = []
        k = rng.integers(1, min(2, len(sites)) + 1)
        for s in rng.choice(sites, size=k, replace=False):
            freqs.append((int(s), int(rng.integers(-2, 3)), int(rng.integers(-2, 3))))
        amp = rng.normal() + 1j * rng.normal()
        out = out + cl.trig_term(amp, freqs)
    return out


def cyclic_translate(f, j, n):
    """``f`` with every factor moved from site s to ((s - 1 - j) mod n) + 1, term by term."""
    out = cl.TrigObservable({})
    for key, c in f.coeffs.items():
        out = out + cl.trig_term(c, [((s - 1 - j) % n + 1, m, p) for s, m, p in key])
    return out


class TestBracketBasics:
    def test_cos_q_cos_p_bracket(self):
        # {cos q, cos p} = sin q sin p; expand cosines as half-sums of
        # exponentials and compare coefficient maps exactly
        bracket = cl.poisson_bracket(cl.cos_q(1), cl.cos_p(1))
        expected = {
            ((1, 1, 1),): -0.25,
            ((1, 1, -1),): 0.25,
            ((1, -1, 1),): 0.25,
            ((1, -1, -1),): -0.25,
        }
        assert set(bracket.coeffs) == set(expected)
        for key, val in expected.items():
            assert bracket.coeffs[key] == val
        sinsin = cl.sin_q(1) * cl.sin_p(1)
        assert bracket.coeffs == sinsin.coeffs
        assert bracket.l1_norm() == 1.0

    def test_finite_difference_oracle(self):
        # independent check: sample the canonical bracket by central
        # differences on a 32x32 grid of base points
        f = cl.cos_q(1)
        g = cl.cos_p(1)
        bracket = cl.poisson_bracket(f, g)
        h = 1e-6
        grid = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        for q in grid[::4]:
            for p in grid[::4]:
                def ev(obs, qq, pp):
                    return obs.evaluate({(1, "q"): qq, (1, "p"): pp})

                dfdq = (ev(f, q + h, p) - ev(f, q - h, p)) / (2 * h)
                dfdp = (ev(f, q, p + h) - ev(f, q, p - h)) / (2 * h)
                dgdq = (ev(g, q + h, p) - ev(g, q - h, p)) / (2 * h)
                dgdp = (ev(g, q, p + h) - ev(g, q, p - h)) / (2 * h)
                fd = dfdq * dgdp - dfdp * dgdq
                assert ev(bracket, q, p) == pytest.approx(fd, abs=1e-6)

    def test_antisymmetry(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            f = random_trig(rng)
            assert cl.poisson_bracket(f, f).is_zero
            g = random_trig(rng)
            fg = cl.poisson_bracket(f, g)
            gf = cl.poisson_bracket(g, f)
            assert (fg + gf).l1_norm() <= 1e-12

    def test_disjoint_supports_exact_zero(self):
        f = random_trig(np.random.default_rng(71), sites=(1, 2))
        g = random_trig(np.random.default_rng(72), sites=(5,))
        out = cl.poisson_bracket(f, g)
        assert out.coeffs == {}

    def test_jacobi_identity(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            f, g, h = (random_trig(rng, n_terms=2) for _ in range(3))
            total = (
                cl.poisson_bracket(f, cl.poisson_bracket(g, h))
                + cl.poisson_bracket(g, cl.poisson_bracket(h, f))
                + cl.poisson_bracket(h, cl.poisson_bracket(f, g))
            )
            assert total.l1_norm() <= 1e-10

    def test_leibniz(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            f, g, h = (random_trig(rng, n_terms=2) for _ in range(3))
            lhs = cl.poisson_bracket(f * g, h)
            rhs = f * cl.poisson_bracket(g, h) + cl.poisson_bracket(f, h) * g
            assert (lhs - rhs).l1_norm() <= 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(75)
        f, g, h = (random_trig(rng, n_terms=2) for _ in range(3))
        lhs = cl.poisson_bracket(f + g, h)
        rhs = cl.poisson_bracket(f, h) + cl.poisson_bracket(g, h)
        assert (lhs - rhs).l1_norm() <= 1e-12


class TestSupNorm:
    def test_constant(self):
        assert cl.sup_norm_bounds(cl.constant(1.0)) == (1.0, 1.0)

    def test_cos_q(self):
        lower, upper = cl.sup_norm_bounds(cl.cos_q(1), grid_points=64)
        assert upper == 1.0
        assert lower >= 0.995

    def test_sin_sin(self):
        f = cl.sin_q(1) * cl.sin_p(1)
        lower, upper = cl.sup_norm_bounds(f, grid_points=64)
        assert upper == pytest.approx(1.0, abs=1e-15)
        assert lower >= 0.99

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(76)
        for _ in range(5):
            f = random_trig(rng, sites=(1, 2), n_terms=3)
            lower, upper = cl.sup_norm_bounds(f, grid_points=16)
            assert lower <= upper + 1e-12

    def test_grid_cap(self):
        f = cl.cos_q(1) * cl.cos_q(2) * cl.cos_q(3) * cl.cos_q(4)
        with pytest.raises(CapacityError, match="4"):
            cl.sup_norm_bounds(f)

    def test_min_grid(self):
        with pytest.raises(ContractViolation):
            cl.sup_norm_bounds(cl.cos_q(1), grid_points=4)


class TestCyclicAverage:
    def test_unrolled_definition(self):
        avg = cl.cyclic_average_eval(cl.cos_q(1), 4)
        expected = cl.TrigObservable({})
        for j in range(1, 5):
            expected = expected + cl.cos_q(j)
        expected = expected.scale(0.25)
        assert (avg - expected).l1_norm() <= 1e-15

    def test_equals_running_sum_of_translates(self):
        # the running sum of translates is the reference; one dict accumulates
        # the same additions per key in the same order, so values are equal
        rng = np.random.default_rng(81)
        fs = [
            cl.cos_q(1) - cl.cos_q(2) + cl.cos_q(3),
            random_trig(rng, sites=(1, 2), n_terms=3),
            random_trig(rng, sites=(1, 3), n_terms=4),
        ]
        for f in fs:
            for n in (3, 4, 7):
                ref = cl.TrigObservable({})
                for j in range(n):
                    ref = ref + cyclic_translate(f, j, n)
                assert cl.cyclic_average_eval(f, n).coeffs == ref.scale(1.0 / n).coeffs

    def test_l1_preserved(self):
        f = cl.cos_q(1)
        avg = cl.cyclic_average_eval(f, 6)
        assert avg.l1_norm() == pytest.approx(f.l1_norm(), abs=1e-15)

    def test_bracket_with_single_site_probe(self):
        n = 8
        avg = cl.cyclic_average_eval(cl.cos_q(1), n)
        bracket = cl.poisson_bracket(avg, cl.cos_p(1))
        reference = cl.poisson_bracket(cl.cos_q(1), cl.cos_p(1))
        assert bracket.l1_norm() == pytest.approx(reference.l1_norm() / n, abs=1e-15)

    def test_support_violation(self):
        with pytest.raises(ContractViolation):
            cl.cyclic_average_eval(cl.cos_q(5), 3)

    def test_averaging_idempotent(self):
        rng = np.random.default_rng(80)
        for n in (2, 4, 7):
            f = random_trig(rng, sites=(1,), n_terms=2)
            once = cl.cyclic_average_eval(f, n)
            twice = cl.cyclic_average_eval(once, n)
            assert (twice - once).l1_norm() <= 1e-14

    def test_average_is_shift_invariant(self):
        f = cl.cos_q(1) * cl.sin_p(2)
        n = 6
        avg = cl.cyclic_average_eval(f, n)
        shifted = cyclic_translate(avg, 1, n)
        assert (shifted - avg).l1_norm() <= 1e-14


class TestTailSequence:
    def test_shift_arithmetic(self):
        seq = cl.tail_sequence(cl.cos_q(1))
        out = seq.eval(5)
        assert out.support == (6,)
        assert out.coeffs == cl.cos_q(6).coeffs

    def test_brackets_vanish_exactly(self):
        seq = cl.tail_sequence(cl.cos_q(1) * cl.cos_p(2))
        probe = random_trig(np.random.default_rng(77), sites=(1, 2, 3))
        for n in range(3, 12):
            assert cl.poisson_bracket(seq.eval(n), probe).is_zero

    def test_sup_trace_constant(self):
        f = cl.cos_q(1)
        seq = cl.tail_sequence(f)
        ref = cl.sup_norm_bounds(f)
        for n in (2, 5, 9):
            assert cl.sup_norm_bounds(seq.eval(n)) == ref


class TestBracketDecay:
    def test_cyclic_average_exact_inverse_volume(self):
        seq = cl.ClassicalCyclicAverage(cl.cos_q(1))
        rep = cl.bracket_decay_test(seq, cl.cos_p(1), list(range(2, 65)))
        for p in rep.points:
            assert p.value * p.n == pytest.approx(1.0, abs=1e-12)
        assert rep.classification == "vanishing"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-6)

    def test_tail_shifted_exact_zero(self):
        seq = cl.tail_sequence(cl.cos_q(1))
        probe = cl.cos_p(2)
        rep = cl.bracket_decay_test(seq, probe, [3, 5, 7, 9])
        assert all(p.value == 0.0 for p in rep.points)
        assert rep.classification == "vanishing"

    def test_local_embed_fails(self):
        seq = cl.ClassicalLocalEmbed(cl.cos_q(1))
        rep = cl.bracket_decay_test(seq, cl.cos_p(1), [2, 4, 6, 8])
        for p in rep.points:
            assert p.value == pytest.approx(1.0, abs=1e-15)
        assert rep.classification == "bounded_nonvanishing"


class TestObservableAlgebra:
    def test_real_flag(self):
        assert cl.cos_q(1).is_real()
        assert not (cl.cos_q(1) + cl.trig_term(0.5j, [(1, 2, 0)])).is_real()

    def test_conjugate(self):
        rng = np.random.default_rng(78)
        f = random_trig(rng)
        conj = f.conjugate()
        angles = {(s, c): rng.uniform(0, 2 * np.pi) for s in (1, 2, 3) for c in ("q", "p")}
        assert conj.evaluate(angles) == pytest.approx(np.conj(f.evaluate(angles)))

    def test_product_matches_pointwise(self):
        rng = np.random.default_rng(79)
        f = random_trig(rng, n_terms=2)
        g = random_trig(rng, n_terms=2)
        angles = {(s, c): rng.uniform(0, 2 * np.pi) for s in (1, 2, 3) for c in ("q", "p")}
        assert (f * g).evaluate(angles) == pytest.approx(
            f.evaluate(angles) * g.evaluate(angles), abs=1e-10
        )

    def test_duplicate_site_rejected(self):
        with pytest.raises(ContractViolation):
            cl.trig_term(1.0, [(1, 1, 0), (1, 0, 1)])
