"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import spintail as st
import spintail.classical as cl
from spintail.cli import main, parse_config, run
from spintail.report import emit

from oracles import I2, SX, SZ, embed_dense, random_complex, rho_chain, svd_norm


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {desc}", flush=True)
        raise
    print(f"criterion {num:02d} PASS  {desc}", flush=True)


def test_criterion_01_shift_average_bound_suite():
    with criterion(1, "shift-average commutator bound and 1/N decay"):
        t0 = time.monotonic()
        seeds = {
            "pauli1@1": st.pauli_at(1, 1),
            "pauli3@1": st.pauli_at(3, 1),
            "pauli1x2@1,2": st.from_site_factors({1: SX, 2: SX}),
        }
        probes = {
            "pauli1@1": st.pauli_at(1, 1),
            "pauli3@1": st.pauli_at(3, 1),
            "pauli1*pauli3@1,2": st.from_site_factors({1: SX, 2: SZ}),
        }
        schedule = list(range(4, 15))
        for sname, seed in seeds.items():
            spec = st.GammaSeq.from_seed(seed)
            for pname, probe in probes.items():
                rep = st.gamma_bound_check(spec, probe, schedule)
                assert rep.bound_violations == (), (sname, pname)
                if any(p.value > 0 for p in rep.points):
                    assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.15), (
                        sname,
                        pname,
                        rep.fitted_exponent,
                    )
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"bound suite took {elapsed:.1f}s"


def test_criterion_02_translated_noncommutativity():
    with criterion(2, "translated pair: constant mutual trace, individual membership"):
        a = st.TranslatedToInfinity(SX)
        c = st.TranslatedToInfinity(SZ)
        schedule = list(range(2, 15))
        rep = st.mutual_commutator_trace(a, c, schedule)
        for p in rep.points:
            assert p.value == pytest.approx(2.0, abs=1e-9)
        for seq in (a, c):
            results = st.commutant_membership(seq, None, schedule)
            for res in results:
                assert not res.skipped
                assert res.passed, res.label
                probe_max = max(
                    op.support[-1] for lbl, op in st.default_probes() if lbl == res.label
                )
                for p in res.report.points:
                    if p.n > probe_max:
                        assert p.value == 0.0, (res.label, p.n)


def test_criterion_03_half_chain_localization():
    with criterion(3, "half-chain pattern: probe at site 3 felt then escaped"):
        seq = st.HalfChain(SZ)
        probe = st.pauli_at(1, 3)
        for n in range(3, 15):
            comm = st.sum_commutator(seq.eval(n), probe.as_sum())
            value = st.norm(comm, n).value
            if n in (3, 4):
                assert value == pytest.approx(2.0, abs=1e-9)
            else:
                assert comm.terms == ()  # disjointness short-circuit
                assert value == 0.0
            if n <= 10:  # dense oracle
                half = n - n // 2
                dense_c = embed_dense({x: SZ for x in range(half + 1, n + 1)}, n)
                dense_b = embed_dense({3: SX}, n)
                oracle = svd_norm(dense_c @ dense_b - dense_b @ dense_c)
                assert value == pytest.approx(oracle, abs=1e-10)


def test_criterion_04_product_sequence_expectations():
    with criterion(4, "product sequences: oscillating and block expectations"):
        rho = 0.5 * (I2 - SX)
        state = st.product_state(rho)
        uniform = st.UniformProduct(SX)
        for n in range(1, 15):
            val = st.expectation(state, uniform.eval(n), n)
            assert val.real == pytest.approx((-1.0) ** n, abs=1e-10)
            assert abs(val.imag) <= 1e-12
        for seq in (st.ParityProduct(SX, SZ), st.BlockProduct(SX, SZ)):
            for n in range(1, 11):
                s = seq.eval(n)
                lhs = st.expectation(state, s, n)
                rhs = np.trace(rho_chain(rho, n) @ st.dense_matrix(s, n))
                assert lhs == pytest.approx(rhs, abs=1e-10)


def test_criterion_05_macroscopic_average_suite():
    with criterion(5, "macroscopic averages: mean, variance decay, shift invariance"):
        rho = 0.5 * (I2 + 0.6 * SZ)
        state = st.product_state(rho)
        seq = st.GammaSeq.from_seed(st.pauli_at(3, 1))
        for n in range(1, 15):
            val = st.expectation(state, seq.eval(n), n)
            assert val.real == pytest.approx(0.6, abs=1e-10)
        for n in range(4, 13):
            var = st.average_variance(state, st.pauli_at(3, 1), n)
            assert var * n == pytest.approx(0.64, abs=1e-9)
        for j in range(4):
            res = st.induced_invariance_residual(state, st.pauli_at(3, 1), 8, j)
            assert res <= 1e-12


def test_criterion_06_quotient_norm_consistency():
    with criterion(6, "tail-max norm estimate and 1/N vanishing classification"):
        est, rep = st.quotient_norm_estimate(
            st.GammaSeq.from_seed(st.pauli_at(3, 1)),
            [4, 6, 8, 10, 12],
            dense_cap=1024,  # auto: dense up to the real sums' crossover, Lanczos above
        )
        assert est == pytest.approx(1.0, abs=1e-9)
        scaled = st.SeqScale(lambda n: 1.0 / n, st.LocalEmbedSeq(st.pauli_at(1, 1)))
        rep = st.vanishing_test(scaled, [2, 4, 8, 16, 32])
        assert rep.classification == "vanishing"
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.05)


def test_criterion_07_oracle_equivalence():
    with criterion(7, "dual routes: iterative vs dense norms, factorized vs dense means"):
        rng = np.random.default_rng(42)
        rho = 0.5 * (I2 + 0.6 * SZ)
        state = st.product_state(rho)
        n = 10
        for case in range(50):
            terms = []
            for _k in range(int(rng.integers(2, 5))):
                width = int(rng.integers(1, 3))
                sites = tuple(sorted(rng.choice(range(1, n + 1), width, replace=False)))
                mat = random_complex(rng, 2 ** len(sites))
                coeff = rng.normal() + 1j * rng.normal()
                terms.append((coeff, st.local_operator(mat, sites)))
            s = st.operator_sum(terms)
            dense = st.norm(s, n, "dense")
            iterative = st.norm(s, n, "iterative")
            assert iterative.converged, f"case {case} unconverged"
            assert iterative.value == pytest.approx(dense.value, abs=1e-8, rel=1e-8), (
                f"case {case}"
            )
            fact = st.expectation(state, s, n)
            oracle = np.einsum("ij,ji->", rho_chain(rho, n), st.dense_matrix(s, n))
            assert fact == pytest.approx(oracle, abs=1e-10), f"case {case}"


def test_criterion_08_algebraic_law_suite():
    with criterion(8, "algebra laws, 100+ seeded cases each"):
        rng = np.random.default_rng(777)

        def rand_op(sites):
            return st.local_operator(random_complex(rng, 2 ** len(sites)), sites)

        # Leibniz rule for commutators, 1e-10
        for _ in range(100):
            a, ap, b = rand_op((1, 2)), rand_op((2, 3)), rand_op((1, 3))
            lhs = st.dense_matrix(st.commutator(st.product(a, ap), b), 3)
            rhs = st.dense_matrix(st.product(a, st.commutator(ap, b)), 3)
            rhs = rhs + st.dense_matrix(st.product(st.commutator(a, b), ap), 3)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

        # star compatibility, 1e-12
        for _ in range(100):
            a, b = rand_op((1, 2)), rand_op((2,))
            lhs = st.dense_matrix(st.commutator(a, b).adjoint(), 2)
            rhs = st.dense_matrix(st.commutator(b.adjoint(), a.adjoint()), 2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

        # shift is a *-morphism, 1e-12
        for _ in range(100):
            nvol = int(rng.integers(3, 6))
            a, b = rand_op((1, 2)), rand_op((2, 3))
            j = int(rng.integers(0, nvol))
            lhs = st.dense_matrix(st.gamma_pow(st.product(a, b), nvol, j), nvol)
            rhs = st.dense_matrix(
                st.product(st.gamma_pow(a, nvol, j), st.gamma_pow(b, nvol, j)), nvol
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            lhs = st.dense_matrix(st.gamma_pow(a.adjoint(), nvol, j), nvol)
            rhs = st.dense_matrix(st.gamma_pow(a, nvol, j).adjoint(), nvol)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

        # shift averaging is idempotent, 1e-10
        for _ in range(100):
            nvol = int(rng.integers(2, 6))
            a = rand_op((1,))
            once = st.gamma_average(a, nvol)
            twice = st.gamma_average(once, nvol)
            diff = st.dense_matrix(twice, nvol) - st.dense_matrix(once, nvol)
            assert np.max(np.abs(diff)) <= 1e-10

        def rand_trig(n_terms=2):
            out = cl.TrigObservable({})
            for _ in range(n_terms):
                s = int(rng.integers(1, 4))
                out = out + cl.trig_term(
                    rng.normal() + 1j * rng.normal(),
                    [(s, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))],
                )
            return out

        # Jacobi identity, 1e-10; Poisson-Leibniz, 1e-12
        for _ in range(100):
            f, g, h = rand_trig(), rand_trig(), rand_trig()
            jac = (
                cl.poisson_bracket(f, cl.poisson_bracket(g, h))
                + cl.poisson_bracket(g, cl.poisson_bracket(h, f))
                + cl.poisson_bracket(h, cl.poisson_bracket(f, g))
            )
            assert jac.l1_norm() <= 1e-10
            lhs = cl.poisson_bracket(f * g, h)
            rhs = f * cl.poisson_bracket(g, h) + cl.poisson_bracket(f, h) * g
            assert (lhs - rhs).l1_norm() <= 1e-12


def test_criterion_09_classical_decay():
    with criterion(9, "classical brackets: exact 1/N decay and tail vanishing"):
        seq = cl.ClassicalCyclicAverage(cl.cos_q(1))
        rep = cl.bracket_decay_test(seq, cl.cos_p(1), list(range(2, 65)))
        for p in rep.points:
            assert p.value * p.n == pytest.approx(1.0, abs=1e-12)
        tail = cl.tail_sequence(cl.cos_q(1) * cl.cos_p(2))
        probes = [cl.cos_p(1), cl.cos_q(2), cl.sin_q(3), cl.cos_q(1) * cl.sin_p(3)]
        for n in range(3, 20):
            for probe in probes:
                assert cl.poisson_bracket(tail.eval(n), probe).is_zero


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    from test_cli import ALL_KINDS, GAMMA_BOUND

    with criterion(10, "CLI: byte-identical reruns and 0/1/2 exit contract"):
        for kind, cfg in ALL_KINDS.items():
            cfg = dict(cfg, seed=42)
            r1, _ = run(parse_config(json.dumps(cfg)))
            r2, _ = run(parse_config(json.dumps(cfg)))
            assert emit(r1, "json") == emit(r2, "json"), kind
            assert emit(r1, "csv") == emit(r2, "csv"), kind

        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(GAMMA_BOUND))
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps(dict(GAMMA_BOUND, schedule=[4, 4])))
        failing = tmp_path / "failing.json"
        failing.write_text(
            json.dumps(
                dict(
                    ALL_KINDS["norm"],
                    **{"assert": {"classification": "vanishing"}},
                )
            )
        )
        out = tmp_path / "r.json"
        assert main(["run", str(ok), "--out", str(out)]) == 0
        assert main(["run", str(bad_config), "--out", str(out)]) == 1
        assert main(["run", str(failing), "--out", str(out)]) == 2
        capsys.readouterr()
