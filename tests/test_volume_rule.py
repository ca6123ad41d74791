"""One support rule: an observable on sites S belongs to the volume {1, ..., n} iff max S <= n.

Every reader of the rule must agree with it exactly: the volume check raises,
the local embeddings read zero, commutant skips the probe and the
single-probe estimators refuse it.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import spintail as st
import spintail.classical as cl
from spintail.localops import check_volume
from spintail.sequences import as_schedule

supports = hst.lists(hst.integers(1, 12), min_size=1, max_size=3, unique=True).map(
    lambda sites: tuple(sorted(sites))
)
volumes = hst.integers(1, 14)


def fits(support, n):
    return support[-1] <= n


def quantum(support):
    return st.from_site_factors({s: st.pauli(1) for s in support})


def classical(support):
    return cl.trig_term(1.0, [(s, 0, 1) for s in support])


@settings(max_examples=80, deadline=None, database=None)
@given(supports, volumes)
def test_volume_check_raises_exactly_off_the_volume(support, n):
    assert check_volume(n) == n  # the empty support fits every volume
    if fits(support, n):
        assert check_volume(n, support) == n
    else:
        with pytest.raises(st.ContractViolation, match="does not fit in volume"):
            check_volume(n, support)


@settings(max_examples=80, deadline=None, database=None)
@given(supports, supports, volumes)
def test_operators_checked_by_their_ends(first, second, n):
    # an operator or sum is compared by its first and last site, and a refusal
    # names its full support, as for the tuple of its sites
    op = quantum(first)
    s = st.operator_sum([(1.0, op), (0.5, quantum(second))])
    state = st.product_state(np.eye(2) / 2)
    for obj, as_sum in ((op, op.as_sum()), (s, s)):
        if fits(obj.support, n):
            assert check_volume(n, obj) == n
            continue
        message = re.escape(f"support {obj.support} does not fit in volume of {n} sites")
        for refused in (
            lambda: check_volume(n, obj),
            lambda: st.norm(obj, n),
            lambda: st.expectation(state, as_sum, n),
        ):
            with pytest.raises(st.ContractViolation, match=message):
                refused()


@settings(max_examples=80, deadline=None, database=None)
@given(supports, volumes)
def test_local_embeddings_vanish_exactly_off_the_volume(support, n):
    op, f = quantum(support), classical(support)
    assert st.LocalEmbedSeq(op).eval(n).is_zero != fits(support, n)
    assert (st.LocalEmbedSeq(f).eval(n).coeffs == {}) != fits(support, n)


@settings(max_examples=40, deadline=None, database=None)
@given(supports, volumes)
def test_probes_refused_exactly_off_the_smallest_volume(support, n):
    sched = [n, n + 1, n + 2, n + 3]
    probe, f = quantum(support), classical(support)
    (res,) = st.commutant_membership(st.LocalEmbedSeq(st.pauli_at(3, 1)), [("p", probe)], sched)
    assert res.skipped != fits(support, n)
    estimators = [
        lambda: st.gamma_bound_check(st.GammaSeq.from_seed(st.pauli_at(3, 1)), probe, sched),
        lambda: cl.bracket_decay_test(cl.ClassicalCyclicAverage(cl.cos_q(1)), f, sched),
    ]
    for estimate in estimators:
        if fits(support, n):
            assert len(estimate().points) == len(sched)
        else:
            with pytest.raises(st.ContractViolation, match=re.escape(res.reason)):
                estimate()


# Volumes, schedule points and classical sites are integers: a Python int or a
# numpy integer.  A float, a bool or None is refused, never floored.

AVERAGE = st.GammaSeq.from_seed(st.pauli_at(3, 1))


@pytest.mark.parametrize("volume", [4.7, 4.0, True, None])
def test_non_integer_volume_refused(volume):
    with pytest.raises(st.ContractViolation, match="volumes have at least one site"):
        check_volume(volume)
    with pytest.raises(st.ContractViolation, match="volumes have at least one site"):
        st.norm(AVERAGE.eval(4), volume)


@pytest.mark.parametrize("points", [[1.5, 2.7, 3.2, 4.9], [4, 6.0, 8, 10], [True, 2, 3, 4]])
def test_non_integer_schedule_refused(points):
    with pytest.raises(st.ContractViolation, match="strictly increasing positive integers"):
        as_schedule(points)
    with pytest.raises(st.ContractViolation, match="strictly increasing positive integers"):
        st.vanishing_test(st.SeqScale(lambda n: 1 / n, AVERAGE), points)


def test_missing_schedule_refused():
    with pytest.raises(st.ContractViolation, match="schedules need at least one point"):
        as_schedule(None)
    with pytest.raises(st.ContractViolation, match="schedules need at least one point"):
        st.commutant_membership(AVERAGE)


@pytest.mark.parametrize("site", [1.5, 1.0, True, None])
def test_non_integer_classical_site_refused(site):
    with pytest.raises(st.ContractViolation, match="sites are >= 1"):
        cl.trig_term(1, [(site, 1, 0)])
    with pytest.raises(st.ContractViolation, match="frequencies are integers"):
        cl.trig_term(1, [(1, 1, site)])


@pytest.mark.parametrize("points", [8.5, 64.0, True, None])
def test_non_integer_grid_refused(points):
    refusal = re.escape(f"grids need at least 8 points per angle, got {points!r}")
    with pytest.raises(st.ContractViolation, match=refusal):
        cl.sup_norm_bounds(cl.cos_q(1), grid_points=points)
    assert cl.sup_norm_bounds(cl.cos_q(1), grid_points=np.int64(8)) == cl.sup_norm_bounds(
        cl.cos_q(1), grid_points=8)


def test_numpy_integers_accepted():
    s = AVERAGE.eval(4)
    assert check_volume(np.int64(4), s) == 4 and type(check_volume(np.int64(4))) is int
    assert st.norm(s, np.int64(4)) == st.norm(s, 4)
    schedule = as_schedule(np.arange(4, 8))
    assert schedule.points == (4, 5, 6, 7) and all(type(n) is int for n in schedule.points)
    f = cl.trig_term(1, [(np.int64(2), np.int32(1), np.int8(0))])
    assert f.coeffs == cl.trig_term(1, [(2, 1, 0)]).coeffs
    assert [type(x) for x in next(iter(f.coeffs))[0]] == [int, int, int]


@pytest.mark.parametrize("site", [1.0, True])
def test_non_integer_block_site_refused(site):
    with pytest.raises(st.ContractViolation, match="block sites are strictly increasing integers"):
        st.local_operator(st.pauli(1), (site,))
    assert st.local_operator(st.pauli(1), (np.int64(2),)).support == (2,)


def test_block_partition_refuses_non_integers():
    seq = st.BlockProduct(st.pauli(1), st.pauli(3))
    for n in (2.9, 2.0, True):
        with pytest.raises(st.ContractViolation, match="volumes have at least one site"):
            seq.eval(n)
    assert seq.eval(np.int64(2)).support == (1, 2)
    with pytest.raises(st.ContractViolation, match="strictly increasing positive integers"):
        st.BlockProduct(st.pauli(1), st.pauli(3), lambda n: n + 1.5).eval(1)


@pytest.mark.parametrize("rule", [lambda n: n - 0.5, lambda n: float(n), lambda n: True])
def test_non_integer_site_rule_refused(rule):
    seq = st.TranslatedToInfinity(st.pauli(1), rule)
    with pytest.raises(st.ContractViolation, match=re.escape(f"site rule gave {rule(4)!r}")):
        seq.eval(4)


def test_non_integer_shift_power_refused():
    a = st.pauli_at(3, 1)
    for j in (1.5, 1.0, True):
        refusal = re.escape(f"shift powers are integers, got {j!r}")
        with pytest.raises(st.ContractViolation, match=refusal):
            st.gamma_pow(a, 4, j)
    assert st.gamma_pow(a, 4, np.int64(1)).support == (4,)
