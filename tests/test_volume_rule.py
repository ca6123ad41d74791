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
    assert (cl.ClassicalLocalEmbed(f).eval(n).coeffs == {}) != fits(support, n)


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
