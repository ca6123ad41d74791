"""The top-level package exports what the README, the demos and the tests reach through it."""

import re
import types
from pathlib import Path

import pytest

import spintail

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md"] + sorted((ROOT / "demos").glob("*.py"))

PUBLIC = {
    # asymptotics
    "DecayReport", "TracePoint", "classify_trace", "commutant_membership", "default_probes",
    "equivalence_test", "gamma_bound_check", "mutual_commutator_trace",
    "quotient_norm_estimate", "vanishing_test",
    # errors
    "CapacityError", "ConfigError", "ContractViolation",
    # localops
    "Block", "LocalOperator", "OperatorSum", "commutator", "dense_matrix", "from_site_factors",
    "local_operator", "norm", "operator_sum", "pauli_at", "product", "sum_commutator",
    "sum_product",
    # matrices
    "DENSE_DIM_CAP", "adjoint", "operator_norm_dense", "pauli",
    # sequences
    "BlockProduct", "GammaSeq", "HalfChain", "LocalEmbedSeq", "ObservableSequence",
    "ParityProduct", "SeqAdjoint", "SeqProduct", "SeqScale", "SeqSum", "TranslatedToInfinity",
    "UniformProduct", "VolumeSchedule", "seq_norm_trace",
    # shifts
    "eval_gamma_sequence", "gamma_average", "gamma_pow",
    # states
    "average_variance", "expectation", "induced_invariance_residual", "product_state",
}


def test_public_names_pinned():
    names = {
        name for name, value in vars(spintail).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize("doc", DOCS, ids=[d.name for d in DOCS])
def test_documented_names_resolve(doc):
    # every ``st.<name>[.<attr>...]`` in the README and the demos
    chains = set(re.findall(r"\bst\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", doc.read_text()))
    for chain in chains:
        obj = spintail
        for part in chain.split("."):
            assert hasattr(obj, part), f"{doc.name}: st.{chain}"
            obj = getattr(obj, part)
