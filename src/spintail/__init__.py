"""Finite-volume probes of global observables on quantum spin chains.

The package builds observable sequences over growing chain volumes, traces
their operator norms, commutators and expectations, and classifies the tails
-- the finite, testable face of quotient norms, asymptotic commutation and
macroscopic averages.  A commutative mirror does the same for Poisson
brackets of trigonometric observables on torus phase spaces.
"""

from .asymptotics import (
    DecayReport,
    TracePoint,
    classify_trace,
    commutant_membership,
    default_probes,
    equivalence_test,
    gamma_bound_check,
    mutual_commutator_trace,
    quotient_norm_estimate,
    vanishing_test,
)
from .errors import CapacityError, ConfigError, ContractViolation
from .localops import (
    Block,
    LocalOperator,
    OperatorSum,
    commutator,
    dense_matrix,
    from_site_factors,
    local_operator,
    norm,
    operator_sum,
    pauli_at,
    product,
    sum_commutator,
    sum_product,
)
from .matrices import DENSE_DIM_CAP, adjoint, operator_norm_dense, pauli
from .sequences import (
    BlockProduct,
    GammaSeq,
    HalfChain,
    LocalEmbedSeq,
    ObservableSequence,
    ParityProduct,
    SeqAdjoint,
    SeqProduct,
    SeqScale,
    SeqSum,
    TranslatedToInfinity,
    UniformProduct,
    VolumeSchedule,
    seq_norm_trace,
)
from .shifts import eval_gamma_sequence, gamma_average, gamma_pow
from .states import average_variance, expectation, induced_invariance_residual, product_state

__version__ = "0.1.0"
