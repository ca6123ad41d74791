"""Finite-volume probes of global observables on quantum spin chains.

The package builds observable sequences over growing chain volumes, traces
their operator norms, commutators and expectations, and classifies the tails
-- the finite, testable face of quotient norms, asymptotic commutation and
macroscopic averages.  A commutative mirror does the same for Poisson
brackets of trigonometric observables on torus phase spaces.
"""

from .asymptotics import (
    DecayReport,
    ProbeResult,
    TracePoint,
    classify_trace,
    commutant_membership,
    default_probes,
    equivalence_test,
    fit_loglog,
    gamma_bound_check,
    mutual_commutator_trace,
    quotient_norm_estimate,
    vanishing_test,
)
from .errors import CapacityError, ConfigError, ContractViolation
from .localops import (
    Block,
    LocalOperator,
    NormResult,
    OperatorSum,
    commutator,
    dense_matrix,
    from_site_factors,
    identity_op,
    local_operator,
    norm,
    operator_sum,
    pauli_at,
    product,
    scalar_op,
    sum_commutator,
    sum_product,
    zero_op,
    zero_sum,
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
    as_schedule,
    make_block_partition,
    seq_norm_trace,
)
from .shifts import (
    GammaSequenceSpec,
    eval_gamma_sequence,
    gamma_average,
    gamma_pow,
    gamma_sequence_spec,
    is_gamma_invariant,
    translate,
)
from .states import (
    ProductState,
    average_variance,
    expectation,
    induced_invariance_residual,
    product_state,
)

__version__ = "0.1.0"
