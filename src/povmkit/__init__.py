"""Generalized quantum measurement toolkit.

POVM/PVM measures with the generalized Born rule, instrument-model synthesis
and single-measure state tomography; nonideal-measurement relations with the
entropy-based complementarity bound on joint measurements; a neutron
interferometry model and a generalized two-photon correlation experiment; and
an exact joint-distribution feasibility decision for four bivariate
dichotomic distributions, cross-checked against the CHSH characterization.
"""

from types import ModuleType as _ModuleType

from .aspect import (
    CHSH_SIGN_PATTERNS,
    STANDARD_GAMMA_PAIRS,
    AspectConfig,
    ChshReport,
    CompositeResult,
    arm_povm,
    bell_state,
    chsh_value,
    correlator,
    joint_probabilities,
    polarization_pvm,
    quadrivariate_povm,
    standard_composite,
)
from .errors import (
    DimensionMismatchError,
    IncompleteMeasureError,
    InfeasibleProbabilitiesError,
    InternalConsistencyError,
    NoSignalingError,
    PovmkitError,
    UnsupportedMeasureError,
    ValidationError,
)
from .feasibility import (
    JointDecision,
    MarginalSet,
    NoSignalingReport,
    check_no_signaling,
    joint_exists,
    phase1_simplex,
)
from .measures import (
    InstrumentModel,
    PovmMeasure,
    PvmMeasure,
    born_probabilities,
    is_complete,
    povm_from_instrument,
    povm_violations,
    pvm_violations,
    reconstruct_state,
    tetrahedral_qubit_povm,
)
from .nonideality import (
    DECOMPOSITION_TOL,
    MartensReport,
    NonidealityMatrix,
    apply_nonideality,
    check_martens,
    martens_bound,
    nonideality_entropy,
    solve_nonideality,
)
from .operators import (
    DEFAULT_TOL,
    State,
    UncertaintyComparison,
    as_operator,
    commutator_bound,
    is_hermitian,
    is_positive,
    is_projector,
    is_unitary,
    tensor,
    trace_distance,
)
from .srt import (
    SrtConfig,
    TradeoffPoint,
    interference_nonideality_entropy,
    interference_nonideality_matrix,
    interference_pvm,
    path_nonideality_entropy,
    path_nonideality_matrix,
    path_pvm,
    srt_bivariate,
    srt_povm,
    tradeoff_sweep,
)
from .tables import ProbabilityTable

__version__ = "0.1.0"

#: Every public name imported above; the submodules themselves are left out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
