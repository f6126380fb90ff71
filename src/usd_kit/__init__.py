"""Two-way conversion between lossy evolution operators and USD POVMs.

Construct the measurement set induced by a passive evolution operator,
rebuild an operator realizing a given rank-one POVM, embed passive
operators in unitaries, and reproduce two optical reference scenarios
with closed-form expectations.
"""

from .discrimination import (
    DiscriminationReport,
    OutcomeStats,
    RandomSource,
    StateEnsemble,
    density_matrix,
    outcome_probabilities,
    post_measurement_state,
    sample_outcomes,
    state_ensemble,
    usd_report,
)
from .duality import (
    PovmSet,
    StateSet,
    ValidationReport,
    build_usd_povm,
    dual_set,
    state_set,
    subspace_reduce,
    validate_povm,
)
from .equivalence import (
    LossyEvolution,
    ProjectiveBasis,
    computational_basis,
    dilate_unitary,
    discriminable_states,
    dyadic_form,
    inconclusive_rank,
    lossy_from_povm,
    make_lossy,
    normalize_passive,
    povm_from_lossy,
    projective_basis,
    reduced_evolution,
)
from .linalg import (
    ToleranceContext,
    psd_sqrt,
    singular_values,
    spectral_norm,
    unitary_exp,
)
from .scenarios import (
    Scenario,
    build_scenario,
    fig1_as_embedding,
    fig1_scenario,
    fig2_scenario,
)

# The public names are exactly the classes and functions imported above.
__all__ = sorted(
    name for name, value in globals().items() if getattr(value, "__module__", "").startswith(__name__ + ".")
)

__version__ = "0.1.0"
