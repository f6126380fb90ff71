import usd_kit

# The public surface, one name per identity.  A change to it is deliberate:
# edit this list and record the change in CHANGES.md.
PUBLIC_NAMES = [
    "DiscriminationReport",
    "DualSet",
    "Fig2Params",
    "LossyEvolution",
    "OutcomeStats",
    "PovmSet",
    "ProjectiveBasis",
    "RandomSource",
    "Scenario",
    "StateEnsemble",
    "StateSet",
    "ToleranceContext",
    "ValidationReport",
    "build_scenario",
    "build_usd_povm",
    "computational_basis",
    "density_matrix",
    "dilate_unitary",
    "discriminable_states",
    "dual_set",
    "dyadic_form",
    "fig1_as_embedding",
    "fig1_scenario",
    "fig2_scenario",
    "inconclusive_rank",
    "lossy_from_povm",
    "make_lossy",
    "normalize_passive",
    "outcome_probabilities",
    "post_measurement_state",
    "povm_from_lossy",
    "projective_basis",
    "psd_sqrt",
    "reduced_evolution",
    "sample_outcomes",
    "singular_values",
    "spectral_norm",
    "state_ensemble",
    "state_set",
    "subspace_reduce",
    "unitary_exp",
    "usd_report",
    "validate_povm",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 43
    assert sorted(usd_kit.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(usd_kit, name) is not None
