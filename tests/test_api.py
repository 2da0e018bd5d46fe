"""The package's public names: growing or shrinking them is a reviewed edit."""

import mvgrover

PUBLIC = {
    "AUTO", "EnvelopeSpec", "GlobalOperator", "JointState", "ModularGrid", "PositionWave",
    "SearchConfig", "SearchReport", "TargetSpec", "ancilla_branch", "apply", "build_gaussian",
    "build_list", "compose", "dilation", "errors", "final_state", "gamma", "grover_cell",
    "grover_weighted", "hadamard", "identify", "identity", "inner", "inversion_about_zero",
    "iteration_count", "joint_weight", "load_state", "logical_basis", "logical_one",
    "logical_overlaps", "logical_zero", "make_grid", "normalize", "oracle", "pauli",
    "per_cell_max_error", "position_norm", "quad_norm", "reference_qubit_grover", "run_search",
    "save_state", "state_from_bytes", "state_to_bytes", "sum_over_targets", "tensor",
    "weighted_list", "with_ancilla", "zak_forward", "zak_inverse",
}


def test_public_api_is_the_listed_set():
    assert len(mvgrover.__all__) == len(set(mvgrover.__all__))
    assert set(mvgrover.__all__) == PUBLIC
    assert all(hasattr(mvgrover, name) for name in PUBLIC)
