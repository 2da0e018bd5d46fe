"""Every library call that rejects its input raises its named error type."""

import math
import os

import numpy as np
import pytest

from mvgrover import (
    EnvelopeSpec,
    GlobalOperator,
    JointState,
    ModularGrid,
    PositionWave,
    SearchConfig,
    TargetSpec,
    ancilla_branch,
    build_list,
    compose,
    dilation,
    final_state,
    gamma,
    grover_cell,
    grover_weighted,
    identity,
    inner,
    joint_weight,
    logical_overlaps,
    make_grid,
    oracle,
    pauli,
    per_cell_max_error,
    reference_qubit_grover,
    run_search,
    save_state,
    sum_over_targets,
    tensor,
    with_ancilla,
    zak_inverse,
)
from mvgrover.errors import (
    AncillaMismatch,
    BadTargetCount,
    DuplicateTarget,
    GridMismatch,
    LatticeMisaligned,
    ShapeMismatch,
    WeightOutOfRange,
    WindowTooSmall,
    ZeroSize,
)

GRID = make_grid(2, 2, 2)
ONE = make_grid(1, 2, 2)
ENVS = (EnvelopeSpec.constant(),) * 2
PLAIN = build_list(ENVS, GRID)
DILATED = with_ancilla(PLAIN)
INTERVALS = TargetSpec.from_intervals([[(0.0, 1.0)]] * 2)


def config(**overrides):
    return SearchConfig(**{"n_modes": 2, "g_theta": 2, "g_k": 2, "envelopes": ENVS,
                           "target": TargetSpec.bits("10"), **overrides})


REJECTED = {
    "tensor of no modes": (lambda: tensor([]), ZeroSize),
    "grid of a float size": (lambda: ModularGrid(2.0, 2, 2), TypeError),
    "state with two ancillas": (lambda: JointState(GRID, PLAIN.amp, n_ancilla=2), AncillaMismatch),
    "operator with two ancillas": (
        lambda: GlobalOperator(GRID, np.eye(4), n_ancilla=2), AncillaMismatch),
    "second ancilla": (lambda: with_ancilla(DILATED), AncillaMismatch),
    "branch of a plain state": (lambda: ancilla_branch(PLAIN, 0), AncillaMismatch),
    "branch value 2": (lambda: ancilla_branch(DILATED, 2), ValueError),
    "save of an ancilla state": (lambda: save_state(DILATED, os.devnull), AncillaMismatch),
    "inner across grids": (lambda: inner(PLAIN, build_list(ENVS, make_grid(2, 2, 3))),
                           GridMismatch),
    "inner across ancilla layouts": (lambda: inner(PLAIN, DILATED), AncillaMismatch),
    "target of neither kind": (lambda: TargetSpec(), ValueError),
    "target bit 2": (lambda: TargetSpec.bits("12"), ValueError),
    "target of no strings": (lambda: TargetSpec(strings=()), ValueError),
    "target of no interval sets": (lambda: TargetSpec(intervals=()), ValueError),
    "interval beyond pi": (lambda: TargetSpec.from_intervals([[(0.0, 4.0)]]), ValueError),
    "mode bits of a constant target": (lambda: TargetSpec.bits("10").mode_bits(GRID), ValueError),
    "compose of nothing": (lambda: compose(), ValueError),
    "compose across grids": (lambda: compose(identity(GRID), identity(make_grid(2, 2, 3))),
                             GridMismatch),
    "compose across ancilla layouts": (
        lambda: compose(identity(ONE), GlobalOperator(ONE, np.eye(4), n_ancilla=1)),
        AncillaMismatch),
    "pauli axis w": (lambda: pauli("w", 0, GRID), ValueError),
    "operator of a wrong matrix size": (lambda: GlobalOperator(GRID, np.eye(2)), ShapeMismatch),
    "gamma of a wrong table shape": (lambda: gamma("x", 0, np.ones((2, 3)), GRID), ShapeMismatch),
    "joint weight of a wrong table shape": (
        lambda: joint_weight((np.ones((3, 2)), None), GRID), ShapeMismatch),
    "joint weight of a wrong table count": (lambda: joint_weight((None,), GRID), ShapeMismatch),
    "reference of r < 0": (lambda: reference_qubit_grover(2, ["10"], -1), ValueError),
    "reference of repeated targets": (
        lambda: reference_qubit_grover(2, ["10", "10"], 1), DuplicateTarget),
    "reference of a target out of range": (
        lambda: reference_qubit_grover(2, ["100"], 1), ValueError),
    # Strings that int(t, 2) would read as "11"
    "reference of a zero-padded target": (
        lambda: reference_qubit_grover(2, ["0011"], 1), ValueError),
    "reference of a 0b-prefixed target": (
        lambda: reference_qubit_grover(2, ["0b11"], 1), ValueError),
    "reference of an underscored target": (
        lambda: reference_qubit_grover(2, ["1_1"], 1), ValueError),
    "reference of a space-padded target": (
        lambda: reference_qubit_grover(2, [" 11 "], 1), ValueError),
    "iterations -1": (lambda: run_search(config(iterations=-1)), ValueError),
    "final state of a dilated run": (lambda: final_state(config(use_dilation=True)), ValueError),
    "sum over an interval target": (lambda: sum_over_targets(config(target=INTERVALS)),
                                    BadTargetCount),
    "overlaps of an ancilla state": (lambda: logical_overlaps(ENVS, DILATED), AncillaMismatch),
    "per-cell check of an ancilla state": (
        lambda: per_cell_max_error(DILATED, TargetSpec.bits("10"), 1), AncillaMismatch),
    "wave of no window": (lambda: PositionWave(np.ones(4), 0, 4), WindowTooSmall),
    "wave of odd samples per period": (lambda: PositionWave(np.ones(9), 1, 3), LatticeMisaligned),
    "wave of the wrong length": (lambda: PositionWave(np.ones(5), 1, 4), ShapeMismatch),
    "wave of negative tail mass": (
        lambda: PositionWave(np.ones(12), 1, 4, tail_mass=-1.0), ValueError),
    "inverse of no window": (lambda: zak_inverse(JointState(ONE, np.ones((2, 2, 2))), 0),
                             WindowTooSmall),
    "envelope kind bogus": (lambda: EnvelopeSpec("bogus"), ValueError),
    "tabulated envelope without a table": (lambda: EnvelopeSpec("tabulated"), ValueError),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_raises_its_error(case):
    call, error = REJECTED[case]
    with pytest.raises(error):
        call()


# A target of three modes on a grid of two: each target kind's own check.
MISMATCHED_TARGETS = {
    "constant": TargetSpec.bits("101"),
    "intervals": TargetSpec.from_intervals([[(0.0, 1.0)]] * 3),
}
TARGET_USERS = {
    "run_search": lambda target: run_search(config(target=target)),
    "final_state": lambda target: final_state(config(target=target)),
    "per_cell_max_error": lambda target: per_cell_max_error(PLAIN, target, 1),
    "oracle": lambda target: oracle(target, GRID),
    "grover_cell": lambda target: grover_cell(target, GRID),
}


@pytest.mark.parametrize("user", sorted(TARGET_USERS))
@pytest.mark.parametrize("kind", sorted(MISMATCHED_TARGETS))
def test_target_of_other_mode_count_is_a_grid_mismatch(kind, user):
    with pytest.raises(GridMismatch, match="target has 3 modes, grid has 2"):
        TARGET_USERS[user](MISMATCHED_TARGETS[kind])



def _one_cell(value):
    table = np.full((2, 2), 0.5, dtype=np.asarray(value).dtype)
    table[1, 0] = value
    return table


NON_FINITE = {
    "inf-weights": (WeightOutOfRange, "weights must be finite",
                    lambda: run_search(config(zetas=(np.full((2, 2), np.inf), None)))),
    "nan-weights": (WeightOutOfRange, "weights must be finite",
                    lambda: run_search(config(zetas=(None, np.full((2, 2), np.nan))))),
    "nan-weight-dilated": (WeightOutOfRange, "weights must be finite",
                           lambda: run_search(config(zetas=(_one_cell(np.nan), None),
                                                     use_dilation=True))),
    "inf-weight-final": (WeightOutOfRange, "weights must be finite",
                         lambda: final_state(config(zetas=(_one_cell(-np.inf), None)))),
    "nan-centre": (ValueError, "centres", lambda: EnvelopeSpec.gaussian(center_k=math.nan)),
    "inf-centre": (ValueError, "centres", lambda: EnvelopeSpec.gaussian(center_theta=math.inf)),
    "nan-width": (ValueError, "widths", lambda: EnvelopeSpec.gaussian(sigma_theta=math.nan)),
    "inf-width": (ValueError, "widths", lambda: EnvelopeSpec.gaussian(sigma_k=math.inf)),
    "nan-table": (ValueError, "finite", lambda: EnvelopeSpec.tabulated(_one_cell(np.nan))),
    "inf-table": (ValueError, "finite", lambda: EnvelopeSpec.tabulated(np.full((2, 2), np.inf))),
    "complex-inf-entry": (ValueError, "finite",
                          lambda: EnvelopeSpec.tabulated(_one_cell(complex(1.0, math.inf)))),
    # The dense operators: a NaN weight used to build NaN matrices or weights.
    "nan-dilation": (WeightOutOfRange, "dilation needs",
                     lambda: dilation(TargetSpec.bits("10"), (_one_cell(np.nan), None), GRID)),
    "nan-grover-weighted": (WeightOutOfRange, "weights must be finite",
                            lambda: grover_weighted(TargetSpec.bits("10"), (None, _one_cell(np.nan)),
                                                    GRID)),
    "nan-gamma": (WeightOutOfRange, "weights must be finite",
                  lambda: gamma("x", 0, math.nan, GRID)),
    "inf-operator-weight": (WeightOutOfRange, "weights must be finite",
                            lambda: GlobalOperator(GRID, np.eye(4), weight=-math.inf)),
    "nan-with-weight": (WeightOutOfRange, "weights must be finite",
                        lambda: identity(GRID).with_weight(np.full((2, 2, 1, 1), math.nan))),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_input_is_refused_by_name(case):
    error, message, call = NON_FINITE[case]
    with pytest.raises(error, match=message):
        call()
