"""Every CLI input ends in a record or a named error with the documented exit code."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvgrover import EnvelopeSpec, SearchConfig, TargetSpec, make_grid, run_search
from mvgrover.cli import main
from mvgrover.config import parse_config
from mvgrover.errors import CapacityExceeded, WeightOutOfRange

BASE = {
    "n_modes": 2,
    "g_theta": 3,
    "g_k": 3,
    "envelopes": [{"kind": "gaussian"}, {"kind": "gaussian", "center_theta": 1.2}],
    "target": {"mode": "constant", "bits": "10"},
    "zetas": [
        {"kind": "cosine", "params": {"theta_factor": 0.5}},
        {"kind": "cosine", "params": {"theta_factor": 0.5}},
    ],
    "iterations": "auto",
    "use_dilation": False,
}


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc):
    out = tmp_path / "r.json"
    code = main(["run", "--config", write(tmp_path / "cfg.json", doc), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def save(tmp_path, doc, stage="final"):
    cfg = write(tmp_path / "cfg.json", doc)
    path = str(tmp_path / "s.mvgr")
    return main(["state", "save", "--config", cfg, "--path", path, "--stage", stage])


# --- state save exit codes match run ------------------------------------------


def test_state_save_exit_codes_match_run(tmp_path, capsys):
    zero_envelope = dict(BASE, envelopes=[{"kind": "tabulated", "values": [[0.0] * 3] * 3}] * 2)
    code, record = run(tmp_path, zero_envelope)
    assert code == 1 and record["error"].startswith("ZeroNorm: ")
    assert save(tmp_path, zero_envelope) == 1
    assert "ZeroNorm" in capsys.readouterr().err

    degenerate = dict(BASE, zetas=[{"kind": "constant", "params": {"value": 0.0}}] * 2)
    code, record = run(tmp_path, degenerate)
    assert code == 2 and record["error"].startswith("DegenerateWeights: ")
    assert save(tmp_path, degenerate) == 2
    assert "DegenerateWeights" in capsys.readouterr().err


# --- capacity -------------------------------------------------------------------

# A dense state of 64**8 cells x 16 bands: 2**56 bytes, refused before any
# grid-sized array exists.
HUGE = dict(
    BASE,
    n_modes=4,
    g_theta=64,
    g_k=64,
    envelopes=[{"kind": "gaussian"}] * 4,
    target={"mode": "constant", "bits": "1010"},
    zetas=None,
)


def test_capacity_exceeded_before_allocation(tmp_path, capsys):
    cfg = SearchConfig(4, 64, 64, (EnvelopeSpec.gaussian(),) * 4, TargetSpec.bits("1010"))
    with pytest.raises(CapacityExceeded):
        run_search(cfg)
    code, record = run(tmp_path, HUGE)
    assert code == 1
    assert record["report"] is None and record["error"].startswith("CapacityExceeded: ")
    for stage in ("list", "final"):
        assert save(tmp_path, HUGE, stage) == 1
        assert "CapacityExceeded" in capsys.readouterr().err
    assert not (tmp_path / "s.mvgr").exists()


# --- numbers beyond the float range or the step budget ----------------------------

OVERFLOW = {
    "product": dict(BASE, zetas=[{"kind": "constant", "params": {"value": 1e200}}] * 2),
    "power": dict(BASE, zetas=[{"kind": "constant", "params": {"value": 1e10}}] * 2,
                  iterations=40),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW))
def test_weights_beyond_float_range_are_named(tmp_path, capsys, case):
    doc = OVERFLOW[case]
    with pytest.raises(WeightOutOfRange, match="float range"):
        run_search(parse_config(doc))
    code, record = run(tmp_path, doc)
    assert code == 1
    assert record["report"] is None and record["error"].startswith("WeightOutOfRange: ")
    assert save(tmp_path, doc) == 1
    assert "WeightOutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1e300, 1e-20, 2.2250738585e-313])
def test_extreme_tabulated_envelopes_scale_to_the_ones_table(tmp_path, value):
    grid = make_grid(1, 3, 3)
    ones = EnvelopeSpec.tabulated(np.ones((3, 3))).table_for(grid)
    table = EnvelopeSpec.tabulated(np.full((3, 3), value)).table_for(grid)
    assert np.max(np.abs(table - ones)) <= 1e-15
    doc = dict(BASE, envelopes=[{"kind": "tabulated", "values": [[value] * 3] * 3}] * 2)
    assert run(tmp_path, doc)[0] == 0


def test_iterations_beyond_step_budget_refused(tmp_path, capsys):
    doc = dict(BASE, iterations=10**12)
    with pytest.raises(CapacityExceeded):
        run_search(parse_config(doc))
    code, record = run(tmp_path, doc)
    assert code == 1
    assert record["report"] is None and record["error"].startswith("CapacityExceeded: ")
    assert save(tmp_path, doc) == 1
    assert "CapacityExceeded" in capsys.readouterr().err


# --- config validation by the domain objects -------------------------------------


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"target": {"mode": "constant", "strings": ["10", "10"]}}, "/target/strings"),
        ({"target": {"mode": "constant", "strings": []}}, "/target/strings"),
        ({"target": {"mode": "intervals", "intervals": [[[2.0, 1.0]], []]}}, "/target/intervals"),
        ({"target": {"mode": "intervals", "intervals": [[[0.0, 4.0]], []]}}, "/target/intervals"),
        ({"envelopes": [{"kind": "gaussian"}, {"kind": "gaussian", "sigma_k": 0}]}, "/envelopes/1"),
    ],
)
def test_domain_validation_names_field(tmp_path, capsys, overrides, path):
    code, record = run(tmp_path, dict(BASE, **overrides))
    assert code == 1 and record is None
    assert f"{path}:" in capsys.readouterr().err


# --- property: no input ends in a traceback ---------------------------------------

WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "mode", "value"]), st.text(max_size=3), max_size=2),
)
NUMBER = st.floats(-4.0, 4.0)


def tables(rows, cols):
    """Mostly rows x cols tables of small numbers, sometimes misshapen."""
    sizes = st.sampled_from([(rows, cols)] * 4 + [(rows + 1, cols), (rows, 0), (1, 1)])
    return sizes.flatmap(
        lambda rc: st.lists(st.lists(NUMBER, min_size=max(rc[1], 0), max_size=max(rc[1], 0)),
                            min_size=max(rc[0], 0), max_size=max(rc[0], 0))
    )


@st.composite
def documents(draw):
    """A config whose parts mostly agree with its drawn sizes, then 0-2 fields replaced."""
    # Sizes cover every value in range; the valid ones are drawn more often.
    n = draw(st.sampled_from([0, 5] + [1, 2, 3, 4] * 3))
    gt, gk = (draw(st.sampled_from([-1, 0] + [1, 2, 3, 4] * 3)) for _ in range(2))
    envelope = st.one_of(
        st.just({"kind": "constant"}),
        st.fixed_dictionaries(
            {"kind": st.just("gaussian")},
            optional={"center_theta": NUMBER, "sigma_theta": NUMBER, "sigma_k": NUMBER},
        ),
        tables(gt, gk).map(lambda v: {"kind": "tabulated", "values": v}),
    )
    zeta = st.one_of(
        NUMBER.map(lambda v: {"kind": "constant", "params": {"value": v}}),
        NUMBER.map(lambda a: {"kind": "cosine", "params": {"amplitude": a}}),
        tables(gt, gk).map(lambda v: {"kind": "table", "values": v}),
    )
    bits = st.text(alphabet="01", min_size=n, max_size=n)
    target = st.one_of(
        bits.map(lambda b: {"mode": "constant", "bits": b}),
        st.lists(bits, max_size=3).map(lambda s: {"mode": "constant", "strings": s}),
        st.lists(st.lists(st.lists(NUMBER, min_size=2, max_size=2), max_size=2),
                 min_size=n, max_size=n).map(lambda s: {"mode": "intervals", "intervals": s}),
    )
    doc = {
        "n_modes": n,
        "g_theta": gt,
        "g_k": gk,
        "envelopes": draw(st.lists(envelope, min_size=n, max_size=n)),
        "target": draw(target),
        "zetas": draw(st.one_of(st.none(), st.lists(zeta, min_size=n, max_size=n))),
        "iterations": draw(st.one_of(st.just("auto"), st.integers(-1, 4))),
        "use_dilation": draw(st.booleans()),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc) + ["seed", "extra"]), max_size=2)):
        doc[key] = draw(WRONG)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_run_never_raises_on_mutated_configs(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(Path(tmp) / "r.json")]) in (0, 1, 2)
