"""Every CLI input ends in a record or a named error with the documented exit code."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvgrover import EnvelopeSpec, SearchConfig, TargetSpec, make_grid, run_search
from mvgrover.cli import main
from mvgrover.config import load_config, parse_config
from mvgrover.errors import CapacityExceeded, ConfigInvalid, WeightOutOfRange

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


# One-mode grids whose state, taken four times, exceeds physical memory.  numpy
# refuses each of these shapes before allocating, so a weight table built
# before the capacity check fails without taking memory.
HUGE_ONE_MODE = {
    "constant-weight": (10**30, 2, {"kind": "constant", "params": {"value": 0.5}}),
    "cosine-weight": (10**30, 2, {"kind": "cosine"}),
    "square-grid": (2**32, 2**32, {"kind": "constant"}),
    "beyond-the-float-range": (10**400, 2, None),
}


@pytest.mark.parametrize("case", sorted(HUGE_ONE_MODE))
def test_one_mode_grid_beyond_capacity_is_refused_before_any_table(tmp_path, capsys, case):
    g_theta, g_k, zeta = HUGE_ONE_MODE[case]
    doc = {"n_modes": 1, "g_theta": g_theta, "g_k": g_k, "envelopes": [{"kind": "constant"}],
           "target": {"mode": "constant", "bits": "1"}, "zetas": zeta and [zeta]}
    with pytest.raises(ConfigInvalid, match="physical memory") as error:
        parse_config(doc)
    assert error.value.path == "/g_theta"
    assert run(tmp_path, doc) == (1, None)
    assert "config invalid" in capsys.readouterr().err
    out = tmp_path / "batch.jsonl"
    huge, good = write(tmp_path / "huge.json", doc), write(tmp_path / "good.json", BASE)
    assert main(["run", "--config", huge, good, "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[0] == {"config_path": huge, "error": "config invalid"}
    assert records[1]["report"]["identified"] == "10"


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


@pytest.mark.filterwarnings("error")
def test_complex_envelope_entry_beyond_float_magnitude_scales(tmp_path):
    # |1.5e308 + 1.5e308j| overflows, though both parts are finite: the table
    # is scaled by its largest part, so it reads as the same table at 1e-308.
    values = [[1.0] * 3 for _ in range(3)]
    values[0][0] = [1.5e308, 1.5e308]
    big = np.ones((3, 3), dtype=np.complex128)
    big[0, 0] = 1.5e308 + 1.5e308j
    grid = make_grid(1, 3, 3)
    table = EnvelopeSpec.tabulated(big).table_for(grid)
    assert np.array_equal(table, EnvelopeSpec.tabulated(big * 1e-308).table_for(grid))
    doc = dict(BASE, envelopes=[{"kind": "tabulated", "values": values}, {"kind": "gaussian"}])
    code, record = run(tmp_path, doc)
    assert code == 0 and record["report"] is not None and record["error"] is None


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


_INTERVALS = {"mode": "intervals", "intervals": [[[0.0, 1.0]], []]}


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"envelopes": [{"center_theta": 1.0}, {"kind": "gaussian"}]}, "/envelopes/0/kind"),
        ({"zetas": [{"kind": "cosine"}, {"value": 0.5}]}, "/zetas/1/kind"),
        ({"envelopes": [{"kind": "gaussian"}, {"kind": "lorentzian"}]}, "/envelopes/1/kind"),
        ({"zetas": [{"kind": "sine"}, {"kind": "cosine"}]}, "/zetas/0/kind"),
        ({"target": {"mode": "constant", "bits": "1x"}}, "/target/bits"),
        ({"target": {"mode": "constant", "strings": ["01", "1x"]}}, "/target/strings/1"),
        ({"target": {"mode": "random"}}, "/target/mode"),
        ({"envelopes": [{"kind": "gaussian"}]}, "/envelopes"),
        ({"zetas": [{"kind": "cosine"}] * 3}, "/zetas"),
        ({"target": dict(_INTERVALS, intervals=[[[0.0, 1.0]]])}, "/target/intervals"),
        ({"target": dict(_INTERVALS, intervals=[[[0.0, 1.0, 2.0]], []])}, "/target/intervals/0/0"),
        ({"target": dict(_INTERVALS, intervals=[[], [[0.5]]])}, "/target/intervals/1/0"),
        ({"use_dilation": "yes"}, "/use_dilation"),
    ],
)
def test_invalid_configs_name_their_path(overrides, path):
    with pytest.raises(ConfigInvalid) as error:
        parse_config(dict(BASE, **overrides))
    assert error.value.path == path


# --- tables: built in one pass, walked entry by entry only to name a bad one -----


def _table(entry=0.5, at=(1, 2), rows=3, cols=3):
    values = [[0.25 * (i + j) - 0.5 for j in range(cols)] for i in range(rows)]
    values[at[0]][at[1]] = entry
    return values


def _with_tables(envelope_values, zeta_values):
    return dict(
        BASE,
        envelopes=[{"kind": "tabulated", "values": envelope_values}, {"kind": "gaussian"}],
        zetas=[{"kind": "table", "values": zeta_values}, {"kind": "constant"}],
    )


@pytest.mark.parametrize(
    "values, where, message",
    [
        (_table(True), "/1/2", "expected a number, got True"),
        (_table("0.5"), "/1/2", "expected a number, got '0.5'"),
        (_table(float("nan")), "/1/2", "expected a finite number, got nan"),
        (_table(float("-inf")), "/1/2", "expected a finite number, got -inf"),
        (_table(10**400), "/1/2", f"expected a finite number, got {10**400!r}"),
        (_table([1.0, 2.0]), "/1/2", "expected a number, got [1.0, 2.0]"),
        (_table()[:2] + [[0.5, 0.5]], "/2", "expected 3 entries, got 2"),
        (_table()[:2] + [0.5], "/2", "expected an array, got float"),
    ],
)
def test_table_entries_name_the_bad_entry(values, where, message):
    with pytest.raises(ConfigInvalid) as weight_error:
        parse_config(_with_tables(_table(), values))
    assert str(weight_error.value) == f"/zetas/0/values{where}: {message}"
    if isinstance(values[1][2], list):  # an [re, im] pair is a valid envelope entry
        return
    with pytest.raises(ConfigInvalid) as envelope_error:
        parse_config(_with_tables(values, _table()))
    message = message.replace("expected a number,", "expected a number or [re, im] pair,")
    assert str(envelope_error.value) == f"/envelopes/0/values{where}: {message}"


def test_plain_tables_parse_bitwise_like_the_entry_walk():
    # Floats, -0.0, a subnormal and integers beyond 2^53 and 2^63 become the
    # same float64 (weights) and complex128 (envelopes, imaginary +0.0) as
    # float(x) and complex(float(x)) entry by entry; [re, im] pairs still parse.
    entries = [[0.1, -0.0, 5e-324], [2**53 + 1, -(2**63) - 5, 10**30], [3, -7, 1e308]]
    cfg = parse_config(_with_tables(entries, entries))
    want = np.array([[float(x) for x in row] for row in entries])
    assert cfg.zetas[0].dtype == np.float64 and cfg.zetas[0].tobytes() == want.tobytes()
    table = cfg.envelopes[0].table
    assert table.dtype == np.complex128
    assert table.tobytes() == np.array([[complex(x) for x in row] for row in want]).tobytes()
    pairs = _table([0.5, -1.5])
    cfg = parse_config(_with_tables(pairs, _table()))
    assert cfg.envelopes[0].table[1, 2] == 0.5 - 1.5j


# --- files that cannot be read or written ------------------------------------------

UNREADABLE = {
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b'{"n_modes": "\xff"}'),
    "too-deep": lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
    # json.load refuses an integer of more than 4300 digits with a plain ValueError.
    "too-many-digits": lambda path: path.write_text('{"g_theta": ' + "9" * 5000 + "}"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_config_is_invalid(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    UNREADABLE[kind](bad)
    with pytest.raises(ConfigInvalid, match="cannot read config"):
        load_config(bad)
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "config invalid" in capsys.readouterr().err
    good = write(tmp_path / "cfg.json", BASE)
    assert main(["run", "--config", good, str(bad), "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[1] == {"config_path": str(bad), "error": "config invalid"}
    assert main(["state", "save", "--config", str(bad), "--path", str(tmp_path / "s.mvgr")]) == 1
    assert "config invalid" in capsys.readouterr().err


NO_PATH = {
    "missing": (lambda path: None, "config file not found: "),
    "invalid-json": (lambda path: path.write_text("{bad"), "config is not valid JSON: "),
    "unreadable": (lambda path: path.mkdir(), "cannot read config "),
    "top-level-array": (lambda path: path.write_text("[1, 2]"), "expected an object, got list"),
}


@pytest.mark.parametrize("kind", sorted(NO_PATH))
def test_config_error_without_a_path_reads_as_its_message(tmp_path, capsys, kind):
    make, message = NO_PATH[kind]
    bad = tmp_path / "bad.json"
    make(bad)
    with pytest.raises(ConfigInvalid) as error:
        load_config(bad)
    assert error.value.path == "" and error.value.message.startswith(message)
    assert str(error.value) == error.value.message
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"config invalid ({bad}): {error.value.message}\n"
    good = write(tmp_path / "cfg.json", BASE)
    assert main(["run", "--config", good, str(bad), "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[1] == {"config_path": str(bad), "error": "config invalid"}
    assert capsys.readouterr().err == f"config invalid ({bad}): {error.value.message}\n"
    # An error at a JSON path keeps the path in front of the message.
    with pytest.raises(ConfigInvalid) as field_error:
        parse_config(dict(BASE, g_k="3"))
    assert field_error.value.path == "/g_k"
    assert str(field_error.value) == f"/g_k: {field_error.value.message}"


def test_state_load_of_a_directory_is_named(tmp_path, capsys):
    assert main(["state", "load", "--path", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"cannot read {tmp_path}: ")


@pytest.mark.parametrize("header, error", [
    ((0, 2, 2), "ZeroSize"), ((5, 2, 2), "CapacityExceeded"), ((2, 0, 2), "ZeroSize"),
])
def test_state_load_of_an_impossible_grid_is_named(tmp_path, capsys, header, error):
    path = tmp_path / "s.mvgr"
    path.write_bytes(b"MVGR1" + struct.pack("<3I", *header) + bytes(64))
    assert main(["state", "load", "--path", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"{error}: ")


@pytest.mark.parametrize("header, size", [
    ((4, 65536, 65536), 2**136), ((2, 2**32 - 1, 1), 64 * (2**32 - 1) ** 2),
])
def test_state_load_of_an_overflowing_header_is_truncated(tmp_path, capsys, header, size):
    # The payload size of these headers overflows int64.
    path = tmp_path / "s.mvgr"
    path.write_bytes(b"MVGR1" + struct.pack("<3I", *header))
    assert main(["state", "load", "--path", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"TruncatedFile: expected {size} payload bytes, got 0")
    assert "Traceback" not in err


def test_unwritable_outputs_are_named(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", BASE)
    saved = str(tmp_path / "s.mvgr")
    assert save(tmp_path, BASE) == 0
    for argv in (
        ["run", "--config", cfg, "--out"],
        ["run", "--config", cfg, cfg, "--out"],
        ["state", "save", "--config", cfg, "--path"],
        ["state", "load", "--path", saved, "--resave"],
    ):
        capsys.readouterr()
        assert main(argv + [str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write {tmp_path}: ")


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
