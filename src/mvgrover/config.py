"""JSON run-configuration parsing with JSON-pointer-style error paths."""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .errors import ConfigInvalid, MvGroverError
from .kernel import check_capacity, make_grid
from .operators import TargetSpec
from .search import AUTO, SearchConfig
from .zak import EnvelopeSpec

_TOP_KEYS = {
    "n_modes",
    "g_theta",
    "g_k",
    "envelopes",
    "target",
    "zetas",
    "iterations",
    "use_dilation",
    "seed",
}


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ConfigInvalid(f"{path}/{key}", "missing required field")
    return doc[key]


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigInvalid(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigInvalid(path, f"expected a finite number, got {value!r}")
    return number


def _build(path: str, factory, *args, **kwargs):
    """Build a domain object; its own validation error becomes ConfigInvalid at path."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, MvGroverError) as exc:
        raise ConfigInvalid(path, str(exc)) from None


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigInvalid(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigInvalid(path, f"expected an array, got {type(value).__name__}")
    return value


def _complex_entry(value: Any, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], f"{path}/0"), _as_number(value[1], f"{path}/1"))
    raise ConfigInvalid(path, f"expected a number or [re, im] pair, got {value!r}")


def _parse_table(value: Any, g_theta: int, g_k: int, path: str, complex_ok: bool) -> np.ndarray:
    rows = _as_list(value, path)
    if len(rows) != g_theta:
        raise ConfigInvalid(path, f"expected {g_theta} rows, got {len(rows)}")
    try:
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            table = np.array(rows, dtype=np.float64)
            if table.shape == (g_theta, g_k) and np.isfinite(table).all():
                return table.astype(np.complex128) if complex_ok else table
    except (TypeError, ValueError, OverflowError):
        pass  # a row that is no list, rows of unequal length, an integer beyond the float range
    table = np.zeros((g_theta, g_k), dtype=np.complex128 if complex_ok else np.float64)
    for i, row in enumerate(rows):
        cells = _as_list(row, f"{path}/{i}")
        if len(cells) != g_k:
            raise ConfigInvalid(f"{path}/{i}", f"expected {g_k} entries, got {len(cells)}")
        for j, cell in enumerate(cells):
            if complex_ok:
                table[i, j] = _complex_entry(cell, f"{path}/{i}/{j}")
            else:
                table[i, j] = _as_number(cell, f"{path}/{i}/{j}")
    return table


def _parse_envelope(doc: Any, g_theta: int, g_k: int, path: str) -> EnvelopeSpec:
    doc = _as_dict(doc, path)
    kind = _require(doc, "kind", path)
    if kind == "constant":
        return EnvelopeSpec.constant()
    if kind == "gaussian":
        params = {}
        for key in ("center_theta", "center_k", "sigma_theta", "sigma_k"):
            if key in doc:
                params[key] = _as_number(doc[key], f"{path}/{key}")
        return _build(path, EnvelopeSpec.gaussian, **params)
    if kind == "tabulated":
        values = _require(doc, "values", path)
        return EnvelopeSpec.tabulated(
            _parse_table(values, g_theta, g_k, f"{path}/values", complex_ok=True)
        )
    raise ConfigInvalid(f"{path}/kind", f"unknown envelope kind {kind!r}")


def _parse_target(doc: Any, n_modes: int, path: str) -> TargetSpec:
    doc = _as_dict(doc, path)
    mode = _require(doc, "mode", path)
    if mode == "constant":
        if "strings" in doc:
            strings = _as_list(doc["strings"], f"{path}/strings")
            parsed = [_parse_bits(s, n_modes, f"{path}/strings/{i}") for i, s in enumerate(strings)]
            return _build(f"{path}/strings", TargetSpec.multi, parsed)
        bits = _require(doc, "bits", path)
        return TargetSpec.bits(_parse_bits(bits, n_modes, f"{path}/bits"))
    if mode == "intervals":
        sets = _as_list(_require(doc, "intervals", path), f"{path}/intervals")
        if len(sets) != n_modes:
            raise ConfigInvalid(
                f"{path}/intervals", f"expected {n_modes} per-mode sets, got {len(sets)}"
            )
        parsed_sets = []
        for i, mode_set in enumerate(sets):
            ivs = []
            for j, iv in enumerate(_as_list(mode_set, f"{path}/intervals/{i}")):
                at = f"{path}/intervals/{i}/{j}"
                pair = _as_list(iv, at)
                if len(pair) != 2:
                    raise ConfigInvalid(at, "expected a [lo, hi] pair")
                ivs.append((_as_number(pair[0], f"{at}/0"), _as_number(pair[1], f"{at}/1")))
            parsed_sets.append(ivs)
        return _build(f"{path}/intervals", TargetSpec.from_intervals, parsed_sets)
    raise ConfigInvalid(f"{path}/mode", f"expected 'constant' or 'intervals', got {mode!r}")


def _parse_bits(value: Any, n_modes: int, path: str) -> str:
    if not isinstance(value, str) or len(value) != n_modes or set(value) - {"0", "1"}:
        raise ConfigInvalid(path, f"expected a string of {n_modes} bits, got {value!r}")
    return value


def _parse_zeta(doc: Any, grid, path: str) -> np.ndarray:
    doc = _as_dict(doc, path)
    kind = _require(doc, "kind", path)
    params = _as_dict(doc.get("params", {}), f"{path}/params")
    if kind == "constant":
        value = _as_number(params.get("value", doc.get("value", 1.0)), f"{path}/value")
        return np.full((grid.g_theta, grid.g_k), value)
    if kind == "cosine":
        amplitude = _as_number(params.get("amplitude", 1.0), f"{path}/params/amplitude")
        theta_factor = _as_number(params.get("theta_factor", 1.0), f"{path}/params/theta_factor")
        k_factor = _as_number(params.get("k_factor", 0.0), f"{path}/params/k_factor")
        phase = _as_number(params.get("phase", 0.0), f"{path}/params/phase")
        theta = grid.theta_values()[:, None]
        k = grid.k_values()[None, :]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            table = amplitude * np.cos(theta_factor * theta + k_factor * k + phase)
        if not np.isfinite(table).all():
            raise ConfigInvalid(f"{path}/params", "the cosine weight leaves the float range")
        return table
    if kind == "table":
        values = _require(doc, "values", path)
        return _parse_table(values, grid.g_theta, grid.g_k, f"{path}/values", complex_ok=False)
    raise ConfigInvalid(f"{path}/kind", f"unknown weight kind {kind!r}")


def parse_config(doc: dict) -> SearchConfig:
    """Validate a JSON document and build the corresponding SearchConfig."""
    doc = _as_dict(doc, "")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigInvalid(f"/{sorted(unknown)[0]}", "unknown field")
    n_modes = _as_int(_require(doc, "n_modes", ""), "/n_modes", minimum=1)
    g_theta = _as_int(_require(doc, "g_theta", ""), "/g_theta", minimum=1)
    g_k = _as_int(_require(doc, "g_k", ""), "/g_k", minimum=1)
    grid = _build("/n_modes", make_grid, n_modes, g_theta, g_k).single_mode()
    # Each per-mode table is a quarter of the one-mode state: refused before any exists.
    _build("/g_theta", check_capacity, grid)

    envelopes_doc = _as_list(_require(doc, "envelopes", ""), "/envelopes")
    if len(envelopes_doc) != n_modes:
        raise ConfigInvalid("/envelopes", f"expected {n_modes} envelopes, got {len(envelopes_doc)}")
    envelopes = tuple(
        _parse_envelope(e, g_theta, g_k, f"/envelopes/{i}") for i, e in enumerate(envelopes_doc)
    )

    target = _parse_target(_require(doc, "target", ""), n_modes, "/target")

    zetas = None
    if doc.get("zetas") is not None:
        zetas_doc = _as_list(doc["zetas"], "/zetas")
        if len(zetas_doc) != n_modes:
            raise ConfigInvalid("/zetas", f"expected {n_modes} weight specs, got {len(zetas_doc)}")
        zetas = tuple(_parse_zeta(z, grid, f"/zetas/{i}") for i, z in enumerate(zetas_doc))

    iterations = doc.get("iterations", AUTO)
    if iterations != AUTO:
        iterations = _as_int(iterations, "/iterations", minimum=0)

    use_dilation = doc.get("use_dilation", False)
    if not isinstance(use_dilation, bool):
        raise ConfigInvalid("/use_dilation", f"expected a boolean, got {use_dilation!r}")

    if doc.get("seed") is not None:
        _as_int(doc["seed"], "/seed")  # accepted and echoed, not used

    return SearchConfig(
        n_modes=n_modes,
        g_theta=g_theta,
        g_k=g_k,
        envelopes=envelopes,
        target=target,
        zetas=zetas,
        iterations=iterations,
        use_dilation=use_dilation,
    )


def load_config(path) -> tuple[SearchConfig, dict]:
    """Read, validate, and echo a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigInvalid("", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("", f"config is not valid JSON: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, not UTF-8, an integer of too many digits, too deep
        raise ConfigInvalid("", f"cannot read config {path}: {exc}") from None
    return parse_config(doc), doc
