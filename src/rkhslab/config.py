"""Run configuration: JSON schema, validation, and object construction.

A run declares grids, one source (built-in kernel, feature family, or CSV
matrices), tolerances, trial count and seed.  Density expressions are limited
to a whitelist of named forms so configs stay bit-exactly reproducible.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .analysis import DEFAULT_TOL_DIAG
from .errors import ConfigError, GridMismatchError, NonHermitianKernelError
from .features import FAMILY_NAMES, FeatureFamily, make_feature_map, recommended_t_interval
from .grid import QUADRATURE_RULES, Grid, make_uniform_grid
from .io import load_feature_csv, load_kernel_csv
from .kernel import (
    BUILTIN_KERNEL_NAMES,
    DEFAULT_CUTOFF_REL,
    DEFAULT_RANGE_TOL,
    KernelMatrix,
    assemble_kernel,
    builtin_kernel,
)
from .transform import TransformOperator, build_transform

SOURCE_KEYS = ("kernel", "feature_family", "csv")

DENSITY_NAMES = ("constant", "linear", "exponential")

_TOLERANCE_DEFAULTS = {
    "cutoff_rel": DEFAULT_CUTOFF_REL,
    "tol_psd": 1e-10,
    "tol_diag": DEFAULT_TOL_DIAG,
    "range_tol": DEFAULT_RANGE_TOL,
}


def make_density(name: str, params: dict):
    """Named density factories: constant, linear (a + b t), exponential (s e^{r t})."""
    if name == "constant":
        value = float(params.get("value", 1.0))
        return lambda t: np.full_like(np.asarray(t, dtype=float), value)
    if name == "linear":
        intercept = float(params.get("intercept", 0.0))
        slope = float(params.get("slope", 1.0))
        return lambda t: intercept + slope * np.asarray(t, dtype=float)
    if name == "exponential":
        rate = float(params.get("rate", 1.0))
        scale = float(params.get("scale", 1.0))
        return lambda t: scale * np.exp(rate * np.asarray(t, dtype=float))
    raise ConfigError(f"unknown density {name!r}; choose one of {DENSITY_NAMES}")


@dataclass(frozen=True)
class GridSpec:
    interval: tuple[float, float]
    n: int
    rule: str = "trapezoid"
    density_name: str | None = None
    density_params: dict = field(default_factory=dict)

    def build(self) -> Grid:
        density = None
        if self.density_name is not None:
            density = make_density(self.density_name, self.density_params)
        try:
            return make_uniform_grid(
                self.interval[0], self.interval[1], self.n, self.rule, density
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    def echo(self) -> dict:
        out: dict[str, Any] = {
            "interval": [self.interval[0], self.interval[1]],
            "n": self.n,
            "rule": self.rule,
        }
        if self.density_name is not None:
            out["density"] = {"name": self.density_name, "params": dict(self.density_params)}
        return out


@dataclass(frozen=True)
class RunConfig:
    grid_E: GridSpec
    grid_T: GridSpec | None
    source_kind: str  # one of SOURCE_KEYS
    source_params: dict
    cutoff_rel: float
    tol_psd: float
    tol_diag: float
    range_tol: float
    trials: int
    seed: int

    def echo(self) -> dict:
        grids: dict[str, Any] = {"E": self.grid_E.echo()}
        if self.grid_T is not None:
            grids["T"] = self.grid_T.echo()
        return {
            "grids": grids,
            "source": {self.source_kind: dict(self.source_params)},
            "tolerances": {
                "cutoff_rel": self.cutoff_rel,
                "tol_psd": self.tol_psd,
                "tol_diag": self.tol_diag,
                "range_tol": self.range_tol,
            },
            "trials": self.trials,
            "seed": self.seed,
        }


@dataclass
class BuiltObjects:
    grid_E: Grid
    grid_T: Grid | None
    kernel: KernelMatrix
    operator: TransformOperator | None
    family: FeatureFamily | None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_object(value, field: str) -> None:
    _require(isinstance(value, dict), f"{field} must be an object")


def _is_int(value) -> bool:
    # JSON true/false parse as bool, which is an int subclass; reject them
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_grid(raw, label: str) -> GridSpec:
    _require_object(raw, f"grids.{label}")
    _require("interval" in raw, f"grids.{label}.interval is required")
    interval = raw["interval"]
    _require(
        isinstance(interval, (list, tuple)) and len(interval) == 2,
        f"grids.{label}.interval must be a pair [a, b]",
    )
    a, b = float(interval[0]), float(interval[1])
    _require(a < b, f"grids.{label}.interval must have a < b")
    _require("n" in raw, f"grids.{label}.n is required")
    n = raw["n"]
    _require(_is_int(n) and n >= 1, f"grids.{label}.n must be an integer >= 1")
    rule = raw.get("rule", "trapezoid")
    _require(rule in QUADRATURE_RULES, f"grids.{label}.rule must be one of {QUADRATURE_RULES}")
    density_name = None
    density_params: dict = {}
    if "density" in raw:
        dens = raw["density"]
        _require(isinstance(dens, dict) and "name" in dens, f"grids.{label}.density needs a name")
        density_name = dens["name"]
        _require(
            density_name in DENSITY_NAMES,
            f"grids.{label}.density.name must be one of {DENSITY_NAMES}",
        )
        _require_object(dens.get("params", {}), f"grids.{label}.density.params")
        density_params = dict(dens.get("params", {}))
    known = {"interval", "n", "rule", "density"}
    unknown = set(raw) - known
    _require(not unknown, f"grids.{label} has unknown fields: {sorted(unknown)}")
    return GridSpec(
        interval=(a, b), n=n, rule=rule,
        density_name=density_name, density_params=density_params,
    )


def _parse_source(raw) -> tuple[str, dict]:
    _require_object(raw, "source")
    declared = [key for key in SOURCE_KEYS if key in raw]
    unknown = set(raw) - set(SOURCE_KEYS)
    _require(not unknown, f"source has unknown fields: {sorted(unknown)}")
    if len(declared) != 1:
        names = ", ".join(declared) if declared else "none"
        raise ConfigError(
            f"source must declare exactly one of {', '.join(SOURCE_KEYS)}; got: {names}"
        )
    kind = declared[0]
    params = raw[kind]
    _require_object(params, f"source.{kind}")
    if kind == "kernel":
        _require("name" in params, "source.kernel.name is required")
        _require(
            params["name"] in BUILTIN_KERNEL_NAMES,
            f"source.kernel.name must be one of {BUILTIN_KERNEL_NAMES}",
        )
        _require_object(params.get("params", {}), "source.kernel.params")
    elif kind == "feature_family":
        _require("family" in params, "source.feature_family.family is required")
        _require(
            params["family"] in FAMILY_NAMES,
            f"source.feature_family.family must be one of {FAMILY_NAMES}",
        )
        _require_object(params.get("params", {}), "source.feature_family.params")
    else:
        _require("path" in params, "source.csv.path is required")
        csv_kind = params.get("kind", "kernel")
        _require(
            csv_kind in ("kernel", "feature"),
            "source.csv.kind must be 'kernel' or 'feature'",
        )
        _require(
            params.get("mode", "complex") in ("real", "complex"),
            "source.csv.mode must be 'real' or 'complex'",
        )
    return kind, dict(params)


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Raises ``ConfigError`` with the offending field named.
    """
    _require(isinstance(raw, dict), "config must be a JSON object")
    known = {"grids", "source", "tolerances", "trials", "seed"}
    unknown = set(raw) - known
    _require(not unknown, f"config has unknown fields: {sorted(unknown)}")
    _require("grids" in raw and isinstance(raw["grids"], dict), "grids is required")
    _require("E" in raw["grids"], "grids.E is required")
    grid_E = _parse_grid(raw["grids"]["E"], "E")
    grid_T = None
    if "T" in raw["grids"]:
        grid_T = _parse_grid(raw["grids"]["T"], "T")
    unknown_grids = set(raw["grids"]) - {"E", "T"}
    _require(not unknown_grids, f"grids has unknown entries: {sorted(unknown_grids)}")
    _require("source" in raw, "source is required")
    source_kind, source_params = _parse_source(raw["source"])

    _require_object(raw.get("tolerances", {}), "tolerances")
    tolerances = dict(_TOLERANCE_DEFAULTS)
    for key, value in raw.get("tolerances", {}).items():
        _require(key in _TOLERANCE_DEFAULTS, f"tolerances.{key} is not a known tolerance")
        value = float(value)
        _require(0.0 < value < 1.0, f"tolerances.{key} must lie in (0, 1)")
        tolerances[key] = value

    trials = raw.get("trials", 100)
    _require(_is_int(trials) and trials >= 1, "trials must be an integer >= 1")
    seed = raw.get("seed", 0)
    _require(_is_int(seed), "seed must be an integer")

    return RunConfig(
        grid_E=grid_E,
        grid_T=grid_T,
        source_kind=source_kind,
        source_params=source_params,
        trials=trials,
        seed=seed,
        **tolerances,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _family_from_params(params: dict) -> FeatureFamily:
    weight = None
    if "weight" in params and params["weight"] is not None:
        spec = params["weight"]
        _require(
            isinstance(spec, dict) and "name" in spec,
            "source.feature_family.weight needs a density name",
        )
        _require(
            spec["name"] in DENSITY_NAMES,
            f"feature weight name must be one of {DENSITY_NAMES}",
        )
        _require_object(spec.get("params", {}), "source.feature_family.weight.params")
        weight = make_density(spec["name"], dict(spec.get("params", {})))
    family_params = dict(params.get("params", {}))
    try:
        return FeatureFamily(
            family=params["family"],
            band=family_params.get("band"),
            sigma=family_params.get("sigma"),
            modes=family_params.get("modes"),
            weight=weight,
        )
    except ValueError as exc:
        raise ConfigError(f"feature_family: {exc}") from exc


def _default_t_spec(family: FeatureFamily, config: RunConfig) -> GridSpec:
    try:
        interval = recommended_t_interval(family, config.grid_E.interval)
    except ValueError as exc:
        raise ConfigError(f"grids.T is required: {exc}") from exc
    n = family.modes if family.modes is not None else config.grid_E.n
    return GridSpec(interval=interval, n=n, rule=config.grid_E.rule)


def build_objects(config: RunConfig) -> BuiltObjects:
    """Construct grids, kernel, and (for feature sources) the transform."""
    grid_E = config.grid_E.build()
    if config.source_kind == "kernel":
        params = config.source_params
        try:
            kfun = builtin_kernel(params["name"], **params.get("params", {}))
            kernel = assemble_kernel(kfun, grid_E)
        except ValueError as exc:
            raise ConfigError(f"source.kernel: {exc}") from exc
        return BuiltObjects(grid_E=grid_E, grid_T=None, kernel=kernel, operator=None, family=None)

    if config.source_kind == "feature_family":
        family = _family_from_params(config.source_params)
        t_spec = config.grid_T or _default_t_spec(family, config)
        grid_T = t_spec.build()
        try:
            feature = make_feature_map(family, grid_T, grid_E)
        except np.linalg.LinAlgError:
            raise  # a numerical failure, not a config error
        except ValueError as exc:
            raise ConfigError(f"feature_family: {exc}") from exc
        op = build_transform(feature)
        return BuiltObjects(
            grid_E=grid_E, grid_T=grid_T, kernel=op.induced, operator=op, family=family
        )

    # CSV source
    params = config.source_params
    mode = params.get("mode", "complex")
    kind = params.get("kind", "kernel")
    try:
        if kind == "kernel":
            kernel = load_kernel_csv(params["path"], grid_E, mode)
            return BuiltObjects(
                grid_E=grid_E, grid_T=None, kernel=kernel, operator=None, family=None
            )
        _require(config.grid_T is not None, "grids.T is required for a feature CSV source")
        grid_T = config.grid_T.build()
        feature = load_feature_csv(params["path"], grid_T, grid_E, mode)
        op = build_transform(feature)
        return BuiltObjects(
            grid_E=grid_E, grid_T=grid_T, kernel=op.induced, operator=op, family=None
        )
    except (OSError, ValueError, GridMismatchError, NonHermitianKernelError) as exc:
        raise ConfigError(f"source.csv: {exc}") from exc
