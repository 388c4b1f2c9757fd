"""Run configuration: JSON schema, validation, and object construction.

A run declares grids, one source (built-in kernel, feature family, or CSV
matrices), tolerances, trial count and seed.  Density expressions are limited
to a whitelist of named forms so configs stay bit-exactly reproducible.  Every
object rejects unknown fields and every parameter must be a JSON number.  For
a feature source the built kernel is the transform's ``InducedKernel``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .analysis import DEFAULT_TOL_DIAG
from .errors import ConfigError, GridMismatchError, NonHermitianKernelError
from .features import (
    FAMILY_NAMES,
    FAMILY_PARAMS,
    FeatureFamily,
    make_feature_map,
    recommended_t_interval,
)
from .grid import QUADRATURE_RULES, Grid, make_uniform_grid
from .io import load_feature_csv, load_kernel_csv
from .kernel import (
    BUILTIN_KERNEL_NAMES,
    BUILTIN_KERNEL_PARAMS,
    DEFAULT_CUTOFF_REL,
    DEFAULT_RANGE_TOL,
    KernelMatrix,
    assemble_kernel,
    builtin_kernel,
)
from .transform import build_transform

SOURCE_KEYS = ("kernel", "feature_family", "csv")

_TOLERANCE_DEFAULTS = {
    "cutoff_rel": DEFAULT_CUTOFF_REL,
    "tol_psd": 1e-10,
    "tol_diag": DEFAULT_TOL_DIAG,
    "range_tol": DEFAULT_RANGE_TOL,
}


#: the parameters each named density takes
DENSITY_PARAMS = {
    "constant": ("value",), "linear": ("intercept", "slope"), "exponential": ("rate", "scale")
}
DENSITY_NAMES = tuple(DENSITY_PARAMS)


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
    """The source's kernel (a feature source's holds both grids) and its built-in family."""

    kernel: KernelMatrix
    family: FeatureFamily | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_object(value, field: str) -> None:
    _require(isinstance(value, dict), f"{field} must be an object")


def _check_known(raw: dict, known, field: str) -> None:
    unknown = set(raw) - set(known)
    _require(not unknown, f"{field} has unknown fields: {sorted(unknown)}")


def _is_int(value) -> bool:
    # JSON true/false parse as bool, which is an int subclass; reject them
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_params(raw, known, field: str) -> None:
    """A ``params`` object: known keys only, each value a JSON number."""
    _require_object(raw, field)
    _check_known(raw, known, field)
    for key, value in raw.items():
        _require(_is_number(value), f"{field}.{key} must be a number")


def _parse_density(raw, field: str) -> tuple[str, dict]:
    _require(isinstance(raw, dict) and "name" in raw, f"{field} needs a density name")
    _check_known(raw, ("name", "params"), field)
    _require(raw["name"] in DENSITY_NAMES, f"{field}.name must be one of {DENSITY_NAMES}")
    _check_params(raw.get("params", {}), DENSITY_PARAMS[raw["name"]], f"{field}.params")
    return raw["name"], dict(raw.get("params", {}))


def check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer, from the config or ``RKHSLAB_SEED``."""
    _require(_is_int(seed) and seed >= 0, "seed must be a non-negative integer")


def _parse_grid(raw, label: str) -> GridSpec:
    _require_object(raw, f"grids.{label}")
    _require("interval" in raw, f"grids.{label}.interval is required")
    _check_known(raw, ("interval", "n", "rule", "density"), f"grids.{label}")
    interval = raw["interval"]
    _require(
        isinstance(interval, (list, tuple)) and len(interval) == 2
        and all(_is_number(x) for x in interval),
        f"grids.{label}.interval must be a pair of numbers [a, b]",
    )
    a, b = float(interval[0]), float(interval[1])
    _require(a < b, f"grids.{label}.interval must have a < b")
    _require("n" in raw, f"grids.{label}.n is required")
    n = raw["n"]
    _require(_is_int(n) and n >= 1, f"grids.{label}.n must be an integer >= 1")
    rule = raw.get("rule", "trapezoid")
    _require(rule in QUADRATURE_RULES, f"grids.{label}.rule must be one of {QUADRATURE_RULES}")
    density_name, density_params = None, {}
    if "density" in raw:
        density_name, density_params = _parse_density(raw["density"], f"grids.{label}.density")
    return GridSpec(
        interval=(a, b), n=n, rule=rule,
        density_name=density_name, density_params=density_params,
    )


def _parse_source(raw) -> tuple[str, dict]:
    _require_object(raw, "source")
    declared = [key for key in SOURCE_KEYS if key in raw]
    _check_known(raw, SOURCE_KEYS, "source")
    if len(declared) != 1:
        names = ", ".join(declared) if declared else "none"
        raise ConfigError(
            f"source must declare exactly one of {', '.join(SOURCE_KEYS)}; got: {names}"
        )
    kind = declared[0]
    params = raw[kind]
    _require_object(params, f"source.{kind}")
    if kind == "kernel":
        _check_known(params, ("name", "params"), "source.kernel")
        _require("name" in params, "source.kernel.name is required")
        _require(
            params["name"] in BUILTIN_KERNEL_NAMES,
            f"source.kernel.name must be one of {BUILTIN_KERNEL_NAMES}",
        )
        known = BUILTIN_KERNEL_PARAMS[params["name"]]
        _check_params(params.get("params", {}), known, "source.kernel.params")
    elif kind == "feature_family":
        _require("family" in params, "source.feature_family.family is required")
        _require(
            params["family"] in FAMILY_NAMES,
            f"source.feature_family.family must be one of {FAMILY_NAMES}",
        )
        known = FAMILY_PARAMS[params["family"]]
        fields = ("family", "params", "weight") if "weight" in known else ("family", "params")
        _check_known(params, fields, "source.feature_family")
        numeric = [key for key in known if key != "weight"]
        _check_params(params.get("params", {}), numeric, "source.feature_family.params")
        if params.get("weight") is not None:
            _parse_density(params["weight"], "source.feature_family.weight")
    else:
        _check_known(params, ("path", "kind", "mode"), "source.csv")
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
    _check_known(raw, ("grids", "source", "tolerances", "trials", "seed"), "config")
    _require("grids" in raw and isinstance(raw["grids"], dict), "grids is required")
    _require("E" in raw["grids"], "grids.E is required")
    grid_E = _parse_grid(raw["grids"]["E"], "E")
    grid_T = None
    if "T" in raw["grids"]:
        grid_T = _parse_grid(raw["grids"]["T"], "T")
    _check_known(raw["grids"], ("E", "T"), "grids")
    _require("source" in raw, "source is required")
    source_kind, source_params = _parse_source(raw["source"])
    if source_kind != "feature_family" and source_params.get("kind", "kernel") == "kernel":
        _require(grid_T is None, "grids.T is not read by a kernel source; remove it")

    _check_params(raw.get("tolerances", {}), _TOLERANCE_DEFAULTS, "tolerances")
    tolerances = dict(_TOLERANCE_DEFAULTS)
    for key, value in raw.get("tolerances", {}).items():
        value = float(value)
        _require(0.0 < value < 1.0, f"tolerances.{key} must lie in (0, 1)")
        tolerances[key] = value

    trials = raw.get("trials", 100)
    _require(_is_int(trials) and trials >= 1, "trials must be an integer >= 1")
    seed = raw.get("seed", 0)
    check_seed(seed)

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
    weight = params.get("weight")
    if weight is not None:
        weight = make_density(weight["name"], weight.get("params", {}))
    try:
        return FeatureFamily(family=params["family"], weight=weight, **params.get("params", {}))
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
    """Construct the source's kernel: for a feature source, the transform's induced kernel."""
    grid_E = config.grid_E.build()
    if config.source_kind == "kernel":
        params = config.source_params
        try:
            kfun = builtin_kernel(params["name"], **params.get("params", {}))
            return BuiltObjects(assemble_kernel(kfun, grid_E))
        except ValueError as exc:
            raise ConfigError(f"source.kernel: {exc}") from exc

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
        return BuiltObjects(build_transform(feature), family)

    # CSV source
    params = config.source_params
    mode = params.get("mode", "complex")
    kind = params.get("kind", "kernel")
    try:
        if kind == "kernel":
            return BuiltObjects(load_kernel_csv(params["path"], grid_E, mode))
        _require(config.grid_T is not None, "grids.T is required for a feature CSV source")
        grid_T = config.grid_T.build()
        feature = load_feature_csv(params["path"], grid_T, grid_E, mode)
        return BuiltObjects(build_transform(feature))
    except (OSError, ValueError, GridMismatchError, NonHermitianKernelError) as exc:
        raise ConfigError(f"source.csv: {exc}") from exc
