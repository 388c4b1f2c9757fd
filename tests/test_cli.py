import json
import warnings

import numpy as np
import pytest

import rkhslab as rl
from rkhslab.cli import main
from rkhslab.config import build_objects, load_config, parse_config
from rkhslab.io import save_function_csv, save_matrix_csv


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def indicator_config(n=120, trials=20, seed=7):
    return {
        "grids": {
            "E": {"interval": [0.0, 1.0], "n": n, "rule": "midpoint"},
            "T": {"interval": [0.0, 1.0], "n": n, "rule": "midpoint"},
        },
        "source": {"feature_family": {"family": "indicator"}},
        "trials": trials,
        "seed": seed,
    }


class TestConfigParsing:
    def test_two_sources_rejected_with_names(self):
        doc = indicator_config()
        doc["source"]["kernel"] = {"name": "brownian"}
        with pytest.raises(rl.ConfigError) as err:
            parse_config(doc)
        assert "kernel" in str(err.value) and "feature_family" in str(err.value)

    def test_no_source_rejected(self):
        doc = indicator_config()
        doc["source"] = {}
        with pytest.raises(rl.ConfigError, match="exactly one"):
            parse_config(doc)

    def test_tolerance_range_enforced(self):
        doc = indicator_config()
        doc["tolerances"] = {"cutoff_rel": 2.0}
        with pytest.raises(rl.ConfigError, match="cutoff_rel"):
            parse_config(doc)

    def test_unknown_fields_named(self):
        doc = indicator_config()
        doc["grdis"] = {}
        with pytest.raises(rl.ConfigError, match="grdis"):
            parse_config(doc)

    def test_trials_validated(self):
        doc = indicator_config()
        doc["trials"] = 0
        with pytest.raises(rl.ConfigError, match="trials"):
            parse_config(doc)

    @pytest.mark.parametrize("seed", [-3, 1.5, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        doc = indicator_config()
        doc["seed"] = seed
        with pytest.raises(rl.ConfigError, match="seed must be a non-negative integer"):
            parse_config(doc)

    def test_default_t_grid_from_family(self, tmp_path):
        doc = indicator_config()
        del doc["grids"]["T"]
        config = parse_config(doc)
        built = build_objects(config)
        assert built.kernel.grid_T.size == built.kernel.grid_E.size
        assert built.kernel.grid_T.interval == built.kernel.grid_E.interval

    def test_density_whitelist(self):
        doc = indicator_config()
        doc["grids"]["E"]["density"] = {"name": "parabola"}
        with pytest.raises(rl.ConfigError, match="density"):
            parse_config(doc)

    def test_named_density_applies(self):
        doc = indicator_config()
        doc["grids"]["E"]["density"] = {"name": "linear", "params": {"intercept": 1.0, "slope": 1.0}}
        config = parse_config(doc)
        built = build_objects(config)
        # total mass is integral of 1 + t over [0, 1] = 1.5
        assert built.kernel.grid_E.weights.sum() == pytest.approx(1.5, abs=1e-6)


def _with(doc, path, value):
    """Copy of ``doc`` with the entry at the key ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return doc


def kernel_config(name, params=None, n=40):
    kernel = {"name": name} if params is None else {"name": name, "params": params}
    return {
        "grids": {"E": {"interval": [0.0, 1.0], "n": n, "rule": "trapezoid"}},
        "source": {"kernel": kernel},
        "trials": 5,
        "seed": 1,
    }


MALFORMED_SHAPES = {
    "kernel-params": kernel_config("gaussian", params=[0.2]),
    "family-params": _with(
        indicator_config(), ("source", "feature_family"),
        {"family": "gaussian", "params": [0.1]},
    ),
    "tolerances": _with(indicator_config(), ("tolerances",), [1e-12]),
    "density-params": _with(
        indicator_config(), ("grids", "E", "density"), {"name": "linear", "params": [1.0]}
    ),
    "weight-params": _with(
        indicator_config(), ("source", "feature_family"),
        {"family": "orthonormal_diagonal", "weight": {"name": "linear", "params": [1.0]}},
    ),
}


def _family(family, params=None, **fields):
    source = {"family": family, **fields}
    if params is not None:
        source["params"] = params
    return _with(indicator_config(), ("source", "feature_family"), source)


def _density(params):
    density = {"name": "linear", "params": params}
    return _with(indicator_config(), ("grids", "E", "density"), density)


#: a non-number where the config needs a number, or a misspelled key, and the error it gives
BAD_FIELDS = {
    "tolerance-null": (
        _with(indicator_config(), ("tolerances",), {"cutoff_rel": None}),
        "tolerances.cutoff_rel must be a number",
    ),
    "interval-null": (
        _with(indicator_config(), ("grids", "E", "interval"), [None, 1]),
        "grids.E.interval must be a pair of numbers",
    ),
    "interval-bool": (
        _with(indicator_config(), ("grids", "E", "interval"), [False, 1]),
        "grids.E.interval must be a pair of numbers",
    ),
    "lengthscale-null": (
        kernel_config("gaussian", params={"lengthscale": None}),
        "source.kernel.params.lengthscale must be a number",
    ),
    "lengthscale-list": (
        kernel_config("gaussian", params={"lengthscale": [1]}),
        "source.kernel.params.lengthscale must be a number",
    ),
    "lengthscale-bool": (
        kernel_config("gaussian", params={"lengthscale": True}),
        "source.kernel.params.lengthscale must be a number",
    ),
    "sigma-string": (
        _family("gaussian", {"sigma": "x"}),
        "source.feature_family.params.sigma must be a number",
    ),
    "slope-null": (
        _density({"intercept": 1.0, "slope": None}),
        "grids.E.density.params.slope must be a number",
    ),
    "weight-slope-null": (
        _family("orthonormal_diagonal", weight={"name": "linear", "params": {"slope": None}}),
        "source.feature_family.weight.params.slope must be a number",
    ),
    "kernel-params-key": (
        kernel_config("gaussian", params={"lenghtscale": 0.01}),
        "source.kernel.params has unknown fields: ['lenghtscale']",
    ),
    "kernel-params-other-kernel": (
        kernel_config("brownian", params={"lengthscale": 0.01}),
        "source.kernel.params has unknown fields: ['lengthscale']",
    ),
    "kernel-key": (
        _with(kernel_config("gaussian"), ("source", "kernel", "parms"), {"lengthscale": 0.01}),
        "source.kernel has unknown fields: ['parms']",
    ),
    "family-key": (
        _family("gaussian", {"sigma": 0.1}, wieght=None),
        "source.feature_family has unknown fields: ['wieght']",
    ),
    "family-params-key": (
        _family("gaussian", {"sigma": 0.1, "sgima": 0.2}),
        "source.feature_family.params has unknown fields: ['sgima']",
    ),
    "density-key": (
        _with(indicator_config(), ("grids", "E", "density"), {"name": "linear", "parms": {}}),
        "grids.E.density has unknown fields: ['parms']",
    ),
    "density-params-key": (
        _density({"intercept": 1.0, "slop": 2.0}),
        "grids.E.density.params has unknown fields: ['slop']",
    ),
    "weight-params-key": (
        _family("orthonormal_diagonal", weight={"name": "linear", "params": {"intercep": 1.0}}),
        "source.feature_family.weight.params has unknown fields: ['intercep']",
    ),
    "family-params-other-family": (
        _family("indicator", {"sigma": 0.1, "band": 3.0}),
        "source.feature_family.params has unknown fields: ['band', 'sigma']",
    ),
    "family-weight-other-family": (
        _family("indicator", {"sigma": 0.1, "band": 3.0},
                weight={"name": "linear", "params": {"slope": 5.0}}),
        "source.feature_family has unknown fields: ['weight']",
    ),
    "fourier-sigma": (
        _family("fourier", {"band": 3.0, "sigma": 0.1}),
        "source.feature_family.params has unknown fields: ['sigma']",
    ),
    "gaussian-band": (
        _family("gaussian", {"sigma": 0.1, "band": 3.0}),
        "source.feature_family.params has unknown fields: ['band']",
    ),
    "gaussian-weight": (
        _family("gaussian", {"sigma": 0.1}, weight={"name": "constant"}),
        "source.feature_family has unknown fields: ['weight']",
    ),
    "orthonormal-sigma": (
        _family("orthonormal_diagonal", {"sigma": 0.1}),
        "source.feature_family.params has unknown fields: ['sigma']",
    ),
}


@pytest.mark.parametrize("family, params, weight", [
    ("fourier", {"band": 3.0, "modes": 40}, None),
    ("indicator", {"modes": 40}, None),
    ("gaussian", {"sigma": 0.1, "modes": 40}, None),
    ("orthonormal_diagonal", {"modes": 40}, {"name": "linear", "params": {"slope": 1.0}}),
])
def test_each_family_accepts_its_fields(family, params, weight):
    fields = {} if weight is None else {"weight": weight}
    config = parse_config(_family(family, params, **fields))
    assert config.source_params["params"] == params
MALFORMED_SHAPES.update((key, doc) for key, (doc, _) in BAD_FIELDS.items())


@pytest.mark.parametrize("doc", MALFORMED_SHAPES.values(), ids=MALFORMED_SHAPES.keys())
def test_malformed_shape_is_config_error(tmp_path, capsys, doc):
    code = main(["verify", "--config", str(write_config(tmp_path, doc))])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_config_error_names_the_field(tmp_path, capsys, doc, message):
    assert main(["analyze", "--config", str(write_config(tmp_path, doc))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source", ["kernel", "csv"])
def test_t_grid_on_kernel_source_is_config_error(tmp_path, capsys, source):
    doc = kernel_config("brownian", n=50)
    if source == "csv":
        grid = rl.make_uniform_grid(0.0, 1.0, 50, "trapezoid")
        path = tmp_path / "kernel.csv"
        save_matrix_csv(rl.assemble_kernel(rl.builtin_kernel("brownian"), grid).gram, path, "real")
        doc["source"] = {"csv": {"kind": "kernel", "path": str(path), "mode": "real"}}
    assert main(["verify", "--config", str(write_config(tmp_path, doc))]) == 0
    doc["grids"]["T"] = {"interval": [0.0, 1.0], "n": 7, "rule": "trapezoid"}
    assert main(["verify", "--config", str(write_config(tmp_path, doc))]) == 2
    assert "grids.T is not read by a kernel source" in capsys.readouterr().err


@pytest.mark.parametrize("family, params, interval", [
    ("fourier", {"band": 3.0}, [-3.0, 3.0]),
    ("indicator", {}, [0.0, 1.0]),
    ("gaussian", {"sigma": 0.1}, [-0.8, 1.8]),
], ids=["fourier", "indicator", "gaussian"])
@pytest.mark.parametrize("modes, code", [(7, 2), (40, 0)], ids=["mismatched", "matching"])
def test_modes_must_match_explicit_t_grid(tmp_path, capsys, family, params, interval, modes, code):
    doc = _family(family, {**params, "modes": modes})
    doc["grids"]["T"] = {"interval": interval, "n": 40, "rule": "midpoint"}
    doc["trials"] = 5
    assert main(["analyze", "--config", str(write_config(tmp_path, doc))]) == code
    if code == 2:
        assert "mode count 7 does not match grid T size 40" in capsys.readouterr().err


def test_misspelled_csv_key_is_config_error(tmp_path, capsys):
    grid = rl.make_uniform_grid(0.0, 1.0, 40, "trapezoid")
    path = tmp_path / "kernel.csv"
    save_matrix_csv(rl.assemble_kernel(rl.builtin_kernel("brownian"), grid).gram, path, "real")
    source = {"csv": {"path": str(path), "mdoe": "real"}}
    doc = _with(kernel_config("brownian"), ("source",), source)
    assert main(["analyze", "--config", str(write_config(tmp_path, doc))]) == 2
    assert "source.csv has unknown fields: ['mdoe']" in capsys.readouterr().err


#: a JSON literal that is no finite float, where the config needs a number, and the field named
NON_FINITE = {
    "interval-1e309": (indicator_config(), ("grids", "E", "interval"), [0.0, "@"], "1e309",
                       "grids.E.interval must be a pair of numbers"),
    "interval-minus-infinity": (indicator_config(), ("grids", "T", "interval"), ["@", 1.0],
                                "-Infinity", "grids.T.interval must be a pair of numbers"),
    "lengthscale-nan": (kernel_config("gaussian"), ("source", "kernel", "params"),
                        {"lengthscale": "@"}, "NaN", "source.kernel.params.lengthscale"),
    "lengthscale-long-integer": (kernel_config("gaussian"), ("source", "kernel", "params"),
                                 {"lengthscale": "@"}, "1" + "0" * 400,
                                 "source.kernel.params.lengthscale"),
    "intercept-nan": (_density({"slope": 1.0}), ("grids", "E", "density", "params", "intercept"),
                      "@", "NaN", "grids.E.density.params.intercept"),
    "sigma-infinity": (_family("gaussian", {}), ("source", "feature_family", "params", "sigma"),
                       "@", "Infinity", "source.feature_family.params.sigma"),
    "weight-slope-1e309": (_family("orthonormal_diagonal", weight={"name": "linear"}),
                           ("source", "feature_family", "weight", "params"), {"slope": "@"},
                           "1e309", "source.feature_family.weight.params.slope"),
    "cutoff-nan": (indicator_config(), ("tolerances",), {"cutoff_rel": "@"}, "NaN",
                   "tolerances.cutoff_rel"),
    "width-beyond-float-range": (indicator_config(), ("grids", "E", "interval"), [-1e308, "@"],
                                 "1e308", "grids.E.interval must have a finite width"),
}


@pytest.mark.parametrize("doc, path, value, literal, message", NON_FINITE.values(),
                         ids=NON_FINITE.keys())
def test_non_finite_number_is_config_error(tmp_path, capsys, doc, path, value, literal, message):
    # the literal is written into the JSON text as is: NaN, Infinity and 1e309 all parse as floats
    text = json.dumps(_with(doc, path, value)).replace('"@"', literal)
    assert literal in text
    config = tmp_path / "config.json"
    config.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--config", str(config)])
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("modes", [7.5, 40.0, 0, -3])
def test_modes_must_be_a_positive_integer(tmp_path, capsys, modes):
    doc = _family("indicator", {"modes": modes})
    doc["grids"]["T"]["n"] = 40
    assert main(["analyze", "--config", str(write_config(tmp_path, doc))]) == 2
    assert "source.feature_family.params.modes must be an integer >= 1" in capsys.readouterr().err


class TestVerifyCommand:
    def test_indicator_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, indicator_config())
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        fact = next(c for c in report["criteria"] if c["name"] == "factorization")
        assert fact["value"] <= 1e-14
        assert report["schema_version"] == 1

    def test_every_residual_carries_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, indicator_config())
        out = tmp_path / "report.json"
        main(["verify", "--config", str(cfg), "--out", str(out)])
        report = json.loads(out.read_text())
        for c in report["criteria"]:
            assert set(c) == {"name", "value", "tolerance", "passed", "note"}
            if c["passed"] is not None:
                assert c["tolerance"] is not None

    def test_negative_kernel_exits_one(self, tmp_path):
        doc = {
            "grids": {"E": {"interval": [0.0, 1.0], "n": 25, "rule": "midpoint"}},
            "source": {"kernel": {"name": "constant", "params": {"value": -1.0}}},
            "trials": 5,
            "seed": 1,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["psd"]["passed"] is False
        assert report["passed"] is False

    def test_two_sources_exit_two(self, tmp_path, capsys):
        doc = indicator_config()
        doc["source"]["kernel"] = {"name": "brownian"}
        cfg = write_config(tmp_path, doc)
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "kernel" in err and "feature_family" in err

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_kernel_source_report(self, tmp_path):
        doc = {
            "grids": {"E": {"interval": [0.0, 1.0], "n": 80, "rule": "trapezoid"}},
            "source": {"kernel": {"name": "brownian"}},
            "trials": 20,
            "seed": 3,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["injectivity"] is None
        assert report["weighted_l2"]["is_weighted_l2"] is False
        repro = next(c for c in report["criteria"] if c["name"] == "reproducing")
        assert repro["passed"] is True

    def test_determinism_excluding_timings(self, tmp_path):
        cfg = write_config(tmp_path, indicator_config())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, indicator_config(seed=7))
        out = tmp_path / "report.json"
        monkeypatch.setenv("RKHSLAB_SEED", "4242")
        main(["verify", "--config", str(cfg), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["seed"] == 4242
        assert report["config"]["seed"] == 4242

    def test_bad_env_seed_exit_two(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, indicator_config())
        monkeypatch.setenv("RKHSLAB_SEED", "not-a-number")
        assert main(["verify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("source", ["config", "env"])
    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_negative_seed_exit_two(self, tmp_path, monkeypatch, capsys, command, source):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, indicator_config(n=20, seed=-3 if source == "config" else 0))
        if source == "env":
            monkeypatch.setenv("RKHSLAB_SEED", "-1")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_kernel_report_is_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, kernel_config("constant", params={"value": 0.0}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["conditioning"]["numerical_rank"] == 0
        assert report["conditioning"]["condition_number"] is None

    def test_stdout_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, indicator_config(n=40, trials=5))
        code = main(["verify", "--config", str(cfg)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "verify"


class TestInvertCommand:
    def make_data(self, tmp_path, doc, fn=None, seed=11):
        cfg = write_config(tmp_path, doc)
        built = build_objects(load_config(cfg))
        if fn is None:
            rng = np.random.default_rng(seed)
            F0 = rl.DiscreteFunction(rng.standard_normal(built.kernel.grid_T.size), built.kernel.grid_T)
            data = rl.apply_forward(built.kernel, F0)
        else:
            F0 = None
            data = rl.sample_function(built.kernel.grid_E, fn)
        data_path = tmp_path / "data.csv"
        save_function_csv(data, data_path)
        return cfg, data_path, built, F0

    def test_roundtrip(self, tmp_path):
        cfg, data, built, F0 = self.make_data(tmp_path, indicator_config())
        out = tmp_path / "rec.csv"
        rep_path = tmp_path / "inv.json"
        code = main(["invert", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--report", str(rep_path)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        rel = np.linalg.norm(rows[:, 1] - F0.values) / np.linalg.norm(F0.values)
        assert rel <= 1e-6
        report = json.loads(rep_path.read_text())
        assert report["range_violation"] is False

    def test_zero_data(self, tmp_path):
        cfg, data, built, _ = self.make_data(tmp_path, indicator_config(),
                                             fn=lambda p: 0.0 * p)
        out = tmp_path / "rec.csv"
        code = main(["invert", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] == 0) and np.all(rows[:, 2] == 0)

    def test_out_of_range_exit_three(self, tmp_path):
        doc = indicator_config()
        doc["grids"]["T"] = {"interval": [0.0, 1.0], "n": 1, "rule": "midpoint"}
        doc["source"] = {"csv": {"kind": "feature", "path": str(tmp_path / "H.csv"),
                                 "mode": "real"}}
        np.savetxt(tmp_path / "H.csv", np.ones((1, 120)), delimiter=",", fmt="%.17g")
        cfg, data, built, _ = self.make_data(tmp_path, doc, fn=lambda p: p)
        out = tmp_path / "rec.csv"
        rep_path = tmp_path / "inv.json"
        code = main(["invert", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--report", str(rep_path)])
        assert code == 3
        report = json.loads(rep_path.read_text())
        assert report["range_violation"] is True
        assert report["range_residual"] >= 0.1

    def test_not_injective_exit_three(self, tmp_path):
        # s_min / s_max = 1e-8 lies below the solves' cutoff sqrt(1e-12): the
        # direction they would drop must not count toward the rank
        s = np.ones(20)
        s[-1] = 1e-8
        np.savetxt(tmp_path / "H.csv", np.diag(s), delimiter=",", fmt="%.17g")
        doc = indicator_config(n=20)
        doc["source"] = {"csv": {"kind": "feature", "path": str(tmp_path / "H.csv"),
                                 "mode": "real"}}
        cfg, data, built, _ = self.make_data(tmp_path, doc)
        out = tmp_path / "rec.csv"
        rep_path = tmp_path / "inv.json"
        code = main(["invert", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--report", str(rep_path)])
        assert code == 3
        report = json.loads(rep_path.read_text())
        assert report["error"] == "transform is not injective"
        assert report["injectivity"] == {"injective": False, "numerical_rank": 19,
                                         "deficiency": 1}
        assert not out.exists()

    def test_kernel_source_rejected(self, tmp_path, capsys):
        grid = rl.make_uniform_grid(0, 1, 30, "midpoint")
        data = tmp_path / "d.csv"
        save_function_csv(rl.sample_function(grid, lambda p: p), data)
        kernel_csv = tmp_path / "K.csv"
        gram = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid).gram
        save_matrix_csv(gram, kernel_csv, mode="real")
        for source in ({"kernel": {"name": "brownian"}},
                       {"csv": {"kind": "kernel", "path": str(kernel_csv), "mode": "real"}}):
            doc = {
                "grids": {"E": {"interval": [0.0, 1.0], "n": 30, "rule": "midpoint"}},
                "source": source,
                "seed": 1,
            }
            cfg = write_config(tmp_path, doc)
            out = tmp_path / "rec.csv"
            code = main(["invert", "--config", str(cfg), "--data", str(data), "--out", str(out)])
            assert code == 2
            assert "invert needs a feature source" in capsys.readouterr().err
            assert not out.exists()

    def test_misaligned_data_exit_two(self, tmp_path):
        cfg, _, built, _ = self.make_data(tmp_path, indicator_config())
        other = rl.make_uniform_grid(0, 1, 60, "midpoint")
        bad = tmp_path / "bad.csv"
        save_function_csv(rl.sample_function(other, lambda p: p), bad)
        code = main(["invert", "--config", str(cfg), "--data", str(bad),
                     "--out", str(tmp_path / "rec.csv")])
        assert code == 2


class TestAnalyzeCommand:
    def test_orthonormal_family_verdict(self, tmp_path):
        doc = {
            "grids": {
                "E": {"interval": [0.0, 1.0], "n": 60, "rule": "trapezoid"},
                "T": {"interval": [0.0, 1.0], "n": 60, "rule": "trapezoid"},
            },
            "source": {"feature_family": {"family": "orthonormal_diagonal"}},
            "seed": 5,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "verdict.json"
        code = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["weighted_l2"]["is_weighted_l2"] is True
        assert report["weighted_l2"]["offdiag_ratio"] <= 1e-10
        v = np.array(report["weighted_l2"]["weight_v"])
        w = np.array(report["weighted_l2"]["weight_w"])
        assert np.max(np.abs(v * w - 1)) <= 1e-10

    def test_brownian_verdict_no(self, tmp_path):
        doc = {
            "grids": {"E": {"interval": [0.0, 1.0], "n": 60, "rule": "midpoint"}},
            "source": {"kernel": {"name": "brownian"}},
            "seed": 5,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "verdict.json"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["weighted_l2"]["is_weighted_l2"] is False
        assert report["weighted_l2"]["offdiag_ratio"] >= 1e-2


class TestCsvKernelSource:
    def test_verify_from_kernel_csv(self, tmp_path):
        grid = rl.make_uniform_grid(0, 1, 40, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        from rkhslab.io import save_kernel_csv

        path = tmp_path / "K.csv"
        save_kernel_csv(K, path, mode="real")
        doc = {
            "grids": {"E": {"interval": [0.0, 1.0], "n": 40, "rule": "midpoint"}},
            "source": {"csv": {"kind": "kernel", "path": str(path), "mode": "real"}},
            "trials": 10,
            "seed": 2,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True


BAD_CSV_SOURCES = {
    "kernel-shape": ("kernel", np.ones((30, 30)), "holds a (30, 30) matrix"),
    "feature-shape": ("feature", np.ones((30, 40)), "holds a (30, 40) matrix"),
    "non-hermitian-kernel": ("kernel", np.triu(np.ones((40, 40))), "not Hermitian"),
}


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize(
    "kind, matrix, message", BAD_CSV_SOURCES.values(), ids=BAD_CSV_SOURCES.keys()
)
def test_bad_csv_source_is_config_error(tmp_path, capsys, command, kind, matrix, message):
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path, mode="real")
    grid = {"interval": [0.0, 1.0], "n": 40, "rule": "midpoint"}
    grids = {"E": grid, "T": grid} if kind == "feature" else {"E": grid}
    doc = {
        "grids": grids,
        "source": {"csv": {"kind": kind, "path": str(path), "mode": "real"}},
        "trials": 5,
        "seed": 1,
    }
    code = main([command, "--config", str(write_config(tmp_path, doc))])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: source.csv:") and message in err


@pytest.mark.parametrize("command", ["verify", "invert", "analyze"])
@pytest.mark.parametrize("n_T, n_E", [(40, 40), (20, 40), (520, 1040)],
                         ids=["square", "wide", "wide-520"])
def test_overflowing_feature_csv_is_config_error(tmp_path, capsys, command, n_T, n_E):
    # the induced form of a 1e200-scaled map overflows: the gram on the square
    # route, R Rᴴ on the small wide one, G = B Bᴴ from |T| = 512; each is a
    # config error, without a warning
    path = tmp_path / "H.csv"
    save_matrix_csv(1e200 * np.random.default_rng(0).standard_normal((n_T, n_E)), path, mode="real")
    grid = {"interval": [0.0, 1.0], "n": n_E, "rule": "midpoint"}
    doc = {
        "grids": {"E": grid, "T": {**grid, "n": n_T}},
        "source": {"csv": {"kind": "feature", "path": str(path), "mode": "real"}},
        "trials": 5,
        "seed": 1,
    }
    argv = [command, "--config", str(write_config(tmp_path, doc))]
    if command == "invert":
        data = tmp_path / "d.csv"
        save_function_csv(rl.sample_function(rl.make_uniform_grid(0, 1, n_E, "midpoint"),
                                             lambda p: p), data)
        argv += ["--data", str(data), "--out", str(tmp_path / "rec.csv")]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "kernel produced non-finite values" in err


class TestNumericalErrors:
    def test_eigh_non_convergence_exit_four(self, tmp_path, monkeypatch, capsys):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        cfg = write_config(tmp_path, indicator_config(n=40, trials=5))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "did not converge" in err

    def test_invert_eigh_non_convergence_exit_four(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, indicator_config(n=40))
        grid = rl.make_uniform_grid(0, 1, 40, "midpoint")
        data = tmp_path / "d.csv"
        save_function_csv(rl.sample_function(grid, lambda p: p), data)

        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = main(["invert", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "rec.csv")])
        assert code == 4
        assert capsys.readouterr().err.startswith("numerical error:")

    def test_feature_map_qr_failure_exit_four(self, tmp_path, monkeypatch, capsys):
        def failing_qr(*args, **kwargs):
            raise np.linalg.LinAlgError("QR did not converge")

        monkeypatch.setattr(np.linalg, "qr", failing_qr)
        doc = indicator_config(n=8, trials=5)
        doc["source"] = {"feature_family": {"family": "orthonormal_diagonal"}}
        cfg = write_config(tmp_path, doc)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "QR did not converge" in err

    def test_trial_range_violation_exit_four(self, tmp_path, capsys):
        doc = {
            "grids": {"E": {"interval": [0.0, 1.0], "n": 200, "rule": "trapezoid"}},
            "source": {"kernel": {"name": "sinc"}},
            "tolerances": {"range_tol": 1e-300},
            "trials": 20,
            "seed": 3,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "range violation" in err
        assert not out.exists()
