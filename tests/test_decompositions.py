"""How often each command decomposes and solves, and the batched trial suites of verify.

Every command decomposes the weighted kernel form at most once (cached on the
kernel) and never runs an SVD: a feature source reads its injectivity rank
from the same decomposition as its solves.  That is one ``eigh``, or, for a
positive definite form from n = 512 or a wide map's positive definite
|T| x |T| gram from |T| = 512, one Cholesky: unshifted with one
``eigvalsh`` where the spectrum is read (``verify``), and where only the
rank is read (``invert``) shifted, certifying the rank and solving.
``verify`` makes one batched solve for the reproducing and point-evaluation
trials and, on a feature source, one for the transform trials; the norms of
the kernel sections come in closed form from the cached decomposition,
without a solve.  Its report values must match a per-trial and per-section
recomputation with the library's single-function routines.  An induced
kernel forms its gram once, where it is first read, and a wide ``invert``
never does.
"""
import sys
import tracemalloc

import numpy as np
import pytest

import rkhslab as rl
from rkhslab import cli, kernel as kernel_module, transform as transform_module
from rkhslab.config import build_objects, parse_config
from rkhslab.io import save_function_csv, save_kernel_csv


def indicator_doc(n_T=60, n_E=60, trials=10, seed=4):
    return {
        "grids": {
            "E": {"interval": [0.0, 1.0], "n": n_E, "rule": "midpoint"},
            "T": {"interval": [0.0, 1.0], "n": n_T, "rule": "midpoint"},
        },
        "source": {"feature_family": {"family": "indicator"}},
        "trials": trials,
        "seed": seed,
    }


def kernel_doc(name, n, trials=10, seed=4, **tolerances):
    doc = {
        "grids": {"E": {"interval": [0.0, 1.0], "n": n, "rule": "trapezoid"}},
        "source": {"kernel": {"name": name}},
        "trials": trials,
        "seed": seed,
    }
    if tolerances:
        doc["tolerances"] = tolerances
    return doc


def hermitian_doc(tmp_path, n, trials=10, seed=4):
    """A complex Hermitian kernel from CSV: the min kernel modulated by ``exp(3i (p - q))``.

    It is ``D min(p, q) D^H`` with ``D = diag(exp(3i p))``, so its eigenvectors
    are genuinely complex and a section norm that squares them without the
    conjugate is wrong.
    """
    grid = rl.make_uniform_grid(0.0, 1.0, n, "midpoint")
    p = grid.points
    gram = np.minimum(p[:, None], p[None, :]) * np.exp(3j * (p[:, None] - p[None, :]))
    path = tmp_path / "hermitian.csv"
    save_kernel_csv(rl.kernel_from_gram(gram, grid), path)
    return {
        "grids": {"E": {"interval": [0.0, 1.0], "n": n, "rule": "midpoint"}},
        "source": {"csv": {"kind": "kernel", "path": str(path), "mode": "complex"}},
        "trials": trials,
        "seed": seed,
    }


def counted_calls(monkeypatch, names):
    """Counts calls of each ``np.linalg`` function in ``names``, keyed by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def decompositions(monkeypatch):
    """Counts calls of ``np.linalg.svd`` and ``np.linalg.eigh``."""
    return counted_calls(monkeypatch, ("svd", "eigh"))


@pytest.fixture
def factorizations(monkeypatch):
    """Counts full-size Cholesky factorizations and calls of ``np.linalg.eigvalsh``.

    A full-size factorization is a call of ``kernel._cholesky_in_place``.
    Its diagonal blocks go through ``np.linalg.cholesky``, whose calls
    therefore count blocks, not factorizations.
    """
    counts = counted_calls(monkeypatch, ("eigvalsh",))
    counts["cholesky"] = 0
    original = kernel_module._cholesky_in_place

    def counted(A):
        counts["cholesky"] += 1
        return original(A)

    monkeypatch.setattr(kernel_module, "_cholesky_in_place", counted)
    return counts


@pytest.fixture
def cholesky_shapes(monkeypatch):
    """Records the operand shape of every full-size Cholesky factorization (``factorizations``)."""
    shapes = []
    original = kernel_module._cholesky_in_place

    def recorded(A):
        shapes.append(np.shape(A))
        return original(A)

    monkeypatch.setattr(kernel_module, "_cholesky_in_place", recorded)
    return shapes


@pytest.fixture
def thin_qrs(monkeypatch):
    """Counts calls of ``np.linalg.qr``, which the ``wide`` route's eigenvectors need."""
    return counted_calls(monkeypatch, ("qr",))


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Records the operand shape of every ``np.linalg.eigh`` call."""
    shapes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


@pytest.fixture
def batched_solves(monkeypatch):
    """Counts ``_solve_columns`` calls, patched in every module that binds it."""
    original = kernel_module._solve_columns
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rkhslab") and getattr(module, "_solve_columns", None) is original:
            monkeypatch.setattr(module, "_solve_columns", counted)
    return calls


@pytest.fixture
def gram_builds(monkeypatch):
    """Records every induced gram formed, through ``transform._hermitian_gram``."""
    original = transform_module._hermitian_gram
    shapes = []

    def recorded(gram, *args, **kwargs):
        shapes.append(np.shape(gram))
        return original(gram, *args, **kwargs)

    monkeypatch.setattr(transform_module, "_hermitian_gram", recorded)
    return shapes


def write_invert_data(tmp_path, config, seed=11):
    built = build_objects(config)
    rng = np.random.default_rng(seed)
    source = rl.DiscreteFunction(rng.standard_normal(built.kernel.grid_T.size), built.kernel.grid_T)
    data_path = tmp_path / "data.csv"
    save_function_csv(rl.apply_forward(built.kernel, source), data_path)
    return data_path


class TestDecompositionCounts:
    def test_feature_verify_no_svd_one_eigh(self, decompositions):
        code, report = cli.run_verify(parse_config(indicator_doc()))
        assert code == cli.EXIT_OK
        assert report["injectivity"]["injective"] is True
        assert report["unitary_inversion"] is not None
        assert decompositions == {"svd": 0, "eigh": 1}

    def test_injective_invert_no_svd_one_eigh(self, tmp_path, decompositions):
        config = parse_config(indicator_doc())
        data = write_invert_data(tmp_path, config)
        decompositions.update(svd=0, eigh=0)
        code, report = cli.run_invert(config, data, tmp_path / "rec.csv")
        assert code == cli.EXIT_OK
        assert report["injectivity"]["injective"] is True
        assert decompositions == {"svd": 0, "eigh": 1}

    def test_non_injective_invert_no_svd_one_eigh(self, tmp_path, decompositions):
        config = parse_config(indicator_doc(n_T=60, n_E=30))
        data = write_invert_data(tmp_path, config)
        decompositions.update(svd=0, eigh=0)
        code, report = cli.run_invert(config, data, tmp_path / "rec.csv")
        assert code == cli.EXIT_RANGE
        assert report["injectivity"]["injective"] is False
        assert decompositions == {"svd": 0, "eigh": 1}

    def test_analyze_runs_no_decomposition(self, decompositions):
        config = parse_config(indicator_doc())
        built = build_objects(config)
        assert decompositions == {"svd": 0, "eigh": 0}
        assert "weighted_eigh" not in vars(built.kernel)
        code, _ = cli.run_analyze(config)
        assert code == cli.EXIT_OK
        assert decompositions == {"svd": 0, "eigh": 0}

    def test_kernel_verify_no_svd_one_eigh(self, decompositions):
        code, report = cli.run_verify(parse_config(kernel_doc("brownian", 60)))
        assert code == cli.EXIT_OK
        assert report["injectivity"] is None
        assert decompositions == {"svd": 0, "eigh": 1}

    def test_feature_verify_two_batched_solves(self, batched_solves):
        code, report = cli.run_verify(parse_config(indicator_doc()))
        assert code == cli.EXIT_OK
        assert report["unitary_inversion"] is not None
        assert len(batched_solves) == 2

    def test_kernel_verify_one_batched_solve(self, batched_solves):
        code, _ = cli.run_verify(parse_config(kernel_doc("brownian", 60)))
        assert code == cli.EXIT_OK
        assert len(batched_solves) == 1

    def test_injectivity_and_invert_share_one_eigh(self, indicator_op, decompositions):
        op = rl.build_transform(indicator_op.feature)
        first = rl.check_injectivity(op)
        second = rl.check_injectivity(op, cutoff_rel=1e-3)
        rng = np.random.default_rng(2)
        source = rl.DiscreteFunction(rng.standard_normal(op.grid_T.size), op.grid_T)
        rl.invert(op, rl.apply_forward(op, source))
        assert decompositions == {"svd": 0, "eigh": 1}
        assert first.injective
        assert second.numerical_rank < first.numerical_rank


@pytest.mark.parametrize("n_T, n_E, side", [(30, 60, 30), (60, 60, 60), (60, 30, 30)],
                         ids=["wide", "square", "tall"])
def test_invert_decomposes_the_smaller_side(tmp_path, eigh_shapes, n_T, n_E, side):
    # a wide transform reads S = Bᴴ B from the |T| x |T| matrix R Rᴴ of a thin QR
    config = parse_config(indicator_doc(n_T=n_T, n_E=n_E))
    data = write_invert_data(tmp_path, config)
    eigh_shapes.clear()
    code, report = cli.run_invert(config, data, tmp_path / "rec.csv")
    assert code == (cli.EXIT_RANGE if n_T > n_E else cli.EXIT_OK)
    assert report["injectivity"]["injective"] is (n_T <= n_E)
    assert eigh_shapes == [(side, side)]


@pytest.mark.parametrize("command", ["verify", "invert", "analyze"])
@pytest.mark.parametrize("n_T", [60, 30], ids=["square", "wide"])
def test_induced_gram_formed_once_where_read(tmp_path, monkeypatch, gram_builds, command, n_T):
    # the gram is lazy: verify and analyze read it once, a square invert once
    # for its eigh, and a wide invert, whose eigh is on the feature side, never
    config = parse_config(indicator_doc(n_T=n_T, n_E=60))
    built_ops = []

    def recording_build(config):
        built = build_objects(config)
        built_ops.append(built.kernel)
        return built

    monkeypatch.setattr(cli, "build_objects", recording_build)
    if command == "invert":
        data = write_invert_data(tmp_path, config)
        gram_builds.clear()
        code, _ = cli.run_invert(config, data, tmp_path / "rec.csv")
    elif command == "verify":
        code, _ = cli.run_verify(config)
    else:
        code, _ = cli.run_analyze(config)
    assert code == cli.EXIT_OK
    formed = 0 if (command, n_T) == ("invert", 30) else 1
    assert gram_builds == [(60, 60)] * formed
    (op,) = built_ops
    assert ("hermitian_gram" in vars(op)) is bool(formed)


def induced_kernel(family, n_T, n_E, **params):
    """The transform of a built-in family, T on the family's default interval for E = [0, 1]."""
    spec = rl.FeatureFamily(family, **params)
    grid_E = rl.make_uniform_grid(0.0, 1.0, n_E, "midpoint")
    a, b = rl.recommended_t_interval(spec, grid_E.interval)
    grid_T = rl.make_uniform_grid(a, b, n_T, "midpoint")
    return rl.build_transform(rl.make_feature_map(spec, grid_T, grid_E))


@pytest.mark.parametrize("family, n_T, n_E, params, route", [
    ("indicator", 600, 600, {}, "cholesky"),
    ("gaussian", 600, 600, {"sigma": 0.1}, "low_rank"),
    ("gaussian", 700, 600, {"sigma": 0.1}, "low_rank"),
    ("indicator", 60, 60, {}, "dense"),
    ("fourier", 80, 60, {"band": 20.0}, "dense"),
], ids=["indicator-600", "gaussian-600", "gaussian-700x600", "indicator-60", "fourier-80x60"])
def test_square_or_tall_induced_kernel_decomposes_as_its_gram(family, n_T, n_E, params, route):
    # the route is chosen in one place: an induced kernel without an exact
    # factor takes the one its gram would take, with the same arithmetic
    op = induced_kernel(family, n_T, n_E, **params)
    K = rl.kernel_from_gram(op.gram, op.grid_E)
    assert op.weighted_eigh.decomposition == K.weighted_eigh.decomposition == route
    np.testing.assert_array_equal(op.weighted_eigh.eigenvalues, K.weighted_eigh.eigenvalues)
    assert rl.spectral_data(op).numerical_rank == rl.spectral_data(K).numerical_rank


@pytest.mark.parametrize("n_T, n_E", [(30, 60), (300, 600)])
def test_wide_induced_kernel_takes_the_wide_route_at_every_size(n_T, n_E):
    eig = induced_kernel("indicator", n_T, n_E).weighted_eigh
    assert (eig.decomposition, eig.certified_error) == ("wide", 0.0)
    assert eig.eigenvectors.shape == (n_E, n_T)


def test_wide_verify_one_eigh_on_the_feature_side(eigh_shapes, decompositions):
    code, report = cli.run_verify(parse_config(indicator_doc(n_T=30, n_E=60)))
    assert code == cli.EXIT_OK
    assert report["injectivity"]["injective"] is True
    assert eigh_shapes == [(30, 30)]
    assert decompositions == {"svd": 0, "eigh": 1}


def test_low_rank_verify_runs_one_small_eigh(eigh_shapes, decompositions):
    # sinc at n = 1200 takes the low-rank route: one r x r eigh, r <= n / 8
    doc = kernel_doc("sinc", 1200)
    doc["source"]["kernel"]["params"] = {"band": 20.0}
    code, report = cli.run_verify(parse_config(doc))
    assert code == cli.EXIT_OK
    assert report["diagnostics"]["decomposition"] == "low_rank"
    assert len(eigh_shapes) == 1
    r = eigh_shapes[0][0]
    assert eigh_shapes == [(r, r)] and r <= 1200 // 8
    assert decompositions == {"svd": 0, "eigh": 1}


def test_full_rank_verify_runs_one_dense_eigh(eigh_shapes, decompositions):
    code, report = cli.run_verify(parse_config(kernel_doc("brownian", 1200)))
    assert code == cli.EXIT_OK
    assert report["diagnostics"]["decomposition"] == "dense"
    assert eigh_shapes == [(1200, 1200)]
    assert decompositions == {"svd": 0, "eigh": 1}


@pytest.mark.parametrize("n, eigh, factored", [(1200, 0, 1), (60, 1, 0)],
                         ids=["cholesky", "below-floor"])
def test_full_rank_verify_factors_without_eigenvectors(decompositions, factorizations,
                                                        n, eigh, factored):
    # midpoint brownian is positive definite: from n = 512 one Cholesky gives
    # the solves and eigvalsh the spectrum
    doc = kernel_doc("brownian", n)
    doc["grids"]["E"]["rule"] = "midpoint"
    code, report = cli.run_verify(parse_config(doc))
    assert code == cli.EXIT_OK
    assert report["diagnostics"]["decomposition"] == ("cholesky" if factored else "dense")
    assert report["conditioning"]["numerical_rank"] == n
    assert decompositions == {"svd": 0, "eigh": eigh}
    assert factorizations == {"cholesky": factored, "eigvalsh": factored}


@pytest.mark.parametrize("n, eigh, factored", [(600, 0, 1), (60, 1, 0)],
                         ids=["cholesky", "below-floor"])
def test_square_invert_factors_without_eigenvectors(tmp_path, decompositions, factorizations,
                                                    cholesky_shapes, n, eigh, factored):
    # one full-size Cholesky, shifted, certifies the rank and is the solve
    # factor; no eigvalsh runs
    config = parse_config(indicator_doc(n_T=n, n_E=n))
    data = write_invert_data(tmp_path, config)
    code, report = cli.run_invert(config, data, tmp_path / "rec.csv")
    assert code == cli.EXIT_OK
    assert report["diagnostics"]["decomposition"] == ("cholesky" if factored else "dense")
    assert report["diagnostics"]["rank_certified"] is bool(factored)
    assert report["injectivity"]["injective"] is True
    assert decompositions == {"svd": 0, "eigh": eigh}
    assert factorizations == {"cholesky": factored, "eigvalsh": 0}
    assert cholesky_shapes == [(n, n)] * factored


@pytest.mark.parametrize("n_T, n_E, eigh, factored", [(600, 1200, 0, 1), (60, 120, 1, 0)],
                         ids=["cholesky", "below-floor"])
def test_wide_invert_factors_its_t_side(tmp_path, decompositions, factorizations, thin_qrs,
                                        cholesky_shapes, gram_builds, n_T, n_E, eigh, factored):
    # from |T| = 512 one shifted Cholesky of G = B Bᴴ, which certifies its
    # rank and is the solve factor, replaces the thin QR and the eigh; no
    # eigvalsh runs, and the inversion is solved on the T side
    config = parse_config(indicator_doc(n_T=n_T, n_E=n_E))
    data = write_invert_data(tmp_path, config)
    for counts in (decompositions, factorizations, thin_qrs):
        counts.update(dict.fromkeys(counts, 0))
    cholesky_shapes.clear()
    code, report = cli.run_invert(config, data, tmp_path / "rec.csv")
    assert code == cli.EXIT_OK
    assert report["diagnostics"]["decomposition"] == "wide"
    assert report["diagnostics"]["rank_certified"] is bool(factored)
    assert report["injectivity"] == {"injective": True, "numerical_rank": n_T, "deficiency": 0}
    assert decompositions == {"svd": 0, "eigh": eigh}
    assert thin_qrs == {"qr": eigh}
    assert factorizations == {"cholesky": factored, "eigvalsh": 0}
    assert cholesky_shapes == [(n_T, n_T)] * factored
    assert gram_builds == []


@pytest.mark.parametrize("source, route", [
    ({"kernel": {"name": "brownian"}}, "cholesky"),
    ({"feature_family": {"family": "indicator"}}, "wide"),
], ids=["cholesky", "wide"])
def test_verify_reads_the_spectrum_and_runs_no_certificate(factorizations, cholesky_shapes,
                                                           source, route):
    # verify reports the spectrum, so it reads the eigenvalues before any rank
    doc = indicator_doc(n_T=600, n_E=1200 if route == "wide" else 600)
    doc["source"] = source
    if route == "cholesky":
        del doc["grids"]["T"]
    code, report = cli.run_verify(parse_config(doc))
    assert code == cli.EXIT_OK
    assert report["diagnostics"]["decomposition"] == route
    assert report["diagnostics"]["rank_certified"] is False
    assert factorizations == {"cholesky": 1, "eigvalsh": 1}
    assert cholesky_shapes == [(600, 600)]


def test_solve_answered_by_the_eigenpairs_keeps_the_shifted_factor(monkeypatch, factorizations):
    # after a certified rank, a cutoff that drops an eigenvalue solves with the
    # dense eigh: the failed certificate at that cutoff is the only other
    # factorization, and the certificate's factor is not replaced
    grid = rl.make_uniform_grid(0, 1, 600, "midpoint")
    K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
    dense = rl.kernel_from_gram(K.gram, grid)
    with monkeypatch.context() as patch:
        patch.setattr(kernel_module, "LOW_RANK_MIN_SIZE", 601)
        assert dense.weighted_eigh.decomposition == "dense"
    factorizations.update(cholesky=0, eigvalsh=0)
    assert rl.spectral_data(K).numerical_rank == 600
    ones = np.ones(600)
    x, residual = kernel_module._solve_columns(K, ones, 0.5)
    assert factorizations == {"cholesky": 2, "eigvalsh": 1}
    assert K.weighted_eigh.shift > 0.0
    x_dense, residual_dense = kernel_module._solve_columns(dense, ones, 0.5)
    np.testing.assert_array_equal(x, x_dense)
    assert residual == residual_dense == pytest.approx(0.43524, abs=1e-5)


def test_wide_kept_diagonal_reads_the_factor_alone(factorizations):
    # the squared row norms of F need no factor of G: after a certified rank
    # the shifted factor stays, and the values are those of a spectrum read first
    op = induced_kernel("indicator", 600, 1200)
    reference = rl.build_transform(op.feature)
    reference.weighted_eigh.eigenvalues
    expected = kernel_module._kept_diagonal(reference)
    factorizations.update(cholesky=0, eigvalsh=0)
    assert rl.spectral_data(op).numerical_rank == 600
    diag = kernel_module._kept_diagonal(op)
    assert factorizations == {"cholesky": 1, "eigvalsh": 0}
    assert op.weighted_eigh.decomposition == "wide" and op.weighted_eigh.shift > 0.0
    np.testing.assert_array_equal(diag, expected)


def trial_images(kernel, config):
    """The in-range trial functions verify draws, as columns, from the config seed."""
    rng = np.random.default_rng(config.seed)
    raw = rng.standard_normal((kernel.size, config.trials))
    if np.iscomplexobj(kernel.gram):
        raw = raw + 1j * rng.standard_normal((kernel.size, config.trials))
    return kernel.gram @ (kernel.grid.weights[:, None] * raw)


def single_residual(kernel, config, column):
    f = rl.DiscreteFunction(values=column, grid=kernel.grid)
    return rl.solve_kernel_system(kernel, f, config.cutoff_rel, None).range_residual


def per_trial_suite(config):
    """Worst reproducing residual and point-evaluation excess, one trial at a time,
    and worst section-equality defect, one kernel section at a time."""
    kernel = build_objects(config).kernel
    space = rl.make_rkhs_space(kernel, config.cutoff_rel, config.range_tol)
    images = trial_images(kernel, config)
    sqrt_diag = np.sqrt(np.clip(np.real(np.diag(kernel.gram)), 0.0, None))
    worst_repro, worst_excess = 0.0, -np.inf
    for t in range(config.trials):
        f = rl.DiscreteFunction(values=images[:, t], grid=kernel.grid)
        worst_repro = max(worst_repro, float(rl.reproducing_residuals(space, f).max()))
        rhs = rl.rkhs_norm(space, f) * sqrt_diag
        worst_excess = max(worst_excess, float(np.max((np.abs(f.values) - rhs) / (1.0 + rhs))))
    kqq = np.real(np.diag(kernel.gram))
    worst_defect = 0.0
    for q in range(kernel.size):
        norm_q = rl.rkhs_norm(space, rl.kernel_section(space, q))
        defect = abs(kqq[q] - norm_q * sqrt_diag[q]) / (1.0 + abs(kqq[q]))
        worst_defect = max(worst_defect, float(defect))
    return worst_repro, worst_excess, worst_defect


TRIAL_SUITE_DOCS = {
    "brownian": lambda tmp_path: kernel_doc("brownian", 80, trials=25),
    "sinc": lambda tmp_path: kernel_doc("sinc", 120, trials=25),
    "indicator": lambda tmp_path: indicator_doc(trials=25),
    "hermitian": lambda tmp_path: hermitian_doc(tmp_path, 80, trials=25),
}


class TestBatchedTrialSuite:
    @pytest.mark.parametrize("make_doc", TRIAL_SUITE_DOCS.values(), ids=TRIAL_SUITE_DOCS.keys())
    def test_matches_per_trial_recomputation(self, make_doc, tmp_path):
        config = parse_config(make_doc(tmp_path))
        worst_repro, worst_excess, worst_defect = per_trial_suite(config)
        _, report = cli.run_verify(config)
        batched = report["identities"]
        assert abs(batched["reproducing"]["max_residual"] - worst_repro) <= 1e-14
        assert abs(batched["point_eval"]["max_excess"] - worst_excess) <= 1e-14
        defect = batched["point_eval"]["section_equality_defect"]
        assert abs(defect - worst_defect) <= 1e-13
        values = {c["name"]: c["value"] for c in report["criteria"]}
        assert values["reproducing"] == batched["reproducing"]["max_residual"]
        assert values["point_eval_bound"] == batched["point_eval"]["max_excess"]
        kernel = build_objects(config).kernel
        direct = rl.verify_reproducing(
            kernel, config.cutoff_rel, config.trials, config.seed, config.range_tol
        )
        assert abs(direct.max_residual - worst_repro) <= 1e-14
        assert abs(direct.max_excess - worst_excess) <= 1e-14
        assert direct.max_residual == batched["reproducing"]["max_residual"]
        assert direct.max_excess == batched["point_eval"]["max_excess"]
        assert direct.section_equality_defect == values["point_eval_equality"]

    def test_range_gate_raises_at_first_trial(self):
        config = parse_config(kernel_doc("sinc", 200, range_tol=1e-300))
        kernel = build_objects(config).kernel
        expected = single_residual(kernel, config, trial_images(kernel, config)[:, 0])
        with pytest.raises(rl.RangeViolationError) as err:
            cli.run_verify(config)
        assert err.value.tolerance == 1e-300
        assert expected > 0.0
        assert abs(err.value.residual - expected) <= 1e-15

    def test_range_gate_names_first_offending_trial(self):
        # a gate that trial 0 passes and a later trial fails: the error must
        # carry the earliest failing trial's residual, as the per-trial loop did
        config = parse_config(kernel_doc("sinc", 120))
        kernel = build_objects(config).kernel
        images = trial_images(kernel, config)
        residuals = [single_residual(kernel, config, images[:, t]) for t in range(config.trials)]
        r = np.array(residuals)
        above = r[r > r[0]]
        # a gate halfway (geometrically) between trial 0 and the next larger
        # residual, clear of every residual by far more than roundoff
        tol = float(np.sqrt(r[0] * above.min()))
        assert np.min(np.abs(r / tol - 1.0)) > 1e-2
        first = next(x for x in residuals if x > tol)
        assert first != residuals[0]
        gated = parse_config(kernel_doc("sinc", 120, range_tol=tol))
        with pytest.raises(rl.RangeViolationError) as err:
            cli.run_verify(gated)
        assert abs(err.value.residual - first) <= 1e-15


class TestOneTrialPass:
    """The unitary-inversion errors come from the transform trials of ``verify_identities``."""

    @pytest.mark.parametrize("fixture", ["indicator_op", "orthonormal_op"])
    def test_check_unitary_inversion_reads_identities(self, request, fixture):
        op = request.getfixturevalue(fixture)
        identities = rl.verify_identities(op, 1e-12, 15, 5)
        uni = rl.check_unitary_inversion(op, 1e-12, 15, 5)
        assert uni.l2_adjoint_error == identities.plain_adjoint_error
        assert uni.rkhs_adjoint_error == identities.roundtrip_error

    def test_verify_report_rkhs_adjoint_error_is_roundtrip(self):
        _, report = cli.run_verify(parse_config(indicator_doc()))
        transform = report["identities"]["transform"]
        assert report["unitary_inversion"]["rkhs_adjoint_error"] == transform["roundtrip_error"]


class TestRkhsInnerOneSolve:
    """``rkhs_inner`` solves ``[g, f]`` in one batched call and gates ``g`` before ``f``."""

    @pytest.fixture
    def space(self):
        grid = rl.make_uniform_grid(0, 1, 60, "midpoint")
        return rl.make_rkhs_space(rl.assemble_kernel(rl.builtin_kernel("brownian"), grid))

    def test_one_batched_solve_per_call(self, space, batched_solves):
        raw = np.random.default_rng(8).standard_normal((60, 2))
        f, g = (rl.DiscreteFunction(col, space.grid) for col in (space.kernel.gram @ raw).T)
        value = rl.rkhs_inner(space, f, g)
        assert len(batched_solves) == 1
        solved = rl.solve_kernel_system(space.kernel, f, space.cutoff_rel, space.range_tol)
        expected = rl.inner_product_l2(solved.solution, g)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_g_range_violation_raised_first(self):
        grid = rl.make_uniform_grid(0, 1, 60, "midpoint")
        space = rl.make_rkhs_space(rl.assemble_kernel(rl.builtin_kernel("constant"), grid))
        # outside the constants, with different residuals
        a = rl.sample_function(grid, lambda p: p - 0.5)
        b = rl.sample_function(grid, lambda p: p)
        res_a = kernel_module.range_residual(space.kernel, a, space.cutoff_rel)
        res_b = kernel_module.range_residual(space.kernel, b, space.cutoff_rel)
        assert min(res_a, res_b) > space.range_tol and abs(res_a - res_b) > 1e-2
        for f, g, expected in ((a, b, res_b), (b, a, res_a)):
            with pytest.raises(rl.RangeViolationError) as err:
                rl.rkhs_inner(space, f, g)
            assert abs(err.value.residual - expected) <= 1e-15
        ones = rl.sample_function(grid, lambda p: np.ones_like(p))
        with pytest.raises(rl.RangeViolationError) as err:
            rl.rkhs_inner(space, b, ones)
        assert abs(err.value.residual - res_b) <= 1e-15


class TestSquareFeatureVerifyGram:
    """A square feature source on the ``cholesky`` route forms its gram once and releases it."""

    N = 600
    ARRAY = N * N * 8

    def test_formed_once(self, gram_builds):
        code, report = cli.run_verify(parse_config(indicator_doc(n_T=self.N, n_E=self.N)))
        assert code == cli.EXIT_OK
        assert report["diagnostics"]["decomposition"] == "cholesky"
        assert report["closed_form"] is not None
        assert gram_builds == [(self.N, self.N)]

    def test_unitary_inversion_reads_the_gram_before_the_decomposition(self):
        # the verdict and the factorization residual read the gram before the
        # decomposition releases it, and nothing reads it again
        op = induced_kernel("indicator", self.N, self.N)
        report = rl.check_unitary_inversion(op, trials=5)
        assert op.weighted_eigh.decomposition == "cholesky"
        assert "hermitian_gram" not in vars(op)
        assert report.verdict_from_kernel.is_weighted_l2 is False

    @pytest.mark.parametrize("check", [rl.verify_identities, rl.check_unitary_inversion],
                             ids=["verify_identities", "check_unitary_inversion"])
    def test_standalone_suite_forms_the_gram_once(self, gram_builds, factorizations, check):
        # the factorization residual reads the gram, then the spectrum is read
        # as verify reads it: no certificate, and the factor of S solves
        op = induced_kernel("indicator", self.N, self.N)
        check(op, trials=5)
        assert gram_builds == [(self.N, self.N)]
        assert factorizations == {"cholesky": 1, "eigvalsh": 1}
        route = op.weighted_eigh
        assert route.decomposition == "cholesky" and route.shift == 0.0
        assert not route.rank_certified(rl.kernel.DEFAULT_CUTOFF_REL)

    def test_products_after_release_form_none(self, gram_builds):
        op = induced_kernel("indicator", self.N, self.N)
        # the spectrum first, as in verify: the factor is of S itself
        rl.validate_psd(op, 1e-10)
        space = rl.make_rkhs_space(op)
        assert "hermitian_gram" not in vars(op)
        gram_builds.clear()
        f = rl.apply_operator(op, rl.sample_function(op.grid_E, np.sin))
        residuals = rl.reproducing_residuals(space, f)
        assert np.max(residuals) <= 1e-10
        assert gram_builds == [] and "hermitian_gram" not in vars(op)

    def test_gram_and_s_never_held_together(self, monkeypatch):
        # tracemalloc sees H, the gram and S; eigvalsh's copy of S is made
        # outside numpy's allocator.  A kept gram would stay beside S through
        # the decomposition and beside its factor through every later step
        config = parse_config(indicator_doc(n_T=self.N, n_E=self.N))
        at_eigvalsh = []
        eigvalsh = np.linalg.eigvalsh

        def traced_eigvalsh(A):
            at_eigvalsh.append(tracemalloc.get_traced_memory()[0] - start)
            tracemalloc.reset_peak()
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", traced_eigvalsh)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code, report = cli.run_verify(config)
            after_eigvalsh = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert report["diagnostics"]["decomposition"] == "cholesky"
        # H and S, with no gram
        assert len(at_eigvalsh) == 1 and at_eigvalsh[0] < 2.5 * self.ARRAY
        # H, the factor and row blocks of half an array: a gram beside them
        # would take it past 3.5 arrays
        assert after_eigvalsh < 3.25 * self.ARRAY
