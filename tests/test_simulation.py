"""Monte Carlo engine: reproducibility, aggregation, and moment diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from eblup import (
    McConfig,
    NotPositiveDefinite,
    SimulationError,
    area_target,
    build_fay_herriot,
    fit,
    ml_score_bias,
    mse_estimators,
    quadratic_moment_check,
    run_study,
    score_moment_check,
    simulate_dataset,
)
from eblup import simulation as simulation_mod
from eblup.simulation import _draw, _thread_count

from support import MAKERS, dense_g, dense_r, rng


def small_fh(gen, t=8):
    phi = gen.uniform(0.5, 1.5, size=t)
    y0 = np.zeros(t)
    return build_fay_herriot(y0, phi, np.ones((t, 1)))


def cell_key(cell):
    return (
        cell.target,
        cell.method,
        cell.emp_mse_eblup,
        cell.emp_mse_eblup_se,
        cell.emp_mse_blup,
        cell.emp_mse_blup_se,
        tuple(sorted(cell.estimator_mean.items())),
        tuple(sorted(cell.estimator_se.items())),
        cell.g3_data_mean,
        cell.analytic_naive,
        cell.analytic_mse_approx,
    )


# --- data generation ------------------------------------------------------


def test_simulate_dataset_is_seed_deterministic():
    gen = rng(701)
    model, _, _ = MAKERS["nested-error"](gen)
    sigma = np.array([1.0, 0.5])
    beta = np.zeros(model.p)
    a = simulate_dataset(model, sigma, beta, seed=42)
    b = simulate_dataset(model, sigma, beta, seed=42)
    np.testing.assert_array_equal(a, b)
    c = simulate_dataset(model, sigma, beta, seed=43)
    assert np.any(a != c)


@pytest.mark.parametrize("case", ["fay-herriot", "nested-error", "zero-component"])
def test_draw_equals_the_dense_factor_draw(case):
    # y = X beta + Z (diag(sqrt g) z_v) + diag(sqrt r) z_e, with the dense
    # factors built from the raw design and z_v, z_e taken in that order
    # from the same Philox stream
    gen = rng(719)
    model, _, aux = MAKERS["anova" if case == "zero-component" else case](gen)
    sigma = gen.uniform(0.5, 1.5, size=model.s)
    if case == "zero-component":
        sigma[1] = 0.0
    beta = gen.normal(size=model.p)
    lg = np.diag(np.sqrt(np.diag(dense_g(aux, sigma))))
    lr = np.diag(np.sqrt(np.diag(dense_r(aux, sigma))))
    for seed in (0, 11, 2**40):
        stream = np.random.Generator(np.random.Philox(seed))
        v = lg @ stream.standard_normal(model.r)
        e = lr @ stream.standard_normal(model.n)
        want = aux.X @ beta + np.hstack(aux.z_blocks) @ v + e
        assert np.array_equal(simulate_dataset(model, sigma, beta, seed), want)


def test_draw_returns_matching_effects():
    gen = rng(703)
    model, _, _ = MAKERS["fay-herriot"](gen, t=6)
    sigma = np.array([0.9])
    beta = np.array([1.0, -0.5])
    y1, v1 = _draw(model, sigma, beta, seed=7)
    y2, v2 = _draw(model, sigma, beta, seed=7)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(v1, v2)
    assert v1.shape == (model.r,)
    # with phi known the residual e = y - Xb - Zv is what remains
    e = y1 - model.X @ beta - model.Z @ v1
    assert np.all(np.isfinite(e))


def test_draw_first_two_moments():
    gen = rng(709)
    t = 3
    phi = np.array([0.5, 1.0, 2.0])
    model = build_fay_herriot(np.zeros(t), phi, np.ones((t, 1)))
    sigma = np.array([1.0])
    beta = np.array([2.0])
    n_rep = 4000
    ys = np.array(
        [simulate_dataset(model, sigma, beta, seed=1000 + r) for r in range(n_rep)]
    )
    mean = ys.mean(axis=0)
    se = ys.std(axis=0, ddof=1) / np.sqrt(n_rep)
    assert np.all(np.abs(mean - 2.0) < 5 * se)
    var = ys.var(axis=0, ddof=1)
    want_var = sigma[0] + phi
    var_se = want_var * np.sqrt(2.0 / (n_rep - 1))
    assert np.all(np.abs(var - want_var) < 5 * var_se)


def test_bad_beta_shape_rejected():
    gen = rng(711)
    model, _, _ = MAKERS["fay-herriot"](gen, t=5)
    with pytest.raises(ValueError):
        simulate_dataset(model, [1.0], np.zeros(3), seed=0)


# --- configuration --------------------------------------------------------


def test_config_validation():
    gen = rng(719)
    model = small_fh(gen)
    tgt = (area_target(model, 0),)
    ok = dict(model=model, sigma_true=[1.0], beta_true=[0.0], targets=tgt)
    with pytest.raises(ValueError):
        McConfig(**{**ok, "estimators": ("naive", "bootstrap")})
    with pytest.raises(ValueError):
        McConfig(**{**ok, "replicates": 1})
    with pytest.raises(ValueError):
        McConfig(**{**ok, "beta_true": [0.0, 1.0]})
    with pytest.raises(ValueError):
        McConfig(**{**ok, "targets": ()})
    with pytest.raises(ValueError):
        McConfig(**{**ok, "methods": ("REML", "MAP")})
    with pytest.warns(RuntimeWarning):
        McConfig(**{**ok, "sigma_true": [0.0]})


# --- the study driver -----------------------------------------------------


def test_run_study_aggregates_both_methods():
    gen = rng(727)
    model = small_fh(gen, t=10)
    targets = (area_target(model, 0), area_target(model, 4))
    config = McConfig(
        model=model,
        sigma_true=[1.0],
        beta_true=[0.5],
        targets=targets,
        methods=("REML", "ML"),
        replicates=40,
        base_seed=11,
        estimators=("naive", "prasad_rao", "second_order", "data_specific"),
    )
    report = run_study(config)
    assert report.replicates == 40
    assert report.n_used == 40
    assert report.n_failed == 0
    assert report.failure_rate == 0.0
    assert len(report.cells) == 4  # 2 methods x 2 targets
    assert len(report.diagnostics) == 2
    for cell in report.cells:
        assert cell.emp_mse_eblup > 0
        assert cell.emp_mse_blup > 0
        assert cell.analytic_naive > 0
        assert set(cell.estimator_mean) <= set(config.estimators)
        assert "naive" in cell.estimator_mean
        assert cell.g3_data_mean is not None
        for name, m in cell.estimator_mean.items():
            assert np.isfinite(m)
            assert np.isfinite(cell.estimator_se[name])
            assert np.isfinite(cell.relative_bias[name])
    for diag in report.diagnostics:
        assert diag.method in ("REML", "ML")
        assert diag.score_mean.shape == (model.s,)
        assert 0.0 <= diag.boundary_rate <= 1.0
        assert diag.n_boundary == round(diag.boundary_rate * report.n_used)


def test_plugin_predictor_cannot_beat_blup():
    gen = rng(733)
    model = small_fh(gen, t=10)
    config = McConfig(
        model=model,
        sigma_true=[0.8],
        beta_true=[0.0],
        targets=(area_target(model, 2),),
        replicates=60,
        base_seed=5,
    )
    cell = run_study(config).cells[0]
    slack = 3.0 * (cell.emp_mse_eblup_se + cell.emp_mse_blup_se)
    assert cell.emp_mse_eblup >= cell.emp_mse_blup - slack


def test_report_identical_for_any_worker_count(monkeypatch):
    gen = rng(739)
    model = small_fh(gen, t=8)
    config = McConfig(
        model=model,
        sigma_true=[1.0],
        beta_true=[0.0],
        targets=(area_target(model, 1),),
        methods=("REML",),
        replicates=24,
        base_seed=3,
        estimators=("naive", "prasad_rao", "second_order", "data_specific"),
    )
    monkeypatch.setenv("EBLUP_THREADS", "1")
    serial = run_study(config)
    monkeypatch.setenv("EBLUP_THREADS", "4")
    threaded = run_study(config)
    assert [cell_key(c) for c in serial.cells] == [cell_key(c) for c in threaded.cells]
    for a, b in zip(serial.diagnostics, threaded.diagnostics):
        np.testing.assert_array_equal(a.score_mean, b.score_mean)
        np.testing.assert_array_equal(a.score_se, b.score_se)
        assert a.n_boundary == b.n_boundary


def test_thread_count_respects_environment(monkeypatch):
    monkeypatch.setenv("EBLUP_THREADS", "2")
    assert _thread_count(100) == 2
    assert _thread_count(1) == 1
    monkeypatch.delenv("EBLUP_THREADS")
    assert _thread_count(100) == 1  # serial unless asked for workers
    monkeypatch.setenv("EBLUP_THREADS", "")
    assert _thread_count(100) == 1


def test_non_converged_fits_are_counted_not_dropped(monkeypatch):
    gen = rng(741)
    model = small_fh(gen, t=8)
    config = McConfig(
        model=model,
        sigma_true=[1.0],
        beta_true=[0.0],
        targets=(area_target(model, 1),),
        methods=("REML", "ML"),
        replicates=12,
        base_seed=11,
    )
    baseline = run_study(config)
    flagged = {2, 5, 9}
    ys = [
        simulate_dataset(model, config.sigma_true, config.beta_true, config.base_seed + r)
        for r in flagged
    ]
    real_fit = simulation_mod.fit

    def fit_flagging_some(model, y, method="REML", **kwargs):
        res = real_fit(model, y, method=method, **kwargs)
        if method == "ML" and any(np.array_equal(y, yf) for yf in ys):
            return dataclasses.replace(res, converged=False)
        return res

    monkeypatch.setattr(simulation_mod, "fit", fit_flagging_some)
    for threads in ("1", "4"):
        monkeypatch.setenv("EBLUP_THREADS", threads)
        report = run_study(config)
        counts = {d.method: d.n_not_converged for d in report.diagnostics}
        assert counts == {"REML": 0, "ML": len(flagged)}
        # the flagged fits stay in every aggregate
        assert report.n_used == config.replicates
        assert [cell_key(c) for c in report.cells] == [cell_key(c) for c in baseline.cells]


def test_widespread_failures_abort(monkeypatch):
    gen = rng(743)
    model = small_fh(gen)
    config = McConfig(
        model=model,
        sigma_true=[1.0],
        beta_true=[0.0],
        targets=(area_target(model, 0),),
        replicates=10,
        base_seed=0,
    )

    def broken_fit(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(simulation_mod, "fit", broken_fit)
    monkeypatch.setenv("EBLUP_THREADS", "1")
    with pytest.raises(SimulationError, match="replicates failed") as info:
        run_study(config)
    assert "RuntimeError" in str(info.value)


def test_failures_are_counted_by_type(monkeypatch):
    gen = rng(745)
    model = small_fh(gen)
    config = McConfig(
        model=model,
        sigma_true=[1.0],
        beta_true=[0.0],
        targets=(area_target(model, 0),),
        replicates=150,
        base_seed=20,
    )
    y_bad = simulate_dataset(model, config.sigma_true, config.beta_true, config.base_seed + 7)
    real_fit = simulation_mod.fit

    def fit_failing_once(model, y, method="REML", **kwargs):
        if np.array_equal(y, y_bad):
            raise NotPositiveDefinite("synthetic failure")
        return real_fit(model, y, method=method, **kwargs)

    monkeypatch.setattr(simulation_mod, "fit", fit_failing_once)
    report = run_study(config)
    assert report.failures == {"NotPositiveDefinite": 1}
    assert (report.n_failed, report.n_used) == (1, 149)


def test_absent_estimators_stay_absent(monkeypatch):
    # naive-only reports (as under a singular information) on the even
    # replicates under REML and on every replicate under ML
    gen = rng(747)
    model = small_fh(gen)
    tgt = area_target(model, 2)
    config = McConfig(
        model=model,
        sigma_true=[1.0],
        beta_true=[0.0],
        targets=(tgt,),
        methods=("REML", "ML"),
        replicates=10,
        base_seed=30,
        estimators=("naive", "prasad_rao", "second_order", "data_specific"),
    )
    ys = [
        simulate_dataset(model, config.sigma_true, config.beta_true, config.base_seed + r)
        for r in range(config.replicates)
    ]
    real = simulation_mod.mse_estimators

    def naive_only_on_evens(model, res, y, target, data_specific=False):
        rep = real(model, res, y, target, data_specific=data_specific)
        if res.method == "ML" or any(np.array_equal(y, ys[r]) for r in range(0, len(ys), 2)):
            return dataclasses.replace(
                rep, g3=None, g3_data=None, g10=None, prasad_rao=None, second_order=None
            )
        return rep

    monkeypatch.setattr(simulation_mod, "mse_estimators", naive_only_on_evens)
    reml, ml = run_study(config).cells
    reps = [mse_estimators(model, fit(model, y), y, tgt, data_specific=True) for y in ys]
    odd = reps[1::2]
    assert reml.estimator_mean["naive"] == pytest.approx(math.fsum(r.naive for r in reps) / 10, rel=1e-12)
    for name in ("prasad_rao", "second_order"):
        want = math.fsum(r.prasad_rao for r in odd) / len(odd)
        assert reml.estimator_mean[name] == pytest.approx(want, rel=1e-12)
    assert reml.g3_data_mean == pytest.approx(math.fsum(r.g3_data for r in odd) / len(odd), rel=1e-12)
    assert set(reml.estimator_mean) == set(config.estimators)
    assert set(ml.estimator_mean) == set(ml.estimator_se) == set(ml.relative_bias) == {"naive"}
    assert ml.g3_data_mean is None and ml.g3_data_se is None


# --- score moments --------------------------------------------------------


def test_reml_score_moments_match_targets():
    gen = rng(751)
    model = small_fh(gen, t=12)
    record = score_moment_check(model, [1.0], [0.0], replicates=2000, seed=90)
    assert record.method == "REML"
    np.testing.assert_array_equal(record.mean_target, np.zeros(model.s))
    assert np.all(np.abs(record.mean_z) < 4.0)
    assert np.all(np.abs(record.cov_z) < 5.0)


def test_ml_score_mean_hits_negative_bias():
    gen = rng(757)
    model = small_fh(gen, t=12)
    record = score_moment_check(
        model, [1.0], [0.0], replicates=2000, seed=91, method="ML"
    )
    np.testing.assert_allclose(record.mean_target, -ml_score_bias(model, [1.0]))
    assert np.any(record.mean_target != 0.0)
    assert np.all(np.abs(record.mean_z) < 4.0)
    # covariance target is shared with REML (same quadratic part)
    reml = score_moment_check(model, [1.0], [0.0], replicates=2, seed=1)
    np.testing.assert_allclose(record.cov_target, reml.cov_target)


# --- Gaussian quadratic-form identities -----------------------------------


def test_quadratic_identities_on_random_matrices():
    gen = rng(761)
    k = 3
    B = gen.normal(size=(k, k))
    S = B @ B.T + k * np.eye(k)
    A1 = gen.normal(size=(k, k))
    A1 = 0.5 * (A1 + A1.T)
    A2 = gen.normal(size=(k, k))
    A2 = 0.5 * (A2 + A2.T)
    record = quadratic_moment_check(S, A1, A2, replicates=20000, seed=77)
    assert record.max_abs_z < 5.0


def test_quadratic_identity_targets_identity_case():
    # S = I, A1 = A2 = I: E[q^2] = 2k and E[u q^2 u'] = (2k + 8) I
    k = 4
    record = quadratic_moment_check(
        np.eye(k), np.eye(k), np.eye(k), replicates=50, seed=1
    )
    assert record.scalar_target == pytest.approx(2.0 * k)
    np.testing.assert_allclose(record.vec_target, 2.0 * np.eye(k))
    np.testing.assert_allclose(record.matrix_target, (2.0 * k + 8.0) * np.eye(k))


def test_quadratic_check_handles_zero_matrix():
    record = quadratic_moment_check(
        np.eye(2), np.zeros((2, 2)), np.eye(2), replicates=100, seed=3
    )
    np.testing.assert_array_equal(record.vec_z, np.zeros((2, 2)))
    assert record.scalar_z == 0.0


def test_quadratic_check_validates_inputs():
    with pytest.raises(ValueError):
        quadratic_moment_check(np.eye(2), np.eye(3), np.eye(2), replicates=10, seed=0)
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        quadratic_moment_check(np.eye(2), bad, np.eye(2), replicates=10, seed=0)
