"""MSE components, second-order corrections, and their exact identities.

Closed forms for the area-level model with known sampling variances anchor
most checks: with gamma_i = sig/(sig + phi_i),

    g1 = sig phi_i / (sig + phi_i)
    g2 = (1 - gamma_i)^2 x_i' (X' Sigma^-1 X)^-1 x_i
    g3 = [phi_i^2 / (sig + phi_i)^3] * 2 / sum_j (sig + phi_j)^-2   (REML)
    dg1/dsig = phi_i^2 / (sig + phi_i)^2
"""

import numpy as np
import pytest

from eblup import (
    MixedModel,
    WARN_BOUNDARY,
    WARN_SINGULAR_INFORMATION,
    area_target,
    build_fay_herriot,
    blup,
    delta_terms,
    dg1_dsigma,
    eblup,
    fit,
    g1,
    g2,
    g3,
    g3_data,
    g10,
    gls_beta,
    mse_estimators,
    mse_true_approx,
)

from eblup import _linalg
from support import MAKERS, dense_proj, fd_grad, rng


def canonical_two():
    X = np.ones((2, 1))
    y = np.array([1.0, -1.0])
    return build_fay_herriot(y, [1.0, 1.0], X), y


def canonical_three():
    X = np.ones((3, 1))
    y = np.array([1.0, 0.0, -1.0])
    return build_fay_herriot(y, np.ones(3), X), y


def fh_instance(gen, t=11):
    phi = gen.uniform(0.5, 2.0, size=t)
    y = gen.normal(size=t)
    return build_fay_herriot(y, phi, np.ones((t, 1))), y, phi


# --- frozen small-instance values -----------------------------------------


def test_two_area_component_values():
    model, y = canonical_two()
    tgt = area_target(model, 0)
    sigma = [1.0]
    assert g1(model, sigma, tgt) == pytest.approx(0.5, rel=1e-12)
    assert g2(model, sigma, tgt) == pytest.approx(0.25, rel=1e-12)
    assert g3(model, sigma, tgt) == pytest.approx(1.0, rel=1e-12)
    assert g3_data(model, sigma, y, tgt) == pytest.approx(0.5, rel=1e-12)
    assert mse_true_approx(model, sigma, tgt) == pytest.approx(1.75, rel=1e-12)
    np.testing.assert_allclose(dg1_dsigma(model, sigma, tgt), [0.25], rtol=1e-12)


def test_two_area_report_at_reml_fit():
    model, y = canonical_two()
    res = fit(model, y)
    rep = mse_estimators(model, res, y, area_target(model, 0), data_specific=True)
    assert rep.naive == pytest.approx(0.75, rel=1e-10)
    assert rep.prasad_rao == pytest.approx(2.75, rel=1e-10)
    assert rep.second_order == rep.prasad_rao  # REML needs no extra term
    assert rep.g3_data == pytest.approx(0.5, rel=1e-10)
    assert rep.g10 is None
    assert rep.warnings == ()


def test_two_area_reml_corrections():
    model, _ = canonical_two()
    d = delta_terms(model, [1.0], area_target(model, 0))
    assert (d.delta0, d.delta1, d.delta2, d.delta3) == pytest.approx(
        (0.0, -2.0, -1.0, 2.0), rel=1e-12
    )
    np.testing.assert_allclose(d.w_vec, [1.0], rtol=1e-12)
    np.testing.assert_allclose(d.b_vec, [0.25], rtol=1e-12)


def test_three_area_ml_corrections():
    model, _ = canonical_three()
    tgt = area_target(model, 0)
    assert g10(model, [1.0], tgt) == pytest.approx(-0.5, rel=1e-12)
    d = delta_terms(model, [1.0], tgt, "ML")
    assert (d.delta0, d.delta1, d.delta2, d.delta3) == pytest.approx(
        (-1.0, -5.5, -1.0, 6.0), rel=1e-12
    )
    total = d.delta0 + d.delta1 + d.delta2 + d.delta3
    assert total == pytest.approx(
        g10(model, [1.0], tgt) - g3(model, [1.0], tgt, "ML"), rel=1e-12
    )


# --- closed forms ---------------------------------------------------------


def test_fay_herriot_closed_forms():
    gen = rng(501)
    model, y, phi = fh_instance(gen)
    sig = 0.9
    i = 4
    tgt = area_target(model, i)
    gam = sig / (sig + phi[i])
    assert g1(model, [sig], tgt) == pytest.approx(sig * phi[i] / (sig + phi[i]), rel=1e-10)
    gram = np.sum(1.0 / (sig + phi))
    assert g2(model, [sig], tgt) == pytest.approx((1 - gam) ** 2 / gram, rel=1e-10)
    # exact REML variance factor 2/tr(P^2), not the t -> inf shortcut
    P = dense_proj(model.X, np.diag(sig + phi))
    want_g3 = (phi[i] ** 2 / (sig + phi[i]) ** 3) * 2.0 / np.trace(P @ P)
    assert g3(model, [sig], tgt) == pytest.approx(want_g3, rel=1e-10)
    np.testing.assert_allclose(
        dg1_dsigma(model, [sig], tgt), [phi[i] ** 2 / (sig + phi[i]) ** 2], rtol=1e-10
    )


def test_fay_herriot_data_specific_closed_form():
    gen = rng(503)
    model, y, phi = fh_instance(gen, t=9)
    sig = 1.1
    i = 2
    tgt = area_target(model, i)
    beta, _ = gls_beta(model, [sig], y)
    resid = y - beta[0]
    dsdsig = phi[i] / (sig + phi[i]) ** 2
    P = dense_proj(model.X, np.diag(sig + phi))
    var_hat = 2.0 / np.trace(P @ P)
    want = var_hat * (dsdsig * resid[i]) ** 2
    assert g3_data(model, [sig], y, tgt) == pytest.approx(want, rel=1e-10)


def test_g3_decays_with_replication():
    # repeating the phi pattern k times shrinks g3 like 1/(k - const):
    # exactly 1/k up to the fixed-effect projection correction
    gen = rng(509)
    base_phi = gen.uniform(0.5, 2.0, size=10)
    sig = 0.8
    vals = {}
    for k in (1, 4, 16):
        phi = np.tile(base_phi, k)
        t = phi.size
        model = build_fay_herriot(np.zeros(t), phi, np.ones((t, 1)))
        vals[k] = g3(model, [sig], area_target(model, 0))
    assert vals[1] > vals[4] > vals[16]
    assert vals[1] / vals[4] == pytest.approx(4.0, rel=0.15)
    assert vals[4] / vals[16] == pytest.approx(4.0, rel=0.05)


def test_components_scale_like_variances():
    gen = rng(521)
    model, y, phi = fh_instance(gen, t=8)
    c2 = 2.7
    scaled = build_fay_herriot(c2 * y, c2 * phi, np.ones((8, 1)))
    sig = 0.7
    for i in (0, 5):
        t1, t2 = area_target(model, i), area_target(scaled, i)
        assert g1(scaled, [c2 * sig], t2) == pytest.approx(c2 * g1(model, [sig], t1), rel=1e-10)
        assert g2(scaled, [c2 * sig], t2) == pytest.approx(c2 * g2(model, [sig], t1), rel=1e-10)
        assert g3(scaled, [c2 * sig], t2) == pytest.approx(c2 * g3(model, [sig], t1), rel=1e-10)


# --- gradients and nonnegativity ------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_dg1_matches_finite_differences(name):
    gen = rng(531)
    model, _, _ = MAKERS[name](gen)
    sigma = gen.uniform(0.5, 1.5, size=model.s)
    m = gen.normal(size=model.r)
    tgt = area_target(model, 1)
    tgt = type(tgt)(l=tgt.l, m=m)  # random mixing vector, same l
    got = dg1_dsigma(model, sigma, tgt)
    want = fd_grad(lambda s: g1(model, s, tgt), sigma, h_rel=1e-6)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_components_are_nonnegative(name):
    gen = rng(541)
    for _ in range(3):
        model, y, _ = MAKERS[name](gen)
        sigma = gen.uniform(0.3, 1.8, size=model.s)
        tgt = area_target(model, 0)
        assert g1(model, sigma, tgt) >= 0
        assert g2(model, sigma, tgt) >= 0
        assert g3(model, sigma, tgt) >= 0
        assert g3_data(model, sigma, y, tgt) >= 0


# --- assembled estimators -------------------------------------------------


@pytest.mark.parametrize("method", ["REML", "ML"])
def test_report_assembly_identities(method):
    gen = rng(547)
    model, y, _ = MAKERS["fay-herriot"](gen, t=14)
    res = fit(model, y, method)
    rep = mse_estimators(model, res, y, area_target(model, 3), data_specific=True)
    assert rep.naive == rep.g1 + rep.g2
    assert rep.prasad_rao == rep.naive + 2.0 * rep.g3
    if method == "REML":
        assert rep.second_order == rep.prasad_rao
        assert rep.g10 is None
    else:
        assert rep.second_order == rep.prasad_rao - rep.g10
    assert rep.method == method
    assert rep.g3_data >= 0.0


@pytest.mark.parametrize("method", ["REML", "ML"])
def test_fit_workspace_serves_eblup_and_mse(method, monkeypatch):
    # nested error has a diagonal r-space core, crossed ANOVA a dense r x r one
    for kind in ("nested-error", "anova"):
        _check_workspace_reuse(kind, method, monkeypatch)


def _check_workspace_reuse(kind, method, monkeypatch):
    gen = rng(563)
    model, y, _ = MAKERS[kind](gen, **({"t": 9} if kind == "nested-error" else {}))
    if kind == "anova":  # random effects in y keep sigma-hat inside
        y = y + 2.0 * model.Z @ gen.normal(size=model.r)
    res = fit(model, y, method)
    assert res.workspace.r_space
    tgt = area_target(model, 4)
    sigma = res.sigma_hat

    # a finished fit keeps no n x n matrix but Sigma and its Cholesky factor
    kept = {
        name
        for name, value in vars(res.workspace).items()
        for a in (value if isinstance(value, tuple) else (value,))
        if np.shape(a) == (model.n, model.n)
    }
    assert kept <= {"sigma_mat", "_cho"}

    calls, builds, cores = [], [], []
    cho_factor = _linalg.sla.cho_factor
    b_matrix = _linalg.SigmaPoint.b_matrix
    core = _linalg.SigmaPoint.__dict__["_core"]
    build_core = core.func

    def counting(*args, **kwargs):
        calls.append(1)
        return cho_factor(*args, **kwargs)

    def counting_b(self, method):
        builds.append(method)
        return b_matrix(self, method)

    def counting_core(self):
        cores.append(1)
        return build_core(self)

    monkeypatch.setattr(_linalg.sla, "cho_factor", counting)
    monkeypatch.setattr(_linalg.SigmaPoint, "b_matrix", counting_b)
    monkeypatch.setattr(core, "func", counting_core)
    # the counters see a fresh point's factorization
    _linalg.SigmaPoint(model, sigma).solve(y)
    assert cores == [1] and len(calls) == (kind == "anova")
    cores.clear(), calls.clear()
    pred = eblup(model, res, y, tgt)
    rep = mse_estimators(model, res, y, tgt, data_specific=True)
    assert calls == [] and cores == []  # everything ran on the fit's factorization
    assert builds == []  # and on the traces the fit left on it
    monkeypatch.undo()

    want = {
        "g1": g1(model, sigma, tgt),
        "g2": g2(model, sigma, tgt),
        "g3": g3(model, sigma, tgt, method),
        "g3_data": g3_data(model, sigma, y, tgt, method),
        "g10": g10(model, sigma, tgt) if method == "ML" else None,
    }
    for name, value in want.items():
        if value is None:
            assert getattr(rep, name) is None
        else:
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12, abs=0.0)
    assert pred.value == pytest.approx(blup(model, sigma, y, tgt).value, rel=1e-12)

    # a model object the fit did not see gets a workspace of its own
    twin = MixedModel(X=model.X, Z=model.Z, family=model.family)
    rep_twin = mse_estimators(twin, res, y, tgt, data_specific=True)
    for name in ("g1", "g2", "g3", "g3_data", "g10", "second_order"):
        a, b = getattr(rep, name), getattr(rep_twin, name)
        assert a == b or a == pytest.approx(b, rel=1e-12, abs=0.0)
    assert eblup(twin, res, y, tgt).value == pytest.approx(pred.value, rel=1e-12)


def test_data_specific_field_off_by_default():
    gen = rng(557)
    model, y, _ = MAKERS["fay-herriot"](gen, t=7)
    res = fit(model, y)
    tgt = area_target(model, 2)
    rep = mse_estimators(model, res, y, tgt)
    assert rep.g3_data is None
    rep2 = mse_estimators(model, res, y, tgt, data_specific=True)
    assert rep2.g3_data == pytest.approx(
        g3_data(model, res.sigma_hat, y, tgt), rel=1e-12
    )


def test_singular_information_downgrades_to_naive():
    model, y = canonical_two()
    res = fit(model, y, "ML")
    assert res.information is None
    rep = mse_estimators(model, res, y, area_target(model, 0))
    assert rep.prasad_rao is None
    assert rep.second_order is None
    assert rep.g3 is None
    assert rep.g10 is None
    assert rep.naive == rep.g1 + rep.g2
    assert WARN_SINGULAR_INFORMATION in rep.warnings
    assert WARN_BOUNDARY in rep.warnings  # sigma-hat = 0 here as well


def test_boundary_warning_propagates():
    X = np.ones((2, 1))
    y = np.array([0.1, -0.1])
    model = build_fay_herriot(y, [1.0, 1.0], X)
    res = fit(model, y)
    rep = mse_estimators(model, res, y, area_target(model, 0))
    assert WARN_BOUNDARY in rep.warnings
    assert rep.prasad_rao is not None  # information stays regular at sigma = 0


# --- correction-term identities -------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_reml_corrections_cancel_in_pairs(name):
    gen = rng(563)
    for _ in range(4):
        model, _, _ = MAKERS[name](gen)
        sigma = gen.uniform(0.4, 1.6, size=model.s)
        tgt = area_target(model, 0)
        d = delta_terms(model, sigma, tgt)
        assert d.delta0 == 0.0
        assert d.delta1 + d.delta3 == 0.0  # exact: the same product, negated
        assert d.delta2 == pytest.approx(-g3(model, sigma, tgt), rel=1e-12)


def test_ml_corrections_sum_to_difference():
    gen = rng(569)
    model, _, _ = MAKERS["nested-error"](gen)
    sigma = np.array([1.0, 0.8])
    tgt = area_target(model, 1)
    d = delta_terms(model, sigma, tgt, "ML")
    total = d.delta0 + d.delta1 + d.delta2 + d.delta3
    want = g10(model, sigma, tgt) - g3(model, sigma, tgt, "ML")
    assert total == pytest.approx(want, rel=1e-12)


# --- oracle: the naive term is the attainable minimum ---------------------


def test_naive_equals_minimum_prediction_mse():
    # brute force over unbiased linear predictors: project the objective
    # onto the constraint null space and minimize the quadratic exactly
    gen = rng(571)
    for trial in range(6):
        model, _, aux = MAKERS[sorted(MAKERS)[trial % 3]](gen)
        sigma = gen.uniform(0.4, 1.5, size=model.s)
        tgt = area_target(model, 0)
        S = aux.sigma_of(sigma)
        G = model.family.g_matrix(np.asarray(sigma, dtype=float))
        c = model.Z @ G @ tgt.m
        mgm = float(tgt.m @ G @ tgt.m)
        p = model.p
        # particular solution of X'w = l plus null-space correction
        w0 = aux.X @ np.linalg.solve(aux.X.T @ aux.X, tgt.l)
        q, _ = np.linalg.qr(aux.X, mode="complete")
        N = q[:, p:]  # basis of the constraint null space
        h = N.T @ (S @ w0 - c)
        w = w0 - N @ np.linalg.solve(N.T @ S @ N, h)
        mse_min = float(w @ S @ w - 2.0 * w @ c + mgm)
        naive = g1(model, sigma, tgt) + g2(model, sigma, tgt)
        assert naive == pytest.approx(mse_min, rel=1e-8, abs=1e-10)
