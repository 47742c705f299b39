"""BLUP weights and values against an equality-constrained optimization oracle.

The predictor l'beta_gls + s'(y - X beta_gls) can be rewritten as w'y with
w = Sigma^-1 X Gram^-1 (l - X's) + s.  The same w solves

    minimize   w' Sigma w - 2 w' Z G m      (prediction variance part)
    subject to X' w = l                      (unbiasedness)

whose KKT system [2 Sigma, X; X', 0] [w; lam] = [2 Z G m; l] gives an
independent route to the unique optimum.
"""

import numpy as np
import pytest

from eblup import (
    PredictionTarget,
    WARN_BOUNDARY,
    area_target,
    blup,
    build_fay_herriot,
    eblup,
    fit,
    grad_s,
    gls_beta,
    observation_weights,
)
from eblup._linalg import SigmaPoint
from eblup.prediction import weights_at

from support import MAKERS, fd_jacobian, rng


def qp_weights(X, Sigma, ZGm, l):
    n, p = X.shape
    K = np.block([[2.0 * Sigma, X], [X.T, np.zeros((p, p))]])
    rhs = np.concatenate([2.0 * ZGm, l])
    return np.linalg.solve(K, rhs)[:n]


def random_target(gen, model):
    return PredictionTarget(
        l=gen.normal(size=model.p), m=gen.normal(size=model.r)
    )


def dense_zgm(model, sigma, m):
    return model.Z @ model.family.g_matrix(np.asarray(sigma, dtype=float)) @ m


# --- weights --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_observation_weights_solve_constrained_problem(name):
    gen = rng(401)
    for _ in range(3):
        model, _, aux = MAKERS[name](gen)
        sigma = gen.uniform(0.4, 1.8, size=model.s)
        tgt = random_target(gen, model)
        w = observation_weights(model, sigma, tgt)
        want = qp_weights(
            aux.X, aux.sigma_of(sigma), dense_zgm(model, sigma, tgt.m), tgt.l
        )
        np.testing.assert_allclose(w, want, atol=1e-8)
        # unbiasedness constraint holds exactly
        np.testing.assert_allclose(aux.X.T @ w, tgt.l, atol=1e-10)


def test_blup_weights_solve_sigma_system():
    gen = rng(409)
    model, _, aux = MAKERS["nested-error"](gen)
    sigma = np.array([0.9, 1.4])
    tgt = random_target(gen, model)
    s = weights_at(SigmaPoint(model, sigma), tgt)
    want = np.linalg.solve(aux.sigma_of(sigma), dense_zgm(model, sigma, tgt.m))
    np.testing.assert_allclose(s, want, atol=1e-10)


def test_predictor_equals_weighted_data():
    gen = rng(419)
    model, y, _ = MAKERS["anova"](gen)
    sigma = np.array([1.0, 0.5, 0.8])
    tgt = random_target(gen, model)
    res = blup(model, sigma, y, tgt)
    w = observation_weights(model, sigma, tgt)
    assert res.value == pytest.approx(float(w @ y), rel=1e-10)


# --- decomposition and invariances ---------------------------------------


def test_blup_parts_recombine():
    gen = rng(421)
    model, y, _ = MAKERS["fay-herriot"](gen, t=9)
    sigma = np.array([0.7])
    tgt = random_target(gen, model)
    res = blup(model, sigma, y, tgt)
    beta, _ = gls_beta(model, sigma, y)
    np.testing.assert_allclose(res.beta_used, beta)
    assert res.value == pytest.approx(
        float(tgt.l @ beta + tgt.m @ res.v_tilde), rel=1e-10
    )
    assert res.warnings == ()


def test_translation_invariance_of_random_part():
    # shifting y by a fixed-effect direction moves only l'beta
    gen = rng(431)
    model, y, _ = MAKERS["nested-error"](gen)
    sigma = np.array([1.2, 0.6])
    tgt = random_target(gen, model)
    c = gen.normal(size=model.p)
    base = blup(model, sigma, y, tgt)
    shifted = blup(model, sigma, y + model.X @ c, tgt)
    np.testing.assert_allclose(shifted.v_tilde, base.v_tilde, atol=1e-10)
    assert shifted.value - base.value == pytest.approx(float(tgt.l @ c), abs=1e-10)


def test_v_tilde_shrinks_toward_zero():
    # one-area FH check: v_tilde = gamma (y_i - x_i beta), gamma = sig/(sig+phi)
    t = 8
    gen = rng(433)
    phi = np.full(t, 2.0)
    y = gen.normal(size=t)
    model = build_fay_herriot(y, phi, np.ones((t, 1)))
    sigma = [1.0]
    tgt = area_target(model, 3)
    res = blup(model, sigma, y, tgt)
    beta, _ = gls_beta(model, sigma, y)
    gamma = 1.0 / (1.0 + 2.0)
    assert res.v_tilde[3] == pytest.approx(gamma * (y[3] - beta[0]), rel=1e-10)


# --- weight gradient ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_grad_s_matches_finite_differences(name):
    gen = rng(443)
    model, _, _ = MAKERS[name](gen)
    sigma = gen.uniform(0.5, 1.5, size=model.s)
    tgt = random_target(gen, model)
    got = grad_s(model, sigma, tgt)
    assert got.shape == (model.n, model.s)
    want = fd_jacobian(lambda s: weights_at(SigmaPoint(model, s), tgt), sigma, h_rel=1e-6)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


# --- plug-in predictor ----------------------------------------------------


def test_eblup_evaluates_at_the_estimate():
    gen = rng(449)
    model, y, _ = MAKERS["fay-herriot"](gen, t=12)
    res = fit(model, y)
    tgt = area_target(model, 0)
    got = eblup(model, res, y, tgt)
    want = blup(model, res.sigma_hat, y, tgt)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    np.testing.assert_allclose(got.s_weights, want.s_weights)
    assert got.warnings == ()


def test_eblup_flags_boundary_estimates():
    X = np.ones((2, 1))
    y = np.array([0.1, -0.1])
    model = build_fay_herriot(y, [1.0, 1.0], X)
    res = fit(model, y)
    assert res.boundary_hit
    out = eblup(model, res, y, area_target(model, 0))
    assert WARN_BOUNDARY in out.warnings
    # at sigma = 0 the random part vanishes entirely
    assert out.v_tilde == pytest.approx([0.0, 0.0], abs=1e-14)
    assert out.value == pytest.approx(float(y.mean()), rel=1e-12)


def test_target_shape_mismatch_raises():
    gen = rng(457)
    model, y, _ = MAKERS["fay-herriot"](gen, t=5)
    bad = PredictionTarget(l=np.ones(3), m=np.zeros(model.r))
    with pytest.raises(ValueError):
        blup(model, [1.0], y, bad)
    bad2 = PredictionTarget(l=np.ones(model.p), m=np.zeros(model.r + 1))
    with pytest.raises(ValueError):
        observation_weights(model, [1.0], bad2)
