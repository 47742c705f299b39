"""Likelihoods, scores, higher derivatives, and information matrices.

Reference values come from explicit dense linear algebra (support.loglik_dense)
and from central finite differences of lower-order quantities.  Randomness is
seeded per test.
"""

import numpy as np
import pytest

from eblup import (
    SingularInformation,
    build_fay_herriot,
    effective_dims,
    expected_information,
    hessian,
    ml_score_bias,
    profile_loglik,
    projection_p,
    restricted_loglik,
    score_ml,
    score_reml,
    third_derivatives,
)
from eblup.likelihood import as_method

from support import (
    MAKERS,
    dense_effective_dims,
    dense_proj,
    fd_grad,
    fd_jacobian,
    loglik_dense,
    rng,
)


def canonical_pair():
    """Two areas, unit sampling variance, centered response."""
    X = np.ones((2, 1))
    y = np.array([1.0, -1.0])
    return build_fay_herriot(y, [1.0, 1.0], X), y


def score_fn(model, method):
    return score_reml if as_method(method) == "REML" else score_ml


# --- criterion values -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("method", ["REML", "ML"])
def test_loglik_matches_dense_reference(name, method):
    gen = rng(101)
    for _ in range(4):
        model, y, aux = MAKERS[name](gen)
        sigma = gen.uniform(0.3, 2.0, size=model.s)
        want = loglik_dense(aux.X, aux.sigma_of(sigma), y, method)
        got = (
            restricted_loglik(model, sigma, y)
            if method == "REML"
            else profile_loglik(model, sigma, y)
        )
        assert got == pytest.approx(want, rel=1e-10)


def test_reml_differs_from_profile_by_gram_logdet():
    gen = rng(107)
    model, y, aux = MAKERS["nested-error"](gen)
    sigma = np.array([0.8, 1.3])
    Si = np.linalg.inv(aux.sigma_of(sigma))
    _, ld_g = np.linalg.slogdet(aux.X.T @ Si @ aux.X)
    diff = profile_loglik(model, sigma, y) - restricted_loglik(model, sigma, y)
    assert diff == pytest.approx(0.5 * ld_g, rel=1e-10)


# --- derivative ladder ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("method", ["REML", "ML"])
def test_score_is_gradient_of_dense_loglik(name, method):
    gen = rng(211)
    for _ in range(3):
        model, y, aux = MAKERS[name](gen)
        sigma = gen.uniform(0.4, 1.6, size=model.s)
        got = score_fn(model, method)(model, sigma, y)
        want = fd_grad(lambda s: loglik_dense(aux.X, aux.sigma_of(s), y, method), sigma)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("method", ["REML", "ML"])
def test_hessian_is_jacobian_of_score(name, method):
    gen = rng(223)
    model, y, _ = MAKERS[name](gen)
    sigma = gen.uniform(0.4, 1.6, size=model.s)
    got = hessian(model, sigma, y, method)
    want = fd_jacobian(lambda s: score_fn(model, method)(model, s, y), sigma)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(got, got.T)


@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("method", ["REML", "ML"])
def test_third_is_derivative_of_hessian(name, method):
    gen = rng(227)
    model, y, _ = MAKERS[name](gen)
    sigma = gen.uniform(0.4, 1.6, size=model.s)
    got = third_derivatives(model, sigma, y, method)
    s = model.s
    for k in range(s):
        want = fd_jacobian(
            lambda t: hessian(model, t, y, method)[:, k].copy(), sigma, h_rel=1e-5
        )
        np.testing.assert_allclose(got[:, k, :], want, rtol=1e-5, atol=1e-6)
    # full permutation symmetry
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        np.testing.assert_allclose(got, np.transpose(got, perm))


def test_canonical_derivative_values():
    model, y = canonical_pair()
    sigma = [1.0]
    assert score_reml(model, sigma, y) == pytest.approx([0.0], abs=1e-14)
    np.testing.assert_allclose(hessian(model, sigma, y), [[-0.125]], rtol=1e-12)
    np.testing.assert_allclose(
        third_derivatives(model, sigma, y), [[[0.25]]], rtol=1e-12
    )
    info = expected_information(model, sigma)
    np.testing.assert_allclose(info.A, [[-0.125]], rtol=1e-12)
    assert info.fisher_solve(np.array([1.0])) == pytest.approx([8.0])


def test_as_method_normalizes_and_rejects():
    assert as_method("reml") == "REML"
    assert as_method("Ml") == "ML"
    with pytest.raises(ValueError):
        as_method("MAP")


# --- projection and information -------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_projection_identities(name):
    gen = rng(307)
    model, _, aux = MAKERS[name](gen)
    sigma = gen.uniform(0.5, 1.5, size=model.s)
    P = projection_p(model, sigma)
    S = aux.sigma_of(sigma)
    assert np.max(np.abs(P @ aux.X)) < 1e-10
    np.testing.assert_allclose(P @ S @ P, P, atol=1e-10)
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    np.testing.assert_allclose(P, dense_proj(aux.X, S), atol=1e-10)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_information_matches_dense_traces(name):
    gen = rng(311)
    model, _, aux = MAKERS[name](gen)
    sigma = gen.uniform(0.5, 1.5, size=model.s)
    S = aux.sigma_of(sigma)
    Si = np.linalg.inv(S)
    P = dense_proj(aux.X, S)
    V = aux.v_mats
    s = model.s
    A_r = np.array(
        [[-0.5 * np.trace(P @ V[i] @ P @ V[j]) for j in range(s)] for i in range(s)]
    )
    np.testing.assert_allclose(expected_information(model, sigma).A, A_r, atol=1e-10)
    A_m = np.array(
        [
            [
                0.5 * np.trace(Si @ V[i] @ Si @ V[j])
                - np.trace(P @ V[i] @ P @ V[j] @ P @ S)
                for j in range(s)
            ]
            for i in range(s)
        ]
    )
    np.testing.assert_allclose(
        expected_information(model, sigma, "ML").A, A_m, atol=1e-10
    )


def test_ml_information_is_expected_hessian():
    # E[hessian_ML] computed exactly: E[y'Qy] = tr(Q Sigma) + beta'X'QXbeta,
    # and every quadratic in the Hessian has X in its null space.
    gen = rng(313)
    model, _, aux = MAKERS["fay-herriot"](gen, t=8)
    sigma = np.array([0.9])
    S = aux.sigma_of(sigma)
    Si = np.linalg.inv(S)
    P = dense_proj(aux.X, S)
    V = aux.v_mats[0]
    expected_quad = np.trace(P @ V @ P @ V @ P @ S)
    expected_h = 0.5 * np.trace(Si @ V @ Si @ V) - expected_quad
    assert expected_information(model, sigma, "ML").A[0, 0] == pytest.approx(
        expected_h, rel=1e-12
    )


def test_reml_fisher_is_positive_definite():
    gen = rng(317)
    for name in sorted(MAKERS):
        model, _, _ = MAKERS[name](gen)
        sigma = gen.uniform(0.5, 1.5, size=model.s)
        info = expected_information(model, sigma)
        eig = np.linalg.eigvalsh(info.fisher)
        assert eig.min() > 0
        np.testing.assert_allclose(
            info.fisher_inv @ info.fisher, np.eye(model.s), atol=1e-9
        )


def test_singular_information_two_area_ml():
    model, _ = canonical_pair()
    # with t = p + 1 the ML expected Hessian vanishes identically
    with pytest.raises(SingularInformation):
        expected_information(model, [1.0], "ML")


def test_ml_score_bias_equals_expected_score():
    gen = rng(331)
    model, _, aux = MAKERS["nested-error"](gen)
    sigma = np.array([1.1, 0.7])
    S = aux.sigma_of(sigma)
    P = dense_proj(aux.X, S)
    Si = np.linalg.inv(S)
    # E[score_ML,i] = (1/2)[tr(P V_i) - tr(Si V_i)] = -g_M0,i
    want = np.array(
        [-0.5 * (np.trace(P @ v) - np.trace(Si @ v)) for v in aux.v_mats]
    )
    np.testing.assert_allclose(ml_score_bias(model, sigma), want, atol=1e-12)
    assert np.all(ml_score_bias(model, sigma) >= -1e-12)


def test_reml_score_mean_zero_small_monte_carlo():
    gen = rng(337)
    model, _, aux = MAKERS["fay-herriot"](gen, t=6)
    sigma = np.array([1.0])
    S = aux.sigma_of(sigma)
    L = np.linalg.cholesky(S)
    beta = np.array([0.5, -0.2])
    draws = np.array(
        [
            score_reml(model, sigma, aux.X @ beta + L @ gen.standard_normal(6))[0]
            for _ in range(400)
        ]
    )
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean()) < 4 * se


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_effective_dims_dense(name):
    gen = rng(347)
    model, _, aux = MAKERS[name](gen)
    sigma = gen.uniform(0.5, 1.5, size=model.s)
    P = dense_proj(aux.X, aux.sigma_of(sigma))
    d = effective_dims(model, sigma)
    assert d.shape == (model.s,)
    np.testing.assert_allclose(d, dense_effective_dims(aux, P), rtol=1e-10)
