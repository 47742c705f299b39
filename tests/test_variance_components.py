"""The one covariance description against the textbook dense formulas.

Random small designs are drawn with hypothesis: Fay-Herriot with random phi,
nested error, and one to three ANOVA blocks of one-hot columns that may carry
real-valued entries, at a sigma that may have a random-effect component at
zero.  Sigma, V_i, G, the effective dimensions and the trace polynomials
tr(BV_i), tr(BV_iBV_j), tr(BV_iBV_jBV_k) are rebuilt from the raw blocks
(support.dense_*), never through the library's own assembly.  The solves,
log-determinants, GLS and traces of SigmaPoint are checked on both of its
backends: r-space whenever R = diag(d) + sigma_0 I is positive, and dense at
sigma_0 = 0 without d.  The Z products through integer codes (z_mul, zt_mul,
v_mul) are checked against the dense Z and V_i, and the EBLUP and MSE
estimators built on them against explicit inverses on both backends.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eblup import (
    BalancedDesign,
    MixedModel,
    PredictionTarget,
    VarianceComponents,
    area_target,
    assemble_sigma,
    build_anova,
    build_fay_herriot,
    build_nested_error,
    eblup,
    effective_dims,
    fit,
    mse_estimators,
    simulate_dataset,
    to_model,
)
from eblup._linalg import SigmaPoint
from eblup.exceptions import NotPositiveDefinite
from eblup.likelihood import InformationMatrix, information_at

from support import (
    MAKERS,
    DenseAux,
    dense_effective_dims,
    dense_g,
    dense_proj,
    dense_sigma,
    dense_traces,
    dense_v_mats,
    rng,
)


def _aux(X, blocks, d, residual):
    return DenseAux(sigma_of=None, v_mats=None, X=X, z_blocks=blocks, d=d, residual=residual)


@st.composite
def designs(draw, kind):
    n = draw(st.integers(4, 12))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    if kind == "fay-herriot":
        phi = gen.uniform(0.2, 3.0, size=n)
        model = build_fay_herriot(np.zeros(n), phi, X)
        aux = _aux(X, [np.eye(n)], phi, residual=False)
    elif kind == "nested-error":
        t = draw(st.integers(1, n - 1))
        labels = gen.permutation(np.arange(n) % t)
        Z = np.zeros((n, t))
        Z[np.arange(n), labels] = 1.0
        model = build_nested_error(np.zeros(n), labels, X)
        aux = _aux(X, [Z], np.zeros(n), residual=True)
    else:
        blocks = []
        specs = draw(st.lists(st.tuples(st.integers(1, 5), st.booleans()), min_size=1, max_size=3))
        for levels, real_valued in specs:
            zb = np.zeros((n, levels))
            zb[np.arange(n), gen.integers(0, levels, size=n)] = 1.0
            if real_valued:
                zb *= gen.uniform(0.3, 2.0, size=(n, 1))
            blocks.append(zb)
        model = build_anova(X, blocks)
        aux = _aux(X, blocks, np.zeros(n), residual=True)
    sigma = gen.uniform(0.2, 2.0, size=model.s)
    zero = draw(st.none() | st.integers(int(aux.residual), model.s - 1))
    if zero is not None:
        sigma[zero] = 0.0
    return model, aux, sigma


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error", "anova"])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_description_matches_the_dense_formulas(kind, data):
    model, aux, sigma = data.draw(designs(kind))
    want = dense_sigma(aux, sigma)
    np.testing.assert_allclose(assemble_sigma(model, sigma), want, rtol=0, atol=1e-12)
    sp = SigmaPoint(model, sigma)
    np.testing.assert_allclose(sp.sigma_mat, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(sp.g_diag, np.diag(dense_g(aux, sigma)))
    v_want = dense_v_mats(aux)
    assert len(model.v_mats) == len(v_want) == model.s
    for got, v in zip(model.v_mats, v_want):
        np.testing.assert_allclose(got, v, rtol=0, atol=1e-12)
    P = dense_proj(aux.X, want)
    np.testing.assert_allclose(
        effective_dims(model, sigma), dense_effective_dims(aux, P), rtol=1e-12, atol=1e-12
    )
    for method in ("REML", "ML"):
        t1, t2, t3 = dense_traces(aux, sigma, method)
        got1, got2 = sp.traces(method)
        np.testing.assert_allclose(got1, t1, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got2, t2, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(sp.trace3(method), t3, rtol=1e-10, atol=1e-10)


@st.composite
def points(draw, kind):
    """A draw of ``designs(kind)``, or for "dense" an ANOVA design at
    sigma_0 = 0 whose first block has one level per observation, so that
    Sigma stays positive definite, sometimes with the second block at zero."""
    if kind != "dense":
        return draw(designs(kind))
    n = draw(st.integers(4, 12))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    levels = draw(st.integers(1, 5))
    blocks = [np.eye(n)[gen.permutation(n)], np.zeros((n, levels))]
    blocks[1][np.arange(n), gen.integers(0, levels, size=n)] = 1.0
    sigma = np.array([0.0, gen.uniform(0.2, 2.0), gen.uniform(0.2, 2.0) * draw(st.booleans())])
    return build_anova(X, blocks), _aux(X, blocks, np.zeros(n), residual=True), sigma


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error", "anova", "dense"])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_both_backends_match_the_dense_formulas(kind, data):
    model, aux, sigma = data.draw(points(kind))
    sp = SigmaPoint(model, sigma)
    # R = diag(d) + sigma_0 I > 0 picks the r-space backend
    assert sp.r_space == (kind != "dense")
    S = dense_sigma(aux, sigma)
    S_inv = np.linalg.inv(S)
    gram = aux.X.T @ S_inv @ aux.X
    b = rng(model.n).normal(size=(model.n, 3))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    close(sp.solve(b[:, 0]), S_inv @ b[:, 0])
    close(sp.solve(b), S_inv @ b)
    close(sp.logdet_sigma, np.linalg.slogdet(S)[1])
    close(sp.logdet_gram, np.linalg.slogdet(gram)[1])
    close(sp.gls(b[:, 1]), np.linalg.solve(gram, aux.X.T @ S_inv @ b[:, 1]))
    for method in ("REML", "ML"):
        t1, t2, _ = dense_traces(aux, sigma, method)
        got1, got2 = sp.traces(method)
        close(got1, t1)
        close(got2, t2)


@pytest.mark.parametrize("sigma0", [0.0, 0.5])
def test_backend_follows_the_residual_diagonal(sigma0):
    gen = rng(11)
    model, _, _ = MAKERS["nested-error"](gen)
    sp = SigmaPoint(model, [sigma0, 1.0])
    assert sp.r_space == (sigma0 > 0)
    if sigma0 == 0.0:
        # sigma_1 ZZ' has rank t < n: only the dense factorization can tell
        with pytest.raises(NotPositiveDefinite):
            sp.solve(np.ones(model.n))
    fh, _, _ = MAKERS["fay-herriot"](gen)
    assert SigmaPoint(fh, [0.0]).r_space  # phi > 0 keeps R > 0 at sigma = 0


@st.composite
def z_models(draw, kind):
    """A model whose Z products take the codes and, for "mixed", a dense block:
    a one-hot block with non-unit values and an all-zero row beside a block
    with real values in every column."""
    if kind in ("fay-herriot", "nested-error"):
        return draw(designs(kind))[0]
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "kron":
        w = draw(st.integers(1, 2))
        levels = tuple(draw(st.integers(1, 4)) for _ in range(w)) + (draw(st.integers(2, 3)),)
        bits = st.tuples(*[st.integers(0, 1)] * w).map(lambda b: b + (1,))
        effects = tuple(draw(st.lists(bits, min_size=1, max_size=3, unique=True)))
        return to_model(BalancedDesign(levels=levels, effects=effects, s_index=(1,) * (w + 1)))
    n = draw(st.integers(4, 12))
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    levels = draw(st.integers(1, 4))
    onehot = np.zeros((n, levels))
    onehot[np.arange(n), gen.integers(0, levels, size=n)] = gen.uniform(0.3, 2.0, size=n)
    onehot[draw(st.integers(0, n - 1))] = 0.0
    real = gen.normal(size=(n, draw(st.integers(2, 4))))
    return build_anova(X, [onehot, real] if draw(st.booleans()) else [real, onehot])


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error", "kron", "mixed"])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_z_helpers_match_the_dense_z(kind, data):
    model = data.draw(z_models(kind))
    codes, _, dense = model.z_codes
    assert len(dense) == (kind == "mixed")
    assert len(codes) == len(model.family.block_dims) - len(dense)
    gen = rng(model.n)
    g, x = gen.normal(size=(model.r, 3)), gen.normal(size=(model.n, 3))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    close(model.z_mul(g[:, 0]), model.Z @ g[:, 0])
    close(model.z_mul(g), model.Z @ g)
    close(model.zt_mul(x[:, 0]), model.Z.T @ x[:, 0])
    close(model.zt_mul(x), model.Z.T @ x)
    for i, v in enumerate(model.v_mats):
        close(model.v_mul(i, x[:, 0]), v @ x[:, 0])
        close(model.v_mul(i, x), v @ x)


def _dense_report(aux, sigma, y, tgt, method):
    """The EBLUP and g1, g2, g3, g3_data, g10 from explicit inverses."""
    S = dense_sigma(aux, sigma)
    Si, P, X, l, m = np.linalg.inv(S), dense_proj(aux.X, S), aux.X, tgt.l, tgt.m
    Z, G, V = np.hstack(aux.z_blocks), dense_g(aux, sigma), dense_v_mats(aux)
    dG = [dense_g(aux, e) for e in np.eye(len(sigma))]
    gram = X.T @ Si @ X
    beta = np.linalg.solve(gram, X.T @ Si @ y)
    s = Si @ Z @ G @ m
    u = l - X.T @ s
    grad = np.column_stack([Si @ (Z @ dg @ m - v @ s) for dg, v in zip(dG, V)])
    ml = 0.5 * np.array([[np.trace(Si @ a @ Si @ b) for b in V] for a in V])
    reml = 0.5 * np.array([[np.trace(P @ a @ P @ b) for b in V] for a in V])
    F_inv = np.linalg.inv(reml if method == "REML" else 2.0 * reml - ml)
    a = grad.T @ (y - X @ beta)
    b = np.array([m @ dg @ m - 2.0 * m @ dg @ Z.T @ s + s @ v @ s for dg, v in zip(dG, V)])
    bias = 0.5 * np.array([np.trace((Si - P) @ v) for v in V])
    return {
        "value": l @ beta + s @ (y - X @ beta),
        "g1": max(m @ G @ m - m @ G @ Z.T @ Si @ Z @ G @ m, 0.0),
        "g2": max(u @ np.linalg.solve(gram, u), 0.0),
        "g3": max(np.sum((grad.T @ S @ grad) * F_inv), 0.0),
        "g3_data": max(a @ F_inv @ a, 0.0),
        "g10": -(b @ F_inv @ bias) if method == "ML" else None,
    }


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error", "anova", "dense"])
@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(data=st.data())
def test_eblup_and_mse_on_codes_match_explicit_inverses(kind, data):
    model, aux, sigma = data.draw(points(kind))
    gen = rng(model.n + 1)
    y = gen.normal(size=model.n)
    tgt = PredictionTarget(l=gen.normal(size=model.p), m=gen.normal(size=model.r))
    for method in ("REML", "ML"):
        sp = SigmaPoint(model, sigma)
        assert sp.r_space == (kind != "dense")
        info = InformationMatrix(information_at(sp, method), method)
        # ML's -A can be indefinite, and a one-level block beside the
        # intercept leaves it singular to rounding
        ev = np.linalg.eigvalsh(info.fisher)
        if ev[0] <= 1e-8 * ev[-1]:
            continue
        res = dataclasses.replace(
            fit(model, y, method, max_iter=0),
            sigma_hat=sp.sigma, workspace=sp, information=info, boundary_hit=False,
        )
        rep = mse_estimators(model, res, y, tgt, data_specific=True)
        want = _dense_report(aux, sigma, y, tgt, method)
        got = dict(vars(rep), value=eblup(model, res, y, tgt).value)
        for name, value in want.items():
            if value is None:
                assert got[name] is None
            else:
                np.testing.assert_allclose(got[name], value, rtol=1e-10, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("kind", ["fay-herriot", "nested-error"])
def test_fit_eblup_and_mse_allocate_nothing_n_by_n(kind):
    n = 2000
    gen = rng(19)
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    if kind == "fay-herriot":
        model = build_fay_herriot(np.zeros(n), gen.uniform(0.5, 2.0, size=n), X)
        y = simulate_dataset(model, [1.0], [1.0, 0.5], 3)
    else:
        model = build_nested_error(np.zeros(n), np.arange(n) % 400, X)
        y = simulate_dataset(model, [1.0, 0.5], [1.0, 0.5], 3)
    tracemalloc.start()
    try:
        for method in ("REML", "ML"):
            res = fit(model, y, method)
            assert res.workspace.r_space
            for i in (0, 7, 399):
                tgt = area_target(model, i)
                eblup(model, res, y, tgt)
                mse_estimators(model, res, y, tgt, data_specific=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a quarter of one n x n float array; the parent's V_i alone took one
    assert peak < 8 * n * n / 4
    assert "v_mats" not in model.__dict__


def test_a_model_without_random_effects_fits_the_sample_variance():
    # Z has no columns, so Sigma = sigma_0 I and each root is a sample variance
    y = np.arange(10.0)
    family = VarianceComponents(d=np.zeros(10), residual=True, block_dims=())
    model = MixedModel(X=np.ones((10, 1)), Z=np.zeros((10, 0)), family=family)
    assert fit(model, y, "REML").sigma_hat.values[0] == pytest.approx(y.var(ddof=1), rel=1e-10)
    assert fit(model, y, "ML").sigma_hat.values[0] == pytest.approx(y.var(ddof=0), rel=1e-10)
