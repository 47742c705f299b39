"""Fisher scoring on the score equations: roots, boundaries, diagnostics."""

import numpy as np
import pytest

from eblup import (
    NotPositiveDefinite,
    OutsideParameterSpace,
    build_fay_herriot,
    build_nested_error,
    fit,
    gls_beta,
    restricted_loglik,
    score_reml,
    simulate_dataset,
    starting_values,
)
from eblup import _linalg
from eblup._linalg import SigmaPoint
from eblup.likelihood import effective_dims

from support import MAKERS, rng


def canonical_pair(scale=1.0):
    X = np.ones((2, 1))
    y = scale * np.array([1.0, -1.0])
    return build_fay_herriot(y, [1.0, 1.0], X), y


def balanced_groups(t, k):
    return np.repeat(np.arange(t), k)


# --- closed-form roots ----------------------------------------------------


def test_canonical_reml_root_is_one():
    model, y = canonical_pair()
    res = fit(model, y)
    assert res.sigma_hat.values[0] == pytest.approx(1.0, abs=1e-9)
    assert res.converged
    assert not res.boundary_hit
    assert res.final_score_norm <= 1e-8


def test_fit_from_root_takes_no_steps():
    model, y = canonical_pair()
    res = fit(model, y, start=[1.0])
    assert res.iterations == 0
    assert res.converged
    assert res.sigma_hat.values[0] == 1.0
    assert res.loglik_trace == (res.loglik,)


def test_balanced_fay_herriot_matches_sample_variance():
    # equal phi, intercept only: the REML root is var(y) - phi when interior
    gen = rng(41)
    t = 12
    y = gen.normal(size=t) * 2.0
    model = build_fay_herriot(y, np.full(t, 0.5), np.ones((t, 1)))
    want = y.var(ddof=1) - 0.5
    assert want > 0
    res = fit(model, y)
    assert res.sigma_hat.values[0] == pytest.approx(want, rel=1e-8)


def test_balanced_one_way_matches_anova_estimators():
    gen = rng(43)
    t, k = 5, 4
    means = np.array([3.0, -2.0, 0.5, 4.0, -1.5])
    y = np.repeat(means, k) + gen.normal(size=t * k)
    groups = balanced_groups(t, k)
    model = build_nested_error(y, groups, np.ones((t * k, 1)))
    gm = y.reshape(t, k).mean(axis=1)
    msw = float(((y.reshape(t, k) - gm[:, None]) ** 2).sum() / (t * (k - 1)))
    msb = float(k * ((gm - y.mean()) ** 2).sum() / (t - 1))
    assert msb > msw
    res = fit(model, y)
    assert res.sigma_hat.values[0] == pytest.approx(msw, rel=1e-7)
    assert res.sigma_hat.values[1] == pytest.approx((msb - msw) / k, rel=1e-7)


def test_ml_two_area_root_is_exact_zero():
    model, y = canonical_pair()
    res = fit(model, y, method="ML")
    assert res.sigma_hat.values[0] == 0.0
    assert res.boundary_hit
    assert res.converged
    assert res.information is None  # the ML information degenerates at t=2


def test_reml_boundary_when_signal_below_noise():
    model, y = canonical_pair(scale=0.1)
    res = fit(model, y)
    assert res.sigma_hat.values[0] == 0.0
    assert res.sigma_hat.boundary_flags[0]
    assert res.converged
    # outward-pointing score at the clamp
    assert score_reml(model, [0.0], y)[0] < 0


# --- iteration mechanics --------------------------------------------------


def test_loglik_trace_is_nondecreasing():
    gen = rng(47)
    for name in sorted(MAKERS):
        model, y, _ = MAKERS[name](gen)
        res = fit(model, y)
        trace = np.array(res.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert res.loglik == trace[-1]


def test_fit_result_summaries_are_consistent():
    gen = rng(53)
    model, y, aux = MAKERS["nested-error"](gen, t=9)
    res = fit(model, y)
    beta, cov = gls_beta(model, res.sigma_hat, y)
    np.testing.assert_allclose(res.beta_hat, beta)
    np.testing.assert_allclose(res.beta_cov, cov)
    np.testing.assert_allclose(
        res.effective_dims, effective_dims(model, res.sigma_hat)
    )
    assert res.loglik == pytest.approx(
        restricted_loglik(model, res.sigma_hat, y), rel=1e-12
    )
    assert res.method == "REML"


def test_methods_agree_on_large_balanced_design():
    gen = rng(59)
    t = 250
    phi = gen.uniform(0.5, 2.0, size=t)
    sig = 0.8
    y = gen.normal(size=t) * np.sqrt(sig + phi)
    model = build_fay_herriot(y, phi, np.ones((t, 1)))
    r = fit(model, y, "REML")
    m = fit(model, y, "ML")
    assert r.converged and m.converged
    assert abs(r.sigma_hat.values[0] - sig) < 0.25
    assert abs(m.sigma_hat.values[0] - r.sigma_hat.values[0]) < 0.05


def test_max_iter_budget_reports_nonconvergence():
    gen = rng(61)
    model, y, _ = MAKERS["anova"](gen, n=30)
    res = fit(model, y, start=np.full(model.s, 25.0), max_iter=1)
    assert res.iterations <= 1
    assert not res.converged
    full = fit(model, y, start=np.full(model.s, 25.0))
    assert full.converged
    assert full.loglik >= res.loglik


def test_start_validation():
    model, y = canonical_pair()
    with pytest.raises(ValueError):
        fit(model, y, start=[1.0, 1.0])
    with pytest.raises(OutsideParameterSpace):
        fit(model, y, start=[-0.5])
    with pytest.raises(ValueError):
        fit(model, y, method="MAP")


def test_degenerate_start_propagates():
    gen = rng(67)
    model, y, _ = MAKERS["nested-error"](gen)
    with pytest.raises(NotPositiveDefinite):
        fit(model, y, start=[0.0, 0.0])


def test_starting_values_positive_and_shaped():
    gen = rng(71)
    for name in sorted(MAKERS):
        model, y, _ = MAKERS[name](gen)
        s0 = starting_values(model, y)
        assert s0.shape == (model.s,)
        assert np.all(s0 > 0)


def test_refit_from_estimate_is_stationary():
    gen = rng(73)
    model, y, _ = MAKERS["fay-herriot"](gen, t=15)
    first = fit(model, y)
    second = fit(model, y, start=first.sigma_hat)
    assert second.iterations == 0
    np.testing.assert_array_equal(
        second.sigma_hat.values, first.sigma_hat.values
    )


# --- the active set and the rounding floor --------------------------------

BOUNDARY_SEEDS = (5, 20, 34, 48, 56)
PLATEAU_SEEDS = {"REML": (1, 9, 15, 17, 34), "ML": (0, 11, 29)}


def boundary_model():
    # nine groups of two, intercept only: sigma-hat_1 = 0 on these seeds
    return build_nested_error(np.zeros(18), balanced_groups(9, 2), np.ones((18, 1)))


def plateau_model():
    sizes = (1, 2, 3, 5, 8, 13) * 10
    groups = np.repeat(np.arange(len(sizes)), sizes)
    x = rng(5).standard_normal(len(groups))
    X = np.column_stack([np.ones(len(groups)), x])
    return build_nested_error(np.zeros(len(groups)), groups, X)


def boundary_and_plateau_fits():
    """(case, fit) for every boundary and plateau case, in a fixed order."""
    out = []
    model = boundary_model()
    for seed in BOUNDARY_SEEDS:
        y = simulate_dataset(model, [1.0, 1.0], [0.0], seed)
        for method in ("REML", "ML"):
            out.append(((seed, method), fit(model, y, method)))
    model = plateau_model()
    for method, seeds in PLATEAU_SEEDS.items():
        for seed in seeds:
            y = simulate_dataset(model, [1.0, 0.5], [1.0, 2.0], seed)
            out.append(((seed, method), fit(model, y, method)))
    return out


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_boundary_fit_reaches_the_free_root(seed):
    # with sigma_1 held at 0, Sigma = sigma_0 I and the root is closed-form
    model = boundary_model()
    y = simulate_dataset(model, [1.0, 1.0], [0.0], seed)
    reml = fit(model, y, "REML")
    ml = fit(model, y, "ML")
    assert reml.converged and ml.converged
    assert reml.sigma_hat.values[1] == 0.0 and ml.sigma_hat.values[1] == 0.0
    assert reml.sigma_hat.values[0] == pytest.approx(y.var(ddof=1), abs=1e-10)
    assert ml.sigma_hat.values[0] == pytest.approx(y.var(ddof=0), abs=1e-6)


@pytest.mark.parametrize(
    "method,seed", [(m, s) for m, seeds in PLATEAU_SEEDS.items() for s in seeds]
)
def test_fit_at_a_root_on_a_flat_criterion_converges(method, seed):
    model = plateau_model()
    y = simulate_dataset(model, [1.0, 0.5], [1.0, 2.0], seed)
    res = fit(model, y, method)
    assert res.converged
    assert not res.boundary_hit
    assert res.final_score_norm <= 1e-7


@pytest.fixture(scope="module")
def unperturbed_fits():
    return boundary_and_plateau_fits()


@pytest.mark.parametrize("perturb", ["symmetrize", "scale"])
def test_rounding_in_the_projection_flips_no_flag(perturb, unperturbed_fits, monkeypatch):
    # these fits run on the r-space backend with a diagonal core, whose
    # traces read W = Z'BZ = diag(w) - ab' through _rank_p_traces, and which
    # takes P's rank-p part ab' through gram_inv
    calls = []
    if perturb == "symmetrize":
        rank_p_traces = _linalg._rank_p_traces

        def perturbed(w, a, b):
            calls.append(1)
            # the traces of diag(w) - (ab' + ba')/2, equal to W's but for rounding
            return rank_p_traces(w, np.hstack([a, b]) / 2.0, np.hstack([b, a]))

        monkeypatch.setattr(_linalg, "_rank_p_traces", perturbed)
    else:
        gram_inv = SigmaPoint.__dict__["gram_inv"]

        def perturbed(sp, f=gram_inv.func):
            calls.append(1)
            return f(sp) * (1.0 + 2.0**-50)

        monkeypatch.setattr(gram_inv, "func", perturbed)
    for (case, want), (_, got) in zip(unperturbed_fits, boundary_and_plateau_fits()):
        assert want.converged and got.converged, case
        np.testing.assert_allclose(
            got.sigma_hat.values, want.sigma_hat.values, rtol=1e-6, atol=1e-10
        )
    assert calls, "the perturbed function never ran"
