"""Monte Carlo engine for EBLUP and MSE-estimator studies.

Replicate r draws y from the true model with seed base_seed + r, fits each
configured method, evaluates the EBLUP and every configured MSE estimator,
and the report aggregates across replicates.  Reproducibility contract:
per-replicate counter-based seeding plus an index-ordered compensated
reduction, so the report is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
import warnings as _warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._linalg import SigmaPoint
from .estimation import fit
from .exceptions import SimulationError
from .likelihood import (
    InformationMatrix,
    as_method,
    information_at,
    ml_score_bias_at,
    score_at,
)
from .model import BOUNDARY_TOL, MixedModel, PredictionTarget, sigma_as_array
from .mse import _mse_true_approx_at, mse_estimators
from .prediction import blup_at, eblup

ESTIMATORS = ("naive", "prasad_rao", "second_order", "data_specific")
# the columns of _Replicate.values
_VALUES = ESTIMATORS + ("g3_data",)

MAX_FAILURE_RATE = 0.01


# --------------------------------------------------------------------------
# data generation
# --------------------------------------------------------------------------


def _draw(model: MixedModel, sigma, beta, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One (y, v) draw. v is needed by the study to score predictors."""
    values = sigma_as_array(model, sigma)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (model.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({model.p},)")
    rng = np.random.Generator(np.random.Philox(seed))
    # G and R are diagonal, so their square roots scale the draws elementwise
    v = np.sqrt(model.family.g_diag(values)) * rng.standard_normal(model.r)
    e = np.sqrt(model.family.r_diag(values)) * rng.standard_normal(model.n)
    return model.X @ beta + model.z_mul(v) + e, v


def simulate_dataset(model: MixedModel, sigma_true, beta_true, seed: int) -> np.ndarray:
    """Draw y = X beta + Z v + e with v ~ N(0,G), e ~ N(0,R).

    The stream is counter-based (Philox) and keyed by seed alone: the same
    seed always reproduces the same vector, bit for bit.
    """
    return _draw(model, sigma_true, beta_true, seed)[0]


# --------------------------------------------------------------------------
# study configuration and report
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class McConfig:
    """Study description: truth, targets, methods, estimators, seeding."""

    model: MixedModel
    sigma_true: np.ndarray
    beta_true: np.ndarray
    targets: tuple[PredictionTarget, ...]
    methods: tuple[str, ...] = ("REML",)
    replicates: int = 1000
    base_seed: int = 0
    estimators: tuple[str, ...] = ("naive", "prasad_rao", "second_order")

    def __post_init__(self):
        object.__setattr__(self, "sigma_true", sigma_as_array(self.model, self.sigma_true))
        beta = np.array(self.beta_true, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta_true", beta)
        if beta.shape != (self.model.p,):
            raise ValueError(f"beta_true has shape {beta.shape}, expected ({self.model.p},)")
        if not self.targets:
            raise ValueError("at least one prediction target is required")
        object.__setattr__(self, "methods", tuple(as_method(m) for m in self.methods))
        if self.replicates < 2:
            raise ValueError("replicates must be at least 2")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATORS}")
        if np.any(self.sigma_true <= BOUNDARY_TOL):
            _warnings.warn(
                "sigma_true has boundary components; the MSE theory assumes an "
                "interior truth", RuntimeWarning, stacklevel=2,
            )


@dataclass(frozen=True, eq=False)
class McCell:
    """Aggregates for one target under one method."""

    target: str
    method: str
    emp_mse_eblup: float
    emp_mse_eblup_se: float
    emp_mse_blup: float
    emp_mse_blup_se: float
    estimator_mean: dict[str, float]
    estimator_se: dict[str, float]
    relative_bias: dict[str, float]
    g3_data_mean: float | None
    g3_data_se: float | None
    analytic_naive: float
    analytic_mse_approx: float | None


@dataclass(frozen=True, eq=False)
class MethodDiagnostics:
    """Score moments at the true sigma plus boundary/failure bookkeeping.

    ``n_not_converged`` counts the used replicates whose fit reported
    ``converged=False``; they stay in every aggregate.
    """

    method: str
    score_mean: np.ndarray
    score_se: np.ndarray
    score_target: np.ndarray
    score_z: np.ndarray
    n_boundary: int
    boundary_rate: float
    n_not_converged: int


@dataclass(frozen=True, eq=False)
class McReport:
    replicates: int
    n_used: int
    n_failed: int
    failure_rate: float
    failures: dict[str, int]  # failed replicates by exception type name
    base_seed: int
    cells: tuple[McCell, ...]
    diagnostics: tuple[MethodDiagnostics, ...]


class _Replicate:
    """One replicate's outputs in fixed-shape arrays, or the exception type
    name in ``error`` when it failed.

    Axes: methods as in ``config.methods``, targets as in ``config.targets``,
    and for ``values`` the columns ``_VALUES`` (the estimators, then g3_data).
    ``values`` holds NaN where the replicate produced no value: the
    corrected estimators of a naive-only report, and data_specific and
    g3_data when they were not asked for.  The aggregation averages each
    column over its non-NaN entries.
    """

    def __init__(self, n_methods: int, n_targets: int, s: int):
        self.error = ""
        self.blup_sq_err = np.empty(n_targets)
        self.boundary = np.empty(n_methods, dtype=bool)
        self.converged = np.empty(n_methods, dtype=bool)
        self.score_true = np.empty((n_methods, s))
        self.sq_err = np.empty((n_methods, n_targets))
        self.values = np.full((n_methods, n_targets, len(_VALUES)), np.nan)


# --------------------------------------------------------------------------
# aggregation helpers (index-ordered, compensated)
# --------------------------------------------------------------------------


def _mean_se(column: np.ndarray) -> tuple[float, float]:
    xs = column.tolist()
    n = len(xs)
    m = math.fsum(xs) / n
    var = math.fsum((x - m) ** 2 for x in xs) / (n - 1)
    return m, math.sqrt(var / n)


def _safe_z(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    """diff/se with exact hits at zero spread (e.g. A = 0) counted as z = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((se == 0.0) & (diff == 0.0), 0.0, diff / se)


def _thread_count(n_jobs: int) -> int:
    """Worker count: EBLUP_THREADS when set, else 1 (serial).

    Replicates are GIL-bound at desk scale, so threads are opt-in.
    """
    env = os.environ.get("EBLUP_THREADS", "").strip()
    cap = max(1, int(env)) if env else 1
    return max(1, min(cap, n_jobs))


# --------------------------------------------------------------------------
# the study driver
# --------------------------------------------------------------------------


def _run_replicate(config: McConfig, r: int, sp_true: SigmaPoint) -> _Replicate:
    """One replicate; ``sp_true`` is the study's workspace at the true sigma."""
    model = config.model
    rec = _Replicate(len(config.methods), len(config.targets), model.s)
    try:
        y, v = _draw(model, config.sigma_true, config.beta_true, config.base_seed + r)
        mu = [float(t.l @ config.beta_true + t.m @ v) for t in config.targets]
        for k, t in enumerate(config.targets):
            rec.blup_sq_err[k] = (blup_at(sp_true, y, t).value - mu[k]) ** 2
        want_data = "data_specific" in config.estimators
        for i, method in enumerate(config.methods):
            res = fit(model, y, method=method)
            rec.boundary[i] = res.boundary_hit
            rec.converged[i] = res.converged
            rec.score_true[i] = score_at(sp_true, y, method)
            for k, t in enumerate(config.targets):
                rep = mse_estimators(model, res, y, t, data_specific=want_data)
                rec.sq_err[i, k] = (eblup(model, res, y, t).value - mu[k]) ** 2
                data = None if rep.g3_data is None else rep.naive + 2.0 * rep.g3_data
                row = (rep.naive, rep.prasad_rao, rep.second_order, data, rep.g3_data)
                rec.values[i, k] = [math.nan if x is None else x for x in row]
    except Exception as err:  # noqa: BLE001 - replicate failures are data
        rec.error = type(err).__name__
    return rec


def run_study(config: McConfig) -> McReport:
    """Run the full study and aggregate into an McReport.

    Replicates run serially, or on EBLUP_THREADS worker threads when that
    is set; failures are recorded and excluded, and a failure rate above 1%
    aborts with SimulationError.  Aggregation is ordered by replicate index,
    so the report does not depend on scheduling.  One workspace at the true
    sigma serves every replicate and the aggregation.
    """
    n_rep = config.replicates
    model = config.model
    sp_true = SigmaPoint(model, config.sigma_true)
    workers = _thread_count(n_rep)
    if workers == 1:
        records = [_run_replicate(config, r, sp_true) for r in range(n_rep)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(lambda r: _run_replicate(config, r, sp_true), range(n_rep))
            )

    used = [rec for rec in records if not rec.error]
    n_failed = n_rep - len(used)
    failure_rate = n_failed / n_rep
    failures = dict(sorted(Counter(rec.error for rec in records if rec.error).items()))
    if failure_rate > MAX_FAILURE_RATE:
        raise SimulationError(f"{n_failed}/{n_rep} replicates failed, by type: {failures}")
    if not used:
        raise SimulationError("no replicate succeeded")

    # replicates along axis 0 of each stacked array
    blup_sq_err = np.stack([rec.blup_sq_err for rec in used])
    boundary = np.stack([rec.boundary for rec in used])
    converged = np.stack([rec.converged for rec in used])
    score_true = np.stack([rec.score_true for rec in used])
    sq_err = np.stack([rec.sq_err for rec in used])
    values = np.stack([rec.values for rec in used])
    cells = []
    diagnostics = []
    for i, method in enumerate(config.methods):
        mean_arr, se_arr = np.array([_mean_se(score_true[:, i, j]) for j in range(model.s)]).T
        if method == "ML":
            target_vec = -ml_score_bias_at(sp_true)
        else:
            target_vec = np.zeros(model.s)
        z = _safe_z(mean_arr - target_vec, se_arr)
        n_boundary = int(np.count_nonzero(boundary[:, i]))
        diagnostics.append(
            MethodDiagnostics(
                method=method,
                score_mean=mean_arr,
                score_se=se_arr,
                score_target=target_vec,
                score_z=z,
                n_boundary=n_boundary,
                boundary_rate=n_boundary / len(used),
                n_not_converged=len(used) - int(np.count_nonzero(converged[:, i])),
            )
        )
        info_true = InformationMatrix(information_at(sp_true, method), method)
        for k, t in enumerate(config.targets):
            emp, emp_se = _mean_se(sq_err[:, i, k])
            emp_blup, emp_blup_se = _mean_se(blup_sq_err[:, k])
            # a column with fewer than two values has no standard error: absent
            present = {}
            for j, name in enumerate(_VALUES):
                column = values[:, i, k, j]
                column = column[~np.isnan(column)]
                if column.size >= 2:
                    present[name] = _mean_se(column)
            est = {name: present[name] for name in config.estimators if name in present}
            g3_mean, g3_se = present.get("g3_data", (None, None))
            naive_true, approx = _mse_true_approx_at(sp_true, t, info_true)
            cells.append(
                McCell(
                    target=t.name or f"target{k}",
                    method=method,
                    emp_mse_eblup=emp,
                    emp_mse_eblup_se=emp_se,
                    emp_mse_blup=emp_blup,
                    emp_mse_blup_se=emp_blup_se,
                    estimator_mean={name: m for name, (m, _) in est.items()},
                    estimator_se={name: se for name, (_, se) in est.items()},
                    relative_bias={
                        name: (m - emp) / emp if emp > 0 else math.nan
                        for name, (m, _) in est.items()
                    },
                    g3_data_mean=g3_mean,
                    g3_data_se=g3_se,
                    analytic_naive=naive_true,
                    analytic_mse_approx=approx,
                )
            )
    return McReport(
        replicates=n_rep,
        n_used=len(used),
        n_failed=n_failed,
        failure_rate=failure_rate,
        failures=failures,
        base_seed=config.base_seed,
        cells=tuple(cells),
        diagnostics=tuple(diagnostics),
    )


# --------------------------------------------------------------------------
# moment diagnostics
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScoreMomentRecord:
    """Monte Carlo score moments against their analytic targets."""

    method: str
    replicates: int
    mean: np.ndarray
    se: np.ndarray
    mean_target: np.ndarray
    mean_z: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray
    cov_target: np.ndarray
    cov_z: np.ndarray


def score_moment_check(
    model: MixedModel, sigma_true, beta_true, replicates: int, seed: int,
    method: str = "REML",
) -> ScoreMomentRecord:
    """Check E(score) and cov(score) at the true sigma by simulation.

    The REML score has mean 0; the ML score has mean -g_M0.  Both share the
    same quadratic part, so the covariance target is the REML Fisher
    information either way.
    """
    method = as_method(method)
    sp = SigmaPoint(model, sigma_true)
    scores = np.empty((replicates, model.s))
    for r in range(replicates):
        y = simulate_dataset(model, sigma_true, beta_true, seed + r)
        scores[r] = score_at(sp, y, method)
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / math.sqrt(replicates)
    target = -ml_score_bias_at(sp) if method == "ML" else np.zeros(model.s)
    centered = scores - mean
    cov = centered.T @ centered / (replicates - 1)
    prods = centered[:, :, None] * centered[:, None, :]
    cov_se = prods.std(axis=0, ddof=1) / math.sqrt(replicates)
    cov_target = -information_at(sp, "REML")
    return ScoreMomentRecord(
        method=method,
        replicates=replicates,
        mean=mean,
        se=se,
        mean_target=target,
        mean_z=_safe_z(mean - target, se),
        cov=cov,
        cov_se=cov_se,
        cov_target=cov_target,
        cov_z=_safe_z(cov - cov_target, cov_se),
    )


@dataclass(frozen=True, eq=False)
class QuadraticMomentRecord:
    """Monte Carlo check of the three Gaussian quadratic-form identities.

    For u ~ N(0, S) and symmetric A1, A2, with q_j = u'A_j u - tr(A_j S):
    (i)  E[u q_1 u']  = 2 S A1 S
    (ii) E[q_1 q_2]   = 2 tr(A1 S A2 S)
    (iii) E[u q_1 q_2 u'] = 2 tr(A1 S A2 S) S + 4 S A1 S A2 S + 4 S A2 S A1 S
    """

    replicates: int
    vec_mc: np.ndarray
    vec_target: np.ndarray
    vec_z: np.ndarray
    scalar_mc: float
    scalar_target: float
    scalar_z: float
    matrix_mc: np.ndarray
    matrix_target: np.ndarray
    matrix_z: np.ndarray
    max_abs_z: float


def quadratic_moment_check(
    sigma_matrix, A1, A2, replicates: int, seed: int
) -> QuadraticMomentRecord:
    """Simulate the Gaussian fourth/sixth-moment identities behind the MSE algebra."""
    S = np.asarray(sigma_matrix, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    k = S.shape[0]
    for name, mat in (("sigma_matrix", S), ("A1", A1), ("A2", A2)):
        if mat.shape != (k, k):
            raise ValueError(f"{name} has shape {mat.shape}, expected ({k}, {k})")
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValueError(f"{name} must be symmetric")
    L = np.linalg.cholesky(S)
    rng = np.random.Generator(np.random.Philox(seed))
    U = rng.standard_normal((replicates, k)) @ L.T
    q1 = np.einsum("ri,ij,rj->r", U, A1, U) - np.trace(A1 @ S)
    q2 = np.einsum("ri,ij,rj->r", U, A2, U) - np.trace(A2 @ S)

    def _matrix_stats(weights: np.ndarray, target: np.ndarray):
        terms = weights[:, None, None] * (U[:, :, None] * U[:, None, :])
        mc = terms.mean(axis=0)
        se = terms.std(axis=0, ddof=1) / math.sqrt(replicates)
        return mc, _safe_z(mc - target, se)

    vec_target = 2.0 * S @ A1 @ S
    vec_mc, vec_z = _matrix_stats(q1, vec_target)

    scalar_target = 2.0 * float(np.trace(A1 @ S @ A2 @ S))
    scalar_terms = q1 * q2
    scalar_mc = float(scalar_terms.mean())
    scalar_se = float(scalar_terms.std(ddof=1)) / math.sqrt(replicates)
    scalar_z = float(_safe_z(np.array(scalar_mc - scalar_target), np.array(scalar_se)))

    matrix_target = (
        scalar_target * S + 4.0 * S @ A1 @ S @ A2 @ S + 4.0 * S @ A2 @ S @ A1 @ S
    )
    matrix_mc, matrix_z = _matrix_stats(q1 * q2, matrix_target)

    max_abs_z = max(
        float(np.max(np.abs(vec_z))), abs(scalar_z), float(np.max(np.abs(matrix_z)))
    )
    return QuadraticMomentRecord(
        replicates=replicates,
        vec_mc=vec_mc,
        vec_target=vec_target,
        vec_z=vec_z,
        scalar_mc=scalar_mc,
        scalar_target=scalar_target,
        scalar_z=scalar_z,
        matrix_mc=matrix_mc,
        matrix_target=matrix_target,
        matrix_z=matrix_z,
        max_abs_z=max_abs_z,
    )
