"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs an untimed warm-up in
``setup`` and then runs whole rounds through the meter: a round draws fresh
data (benchmark time, not program time), fits (program time, not an op) and
runs its operations (program time, one op each), checking every operation
against ``oracle`` as it goes.  A check that fails or an exception counts
the operations it touches as failed.
"""

from __future__ import annotations

import numpy as np

import oracle


METHODS = ("REML", "ML")
# warm-up fits stop after this many steps, so set-up cost does not depend
# on how many iterations the seed's data happen to need
WARMUP_ITER = 2


def rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _fit_ok(meter, fit, score) -> bool:
    """The oracle's score (value, scale) meets the KKT conditions at sigma-hat.

    Two things are counted by the meter rather than failed, because they
    fail on some seeds only, through faults in ``fit`` (README.md,
    "Checks"): ``fit.converged``, and the free components of a fit that
    has a component at zero.  The sign condition at that zero is checked.
    """
    at_zero = fit.sigma_hat.values <= 0.0
    ok = oracle.score_ok(*score, at_zero)
    if at_zero.any() and not ok[~at_zero].all():
        meter.fit_notes["short_of_root"] += 1
        return bool(ok[at_zero].all())
    return bool(ok.all())


def _mse_ok(rep, g1, g2, g3, g10=None, g3_data=None) -> bool:
    """The report's g-terms match the oracle and assemble as documented."""
    ok = (
        oracle.close(rep.g1, g1)
        and oracle.close(rep.g2, g2)
        and oracle.close(rep.g3, g3, rtol=1e-6)
        and oracle.close(rep.naive, rep.g1 + rep.g2)
        and oracle.close(rep.prasad_rao, rep.naive + 2.0 * rep.g3)
    )
    if g3_data is not None:
        ok = ok and oracle.close(rep.g3_data, g3_data, rtol=1e-6)
    if rep.method == "ML":
        return ok and oracle.close(rep.g10, g10, rtol=1e-6, atol=1e-10) and oracle.close(
            rep.second_order, rep.prasad_rao - rep.g10
        )
    return ok and oracle.close(rep.second_order, rep.prasad_rao)


class FayHerriotAreas:
    """fh_all_areas: one REML fit, then EBLUP and data-specific MSE of every area.

    t = 300 areas, X = [1, x1, x2] with x ~ N(0, 1), phi ~ U(0.5, 2.0),
    A = 1, beta = (1, 0.5, -0.5).  Op: one area.  Target-heavy: each area
    refactorizes the t x t Sigma, so the fit is a few percent of the time.
    """

    name = "fh_all_areas"
    count_rounds = 2
    T = 300
    A = 1.0
    BETA = np.array([1.0, 0.5, -0.5])

    def __init__(self, E, seed: int):
        self.E = E
        self.seed = seed
        g = rng(seed, 1)
        self.X = np.column_stack([np.ones(self.T), g.standard_normal((self.T, 2))])
        self.phi = g.uniform(0.5, 2.0, self.T)

    def draw(self, k: int) -> np.ndarray:
        g = rng(self.seed, 2, k)
        v = g.normal(scale=np.sqrt(self.A), size=self.T)
        return self.X @ self.BETA + v + g.normal(size=self.T) * np.sqrt(self.phi)

    def setup(self) -> None:
        E = self.E
        y = self.draw(0)
        self.model = E.build_fay_herriot(y, self.phi, self.X)
        self.targets = [E.area_target(self.model, i) for i in range(self.T)]
        fit = E.fit(self.model, y, "REML", max_iter=WARMUP_ITER)
        E.eblup(self.model, fit, y, self.targets[0])
        E.mse_estimators(self.model, fit, y, self.targets[0], data_specific=True)

    def round(self, k: int, meter) -> None:
        E, model = self.E, self.model
        y = self.draw(k + 1)
        fit = meter.fit(lambda: E.fit(model, y, "REML"))
        orc = fit_ok = None
        if fit is not None:
            orc = oracle.FayHerriot(self.X, self.phi, fit.sigma_hat.values[0], "REML", y)
            fit_ok = _fit_ok(meter, fit, (orc.score, orc.score_scale))
        for i, tgt in enumerate(self.targets):

            def check(out, i=i):
                pred, rep = out
                return int(
                    not oracle.close(pred.value, orc.eblup[i])
                    or not _mse_ok(rep, orc.g1[i], orc.g2[i], orc.g3[i], g3_data=orc.g3_data[i])
                )

            meter.op(
                lambda tgt=tgt: (
                    E.eblup(model, fit, y, tgt),
                    E.mse_estimators(model, fit, y, tgt, data_specific=True),
                ),
                check,
                valid=fit_ok,
            )


class NestedErrorGroups:
    """ne_all_groups: REML and ML fits, then EBLUP and MSE of every group.

    60 groups whose sizes cycle through (1, 2, 3, 5, 8, 13): n = 320 units.
    X = [1, x] with x ~ N(0, 1); sigma = (1.0, 0.5), beta = (1, 2).
    Op: one (group, method) pair.  Two components, Z != I, a residual
    term, and the ML branch (g10 and the ML information).
    """

    name = "ne_all_groups"
    count_rounds = 4
    SIZES = (1, 2, 3, 5, 8, 13) * 10
    SIGMA = np.array([1.0, 0.5])
    BETA = np.array([1.0, 2.0])

    def __init__(self, E, seed: int):
        self.E = E
        self.seed = seed
        self.groups = np.repeat(np.arange(len(self.SIZES)), self.SIZES)
        n = len(self.groups)
        self.X = np.column_stack([np.ones(n), rng(seed, 1).standard_normal(n)])

    def draw(self, k: int) -> np.ndarray:
        g = rng(self.seed, 2, k)
        v = g.normal(scale=np.sqrt(self.SIGMA[1]), size=len(self.SIZES))
        e = g.normal(scale=np.sqrt(self.SIGMA[0]), size=len(self.groups))
        return self.X @ self.BETA + v[self.groups] + e

    def setup(self) -> None:
        E = self.E
        y = self.draw(0)
        self.model = E.build_nested_error(y, self.groups, self.X)
        self.targets = [E.area_target(self.model, i) for i in range(len(self.SIZES))]
        for method in METHODS:
            fit = E.fit(self.model, y, method, max_iter=WARMUP_ITER)
            E.eblup(self.model, fit, y, self.targets[0])
            E.mse_estimators(self.model, fit, y, self.targets[0])

    def round(self, k: int, meter) -> None:
        E, model = self.E, self.model
        y = self.draw(k + 1)
        fits, orcs, fit_ok = {}, {}, True
        for method in METHODS:
            fits[method] = fit = meter.fit(lambda: E.fit(model, y, method))
            if fit is None:
                fit_ok = False
                continue
            orcs[method] = orc = oracle.NestedError(self.X, self.groups, fit.sigma_hat.values, y, method)
            fit_ok = fit_ok and _fit_ok(meter, fit, (orc.score, orc.score_scale))
        for i, tgt in enumerate(self.targets):

            def both(tgt=tgt):
                return [
                    (E.eblup(model, fits[m], y, tgt), E.mse_estimators(model, fits[m], y, tgt))
                    for m in METHODS
                ]

            def check(out, i=i):
                return sum(
                    not (
                        oracle.close(pred.value, orcs[m].eblup[i])
                        and _mse_ok(rep, orcs[m].g1[i], orcs[m].g2[i], orcs[m].g3[i], g10=orcs[m].g10[i])
                    )
                    for m, (pred, rep) in zip(METHODS, out)
                )

            # both methods in one timed call, so that op times are not a
            # 50/50 mixture of a cheap (REML) and a dear (ML) mode
            meter.op(both, check, n=len(METHODS), valid=fit_ok)


class AnovaCrossed:
    """anova_crossed: balanced two-factor crossed design with interaction.

    Levels (10, 8) with 4 replicates per cell (n = 320), effects A, B and
    AB, intercept-only X; sigma = (1.0, 1.0, 1.0, 0.5), beta = 2.  Built
    through BalancedDesign and to_model.  One REML fit, then a target
    beta + a_j or beta + b_j for every level of both factors.  Op: one
    target.  The only input with Kronecker structure.
    """

    name = "anova_crossed"
    count_rounds = 4
    LEVELS = (10, 8, 4)
    SIGMA = np.array([1.0, 1.0, 1.0, 0.5])
    BETA = 2.0

    def __init__(self, E, seed: int):
        self.E = E
        self.seed = seed

    def draw(self, k: int) -> np.ndarray:
        a, b, r = self.LEVELS
        g = rng(self.seed, 2, k)
        s0, sa, sb, sab = np.sqrt(self.SIGMA)
        y3 = (
            self.BETA
            + sa * g.standard_normal((a, 1, 1))
            + sb * g.standard_normal((1, b, 1))
            + sab * g.standard_normal((a, b, 1))
            + s0 * g.standard_normal((a, b, r))
        )
        return y3.reshape(-1)

    def setup(self) -> None:
        E = self.E
        a, b, r = self.LEVELS
        design = E.BalancedDesign(
            levels=self.LEVELS, effects=((0, 1, 1), (1, 0, 1), (0, 0, 1)), s_index=(1, 1, 1)
        )
        self.model = E.to_model(design)
        # independent one-hot blocks for the oracle, in the layout's (a, b, r) order
        rows_a = np.repeat(np.arange(a), b * r)
        rows_b = np.tile(np.repeat(np.arange(b), r), a)
        self.z_blocks = [np.eye(a)[rows_a], np.eye(b)[rows_b], np.eye(a * b)[rows_a * b + rows_b]]
        r_total = a + b + a * b
        self.M = np.zeros((r_total, a + b))
        self.M[np.arange(a + b), np.arange(a + b)] = 1.0
        names = [f"A{j}" for j in range(a)] + [f"B{j}" for j in range(b)]
        self.targets = [
            E.PredictionTarget(l=np.ones(1), m=self.M[:, j], name=name) for j, name in enumerate(names)
        ]
        y = self.draw(0)
        fit = E.fit(self.model, y, "REML", max_iter=WARMUP_ITER)
        E.eblup(self.model, fit, y, self.targets[0])
        E.mse_estimators(self.model, fit, y, self.targets[0])

    def round(self, k: int, meter) -> None:
        E, model = self.E, self.model
        y = self.draw(k + 1)
        fit = meter.fit(lambda: E.fit(model, y, "REML"))
        fit_ok = None
        if fit is not None:
            sigma = fit.sigma_hat.values
            orc = oracle.Dense(np.ones((len(y), 1)), self.z_blocks, sigma, "REML")
            beta, v = orc.blup(y)
            value = beta[0] + self.M.T @ v
            g1, g2 = orc.g1_g2(np.ones((1, self.M.shape[1])), self.M)
            g3 = orc.g3(self.M)
            fit_ok = _fit_ok(meter, fit, orc.score(y))
            anova = oracle.anova_two_way(y.reshape(self.LEVELS))
            if np.all(anova > 0.0):
                fit_ok = fit_ok and np.allclose(sigma, anova, rtol=1e-6, atol=1e-8 * anova.max())
        for j, tgt in enumerate(self.targets):

            def check(out, j=j):
                pred, rep = out
                return int(
                    not oracle.close(pred.value, value[j]) or not _mse_ok(rep, g1[j], g2[j], g3[j])
                )

            meter.op(
                lambda tgt=tgt: (
                    E.eblup(model, fit, y, tgt),
                    E.mse_estimators(model, fit, y, tgt),
                ),
                check,
                valid=fit_ok,
            )


class GateStudy:
    """mc_fh_gate: the acceptance-gate Monte Carlo study, in blocks.

    Fay-Herriot t = 100, phi cycling 0.7/1.0/1.3, X = 1, A = 1, beta = 0,
    five area targets, REML and ML, all four estimators.  run_study runs
    blocks of BLOCK replicates whose base seeds continue one stream
    (seed * 10**7 + k * BLOCK).  Op: one replicate.  Block checks:
    n_failed == 0 and the analytic columns equal the closed forms.  Pooled
    over blocks at the end: the known-sigma BLUP's empirical MSE lies
    within 4 standard errors of g1 + g2, and the REML score mean at the
    true sigma has |z| < 4.
    """

    name = "mc_fh_gate"
    count_rounds = 4
    T = 100
    AREAS = 5
    BLOCK = 10
    ESTIMATORS = ("naive", "prasad_rao", "second_order", "data_specific")

    def __init__(self, E, seed: int):
        self.E = E
        self.base = seed * 10**7
        self.phi = np.tile([0.7, 1.0, 1.3], self.T // 3 + 1)[: self.T]
        self.blocks: list = []

    def config(self, base_seed: int, replicates: int):
        E = self.E
        return E.McConfig(
            model=self.model,
            sigma_true=[1.0],
            beta_true=[0.0],
            targets=self.targets,
            methods=METHODS,
            replicates=replicates,
            base_seed=base_seed,
            estimators=self.ESTIMATORS,
        )

    def setup(self) -> None:
        E = self.E
        self.model = E.build_fay_herriot(np.zeros(self.T), self.phi, np.ones((self.T, 1)))
        self.targets = tuple(E.area_target(self.model, i) for i in range(self.AREAS))
        X = np.ones((self.T, 1))
        orcs = {m: oracle.FayHerriot(X, self.phi, 1.0, m) for m in METHODS}
        self.naive = (orcs["REML"].g1 + orcs["REML"].g2)[: self.AREAS]
        self.approx = {m: self.naive + o.g3[: self.AREAS] for m, o in orcs.items()}
        E.run_study(self.config(self.base + 9 * 10**6, 2))

    def round(self, k: int, meter) -> None:
        base = self.base + k * self.BLOCK
        meter.op(lambda: self.E.run_study(self.config(base, self.BLOCK)), self.check, n=self.BLOCK)

    def check(self, report) -> int:
        ok = report.n_failed == 0 and report.replicates == self.BLOCK
        for cell in report.cells:
            k = int(cell.target)
            ok = ok and oracle.close(cell.analytic_naive, self.naive[k])
            ok = ok and oracle.close(cell.analytic_mse_approx, self.approx[cell.method][k], rtol=1e-6)
        if not ok:
            return self.BLOCK
        self.blocks.append(report)
        return 0

    def finish(self) -> bool:
        """The pooled checks over every block that passed its own."""
        K = len(self.blocks)
        if K == 0:
            return False
        ok = True
        for k in range(self.AREAS):
            cells = [next(c for c in r.cells if c.method == "REML" and int(c.target) == k) for r in self.blocks]
            mean = sum(c.emp_mse_blup for c in cells) / K
            se = np.sqrt(sum(c.emp_mse_blup_se**2 for c in cells)) / K
            ok = ok and abs(mean - self.naive[k]) < 4.0 * se
        diags = [next(d for d in r.diagnostics if d.method == "REML") for r in self.blocks]
        mean = sum(float(d.score_mean[0]) for d in diags) / K
        se = np.sqrt(sum(float(d.score_se[0]) ** 2 for d in diags)) / K
        return bool(ok and abs(mean) < 4.0 * se)


WORKLOADS = {w.name: w for w in (GateStudy, FayHerriotAreas, NestedErrorGroups, AnovaCrossed)}
