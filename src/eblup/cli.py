"""Command-line front end.

Subcommands: fit (variance components + GLS), mse (per-target EBLUP and MSE
estimators), simulate (Monte Carlo study), check (self-diagnostics).  Reports
go to stdout as JSON with sorted keys; errors go to stderr as a single JSON
object.  Exit codes: 0 ok, 2 fit did not converge, 3 input error (a bad
command line included), 4 singular information (naive-only MSE still
emitted), 1 other failure.

Data files:
    fay-herriot CSV     area,y,phi,x1..xp
    nested-error CSV    group,y,x1..xp
    anova JSON          {"model": {...}, "y": [...]}
Model specs (simulate config and anova data) use {"family": ..., ...} with
family-specific keys; see _model_from_spec.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields as dc_fields

import numpy as np

from .estimation import FitResult, fit
from .exceptions import EblupError, SimulationError, SingularInformation
from .kron import BalancedDesign, expand, projection_identity_check, sigma_coefficients, tau_coefficients, to_model
from .likelihood import as_method, hessian, profile_loglik, restricted_loglik, score_ml, score_reml
from .model import MixedModel, PredictionTarget, area_target, build_anova, build_fay_herriot, build_nested_error
from .mse import mse_estimators
from .prediction import eblup
from .simulation import McConfig, quadratic_moment_check, run_study

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INPUT = 3
EXIT_SINGULAR = 4

FAMILIES = ("fay-herriot", "nested-error", "anova")
PRESETS = (
    "harville-jeske-balanced",
    "harville-jeske-unbalanced-small",
    "harville-jeske-unbalanced-large",
)


# --------------------------------------------------------------------------
# run report
# --------------------------------------------------------------------------


@dataclass
class RunReport:
    """JSON-stable result envelope: echo of inputs plus all outputs.

    Every field holds plain JSON types only, so serialize/parse round-trips
    to an equal object.
    """

    command: str
    model: dict
    method: str
    options: dict
    fit: dict | None
    targets: list
    warnings: list


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.__dict__, indent=2, sort_keys=True, allow_nan=False)


def report_from_json(text: str) -> RunReport:
    data = json.loads(text)
    allowed = {f.name for f in dc_fields(RunReport)}
    if not isinstance(data, dict):
        raise ValueError("report JSON must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown report fields: {sorted(unknown)}")
    missing = allowed - set(data)
    if missing:
        raise ValueError(f"missing report fields: {sorted(missing)}")
    return RunReport(**data)


def _fit_summary(res: FitResult) -> dict:
    return {
        "sigma_hat": [float(v) for v in res.sigma_hat.values],
        "method": res.method,
        "beta_hat": [float(v) for v in res.beta_hat],
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "final_score_norm": float(res.final_score_norm),
        "boundary_hit": bool(res.boundary_hit),
        "effective_dims": [float(v) for v in res.effective_dims],
        "loglik": float(res.loglik),
        "information": None
        if res.information is None
        else [[float(v) for v in row] for row in res.information.fisher],
    }


def _plain(x):
    """``dataclasses.asdict`` output as plain JSON types: arrays and tuples become lists."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    return x


# --------------------------------------------------------------------------
# input loading
# --------------------------------------------------------------------------


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    return [c.strip() for c in rows[0]], rows[1:]


def _column(header: list[str], name: str, path: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise ValueError(f"{path}: missing column '{name}'") from None


def _x_columns(header: list[str], path: str) -> list[int]:
    named = {}
    for idx, col in enumerate(header):
        if col.startswith("x") and col[1:].isdigit():
            named[int(col[1:])] = idx
    if not named:
        raise ValueError(f"{path}: missing column 'x1'")
    expected = list(range(1, len(named) + 1))
    if sorted(named) != expected:
        raise ValueError(f"{path}: covariate columns must be x1..x{len(named)}")
    return [named[j] for j in expected]


def _floats(rows: list[list[str]], idx: int, path: str) -> np.ndarray:
    out = []
    for k, row in enumerate(rows):
        try:
            out.append(float(row[idx]))
        except (ValueError, IndexError) as err:
            raise ValueError(f"{path}: row {k + 2}, column {idx + 1}: {err}") from None
    return np.array(out)


def _load_family_data(family: str, path: str):
    """Returns (model, y, model_echo_dict)."""
    if family == "fay-herriot":
        header, rows = _read_csv(path)
        area_i = _column(header, "area", path)
        y = _floats(rows, _column(header, "y", path), path)
        phi = _floats(rows, _column(header, "phi", path), path)
        X = np.column_stack([_floats(rows, j, path) for j in _x_columns(header, path)])
        labels = tuple(row[area_i].strip() for row in rows)
        model = build_fay_herriot(y, phi, X, area_labels=labels)
        echo = {"family": family, "t": len(y), "p": X.shape[1], "phi": phi.tolist()}
        return model, y, echo
    if family == "nested-error":
        header, rows = _read_csv(path)
        group_i = _column(header, "group", path)
        y = _floats(rows, _column(header, "y", path), path)
        X = np.column_stack([_floats(rows, j, path) for j in _x_columns(header, path)])
        groups = [row[group_i].strip() for row in rows]
        model = build_nested_error(y, groups, X)
        echo = {
            "family": family,
            "n": len(y),
            "p": X.shape[1],
            "groups": len(set(groups)),
        }
        return model, y, echo
    if family == "anova":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "model" not in data or "y" not in data:
            raise ValueError(f"{path}: anova data must be {{'model': ..., 'y': ...}}")
        unknown = set(data) - {"model", "y"}
        if unknown:
            raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
        model, echo = _model_from_spec(data["model"])
        y = np.asarray(data["y"], dtype=float)
        if y.shape != (model.n,):
            raise ValueError(f"{path}: y has length {y.size}, expected {model.n}")
        return model, y, echo
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


def _model_from_spec(spec) -> tuple[MixedModel, dict]:
    """Build a model from a JSON spec dict (no data attached)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("model spec must be an object with a 'family' key")
    family = spec["family"]
    if family == "fay-herriot":
        allowed = {"family", "phi", "X"}
        _reject_unknown(spec, allowed, "model spec")
        phi = np.asarray(spec["phi"], dtype=float)
        X = _spec_design(spec.get("X"), len(phi))
        model = build_fay_herriot(np.zeros(len(phi)), phi, X)
        return model, {"family": family, "t": len(phi), "p": X.shape[1], "phi": phi.tolist()}
    if family == "nested-error":
        allowed = {"family", "group_sizes", "X"}
        _reject_unknown(spec, allowed, "model spec")
        sizes = [int(v) for v in spec["group_sizes"]]
        if any(s < 1 for s in sizes):
            raise ValueError("group_sizes must be positive")
        groups = np.repeat(np.arange(len(sizes)), sizes)
        n = int(np.sum(sizes))
        X = _spec_design(spec.get("X"), n)
        model = build_nested_error(np.zeros(n), groups, X, n_groups=len(sizes))
        return model, {"family": family, "n": n, "p": X.shape[1], "group_sizes": sizes}
    if family == "anova":
        if "levels" in spec:
            allowed = {"family", "levels", "effects", "s_index"}
            _reject_unknown(spec, allowed, "model spec")
            design = BalancedDesign(
                levels=tuple(int(v) for v in spec["levels"]),
                effects=tuple(tuple(int(b) for b in e) for e in spec["effects"]),
                s_index=tuple(int(b) for b in spec["s_index"]),
            )
            model = to_model(design)
            return model, {
                "family": family,
                "levels": list(design.levels),
                "effects": [list(e) for e in design.effects],
                "s_index": list(design.s_index),
            }
        allowed = {"family", "X", "Z_blocks"}
        _reject_unknown(spec, allowed, "model spec")
        X = np.asarray(spec["X"], dtype=float)
        blocks = [np.asarray(b, dtype=float) for b in spec["Z_blocks"]]
        model = build_anova(X, blocks)
        return model, {
            "family": family,
            "n": model.n,
            "p": model.p,
            "blocks": [b.shape[1] for b in blocks],
        }
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


def _spec_design(X, n: int) -> np.ndarray:
    if X is None:
        return np.ones((n, 1))
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"X has shape {X.shape}, expected ({n}, p)")
    return X


def _reject_unknown(d: dict, allowed: set, what: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")


def _load_targets(args, model: MixedModel) -> list[PredictionTarget]:
    if args.area is not None:
        if args.area < 1:
            raise ValueError("--area is 1-based; the first area is 1")
        return [area_target(model, args.area - 1)]
    if args.targets is None:
        raise ValueError("provide --targets FILE or --area I")
    header, rows = _read_csv(args.targets)
    name_i = _column(header, "name", args.targets)
    l_idx = [_column(header, f"l{j + 1}", args.targets) for j in range(model.p)]
    m_idx = [_column(header, f"m{j + 1}", args.targets) for j in range(model.r)]
    L = np.column_stack([_floats(rows, j, args.targets) for j in l_idx])
    M = np.column_stack([_floats(rows, j, args.targets) for j in m_idx])
    out = [PredictionTarget(l=l, m=m, name=row[name_i].strip()) for l, m, row in zip(L, M, rows)]
    if not out:
        raise ValueError(f"{args.targets}: no target rows")
    return out


def _fit_options(args) -> dict:
    opts = {"max_iter": args.max_iter, "tol": args.tol}
    if args.start is not None:
        opts["start"] = [float(v) for v in args.start.split(",")]
    return opts


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_fit(args) -> int:
    method = as_method(args.method)
    model, y, echo = _load_family_data(args.family, args.data)
    opts = _fit_options(args)
    res = fit(model, y, method, **opts)
    report = RunReport(
        command="fit",
        model=echo,
        method=method,
        options=opts,
        fit=_fit_summary(res),
        targets=[],
        warnings=(["boundary"] if res.boundary_hit else [])
        + ([] if res.converged else ["no-convergence"]),
    )
    print(report_to_json(report))
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_mse(args) -> int:
    method = as_method(args.method)
    model, y, echo = _load_family_data(args.family, args.data)
    targets = _load_targets(args, model)
    opts = _fit_options(args)
    res = fit(model, y, method, **opts)
    rows = []
    singular = False
    for t in targets:
        rep = mse_estimators(model, res, y, t, data_specific=args.data_specific)
        pred = eblup(model, res, y, t)
        singular = singular or "singular-information" in rep.warnings
        rows.append(
            {
                "name": t.name,
                "eblup": pred.value,
                "mse": _plain(asdict(rep)),
                "warnings": list(pred.warnings),
            }
        )
    warnings = sorted({w for row in rows for w in row["mse"]["warnings"]})
    report = RunReport(
        command="mse",
        model=echo,
        method=method,
        options={**opts, "data_specific": bool(args.data_specific)},
        fit=_fit_summary(res),
        targets=rows,
        warnings=warnings + ([] if res.converged else ["no-convergence"]),
    )
    print(report_to_json(report))
    if not res.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_SINGULAR if singular else EXIT_OK


def _preset_config(name: str, replicates: int | None, seed: int | None) -> McConfig:
    sizes = {
        "harville-jeske-balanced": [2] * 9,
        "harville-jeske-unbalanced-small": [1] * 8 + [10],
        "harville-jeske-unbalanced-large": [1] * 20 + [50],
    }
    if name not in sizes:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    groups = np.repeat(np.arange(len(sizes[name])), sizes[name])
    n = len(groups)
    model = build_nested_error(np.zeros(n), groups, np.ones((n, 1)), n_groups=len(sizes[name]))
    return McConfig(
        model=model,
        sigma_true=np.array([1.0, 1.0]),
        beta_true=np.array([0.0]),
        targets=(area_target(model, 0),),
        methods=("REML",),
        replicates=replicates if replicates is not None else 1000,
        base_seed=seed if seed is not None else 0,
        estimators=("naive", "prasad_rao", "second_order"),
    )


CONFIG_KEYS = {
    "model", "sigma_true", "beta_true", "targets", "areas", "methods",
    "replicates", "base_seed", "estimators",
}


def config_from_dict(data: dict) -> tuple[McConfig, dict]:
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(data, CONFIG_KEYS, "config")
    for key in ("model", "sigma_true", "beta_true"):
        if key not in data:
            raise ValueError(f"config: missing key '{key}'")
    model, echo = _model_from_spec(data["model"])
    targets: list[PredictionTarget] = []
    for idx in data.get("areas", []):
        targets.append(area_target(model, int(idx) - 1))
    for spec in data.get("targets", []):
        _reject_unknown(spec, {"name", "l", "m"}, "target spec")
        targets.append(
            PredictionTarget(
                l=np.asarray(spec["l"], dtype=float),
                m=np.asarray(spec["m"], dtype=float),
                name=str(spec.get("name", "")),
            )
        )
    if not targets:
        raise ValueError("config: no targets (use 'areas' or 'targets')")
    config = McConfig(
        model=model,
        sigma_true=np.asarray(data["sigma_true"], dtype=float),
        beta_true=np.asarray(data["beta_true"], dtype=float),
        targets=tuple(targets),
        methods=tuple(data.get("methods", ["REML"])),
        replicates=int(data.get("replicates", 1000)),
        base_seed=int(data.get("base_seed", 0)),
        estimators=tuple(data.get("estimators", ["naive", "prasad_rao", "second_order"])),
    )
    return config, echo


_CSV_FIELDS = (
    "target", "method", "estimator", "mean", "se", "relative_bias",
    "emp_mse_eblup", "emp_mse_eblup_se", "emp_mse_blup", "emp_mse_blup_se",
    "g3_data_mean", "g3_data_se", "analytic_naive", "analytic_mse_approx",
    "boundary_rate", "n_used",
)


def _study_csv(report: dict) -> str:
    rates = {d["method"]: d["boundary_rate"] for d in report["diagnostics"]}
    lines = [",".join(_CSV_FIELDS)]
    for cell in report["cells"]:
        for name, mean in cell["estimator_mean"].items():
            row = {
                **cell,
                "estimator": name,
                "mean": mean,
                "se": cell["estimator_se"][name],
                "relative_bias": cell["relative_bias"][name],
                "boundary_rate": rates[cell["method"]],
                "n_used": report["n_used"],
            }
            lines.append(
                ",".join("" if row[f] is None else repr(row[f]) if isinstance(row[f], float) else str(row[f]) for f in _CSV_FIELDS)
            )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    if args.preset is not None:
        config = _preset_config(args.preset, args.replicates, args.seed)
        echo = {"preset": args.preset}
    elif args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if args.replicates is not None:
            data["replicates"] = args.replicates
        if args.seed is not None:
            data["base_seed"] = args.seed
        config, echo = config_from_dict(data)
    else:
        raise ValueError("provide --config FILE or --preset NAME")

    report = run_study(config)
    payload = {"config_echo": echo, "report": _plain(asdict(report))}
    json_path = f"{args.out}.json"
    csv_path = f"{args.out}.csv"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_study_csv(payload["report"]))
    print(f"wrote {json_path} and {csv_path}")
    print(f"replicates={report.n_used} failed={report.n_failed}")
    for cell in report.cells:
        emp = cell.emp_mse_eblup
        parts = " ".join(
            f"{name}={cell.estimator_mean[name]:.5g}" for name in cell.estimator_mean
        )
        print(f"{cell.target} [{cell.method}] emp_mse={emp:.5g} {parts}")
    return EXIT_OK


# --------------------------------------------------------------------------
# self-checks
# --------------------------------------------------------------------------


def _check_derivatives(rng: np.random.Generator, family: str, lines: list[str]) -> bool:
    ok = True
    for rep in range(4):
        model, y = _random_check_instance(rng, family)
        sigma = rng.uniform(0.4, 1.8, size=model.s)
        for method in ("REML", "ML"):
            loglik = restricted_loglik if method == "REML" else profile_loglik
            score = score_reml if method == "REML" else score_ml
            s_val = score(model, sigma, y)
            worst = 0.0
            for i in range(model.s):
                h = 1e-5 * (1.0 + sigma[i])
                hi = sigma.copy()
                lo = sigma.copy()
                hi[i] += h
                lo[i] -= h
                fd = (loglik(model, hi, y) - loglik(model, lo, y)) / (2 * h)
                worst = max(worst, abs(fd - s_val[i]) / max(1.0, abs(s_val[i])))
            good = worst < 1e-4
            ok = ok and good
            lines.append(
                f"{'ok' if good else 'FAIL'} derivatives {family} {method} score rel {worst:.2e}"
            )
            H = hessian(model, sigma, y, method)
            worst_h = 0.0
            for j in range(model.s):
                h = 1e-4 * (1.0 + sigma[j])
                hi = sigma.copy()
                lo = sigma.copy()
                hi[j] += h
                lo[j] -= h
                fd_col = (score(model, hi, y) - score(model, lo, y)) / (2 * h)
                for i in range(model.s):
                    worst_h = max(
                        worst_h, abs(fd_col[i] - H[i, j]) / max(1.0, abs(H[i, j]))
                    )
            good = worst_h < 1e-3
            ok = ok and good
            lines.append(
                f"{'ok' if good else 'FAIL'} derivatives {family} {method} hessian rel {worst_h:.2e}"
            )
    return ok


def _random_check_instance(rng: np.random.Generator, family: str):
    if family == "fay-herriot":
        t = 12
        phi = rng.uniform(0.5, 2.0, size=t)
        X = np.column_stack([np.ones(t), rng.normal(size=t)])
        y = rng.normal(size=t)
        return build_fay_herriot(y, phi, X), y
    if family == "nested-error":
        sizes = rng.integers(1, 5, size=8)
        groups = np.repeat(np.arange(8), sizes)
        n = int(sizes.sum())
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        return build_nested_error(y, groups, X), y
    if family == "anova":
        design = BalancedDesign(
            levels=(3, 2, 2), effects=((0, 1, 1), (1, 0, 1)), s_index=(1, 1, 1)
        )
        model = to_model(design)
        y = rng.normal(size=model.n)
        return model, y
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


def _random_design(rng: np.random.Generator, max_w: int) -> BalancedDesign:
    w = int(rng.integers(1, max_w + 1))
    levels = tuple(int(v) for v in rng.integers(2, 5, size=w + 1))
    pool = [
        tuple(bits) + (1,)
        for bits in np.ndindex(*([2] * w))
    ]
    count = int(rng.integers(1, min(3, len(pool)) + 1))
    chosen = rng.choice(len(pool), size=count, replace=False)
    effects = tuple(pool[int(i)] for i in sorted(chosen))
    s_index = pool[int(rng.integers(0, len(pool)))]
    return BalancedDesign(levels=levels, effects=effects, s_index=s_index)


def _check_kron(rng: np.random.Generator, max_w: int, lines: list[str]) -> bool:
    ok = True
    for rep in range(40):
        design = _random_design(rng, max_w)
        sigma = np.concatenate(
            [rng.uniform(0.5, 2.0, size=1), rng.uniform(0.0, 2.0, size=len(design.effects))]
        )
        S = expand(design, sigma_coefficients(design, sigma))
        T = expand(design, tau_coefficients(design, sigma))
        inv_res = float(np.max(np.abs(S @ T - np.eye(design.n))))
        proj_ok, proj_res = projection_identity_check(design, sigma)
        good = inv_res < 1e-10 and proj_ok
        ok = ok and good
        if not good or rep < 3:
            lines.append(
                f"{'ok' if good else 'FAIL'} kron w={design.w} n={design.n} "
                f"inverse {inv_res:.2e} projection {proj_res:.2e}"
            )
    return ok


def _check_moments(rng: np.random.Generator, lines: list[str]) -> bool:
    ok = True
    for rep in range(3):
        k = 4
        B = rng.normal(size=(k, k))
        S = B @ B.T + k * np.eye(k)
        A1 = rng.normal(size=(k, k))
        A1 = 0.5 * (A1 + A1.T)
        A2 = rng.normal(size=(k, k))
        A2 = 0.5 * (A2 + A2.T)
        rec = quadratic_moment_check(S, A1, A2, 4000, int(rng.integers(0, 2**31)))
        good = rec.max_abs_z < 5.0
        ok = ok and good
        lines.append(f"{'ok' if good else 'FAIL'} moments max|z| {rec.max_abs_z:.2f}")
    return ok


def cmd_check(args) -> int:
    rng = np.random.Generator(np.random.Philox(args.seed))
    lines: list[str] = []
    ok = True
    suites = ("derivatives", "kron", "moments") if args.suite == "all" else (args.suite,)
    for suite in suites:
        if suite == "derivatives":
            families = (args.family,) if args.family else FAMILIES
            for family in families:
                ok = _check_derivatives(rng, family, lines) and ok
        elif suite == "kron":
            ok = _check_kron(rng, args.w, lines) and ok
        elif suite == "moments":
            ok = _check_moments(rng, lines) and ok
        else:
            raise ValueError(
                f"unknown suite {suite!r}; choose from derivatives, kron, moments, all"
            )
    for line in lines:
        print(line)
    print("all checks passed" if ok else "CHECKS FAILED")
    return EXIT_OK if ok else EXIT_FAILED


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="fay-herriot | nested-error | anova")
    p.add_argument("--data", required=True, help="CSV (fay-herriot, nested-error) or JSON (anova)")
    p.add_argument("--method", default="reml", help="reml | ml")
    p.add_argument("--start", default=None, help="comma-separated starting sigma")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so that main reports it as input error 3."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eblup",
        description="Mixed-model variance components, EBLUP, and MSE estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate variance components")
    _add_model_args(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_mse = sub.add_parser("mse", help="EBLUP and MSE estimators per target")
    _add_model_args(p_mse)
    p_mse.add_argument("--targets", default=None, help="CSV name,l1..lp,m1..mr")
    p_mse.add_argument("--area", type=int, default=None, help="1-based area shorthand")
    p_mse.add_argument("--data-specific", action="store_true")
    p_mse.set_defaults(func=cmd_mse)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--config", default=None, help="study config JSON")
    p_sim.add_argument("--preset", default=None, help="|".join(PRESETS))
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default="study", help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check", help="run internal consistency checks")
    p_chk.add_argument("--suite", default="all", help="derivatives | kron | moments | all")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--w", type=int, default=2, help="max factor count for kron designs")
    p_chk.add_argument("--family", default=None, help="restrict the derivatives suite")
    p_chk.set_defaults(func=cmd_check)
    return parser


def _error_json(err: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(err).__name__, "message": str(err)}}, sort_keys=True
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SingularInformation as err:
        print(_error_json(err), file=sys.stderr)
        return EXIT_SINGULAR
    except SimulationError as err:
        print(_error_json(err), file=sys.stderr)
        return EXIT_FAILED
    except (EblupError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(_error_json(err), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
