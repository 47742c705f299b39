"""Span recording around the calls into each eblup module, from outside.

The tracer replaces, for the duration of a traced round, every public
function and every module-level ``*_at`` helper of the package's layer
modules at each name other modules call it by (``eblup.fit``,
``eblup.simulation.fit``, ``eblup.estimation.score_at``, ...), plus
``scipy.linalg.cho_factor``, ``scipy.linalg.cho_solve`` and
``numpy.linalg.cholesky``.  Spans live in memory as tuples
(layer, name, start, end, parent index, round) and are written out once,
at the end of the run.  Uninstalled, the package runs unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np
import scipy.linalg

# the package's modules, by layer; the command-line module is left out
LAYERS = ("model", "_linalg", "likelihood", "estimation", "prediction", "mse", "kron", "simulation")
LINALG = ((scipy.linalg, "cho_factor"), (scipy.linalg, "cho_solve"), (np.linalg, "cholesky"))

CHOLESKY = {"cho_factor", "cholesky"}
SCORE = {"score_at", "score_reml", "score_ml"}
INFORMATION = {"information_at", "expected_information"}
LOGLIK = {"loglik_at", "restricted_loglik_at", "profile_loglik_at", "restricted_loglik", "profile_loglik"}
BLUP = {"blup", "eblup"}
BUILDERS = {"build_fay_herriot", "build_nested_error", "build_anova"}

SETUP_ROUND = -1


class Tracer:
    def __init__(self, package):
        self.spans: list = []
        self.fits: list[tuple[int, int, bool]] = []  # (round, iterations, converged)
        self.recording = False
        self.round = SETUP_ROUND
        self._stack: list[int] = []
        self._patches = self._plan(package)

    def _plan(self, package):
        wrapped = {}
        patches = []

        def add(mod, name, layer, fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(layer, name, fn)
            patches.append((mod, name, fn, wrapped[id(fn)]))

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        for mod in modules:
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn):
                    continue
                pkg, _, layer = fn.__module__.rpartition(".")
                if pkg != package.__name__ or layer not in LAYERS:
                    continue
                if name.startswith("_") and not name.endswith("_at"):
                    continue
                add(mod, name, layer, fn)
        for mod, name in LINALG:
            add(mod, name, "linalg", getattr(mod, name))
        return patches

    def _wrap(self, layer, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, self.round)
            if name == "fit":
                self.fits.append((self.round, out.iterations, out.converged))
            return out

        return traced

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def write(self, path) -> None:
        """One JSON array per span: [id, parent, layer, name, start_ms, end_ms, round]."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (layer, name, t0, t1, parent, rnd) in enumerate(self.spans):
                row = [i, parent, layer, name, (t0 - base) * 1e3, (t1 - base) * 1e3, rnd]
                fh.write(json.dumps(row) + "\n")


def _outermost(spans, names) -> list[bool]:
    """Flags spans named in ``names`` that have no ancestor named in ``names``."""
    inside = [False] * len(spans)
    flags = [False] * len(spans)
    for i, (_, name, _, _, parent, _) in enumerate(spans):
        covered = parent >= 0 and inside[parent]
        hit = name in names
        flags[i] = hit and not covered
        inside[i] = covered or hit
    return flags


def layer_metrics(tracer: Tracer, ops_by_round: dict, count_rounds: set, overhead: float) -> dict:
    """The per-layer metrics of one traced run.

    Times are per op over every traced round; call counts are per op over
    ``count_rounds`` only, a fixed set, so that they repeat exactly for a
    given seed.  Fit figures are per fit (iterations and convergence over
    ``count_rounds`` too); set-up figures are totals.
    """
    spans = tracer.spans
    time_rounds = set(ops_by_round)
    ops_time = sum(ops_by_round.values())
    ops_count = sum(ops_by_round[r] for r in count_rounds)

    def total(names, rounds, what):
        flags = _outermost(spans, names)
        acc = 0.0
        for flag, (_, _, t0, t1, _, rnd) in zip(flags, spans):
            if flag and rnd in rounds:
                acc += (t1 - t0) * 1e3 if what == "ms" else 1.0
        return acc

    def per_op_ms(names):
        return total(names, time_rounds, "ms") / ops_time

    def per_op_calls(names):
        return total(names, count_rounds, "calls") / ops_count

    # self time of run_study: its duration minus its direct children's
    run_study_self = 0.0
    study = {i for i, s in enumerate(spans) if s[1] == "run_study" and s[5] in time_rounds}
    for i in study:
        run_study_self += spans[i][3] - spans[i][2]
    for s in spans:
        if s[4] in study:
            run_study_self -= s[3] - s[2]

    fit_ms = total({"fit"}, time_rounds, "ms") / sum(1 for f in tracer.fits if f[0] in time_rounds)
    fits = [(it, conv) for rnd, it, conv in tracer.fits if rnd in count_rounds]
    metrics = {
        "linalg.cholesky_calls": (per_op_calls(CHOLESKY), "count"),
        "linalg.cholesky_ms": (per_op_ms(CHOLESKY), "ms"),
        "linalg.cho_solve_calls": (per_op_calls({"cho_solve"}), "count"),
        "linalg.cho_solve_ms": (per_op_ms({"cho_solve"}), "ms"),
        "likelihood.score_ms": (per_op_ms(SCORE), "ms"),
        "likelihood.information_ms": (per_op_ms(INFORMATION), "ms"),
        "likelihood.loglik_calls": (per_op_calls(LOGLIK), "count"),
        "estimation.fit_ms": (fit_ms, "ms"),
        "estimation.iterations": (sum(it for it, _ in fits) / len(fits), "count"),
        "estimation.not_converged": (sum(not conv for _, conv in fits) / len(fits), "share"),
        "prediction.blup_ms": (per_op_ms(BLUP), "ms"),
        "prediction.grad_s_calls": (per_op_calls({"grad_s"}), "count"),
        "mse.mse_estimators_ms": (per_op_ms({"mse_estimators"}), "ms"),
        "simulation.run_study_self_ms": (run_study_self * 1e3 / ops_time, "ms"),
        "model.build_ms": (total(BUILDERS, {SETUP_ROUND}, "ms"), "ms"),
        "kron.to_model_ms": (total({"to_model"}, {SETUP_ROUND}, "ms"), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
