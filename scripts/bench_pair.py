"""Paired benchmark: the working tree against a base commit, every workload.

    python3 scripts/bench_pair.py --base REV --seeds 1 2 3 --seconds 10 --out BENCH.json

Run from the root of the repository.  The committed files of REV are
extracted with ``git archive`` into a temporary directory, which is removed
afterwards.  For every workload that BENCHMARK.json lists and every seed,
``perfbench/run.py --trace 0`` runs once on REV and once on the working
tree, as a pair; the side that runs first alternates from pair to pair, so
that slow drift of the host falls on both sides alike.  The output file
holds, per workload and side, the median and quartiles of each end-to-end
metric, how many pairs the tree won on each metric, the failed-op and
``converged=False`` counts, and the thread settings and library versions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run.py pins the same variables itself before numpy loads; they are set here
# too so the file records what every run saw
THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EBLUP_THREADS")}
NOT_CONVERGED = re.compile(r"converged=False: (\d+)")


def extract(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under ``dest``; return its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its JSON result plus the not-converged count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, **THREADS},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = NOT_CONVERGED.search(proc.stderr)
    result["not_converged"] = int(match.group(1)) if match else 0
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    try:
        base_sha = extract(args.base, tmp)
        sides = {"base": tmp, "tree": ROOT}
        report = {}
        for wl in (w["name"] for w in bench["workloads"]):
            runs = {"base": [], "tree": []}
            for i, seed in enumerate(args.seeds):
                for side in ("base", "tree") if i % 2 == 0 else ("tree", "base"):
                    runs[side].append(run_once(sides[side], wl, seed, args.seconds))
                    print(wl, seed, side, json.dumps(runs[side][-1]["metrics"]), file=sys.stderr)
            entry = {}
            for side, rs in runs.items():
                entry[side] = {
                    "correct": all(r["correct"] for r in rs),
                    "failed": sum(r["failed"] for r in rs),
                    "not_converged": sum(r["not_converged"] for r in rs),
                    "metrics": {m: summary([r["metrics"][m]["value"] for r in rs]) for m in better},
                }
            sign = {"lower": -1.0, "higher": 1.0}
            entry["tree_better_in_pairs"] = {
                m: sum(
                    sign[b] * (t["metrics"][m]["value"] - p["metrics"][m]["value"]) > 0
                    for p, t in zip(runs["base"], runs["tree"])
                )
                for m, b in better.items()
            }
            report[wl] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import numpy
    import scipy

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    out = {
        "base": base_sha,
        "tree": f"working tree over {head}",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "pairs": len(args.seeds),
        "threads": {**THREADS, "cpu_count": os.cpu_count()},
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "workloads": report,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
