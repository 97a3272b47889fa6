"""Generate bench/refs.json, the reference data of the arphase benchmark.

    python3 bench/make_refs.py

Monte Carlo runs use one worker per available CPU; the simulator gives
identical paths for any worker count.

Provenance of every entry is stored beside it:
  * Monte Carlo references (m >= 2 passage check points, the fixed anchors,
    the simulate-mc models) record seed, paths and per-quantity sigma.  They
    come from arphase's simulator, an independent method from the residue
    solver under test; simulate-mc ops use other seeds than these.
  * Thresholds b* of the stop-verify problems.  m = 1: golden-section
    maximum of the benchmark's own closed form, cross-checked against
    arphase's f(b) root.  m >= 2: arphase's continuous-fit root on a wide
    window, kept only if the independent golden-section maximizer agrees.
m = 1 passage rows need no stored data: reference.SinglePhaseClosedForm
evaluates the closed form at any (x, b).
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import models  # noqa: E402
from reference import SinglePhaseClosedForm  # noqa: E402

from arphase.cli import RunConfig  # noqa: E402
from arphase.montecarlo import estimate_phi, simulate_paths  # noqa: E402
from arphase.stopping import solve_threshold_exp_identity, solve_threshold_general  # noqa: E402
from arphase.transforms import TransformEngine  # noqa: E402

CHECK_PATHS = 400_000
ANCHOR_PATHS = 1_000_000
SIM_REF_FACTOR = 4          # reference paths = 4 x the op's paths
B_STAR_AGREE = 1e-6


def _ar1(mdl: dict):
    return RunConfig.from_dict({"model": mdl}).model


def _mc_phi(mdl, b, x, paths, seed, workers):
    est = estimate_phi(_ar1(mdl), x, b, paths, seed, workers=workers)
    return {
        "b": b, "x": x, "paths": paths, "seed": seed,
        "phi": [e.mean for e in est], "sigma": [e.stderr for e in est],
    }


def passage_refs(workers: int) -> dict:
    out, seed = {}, 1000
    for name, mdl in models.PASSAGE_MULTI.items():
        rows = []
        for b in models.B_LEVELS:
            for x in models.check_points(b):
                seed += 1
                rows.append(_mc_phi(mdl, b, x, CHECK_PATHS, seed, workers))
        out[name] = rows
        print(f"passage {name}: {len(rows)} points", file=sys.stderr)
    return out


def anchor_refs(workers: int) -> dict:
    out = {}
    for k, (name, (mdl, b, x)) in enumerate(models.ANCHORS.items()):
        out[name] = _mc_phi(mdl, b, x, ANCHOR_PATHS, 500 + k, workers)
    return out


def simulate_refs(workers: int) -> dict:
    out = {}
    for k, (name, (mdl, b, x, paths)) in enumerate(models.SIMULATE.items()):
        ar1 = _ar1(mdl)
        n, seed = SIM_REF_FACTOR * paths, 900 + k
        tau, x_tau, _, phase, censored = simulate_paths(ar1, x, b, n, seed, workers=workers)
        disc = np.where(censored, 0.0, ar1.rho ** tau.astype(float))
        phi = [np.where(phase == i, disc, 0.0) for i in range(1, ar1.m + 1)]
        joint = np.where(censored, 0.0, disc * x_tau)     # identity gain
        out[name] = {
            "b": b, "x": x, "paths": n, "seed": seed,
            "phi": [float(v.mean()) for v in phi],
            "sigma": [float(v.std(ddof=1) / math.sqrt(n)) for v in phi],
            "joint": float(joint.mean()),
            "joint_sigma": float(joint.std(ddof=1) / math.sqrt(n)),
            "censored": float(censored.mean()),
            "cross_prob": [float(np.mean(phase == i)) for i in range(1, ar1.m + 1)],
        }
        print(f"simulate {name}: done", file=sys.stderr)
    return out


def _golden_max(f, lo, hi, tol=1e-10):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, d = lo, hi
    c1, c2 = d - g * (d - a), a + g * (d - a)
    f1, f2 = f(c1), f(c2)
    while d - a > tol:
        if f1 >= f2:
            d, c2, f2 = c2, c1, f1
            c1 = d - g * (d - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + g * (d - a)
            f2 = f(c2)
    return 0.5 * (a + d)


def stop_refs() -> dict:
    out = {}
    for name, (mdl, gain, windowed) in models.STOP_PROBLEMS.items():
        if not windowed:
            cf = SinglePhaseClosedForm(mdl)
            own = _golden_max(lambda b: (b + 1.0 / cf.mu) * cf.laplace_tau([-0.5], b)[0], 0.05, 3.0)
            sol = solve_threshold_exp_identity(cf.mu, cf.rho, cf.lam)
            entry = {"b_star": own, "method": "golden max of own closed form",
                     "cross_check": sol.b_star}
        else:
            engine = TransformEngine(_ar1(mdl))
            cfg_gain = RunConfig.from_dict({"gain": gain}).gain
            sol = solve_threshold_general(engine, cfg_gain, 0.05, 3.0)
            entry = {"b_star": sol.b_star, "method": "continuous-fit root on [0.05, 3]",
                     "cross_check": sol.maximizer_b}
        if abs(entry["b_star"] - entry["cross_check"]) > B_STAR_AGREE:
            raise SystemExit(f"{name}: b* {entry['b_star']} disagrees with {entry['cross_check']}")
        out[name] = entry
    return out


def main() -> int:
    workers = len(os.sched_getaffinity(0))
    t0 = time.time()
    refs = {
        "provenance": {
            "generator": "bench/make_refs.py",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "check_paths": CHECK_PATHS,
            "anchor_paths": ANCHOR_PATHS,
            "simulate_ref_factor": SIM_REF_FACTOR,
        },
        "stop": stop_refs(),
        "anchors": anchor_refs(workers),
        "simulate": simulate_refs(workers),
        "passage": passage_refs(workers),
    }
    refs["provenance"]["seconds"] = round(time.time() - t0, 1)
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
