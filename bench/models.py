"""Models, workloads and the seed-driven op lists of the arphase benchmark.

Everything the benchmark feeds to the program is built here from
(workload, seed, seconds), so the same arguments always give the same
op list.  The program sees only the generated JSON configs.
"""

from __future__ import annotations

import random

# -- innovation laws ---------------------------------------------------------

EXP1 = {"Q": [[-1.0]], "alpha": [1.0]}
EXP2 = {"Q": [[-2.0]], "alpha": [1.0]}
EXP15 = {"Q": [[-1.5]], "alpha": [1.0]}
# "m2": hyperexponential(1, 3) with weights (0.4, 0.6).
HYPER2 = {"Q": [[-1.0, 0.0], [0.0, -3.0]], "alpha": [0.4, 0.6]}
# Two-phase chain used by the stopping problems.
CHAIN2 = {"Q": [[-2.0, 1.0], [0.0, -3.0]], "alpha": [0.5, 0.5]}
# "m6": 6-phase Coxian, continuation probability 0.7 after each phase.
_COX_RATES = [1.0, 1.4, 1.9, 2.6, 3.3, 4.1]
COXIAN6 = {
    "Q": [
        [(-r if j == i else (0.7 * r if j == i + 1 else 0.0)) for j in range(6)]
        for i, r in enumerate(_COX_RATES)
    ],
    "alpha": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
}

T_ZERO = {"variant": "zero"}


def model(ph: dict, lam: float, rho: float, t: dict = T_ZERO) -> dict:
    return {"lambda": lam, "rho": rho, "Q": ph["Q"], "alpha": ph["alpha"], "t": t}


# -- passage-grid ------------------------------------------------------------

# m = 1 models: every row is checked against the single-phase closed form,
# so b is jittered continuously within B_RANGE_M1.
PASSAGE_M1 = {
    "m1-exp-zero": model(EXP1, 0.5, 0.5),
    "m1-exp-point": model(EXP2, 0.6, 0.8, {"variant": "point_mass", "d": 0.3}),
    "m1-exp-exp": model(EXP1, 0.5, 0.7, {"variant": "exponential", "rate": 2.0}),
    "m1-exp-gamma": model(EXP15, 0.4, 0.6, {"variant": "gamma_int", "shape": 2, "rate": 3.0}),
}
B_RANGE_M1 = (0.5, 3.0)

# m >= 2 models: b comes from a fixed level set so that stored Monte Carlo
# references exist at the check points of every level.
PASSAGE_MULTI = {
    "m2-hyper-zero": model(HYPER2, 0.5, 0.5),
    "m2-chain-point": model(CHAIN2, 0.6, 0.8, {"variant": "point_mass", "d": 0.3}),
    "m2-hyper-gamma": model(HYPER2, 0.5, 0.6, {"variant": "gamma_int", "shape": 2, "rate": 4.0}),
    "m6-coxian-exp": model(COXIAN6, 0.6, 0.7, {"variant": "exponential", "rate": 2.0}),
}
B_LEVELS = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0]


def check_points(b: float) -> list[float]:
    """Fixed x values of an (m >= 2 model, level b) pair with MC references."""
    return [-3.0, -0.5, b / 2.0, b - 0.01]


# Fixed hard anchors: single-x passage ops, never jittered or re-seeded.
ANCHORS = {
    "anchor-lam0.99": (model(HYPER2, 0.99, 0.99), 1.0, 0.0),
    "anchor-lam0.95-x-10": (model(HYPER2, 0.95, 0.5), 1.0, -10.0),
    "anchor-lam0.90": (model(HYPER2, 0.9, 0.9), 1.0, 0.0),
}
# Anchors whose seed output is known to be wrong (ROADMAP item 1).  Their
# check outcome is measured by ok_frac / honest_frac instead of flipping the
# run's `correct` flag.
KNOWN_DEFECTS = {"anchor-lam0.99", "anchor-lam0.95-x-10"}

GRID_POINTS = 201
X_LO_RANGE = (-6.0, -4.0)      # far-left end of every grid
END_GAP_RANGE = (0.005, 0.02)  # grid ends at b - gap

# -- stop-verify ---------------------------------------------------------------

# (model, gain, windowed).  The m = 1 / identity problem takes the q-series
# route and needs no window; the others get a jittered b_lo/b_hi window.
# Value-curve grids are jittered for all of them.
STOP_PROBLEMS = {
    "stop-m1-exp-identity": (model(EXP1, 0.5, 0.5), {"variant": "identity"}, False),
    "stop-m2-identity": (model(HYPER2, 0.5, 0.5), {"variant": "identity"}, True),
    "stop-m2-call": (model(HYPER2, 0.5, 0.5), {"variant": "call", "strike": 0.5}, True),
    "stop-chain-point": (
        model(CHAIN2, 0.6, 0.8, {"variant": "point_mass", "d": 0.3}),
        {"variant": "identity"},
        True,
    ),
}
WINDOW_BELOW = (0.15, 0.35)   # b_lo = b* - U(WINDOW_BELOW)
WINDOW_ABOVE = (0.8, 1.5)     # b_hi = b* + U(WINDOW_ABOVE)
CURVE_BELOW = (2.5, 3.5)      # value curve from b* - U(CURVE_BELOW)
CURVE_ABOVE = (0.5, 1.0)      # to b* + U(CURVE_ABOVE)
CURVE_POINTS = 101

# -- simulate-mc ---------------------------------------------------------------

# (model, b, x, paths)
SIMULATE = {
    "sim-m6-coxian-exp": (model(COXIAN6, 0.6, 0.7, {"variant": "exponential", "rate": 2.0}), 1.5, 0.0, 1_000_000),
    "sim-m2-long-b8": (model(HYPER2, 0.9, 0.95), 8.0, 0.0, 200_000),
    "sim-m2-base": (model(HYPER2, 0.5, 0.5), 1.0, 0.0, 1_000_000),
}

# -- workloads -------------------------------------------------------------------

# Nominal seconds of one pass on the reference machine.  The op list holds
# max(1, round(seconds / PASS_SECONDS)) passes; it depends only on the
# arguments, never on how fast this machine is.
PASS_SECONDS = {"passage-grid": 2.5, "stop-verify": 20.0, "simulate-mc": 6.5}
WORKLOADS = tuple(PASS_SECONDS)


def n_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _grid(rng: random.Random, lo: float, hi: float, n: int, fixed=()) -> list[float]:
    step = (hi - lo) / (n - 1)
    pts = [lo + k * step for k in range(n)]
    keep = [p for p in pts if all(abs(p - f) > 1e-6 for f in fixed)]
    return sorted(set(keep) | set(fixed))


def make_op(name: str, command: str, cfg: dict, **meta) -> dict:
    return {"name": name, "command": command, "config": cfg, **meta}


def passage_ops(seed: int, passes: int) -> list[dict]:
    ops = []
    for name, (mdl, b, x) in ANCHORS.items():
        ops.append(make_op(name, "passage", {"model": mdl, "problem": {"b": b, "x": x}},
                       kind="anchor", b=b, x_grid=[x]))
    for p in range(passes):
        rng = random.Random(f"passage-grid/{seed}/{p}")
        for name, mdl in PASSAGE_M1.items():
            b = rng.uniform(*B_RANGE_M1)
            grid = _grid(rng, rng.uniform(*X_LO_RANGE), b - rng.uniform(*END_GAP_RANGE), GRID_POINTS)
            ops.append(make_op(name, "passage", {"model": mdl, "problem": {"b": b, "x_grid": grid}},
                           kind="m1", b=b, x_grid=grid))
        for k, (name, mdl) in enumerate(PASSAGE_MULTI.items()):
            b = B_LEVELS[(seed + p + k) % len(B_LEVELS)]
            grid = _grid(rng, rng.uniform(*X_LO_RANGE), b - rng.uniform(*END_GAP_RANGE),
                         GRID_POINTS, fixed=check_points(b))
            ops.append(make_op(name, "passage", {"model": mdl, "problem": {"b": b, "x_grid": grid}},
                           kind="multi", b=b, x_grid=grid))
    return ops


def stop_ops(seed: int, passes: int, b_star: dict) -> list[dict]:
    ops = []
    for p in range(passes):
        rng = random.Random(f"stop-verify/{seed}/{p}")
        for name, (mdl, gain, windowed) in STOP_PROBLEMS.items():
            bs = b_star[name]
            grid = _grid(rng, bs - rng.uniform(*CURVE_BELOW), bs + rng.uniform(*CURVE_ABOVE), CURVE_POINTS)
            problem = {"x_grid": grid}
            if windowed:
                problem["b_lo"] = max(0.05, bs - rng.uniform(*WINDOW_BELOW))
                problem["b_hi"] = bs + rng.uniform(*WINDOW_ABOVE)
            cfg = {"model": mdl, "problem": problem, "gain": gain}
            ops.append(make_op(name, "stop", cfg, kind="stop", x_grid=grid))
    return ops


def simulate_ops(seed: int, passes: int, workers: int) -> list[dict]:
    ops = []
    for p in range(passes):
        rng = random.Random(f"simulate-mc/{seed}/{p}")
        for name, (mdl, b, x, paths) in SIMULATE.items():
            mc = {"n_paths": paths, "seed": rng.randrange(2**31), "workers": workers}
            cfg = {"model": mdl, "problem": {"b": b, "x": x}, "mc": mc}
            ops.append(make_op(name, "simulate", cfg, kind="simulate", b=b, x=x, paths=paths))
    return ops


def warmup_op(workload: str, workers: int) -> dict:
    """One untimed op per workload, with inputs no timed op uses."""
    if workload == "passage-grid":
        cfg = {"model": PASSAGE_MULTI["m2-hyper-zero"], "problem": {"b": 1.1, "x_grid": [-1.0, 0.0, 1.0]}}
        return make_op("warmup", "passage", cfg)
    if workload == "stop-verify":
        mdl, gain, _ = STOP_PROBLEMS["stop-m1-exp-identity"]
        return make_op("warmup", "stop", {"model": mdl, "gain": gain, "problem": {"x_grid": [0.0, 1.0]}})
    mdl, b, x, _ = SIMULATE["sim-m2-base"]
    mc = {"n_paths": 20_000, "seed": 1, "workers": workers}
    return make_op("warmup", "simulate", {"model": mdl, "problem": {"b": b, "x": x}, "mc": mc})


def build_ops(workload: str, seed: int, seconds: float, workers: int, b_star: dict) -> list[dict]:
    passes = n_passes(workload, seconds)
    if workload == "passage-grid":
        return passage_ops(seed, passes)
    if workload == "stop-verify":
        return stop_ops(seed, passes, b_star)
    return simulate_ops(seed, passes, workers)
