"""Command-line front end.

Subcommands:
  passage   crossing transform Phi(x) over an x grid
  stop      optimal threshold, verification report, and value-curve data
  simulate  Monte Carlo estimates with goodness-of-fit statistics
  validate  built-in identity suite with per-check residuals

Models are described by a JSON config file (matrices do not fit in
flags), given to every subcommand by --config.  A subcommand takes only
the flags it reads; one with a config field in parentheses overrides it:
  passage   --out (output.path), --format (output.format)
  stop      --out, --format, --b-override
  simulate  --out, --format, --seed (mc.seed), --paths (mc.n_paths),
            --workers (mc.workers)
  validate  --only
FLAGS is that table; the parser and the overrides both read it.  The
argument parser is built once per process, on the first `main` call, so
importing this module builds nothing and later calls reuse it.  CSV
output uses a single '#'-prefixed header line, 17-significant-digit
values, LF endings, and is written atomically (temp file, then rename).

Exit codes: 0 success, 1 failed validate check, 2 invalid input,
3 numerical failure, 4 unverified stopping solution.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ArphaseError, ValidationError
from .gains import GainFunction
from .innovations import Innovation, NegativePart
from .montecarlo import (
    joint_estimate,
    ks_critical_value,
    ks_statistic,
    phi_estimates,
    simulate_paths,
)
from .passage import (
    ResidueSystem,
    closed_form_exp,
    derivative_identity_check,
)
from .phasetype import cdf_vector, validate as ph_validate
from .qseries import q_pochhammer_inf
from .quadrature import innovation_expectation
from .stopping import fixed_threshold, solve_threshold, verify_solution
from .transforms import AR1Model, TransformEngine

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_UNVERIFIED = 4


def _require_object(block, where: str) -> None:
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be a JSON object")


def _require_keys(block: dict, allowed: set, where: str) -> None:
    _require_object(block, where)
    unknown = set(block) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where: str, kind: type):
    """A JSON number as kind, int or float.  A bool, a string or null is an
    error, not read as a number; so is a float with a fractional part for
    an int, which is not truncated.  An integer too large for a float is
    read as infinite, for the finite-value checks to name."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"{where} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
        )
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{where} must be an integer, got {value}")
    try:
        return kind(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _variant(cls, block, where: str, default: str):
    """cls(variant, **parameters) from a config block, read by cls.PARAMS:
    the block takes "variant" and any parameter of the table, the variant's
    own are required and an int one is integral.  No block or no "variant"
    gives the default."""
    if block is None:
        return cls(default)
    _require_keys(block, {"variant"}.union(*cls.PARAMS.values()), where)
    variant = block.get("variant", default)
    if not isinstance(variant, str) or variant not in cls.PARAMS:
        raise ValidationError(
            f"unknown {where} variant {variant!r}; available: {', '.join(cls.PARAMS)}"
        )
    params = {}
    for key, kind in cls.PARAMS[variant].items():
        if key not in block:
            raise ValidationError(f"{where} variant {variant} needs {key!r}")
        params[key] = _number(block[key], f"{where}.{key}", kind)
    return cls(variant, **params)


@dataclass
class RunConfig:
    """Parsed experiment description; see the README for the schema."""

    model: AR1Model | None = None
    b: float | None = None
    x_grid: list = field(default_factory=list)
    b_lo: float | None = None
    b_hi: float | None = None
    gain: GainFunction = field(default_factory=GainFunction.identity)
    n_paths: int = 100_000
    seed: int = 0
    max_steps: int | None = None
    workers: int = 1
    out_format: str = "csv"
    out_path: str | None = None
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require_keys(
            raw,
            {"model", "problem", "gain", "mc", "output", "tolerances"},
            "config",
        )
        cfg = cls()
        if "model" in raw:
            block = raw["model"]
            _require_keys(block, {"lambda", "rho", "Q", "alpha", "t"}, "model")
            for key in ("lambda", "rho", "Q", "alpha"):
                if key not in block:
                    raise ValidationError(f"model needs {key!r}")
            dist = ph_validate(block["Q"], block["alpha"])
            inn = Innovation(dist, _variant(NegativePart, block.get("t"), "model.t", "zero"))
            lam, rho = (_number(block[k], f"model.{k}", float) for k in ("lambda", "rho"))
            cfg.model = AR1Model(lam, rho, inn)
        if "problem" in raw:
            block = raw["problem"]
            _require_keys(block, {"b", "x", "x_grid", "b_lo", "b_hi"}, "problem")
            scalars = {k: _number(block[k], f"problem.{k}", float)
                       for k in ("b", "x", "b_lo", "b_hi") if k in block}
            for key, value in scalars.items():
                if not math.isfinite(value):
                    raise ValidationError(f"problem.{key} must be finite, got {value}")
            cfg.b, cfg.b_lo, cfg.b_hi = (scalars.get(k) for k in ("b", "b_lo", "b_hi"))
            if "x" in block and "x_grid" in block:
                raise ValidationError("give either problem.x or problem.x_grid")
            if "x" in block:
                cfg.x_grid = [scalars["x"]]
            elif "x_grid" in block:
                if not isinstance(block["x_grid"], list):
                    raise ValidationError(
                        f"problem.x_grid must be an array of numbers, got {block['x_grid']!r}"
                    )
                grid = [_number(v, f"problem.x_grid[{i}]", float)
                        for i, v in enumerate(block["x_grid"])]
                if not all(math.isfinite(v) for v in grid):
                    raise ValidationError("x_grid values must be finite")
                if any(a >= c for a, c in zip(grid, grid[1:])):
                    raise ValidationError("x_grid must be strictly ascending")
                cfg.x_grid = grid
        cfg.gain = _variant(GainFunction, raw.get("gain"), "gain", "identity")
        if "mc" in raw:
            block = raw["mc"]
            _require_keys(block, {"n_paths", "seed", "max_steps", "workers"}, "mc")
            ints = {key: _number(value, f"mc.{key}", int) for key, value in block.items()}
            cfg.n_paths = ints.get("n_paths", cfg.n_paths)
            cfg.seed = ints.get("seed", cfg.seed)
            cfg.max_steps = ints.get("max_steps")
            cfg.workers = ints.get("workers", cfg.workers)
        if "output" in raw:
            block = raw["output"]
            _require_keys(block, {"format", "path"}, "output")
            cfg.out_format = block.get("format", "csv")
            if cfg.out_format not in ("csv", "json"):
                raise ValidationError("output.format must be csv or json")
            if not isinstance(block.get("path", ""), str):
                raise ValidationError(f"output.path must be a string, got {block['path']!r}")
            cfg.out_path = block.get("path")
        if "tolerances" in raw:
            _require_object(raw["tolerances"], "tolerances")
            for name, tol in raw["tolerances"].items():
                if name not in IDENTITY_CHECKS:
                    raise ValidationError(
                        f"unknown check {name!r} in tolerances; "
                        f"available: {', '.join(IDENTITY_CHECKS)}"
                    )
                tol = _number(tol, f"tolerances.{name}", float)
                if not (math.isfinite(tol) and tol >= 0.0):
                    raise ValidationError(
                        f"tolerances.{name} must be finite and nonnegative, got {tol}"
                    )
                cfg.tolerances[name] = tol
        return cfg


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    return RunConfig.from_dict(raw)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@functools.cache
def _row_format(types: tuple) -> str:
    """The '%' format of a CSV row whose cells have these types: each cell
    as _fmt writes it, %.17g for a float and str() for anything else."""
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)


def render_table(columns, rows, fmt: str) -> str:
    """Serialize a table, rows of values in column order, as '#'-headed CSV
    or a JSON object.  A CSV row is one '%' of the format its cell types
    select.  JSON has no NaN or infinity: such a cell is written as null."""
    if fmt == "json":
        cells = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in r]
                 for r in rows]
        return json.dumps(
            {"columns": columns, "rows": cells}, indent=2, default=_fmt, allow_nan=False
        ) + "\n"
    lines = ["# " + ",".join(columns)]
    lines += [_row_format(tuple(map(type, r))) % tuple(r) for r in rows]
    return "\n".join(lines) + "\n"


def write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically to path (no partial files)."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".arphase-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _need(cfg: RunConfig, what: str):
    value = getattr(cfg, what)
    if value in (None, []):
        raise ValidationError(f"config is missing {what!r} for this command")
    return value


def cmd_passage(cfg: RunConfig) -> int:
    model = _need(cfg, "model")
    b = _need(cfg, "b")
    grid = _need(cfg, "x_grid")
    ct = ResidueSystem(TransformEngine(model), b).solve(grid)
    columns = ["x", *(f"phi_{i + 1}" for i in range(model.m)), "laplace_tau", "error_bound"]
    table = np.column_stack([grid, ct.phi_vec, ct.total(), np.full(len(grid), ct.error_bound)])
    write_output(render_table(columns, table.tolist(), cfg.out_format), cfg.out_path)
    return EXIT_OK


def cmd_stop(cfg: RunConfig, b_override: float | None = None) -> int:
    if b_override is not None and not math.isfinite(b_override):
        raise ValidationError(f"--b-override must be finite, got {b_override}")
    model = _need(cfg, "model")
    gain = cfg.gain
    engine = TransformEngine(model)

    if b_override is not None:
        # Candidate threshold family: no root solve, no verification.
        sol, report = fixed_threshold(engine, gain, b_override), None
    else:
        sol = solve_threshold(engine, gain, cfg.b_lo, cfg.b_hi)
        report = verify_solution(sol, engine)
    verified = report is not None and report.passed

    grid = np.asarray(cfg.x_grid or np.linspace(0.0, sol.b_star + 1.0, 101), dtype=float)
    columns = ["x", "value", "gain"]
    table = np.column_stack([grid, sol.value_at(grid), gain(grid)])

    print(f"b_star = {_fmt(sol.b_star)}")
    print(f"fit_residual = {_fmt(sol.fit_residual)}")
    if report is not None:
        print(f"dominance_margin = {_fmt(report.dominance_margin)}")
        print(f"supermartingale_margin = {_fmt(report.supermartingale_margin)}")
    print(f"verified = {verified}")
    if sol.maximizer_b is not None:
        print(f"maximizer_b = {_fmt(sol.maximizer_b)}")
        print(f"methods_agree = {_fmt(sol.methods_agree)}")
    write_output(render_table(columns, table.tolist(), cfg.out_format), cfg.out_path)
    if report is not None and not verified:
        print("warning: verification conditions failed; solution is unverified",
              file=sys.stderr)
        return EXIT_UNVERIFIED
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    model = _need(cfg, "model")
    b = _need(cfg, "b")
    grid = _need(cfg, "x_grid")
    if len(grid) != 1:
        raise ValidationError("simulate needs a single problem.x")
    x = grid[0]
    if not x < b:
        raise ValidationError(f"start x={x} must lie strictly below b={b}")
    if cfg.n_paths < 2:
        raise ValidationError(
            f"--paths must be at least 2 for standard errors, got {cfg.n_paths}"
        )
    if cfg.n_paths > np.iinfo(np.intp).max:
        raise ValidationError(
            f"--paths (mc.n_paths) must be at most {np.iinfo(np.intp).max}, "
            f"the largest array length, got {cfg.n_paths}"
        )
    if cfg.workers < 1:
        raise ValidationError(f"--workers (mc.workers) must be at least 1, got {cfg.workers}")
    if cfg.max_steps is not None and cfg.max_steps < 1:
        raise ValidationError(f"mc.max_steps must be at least 1, got {cfg.max_steps}")
    if cfg.seed < 0:
        raise ValidationError(f"--seed (mc.seed) must be nonnegative, got {cfg.seed}")

    paths = simulate_paths(
        model, x, b, cfg.n_paths, cfg.seed, cfg.max_steps, cfg.workers
    )
    phis = phi_estimates(model, paths)
    joint = joint_estimate(model, paths, cfg.gain)
    # The KS tests need only X_tau and the phases: dropping tau first keeps
    # their sorts and CDFs, one phase at a time, below the estimators' peak
    # memory.  The record is read by position, so no overshoot column is
    # formed.
    x_tau, phase = paths[1], paths[3]
    del paths
    dist = model.inn.s_part

    columns = ["quantity", "phase", "value", "stderr"]
    rows = [["phi", i, est.mean, est.stderr] for i, est in enumerate(phis, start=1)]
    for i in range(1, model.m + 1):
        if b < 0:  # a start in [b/lambda, b) crosses whatever S is: the overshoot is not PH(Q, e_i)
            rows.append(["overshoot_ks", i, float("nan"), float("nan")])
            continue
        samples = np.compress(phase == i, x_tau)
        samples -= b
        n = samples.size
        e_i = np.zeros(model.m)
        e_i[i - 1] = 1.0
        ks = (
            ks_statistic(samples, lambda s: cdf_vector(dist, s, init=e_i))
            if n
            else float("nan")
        )
        rows.append(["overshoot_ks", i, ks, ks_critical_value(max(n, 1))])
    rows.append(["joint", 0, joint.mean, joint.stderr])
    rows.append(["censored_fraction", 0, joint.censored_fraction, 0.0])
    write_output(render_table(columns, rows, cfg.out_format), cfg.out_path)
    return EXIT_OK


def _example_m1():
    dist = ph_validate([[-1.0]], [1.0])
    inn = Innovation(dist, NegativePart.zero())
    return TransformEngine(AR1Model(0.5, 0.5, inn))


def _example_m2():
    dist = ph_validate([[-1.0, 0.0], [0.0, -3.0]], [0.4, 0.6])
    inn = Innovation(dist, NegativePart.zero())
    return TransformEngine(AR1Model(0.5, 0.5, inn))


def _check_laplace_id() -> float:
    """e^{phi(u)} = 1 / ((u; lam)_inf (-u/nu; lam)_inf) at 50 points, for
    S ~ Exp(1) and T ~ Exp(nu), where E(e^{uZ}) = 1 / ((1 - u)(1 + u/nu))."""
    nu, lam = 2.0, 0.5
    inn = Innovation(ph_validate([[-1.0]], [1.0]), NegativePart.exponential(nu))
    eng = TransformEngine(AR1Model(lam, 0.5, inn))
    worst = 0.0
    for u in np.linspace(0.01, 0.9, 50):
        closed = q_pochhammer_inf(u, lam) * q_pochhammer_inf(-u / nu, lam)
        worst = max(worst, abs(eng.exp_phi(u) * closed - 1.0))
    return worst


def _check_qbinomial() -> float:
    """sum_n z^n / (q;q)_n = 1 / (z;q)_inf at 20 (z, q) pairs."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        z = float(rng.uniform(-0.8, 0.8))
        q = float(rng.uniform(0.1, 0.8))
        total, term, poch = 0.0, 1.0, 1.0
        for k in range(1, 10_000):
            total += term / poch
            term *= z
            poch *= 1.0 - q ** k
            if abs(term / poch) < 1e-18 * max(1.0, abs(total)):
                break
        worst = max(worst, abs(total - 1.0 / q_pochhammer_inf(z, q)))
    return worst


def _check_harm1() -> float:
    """rho E(e^{delta(lam x+Z)} 1{lam x+Z >= b}) = alpha_delta e^{-lam x Q} q."""
    eng = _example_m2()
    model = eng.model
    lam, rho = model.lam, model.rho
    x, b, delta = 0.3, 1.0, 0.1
    lhs = rho * innovation_expectation(
        model.inn, lambda y: np.exp(delta * y) * (y >= b), at=lam * x, breakpoints=[b], tol=1e-10
    )
    sd = model.inn.s_part.spectral
    # alpha_delta P_j q for every pole j
    weights = sd.projectors @ model.inn.s_part.q @ eng.alpha_delta(delta, b)
    return abs(lhs - (weights @ np.exp(lam * x * sd.mu)).real)


def _check_harm2() -> float:
    """rho E(f(lam x+Z)) = f(x) - e^{lam x Q_1 - phi(lam Q_1)} at x = 0.3."""
    eng = _example_m1()
    model = eng.model
    lam, rho, x = model.lam, model.rho, 0.3
    lhs = rho * innovation_expectation(
        model.inn, lambda y: eng.f_gamma(y)[..., 0, 0].real, at=lam * x, tol=1e-9
    )
    arg = lam * eng.mu[0]
    rhs = eng.f_gamma(x)[0, 0] - np.exp(x * arg) / eng.exp_phi(arg)
    return abs(lhs - rhs.real)


def _check_harm3() -> float:
    """Discrete-harmonic balance of h_{gamma,delta} at gamma = 0.5."""
    eng = _example_m2()
    model = eng.model
    lam, rho = model.lam, model.rho
    gamma, delta, x, b = 0.5, 0.1, 0.2, 1.0
    eng.check_gamma(gamma)
    lhs = rho * innovation_expectation(
        model.inn, lambda y: eng.h_func(y, delta, b, gamma).real,
        at=lam * x, breakpoints=[b], tol=1e-9,
    ) - eng.h_func(x, delta, b, gamma).real
    sd = model.inn.s_part.spectral
    weights = sd.projectors @ model.inn.s_part.q @ eng.alpha_delta(delta, b)
    rhs = weights @ (np.exp(lam * x * sd.mu) - np.exp(gamma * lam * x * sd.mu))
    return abs(lhs - rhs.real)


def _check_m1_equiv() -> float:
    """Residue solver vs the single-phase q-series closed form."""
    eng = _example_m1()
    x, b = np.array([0.0, 0.3, 0.5]), np.array([1.0, 1.0, 2.0])
    via_system = ResidueSystem(eng, b).solve(x).total()
    qform = closed_form_exp(x, b, 1.0, eng.model.rho, eng.model.lam)
    return float(np.max(np.abs(via_system - qform)))


def _check_derivative() -> float:
    """Threshold-derivative identity for the exponential closed form."""
    worst = 0.0
    for x, b in ((0.0, 1.0), (0.2, 1.5)):
        worst = max(worst, derivative_identity_check(x, b, 1.0, 0.5, 0.5))
    return worst


IDENTITY_CHECKS = {
    "laplace_id": (_check_laplace_id, 1e-10),
    "qbinomial": (_check_qbinomial, 1e-10),
    "harm1": (_check_harm1, 1e-6),
    "harm2": (_check_harm2, 1e-6),
    "harm3": (_check_harm3, 1e-6),
    "m1_equiv": (_check_m1_equiv, 1e-10),
    "derivative": (_check_derivative, 1e-5),
}


def cmd_validate(cfg: RunConfig, only: str | None = None) -> int:
    names = list(IDENTITY_CHECKS)
    if only is not None:
        if only not in IDENTITY_CHECKS:
            raise ValidationError(
                f"unknown check {only!r}; available: {', '.join(names)}"
            )
        names = [only]
    failures = []
    for name in names:
        func, tol = IDENTITY_CHECKS[name]
        tol = cfg.tolerances.get(name, tol)
        residual = func()
        status = "PASS" if residual <= tol else "FAIL"
        print(f"{name}: residual={residual:.3e} tol={tol:.1e} {status}")
        if residual > tol:
            failures.append(name)
    if failures:
        print(f"failed checks: {', '.join(failures)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# Every settable flag once: the subcommands that read it, the RunConfig
# field it overrides (None: main reads it) and its argparse options.
FLAGS = (
    ("--config", ("passage", "stop", "simulate", "validate"), None, {"metavar": "PATH"}),
    ("--out", ("passage", "stop", "simulate"), "out_path", {"metavar": "PATH"}),
    ("--format", ("passage", "stop", "simulate"), "out_format", {"choices": ("csv", "json")}),
    ("--seed", ("simulate",), "seed", {"type": int}),
    ("--paths", ("simulate",), "n_paths", {"type": int}),
    ("--workers", ("simulate",), "workers", {"type": int}),
    ("--b-override", ("stop",), None, {
        "type": float,
        "help": "emit the candidate curve for this threshold instead of solving for the optimum",
    }),
    ("--only", ("validate",), None, {"metavar": "NAME"}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared after it:
    parsing reads the parser and never changes it.  A subcommand takes
    the FLAGS rows that name it and no other flag."""
    parser = argparse.ArgumentParser(
        prog="arphase",
        description="Threshold times and overshoot of AR(1) processes "
        "with phase-type innovations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("passage", "crossing transform Phi(x) over an x grid"),
        ("stop", "optimal threshold and value curve"),
        ("simulate", "Monte Carlo estimates and fit statistics"),
        ("validate", "run the built-in identity suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        for flag, commands, _, options in FLAGS:
            if name in commands:
                p.add_argument(flag, default=None, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for flag, _, target, _ in FLAGS:
            # A flag the subcommand does not take is absent from args.
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if target is not None and value is not None:
                setattr(cfg, target, value)

        if args.command == "passage":
            return cmd_passage(cfg)
        if args.command == "stop":
            return cmd_stop(cfg, b_override=args.b_override)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_validate(cfg, only=args.only)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArphaseError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
