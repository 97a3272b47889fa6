"""The arphase benchmark: CLI workloads checked against references.

    python3 bench/run.py --workload passage-grid --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory):
  passage-grid  passage tables over dense x-grids plus three fixed anchors
  stop-verify   stop commands: threshold solve and verification
  simulate-mc   simulate commands at workers = nproc

One op is one in-process call of arphase.cli.main(argv) on a generated
config, with --out in a temporary directory inside the checkout and
stdout captured.  The op list depends only on (workload, seed, seconds).
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
times an untraced op list, then runs this seed's op list under the
outside-in tracer and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import models  # noqa: E402
from hostspeed import KERNEL_REF_S, HostSpeed  # noqa: E402

SETUP_PROBES = 5
TRACE_BASELINE_OFFSET = 7919     # seed offset of the untraced op list in a traced run
INVARIANT_TOL = 1e-9             # slack of the exact invariants of a passage row
M1_RTOL = 1e-9                   # m = 1 rows against the closed form
B_STAR_TOL = 1e-6                # threshold against its stored reference
MARGIN_TOL = 1e-6                # value dominance and fit residual
STDERR_RATIO = (0.8, 1.25)       # reported MC stderr over the expected one


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_cli():
    """arphase.cli from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "arphase", "cli.py")):
        raise RuntimeError(f"no arphase sources under {SRC}")
    sys.path.insert(0, SRC)
    import arphase.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"arphase imported from {cli.__file__}, not from {SRC}")
    return cli


def load_refs() -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def b_stars(refs: dict) -> dict:
    return {name: entry["b_star"] for name, entry in refs["stop"].items()}


# -- running ops -----------------------------------------------------------------


def run_ops(cli, ops: list, tmp: str, tracer=None, speed=None) -> tuple[list, float]:
    """Run every op once, in order; returns (results, summed op seconds).

    With a HostSpeed sampler, each result also gets "norm_seconds", its
    time at the reference host speed.
    """
    results = []
    for i, op in enumerate(ops):
        cfg_path = os.path.join(tmp, f"op{i}.json")
        out_path = os.path.join(tmp, f"op{i}.out")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh)
        argv = [op["command"], "--config", cfg_path, "--out", out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, ""
        if tracer is not None:
            tracer.op_id = i
        if speed is not None:
            speed.sample()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = tracer.span("op", cli.main, argv) if tracer else cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = repr(exc)
        end = perf_counter()
        table = ""
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                table = fh.read()
            os.unlink(out_path)
        os.unlink(cfg_path)
        res = {
            "op": op, "exit": code, "seconds": end - start, "stdout": stdout.getvalue(),
            "table": table, "error": error or stderr.getvalue().strip(),
        }
        if speed is not None:
            res["seconds"] -= speed.stolen(start, end)
            res["norm_seconds"] = res["seconds"] / speed.slowdown(start, end)
        results.append(res)
    if speed is not None:
        speed.sample()
    return results, sum(r["seconds"] for r in results)


def setup_probes(cfg: dict, tmp: str, trace: bool, speed=None) -> list:
    """Set-up time of fresh interpreters: import, load_config, engine build.

    Returns one dict per probe: the step timings the probe reports, its
    wall seconds and, with a HostSpeed sampler, "norm_s", the wall seconds
    at the reference host speed.
    """
    cfg_path = os.path.join(tmp, "setup.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), cfg_path]
    if trace:
        argv.append("--trace")
    probes = []
    for _ in range(SETUP_PROBES):
        if speed is not None:
            speed.sample()
        start = perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        end = perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["wall_s"] = end - start
        if speed is not None:
            probe["norm_s"] = probe["wall_s"] / speed.slowdown(start, end)
        probes.append(probe)
    if speed is not None:
        speed.sample()
    os.unlink(cfg_path)
    return probes


# -- checks ------------------------------------------------------------------------


def parse_table(text: str) -> np.ndarray:
    """Rows of a numeric '#'-headed CSV table."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing '# ' header line")
    width = len(lines[0][2:].split(","))
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    return data.reshape(len(lines) - 1, width)


def _gain(gain: dict, x: np.ndarray) -> np.ndarray:
    if gain["variant"] == "call":
        return np.maximum(x - gain["strike"], 0.0)
    return x


class Checker:
    """Compares op outputs with refs.json and the benchmark's own formulas.

    Statistical comparisons share one per-run false-alarm budget: the
    normal threshold z and the KS level are Bonferroni-corrected over the
    number of comparisons the op list makes.
    """

    def __init__(self, refs: dict, ops: list):
        import reference  # loads scipy.linalg, so only after peak_rss_mb is read

        self.ref = reference
        self.refs = refs
        self._closed_forms = {}
        self._multi = {
            name: {(r["b"], r["x"]): r for r in rows} for name, rows in refs["passage"].items()
        }
        n_stat = n_ks = 0
        for op in ops:
            m = len(op["config"]["model"]["alpha"])
            if op.get("kind") == "multi":
                n_stat += m * len(models.check_points(op["b"]))
            elif op.get("kind") == "anchor":
                n_stat += m
            elif op.get("kind") == "simulate":
                n_stat += m + 2
                n_ks += m
        self.z = reference.z_threshold(n_stat)
        self.n_ks = n_ks

    def outcome(self, res: dict) -> tuple[str, str]:
        """('ok' | 'wrong' | 'fail', reason)."""
        if res["exit"] != 0:
            return "fail", f"exit={res['exit']} {res['error'][-160:]}".strip()
        check = getattr(self, "check_" + res["op"]["command"])
        try:
            problems = check(res)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return ("wrong", "; ".join(problems[:3])) if problems else ("ok", "")

    def _closed_form(self, mdl: dict):
        key = json.dumps(mdl, sort_keys=True)
        if key not in self._closed_forms:
            self._closed_forms[key] = self.ref.SinglePhaseClosedForm(mdl)
        return self._closed_forms[key]

    def _mc_compare(self, problems, label, value, expected, sigma):
        if not abs(value - expected) <= self.z * sigma:
            problems.append(
                f"{label}={value:.6g} vs reference {expected:.6g} "
                f"({abs(value - expected) / sigma:.1f} sigma > {self.z:.2f})"
            )

    def check_passage(self, res: dict) -> list:
        op = res["op"]
        mdl, b = op["config"]["model"], op["b"]
        xs = np.asarray(op["x_grid"])
        m = len(mdl["alpha"])
        data = parse_table(res["table"])
        if data.shape != (xs.size, m + 3):
            return [f"table shape {data.shape}, expected {(xs.size, m + 3)}"]
        problems = []
        if not np.array_equal(data[:, 0], xs):
            problems.append("x column differs from the requested grid")
        phi, total = data[:, 1:1 + m], data[:, 1 + m]
        if not np.all(np.isfinite(data)):
            return problems + ["non-finite values"]
        if np.any(phi < 0) or np.any(total > mdl["rho"] + INVARIANT_TOL):
            problems.append("Phi outside [0, rho]")
        if np.max(np.abs(total - phi.sum(axis=1))) > INVARIANT_TOL:
            problems.append("laplace_tau differs from sum of Phi_i")
        gap = self.ref.first_step_bound(mdl, b, xs) - phi
        k = np.unravel_index(np.argmax(gap), gap.shape)
        if gap[k] > INVARIANT_TOL:
            problems.append(
                f"Phi_{k[1] + 1}({xs[k[0]]:.4g})={phi[k]:.4g} below the one-step bound {phi[k] + gap[k]:.4g}"
            )
        if xs.size > 1 and np.min(np.diff(total)) < -INVARIANT_TOL:
            problems.append("E_x(rho^tau) decreases in x")
        if op["kind"] == "m1":
            rel = np.abs(total / self._closed_form(mdl).laplace_tau(xs, b) - 1.0)
            if np.max(rel) > M1_RTOL:
                problems.append(f"closed form disagrees by {np.max(rel):.2e} (rel) at x={xs[np.argmax(rel)]:.4g}")
        elif op["kind"] == "multi":
            table = self._multi[op["name"]]
            for row, x in zip(phi, xs):
                r = table.get((b, float(x)))
                if r is not None:
                    for i in range(m):
                        self._mc_compare(problems, f"Phi_{i + 1}({x:g})", row[i], r["phi"][i], r["sigma"][i])
        else:  # anchor
            r = self.refs["anchors"][op["name"]]
            for i in range(m):
                self._mc_compare(problems, f"Phi_{i + 1}({xs[0]:g})", phi[0, i], r["phi"][i], r["sigma"][i])
        return problems

    def check_stop(self, res: dict) -> list:
        op = res["op"]
        mdl, gain = op["config"]["model"], op["config"]["gain"]
        info = dict(line.split(" = ", 1) for line in res["stdout"].splitlines() if " = " in line)
        b = float(info["b_star"])
        problems = []
        b_ref = self.refs["stop"][op["name"]]["b_star"]
        if abs(b - b_ref) > B_STAR_TOL:
            problems.append(f"b*={b:.10g} vs reference {b_ref:.10g}")
        if info.get("verified") != "True":
            problems.append("verification failed")
        if float(info["fit_residual"]) > MARGIN_TOL:
            problems.append(f"fit residual {info['fit_residual']}")
        xs = np.asarray(op["x_grid"])
        data = parse_table(res["table"])
        if data.shape != (xs.size, 3) or not np.array_equal(data[:, 0], xs):
            return problems + ["value curve does not match the requested grid"]
        value, g = data[:, 1], data[:, 2]
        if np.max(np.abs(g - _gain(gain, xs))) > 1e-12:
            problems.append("gain column differs from g(x)")
        above = xs >= b
        if np.any(np.abs(value[above] - g[above]) > 1e-12):
            problems.append("value differs from gain above b*")
        if np.any(value[~above] < g[~above] - MARGIN_TOL):
            problems.append("value below gain under b*")
        if len(mdl["alpha"]) == 1 and gain["variant"] == "identity" and np.any(~above):
            cf = self._closed_form(mdl)
            expected = (b + 1.0 / cf.mu) * cf.laplace_tau(xs[~above], b)
            rel = np.max(np.abs(value[~above] / expected - 1.0))
            if rel > 1e-8:
                problems.append(f"value curve disagrees with the closed form by {rel:.2e}")
        return problems

    def check_simulate(self, res: dict) -> list:
        op = res["op"]
        r = self.refs["simulate"][op["name"]]
        n, n_ref = op["paths"], r["paths"]
        scale = math.sqrt(n_ref / n)
        lines = res["table"].splitlines()
        if not lines or lines[0] != "# quantity,phase,value,stderr":
            return ["unexpected simulate table header"]
        got = {(q, int(p)): (float(v), float(s)) for q, p, v, s in (ln.split(",") for ln in lines[1:])}
        problems = []
        m = len(r["phi"])
        for i in range(m):
            value, stderr = got[("phi", i + 1)]
            expected_se = r["sigma"][i] * scale
            self._mc_compare(problems, f"phi_{i + 1}", value, r["phi"][i],
                             math.hypot(expected_se, r["sigma"][i]))
            if not STDERR_RATIO[0] <= stderr / expected_se <= STDERR_RATIO[1]:
                problems.append(f"phi_{i + 1} stderr {stderr:.3g}, expected about {expected_se:.3g}")
            crossings = n * r["cross_prob"][i]
            n_low = crossings - 5.0 * math.sqrt(crossings)
            ks = got[("overshoot_ks", i + 1)][0]
            if n_low > 0 and not ks <= self.ref.ks_threshold(int(n_low), self.n_ks):
                problems.append(f"overshoot KS of phase {i + 1} = {ks:.4g} above {self.ref.ks_threshold(int(n_low), self.n_ks):.4g}")
        value, _ = got[("joint", 0)]
        self._mc_compare(problems, "joint", value, r["joint"],
                         math.hypot(r["joint_sigma"] * scale, r["joint_sigma"]))
        value, _ = got[("censored_fraction", 0)]
        pooled = (value * n + r["censored"] * n_ref) / (n + n_ref)
        sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))
        if sigma == 0.0:
            if value != r["censored"]:
                problems.append(f"censored fraction {value} vs reference {r['censored']}")
        else:
            self._mc_compare(problems, "censored", value, r["censored"], sigma)
        return problems


# -- metrics -------------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tail_percentile(latencies: list) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(latencies) * (100 - q) / 100 >= 10:
            return q, float(np.percentile(latencies, q))
    return None


def end_to_end(probes: list, results: list, statuses: list, speed, peak_rss_mb: float) -> tuple[dict, list]:
    """Gated metrics use times at the reference host speed (see hostspeed.py);
    the raw wall-clock figures are printed beside them."""
    n = len(results)
    norm = [r["norm_seconds"] for r in results]
    raw = [r["seconds"] for r in results]
    ok = sum(s == "ok" for s, _ in statuses)
    wrong = sum(s == "wrong" for s, _ in statuses)
    metrics = {
        "setup_s": _metric(statistics.median(p["norm_s"] for p in probes), "s"),
        "wall_s": _metric(sum(norm), "s"),
        "op_p50_ms": _metric(1e3 * statistics.median(norm), "ms"),
        "ok_frac": _metric(ok / n, "ratio"),
        "honest_frac": _metric(1.0 - wrong / n, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    notes = [
        f"ops = {n}",
        f"fail_frac = {1.0 - ok / n:.6g} 1",
        f"wrong_frac = {wrong / n:.6g} 1",
        f"setup_raw_s = {statistics.median(p['wall_s'] for p in probes):.6g} s",
        f"wall_raw_s = {sum(raw):.6g} s",
        f"op_p50_raw_ms = {1e3 * statistics.median(raw):.6g} ms",
        f"host_slowdown = {statistics.median(k for _, k in speed.samples) / KERNEL_REF_S:.4g}"
        f" over {len(speed.samples)} samples",
    ]
    tail = _tail_percentile(norm)
    if tail is not None:
        notes.append(f"op_p{tail[0]}_ms = {1e3 * tail[1]:.6g} ms")
    return metrics, notes


def per_layer(tracer, probes: list, wall_untraced: float, wall_traced: float, mc: dict) -> dict:
    inc, calls, self_s = tracer.layer_times()
    c = tracer.counts

    def med(key):
        return statistics.median(p[key] for p in probes)

    exp_phi = c["transforms.exp_phi_calls"]
    sim_s = inc["montecarlo.simulate"]
    paths = c["montecarlo.paths"]
    quad = ("quadrature.innovation", "quadrature.ph")
    out = {
        "cli.import_s": _metric(med("import_s"), "s"),
        "cli.config_s": _metric(med("config_s"), "s"),
        "phasetype.validate_s": _metric(med("validate_s"), "s"),
        "transforms.engine_build_s": _metric(med("engine_build_s"), "s"),
        "transforms.exp_phi_calls": _metric(int(exp_phi), "count"),
        "transforms.exp_psi_calls": _metric(int(c["transforms.exp_psi_calls"]), "count"),
        "transforms.exp_phi_hit_ratio": _metric(c["transforms.exp_phi_hits"] / exp_phi if exp_phi else 0.0, "ratio"),
        "transforms.f_series_calls": _metric(calls["transforms.f_series"], "count"),
        "transforms.f_series_s": _metric(inc["transforms.f_series"], "s"),
        "transforms.eta_series_s": _metric(inc["transforms.eta_residues"], "s"),
        "passage.system_builds": _metric(calls["passage.system_build"], "count"),
        "passage.system_build_s": _metric(inc["passage.system_build"], "s"),
        "passage.solves": _metric(calls["passage.solve"], "count"),
        "passage.solve_s": _metric(inc["passage.solve"], "s"),
        "passage.errors": _metric(int(c["passage.errors"]), "count"),
        "passage.cond_max": _metric(c["passage.cond_max"], "ratio"),
        "passage.overshoot_s": _metric(inc["passage.overshoot"], "s"),
        "quadrature.calls": _metric(sum(calls[q] for q in quad), "count"),
        "quadrature.nodes": _metric(int(c["quadrature.nodes"]), "count"),
        "quadrature.s": _metric(sum(inc[q] for q in quad), "s"),
        "stopping.solve_s": _metric(inc["stopping.solve_general"] + inc["stopping.solve_exp_identity"], "s"),
        "stopping.verify_s": _metric(inc["stopping.verify"], "s"),
        "stopping.psi_of_calls": _metric(calls["stopping.psi_of"], "count"),
        "montecarlo.simulate_s": _metric(sim_s, "s"),
        "montecarlo.paths_per_s": _metric(paths / sim_s if sim_s else 0.0, "1/s"),
        "montecarlo.path_steps": _metric(int(c["montecarlo.path_steps"]), "count"),
        "montecarlo.censored_frac": _metric(c["montecarlo.censored"] / paths if paths else 0.0, "ratio"),
        "montecarlo.scaling_eff": _metric(mc.get("scaling_eff", 0.0), "ratio"),
        "montecarlo.workers_identical": _metric(mc.get("identical", 0), "count"),
        "montecarlo.ks_s": _metric(inc["montecarlo.ks"], "s"),
        "phasetype.cdf_vector_s": _metric(inc["phasetype.cdf_vector"], "s"),
        "cli.load_config_s": _metric(inc["cli.load_config"], "s"),
        "cli.render_s": _metric(inc["cli.render"], "s"),
        "cli.write_s": _metric(inc["cli.write"], "s"),
        "trace.wall_untraced_s": _metric(wall_untraced, "s"),
        "trace.wall_traced_s": _metric(wall_traced, "s"),
        "trace.overhead_s": _metric(wall_traced - wall_untraced, "s"),
        "trace.spans": _metric(len(tracer.spans), "count"),
    }
    for module, seconds in self_s.items():
        out[f"{module}.self_s"] = _metric(seconds, "s")
    return out


def workers_check(cli, seed: int, tmp: str) -> dict:
    """Byte-identical output at workers=1 and workers=nproc, and the speed-up."""
    mdl, b, x, paths = models.SIMULATE["sim-m2-long-b8"]
    runs = {}
    for w in (1, nproc()):
        cfg = {"model": mdl, "problem": {"b": b, "x": x}, "mc": {"n_paths": paths, "seed": seed, "workers": w}}
        [res], wall = run_ops(cli, [models.make_op("workers", "simulate", cfg)], tmp)
        if res["exit"] != 0:
            raise RuntimeError(f"workers={w} simulate failed: {res['error']}")
        runs[w] = (res["table"], wall)
    (t1_table, t1), (tn_table, tn) = runs[1], runs[nproc()]
    return {"identical": int(t1_table == tn_table), "scaling_eff": t1 / (nproc() * tn)}


# -- main -----------------------------------------------------------------------------


def machine_facts() -> list:
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return [
        f"nproc = {nproc()}",
        f"machine = {platform.machine()} {platform.system()} {platform.release()}",
        f"python = {platform.python_version()}, numpy = {np.__version__}, scipy = {scipy.__version__}",
        f"blas_threads = {blas or 'unset (OpenBLAS default: one per core)'}",
        f"mc_workers = {nproc()}",
    ]


def print_ops(results: list, statuses: list) -> None:
    for i, (res, (status, reason)) in enumerate(zip(results, statuses)):
        op = res["op"]
        where = f"b={op['b']:.6g}" if "b" in op else ""
        norm = f" norm_ms={1e3 * res['norm_seconds']:9.1f}" if "norm_seconds" in res else ""
        print(f"op {i:3d} {op['name']:<22} {where:<10} exit={res['exit']} "
              f"ms={1e3 * res['seconds']:9.1f}{norm} {status}{'  ' + reason if reason else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arphase benchmark")
    parser.add_argument("--workload", required=True, choices=models.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
        refs = load_refs()
    except (RuntimeError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workers = nproc()
    stars = b_stars(refs)
    ops = models.build_ops(args.workload, args.seed, args.seconds, workers, stars)
    print(f"workload = {args.workload}, seed = {args.seed}, seconds = {args.seconds}, "
          f"trace = {args.trace}, passes = {models.n_passes(args.workload, args.seconds)}")
    for line in machine_facts():
        print(line)

    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    checked = []
    try:
        if args.trace:
            from tracer import Tracer

            probes = setup_probes(ops[0]["config"], tmp, True)
            run_ops(cli, [models.warmup_op(args.workload, workers)], tmp)
            base_ops = models.build_ops(args.workload, args.seed + TRACE_BASELINE_OFFSET, args.seconds,
                                        workers, stars)
            # Host-speed samples at op boundaries only: no kernel runs inside a span.
            speed = HostSpeed()
            base_results, _ = run_ops(cli, base_ops, tmp, speed=speed)
            checked.append((Checker(refs, base_ops), base_results))
            tracer = Tracer().install()
            try:
                results, _ = run_ops(cli, ops, tmp, tracer, speed)
            finally:
                tracer.uninstall()
            mc = workers_check(cli, args.seed, tmp) if args.workload == "simulate-mc" else {}
        else:
            speed = HostSpeed()
            probes = setup_probes(ops[0]["config"], tmp, False, speed)
            run_ops(cli, [models.warmup_op(args.workload, workers)], tmp)
            # No kernel inside MC ops: their worker threads share its CPUs.
            timer = contextlib.nullcontext() if args.workload == "simulate-mc" else speed
            with timer:
                results, _ = run_ops(cli, ops, tmp, speed=speed)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked.append((Checker(refs, ops), results))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = True
    for checker, res_list in checked:
        statuses = [checker.outcome(r) for r in res_list]
        correct &= all(s == "ok" or r["op"]["name"] in models.KNOWN_DEFECTS
                       for r, (s, _) in zip(res_list, statuses))
    print_ops(results, statuses)

    if args.trace:
        metrics = per_layer(tracer, probes, sum(r["norm_seconds"] for r in base_results),
                            sum(r["norm_seconds"] for r in results), mc)
        correct &= args.workload != "simulate-mc" or mc["identical"] == 1
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        notes = []
    else:
        metrics, notes = end_to_end(probes, results, statuses, speed, peak_rss_mb)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": sum(s == "fail" for s, _ in statuses),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
