"""Self-tests of the benchmark: checker verdicts, op lists and tracer bindings.

    python3 bench/test_bench.py        (or: python3 -m pytest bench/test_bench.py)
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import models  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

# `arphase passage` output for the lam = rho = 0.99 anchor at the seed commit:
# Phi = (0.0036, 0.0005) against Monte Carlo (0.608, 0.363).
SEED_LAM099_TABLE = (
    "# x,phi_1,phi_2,laplace_tau,error_bound\n"
    "0,0.0036157466193028768,0.00052232598247862138,0.0041380726017814983,4.3756156217062211e-12\n"
)

# Per-layer metrics that must move on each workload (README, per-layer table).
MOVES_ON = {
    "passage-grid": [
        "transforms.exp_phi_calls", "transforms.exp_psi_calls", "transforms.exp_phi_hit_ratio",
        "transforms.f_series_calls", "transforms.f_series_s", "transforms.eta_series_s",
        "passage.solves", "passage.solve_s", "passage.cond_max", "passage.system_builds",
        "passage.system_build_s", "cli.render_s", "cli.write_s", "cli.load_config_s",
        "cli.self_s", "transforms.self_s", "passage.self_s", "phasetype.self_s",
    ],
    "stop-verify": [
        "transforms.exp_phi_calls", "transforms.f_series_calls", "passage.solves",
        "passage.system_builds", "passage.overshoot_s", "quadrature.calls", "quadrature.nodes",
        "quadrature.s", "quadrature.self_s", "stopping.solve_s", "stopping.verify_s",
        "stopping.psi_of_calls", "stopping.self_s",
    ],
    "simulate-mc": [
        "montecarlo.simulate_s", "montecarlo.paths_per_s", "montecarlo.path_steps",
        "montecarlo.ks_s", "montecarlo.self_s", "phasetype.cdf_vector_s",
    ],
}


def _refs():
    return run.load_refs()


def _small_ops(workload: str) -> list:
    """A short op list per workload that still reaches every layer it uses."""
    refs = _refs()
    ops = models.build_ops(workload, 3, 1, 2, run.b_stars(refs))
    if workload == "passage-grid":
        return [op for op in ops if op["name"] in ("m1-exp-zero", "m2-hyper-zero")]
    if workload == "stop-verify":
        return [op for op in ops if op["name"] in ("stop-m1-exp-identity", "stop-m2-identity")]
    op = dict(ops[-1])
    op["config"] = dict(op["config"], mc=dict(op["config"]["mc"], n_paths=20_000))
    return [op]


class CheckerTest(unittest.TestCase):
    def _verdict(self, op, table):
        checker = run.Checker(_refs(), [op])
        return checker.outcome({"op": op, "exit": 0, "stdout": "", "table": table, "error": ""})

    def test_seed_lam099_output_is_wrong(self):
        op = next(o for o in models.passage_ops(0, 1) if o["name"] == "anchor-lam0.99")
        status, reason = self._verdict(op, SEED_LAM099_TABLE)
        self.assertEqual(status, "wrong")
        self.assertIn("one-step bound", reason)

    def test_closed_form_m1_row_is_correct(self):
        mdl = models.PASSAGE_M1["m1-exp-zero"]
        b, x = 1.3, 0.2
        op = models.make_op("m1-exp-zero", "passage", {"model": mdl, "problem": {"b": b, "x_grid": [x]}},
                        kind="m1", b=b, x_grid=[x])
        value = float(reference.SinglePhaseClosedForm(mdl).laplace_tau([x], b)[0])
        row = f"{x!r},{value!r},{value!r},1e-12\n"
        header = "# x,phi_1,laplace_tau,error_bound\n"
        self.assertEqual(self._verdict(op, header + row)[0], "ok")
        off = value * (1 + 1e-6)
        self.assertEqual(self._verdict(op, header + f"{x!r},{off!r},{off!r},1e-12\n")[0], "wrong")

    def test_nonzero_exit_is_a_failure_not_a_wrong_answer(self):
        op = models.passage_ops(0, 1)[0]
        checker = run.Checker(_refs(), [op])
        res = {"op": op, "exit": 3, "stdout": "", "table": "", "error": "numerical error"}
        self.assertEqual(checker.outcome(res)[0], "fail")


class OpListTest(unittest.TestCase):
    def test_same_seed_same_ops_and_no_repeated_inputs(self):
        stars = run.b_stars(_refs())
        for workload in models.WORKLOADS:
            a = models.build_ops(workload, 11, 60, 2, stars)
            self.assertEqual(a, models.build_ops(workload, 11, 60, 2, stars))
            self.assertNotEqual(a, models.build_ops(workload, 12, 60, 2, stars))
            configs = [repr(op["config"]) for op in a]
            self.assertEqual(len(configs), len(set(configs)), workload)

    def test_anchors_stay_fixed(self):
        first = [op for op in models.passage_ops(1, 1) if op["kind"] == "anchor"]
        self.assertEqual(first, [op for op in models.passage_ops(99, 3) if op["kind"] == "anchor"])
        self.assertEqual(len(first), 3)


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_cli()

    def test_every_binding_site_is_wrapped_and_restored(self):
        import arphase.cli
        import arphase.montecarlo
        import arphase.phasetype
        import arphase.quadrature
        import arphase.stopping
        from tracer import Tracer

        original = arphase.phasetype.cdf_vector
        tracer = Tracer().install()
        try:
            sites = [arphase.cli.cdf_vector, arphase.montecarlo.cdf_vector, arphase.phasetype.cdf_vector]
            self.assertTrue(all(f is sites[0] and f is not original for f in sites))
            quad = [arphase.cli.innovation_expectation, arphase.stopping.innovation_expectation,
                    arphase.quadrature.innovation_expectation]
            self.assertTrue(all(hasattr(f, "__wrapped__") for f in quad))
            self.assertTrue(hasattr(arphase.cli.ph_validate, "__wrapped__"))
        finally:
            tracer.uninstall()
        self.assertIs(arphase.cli.cdf_vector, original)
        self.assertFalse(hasattr(arphase.stopping.innovation_expectation, "__wrapped__"))

    def _traced_counts(self, ops):
        from tracer import Tracer

        tracer = Tracer().install()
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            try:
                results, wall = run.run_ops(self.cli, ops, tmp, tracer)
            finally:
                tracer.uninstall()
        self.assertTrue(all(r["exit"] == 0 for r in results), [r["error"] for r in results])
        probe = {"import_s": 1.0, "config_s": 1.0, "validate_s": 1.0, "engine_build_s": 1.0}
        return run.per_layer(tracer, [probe], wall, wall, {})

    def test_counters_move_where_expected(self):
        for workload, names in MOVES_ON.items():
            metrics = self._traced_counts(_small_ops(workload))
            zero = [n for n in names if not metrics[n]["value"] > 0]
            self.assertEqual(zero, [], workload)

    def test_counters_repeat_exactly(self):
        ops = _small_ops("passage-grid")
        a, b = self._traced_counts(ops), self._traced_counts(ops)
        for name, metric in a.items():
            if metric["unit"] == "count":
                self.assertEqual(metric["value"], b[name]["value"], name)

    def test_setup_probe_reports_each_step(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            cfg = {"model": models.PASSAGE_MULTI["m6-coxian-exp"]}
            probes = run.setup_probes(cfg, tmp, trace=True)
        self.assertEqual(len(probes), run.SETUP_PROBES)
        self.assertTrue(all(p[k] > 0 for p in probes for k in p))


class EntryTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            bench = os.path.join(tmp, "bench")
            os.mkdir(bench)
            for name in os.listdir(run.HERE):
                if name.endswith((".py", ".json")):
                    with open(os.path.join(run.HERE, name), "rb") as src, \
                            open(os.path.join(bench, name), "wb") as dst:
                        dst.write(src.read())
            proc = subprocess.run(
                [sys.executable, os.path.join(bench, "run.py"), "--workload", "passage-grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
