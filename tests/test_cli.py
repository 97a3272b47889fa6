"""Command-line interface: config parsing, emitters, exit codes."""

import argparse
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from mpref import f_of_b, q_exp
from scipy import optimize

from arphase import (
    GainFunction,
    NegativePart,
    ResidueSystem,
    TransformEngine,
    passage,
    simulate_paths,
)
from arphase import cli
from arphase.cli import RunConfig, main, render_table
from arphase.passage import closed_form_exp

M1_CONFIG = {
    "model": {
        "lambda": 0.5,
        "rho": 0.5,
        "Q": [[-1.0]],
        "alpha": [1.0],
        "t": {"variant": "zero"},
    },
    "problem": {"b": 1.0, "x_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]},
}

M2_CONFIG = {
    "model": {
        "lambda": 0.5,
        "rho": 0.5,
        "Q": [[-1.0, 0.0], [0.0, -3.0]],
        "alpha": [0.4, 0.6],
    },
    "problem": {"b": 1.0, "x": 0.0},
    "mc": {"n_paths": 100000, "seed": 7},
}


GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def traced_peak(argv) -> int:
    """The traced peak in bytes of one main(argv) call, which must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[0].startswith("# ")
    header = lines[0][2:].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


class TestPassage:
    def test_m1_grid_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, M1_CONFIG)
        out = tmp_path / "passage.csv"
        assert main(["passage", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "phi_1", "laplace_tau", "error_bound"]
        assert len(rows) == 7
        for row in rows:
            x, phi = float(row[0]), float(row[1])
            want = closed_form_exp(x, 1.0, 1.0, 0.5, 0.5)
            assert abs(phi - want) < 1e-10

    def test_grid_reaching_threshold_exits_2(self, tmp_path):
        bad = json.loads(json.dumps(M1_CONFIG))
        bad["problem"]["x_grid"] = [0.0, 0.5, 1.0]
        cfg = write_config(tmp_path, bad)
        assert main(["passage", "--config", cfg]) == 2

    def test_json_output_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, M1_CONFIG)
        out = tmp_path / "passage.json"
        assert main(
            ["passage", "--config", cfg, "--format", "json",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "x"
        assert len(payload["rows"]) == 7
        assert payload["rows"][0][1] == pytest.approx(
            closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5), abs=1e-10
        )

    def test_unknown_config_keys_rejected(self, tmp_path):
        bad = json.loads(json.dumps(M1_CONFIG))
        bad["model"]["extra"] = 1
        cfg = write_config(tmp_path, bad)
        assert main(["passage", "--config", cfg]) == 2

    def test_too_large_threshold_exits_3(self, tmp_path, capsys):
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["problem"]["b"] = 500.0
        assert main(["passage", "--config", write_config(tmp_path, payload)]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical error: residues at b=500.0 are not finite; "
                       "b is too large for this model, or T so large that "
                       "E(e^{-uT}) underflows to 0\n")

    def test_t_underflow_exits_3_with_one_line(self, tmp_path, capsys):
        # E(e^{-uT}) = e^{-1e6 u} is 0 in floating point, so the series
        # divide by e^{phi} = 0; no RuntimeWarning may escape.
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["model"]["t"] = {"variant": "point_mass", "d": 1e6}
        assert main(["passage", "--config", write_config(tmp_path, payload)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error: residues at b=1.0 are not finite; "
                                "b is too large for this model, or T so large that "
                                "E(e^{-uT}) underflows to 0\n")

    def test_csv_formatting_rules(self, tmp_path):
        cfg = write_config(tmp_path, M1_CONFIG)
        out = tmp_path / "fmt.csv"
        main(["passage", "--config", cfg, "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"# ")
        # full-precision floats survive a parse/format round trip
        _, rows = read_csv(out)
        val = rows[3][1]
        assert format(float(val), ".17g") == val


class TestConfigBlocks:
    @pytest.mark.parametrize(
        "where, value",
        [
            ("model", [1.0]),
            ("model.t", "zero"),
            ("problem", None),
            ("gain", "identity"),
            ("mc", 5),
            ("output", ["format"]),
            ("tolerances", [1]),
        ],
    )
    def test_non_object_block_exits_2(self, tmp_path, capsys, where, value):
        payload = json.loads(json.dumps(M2_CONFIG))
        if where == "model.t":
            payload["model"]["t"] = value
        else:
            payload[where] = value
        assert main(["passage", "--config", write_config(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {where} must be a JSON object\n"


class TestRenderTable:
    def test_csv_cells_as_formatted_one_by_one(self):
        specials = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1, 1e17,
                    np.float64(0.1), np.float64(-0.0)]
        rows = [["phi", i, v, -v] for i, v in enumerate(specials)]
        lines = ["# quantity,phase,value,stderr"]
        lines += [",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in r)
                  for r in rows]
        want = "\n".join(lines) + "\n"
        assert render_table(["quantity", "phase", "value", "stderr"], rows, "csv") == want
        assert "\nphi,4,4.9406564584124654e-324,-4.9406564584124654e-324\n" in want

    def test_json_non_finite_cells_are_null(self):
        rows = [["phi", 1, float("nan"), np.float64(np.inf)], ["ks", 2, -np.inf, 0.5]]
        text = render_table(["quantity", "phase", "value", "stderr"], rows, "json")
        assert json.loads(text)["rows"] == [["phi", 1, None, None], ["ks", 2, None, 0.5]]


class TestParser:
    def test_built_once_across_calls(self, monkeypatch, capsys):
        assert main(["passage"]) == 2  # builds the parser if nothing did yet
        built = []
        add_argument = argparse.ArgumentParser.add_argument
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            lambda *a, **k: built.append(a) or add_argument(*a, **k))
        with pytest.raises(SystemExit) as exc:
            main(["passage", "--no-such-flag"])
        assert exc.value.code == 2
        assert main(["validate", "--only", "qbinomial"]) == 0
        assert main(["validate", "--only", "nonsense"]) == 2
        assert built == []
        captured = capsys.readouterr()
        assert captured.out.startswith("qbinomial: residual=")
        assert "unknown check 'nonsense'" in captured.err


class TestFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("passage", "--seed", "5"),
        ("passage", "--paths", "3"),
        ("stop", "--seed", "5"),
        ("stop", "--paths", "3"),
        ("validate", "--seed", "5"),
        ("validate", "--paths", "3"),
        ("validate", "--format", "json"),
        ("validate", "--out", "f.csv"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(out) if flag == "--out" else value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field, value", [
        (["passage", "--out", "p.csv"], "out_path", "p.csv"),
        (["passage", "--format", "json"], "out_format", "json"),
        (["stop", "--out", "s.csv"], "out_path", "s.csv"),
        (["stop", "--format", "json"], "out_format", "json"),
        (["stop", "--b-override", "0.4"], "b_override", 0.4),
        (["simulate", "--out", "m.csv"], "out_path", "m.csv"),
        (["simulate", "--format", "json"], "out_format", "json"),
        (["simulate", "--seed", "9"], "seed", 9),
        (["simulate", "--paths", "7"], "n_paths", 7),
        (["simulate", "--workers", "3"], "workers", 3),
        (["validate", "--only", "harm1"], "only", "harm1"),
    ])
    def test_kept_flag_reaches_its_field(self, monkeypatch, argv, field, value):
        seen = {}

        def command(cfg, **kwargs):
            seen.update(vars(cfg), **kwargs)
            return 0

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", command)
        assert main(argv) == 0
        default = RunConfig()
        assert {k: v for k, v in seen.items() if getattr(default, k, None) != v} == {field: value}

    def test_simulate_flags_equal_their_mc_fields(self, tmp_path):
        payload = json.loads(json.dumps(M2_CONFIG))
        by_flags, by_config = tmp_path / "flags.csv", tmp_path / "config.csv"
        assert main(["simulate", "--config", write_config(tmp_path, payload, "a.json"),
                     "--paths", "3000", "--seed", "11", "--workers", "2",
                     "--out", str(by_flags)]) == 0
        payload["mc"] = {"n_paths": 3000, "seed": 11, "workers": 2}
        assert main(["simulate", "--config", write_config(tmp_path, payload, "b.json"),
                     "--out", str(by_config)]) == 0
        assert by_flags.read_bytes() == by_config.read_bytes()

    def test_validate_only_with_config_tolerances(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tolerances": {"harm1": 1e-30, "harm2": 1e-30}})
        assert main(["validate", "--config", cfg, "--only", "harm1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("harm1: residual=")
        assert captured.out.endswith(" tol=1.0e-30 FAIL\n")
        assert captured.out.count("\n") == 1
        assert captured.err == "failed checks: harm1\n"


class TestConfigParameters:
    @pytest.mark.parametrize("where, block, message", [
        ("gain", {"variant": "power", "n": 1.7}, "gain.n must be an integer, got 1.7"),
        ("t", {"variant": "gamma_int", "shape": 2.5, "rate": 3.0},
         "model.t.shape must be an integer, got 2.5"),
        ("t", {"variant": "exponential"}, "model.t variant exponential needs 'rate'"),
        ("t", {"variant": "point_mass"}, "model.t variant point_mass needs 'd'"),
        ("t", {"variant": "gamma_int", "rate": 3.0}, "model.t variant gamma_int needs 'shape'"),
        ("t", {"variant": "gamma_int", "shape": 2}, "model.t variant gamma_int needs 'rate'"),
        ("gain", {"variant": "power"}, "gain variant power needs 'n'"),
        ("gain", {"variant": "call"}, "gain variant call needs 'strike'"),
    ])
    def test_rejected_with_exit_2_naming_the_field(self, tmp_path, capsys, where, block, message):
        payload = {"model": dict(M2_CONFIG["model"]), "problem": {"b_lo": 0.3, "b_hi": 1.5}}
        if where == "t":
            payload["model"]["t"] = block
        else:
            payload["gain"] = block
        assert main(["stop", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command, where, block, key", [
        ("passage", "t", {"variant": "gamma_int", "shape": 2.0, "rate": 4.0}, "shape"),
        ("stop", "gain", {"variant": "power", "n": 2.0}, "n"),
    ])
    def test_integral_floats_accepted(self, tmp_path, capsys, command, where, block, key):
        payload = {"model": dict(M2_CONFIG["model"]),
                   "problem": {"b": 1.0, "x_grid": [0.0, 0.5], "b_lo": 0.3, "b_hi": 1.5}}
        runs = []
        for value in (block[key], int(block[key])):
            part = dict(block, **{key: value})
            if where == "t":
                payload["model"]["t"] = part
            else:
                payload["gain"] = part
            out = tmp_path / f"{value!r}.csv"
            code = main([command, "--config", write_config(tmp_path, payload), "--out", str(out)])
            runs.append((code, capsys.readouterr(), out.read_bytes()))
        assert runs[0] == runs[1]
        # The power stop exits 4: x^2 exceeds its value far below b*.
        assert runs[0][0] == (0 if command == "passage" else 4)

    # One (variant, parameters) row per entry of NegativePart.PARAMS and
    # GainFunction.PARAMS, with the classmethod build it must equal.
    T_ROWS = {
        "zero": ({}, NegativePart.zero()),
        "point_mass": ({"d": 0.3}, NegativePart.point_mass(0.3)),
        "exponential": ({"rate": 2.0}, NegativePart.exponential(2.0)),
        "gamma_int": ({"shape": 2, "rate": 4.0}, NegativePart.gamma_int(2, 4.0)),
    }
    GAIN_ROWS = {
        "identity": ({}, GainFunction.identity()),
        "power": ({"n": 2}, GainFunction.power(2)),
        "call": ({"strike": 0.5}, GainFunction.call(0.5)),
    }

    def test_rows_cover_the_tables(self):
        tables = ((self.T_ROWS, NegativePart.PARAMS), (self.GAIN_ROWS, GainFunction.PARAMS))
        for rows, table in tables:
            listed = {v: list(params) for v, (params, _) in rows.items()}
            assert listed == {v: list(params) for v, params in table.items()}

    @pytest.mark.parametrize("variant", list(T_ROWS))
    def test_t_row_parses_to_its_classmethod_build(self, variant):
        params, built = self.T_ROWS[variant]
        model = dict(M2_CONFIG["model"], t={"variant": variant, **params})
        assert RunConfig.from_dict({"model": model}).model.inn.t_part == built

    @pytest.mark.parametrize("variant", list(GAIN_ROWS))
    def test_gain_row_parses_to_its_classmethod_build(self, variant):
        params, built = self.GAIN_ROWS[variant]
        assert RunConfig.from_dict({"gain": {"variant": variant, **params}}).gain == built

    def test_missing_block_or_variant_gives_the_default(self):
        model = dict(M2_CONFIG["model"])
        for t in ({}, {"d": 1.0}, None):
            cfg = RunConfig.from_dict({"model": model if t is None else dict(model, t=t)})
            assert cfg.model.inn.t_part == NegativePart.zero()
        for raw in ({}, {"gain": {}}, {"gain": {"n": 3}}):
            assert RunConfig.from_dict(raw).gain == GainFunction.identity()

    @pytest.mark.parametrize("where, variant", [
        ("t", "nope"), ("t", "custom"), ("t", "identity"), ("t", 5), ("t", [1]),
        ("gain", "nope"), ("gain", "custom"), ("gain", "zero"), ("gain", 5), ("gain", [1]),
    ])
    def test_unknown_variant_exits_2_listing_the_table(self, tmp_path, capsys, where, variant):
        payload = {"model": dict(M2_CONFIG["model"]), "problem": {"b_lo": 0.3, "b_hi": 1.5}}
        if where == "t":
            payload["model"]["t"] = {"variant": variant}
            message = (f"unknown model.t variant {variant!r}; "
                       "available: zero, point_mass, exponential, gamma_int")
        else:
            payload["gain"] = {"variant": variant}
            message = f"unknown gain variant {variant!r}; available: identity, power, call"
        assert main(["stop", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["lambda", "rho", "Q", "alpha"])
    def test_missing_model_key_exits_2_naming_it(self, tmp_path, capsys, key):
        payload = json.loads(json.dumps(M2_CONFIG))
        del payload["model"][key]
        assert main(["passage", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: model needs {key!r}\n"


class TestNonFiniteProblem:
    # Python's json reads NaN and Infinity; each must be rejected up front.
    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("passage", "b", float("nan")),
            ("passage", "b", float("inf")),
            ("passage", "x", float("-inf")),
            ("simulate", "b", float("inf")),
            ("simulate", "x", float("-inf")),
            ("stop", "b_lo", float("nan")),
            ("stop", "b_hi", float("inf")),
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, command, key, value):
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["mc"]["n_paths"] = 1000
        payload["problem"] = {"b": 1.0, "x": 0.0, "b_lo": 0.3, "b_hi": 1.5, key: value}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: problem.{key} must be finite, got {value}" in captured.err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", [float("nan"), 0.6], "alpha must have finite entries"),
            ("Q", [[-1.0, 0.0], [float("nan"), -3.0]], "Q must have finite entries"),
            ("Q", [[float("-inf"), 0.0], [0.0, -3.0]], "Q must have finite entries"),
            ("t", {"variant": "point_mass", "d": float("nan")}, "T parameters must be finite"),
            ("t", {"variant": "exponential", "rate": float("inf")}, "T parameters must be finite"),
            ("t", {"variant": "gamma_int", "shape": 2, "rate": float("nan")},
             "T parameters must be finite"),
        ],
    )
    def test_model_field_rejected_with_exit_2(self, tmp_path, capsys, field, value, message):
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["model"][field] = value
        cfg = write_config(tmp_path, payload)
        assert main(["passage", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")


    @pytest.mark.parametrize("strike", [float("nan"), float("inf"), float("-inf")])
    def test_call_strike_rejected_with_exit_2(self, tmp_path, capsys, strike):
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["gain"] = {"variant": "call", "strike": strike}
        payload["problem"] = {"b_lo": 0.3, "b_hi": 1.5}
        cfg = write_config(tmp_path, payload)
        assert main(["stop", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: call strike must be finite, got {strike}\n"


class TestConfigTypes:
    # A value of the wrong JSON type is refused naming its field, never
    # run as a number or reported as a bare exception repr.
    CASES = [
        ("problem", {"x_grid": 3}, "problem.x_grid"),
        ("problem", {"x": None}, "problem.x"),
        ("problem", {"x_grid": [[0.0]]}, "problem.x_grid[0]"),
        ("problem", {"x_grid": [0.0, "0.5"]}, "problem.x_grid[1]"),
        ("problem", {"b": "abc"}, "problem.b"),
        ("problem", {"b": True}, "problem.b"),
        ("problem", {"b": "1.5"}, "problem.b"),
        ("problem", {"b": int("1" + "0" * 400)}, "problem.b"),
        ("gain", {"variant": "call", "strike": None}, "gain.strike"),
        ("gain", {"variant": "power", "n": True}, "gain.n"),
        ("output", {"path": 5}, "output.path"),
        ("mc", {"n_paths": "abc"}, "mc.n_paths"),
        ("mc", {"seed": True}, "mc.seed"),
        ("mc", {"max_steps": None}, "mc.max_steps"),
        ("tolerances", {"harm1": "abc"}, "tolerances.harm1"),
        ("model", {"lambda": "0.5"}, "model.lambda"),
        ("model", {"rho": None}, "model.rho"),
        ("model", {"t": {"variant": "exponential", "rate": "2"}}, "model.t.rate"),
        ("model", {"Q": [[-1.0, 0.0], [0.0]]}, "Q"),
        ("model", {"Q": [["-1", "0"], ["0", "-3"]]}, "Q"),
        ("model", {"alpha": [0.4, None]}, "alpha"),
        ("model", {"alpha": [True, False]}, "alpha"),
    ]

    @pytest.mark.parametrize("block, update, field", CASES,
                             ids=[f"{i}-{field}" for i, (_, _, field) in enumerate(CASES)])
    def test_wrong_type_exits_2_naming_the_field(self, tmp_path, capsys, block, update, field):
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["problem"] = {"b": 1.0}
        payload[block] = {**payload.get(block, {}), **update}
        assert main(["passage", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be ")
        assert "Error(" not in captured.err and captured.err.count("\n") == 1


class TestSeparation:
    def test_collision_past_10000_steps_exits_2(self, tmp_path, capsys):
        # lambda^12000 mu_2 = mu_1: a collision past n = 10,000.
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["model"].update({"lambda": 0.9999, "Q": [[-1.0, 0.0], [0.0, -(0.9999 ** -12000)]]})
        cfg = write_config(tmp_path, payload)
        assert main(["passage", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "eigenvalue separation violated: lambda^12000" in err
        assert "collides with eigenvalue (1+0j)" in err


class TestStop:
    def test_optimal_curve(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"model": M1_CONFIG["model"]},
        )
        out = tmp_path / "curve.csv"
        assert main(["stop", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        b_star = float(
            [ln for ln in text.splitlines() if ln.startswith("b_star")][0]
            .split("=")[1]
        )
        assert abs(b_star - 0.6962231671778065) < 1e-9
        _, rows = read_csv(out)
        data = np.array([[float(v) for v in r] for r in rows])
        x, v, g = data[:, 0], data[:, 1], data[:, 2]
        assert np.all(v >= g - 1e-9)
        above = x >= b_star
        assert np.allclose(v[above], x[above])
        # continuity at the threshold
        i = int(np.searchsorted(x, b_star))
        assert abs(v[i] - v[i - 1]) < 2 * (x[i] - x[i - 1])

    def test_far_left_start(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"model": M1_CONFIG["model"], "problem": {"x_grid": [-80.0, 0.0, 0.5]}}
        )
        out = tmp_path / "far.csv"
        assert main(["stop", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        b_star = float([ln for ln in text.splitlines() if ln.startswith("b_star")][0].split("=")[1])
        _, rows = read_csv(out)
        want = (b_star + 1.0) * 0.5 * q_exp(-40.0, 0.5, 0.5) / q_exp(b_star, 0.5, 0.5)
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)

    def test_high_rho_lambda_brackets_below_overflow(self, tmp_path, capsys):
        # The analytic bracket end 1237 put Q(b_hi) past the float range,
        # and this stop exited 3; b* is near 25.
        model = dict(M1_CONFIG["model"], **{"lambda": 0.98, "rho": 0.98})
        cfg = write_config(tmp_path, {"model": model, "problem": {"x_grid": [0.0, 1.0]}})
        assert main(["stop", "--config", cfg]) == 0
        lines = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines()[:5])
        assert lines["verified"] == "True"
        ref = optimize.brentq(lambda b: f_of_b(b, 1.0, 0.98, 0.98), 0.0, 700.0,
                              xtol=1e-15, rtol=8.9e-16)
        assert abs(float(lines["b_star"]) - ref) <= 1e-13 * ref

    def test_continuous_fit_prints_maximizer_cross_check(self, tmp_path, capsys):
        problem = {"b_lo": 0.2, "b_hi": 1.4, "x_grid": [0.0, 1.0]}
        cfg = write_config(tmp_path, {"model": M2_CONFIG["model"], "problem": problem})
        assert main(["stop", "--config", cfg]) == 0
        lines = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines()[:7])
        assert list(lines)[-3:] == ["verified", "maximizer_b", "methods_agree"]
        assert lines["methods_agree"] == "True"
        assert abs(float(lines["maximizer_b"]) - float(lines["b_star"])) <= 1e-4
        # The m = 1 q-series route and a fixed threshold have no maximizer.
        for argv in (["stop", "--config", write_config(tmp_path, {"model": M1_CONFIG["model"]})],
                     ["stop", "--config", cfg, "--b-override", "0.5"]):
            assert main(argv) == 0
            assert "maximizer_b" not in capsys.readouterr().out

    def test_window_with_one_singular_threshold_exits_3(self, tmp_path, capsys, monkeypatch,
                                                         engine_m2):
        # engine_m2 is M2_CONFIG's model.
        conds = sorted(ResidueSystem(engine_m2, b).cond for b in np.linspace(0.3, 1.5, 41))
        monkeypatch.setattr(passage, "_COND_LIMIT", 0.5 * (conds[-2] + conds[-1]))
        problem = {"b_lo": 0.3, "b_hi": 1.5, "x_grid": [0.0]}
        cfg = write_config(tmp_path, {"model": M2_CONFIG["model"], "problem": problem})
        assert main(["stop", "--config", cfg]) == 3
        assert "residue system condition number" in capsys.readouterr().err

    @pytest.mark.parametrize("n, message", [
        # The product of two fit gaps overflowed, with a RuntimeWarning.
        (150, "continuous-fit equation has no root in [0.3, 1.5]"),
        # 171! overflowed the float range in the overshoot moments, with a traceback.
        (171, "power gain n=171 is too large: its overshoot moments need k! for k up to n, "
              "and k! overflows the float range past k = 170"),
    ], ids=["n150", "n171"])
    def test_large_power_exits_3(self, tmp_path, capsys, n, message):
        problem = {"b_lo": 0.3, "b_hi": 1.5, "x_grid": [0.0]}
        cfg = write_config(tmp_path, {"model": M2_CONFIG["model"], "problem": problem,
                                      "gain": {"variant": "power", "n": n}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stop", "--config", cfg]) == 3
        assert capsys.readouterr() == ("", f"numerical error: {message}\n")

    # verify_solution checks the value down to b* - 5, which for Exp(8) at
    # lambda = rho = 1/2 reaches the q-series at z = -19.65.
    def test_large_rate_verifies(self, tmp_path):
        model = dict(M1_CONFIG["model"], Q=[[-8.0]])
        assert main(["stop", "--config", write_config(tmp_path, {"model": model})]) == 0

    @pytest.mark.parametrize("argv", [["--b-override", "nan"], ["--b-override", "inf"],
                                      ["--b-override=-inf"]])
    def test_non_finite_override_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        engines = []
        monkeypatch.setattr(cli, "TransformEngine", engines.append)
        cfg = write_config(tmp_path, {"model": M2_CONFIG["model"]})
        assert main(["stop", "--config", cfg, *argv]) == 2
        captured = capsys.readouterr()
        value = float(argv[-1].split("=")[-1])
        assert captured.out == ""
        assert captured.err == f"error: --b-override must be finite, got {value}\n"
        assert engines == []   # rejected before any build

    # 6 builds with a window: the 41-point scan, two (b - h, b, b + h)
    # builds of Newton steps on the fit gap and two on dPsi/db, and b*.  A
    # second build at b* would add one.
    @pytest.mark.parametrize("extra, most", [([], 6), (["--b-override", "0.5"], 1)])
    def test_residue_builds_per_call(self, tmp_path, capsys, monkeypatch, extra, most):
        builds = []
        init = ResidueSystem.__init__

        def counted(system, engine, b):
            builds.append(b)
            init(system, engine, b)

        monkeypatch.setattr(ResidueSystem, "__init__", counted)
        problem = {"b_lo": 0.2, "b_hi": 1.4, "x_grid": [0.0, 1.0]}
        cfg = write_config(tmp_path, {"model": M2_CONFIG["model"], "problem": problem})
        assert main(["stop", "--config", cfg, *extra]) == 0
        assert len(builds) <= most, len(builds)

    def test_override_threshold_exhibits_kink(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": M1_CONFIG["model"],
                "problem": {
                    "x_grid": list(np.round(np.linspace(0.0, 0.6, 61), 6))
                },
            },
        )
        out = tmp_path / "kink.csv"
        assert main(
            ["stop", "--config", cfg, "--b-override", "0.3",
             "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        data = np.array([[float(v) for v in r] for r in rows])
        x, v = data[:, 0], data[:, 1]
        h = x[1] - x[0]
        i = int(np.argmin(np.abs(x - 0.3)))
        left = (v[i] - v[i - 1]) / h
        right = (v[i + 1] - v[i]) / h
        assert abs(left - right) > 0.01


class TestNegativeThreshold:
    """The residue route and the q-series need b >= 0 (ROADMAP item 15): on
    m2 at b = -0.5 and x = -3 the residue route gave Phi_2 = 0.12785 with
    error_bound 5e-12, where Monte Carlo gives 0.11805 +- 0.00021."""

    DOMAIN = "outside the domain b >= 0 of the residue route and the q-series"

    @pytest.mark.parametrize("problem, argv", [
        ({"b": -0.5, "x": -3.0}, ["passage"]),
        ({"x_grid": [-3.0, -1.0]}, ["stop", "--b-override", "-0.5"]),
        ({"b_lo": -0.5, "b_hi": 1.5, "x_grid": [-3.0, 0.0]}, ["stop"]),
    ], ids=["passage", "stop-override", "stop-window"])
    def test_exits_2_naming_the_domain(self, tmp_path, capsys, problem, argv):
        cfg = write_config(tmp_path, {"model": M2_CONFIG["model"], "problem": problem})
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: threshold b=-0.5 is {self.DOMAIN}\n"
        assert not out.exists()

    def test_zero_threshold_matches_closed_form(self, tmp_path):
        payload = {"model": M1_CONFIG["model"], "problem": {"b": 0.0, "x_grid": [-3.0, -1.0, -0.2]}}
        out = tmp_path / "passage.csv"
        assert main(["passage", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for x, _, total, bound in ([float(v) for v in row] for row in rows):
            assert abs(total - closed_form_exp(x, 0.0, 1.0, 0.5, 0.5)) <= bound

    def test_root_within_a_stencil_of_zero(self, tmp_path, capsys):
        # rho = 1e-5 puts the m2 root near 6e-6: the fit gap is +1.0e-6 at
        # b = 5e-6 and -4.0e-6 at 1e-5.  A central stencil (b - 1e-4, b,
        # b + 1e-4) there held a b below 0, and stop exited 2.
        payload = {"model": {**M2_CONFIG["model"], "rho": 1e-5}, "gain": {"variant": "identity"},
                   "problem": {"b_lo": 0.0, "b_hi": 0.5, "x_grid": [-1.0, 0.0]}}
        out = tmp_path / "stop.csv"
        assert main(["stop", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert abs(float(report["b_star"]) - 6.00003e-6) <= 1e-10
        assert report["verified"] == "True" and report["methods_agree"] == "True"

    def test_simulate_still_runs(self, tmp_path):
        # The Monte Carlo oracle is right for b < 0, which a later route
        # needs; its overshoot given the phase is not PH(Q, e_i) there, so
        # the KS rows are nan.
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["problem"] = {"b": -0.5, "x": -3.0}
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--paths", "2000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        cells = {(q, int(p)): [float(v), float(se)] for q, p, v, se in rows}
        for i in (1, 2):
            assert np.isfinite(cells[("phi", i)]).all()
            assert np.isnan(cells[("overshoot_ks", i)]).all()


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, M2_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_estimates_match_passage(self, tmp_path):
        cfg = write_config(tmp_path, M2_CONFIG)
        sim_out = tmp_path / "sim.csv"
        pas_cfg = json.loads(json.dumps(M2_CONFIG))
        pas_out = tmp_path / "pas.csv"
        main(["simulate", "--config", cfg, "--out", str(sim_out)])
        main(["passage", "--config", write_config(tmp_path, pas_cfg, "p.json"),
              "--out", str(pas_out)])
        _, sim_rows = read_csv(sim_out)
        _, pas_rows = read_csv(pas_out)
        analytic = [float(pas_rows[0][1]), float(pas_rows[0][2])]
        for i in (1, 2):
            row = [r for r in sim_rows if r[0] == "phi" and r[1] == str(i)][0]
            mean, se = float(row[2]), float(row[3])
            assert abs(mean - analytic[i - 1]) < 3 * se

    def test_censoring_reported(self, tmp_path, engine_m2):
        cfg = write_config(tmp_path, M2_CONFIG)
        out = tmp_path / "c.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        frac = float([r for r in rows if r[0] == "censored_fraction"][0][2])
        # engine_m2 is the model of M2_CONFIG.
        mc = M2_CONFIG["mc"]
        censored = simulate_paths(engine_m2.model, 0.0, 1.0, mc["n_paths"], mc["seed"])[4]
        assert frac == censored.mean()
        # The censoring rate of this model is about 6.5e-6, so 1e-4 needs
        # at least 11 censored paths where 0.65 are expected.
        assert frac <= 1e-4

    def test_json_rows_in_column_order(self, tmp_path):
        cfg = write_config(tmp_path, M2_CONFIG)
        out = tmp_path / "s.json"
        assert main(["simulate", "--config", cfg, "--paths", "20000", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["quantity", "phase", "value", "stderr"]
        assert [row[:2] for row in payload["rows"]] == [
            ["phi", 1], ["phi", 2], ["overshoot_ks", 1], ["overshoot_ks", 2],
            ["joint", 0], ["censored_fraction", 0],
        ]
        for quantity, phase, value, stderr in payload["rows"]:
            assert type(phase) is int
            assert isinstance(value, float) and isinstance(stderr, float)

    def test_json_output_is_strict_json(self, tmp_path):
        # With two paths and seed 1 no path crosses in phase 2, so its KS
        # statistic is NaN: JSON has no such token, and the cell is null.
        # The CSV table still writes nan.
        cfg = write_config(tmp_path, M2_CONFIG)
        out_json, out_csv = tmp_path / "s.json", tmp_path / "s.csv"
        argv = ["simulate", "--config", cfg, "--paths", "2", "--seed", "1"]
        assert main([*argv, "--format", "json", "--out", str(out_json)]) == 0
        assert main([*argv, "--out", str(out_csv)]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out_json.read_text(), parse_constant=reject)
        _, csv_rows = read_csv(out_csv)
        for row, csv_row in zip(payload["rows"], csv_rows, strict=True):
            assert [str(cell) for cell in row[:2]] == csv_row[:2]
            for cell, text in zip(row[2:], csv_row[2:]):
                assert cell == float(text) if cell is not None else text == "nan"
        assert ["overshoot_ks", 2, None] in [row[:3] for row in payload["rows"]]

    def test_no_partial_file_on_bad_path(self, tmp_path):
        cfg = write_config(tmp_path, M2_CONFIG)
        missing = tmp_path / "nodir" / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(missing)]) == 2
        assert not missing.exists()

    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_no_paths_rejected(self, tmp_path, capsys, paths):
        cfg = write_config(tmp_path, M2_CONFIG)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--paths", paths,
                     "--out", str(out)]) == 2
        assert "--paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mc, flags, shown", [
        ({}, ["--paths", str(10**30)], str(10**30)),
        ({}, ["--paths", str(2**63)], str(2**63)),
        ({"n_paths": 1e30}, [], str(int(1e30))),
    ])
    def test_huge_paths_rejected(self, tmp_path, capsys, mc, flags, shown):
        # Rejected before any array or RNG substream is made.
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["mc"].update(mc)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        longest = np.iinfo(np.intp).max
        assert captured.err == (f"error: --paths (mc.n_paths) must be at most {longest}, "
                                f"the largest array length, got {shown}\n")
        assert not out.exists()

    def test_single_path_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M2_CONFIG)
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--paths", "1",
                         "--out", str(out)]) == 2
        assert "--paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mc, flags, field", [
        ({"workers": 0}, [], "mc.workers"),
        ({"workers": -2}, [], "mc.workers"),
        ({}, ["--workers", "0"], "--workers"),
        ({"max_steps": 0}, [], "mc.max_steps"),
        ({"seed": -1}, [], "mc.seed"),
        ({}, ["--seed", "-1"], "--seed"),
        ({"n_paths": 1000.7}, [], "mc.n_paths"),
        ({"seed": 1.5}, [], "mc.seed"),
        ({"workers": 2.5}, [], "mc.workers"),
        ({"max_steps": 10.5}, [], "mc.max_steps"),
    ])
    def test_bad_mc_settings_rejected(self, tmp_path, capsys, mc, flags, field):
        # Unchecked, these run serially, censor every path, are truncated by
        # int() or reach numpy's own seed check.
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["mc"].update(mc)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--paths", "1000", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "ValueError" not in err
        assert not out.exists()

    def test_traced_peak_per_path(self, tmp_path):
        # 300,000 m2 paths on one worker peaked at 63.1 traced bytes per
        # path with int64 phase labels, crossing index lists, a stored
        # rho^tau array and a sorted copy in each KS test; without them,
        # at 39.3.
        n = 300_000
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["mc"].update(n_paths=n, workers=1)
        argv = ["simulate", "--config", write_config(tmp_path, payload),
                "--out", str(tmp_path / "s.csv")]
        assert traced_peak(argv) / n < 48.0

    def test_traced_peak_per_path_m6_two_workers(self, tmp_path):
        # A million m6 paths at two workers peaked near 38 traced bytes per
        # path with a 26-byte record (int64 tau, a stored overshoot and
        # censored flag) and whole-sample KS arrays; the 11-byte record,
        # block-wise rho^tau gathers and KS slices hold it near 21.
        n = 1_000_000
        payload = json.loads((GOLDEN / "simulate-m6-coxian-exp.json").read_text())
        payload["mc"].update(n_paths=n, workers=2)
        argv = ["simulate", "--config", write_config(tmp_path, payload),
                "--out", str(tmp_path / "s.csv")]
        assert traced_peak(argv) / n <= 28.0

    def test_integral_float_mc_settings_accepted(self, tmp_path):
        payload = json.loads(json.dumps(M2_CONFIG))
        payload["mc"].update(n_paths=2000.0, seed=7.0, workers=1.0, max_steps=40.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", write_config(tmp_path, payload, "a.json"),
                     "--out", str(a)]) == 0
        payload["mc"].update(n_paths=2000, seed=7, workers=1, max_steps=40)
        assert main(["simulate", "--config", write_config(tmp_path, payload, "b.json"),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_default_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        text = capsys.readouterr().out
        assert text.count("PASS") == 7
        assert "FAIL" not in text

    def test_only_filter(self, capsys):
        assert main(["validate", "--only", "qbinomial"]) == 0
        text = capsys.readouterr().out
        assert len([ln for ln in text.splitlines() if "residual=" in ln]) == 1

    def test_unknown_check_rejected(self):
        assert main(["validate", "--only", "nonsense"]) == 2

    def test_laplace_id_catches_perturbed_factors(self, monkeypatch, capsys):
        # Each E(e^{uZ}) factor off by 1e-8 u moves e^{phi(u)} by about
        # 2e-8 u, which the closed-form product must see.
        exp_psi = TransformEngine.exp_psi
        monkeypatch.setattr(
            TransformEngine, "exp_psi", lambda engine, u: exp_psi(engine, u) * (1.0 + 1e-8 * u)
        )
        assert main(["validate", "--only", "laplace_id"]) == 1
        text = capsys.readouterr().out
        assert text.startswith("laplace_id: residual=1.8") and "FAIL" in text

    def test_tampered_tolerance_fails_controlled(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tolerances": {"harm1": 1e-30}})
        assert main(["validate", "--config", cfg]) == 1
        text = capsys.readouterr().out
        assert "harm1" in text and "FAIL" in text

    def test_misspelled_tolerance_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tolerances": {"harm_1": 1e-30}})
        assert main(["validate", "--only", "harm1", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown check 'harm_1' in tolerances; available: "
            "laplace_id, qbinomial, harm1, harm2, harm3, m1_equiv, derivative\n"
        )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_invalid_tolerance_exits_2(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, {"tolerances": {"harm1": tol}})
        assert main(["validate", "--only", "harm1", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerances.harm1 must be finite and nonnegative, got {tol}\n"
