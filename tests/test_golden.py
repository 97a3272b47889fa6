"""CLI outputs pinned byte for byte: stdout and the --out table of twelve
small configs, five passage, three stop and four simulate.  The simulate
files (m2, the two-phase chain with point-mass T, the m6 Coxian; workers 2)
pin the Monte Carlo sampler's draws to the bit.  Two configs,
passage-chain2-json and simulate-m2-json, set "output": {"format": "json"}
and pin the JSON table; the others pin the CSV one.  stop-m2-exp, m2 with
T ~ Exp(2), pins the continuous-T one-step quadrature through its
supermartingale margin.

Each tests/golden/NAME.json is run as `arphase COMMAND --config NAME.json
--out FILE`, COMMAND being the part of NAME before the first '-'; NAME.stdout
and NAME.out hold what that printed and wrote when the files were made.
A change that is meant to keep every number must keep these bytes.

The stop and passage files also carry their own reference, so a
regenerated file is checked against more than itself: each stop b_star
must bracket, to 1e-12, the root of the fit gap that mpref's 30-digit
residue solve gives, and each passage row must lie within its
error_bound of mpref's Phi at that x."""

import contextlib
import io
import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from mpref import Reference

from arphase.cli import RunConfig, main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.json"))
STOP_CASES = [name for name in CASES if name.startswith("stop-")]
PASSAGE_CASES = [name for name in CASES if name.startswith("passage-")]


def test_cases_present():
    assert len(CASES) == 12
    assert STOP_CASES == ["stop-chain2-point", "stop-m2-exp", "stop-m2-identity"]
    for name in CASES:
        assert (GOLDEN / f"{name}.stdout").exists() and (GOLDEN / f"{name}.out").exists()


@pytest.mark.parametrize("name", CASES)
def test_output_bytes(tmp_path, name):
    out = tmp_path / "table.out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([name.split("-")[0], "--config", str(GOLDEN / f"{name}.json"), "--out", str(out)])
    assert code == 0
    assert stdout.getvalue().encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def reference_fit_gap(cfg: dict, b: float):
    """Psi_{b-}(b) - b for the identity gain, read at x = b as the solver
    reads it: mpref's Phi(b-) times E(b + R^i) = b + e_i (-Q)^{-1} 1, at
    30 digits."""
    model = RunConfig.from_dict(cfg).model
    phi = Reference(model.inn).crossing(model.lam, model.rho, b, [b])[0]
    with mp.workdps(30):
        mean = mp.lu_solve(-mp.matrix(model.inn.s_part.Q.tolist()), mp.ones(len(phi), 1))
        return mp.fsum(p * (b + mean[i]) for i, p in enumerate(phi)) - b


@pytest.mark.parametrize("name", STOP_CASES)
def test_stop_threshold_is_the_reference_root(name):
    cfg = json.loads((GOLDEN / f"{name}.json").read_text())
    assert cfg["gain"]["variant"] == "identity"
    printed = (GOLDEN / f"{name}.stdout").read_text().splitlines()
    b_star = float(dict(line.split(" = ", 1) for line in printed)["b_star"])
    below, above = (reference_fit_gap(cfg, b_star + d) for d in (-1e-12, 1e-12))
    assert below > 0 > above, (below, above)


@pytest.mark.parametrize("name", PASSAGE_CASES)
def test_passage_rows_within_their_bound_of_the_reference(name):
    # Each row is x, Phi_1..Phi_m, E_x(rho^tau), error_bound, as CSV or JSON.
    cfg = json.loads((GOLDEN / f"{name}.json").read_text())
    text = (GOLDEN / f"{name}.out").read_text()
    if text.startswith("{"):
        rows = np.array(json.loads(text)["rows"], dtype=float)
    else:
        rows = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    model = RunConfig.from_dict(cfg).model
    ref = Reference(model.inn).crossing(model.lam, model.rho, cfg["problem"]["b"], rows[:, 0])
    got = rows[:, 1:-1]
    want = np.column_stack([ref, ref.sum(axis=1)])
    assert got.shape == want.shape
    error = np.abs(got - want).max(axis=1)
    assert (error <= rows[:, -1]).all(), (error / rows[:, -1]).max()
