"""CLI outputs pinned byte for byte: stdout and the --out table of eleven
small configs, five passage, two stop and four simulate.  The simulate
files (m2, the two-phase chain with point-mass T, the m6 Coxian; workers 2)
pin the Monte Carlo sampler's draws to the bit.  Two configs,
passage-chain2-json and simulate-m2-json, set "output": {"format": "json"}
and pin the JSON table; the others pin the CSV one.

Each tests/golden/NAME.json is run as `arphase COMMAND --config NAME.json
--out FILE`, COMMAND being the part of NAME before the first '-'; NAME.stdout
and NAME.out hold what that printed and wrote when the files were made.
A change that is meant to keep every number must keep these bytes."""

import contextlib
import io
from pathlib import Path

import pytest

from arphase.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.json"))


def test_cases_present():
    assert len(CASES) == 11
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
