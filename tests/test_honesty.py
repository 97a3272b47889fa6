"""The honesty map: at fixed points, Phi from the passage entry
(crossing_transform) lies within its own error_bound of a reference.

tests/data/honesty.json holds 30-digit mpref values on m2 at b = 1 and
x in {0, -2} for lambda in {0.6, ..., 0.95} and rho in {0.3, 0.5, 0.8},
and the far-left anchors; tests/honesty.py wrote it, and its points are
never re-chosen.  Beyond lambda 0.95 mpref needs 60 digits, so the values
there are pinned constants (ROADMAP item 5)."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from arphase import AR1Model, Innovation, NegativePart, ResidueSystem, SingularSystemError
from arphase import TransformEngine, crossing_transform, validate

DATA = json.loads((Path(__file__).parent / "data" / "honesty.json").read_text(encoding="utf-8"))

# m2 at lambda = rho = 0.99, b = 1, x = 0: mpref at 60 digits with CUT 1e-35
# (at 30 digits it gives Phi = (-0.180, 1.160)), matched to 1.9e-15 by a
# Nystrom solve that shares no code with the package.  At 0.97, 30 and 60
# digits agree to the 8 digits given, so the constant carries 5e-9 of its own.
PINNED = {0.99: ((0.6085320450774181, 0.3625356183330076), 0.0),
          0.97: ((0.58067341, 0.33381170), 5e-9)}


def _engine(model, lam, rho):
    dist = DATA["models"][model]
    inn = Innovation(validate(dist["Q"], dist["alpha"]), NegativePart.zero())
    return TransformEngine(AR1Model(lam, rho, inn))


def test_map_is_complete():
    cells = {(p["lambda"], p["rho"]) for p in DATA["points"] if p["model"] == "m2" and p["x"] in (0.0, -2.0)}
    assert cells == set(itertools.product((0.6, 0.7, 0.8, 0.85, 0.9, 0.95), (0.3, 0.5, 0.8)))
    assert len(DATA["points"]) == 38


def test_every_point_within_its_error_bound():
    key = lambda p: (p["model"], p["lambda"], p["rho"], p["b"])  # noqa: E731
    worst = 0.0
    for (model, lam, rho, b), group in itertools.groupby(sorted(DATA["points"], key=key), key):
        group = list(group)
        ct = crossing_transform(_engine(model, lam, rho), b, np.array([p["x"] for p in group]))
        error = np.abs(ct.phi_vec - [p["phi"] for p in group]).max(axis=1)
        assert np.all(error <= ct.error_bound), (model, lam, rho, error, ct.error_bound)
        worst = max(worst, float((error / ct.error_bound).max()))
    assert worst <= 1.0


@pytest.mark.parametrize("lam", sorted(PINNED))
def test_high_lambda_anchor_against_the_pinned_value(lam):
    # The residue system is singular there; the Nystrom route answers.
    engine = _engine("m2", lam, lam)
    with pytest.raises(SingularSystemError):
        ResidueSystem(engine, 1.0)
    want, digits = PINNED[lam]
    ct = crossing_transform(engine, 1.0, np.array([0.0]))
    assert ct.phi_vec.shape == (1, 2)
    assert np.abs(ct.phi_vec[0] - want).max() <= ct.error_bound + digits
    assert ct.error_bound < 1e-11


def test_wide_domain_at_lam_099():
    # Starts down to x = -20 widen the domain to [-20, 1]; the solve still
    # settles (by 64 nodes) and keeps the anchor.
    ct = crossing_transform(_engine("m2", 0.99, 0.99), 1.0, np.array([-20.0, 0.0]))
    assert np.abs(ct.phi_vec[1] - PINNED[0.99][0]).max() <= ct.error_bound < 1e-10
