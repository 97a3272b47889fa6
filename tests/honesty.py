"""Writes tests/data/honesty.json: 30-digit references for the crossing
transform Phi at fixed points, which test_honesty checks the package's
answer and its error_bound against.

    PYTHONPATH=src python tests/honesty.py

The points are m2 (hyperexponential(1, 3), weights (0.4, 0.6), T = 0,
b = 1) at x in {0, -2} on every (lambda, rho) cell of LAMS x RHOS, the
far-left anchor m2 at lambda 0.95, rho 0.5, x -10, and the far-left anchor
m1 (Exp(1), lambda = rho = 0.5, b = 1) at x = -60.  Each reference is
mpref's residue solve at DPS 30 and CUT 1e-20; at lambda <= 0.95 those
settings give the same floats as 60 digits with CUT 1e-35.  The points are
fixed: add new ones, never re-choose these.
"""

import json
from pathlib import Path

from mpref import CUT, DPS, Reference

from arphase import Innovation, NegativePart, validate

OUT = Path(__file__).parent / "data" / "honesty.json"
LAMS = (0.6, 0.7, 0.8, 0.85, 0.9, 0.95)
RHOS = (0.3, 0.5, 0.8)
MODELS = {
    "m2": ([[-1.0, 0.0], [0.0, -3.0]], [0.4, 0.6]),
    "m1": ([[-1.0]], [1.0]),
}


def points():
    """(model, lambda, rho, b, xs) for every cell and anchor."""
    cells = [("m2", lam, rho, 1.0, [0.0, -2.0]) for lam in LAMS for rho in RHOS]
    return cells + [("m2", 0.95, 0.5, 1.0, [-10.0]), ("m1", 0.5, 0.5, 1.0, [-60.0])]


def main():
    rows = []
    for name, lam, rho, b, xs in points():
        Q, alpha = MODELS[name]
        ref = Reference(Innovation(validate(Q, alpha), NegativePart.zero()))
        for x, phi in zip(xs, ref.crossing(lam, rho, b, xs)):
            rows.append({"model": name, "lambda": lam, "rho": rho, "b": b, "x": x,
                         "phi": [float(v) for v in phi]})
    payload = {"models": {k: {"Q": Q, "alpha": a} for k, (Q, a) in MODELS.items()},
               "reference": f"tests/mpref.py Reference.crossing at DPS {DPS}, CUT {CUT:g}",
               "points": rows}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
