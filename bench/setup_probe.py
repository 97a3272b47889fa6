"""Set-up probe, run in a fresh interpreter by run.py:

    python3 bench/setup_probe.py CONFIG [--trace]

Imports arphase.cli, runs load_config on CONFIG and builds a
TransformEngine, the work every CLI invocation pays before its command.
Prints one JSON line with the seconds of each step.  With --trace the
phase-type validation inside load_config is timed as well.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import arphase.cli as cli  # noqa: E402

t1 = perf_counter()
validate_s = 0.0
if "--trace" in sys.argv:
    _validate = cli.ph_validate

    def _timed_validate(*args, **kwargs):
        global validate_s
        start = perf_counter()
        try:
            return _validate(*args, **kwargs)
        finally:
            validate_s += perf_counter() - start

    cli.ph_validate = _timed_validate
cfg = cli.load_config(sys.argv[1])
t2 = perf_counter()
cli.TransformEngine(cfg.model)
t3 = perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "config_s": t2 - t1,
    "validate_s": validate_s,
    "engine_build_s": t3 - t2,
}))
