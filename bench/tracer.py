"""Outside-in tracing of arphase: wrappers installed at every binding site.

Each wrapped call records a span (name, start, end, parent span, op id);
spans stay in memory until `write_spans`.  Two very hot methods,
TransformEngine.exp_phi and exp_psi, get counting wrappers without spans.
Nothing in the package is edited: `install` swaps module and class
attributes and `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, attribute path).  A function is wrapped wherever
# an arphase module binds it, e.g. cdf_vector in phasetype, montecarlo and cli.
SPAN_TARGETS = {
    "transforms.f_series": ("arphase.transforms", "TransformEngine.f_series_scalars"),
    "transforms.eta_residues": ("arphase.transforms", "TransformEngine.eta_residues"),
    "passage.system_build": ("arphase.passage", "ResidueSystem.__init__"),
    "passage.solve": ("arphase.passage", "ResidueSystem.solve"),
    "passage.overshoot": ("arphase.passage", "overshoot_expectation"),
    "quadrature.innovation": ("arphase.quadrature", "innovation_expectation"),
    "quadrature.ph": ("arphase.quadrature", "ph_expectation"),
    "stopping.psi_of": ("arphase.stopping", "psi_of"),
    "stopping.solve_exp_identity": ("arphase.stopping", "solve_threshold_exp_identity"),
    "stopping.solve_general": ("arphase.stopping", "solve_threshold_general"),
    "stopping.verify": ("arphase.stopping", "verify_solution"),
    "montecarlo.simulate": ("arphase.montecarlo", "simulate_paths"),
    "montecarlo.ks": ("arphase.montecarlo", "ks_statistic"),
    "phasetype.cdf_vector": ("arphase.phasetype", "cdf_vector"),
    "phasetype.validate": ("arphase.phasetype", "validate"),
    "cli.load_config": ("arphase.cli", "load_config"),
    "cli.render": ("arphase.cli", "render_table"),
    "cli.write": ("arphase.cli", "write_output"),
}
COUNT_TARGETS = {
    "transforms.exp_phi": ("arphase.transforms", "TransformEngine.exp_phi"),
    "transforms.exp_psi": ("arphase.transforms", "TransformEngine.exp_psi"),
}
ROOT = "op"
MODULES = ("cli", "transforms", "passage", "quadrature", "stopping", "montecarlo", "phasetype")


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT, *SPAN_TARGETS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.spans: list[tuple] = []          # (id, name_id, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, self._name_id[name], start, end, parent, self.op_id))

    def _span_wrapper(self, name: str, fn):
        prepare = {"quadrature.innovation": self._count_nodes, "quadrature.ph": self._count_nodes}.get(name)
        hook = {"passage.system_build": self._record_cond, "montecarlo.simulate": self._record_paths}.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapped

    # -- per-layer hooks -------------------------------------------------------

    def _record_cond(self, args, _):
        self.counts["passage.cond_max"] = max(self.counts["passage.cond_max"], args[0].cond)

    def _count_nodes(self, args):
        # args = (inn_or_dist, func, ...): count integrand points evaluated.
        func = args[1]

        def counted(z):
            self.counts["quadrature.nodes"] += np.size(z)
            return func(z)

        return (args[0], counted, *args[2:])

    def _record_paths(self, _, result):
        tau, _, _, _, censored = result
        self.counts["montecarlo.paths"] += tau.size
        self.counts["montecarlo.path_steps"] += int(tau.sum())
        self.counts["montecarlo.censored"] += int(censored.sum())

    def _exp_phi_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            before = self.counts["transforms.exp_psi_calls"]
            result = fn(*args, **kwargs)
            self.counts["transforms.exp_phi_calls"] += 1
            if self.counts["transforms.exp_psi_calls"] == before:
                self.counts["transforms.exp_phi_hits"] += 1
            return result

        return wrapped

    def _exp_psi_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts["transforms.exp_psi_calls"] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- install / uninstall ---------------------------------------------------

    def _bind_everywhere(self, module: str, path: str, wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        if "." in path:                       # a method: its class is the one binding site
            self._set(owner, attr, wrapper(original))
            return
        wrapped = wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "arphase" or mod_name.startswith("arphase."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import arphase.cli  # noqa: F401  (loads every module that binds a target)

        for name, (module, path) in SPAN_TARGETS.items():
            self._bind_everywhere(module, path, functools.partial(self._span_wrapper, name))
        self._bind_everywhere(*COUNT_TARGETS["transforms.exp_phi"], self._exp_phi_wrapper)
        self._bind_everywhere(*COUNT_TARGETS["transforms.exp_psi"], self._exp_psi_wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds and call counts per span name, self seconds per module."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = {m: 0.0 for m in MODULES}
        calls: dict[str, int] = defaultdict(int)
        for sid, nid, start, end, _, _ in self.spans:
            name = self.names[nid]
            inclusive[name] += end - start
            calls[name] += 1
            module = "cli" if name == ROOT else name.split(".")[0]
            self_s[module] += end - start - child_time[sid]
        return inclusive, calls, self_s

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, nid, start, end, parent, op in sorted(self.spans):
                fh.write(f"{sid},{self.names[nid]},{start:.9f},{end:.9f},{parent},{op}\n")
