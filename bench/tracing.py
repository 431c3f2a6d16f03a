"""Span recorder around the program's public functions.

``Tracer.install`` rebinds each traced function, in every ``nongauss``
module that holds it, to a wrapper that records a span: name, start, end,
parent span and operation id.  Rebinding the name inside the calling module
(``expansion.differentiate``, ``pricing.integrate_payoff_with_stats``, ...)
is what makes calls between the program's own modules visible; no file of
the program changes.  ``uninstall`` restores the originals.  Spans stay in
memory until ``write``.

Self time is a span's duration minus the durations of its direct children.
Durations are multiplied by the host-speed scale of their operation (see
``run.py``), as are all times the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, function, span name, counter of work done by one call)
TARGETS = (
    ("symbolic", "differentiate", "symbolic.differentiate", None),
    ("symbolic", "merge_terms", "symbolic.merge_terms",
     lambda args, out: (len(args[0].terms), len(out.terms))),
    ("symbolic", "evaluate", "symbolic.evaluate", lambda args, out: (np.size(out), 0)),
    ("symbolic", "integrate_payoff_with_stats", "symbolic.integrate_payoff",
     lambda args, out: (out[1]["n_evals"], 0)),
    ("symbolic", "substitute_barrier", "symbolic.substitute_barrier", None),
    ("moving_barrier", "pi_mb_terms", "moving_barrier.pi_mb_terms", None),
    ("expansion", "barrier_terms", "expansion.barrier_terms", lambda args, out: (len(out.terms), 0)),
    ("expansion", "vanilla_terms", "expansion.vanilla_terms", None),
    ("martingale", "solve_drift", "martingale.solve_drift", None),
    ("martingale", "drift_from_series", "martingale.drift_from_series", None),
    ("pricing", "price_kuo_call", "pricing.price_kuo_call", None),
    ("pricing", "price_kuo_put", "pricing.price_kuo_put", None),
    ("pricing", "price_vanilla", "pricing.price_vanilla", None),
    ("pricing", "negative_mass", "pricing.negative_mass", None),
    ("calibration", "fit_parameters", "calibration.fit_parameters", lambda args, out: (out[1].n_evals, 0)),
    ("calibration", "implied_vol", "calibration.implied_vol", None),
    ("calibration", "bl_density", "calibration.bl_density", None),
    ("calibration", "synthetic_slice", "calibration.synthetic_slice", None),
)
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.n1: list[float] = []
        self.n2: list[float] = []
        self.stack: list[int] = []
        self.current_op = -1
        self.op_scale: dict[int, float] = {}  # op id -> host-speed scale of its times
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = []
        for mod_name, attr, span, counter in TARGETS:
            mod = sys.modules[f"nongauss.{mod_name}"]
            original = getattr(mod, attr)
            self._wrappers.append((original, self._wrap(original, span, counter)))

    # ---- recording ---- #

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.n1.append(0.0)
        self.n2.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span: str, counter):
        nid = len(self.names)
        self.names.append(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if counter is not None:
                tracer.n1[i], tracer.n2[i] = counter(args, out)
            return out

        return wrapper

    def begin(self, op_id: int) -> None:
        """Open the root span of operation ``op_id`` (-1 marks set-up)."""
        self.current_op = op_id
        self.active = True
        self._root = self._open(0)

    def finish(self) -> None:
        self._close(self._root)
        self.active = False

    # ---- rebinding ---- #

    def install(self) -> None:
        originals = {id(orig): wrapper for orig, wrapper in self._wrappers}
        for name, mod in list(sys.modules.items()):
            if name == "nongauss" or name.startswith("nongauss."):
                for attr, value in list(vars(mod).items()):
                    wrapper = originals.get(id(value))
                    if wrapper is not None:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # ---- results ---- #

    def arrays(self) -> dict[str, np.ndarray]:
        a = {
            "name": np.array(self.name_id, dtype=int),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=int),
            "op": np.array(self.op, dtype=int),
            "n1": np.array(self.n1),
            "n2": np.array(self.n2),
        }
        scale = np.array([self.op_scale.get(op, 1.0) for op in range(-1, max(self.op, default=-1) + 1)])
        a["dur"] = (a["end"] - a["start"]) * scale[a["op"] + 1]
        child = np.zeros(len(a["dur"]))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], a["dur"][has_parent])
        a["self"] = a["dur"] - child
        return a

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation means over traced operations, plus set-up figures."""
        a = self.arrays()
        nid = {name: i for i, name in enumerate(self.names)}
        timed = a["op"] >= 0
        n_ops = max(1, int(np.sum(timed & (a["name"] == 0))))

        def sel(span: str, which=timed) -> np.ndarray:
            return which & (a["name"] == nid[span])

        def per_op(values: np.ndarray) -> float:
            return float(np.sum(values)) / n_ops

        def cold(span: str) -> int:
            # a cold call built its derivative table: it has a differentiate child
            builders = set(a["parent"][sel("symbolic.differentiate")].tolist())
            return sum(1 for i in np.flatnonzero(sel(span)) if i in builders)

        m: dict[str, float] = {}
        for span in self.names[1:]:
            s = sel(span)
            m[f"{span}.calls"] = per_op(s)
            m[f"{span}.ms"] = per_op(a["dur"][s]) * 1e3
            m[f"{span}.self_ms"] = per_op(a["self"][s]) * 1e3
        m["symbolic.merge_terms.terms_in"] = per_op(a["n1"][sel("symbolic.merge_terms")])
        m["symbolic.merge_terms.terms_out"] = per_op(a["n2"][sel("symbolic.merge_terms")])
        m["symbolic.evaluate.points"] = per_op(a["n1"][sel("symbolic.evaluate")])
        m["symbolic.integrate_payoff.integrand_evals"] = per_op(a["n1"][sel("symbolic.integrate_payoff")])
        m["expansion.barrier_terms.terms_out"] = per_op(a["n1"][sel("expansion.barrier_terms")])
        for span in ("expansion.barrier_terms", "expansion.vanilla_terms"):
            calls = int(np.sum(sel(span)))
            n_cold = cold(span)
            m[f"{span}.cold_calls"] = n_cold / n_ops
            m[f"{span}.hit_ratio"] = (calls - n_cold) / calls if calls else 0.0
        fits = sel("calibration.fit_parameters")
        evals = float(np.sum(a["n1"][fits]))
        m["calibration.fit_parameters.objective_evals"] = per_op(a["n1"][fits])
        m["calibration.fit_parameters.ms_per_eval"] = float(np.sum(a["dur"][fits])) * 1e3 / evals if evals else 0.0
        synth = a["dur"][sel("calibration.synthetic_slice", a["op"] == -1)]
        m["calibration.synthetic_slice.ms"] = float(np.mean(synth)) * 1e3 if synth.size else 0.0
        m["op.unattributed_ms"] = per_op(a["self"][sel(OP)]) * 1e3
        m["op.traced"] = float(n_ops)
        return m

    def write(self, path: Path, metrics: dict) -> None:
        a = self.arrays()
        rows = np.column_stack([a["name"], a["start"], a["end"], a["parent"], a["op"], a["n1"], a["n2"]])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "metrics": metrics,
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent", "op", "n1", "n2"],
                    "spans": rows.tolist(),
                },
                fh,
            )
