"""Span tracing around calls into the package's modules, installed from outside.

Each target is a public function of one module (the layer). Installing a
target replaces every name in the package's loaded modules that is bound to
the function, so calls through a caller's own namespace (`from .rcn import
layer_error_power`) are traced too; a method is replaced on its class. A
target that no longer exists is reported as absent instead of failing the run.

Spans (name, start, end, parent span, op id) are kept in flat in-memory
arrays, timed with integer nanoseconds so that nesting and self time are
exact, and written out once when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_transmit(counts, args, kwargs, result):
    counts["multilayer.transmit.frames"] += result.x.shape[0]


def _count_receive(counts, args, kwargs, result):
    y = np.atleast_2d(_arg(args, kwargs, 0, "y"))
    layers = len(_arg(args, kwargs, 1, "config").layers)
    counts["multilayer.receive.layers"] += layers
    counts["multilayer.receive.layer_frames"] += layers * y.shape[0]


def _count_real_ifft(counts, args, kwargs, result):
    counts["numerics.real_ifft.elems"] += np.size(_arg(args, kwargs, 0, "X"))


def _count_detect(counts, args, kwargs, result):
    counts["constellation.detect.symbols"] += np.size(_arg(args, kwargs, 1, "obs"))


def _count_layer_error_power(counts, args, kwargs, result):
    counts["rcn.layer_error_power.bins"] += np.size(result)


def _count_allocate(counts, args, kwargs, result):
    counts["allocate.iterations"] += result.iterations


# (layer.function, module, qualified name in the module, counter or None)
TARGETS = (
    ("channel.run_point", "oofdm.channel", "run_point", None),
    ("channel.post_eq_noise", "oofdm.channel", "post_eq_noise", None),
    ("multilayer.transmit", "oofdm.multilayer", "transmit", _count_transmit),
    ("multilayer.receive", "oofdm.multilayer", "receive", _count_receive),
    ("numerics.real_ifft", "oofdm.numerics", "real_ifft", _count_real_ifft),
    ("numerics.hermitian_embed", "oofdm.numerics", "hermitian_embed", None),
    ("constellation.detect", "oofdm.constellation", "Constellation.detect", _count_detect),
    ("constellation.detection_error_power", "oofdm.constellation",
     "detection_error_power", None),
    ("modems.clip", "oofdm.modems", "clip", None),
    ("rcn.layer_error_power", "oofdm.rcn", "layer_error_power", _count_layer_error_power),
    ("rcn.worst_case_noise", "oofdm.rcn", "worst_case_noise", None),
    ("ser.evaluate_ser", "oofdm.ser", "evaluate_ser", None),
    ("allocate.allocate", "oofdm.allocate", "allocate", _count_allocate),
    ("allocate.waterfill", "oofdm.allocate", "waterfill", None),
)
COUNTS = ("multilayer.transmit.frames", "multilayer.receive.layers",
          "multilayer.receive.layer_frames", "numerics.real_ifft.elems",
          "constellation.detect.symbols", "rcn.layer_error_power.bins",
          "allocate.iterations")


def _resolve(module: str, qualname: str):
    """(owner, attribute, object) for a target, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    """Records spans and counts for the targets while installed (a context
    manager). Set `op_id` before each op so its spans share the identifier."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [t[0] for t in targets]
        self.absent = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.start = array("q")
        self.end = array("q")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self._undo = []

    def _wrap(self, tid: int, fn, counter):
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name_id.append(tid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        self.absent = []
        for tid, (name, module, qualname, counter) in enumerate(self.targets):
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(tid, fn, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "oofdm" and not mod_name.startswith("oofdm."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        return False

    def spans(self) -> dict:
        """The recorded spans as arrays (times in ns)."""
        return {"name": np.array(self.names), "name_id": np.array(self.name_id, np.int32),
                "start_ns": np.array(self.start, np.int64),
                "end_ns": np.array(self.end, np.int64),
                "parent": np.array(self.parent, np.int32),
                "op": np.array(self.op, np.int32)}

    def self_ns(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        return _self_ns(self.spans())

    def metrics(self) -> dict:
        """`<layer>.<function>.calls|.s|.self_s`, the counts, and their ratios."""
        sp = self.spans()
        k = len(self.names)
        dur = sp["end_ns"] - sp["start_ns"]
        calls = np.bincount(sp["name_id"], minlength=k)
        incl = np.bincount(sp["name_id"], weights=dur, minlength=k) * 1e-9
        own = np.bincount(sp["name_id"], weights=_self_ns(sp), minlength=k) * 1e-9
        out = {}
        for tid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[tid])
            out[f"{name}.s"] = float(incl[tid])
            out[f"{name}.self_s"] = float(own[tid])
        out.update(self.counts)
        out["rcn.dedupe_ratio"] = _ratio(out.get("constellation.detection_error_power.calls", 0),
                                         self.counts["rcn.layer_error_power.bins"])
        out["constellation.detect.calls_per_layer"] = _ratio(
            out.get("constellation.detect.calls", 0), self.counts["multilayer.receive.layers"])
        out["trace.spans"] = int(len(sp["start_ns"]))
        return out


def _self_ns(sp: dict) -> np.ndarray:
    dur = sp["end_ns"] - sp["start_ns"]
    own = dur.copy()
    child = sp["parent"] >= 0
    np.subtract.at(own, sp["parent"][child], dur[child])
    return own


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
