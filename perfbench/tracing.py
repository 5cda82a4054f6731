"""Spans recorded from outside latsec, around calls into each layer.

Tracer.install() replaces each target callable wherever callers look its
name up: every latsec module attribute bound to the function, or the class
attribute for a method. Each call records a span (name, start, end,
parent) in memory. Self time is a span's duration minus the time its child
spans cover. A target that no longer exists is skipped and reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# metric prefix -> "module:attribute path" under the latsec package
TARGETS = (
    ("lattices.mod_coarse", "lattices:ConstructionALattice.mod_coarse"),
    ("lattices.quantize_fine", "lattices:ConstructionALattice.quantize_fine"),
    ("lattices.ConstructionALattice.init", "lattices:ConstructionALattice.__init__"),
    ("cvp.NearestPointSolver.nearest", "cvp:NearestPointSolver.nearest"),
    ("codebooks.enumerate_codebook", "codebooks:enumerate_codebook"),
    ("codebooks.scale_to_power", "codebooks:scale_to_power"),
    ("infotheory.sum_structure", "infotheory:sum_structure"),
    ("infotheory.joint_bin_sum", "infotheory:joint_bin_sum"),
    ("infotheory.weighted_sum_counts", "infotheory:weighted_sum_counts"),
    ("infotheory.entropy_from_counts", "infotheory:entropy_from_counts"),
    ("channel.trial_rng", "channel:trial_rng"),
    ("channel.transmit", "channel:transmit"),
    ("channel.dithered_round", "channel:dithered_round"),
    ("channel.decode_weak", "channel:decode_weak"),
    ("channel.decode_very_strong_batch", "channel:decode_very_strong_batch"),
    ("channel.decode_layered", "channel:decode_layered"),
    ("experiments.run_lemma_suite", "experiments:run_lemma_suite"),
    ("experiments.run_theorem1_suite", "experiments:run_theorem1_suite"),
    ("experiments.run_loopback_suite", "experiments:run_loopback_suite"),
    ("experiments.weak_reliability", "experiments:weak_reliability"),
    ("experiments.layered_reliability", "experiments:layered_reliability"),
    ("experiments.engineered_gain", "experiments:engineered_gain"),
    ("experiments.noiseless_loopback", "experiments:noiseless_loopback"),
    ("cli.run", "cli:run"),
    ("cli.render", "cli:render"),
)

# layers whose time including their children is reported as well
INCLUSIVE = ("codebooks.scale_to_power",)
# layers whose arguments or results carry a work count
_ROWS = ("channel.decode_weak", "channel.decode_very_strong_batch", "channel.decode_layered")


def _rows(y) -> int:
    """Rows in a decoder input: a batch (2-D array or list of rows) or one vector."""
    if isinstance(y, np.ndarray):
        return int(y.shape[0]) if y.ndim == 2 else 1
    if isinstance(y, (list, tuple)) and y and isinstance(y[0], (list, tuple, np.ndarray)):
        return len(y)
    return 1


def _content_key(value):
    """Hashable key equal for equal contents, whatever the container."""
    value = getattr(value, "points", value)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_content_key(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _lattice_key(lat):
    return _content_key(
        tuple(getattr(lat, a, None) for a in ("p", "code_matrix", "transform", "scale"))
    )


class Tracer:
    def __init__(self):
        self.names = [name for name, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []
        self.points = 0
        self.pairs = 0
        self.rows = dict.fromkeys(_ROWS, 0)
        self.render_bytes = 0
        self._lattices = []
        self._pair_args = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        for nid, (name, where) in enumerate(TARGETS):
            modname, _, path = where.partition(":")
            try:
                module = importlib.import_module("latsec." + modname)
            except ImportError:
                continue
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(nid, name, original)
            if owner is module:
                for loaded, mod in list(sys.modules.items()):
                    if loaded == "latsec" or loaded.startswith("latsec."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._undo.append((mod, key, original))
                                setattr(mod, key, wrapper)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, nid, name, fn):
        stack, start, end = self._stack, self.start, self.end
        names, parents = self.name, self.parent
        clock = time.perf_counter
        note = self._note(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(args + tuple(kwargs.values()), result)
            return result

        return traced

    # ------------------------------------------------------------------
    # work counts: kept cheap here, keys are built in summary()

    def _note(self, name):
        if name == "codebooks.enumerate_codebook":
            def note(args, result):
                self.points += len(result)
                self._lattices.append(args[0])
            return note
        if name == "infotheory.sum_structure":
            def note(args, result):
                a, b = args[:2]
                self.pairs += len(getattr(a, "points", a)) * len(getattr(b, "points", b))
                self._pair_args.append((a, b))
            return note
        if name in _ROWS:
            def note(args, result):
                self.rows[name] += _rows(args[0])
            return note
        if name == "cli.render":
            def note(args, result):
                self.render_bytes += len(result.encode())
            return note
        return None

    # ------------------------------------------------------------------
    # results

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the work counts, over all spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(self_s[i])
            if n in INCLUSIVE:
                out[f"{n}.total_s"] = float(total_s[i])
        out["codebooks.enumerate_codebook.points"] = self.points
        out["codebooks.enumerate_codebook.distinct"] = len({_lattice_key(x) for x in self._lattices})
        out["infotheory.sum_structure.pairs"] = self.pairs
        out["infotheory.sum_structure.distinct"] = len(
            {(_content_key(a), _content_key(b)) for a, b in self._pair_args}
        )
        for n, rows in self.rows.items():
            out[f"{n}.rows"] = rows
        out["cli.render.bytes"] = self.render_bytes
        out["spans"] = len(dur)
        return out
