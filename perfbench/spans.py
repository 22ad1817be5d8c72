"""Spans around cycfred's public functions, recorded from outside the package.

A Tracer replaces each traced function by a timing wrapper in every cycfred
namespace that binds it: a function imported by name into another module
(``chern.hochschild_b``, ``dga.unit_basis_index``, ``cli.load_json``) is
bound there too, and calls made from inside the package go through that
binding.  Each span records its name, start, end, parent span and operation
id; spans stay in memory until ``dump``.  A span's self time is its duration
minus the durations of its child spans (calls nest, so children never
overlap).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = (
    ("algebra", "unit_basis_index"),
    ("algebra", "validate_algebra"),
    ("fredholm", "validate_module"),
    ("fredholm", "index_cocycle"),
    ("fredholm", "perturb"),
    ("cyclic", "hochschild_b"),
    ("cyclic", "connes_B"),
    ("cyclic", "total_coboundary"),
    ("dga", "differential"),
    ("dga", "word_multiply"),
    ("dga", "pi_represent"),
    ("chern", "chain_mul"),
    ("chern", "chern_component_tensor"),
    ("chern", "boundary_cycle_chern"),
    ("chern", "witness_cochain"),
    ("pairing", "mult_char_exponentials"),
    ("pairing", "antisym_cycle"),
    ("pairing", "chern_pairing"),
    ("serialize", "load_json"),
    ("serialize", "module_from_json"),
    ("serialize", "dump_json"),
)

ROOT_SPAN = "cli"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED if f != "chern_component_tensor") + (
    "chern.chern_component_tensor.k0", "chern.chern_component_tensor.k1plus",
    "chern.PerturbationChain", ROOT_SPAN)
COUNTERS = ("chern.chain_terms", "cyclic.max_tensor_entries",
            "serialize.bytes_in", "serialize.bytes_out")


def is_count(metric: str) -> bool:
    """Counts repeat exactly from run to run; times do not."""
    return metric.endswith(".calls") or metric in COUNTERS


def _tensor_entries(result) -> int:
    if hasattr(result, "components"):
        return max((c.size for c in result.components), default=0)
    return result.values.size


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.counters = Counter()
        self._stack = []
        self._op = None
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def operation(self, op_id: str, fn, *args):
        """Run one operation under a root span; the root's self time is the
        part of the operation no layer span covers."""
        self._op = op_id
        idx = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = None

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- counters at layer boundaries ------------------------------------------

    def _count_terms(self, args, result):
        self.counters["chern.chain_terms"] += len(result.terms)

    def _count_entries(self, args, result):
        key = "cyclic.max_tensor_entries"
        self.counters[key] = max(self.counters[key], _tensor_entries(result))

    def _count_bytes_in(self, args, result):
        self.counters["serialize.bytes_in"] += os.path.getsize(args[0])

    def _count_bytes_out(self, args, result):
        self.counters["serialize.bytes_out"] += os.path.getsize(args[1])

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function at every cycfred binding of it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cycfred" or key.startswith("cycfred.")]
        after = {"chern.chain_mul": self._count_terms,
                 "serialize.load_json": self._count_bytes_in,
                 "serialize.dump_json": self._count_bytes_out}
        for modname, fname in TRACED:
            name = f"{modname}.{fname}"
            orig = getattr(sys.modules[f"cycfred.{modname}"], fname)
            hook = after.get(name, self._count_entries if modname == "cyclic" else None)
            label = _component_label if fname == "chern_component_tensor" else name
            wrapper = self._wrap(orig, label, hook)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is orig]:
                    self._undo.append((module, key, orig))
                    setattr(module, key, wrapper)
        cls = sys.modules["cycfred.chern"].PerturbationChain
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(cls.__init__, "chern.PerturbationChain")

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- derived metrics -------------------------------------------------------

    def summary(self) -> dict:
        """calls, self time and total time per span name, plus the counters;
        a span never entered reads 0 calls and 0 s."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter(dict.fromkeys(SPAN_NAMES, 0))
        self_s, total_s = defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.name):
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += duration - child[i]
            total_s[name] += duration
        out = {key: self.counters[key] for key in COUNTERS}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.s"] = total_s[name]
        return out

    def dump(self, path):
        """Write the spans as columns, with start and end relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        ops = sorted({o for o in self.op if o is not None})
        op_index = {o: i for i, o in enumerate(ops)}
        data = {
            "names": names,
            "operations": ops,
            "name": [index[n] for n in self.name],
            "start_s": [round(s - t0, 9) for s in self.start],
            "end_s": [round(e - t0, 9) for e in self.end],
            "parent": self.parent,
            "operation": [op_index.get(o, -1) for o in self.op],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _component_label(args, kwargs) -> str:
    k = kwargs["k"] if "k" in kwargs else args[1]
    return "chern.chern_component_tensor." + ("k0" if k == 0 else "k1plus")
