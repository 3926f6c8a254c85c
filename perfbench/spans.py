"""Spans around the calls into linperm's layers, recorded from outside.

Each wrapped function records one span per call: its name, start, end and
the span that was open when it was called.  Spans are kept in memory in
flat arrays (24 bytes a span) and written out when the task ends.  Nothing
inside linperm changes: the wrappers replace the module attributes and
class methods that callers look up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (layer.name, module, attribute path) of every function that gets a span.
# Kernel calls are counted where other modules call through ``_kernel``;
# the kernel's calls to itself (inside ``eval_all``) stay in its self time.
TARGETS = [
    ("kernel.mulmod", "linperm._kernel", "mulmod"),
    ("kernel.matvec", "linperm._kernel", "matvec"),
    ("kernel.eval_all", "linperm._kernel", "eval_all"),
    ("ffield.field_ctx", "linperm.ffield", "field_ctx"),
    ("ffield.mul", "linperm.ffield", "FieldElem.__mul__"),
    ("ffield.inv", "linperm.ffield", "FieldElem.inv"),
    ("ffield.frobenius", "linperm.ffield", "FieldElem.frobenius"),
    ("ffield.norm_rel", "linperm.ffield", "FieldElem.norm_rel"),
    ("ffield.embed_subfield", "linperm.ffield", "embed_subfield"),
    ("linpoly.eval", "linperm.linpoly", "LinearizedPoly.eval"),
    ("linpoly.compose", "linperm.linpoly", "LinearizedPoly.compose"),
    ("linpoly.dickson_matrix", "linperm.linpoly", "LinearizedPoly.dickson_matrix"),
    ("linpoly.det", "linperm.linpoly", "DicksonMatrix.det"),
    ("linpoly.det_and_inverse", "linperm.linpoly", "DicksonMatrix.det_and_inverse"),
    ("linpoly.cofactor", "linperm.linpoly", "DicksonMatrix.cofactor"),
    ("linpoly.inverse_dickson", "linperm.linpoly", "inverse_dickson"),
    ("binomial.is_permutation_binomial", "linperm.binomial", "is_permutation_binomial"),
    ("binomial.inverse_binomial", "linperm.binomial", "inverse_binomial"),
    ("binomial.inverse_special", "linperm.binomial", "inverse_special"),
    ("binomial.lift", "linperm.binomial", "lift"),
]

# kernel implementations whose own globals are left alone
_KERNEL_IMPLS = ("linperm._corepy", "linperm._corecy")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def install(self):
        """Wrap every target in the loaded linperm modules."""
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "linperm" or mod_name.startswith("linperm.")) \
                        and mod_name not in _KERNEL_IMPLS:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Calls and self time (duration minus traced children) per name."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {"calls": calls, "self_s": self_s, "spans": n}

    def write(self, path: str, meta: dict):
        """A JSON header line, then the name, parent, start and end arrays."""
        header = dict(meta, names=self.names, spans=len(self.start),
                      layout=["name:int32", "parent:int32", "start:float64",
                              "end:float64"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
