"""Spans around the public functions of each gegtau module.

The tracer wraps a function under every name a module looks it up by
(`gegtau.spectra.dense_eigs`, `gegtau.spectra.build_gi2`,
`gegtau.cli.tau_spectrum`, the `gegtau.verify` imports, ...), so calls are
seen whichever module makes them. Spans carry name, start, end, parent and
op id; they stay in memory until the run ends. Nothing in the package
changes: `install` patches attributes and `uninstall` puts them back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("orthopoly", "charpoly", "tau_operator", "spectra", "verify", "cli")
# Public methods on the ops' paths (the module-level functions come from __all__).
METHODS = {
    "tau_operator": {"TauMatrix": ("square",)},
    "spectra": {"Spectrum": ("csv",)},
    "verify": {"SweepResult": ("to_csv",)},
}
# Type coercions called from everywhere, too small to time per call.
SKIP = {"as_gegenbauer", "as_jacobi", "as_parity"}


def _gegenbauer_iters(args, kwargs):
    return {"loop_iters": args[0] if args else kwargs["n"]}


def _dense_eigs_work(args, kwargs):
    n = (args[0] if args else kwargs["a"]).shape[0]
    return {"n3_sum": n**3, "bytes_in": 8 * n * n}


# Work counters computed from the arguments, so they repeat exactly.
COUNTERS = {"orthopoly.gegenbauer_at_one": _gegenbauer_iters, "spectra.dense_eigs": _dense_eigs_work}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = defaultdict(int)  # "<span name>.<counter>" -> total
        self.op_id = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    counts[f"{name}.{key}"] += value
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def targets(self):
        """(span name, function) for every function to wrap."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"gegtau.{short}"]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and attr not in SKIP:
                    out.append((f"{short}.{attr}", fn))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                out += [(f"{short}.{cls_name}.{m}", (cls, m)) for m in methods]
        return out

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "gegtau" or n.startswith("gegtau.")]
        for name, fn in self.targets():
            if isinstance(fn, tuple):
                cls, method = fn
                self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                continue
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per span name: calls and self seconds (duration minus direct children)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        self_s[name] += end - start
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
    return calls, self_s


def root_seconds(spans):
    """Seconds covered by top-level spans (those without a parent)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
