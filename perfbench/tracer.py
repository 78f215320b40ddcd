"""Spans and counters around bolext's public functions, installed from outside.

A `Tracer` wraps each function named in `TARGETS` in a span that records its
name, start, end, parent span and operation id, and adds the counts listed
for it, taken from arguments and return values.  Spans stay in memory until
the run writes them out.  A span's self time is its duration minus the time
covered by the spans it encloses.

Every binding of a target is patched: the defining module's attribute, every
other `bolext.*` module attribute that is the same object (modules import
functions by name), and methods on their class.  `ModP.__init__` gets a plain
counter instead of a span, since it runs millions of times.
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
from collections import defaultdict
from time import perf_counter

_MARK = "__perfbench_original__"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _status_count(status):
    def count(args, kwargs, result):
        return int(getattr(result.status, "value", result.status) == status)
    return count


def _wells_count(status):
    # WellsReport: "zero" means the class vanishes (a witness was found)
    def count(args, kwargs, result):
        return int(result.status == status)
    return count


def _automorphism_candidates(args, kwargs, result):
    n = _arg(args, kwargs, 0, "bil").shape[0]
    return _arg(args, kwargs, 2, "p") ** (n * n)


def _rows(i, name):
    def count(args, kwargs, result):
        return int(_arg(args, kwargs, i, name).shape[0])
    return count


def _mask_passed(args, kwargs, result):
    return int(result.sum())


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, {extra stat: count(args, kwargs, result)})
TARGETS = [
    ("exactlin", "Matrix.rref", {}),
    ("exactlin", "Matrix.solve", {}),
    ("exactlin", "Matrix.kernel", {}),
    ("exactlin", "Matrix.inverse", {}),
    ("bol", "validate_bol", {}),
    ("bol", "is_morphism", {}),
    ("bruteforce", "automorphism_arrays", {
        "candidates": _automorphism_candidates,
        "survivors": lambda a, k, r: int(r.shape[0])}),
    ("bruteforce", "validate_bol_mask", {
        "rows": _rows(0, "bil"), "passed": _mask_passed}),
    ("bruteforce", "validate_rep_mask", {
        "rows": _rows(2, "mu"), "passed": _mask_passed}),
    ("bruteforce", "semidirect_arrays", {"rows": _rows(2, "mu")}),
    ("bruteforce", "rep_param_batches", {
        "rows": lambda a, k, r: int(r[0].shape[0])}),
    ("representation", "semidirect_iff_census", {}),
    ("representation", "validate_representation", {}),
    ("representation", "semidirect_product", {}),
    ("cohomology", "cohomology23", {}),
    ("cohomology", "cocycle_constraint_matrix", {}),
    ("cohomology", "coboundary_matrix", {}),
    ("nonabelian", "solve_equivalence", {
        "found": _status_count("found"), "none": _status_count("none"),
        "undecided": _status_count("undecided")}),
    ("nonabelian", "validate_nab_cocycle", {
        "valid": lambda a, k, r: int(r.valid)}),
    ("nonabelian", "cocycles_equivalent_via", {}),
    ("extensions", "classify_corpus", {}),
    ("extensions", "extract_cocycle", {}),
    ("extensions", "canonical_section", {}),
    ("extensions", "validate_extension", {}),
    ("wells", "act_on_cocycle", {}),
    ("wells", "validate_aut_pair", {}),
    ("wells", "z1_nab", {}),
    ("wells", "solve_inducibility", {
        "found": _status_count("found"), "none": _status_count("none")}),
    ("wells", "wells_map", {
        "found": _wells_count("zero"), "none": _wells_count("nonzero")}),
    ("wells", "verify_wells_exactness", {}),
    ("documents", "parse_document", {"bytes_in": _file_bytes}),
    ("documents", "canonical_json", {
        "bytes_out": lambda a, k, r: len(r.encode("utf-8"))}),
    ("cli", "main", {}),
]

# counted, not spanned: (module, attribute, metric name)
COUNTERS = [("exactlin", "ModP.__init__", "exactlin.ModP.constructed")]

MODULES = sorted({mod for mod, _, _ in TARGETS})

# stats that must repeat exactly between two traced runs of the same code
COUNT_STATS = ("calls", "candidates", "survivors", "rows", "passed", "found",
               "none", "undecided", "valid", "bytes_in", "bytes_out",
               "constructed")


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for mod, attr, extras in TARGETS:
        base = f"{mod}.{attr}"
        names.append((f"{base}.calls", "count"))
        for stat in extras:
            names.append((f"{base}.{stat}",
                          "bytes" if stat.startswith("bytes") else "count"))
        names.append((f"{base}.self_s", "s"))
    names += [(name, "count") for _, _, name in COUNTERS]
    names += [(f"{mod}.self_s", "s") for mod in MODULES]
    names += [("unattributed.self_s", "s"), ("trace.spans", "count"),
              ("trace.covered_share", "ratio"), ("trace.wall_s", "s"),
              ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
    return names


def _resolve(mod, attr):
    """(owner, name, object) for 'mod.attr', or None when it does not exist."""
    owner = sys.modules.get(f"bolext.{mod}")
    if owner is None:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], vars(owner)[parts[-1]]


def _bolext_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bolext" or name.startswith("bolext."))]


def check_originals():
    """Guard for untraced runs: (absent target names, wrapped bindings).

    A target a later change renamed or deleted is absent; a binding that is
    still a wrapper means the untraced timings would include tracing.
    """
    absent, wrapped = [], []
    for mod, attr, _ in TARGETS + COUNTERS:
        if _resolve(mod, attr) is None:
            absent.append(f"{mod}.{attr}")
    for module in _bolext_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                wrapped.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("bolext"):
                wrapped += [f"{module.__name__}.{key}.{k}"
                            for k, v in vars(value).items() if hasattr(v, _MARK)]
    return absent, sorted(set(wrapped))


class Tracer:
    """Installs the wrappers; collects spans, self times and counts."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.op = 0
        self.absent = []
        self._stack = []         # [span index, seconds covered by children]
        self._self = defaultdict(float)
        self._counts = defaultdict(int)
        self._patches = []       # (owner, name, original)
        self._counters = []      # (metric, itertools.count)

    def _wrap(self, name, func, extras):
        spans, stack = self.spans, self._stack
        self_s, counts = self._self, self._counts
        extras = list(extras.items())

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, self.op)
                if stack:
                    stack[-1][1] += end - start
                self_s[name] += end - start - frame[1]
                counts[f"{name}.calls"] += 1
            for stat, count in extras:
                counts[f"{name}.{stat}"] += count(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, func)
        return wrapper

    def _patch_everywhere(self, owner, key, original, replacement):
        self._patches.append((owner, key, original))
        setattr(owner, key, replacement)
        if isinstance(owner, type):
            return
        for module in _bolext_modules():
            for k, v in list(vars(module).items()):
                if v is original and not (module is owner and k == key):
                    self._patches.append((module, k, original))
                    setattr(module, k, replacement)

    def install(self):
        for mod, attr, extras in TARGETS:
            found = _resolve(mod, attr)
            if found is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            owner, key, func = found
            self._patch_everywhere(owner, key, func,
                                   self._wrap(f"{mod}.{attr}", func, extras))
        for mod, attr, metric in COUNTERS:
            found = _resolve(mod, attr)
            if found is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            owner, key, func = found
            counter = itertools.count()
            self._counters.append((metric, counter))

            def counted(*args, _next=counter.__next__, _func=func, **kwargs):
                _next()
                return _func(*args, **kwargs)

            setattr(counted, _MARK, func)
            self._patch_everywhere(owner, key, func, counted)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        for metric, counter in self._counters:
            self._counts[metric] = next(counter)   # counts from 0: the total
        self._counters.clear()

    def metrics(self):
        """Per-layer metric values after `uninstall`; absent targets are left
        out, never reported as 0."""
        out = {}
        module_self = defaultdict(float)
        for mod, attr, extras in TARGETS:
            base = f"{mod}.{attr}"
            if base in self.absent:
                continue
            out[f"{base}.calls"] = self._counts[f"{base}.calls"]
            for stat in extras:
                out[f"{base}.{stat}"] = self._counts[f"{base}.{stat}"]
            out[f"{base}.self_s"] = self._self[base]
            module_self[mod] += self._self[base]
        for mod, attr, metric in COUNTERS:
            if f"{mod}.{attr}" not in self.absent:
                out[metric] = self._counts[metric]
        for mod in MODULES:
            out[f"{mod}.self_s"] = module_self[mod]
        out["trace.spans"] = len(self.spans)
        return out

    def covered_seconds(self):
        """Seconds inside top-level spans (the sum of all self times)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent == -1)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f'["{name}",{start:.9f},{end:.9f},{parent},{op}]\n')
