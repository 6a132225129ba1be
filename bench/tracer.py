"""Spans around the public functions of each layer, patched in from outside.

The tracer replaces a function on its defining module and on every
`ipaudit` module that imported the name, so calls made inside a module are
spanned too.  A span records name, start, end, parent span, operation id and
an optional work count (matrices solved, rows parsed).  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _matrices(args, kwargs, result) -> int:
    a = np.asarray(args[0] if args else kwargs["a"])
    return int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim >= 2 else 0


def _rows(args, kwargs, result) -> int:
    return len(result)


# (module, attribute, span name, work count).  numpy's eigensolvers stand for
# statemath's eigensolve: they count matrices however the layer batches them.
TARGETS = (
    ("ipaudit.cli", "main", "cli.main", None),
    ("ipaudit.statemath", "probability_curve", "statemath.probability_curve", None),
    ("ipaudit.statemath", "ratio_curve", "statemath.ratio_curve", None),
    ("ipaudit.statemath", "gram_matrix", "statemath.gram_matrix", None),
    ("numpy.linalg", "eigvalsh", "statemath.eigensolve", _matrices),
    ("numpy.linalg", "eigh", "statemath.eigensolve", _matrices),
    ("numpy.linalg", "eigvals", "statemath.eigensolve", _matrices),
    ("numpy.linalg", "eig", "statemath.eigensolve", _matrices),
    ("ipaudit.scw", "holevo_curve", "scw.holevo_curve", None),
    ("ipaudit.scw", "bessel_j0", "scw.bessel_j0", None),
    ("ipaudit.spectra", "load_spectrum", "spectra.load_spectrum", _rows),
    ("ipaudit.spectra", "resample", "spectra.resample", None),
    ("ipaudit.spectra", "aggregate_runs", "spectra.aggregate_runs", None),
    ("ipaudit.spectra", "insertion_loss", "spectra.insertion_loss", None),
    ("ipaudit.spectra", "loss_csv_text", "spectra.loss_csv_text", None),
    ("ipaudit.spectra", "load_loss_csv", "spectra.load_loss_csv", None),
    ("ipaudit.components", "load_library", "components.load_library", None),
    ("ipaudit.components", "reference_library", "components.reference_library", None),
    ("ipaudit.budget", "load_chain_config", "budget.load_chain_config", None),
    ("ipaudit.budget", "envelope", "budget.envelope", None),
    ("ipaudit.budget", "assess_ipa", "budget.assess_ipa", None),
    ("ipaudit.budget", "AssessmentReport.to_dict", "budget.to_dict", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id, count)
        self.stack: list[int] = []
        self.op_id = -1
        self.patches: list = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = count(args, kwargs, result) if count and result is not None else 0
                spans[idx] = (name, start, end, parent, self.op_id, n)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name and module else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, count)
            holders = [owner] if owner_name else [owner] + [
                m for key, m in list(sys.modules.items())
                if (key == "ipaudit" or key.startswith("ipaudit.")) and m is not owner
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self.patches.append((holder, key, original))

    def remove(self) -> None:
        for holder, key, original in reversed(self.patches):
            setattr(holder, key, original)
        self.patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": n}) + "\n")

    def summary(self, scale: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per span name over the operations in `scale`: calls, work count and
        total seconds, each span's time multiplied by its operation's scale.
        'cli.self' is cli.main minus the time of its direct children."""
        out: dict[str, dict[str, float]] = {}
        child_time: dict[int, float] = {}
        for name, start, end, parent, op, n in self.spans:
            if op not in scale:
                continue
            s = out.setdefault(name, {"calls": 0, "count": 0, "s": 0.0})
            s["calls"] += 1
            s["count"] += n
            s["s"] += (end - start) * scale[op]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_s = sum((end - start - child_time.get(i, 0.0)) * scale[op]
                     for i, (name, start, end, parent, op, n) in enumerate(self.spans)
                     if name == "cli.main" and op in scale)
        out["cli.self"] = {"calls": 0, "count": 0, "s": self_s}
        return out
