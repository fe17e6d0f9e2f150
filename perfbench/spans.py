"""Span recorder for the traced run.

Wrappers go around the public functions of each layer, at every module
binding that callers use: ``operator_norm`` is imported into ``engines``,
``spectral``, ``cli`` and others, so each of those names is replaced by the
same wrapper.  Spans (name, start, end, parent) stay in memory and are
written out when the run ends.  A layer's self time is its span duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) of every traced function; "Class.method" wraps a method.
LAYER_FUNCTIONS = (
    ("scenario", "load_scenario"),
    ("scenario", "Scenario.system"),
    ("spectral", "decompose"),
    ("spectral", "decomposition_residuals"),
    ("spectral", "from_eigensystem"),
    ("spectral", "resonant_partners"),
    ("engines", "error_bound"),
    ("engines", "convergence_report"),
    ("engines", "cesaro_spectral"),
    ("engines", "limit_operator"),
    ("engines", "limit_truncated"),
    ("engines", "cesaro_direct"),
    ("engines", "cesaro_nested"),
    ("engines", "kernel"),
    ("linalg", "operator_norm"),
    ("correlations", "make_system"),
    ("correlations", "cesaro_correlation"),
    ("correlations", "correlation_limit"),
    ("correlations", "correlation_term"),
    ("verify", "run_invariant_suite"),
    ("cli", "main"),
    ("cli", "report_csv"),
)

# Functions whose call count is reported next to their self time.
COUNTED = ("spectral.decompose", "engines.kernel", "linalg.operator_norm")

# Self times reported as per-layer metrics: every traced function except the
# kernel, whose calls take microseconds and are counted instead.
TIMED = tuple(f"{mod}.{attr.split('.')[-1]}" for mod, attr in LAYER_FUNCTIONS
              if (mod, attr) != ("engines", "kernel"))


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []  # (owner, name, original)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        # Same bookkeeping as ``span``, inlined: the wrapper runs about 10^5
        # times per pass around operator_norm.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
        return traced

    def _replace(self, owner, key: str, wrapped) -> None:
        self._replaced.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        for mod_name, attr in LAYER_FUNCTIONS:
            module = importlib.import_module(f"entcesaro.{mod_name}")
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other_name == "entcesaro" or other_name.startswith("entcesaro."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._replace(other, key, wrapped)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._replaced:
            owner, key, original = self._replaced.pop()
            setattr(owner, key, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            seconds[name] = seconds.get(name, 0.0) + (end - start - children)
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
