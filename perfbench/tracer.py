"""Per-layer span recorder for the benchmark's traced run.

The recorder rebinds platknot's public functions to timing wrappers at every
module attribute that binds them (``validate`` is bound in ``plat``,
``canonical``, ``twobridge``, ``cli`` and the package), so calls between
modules are caught without editing the package.  Spans stay in memory and
are written out when the run ends.  Span names are ``<module>.<function>``,
so spans recorded inside the program later can reuse them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (span name, attribute of platknot.<module> that it wraps)
TARGETS = (
    ("plat.parse", "TwistMatrix.from_text"),
    ("plat.parse", "TwistMatrix.from_json_dict"),
    ("plat.validate", "validate"),
    ("plat.to_braid_word", "to_braid_word"),
    ("plat.braid_closure", "braid_closure"),
    ("plat.component_count", "component_count"),
    ("canonical.canonical_form", "canonical_form"),
    ("canonical.apply", "apply"),
    ("canonical.equivalent", "equivalent"),
    ("canonical.symmetry_group", "symmetry_group"),
    ("twobridge.schubert_pair", "schubert_pair"),
    ("braid.compose", "compose"),
    ("braid.free_reduce", "free_reduce"),
    ("braid.inverse", "inverse"),
    ("hilden.random_hilden_element", "random_hilden_element"),
    ("hilden.coset_consistency", "coset_consistency"),
    ("invariants.determinant", "determinant"),
    ("invariants.kauffman_bracket", "kauffman_bracket"),
    ("invariants.jones", "jones"),
    ("invariants.jones_canonical", "jones_canonical"),
    ("invariants.max_writhe", "max_writhe"),
    ("cli.main", "main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _ in TARGETS))

# Work counts taken at the same boundaries: span name -> (count, unit, count(args, result)).
# The bracket's states are not counted inside the state sum; they are computed
# here as 2^c from the diagram handed to it.
COUNTS = {
    "plat.to_braid_word": ("letters", "letters/item", lambda args, out: len(out)),
    "plat.braid_closure": ("crossings", "crossings/item", lambda args, out: out.crossing_count),
    "braid.compose": ("letters", "letters/item", lambda args, out: len(out)),
    "hilden.coset_consistency": ("translates", "translates/item", lambda args, out: out.samples_checked),
    "invariants.determinant": ("crossings", "crossings/item", lambda args, out: args[0].crossing_count),
    "invariants.kauffman_bracket": ("states", "computed/item", lambda args, out: 2 ** args[0].crossing_count),
}

# canonical.validate_per_call: validate calls made inside canonical_form, per canonical_form call.
NESTED_CHILD, NESTED_PARENT = "plat.validate", "canonical.canonical_form"

# Spans kept for the spans file; calls beyond it still count in every total.
SPAN_CAP = 200_000


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "1/item"
        units[f"{name}.self_s"] = "s/item"
        if name in COUNTS:
            what, unit, _ = COUNTS[name]
            units[f"{name}.{what}"] = unit
    units["canonical.validate_per_call"] = "1"
    units["trace.overhead_ratio"] = "1"
    units["trace.unattributed_s"] = "s/item"
    return units


class Recorder:
    """Spans and per-name totals for one traced pass.

    ``item`` tags each span with the item that caused it; ``paused`` lets the
    benchmark's own checks call platknot without being recorded.
    """

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.nested = 0
        self.spans: list[list] = []      # [name, item, parent span, start, end]
        self.dropped = 0
        self.item = -1
        self.paused = True
        self._stack: list[list] = []     # [span index, seconds spent in wrapped children]
        self._open = dict.fromkeys(SPAN_NAMES, 0)
        self._origin = time.perf_counter()

    def wrap(self, name, fn):
        count = COUNTS.get(name, (None, None, None))[2]
        nested = name == NESTED_CHILD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack
            span = [name, self.item, stack[-1][0] if stack else -1, 0.0, 0.0]
            frame = [len(self.spans), 0.0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append(span)
            else:
                self.dropped += 1
            stack.append(frame)
            self._open[name] += 1
            if nested and self._open[NESTED_PARENT]:
                self.nested += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._open[name] -= 1
                span[3], span[4] = start - self._origin, end - self._origin
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if count is not None:
                self.counts[name] += count(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target at every platknot module attribute bound to it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "platknot" or key.startswith("platknot.")]
        undo = []
        try:
            for name, attr in TARGETS:
                home = sys.modules["platknot." + name.split(".")[0]]
                if "." in attr:                       # a classmethod of a class in ``home``
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, classmethod(self.wrap(name, original.__func__)))
                    undo.append((cls, method, original))
                    continue
                original = getattr(home, attr)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def metrics(self, items: int, traced_s: float, overhead_ratio: float) -> dict[str, float]:
        """Per-item layer metrics of ``items`` traced items taking ``traced_s`` in all.

        ``overhead_ratio`` is traced over untraced time on the same items.
        """
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = self.calls[name] / items
            values[f"{name}.self_s"] = self.self_s[name] / items
            if name in COUNTS:
                values[f"{name}.{COUNTS[name][0]}"] = self.counts[name] / items
        parents = self.calls[NESTED_PARENT]
        values["canonical.validate_per_call"] = self.nested / parents if parents else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        values["trace.unattributed_s"] = (traced_s - sum(self.self_s.values())) / items
        return values

    def write(self, path) -> None:
        """Write the kept spans (times in seconds from the recorder's creation)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "item", "parent", "start", "end"],
                       "spans": self.spans, "dropped": self.dropped}, fh, separators=(",", ":"))
