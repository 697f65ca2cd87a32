"""Spans and counters around the public functions of the ``kbx`` modules.

The library imports names with ``from .x import y``, so each wrapped function
is replaced under its name in every ``kbx`` module that holds it.  Entry
points are timed; hot lookups are only counted, so a traced run stays within
a small factor of an untraced one.  A layer's self time is the time its spans
took minus the time their child spans took; a counted-only call's time stays
with the span that made it.  Nothing under ``src/`` is changed.
"""

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs timed as spans of that module's layer.
TIMED = {
    "cli": ("run",),
    "syntax": ("parse_kb", "parse_mapping"),
    "reasoner": (
        "role_closure", "concept_closure", "kb_consistent", "concept_disjoint_pairs",
        "role_disjoint_pairs", "witness_class", "tbox_trivial",
    ),
    "canonical": ("build_canonical", "materialize", "closure_abox", "build_vabox"),
    "homomorphism": ("embeds_regular_into_finite", "embeds_finite_into_regular"),
    "exchange": (
        "is_sigma2_positive", "universal_solution_plain", "universal_solution_extended",
        "is_universal_solution",
    ),
    "representability": (
        "is_ucq_representation", "representation_exists", "synthesize_representation",
        "find_generating_pass",
    ),
}
# Hot lookups: counted, not timed.
COUNTED = {
    "reasoner": (
        "derives_concept", "derives_role", "pair_consistent_concepts", "pair_consistent_roles",
    ),
}
WITNESS_DECIDERS = ("universal_solution_plain", "universal_solution_extended")


class Tracer:
    def __init__(self):
        self.stack = []  # child seconds accumulated by each open span
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.incl_s = defaultdict(float)  # function -> seconds of outermost calls
        self.calls = Counter()
        self.found = Counter()  # function -> calls that returned a result
        self.sizes = Counter()  # size counters read off results
        self.open = Counter()  # function -> calls currently on the stack
        self.originals = {}

    def _timed(self, layer, name, fn):
        def span(*args, **kwargs):
            self.calls[name] += 1
            self.open[name] += 1
            self.stack.append(0.0)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.process_time() - start
                child = self.stack.pop()
                self.open[name] -= 1
                self.self_s[layer] += dur - child
                if self.stack:
                    self.stack[-1] += dur
                if not self.open[name]:
                    self.incl_s[name] += dur
            self._observe(name, result)
            return result

        return span

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name, result):
        if result is not None:
            self.found[name] += 1
        if name == "build_canonical":
            self.sizes["states"] += len(result.states())
        elif name == "materialize":
            self.sizes["materialized_elements"] += len(result.elements)
        elif name in WITNESS_DECIDERS and result.witness is not None:
            self.sizes["witness_facts"] += len(result.witness.assertions)

    def install(self):
        """Replace each listed function in every loaded ``kbx`` module."""
        wrappers = {}
        for table, wrap in ((TIMED, self._timed), (COUNTED, None)):
            for layer, names in table.items():
                module = sys.modules.get(f"kbx.{layer}")
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is None:  # gone from the library: its metrics read 0
                        continue
                    self.originals[name] = fn
                    wrappers[id(fn)] = (
                        wrap(layer, name, fn) if wrap else self._counted(name, fn)
                    )
        for modname, module in list(sys.modules.items()):
            if modname != "kbx" and not modname.startswith("kbx."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def summary(self) -> dict:
        hits = misses = 0
        for fn in self.originals.values():
            if fn.__module__ == "kbx.reasoner" and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "found": dict(self.found),
            "sizes": dict(self.sizes),
            "reasoner_cache": [hits, misses],
        }
