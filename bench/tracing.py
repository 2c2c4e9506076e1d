"""Per-layer tracing of the forestry package from outside its source.

Every public function of every forestry module is replaced, in every
module namespace that holds it, by a wrapper that records one span per
call: a name, a duration and the id of the enclosing span.  Modules
bind each other's functions with ``from ... import``, so patching the
defining module alone would miss most calls.  Module-level dicts whose
values are tuples of functions (the sweep's theorem table) are patched
the same way.  A generator function gets one span per resumption, so
the work done while producing each item is charged to it.

Spans live in flat arrays while tracing runs; self time is a span's
duration minus the time its child spans cover, computed afterwards.
``uninstall`` puts every original object back.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

# layers that are plumbing below the caller a canon call is charged to
_BELOW_CALLER = ("canon", "multigraph")


def self_times(dur, parent):
    """Each span's duration minus its children's, never below zero.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their coverage is the sum of their
    durations.  Rounding can still push that sum a hair past the parent.
    """
    out = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= dur[i]
    return [x if x > 0.0 else 0.0 for x in out]


class Patch:
    """Replaces entries of namespaces and puts the originals back, last first."""

    def __init__(self):
        self._saved = []  # (namespace dict, key, original)

    def __len__(self):
        return len(self._saved)

    def set(self, ns, key, value):
        self._saved.append((ns, key, ns[key]))
        ns[key] = value

    def restore(self):
        while self._saved:
            ns, key, original = self._saved.pop()
            ns[key] = original


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []  # span name per name id, "layer.function"
        self.dur = array("d")
        self.parent = array("i")
        self.name = array("H")
        self._stack = []  # (span id, start)
        self._patch = Patch()
        self.caches = {}  # id -> MemoCache seen by the counting layer
        self.members = 0  # graphs yielded by family generation
        self.lifts_yielded = 0

    # --- recording -------------------------------------------------------

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.dur.append(0.0)
        self._stack.append((i, perf_counter()))

    def _close(self):
        i, t0 = self._stack.pop()
        self.dur[i] = perf_counter() - t0

    def _wrap(self, fn, qualname):
        nid = len(self.names)
        self.names.append(qualname)
        observe = self._observer(qualname)
        opened, closed = self._open, self._close

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    opened(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        closed()
                    if observe is not None:
                        observe(args, kwargs, item)
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, qualname):
        layer, func = qualname.split(".", 1)
        if layer == "counting":
            memo_type = self.package.MemoCache

            def see_caches(args, kwargs, _):
                for a in (*args, *kwargs.values()):
                    if isinstance(a, memo_type):
                        self.caches[id(a)] = a

            return see_caches
        if qualname == "families.family_levels":

            def see_level(args, kwargs, level):
                self.members += len(level[1])

            return see_level
        if qualname == "lifts.enumerate_lifts":

            def see_lifts(args, kwargs, result):
                self.lifts_yielded += len(result)

            return see_lifts
        return None

    # --- patching --------------------------------------------------------

    def _modules(self):
        root = self.package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == root or name.startswith(root + "."))
        ]

    def install(self):
        if self._patch:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        # keyed by id: each wrapper holds its original, so no id is reused
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
        for mod in modules:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if id(obj) in wrapped:
                    self._patch.set(ns, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, tuple) and any(id(x) in wrapped for x in value):
                            self._patch.set(obj, key, tuple(wrapped.get(id(x), x) for x in value))

    def uninstall(self):
        self._patch.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- reading ---------------------------------------------------------

    def self_by_layer(self):
        """Self seconds per layer, summed over its spans."""
        out = {}
        for nid, s in zip(self.name, self_times(self.dur, self.parent)):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out

    def layer_metrics(self):
        """Counts and self times per layer, keyed as in BENCHMARK.json."""
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        name, parent, dur = self.name, self.parent, self.dur
        self_s = self.self_by_layer()

        def caller(i):
            # the nearest enclosing span outside the plumbing layers
            p = parent[i]
            while p >= 0 and layer_of[name[p]] in _BELOW_CALLER:
                p = parent[p]
            return layer_of[name[p]] if p >= 0 else None

        calls = {}
        by_name = {}
        for nid in name:
            layer = layer_of[nid]
            calls[layer] = calls.get(layer, 0) + 1
            by_name[names[nid]] = by_name.get(names[nid], 0) + 1

        def spans_of(qualname):
            return [i for i, nid in enumerate(name) if names[nid] == qualname]

        def count(qualname):
            return by_name.get(qualname, 0)

        canon_callers = {"families": 0, "counting": 0}
        canon_other = 0
        for i in range(len(name)):
            if layer_of[name[i]] == "canon":
                who = caller(i)
                if who in canon_callers:
                    canon_callers[who] += 1
                else:
                    canon_other += 1
        children = sum(1 for i in spans_of("multigraph.from_edge_list") if caller(i) == "families")
        keyed = sum(
            1
            for i in spans_of("multigraph.canonical_key")
            if parent[i] >= 0 and layer_of[name[parent[i]]] == "families"
        )
        canon_calls = calls.get("canon", 0)
        hits = sum(c.hits for c in self.caches.values())
        misses = sum(c.misses for c in self.caches.values())
        formats_parse = sum(c for q, c in by_name.items() if q.startswith("formats.parse"))
        return {
            "canon.calls": canon_calls,
            "canon.automorphism_calls": count("canon.automorphisms"),
            "canon.self_s": self_s.get("canon", 0.0),
            "canon.us_per_call": 1e6 * self_s.get("canon", 0.0) / max(canon_calls, 1),
            "canon.calls_families": canon_callers["families"],
            "canon.calls_counting": canon_callers["counting"],
            "canon.calls_other": canon_other,
            "families.children": children,
            "families.keyed": keyed,
            "families.members": self.members,
            "families.keep_ratio": self.members / keyed if keyed else 0.0,
            "families.self_s": self_s.get("families", 0.0),
            "counting.calls": calls.get("counting", 0),
            "counting.self_s": self_s.get("counting", 0.0),
            "counting.memo_entries": sum(len(c) for c in self.caches.values()),
            "counting.memo_hits": hits,
            "counting.memo_misses": misses,
            "counting.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "multigraph.calls": calls.get("multigraph", 0),
            "multigraph.builds": count("multigraph.from_edge_list"),
            "multigraph.self_s": self_s.get("multigraph", 0.0),
            "bounds.calls": calls.get("bounds", 0),
            "bounds.self_s": self_s.get("bounds", 0.0),
            "sweep.records": count("sweep.run_store_append"),
            "sweep.append_s": sum(dur[i] for i in spans_of("sweep.run_store_append")),
            "lifts.feasible_calls": count("lifts.lift_feasible_multigraph"),
            "lifts.lifts_yielded": self.lifts_yielded,
            "lifts.self_s": self_s.get("lifts", 0.0),
            "formats.parse_calls": formats_parse,
            "formats.self_s": self_s.get("formats", 0.0),
        }
