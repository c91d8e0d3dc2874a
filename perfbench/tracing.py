"""Per-layer tracing of lofs from outside the package.

``Tracer`` wraps every public function of the traced lofs modules, and the
constructor of every class they define, by rebinding each lofs module
attribute that refers to the original.  Nothing under ``src/`` changes:
calls between lofs modules resolve through module globals, so they reach
the wrappers too.

Spans are aggregated per (function, caller) into calls, self time and
total time; self time excludes nested traced calls.  Each unit of work
is a root span, so the self times of all spans, roots included, add up to
the time the units took.  Full span trees are kept only for the slowest
units (the ones that set the tail latency), as flat pre-order lists of
(depth, key, start, duration).

A few functions carry a hook that counts work beyond calls: distinct
arguments, result sizes, successful searches.  Tracing is off until
``active`` is set, and callers pause it around their own checks.
"""

from __future__ import annotations

import heapq
import inspect
import sys
import time

ROOT = "<unit>"
SETUP = "<setup>"


def _public_callables(module):
    """(name, function) pairs defined in ``module`` and not private."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)  # lru_cache-decorated functions
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            yield name, obj


def _classes(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            if "__init__" in vars(obj):
                yield name, obj


class Tracer:
    """Wraps lofs layers and aggregates their spans.

    ``layers`` maps a short layer name (``order``) to its module.
    """

    def __init__(self, layers, keep_trees=0):
        self.active = False
        self.stack = [[ROOT, 0.0]]
        self.stats = {}  # (key, caller key) -> [calls, self seconds, total seconds]
        self.counts = {}  # "<key>.<counter>" -> number
        self.distinct = {}  # "<key>.distinct" -> set of arguments
        self.keep_trees = keep_trees
        self.trees = []  # heap of (duration, serial, label, spans)
        self._serial = 0
        self.spans = None
        self._install(layers)

    # -- wrapping ---------------------------------------------------------

    def _install(self, layers):
        originals = {}
        for layer, module in layers.items():
            for name, fn in _public_callables(module):
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
            for name, cls in _classes(module):
                cls.__init__ = self._wrap(vars(cls)["__init__"], f"{layer}.{name}")
        # rebind every reference held by any lofs module, the package included
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "lofs" or modname.startswith("lofs.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _hook_for(self, key):
        counts, distinct = self.counts, self.distinct

        def add(name, amount):
            counts[name] = counts.get(name, 0) + amount

        if key == "order.down_set_masks":
            seen = distinct.setdefault(key + ".distinct", set())
            return lambda args, result, dt: seen.add(args[0])
        if key == "factorisation.factorise":
            seen = distinct.setdefault(key + ".distinct", set())

            def hook(args, result, dt):
                seen.add(args[0])
                add(key + ".carrier_sum", result.K.n)

            return hook
        if key == "order.squares":
            seen = distinct.setdefault(key + ".distinct", set())

            def hook(args, result, dt):
                seen.add((args[0], args[1]))
                add(key + ".results", len(result))

            return hook
        if key == "adjunction.find_rali":
            return lambda args, result, dt: add(key + ".found", result is not None)
        if key == "kan.kan_injective":
            # bound before wrapping, so the split costs no traced call
            from lofs.order import is_complete_lattice

            def hook(args, result, dt):
                side = "complete_s" if is_complete_lattice(args[0]) else "noncomplete_s"
                add(f"{key}.{side}", dt)

            return hook
        return None

    def _wrap(self, fn, key):
        tracer = self
        hook = self._hook_for(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            spans = tracer.spans
            if spans is not None:
                slot = len(spans)
                spans.append(None)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = tracer.stats.get((key, parent[0]))
                if rec is None:
                    rec = tracer.stats[(key, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[1]
                rec[2] += dt
                if spans is not None:
                    spans[slot] = (len(stack), key, t0, dt)
            if hook is not None:
                hook(args, result, dt)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- roots ------------------------------------------------------------

    def begin(self, root=ROOT, record=False):
        """Open a root span; ``record`` keeps this unit's span list."""
        self.stack = [[root, 0.0]]
        self.spans = [] if record and self.keep_trees else None
        self._t0 = time.perf_counter()
        self.active = True

    def end(self, label=None):
        """Close the root span; returns its duration."""
        dt = time.perf_counter() - self._t0
        self.active = False
        root = self.stack[0]
        rec = self.stats.setdefault((root[0], None), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dt - root[1]
        rec[2] += dt
        if self.spans is not None:
            item = (dt, self._serial, label, self.spans)
            self._serial += 1
            if len(self.trees) < self.keep_trees:
                heapq.heappush(self.trees, item)
            elif dt > self.trees[0][0]:
                heapq.heapreplace(self.trees, item)
            self.spans = None
        return dt

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """A copy of the aggregates, for splitting set-up from the units."""
        return (
            {k: list(v) for k, v in self.stats.items()},
            dict(self.counts),
            {k: len(v) for k, v in self.distinct.items()},
        )

    def reset(self):
        self.stats.clear()
        self.counts.clear()
        for seen in self.distinct.values():
            seen.clear()

    def tail_trees(self):
        """Slowest recorded units first: (duration, label, aggregated tree)."""
        out = []
        for dt, _, label, spans in sorted(self.trees, reverse=True):
            out.append((dt, label, aggregate_tree(spans)))
        return out


def by_function(stats):
    """Sum (function, caller) aggregates over callers: key -> [calls, self, total]."""
    out = {}
    for (key, caller), (calls, self_s, total) in stats.items():
        if caller is None:
            continue
        rec = out.setdefault(key, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += self_s
        rec[2] += total
    return out


def aggregate_tree(spans):
    """Merge sibling spans with the same key: nested {key: [calls, seconds, children]}."""
    root = {}
    path = [root]
    for depth, key, _, dt in spans:
        del path[depth:]
        node = path[-1].setdefault(key, [0, 0.0, {}])
        node[0] += 1
        node[1] += dt
        path.append(node[2])
    return root


def format_tree(tree, indent="    ", min_share=0.01, total=None):
    lines = []
    items = sorted(tree.items(), key=lambda kv: -kv[1][1])
    if total is None:
        total = sum(node[1] for node in tree.values()) or 1.0
    for key, (calls, seconds, children) in items:
        if seconds < min_share * total:
            continue
        lines.append(f"{indent}{key}  calls={calls}  {seconds * 1e3:.3f} ms")
        lines.extend(format_tree(children, indent + "  ", min_share, total))
    return lines
