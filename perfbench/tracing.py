"""Per-layer tracing of ``cab`` from outside the package.

``Tracer.install()`` replaces every module-level function of each layer
module, and the methods of the classes those modules define, with a timing
wrapper.  It rebinds every reference a call can go through: the defining
module, names copied into other modules by ``from .x import y``, the ``cab``
package namespace, and module-level dicts of functions such as
``verify.SUITES``.  ``uninstall()`` puts every original object back.

Each wrapper counts calls and adds the call's self time (its duration minus
the time of wrapped calls made inside it) to its layer.  Calls into the
outer layers (``cli``, ``verify`` and the benchmark's own top-level calls)
are kept in memory as spans with their parent; the calls an outer span makes
into the structure layers are kept as one count and total time per callee.

Cheap methods that dict lookups and iteration call implicitly (``__hash__``,
``__eq__``, ``__str__``, ``__repr__``, ``__bool__``, ``__len__``, ``items``)
and the per-vertex tree helpers are left unwrapped: wrapping them would
multiply the cost of every dict operation or tree.  Their time counts
towards the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

LAYERS = ("linear", "trees", "algebra", "infinitesimal", "matching", "paths", "verify", "cli")
OUTER_LAYERS = frozenset({"cli", "verify", "bench"})
UNWRAPPED_METHODS = frozenset(
    {"__hash__", "__eq__", "__ne__", "__str__", "__repr__", "__bool__", "__len__", "items"}
)

# per-vertex helpers of building, rendering and parsing trees; wrapping them
# multiplies the cost of every Tree construction
UNWRAPPED_FUNCTIONS = frozenset(
    {
        "trees._forest_degree",
        "trees._render_vertex",
        "trees._color_forest",
        "trees._skip_ws",
        "trees._parse_forest",
        "trees._parse_vertex",
    }
)


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class GcWatch:
    """Counts garbage collections and their time through ``gc.callbacks``."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self._start

    def reset(self):
        self.collections = 0
        self.seconds = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, outermost inclusive s, active depth]
        self.self_s = {layer: [0.0] for layer in LAYERS + ("bench",)}
        self.extra: dict[str, float] = {}
        # frame: [time covered by child spans, span id or None, is outer]
        self.stack: list[list] = [[0.0, None, True]]
        self.spans: list[tuple] = []  # (id, parent id, name id, start, end) of outer calls
        self.callees: dict[tuple, list] = {}  # (outer span id, name id) -> [calls, seconds]
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, after=None):
        st = self.stats.setdefault(name, [0, 0.0, 0])
        cell = self.self_s[layer]
        stack = self.stack
        spans = self.spans
        callees = self.callees
        perf = time.perf_counter
        outer = layer in OUTER_LAYERS
        name_id = self._names.setdefault(name, len(self._names))
        ids = self._ids

        def wrapper(*args, **kwargs):
            st[0] += 1
            st[2] += 1
            parent = stack[-1]
            frame = [0.0, next(ids) if outer else None, outer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1 = perf()
                d = t1 - t0
                stack.pop()
                cell[0] += d - frame[0]
                parent[0] += d
                st[2] -= 1
                if not st[2]:
                    st[1] += d
                if outer:
                    spans.append((frame[1], parent[1], name_id, t0, t1))
                elif parent[2]:
                    agg = callees.get((parent[1], name_id))
                    if agg is None:
                        callees[(parent[1], name_id)] = [1, d]
                    else:
                        agg[0] += 1
                        agg[1] += d

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def bench(self, name: str, fn):
        """Wrap one of the benchmark's own top-level calls as an outer span."""
        return self._wrap(fn, "bench", name)

    def _count(self, key: str, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def _hooks(self) -> dict:
        """Extra counters taken after selected calls, keyed by qualified name."""

        def add(args, result):
            self._count("linear.add.copied_terms", len(args[0]))
            self._count("linear.add.right_terms", len(args[1]))

        def pair(args, result):
            if result:
                self._count("paths.useful_pairs")

        return {
            "linear.LinComb.__add__": add,
            "linear.LinComb.__sub__": add,
            "paths._mul_paths": pair,
            "paths._circ_paths": pair,
        }

    def _wrap_rank(self, fn, layer, name):
        inner = self._wrap(fn, layer, name)

        def rank(vectors, *args, **kwargs):
            if not isinstance(vectors, (list, tuple)):
                vectors = list(vectors)
            self._count("linear.rank.rows", len(vectors))
            return inner(vectors, *args, **kwargs)

        functools.update_wrapper(rank, fn)
        return rank

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        hooks = self._hooks()
        mods = {layer: importlib.import_module(f"cab.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

        def wrap(fn, layer, name):
            if id(fn) not in wrapped:
                if name == "linear.rank":
                    w = self._wrap_rank(fn, layer, name)
                else:
                    w = self._wrap(fn, layer, name, hooks.get(name))
                wrapped[id(fn)] = (fn, w)
            return wrapped[id(fn)][1]

        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if _is_function(obj) and obj.__module__ == mod.__name__:
                    if f"{layer}.{attr}" not in UNWRAPPED_FUNCTIONS:
                        wrap(obj, layer, f"{layer}.{attr}")
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(obj, layer, wrap)

        namespaces = [importlib.import_module("cab")] + list(mods.values())
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, obj, hit[1], item=False)
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._set(obj, key, value, hit[1], item=True)
        return self

    def _wrap_class(self, cls, layer, wrap):
        for attr, member in list(vars(cls).items()):
            if attr in UNWRAPPED_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                if _is_function(member.__func__):
                    replacement = type(member)(wrap(member.__func__, layer, name))
                    self._set(cls, attr, member, replacement, item=False)
            elif _is_function(member):
                self._set(cls, attr, member, wrap(member, layer, name), item=False)

    def _set(self, container, key, original, replacement, item: bool):
        self._undo.append((container, key, original, item))
        if item:
            container[key] = replacement
        else:
            setattr(container, key, replacement)

    def uninstall(self) -> None:
        while self._undo:
            container, key, original, item = self._undo.pop()
            if item:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def span_records(self) -> dict:
        return {
            "names": list(self._names),
            "spans": {"fields": ["id", "parent", "name", "start_s", "end_s"], "rows": self.spans},
            "callees": {
                "fields": ["parent", "name", "calls", "seconds"],
                "rows": [[p, n, c, s] for (p, n), (c, s) in self.callees.items()],
            },
        }
