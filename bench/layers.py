"""Per-layer spans recorded from outside the package.

A layer is one module under ``src/filtmult``.  The tracer wraps every
public function of each layer module, and a fixed list of methods, at
every place the function object is bound: the defining module, each
module that imported it by name and the package namespace.  Each wrapper
records a span (calls, self time) and, for a few functions, work counters.
Self time is a span's duration minus the time covered by its child spans,
so recursion such as power -> __mul__ -> minimalize is counted once.

Spans live on one stack.  That is correct while one thread at a time runs
package code, which holds here: the CLI's verify command runs its checks
on a single worker thread while the calling thread waits for it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "monomial",
    "filtration",
    "multiplicity",
    "polytope",
    "linalg",
    "okounkov",
    "components",
    "serialize",
    "cli",
)

# Public methods traced as spans, by layer and class.  Module-level public
# functions are found automatically; methods are listed because many small
# accessors (membership tests, dataclass helpers) would cost more to time
# than they take.
METHODS = {
    "monomial": {
        "MonomialIdeal": ("__mul__", "__add__", "power", "colength", "covolume",
                          "newton_vertices", "contains_ideal"),
    },
    "filtration": {"Filtration": ("ideal_at",)},
}

# Aliases used in metric names for methods.
ALIASES = {"__mul__": "mul", "__add__": "add"}

# Functions reported one by one: self time for all, call counts for some.
# One that no longer exists is listed as missing and its metrics read 0.
SELF_TIMED = (
    "monomial.mul", "monomial.minimalize", "monomial.power", "monomial.colength",
    "monomial.covolume", "filtration.noetherian_period",
    "multiplicity.product_ideal_at", "multiplicity.exact_growth",
    "multiplicity.fit_homogeneous", "multiplicity.limit_estimate",
    "polytope.orthant_extremes", "polytope.hull", "polytope.volume",
    "polytope.minkowski_sum", "linalg.lp_feasible", "linalg.solve_linear",
    "okounkov.value_semigroup", "okounkov.body", "components.component_growth",
    "components.component_mixed", "serialize.model_from_json", "cli.main",
)
COUNTED = ("filtration.ideal_at", "filtration.noetherian_period", "linalg.lp_feasible")


def _materialize(xs):
    return xs if isinstance(xs, (list, tuple, set, frozenset)) else list(xs)


class Tracer:
    """Installs span wrappers into the package and accumulates statistics.

    ``stats[(tag, name)]`` holds [calls, self seconds]; ``counts[(tag,
    name)]`` holds work counters.  ``tag`` is set by the caller per item so
    one run can be split by item kind.
    """

    def __init__(self) -> None:
        self.stats: dict = defaultdict(lambda: [0, 0.0])
        self.counts: dict = defaultdict(int)
        self.tag = "item"
        self._stack: list[float] = [0.0]
        self._undo: list = []
        self.wrapped: dict[str, object] = {}  # metric name -> original function
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def item(self, fn, *args):
        """Run one top-level item as the root span of its tag."""
        return self._span("item", fn, None, args, {})

    def _span(self, name, fn, hook, args, kwargs):
        perf = time.perf_counter
        stack = self._stack
        stack.append(0.0)
        t0 = perf()
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(self, fn, args, kwargs)
        finally:
            dt = perf() - t0
            child = stack.pop()
            st = self.stats[(self.tag, name)]
            st[0] += 1
            st[1] += dt - child
            stack[-1] += dt

    def _count(self, name, key, n):
        self.counts[(self.tag, f"{name}.{key}")] += n

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {}
        for name in LAYERS:
            try:
                mods[name] = importlib.import_module(f"filtmult.{name}")
            except ModuleNotFoundError:
                pass  # a removed layer reads 0, and its functions are listed as missing
        targets = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[obj] = f"{layer}.{attr}"
        sites = [m for n, m in list(sys.modules.items()) if n == "filtmult" or n.startswith("filtmult.")]
        for fn, name in targets.items():
            wrapper = self._wrapper(name, fn)
            self.wrapped[name] = fn
            for mod in sites:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
        for layer, classes in METHODS.items():
            for cls_name, meths in classes.items():
                cls = getattr(mods.get(layer), cls_name, None)
                for meth in meths:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is None:
                        continue
                    name = f"{layer}.{ALIASES.get(meth, meth)}"
                    self.wrapped[name] = fn
                    setattr(cls, meth, self._wrapper(name, fn))
                    self._undo.append((cls, meth, fn))
        # Level computations (memo misses) are counted, not timed: every
        # ideal_at call that is not answered from the memo calls _level once.
        base = getattr(mods.get("filtration"), "Filtration", None)
        for cls in _subclasses(base) if base is not None else ():
            fn = vars(cls).get("_level")
            if fn is not None:
                setattr(cls, "_level", self._counter("filtration.ideal_at", "misses", fn))
                self._undo.append((cls, "_level", fn))
        self.missing = [n for n in dict.fromkeys(SELF_TIMED + COUNTED) if n not in self.wrapped]

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _counter(self, name, key, fn):
        def counted(*args, **kwargs):
            self._count(name, key, 1)
            return fn(*args, **kwargs)

        return counted

    def _wrapper(self, name, fn):
        hook = HOOKS.get(name)
        span = self._span

        def traced(*args, **kwargs):
            return span(name, fn, hook, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- reporting ----------------------------------------------------------

    def totals(self, tags=None):
        """Sum statistics over the given tags (all when None)."""
        stats = defaultdict(lambda: [0, 0.0])
        counts = defaultdict(int)
        for (tag, name), (calls, self_s) in self.stats.items():
            if tags is None or tag in tags:
                stats[name][0] += calls
                stats[name][1] += self_s
        for (tag, name), n in self.counts.items():
            if tags is None or tag in tags:
                counts[name] += n
        return stats, counts

    def layer_table(self, tags=None):
        """{layer: (calls, self_s)} plus the benchmark's own item time."""
        stats, _ = self.totals(tags)
        table = {layer: [0, 0.0] for layer in LAYERS + ("bench",)}
        for name, (calls, self_s) in stats.items():
            layer = "bench" if name == "item" else name.split(".")[0]
            table[layer][0] += calls if layer != "bench" else 0
            table[layer][1] += self_s
        return table

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, per completed pass."""
        stats, counts = self.totals()
        table = self.layer_table()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (table[layer][0] / passes, "count")
            out[f"{layer}.self_s"] = (table[layer][1] / passes, "s")

        def ratio(key, num, den):
            d = counts[den] if isinstance(den, str) else den
            out[key] = ((counts[num] / d) if d else 0.0, "ratio")

        for name in SELF_TIMED:
            out[f"{name}.self_s"] = (stats[name][1] / passes, "s")
        for name in COUNTED:
            out[f"{name}.calls"] = (stats[name][0] / passes, "count")
        out["monomial.mul.pairs"] = (counts["monomial.mul.pairs"] / passes, "count")
        out["monomial.minimalize.in_gens"] = (
            counts["monomial.minimalize.in"] / passes, "count")
        ratio("monomial.minimalize.keep_ratio", "monomial.minimalize.out",
              "monomial.minimalize.in")
        ideal_at_calls = stats["filtration.ideal_at"][0]
        misses = counts["filtration.ideal_at.misses"]
        out["filtration.ideal_at.hit_ratio"] = (
            1 - misses / ideal_at_calls if ideal_at_calls else 0.0, "ratio")
        ratio("polytope.orthant_extremes.keep_ratio", "polytope.orthant_extremes.out",
              "polytope.orthant_extremes.in")
        out["polytope.hull.in_pts"] = (counts["polytope.hull.in"] / passes, "count")
        ratio("linalg.lp_feasible.feasible_ratio", "linalg.lp_feasible.feasible",
              stats["linalg.lp_feasible"][0])
        return out


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# Work counters: each hook calls the original and records what it saw.


def _hook_mul(tr, fn, args, kwargs):
    a, b = args[0], args[1]
    tr._count("monomial.mul", "pairs", len(a.gens) * len(b.gens))
    return fn(*args, **kwargs)


# The hooks below read the point set from the first positional argument
# (second for hull), which is how every caller in the package passes it.


def _hook_minimalize(tr, fn, args, kwargs):
    gens = _materialize(args[0])
    out = fn(gens, *args[1:], **kwargs)
    tr._count("monomial.minimalize", "in", len(gens))
    tr._count("monomial.minimalize", "out", len(out))
    return out


def _hook_orthant_extremes(tr, fn, args, kwargs):
    pts = _materialize(args[0])
    out = fn(pts, *args[1:], **kwargs)
    tr._count("polytope.orthant_extremes", "in", len(set(map(tuple, pts))))
    tr._count("polytope.orthant_extremes", "out", len(out))
    return out


def _hook_hull(tr, fn, args, kwargs):
    pts = _materialize(args[1])
    tr._count("polytope.hull", "in", len(pts))
    return fn(args[0], pts, *args[2:], **kwargs)


def _hook_lp_feasible(tr, fn, args, kwargs):
    ok = fn(*args, **kwargs)
    if ok:
        tr._count("linalg.lp_feasible", "feasible", 1)
    return ok


HOOKS = {
    "monomial.mul": _hook_mul,
    "monomial.minimalize": _hook_minimalize,
    "polytope.orthant_extremes": _hook_orthant_extremes,
    "polytope.hull": _hook_hull,
    "linalg.lp_feasible": _hook_lp_feasible,
}
