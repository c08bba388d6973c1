"""Per-function timing of tropreal from outside the library.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers at every place the ``tropreal`` modules bind them (a module-level
``from .x import f`` makes a second binding, and calls go through the
binding of the calling module), and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

For each target it records calls, inclusive time (outermost calls only,
so recursion is not counted twice) and self time (inclusive time minus
the time of wrapped calls made from inside it), plus a few result-derived
counters used for ratios.  Wrappers record only while ``enabled`` is set,
so oracles evaluated between operations do not show up in the numbers.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

PACKAGE = "tropreal"
_MISSING = object()


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    depth: int = 0
    counters: dict = field(default_factory=dict)

    def bump(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _count_true(key):
    def hook(stat, args, result):
        stat.bump(key, 1 if result else 0)
    return hook


def _witness_found(stat, args, result):
    stat.bump("found", 0 if result is None else 1)


def _pieces_out(stat, args, result):
    stat.bump("pieces_out", len(result))


def _kept(stat, args, result):
    stat.bump("pieces_in", len(args[0]))
    stat.bump("pieces_kept", len(result))


def _eps_steps(stat, args, result):
    # epsilon runs through 1, 1/2, 1/3, ...; the loop only runs on samples
    stat.bump("eps_steps", result.epsilon.denominator if result.samples_checked else 0)


# (module, attribute path, metric key, result hook); the metric key is the
# ``<module>.<function>`` prefix of the per-layer metric names.
TARGETS = [
    ("hyperfields", "rt_mul", "hyperfields.rt_mul", None),
    ("hyperfields", "rt_sum", "hyperfields.rt_sum", None),
    ("hyperfields", "hv_relation", "hyperfields.hv_relation", None),
    ("puiseux", "PuiseuxSeries.__mul__", "puiseux.series_mul", None),
    ("puiseux", "PuiseuxSeries.__pow__", "puiseux.series_pow", None),
    ("puiseux", "PuiseuxSeries.__add__", "puiseux.series_add", None),
    ("puiseux", "ps_sample", "puiseux.ps_sample", None),
    ("troppoly", "eval_k", "troppoly.eval_k", None),
    ("troppoly", "laurent_sign", "troppoly.laurent_sign", None),
    ("troppoly", "trop_eval", "troppoly.trop_eval", None),
    ("polyhedra", "poly_is_empty", "polyhedra.poly_is_empty", _count_true("empty")),
    ("polyhedra", "piece_minus_union_is_empty", "polyhedra.piece_minus_union_is_empty", None),
    ("polyhedra", "prune_covered_pieces", "polyhedra.prune_covered_pieces", _kept),
    ("polyhedra", "enumerate_cells", "polyhedra.enumerate_cells", None),
    ("polyhedra", "complement_of_union", "polyhedra.complement_of_union", _pieces_out),
    ("polyhedra", "trop_region", "polyhedra.trop_region", None),
    ("polyhedra", "union_prune", "polyhedra.union_prune", None),
    ("polyhedra", "union_subset", "polyhedra.union_subset", None),
    ("semialg", "sa_member", "semialg.sa_member", _count_true("accepted")),
    ("semialg", "collect_samples", "semialg.collect_samples", None),
    ("semialg", "lift_inequality", "semialg.lift_inequality", _eps_steps),
    ("semialg", "finite_basis", "semialg.finite_basis", None),
    ("semialg", "witness_search", "semialg.witness_search", _witness_found),
    ("semialg", "sa_outer_all", "semialg.sa_outer_all", None),
    ("cli", "main", "cli.main", None),
]

# every public function of iojson is traced and summed into one layer
IOJSON_KEY = "iojson"


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _bindings():
    """Every module attribute and class member of the package, by qualified name."""
    for module in _package_modules():
        for name, value in vars(module).items():
            yield f"{module.__name__}.{name}", value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    yield f"{module.__name__}.{name}.{attr}", member


def snapshot() -> dict:
    return dict(_bindings())


def changed_bindings(before: dict) -> list[str]:
    """Qualified names whose binding differs from the snapshot `before`."""
    now = snapshot()
    return sorted(
        name for name in before.keys() | now.keys()
        if before.get(name, _MISSING) is not now.get(name, _MISSING)
    )


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._sites: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _targets(self):
        for mod_name, path, key, hook in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            yield owner, attr, key, hook
        iojson = sys.modules[f"{PACKAGE}.iojson"]
        for name, fn in sorted(vars(iojson).items()):
            if (
                not name.startswith("_")
                and callable(fn)
                and getattr(fn, "__module__", None) == iojson.__name__
                and not isinstance(fn, type)
            ):
                yield iojson, name, IOJSON_KEY, None

    def install(self) -> None:
        if self._sites:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for owner, attr, key, hook in self._targets():
            original = vars(owner)[attr]
            stat = self.stats.setdefault(key, Stat())
            wrapper = self._wrap(original, stat, hook)
            if isinstance(owner, type):
                # methods are looked up on the class: one site
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._sites.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._sites):
            setattr(owner, name, original)
        self._sites.clear()
        self.enabled = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, stat: Stat, hook):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.depth -= 1
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.self_time += dt - frame[0]
                if stat.depth == 0:
                    stat.total += dt
            if hook is not None:
                hook(stat, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper
