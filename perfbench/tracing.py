"""Per-layer tracing installed from outside the package.

Each traced callable is replaced, wherever a module of the package binds it,
by a wrapper that times the call and books it to a per-function record.  The
benchmark installs the wrappers only for its traced passes and restores the
originals afterwards, so untraced passes run the package exactly as shipped.

Spans are aggregated as they close rather than stored one by one: the
`catalog-neg` window alone opens over 200k `Form.represent` spans per pass.
A span's self time is its duration minus the time covered by its child spans;
its inclusive time is booked only at the outermost level of a recursion
(`Form.represent` on a negative definite form calls itself once).
"""

from __future__ import annotations

import functools
import time

# (metric prefix, module, attribute); "Class.method" attributes are patched on
# the class, plain functions in every module namespace that binds them (cli,
# for one, imports semigroup_probe, full_classification, reduced_forms and
# order3_verdict into its own globals).
TARGETS = (
    ("forms.represent", "forms", "Form.represent"),
    ("forms.reduce", "forms", "Form.reduce"),
    ("forms.semigroup_probe", "forms", "semigroup_probe"),
    ("forms.reduced_forms", "forms", "reduced_forms"),
    ("classify.minus_minus_witnesses", "classify", "minus_minus_witnesses"),
    ("classify.search_plus", "classify", "search_plus"),
    ("classify.full_classification", "classify", "full_classification"),
    ("classify.order3_verdict", "classify", "order3_verdict"),
    ("pairings.is_normed", "pairings", "is_normed"),
    ("pairings.type_of", "pairings", "type_of"),
    ("trigroup.bracket_is_multiplicative", "trigroup", "bracket_is_multiplicative"),
    ("trigroup.anchored_pairings", "trigroup", "anchored_pairings"),
    ("matembed.induced_pairing", "matembed", "induced_pairing"),
    ("matembed.canonicalize", "matembed", "canonicalize"),
    ("lattices.Lattice.mul", "lattices", "Lattice.__mul__"),
    ("lattices.Lattice.is_principal", "lattices", "Lattice.is_principal"),
    ("lattices.Lattice.is_ideal_of", "lattices", "Lattice.is_ideal_of"),
    ("lattices.embed_form", "lattices", "embed_form"),
    ("cli.main", "cli", "main"),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "errors", "depth", "hits", "pairs", "products")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.depth = 0
        self.hits = 0
        self.pairs = 0
        self.products = 0


def _count_found(stat: Stat, result) -> None:
    stat.hits += result is not None


def _count_witnessed(stat: Stat, result) -> None:
    stat.hits += bool(result[0])


def _count_probe(stat: Stat, report) -> None:
    stat.pairs += report.pairs_checked
    stat.products += report.products_checked


OBSERVERS = {
    "forms.represent": _count_found,
    "classify.minus_minus_witnesses": _count_witnessed,
    "forms.semigroup_probe": _count_probe,
}


class Tracer:
    """Aggregated spans of every traced callable, kept in memory."""

    def __init__(self) -> None:
        self.stats = {name: Stat() for name, _, _ in TARGETS}
        # child-time accumulators of the open spans; entry 0 is the caller
        # outside every traced function
        self._open = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    @property
    def covered_s(self) -> float:
        """Time spent inside outermost traced spans."""
        return self._open[0]

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        observe = OBSERVERS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - open_spans.pop()
                open_spans[-1] += elapsed
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += elapsed
            if observe is not None:
                observe(stat, result)
            return result

        return traced

    def install(self, package) -> None:
        namespaces = package.namespaces()
        for name, module_name, attr in TARGETS:
            module = getattr(package, module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapped)

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float,
                  overhead_s: float) -> dict[str, dict]:
    """Per-layer metrics, normalised to one pass over the workload's inputs."""
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name, stat in tracer.stats.items():
        put(f"{name}.calls", stat.calls / passes, "count")
        put(f"{name}.self_s", stat.self_s / passes, "s")
        put(f"{name}.errors", stat.errors, "count")
        put(f"{name}.share", stat.total_s / traced_wall_s, "ratio")
    represent = tracer.stats["forms.represent"]
    put("forms.represent.hit_ratio", _ratio(represent.hits, represent.calls), "ratio")
    probe = tracer.stats["forms.semigroup_probe"]
    put("forms.semigroup_probe.reuse_ratio",
        1 - probe.products / probe.pairs if probe.pairs else 0.0, "ratio")
    witnesses = tracer.stats["classify.minus_minus_witnesses"]
    put("classify.minus_minus_witnesses.hit_ratio",
        _ratio(witnesses.hits, witnesses.calls), "ratio")
    for module in dict.fromkeys(module for _, module, _ in TARGETS):
        self_s = sum(stat.self_s for name, stat in tracer.stats.items()
                     if name.startswith(module + "."))
        put(f"{module}.self_share", self_s / traced_wall_s, "ratio")
    put("trace.other_share", 1 - tracer.covered_s / traced_wall_s, "ratio")
    put("trace.overhead_s", overhead_s, "s")
    return metrics


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
