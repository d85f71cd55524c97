"""Outside-in tracing: spans around the public functions of each layer.

``install`` replaces the public functions and methods listed in ``LAYERS``
with wrappers that time each call; ``uninstall`` puts the originals back.
Nothing in ``src/`` is edited.  Each wrapper pushes a frame on one stack,
so a span knows its parent span and a parent learns how much of its own
interval its children covered: self time is duration minus child time,
which stays right when a wrapped function recurses into itself.

Hot boundaries run about a million times per sweep, so spans are
aggregated per (parent function, function) pair.  Full records (id,
parent id, name, start, end) are kept only for the benchmark's own calls
into a layer and their direct children, up to ``keep`` of them.

cProfile is not used: it charges every Python call, layer or not, and so
distorts the split between the state layer and the kernel.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

ENGINE_METHODS = (
    "__init__",
    "intern",
    "left_options",
    "right_options",
    "node_count",
    "birthday",
    "leq",
    "compare",
    "outcome",
    "remove_dominated",
    "bypass_reversible",
    "canonical_form",
    "number_position",
    "star",
    "as_number",
    "classify_value",
    "in_pair_set",
    "left_stop",
    "right_stop",
    "simplest_between",
)

# layer -> (module, class or None, function names); methods are wrapped on
# the class, so instance calls and recursion both go through the wrapper
LAYERS = {
    "yashima.state": (
        ("diamondcgt.yashima", None, (
            "legal_moves", "move_descriptors", "apply_move", "is_legal",
            "color_class", "commuting_violation",
        )),
        ("diamondcgt.yashima", "MultiGraph", ("__init__",)),
        ("diamondcgt.yashima", "YashimaState", ("__init__",)),
    ),
    "yashima.solver": (
        ("diamondcgt.yashima", "YashimaSolver", (
            "to_game", "tree_size", "reachable_states", "solve_stats",
        )),
        ("diamondcgt.yashima", None, ("verify_bipartite_simplicity",)),
    ),
    "engine": (("diamondcgt.engine", "Engine", ENGINE_METHODS),),
    "diamond": (
        ("diamondcgt.diamond", None, (
            "guide_options", "has_diamond", "has_property", "verify_closed_set",
        )),
    ),
    "notation": (
        ("diamondcgt.notation", None, (
            "parse_position", "format_value", "format_canonical", "format_position",
        )),
    ),
    "graphio": (("diamondcgt.graphio", None, ("parse_graph",)),),
}

ENGINE_LAYER = "engine"


class Tracer:
    """Span stack, per-pair aggregates and a bounded list of full spans.

    ``aggregate`` maps (parent name or None, name) to [calls, self seconds,
    total seconds].  ``grown`` maps an engine function to the store nodes
    that calls from outside the engine layer added, so their sum is the
    node count of every engine at the end of the run.
    """

    def __init__(self, clock=time.perf_counter, keep: int = 20_000):
        self.clock = clock
        self.keep = keep
        self.stack: list = []
        self.aggregate: dict = {}
        self.spans: list = []
        self.dropped = 0
        self.grown: dict = {}
        self.layer_of: dict = {}
        self.on = True
        self._next_id = 1
        self._patched: list = []

    def wrap(self, layer: str, name: str, fn):
        """A wrapper timing every call of fn as a span called name."""
        self.layer_of[name] = layer
        stack = self.stack
        aggregate = self.aggregate
        clock = self.clock
        engine = layer == ENGINE_LAYER
        layer_of = self.layer_of
        grown = self.grown

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            # nodes are counted at the outermost engine call only, since
            # engine calls nested in it add their nodes within its interval
            count_nodes = engine and (
                parent is None or layer_of[parent[0]] != ENGINE_LAYER
            )
            if count_nodes:
                before = 0 if name.endswith("__init__") else len(args[0].store)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (parent[0] if parent else None, name)
                rec = aggregate.get(key)
                if rec is None:
                    rec = aggregate[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration - frame[2]
                rec[2] += duration
                if parent is not None:
                    parent[2] += duration
                if len(stack) <= 1:
                    if len(self.spans) < self.keep:
                        self.spans.append(
                            (span_id, parent[3] if parent else 0, name, start, end)
                        )
                    else:
                        self.dropped += 1
                if count_nodes:
                    grown[name] = grown.get(name, 0) + len(args[0].store) - before

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every function in LAYERS in place; undone by uninstall."""
        for layer, groups in LAYERS.items():
            for module_name, class_name, names in groups:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                prefix = class_name or module_name.rsplit(".", 1)[-1]
                for fn_name in names:
                    original = owner.__dict__[fn_name]
                    span = self.wrap(layer, "%s.%s" % (prefix, fn_name), original)
                    setattr(owner, fn_name, span)
                    self._patched.append((owner, fn_name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, fn_name, original = self._patched.pop()
            setattr(owner, fn_name, original)

    def dump(self) -> dict:
        return {
            "layer_of": self.layer_of,
            "aggregate": [
                [parent, name, rec[0], rec[1], rec[2]]
                for (parent, name), rec in sorted(
                    self.aggregate.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "grown": self.grown,
        }


def layer_metrics(dump: dict) -> dict:
    """Per-layer calls and self time, plus the derived counts, from a dump.

    A layer with no calls reports zeros, and so does a ratio whose base is
    zero.
    """
    layer_of = dump["layer_of"]
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for _parent, name, n, self_s, _total in dump["aggregate"]:
        entry = totals.setdefault(layer_of[name], [0, 0.0])
        entry[0] += n
        entry[1] += self_s

    def count(name, parent=None):
        return sum(
            n
            for p, nm, n, _self, _total in dump["aggregate"]
            if nm == name and (parent is None or p == parent)
        )

    out = {}
    for layer, (n, self_s) in totals.items():
        out[layer + ".calls"] = n
        out[layer + ".self_s"] = self_s
    to_game = count("YashimaSolver.to_game")
    distinct = count("Engine.intern", "YashimaSolver.to_game")
    interns = count("Engine.intern")
    out["yashima.state.graphs_built"] = count("MultiGraph.__init__")
    out["yashima.state.successors"] = count("yashima.apply_move", "yashima.legal_moves")
    out["yashima.solver.distinct_states"] = distinct
    out["yashima.solver.memo_hit_ratio"] = 1 - distinct / to_game if to_game else 0.0
    out["engine.nodes"] = sum(dump["grown"].values())
    out["engine.intern_new_ratio"] = (
        dump["grown"].get("Engine.intern", 0) / interns if interns else 0.0
    )
    return out


@contextlib.contextmanager
def paused(tracer: Tracer | None):
    """Run a block untraced, e.g. the formatting done only for the checks."""
    if tracer is None:
        yield
        return
    tracer.on = False
    try:
        yield
    finally:
        tracer.on = True
