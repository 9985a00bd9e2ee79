"""Outside-in tracing for the benchmark's traced run.

The tracer wraps the functions of each ``spikelab`` layer from outside the
package: it replaces each function in every ``spikelab`` module namespace
that holds it (``cli`` calls ``signature`` through its own
``from .spikes import signature``), and a few methods on their classes.
Nothing in the package changes; ``uninstall`` puts the originals back.

Every call is charged to its function as calls and self time, the call's
duration minus the time its traced callees cover.  Job, ``cli`` and entry
point calls (those made by ``cli.dispatch``) are also kept one by one as
spans: name, start, end, parent span and job id.  Hot leaves such as
``PrimeField.inv`` run about a million times per job list, so they get only
the aggregate.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "spikes", "represent", "zerosum", "matrix", "field", "bitsets")

# private helpers that own a phase a layer metric names
PRIVATE = {
    "cli": ("_emit",),
    "spikes": ("_enumerate_orbits",),
    "represent": ("_packed_sig_rows", "_decode_diagonals", "_class_certificate"),
    "zerosum": ("_reach_history",),
}

# index helpers called once per subset; wrapping them would cost more than they do
SKIP = {"spikes.as_mask", "bitsets.popcount"}

# hot functions that call nothing traced: a cheaper wrapper keeps calls and
# time only, which halves the overhead charged to their callers
LEAVES = {"field.PrimeField.inv", "bitsets.indices_from_mask", "zerosum._reach_history"}

METHODS = {
    ("field", "PrimeField", "__init__"): "field.PrimeField",
    ("field", "PrimeField", "inv"): "field.PrimeField.inv",
    ("matrix", "MatrixGF", "rank"): "matrix.MatrixGF.rank",
    ("matrix", "MatrixGF", "det"): "matrix.MatrixGF.det",
    ("matrix", "MatrixGF", "inverse"): "matrix.MatrixGF.inverse",
}


def _closure(t: "Tracer", args: tuple, result) -> None:
    t.counts["spikes.swap_closure.members"] += len(result)
    t.last_closure = len(result)


def _orbit(t: "Tracer", args: tuple, result) -> None:
    t.counts["spikes.orbit.tuples"] += len(result)
    # orbit() permutes every member of the closure it just computed
    t.counts["spikes.orbit.generated"] += t.last_closure * math.factorial(len(args[0].x))


def _audit_rows(t: "Tracer", args: tuple, result) -> None:
    rows, n = args[1].shape
    t.counts["represent.audit.rows"] += rows
    t.counts["represent.audit.bytes_computed"] += rows * (1 << n) * 2  # int16 subset sums


def _count(key: str, of):
    def post(t: "Tracer", args: tuple, result) -> None:
        t.counts[key] += of(result)

    return post


# the functions layer_metrics reads; a refactor that removes one is listed,
# not fatal, and its time then shows in its caller's self time
REQUIRED = (
    "cli.main", "cli.build_parser", "cli._emit", "cli.dispatch",
    "field.PrimeField", "field.PrimeField.inv",
    "spikes.signature", "spikes.swap", "spikes.swap_closure", "spikes.orbit",
    "spikes.canonical_form", "spikes.spike_census",
    "represent.propagate_facts", "represent.build_certificate", "represent.search_rep",
    "represent._packed_sig_rows", "represent.uniqueness_audit",
    "zerosum.verify_lemma_2_1", "zerosum.verify_lemma_2_2", "zerosum._reach_history",
    "matrix.MatrixGF.rank", "matrix.MatrixGF.det", "matrix.verify_det_identity",
    "bitsets.indices_from_mask",
)

POST = {
    "spikes.swap_closure": _closure,
    "spikes.orbit": _orbit,
    "represent.propagate_facts": _count("represent.propagate_facts.facts", len),
    "represent.build_certificate": _count("represent.build_certificate.hits",
                                          lambda r: r is not None),
    "represent.search_rep": _count("represent.search_rep.nodes", lambda r: r[1]),
    "represent._packed_sig_rows": _audit_rows,
    "zerosum.verify_lemma_2_1": _count("zerosum.checked", lambda r: r["checked"]),
    "zerosum.verify_lemma_2_2": _count("zerosum.checked", lambda r: r["checked"]),
}


class Tracer:
    """Aggregates and spans for one traced pass over a job list."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open calls: [name, start, child time, span index]
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.raised: Counter = Counter()  # (name, exception type) -> calls
        self.spans: list[list] = []  # [name, start, end, parent span, job]
        self.job = -1
        self.last_closure = 0
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, post=None):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        stack, calls, self_time = self.stack, self.calls, self.self_time
        edges, spans, raised = self.edges, self.spans, self.raised
        always_span = name == "job" or name.startswith("cli.")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if always_span or (parent is not None and parent[0] == "cli.dispatch"):
                up = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                span = len(spans)
                spans.append([name, 0.0, 0.0, up, self.job])
            frame = [name, 0.0, 0.0, span]
            stack.append(frame)
            t0 = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_time[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    edges[parent[0], name] += 1
                if span >= 0:
                    spans[span][1] = t0
                    spans[span][2] = t1
            if post is not None:
                post(self, args, result)
            return result

        return traced

    def _wrap_leaf(self, name: str, fn):
        stack, calls, self_time = self.stack, self.calls, self.self_time

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                calls[name] += 1
                self_time[name] += dur
                if stack:
                    stack[-1][2] += dur

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer, the PRIVATE helpers and METHODS."""
        found: dict[int, tuple] = {}  # id -> (function, its wrapper)
        wrapped = set()
        for layer in LAYERS:
            mod = importlib.import_module(f"spikelab.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))
                    and not inspect.isgeneratorfunction(obj)
                    and name not in SKIP
                ):
                    found[id(obj)] = (obj, self.wrap(name, obj, POST.get(name)))
                    wrapped.add(name)
        for modname, mod in list(sys.modules.items()):
            if modname == "spikelab" or modname.startswith("spikelab."):
                for attr, obj in list(vars(mod).items()):
                    hit = found.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(mod, attr, hit[1])
        for (layer, cls, meth), name in METHODS.items():
            owner = getattr(importlib.import_module(f"spikelab.{layer}"), cls, None)
            fn = vars(owner).get(meth) if owner is not None else None
            if fn is not None:
                self._patch(owner, meth, self.wrap(name, fn, POST.get(name)))
                wrapped.add(name)
        self.absent = sorted(n for n in REQUIRED if n not in wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``*.self_s`` values are seconds of self time over the whole job list;
    ``cli.*.self_ms`` are milliseconds of self time per ``cli.main`` call.
    ``field.inv`` is ``PrimeField.inv``; ``matrix.rank`` and ``matrix.det``
    are the ``MatrixGF`` methods, which the module-level functions call.
    """
    c, s, k = t.calls, t.self_time, t.counts
    jobs = c["cli.main"]
    nodes = k["represent.search_rep.nodes"]
    m = {
        "cli.build_parser.self_ms": (_ratio(s["cli.build_parser"], jobs) * 1e3, "ms"),
        "cli.emit.self_ms": (_ratio(s["cli._emit"], jobs) * 1e3, "ms"),
        "cli.main.self_ms": (_ratio(s["cli.main"], jobs) * 1e3, "ms"),
        "field.inv.calls": (c["field.PrimeField.inv"], "count"),
        "field.inv.self_s": (s["field.PrimeField.inv"], "s"),
        "field.PrimeField.calls": (c["field.PrimeField"], "count"),
        "spikes.signature.calls": (c["spikes.signature"], "count"),
        "spikes.signature.self_s": (s["spikes.signature"], "s"),
        "spikes.swap.calls": (c["spikes.swap"], "count"),
        "spikes.swap.self_s": (s["spikes.swap"], "s"),
        "spikes.swap_closure.calls": (c["spikes.swap_closure"], "count"),
        "spikes.swap_closure.self_s": (s["spikes.swap_closure"], "s"),
        "spikes.swap_closure.members": (k["spikes.swap_closure.members"], "count"),
        "spikes.swap_closure.useful_ratio": (
            _ratio(k["spikes.swap_closure.members"], t.edges["spikes.swap_closure", "spikes.swap"]),
            "ratio",
        ),
        "spikes.orbit.tuples": (k["spikes.orbit.tuples"], "count"),
        "spikes.orbit.useful_ratio": (
            _ratio(k["spikes.orbit.tuples"], k["spikes.orbit.generated"]), "ratio"
        ),
        "spikes.orbit.self_s": (s["spikes.orbit"], "s"),
        "spikes.canonical_form.self_s": (s["spikes.canonical_form"], "s"),
        "spikes.spike_census.self_s": (s["spikes.spike_census"], "s"),
        "represent.propagate_facts.calls": (c["represent.propagate_facts"], "count"),
        "represent.propagate_facts.facts": (k["represent.propagate_facts.facts"], "count"),
        "represent.propagate_facts.self_s": (s["represent.propagate_facts"], "s"),
        "represent.build_certificate.calls": (c["represent.build_certificate"], "count"),
        "represent.build_certificate.hit_ratio": (
            _ratio(k["represent.build_certificate.hits"], c["represent.build_certificate"]),
            "ratio",
        ),
        "represent.build_certificate.self_s": (s["represent.build_certificate"], "s"),
        "represent.search_rep.calls": (c["represent.search_rep"], "count"),
        "represent.search_rep.nodes": (nodes, "count"),
        "represent.search_rep.nodes_per_s": (_ratio(nodes, s["represent.search_rep"]), "1/s"),
        "represent.search_rep.self_s": (s["represent.search_rep"], "s"),
        "represent.search_rep.budget_exhausted": (
            t.raised["represent.search_rep", "BudgetExceededError"], "count"
        ),
        "represent.audit.sum_s": (s["represent._packed_sig_rows"], "s"),
        "represent.audit.dedupe_s": (s["represent.uniqueness_audit"], "s"),
        "represent.audit.rows": (k["represent.audit.rows"], "count"),
        "represent.audit.bytes_computed": (k["represent.audit.bytes_computed"], "B"),
        "zerosum.verify_lemma_2_1.self_s": (s["zerosum.verify_lemma_2_1"], "s"),
        "zerosum.verify_lemma_2_2.self_s": (s["zerosum.verify_lemma_2_2"], "s"),
        "zerosum.checked": (k["zerosum.checked"], "count"),
        "zerosum.reach_history.calls": (c["zerosum._reach_history"], "count"),
        "matrix.rank.calls": (c["matrix.MatrixGF.rank"], "count"),
        "matrix.rank.self_s": (s["matrix.MatrixGF.rank"], "s"),
        "matrix.det.calls": (c["matrix.MatrixGF.det"], "count"),
        "matrix.verify_det_identity.self_s": (s["matrix.verify_det_identity"], "s"),
        "bitsets.indices_from_mask.calls": (c["bitsets.indices_from_mask"], "count"),
    }
    return m


# units whose values must repeat exactly between two traced passes
COUNT_UNITS = ("count", "ratio", "B")
