"""Spans and counts recorded around the package's layers, from outside it.

For a traced run, `install` replaces each function or operator listed in
TARGETS by a wrapper: in every `leonard` module namespace that binds the
original (so `search.certify` and `duality.nu_scalars` are covered along with
`systems.certify` and `systems.nu_scalars`), or on the class for methods.
`Installed.close` puts every original back.  Nothing under `src/` changes.

A wrapper records a span (id, name, start, end, parent span, op id) and
counts.  Scalar-level functions of the `fields` layer run thousands of times
per call, so their wrappers record only counts and time, and hand that time
to the enclosing span as child time.  A layer's self time is the time of its
spans minus the time of their direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" attributes are patched on the class.
TARGETS = (
    ("leonard.cli", "main", "cli.main"),
    ("leonard.fields", "Field.invert", "fields.invert"),
    ("leonard.fields", "Field.encode_scalar", "fields.codec"),
    ("leonard.fields", "Field.decode_scalar", "fields.codec"),
    ("leonard.linalg", "Matrix.__mul__", "linalg.mul"),
    ("leonard.linalg", "Matrix.__add__", "linalg.elementwise"),
    ("leonard.linalg", "Matrix.__sub__", "linalg.elementwise"),
    ("leonard.linalg", "Matrix.scale", "linalg.elementwise"),
    ("leonard.linalg", "Matrix.transpose", "linalg.elementwise"),
    ("leonard.linalg", "Matrix.inverse", "linalg.elim"),
    ("leonard.linalg", "Matrix.solve", "linalg.elim"),
    ("leonard.linalg", "Matrix.rank", "linalg.elim"),
    ("leonard.linalg", "Matrix.nullspace", "linalg.elim"),
    ("leonard.linalg", "Matrix.rref", "linalg.elim"),
    ("leonard.linalg", "Matrix.column_space_basis", "linalg.elim"),
    ("leonard.linalg", "lagrange_idempotent", "linalg.lagrange_idempotent"),
    ("leonard.linalg", "eval_root_product", "linalg.eval_root_product"),
    ("leonard.linalg", "intersect_column_spaces", "linalg.intersect_column_spaces"),
    ("leonard.linalg", "transition_matrix", "linalg.transition_matrix"),
    ("leonard.linalg", "same_column_space", "linalg.same_column_space"),
    ("leonard.systems", "LeonardSystem.from_pair", "systems.from_pair"),
    ("leonard.systems", "build_system", "systems.build_system"),
    ("leonard.systems", "verify_axioms", "systems.verify_axioms"),
    ("leonard.systems", "extract_parameter_array", "systems.extract_parameter_array"),
    ("leonard.systems", "certify", "systems.certify"),
    ("leonard.systems", "solve_gram", "systems.solve_gram"),
    ("leonard.systems", "standard_identity_suite", "systems.standard_identity_suite"),
    ("leonard.systems", "split_projectors", "systems.split_projectors"),
    ("leonard.systems", "split_projectors_by_intersection", "systems.split_projectors_by_intersection"),
    ("leonard.systems", "nu_scalars", "systems.nu_scalars"),
    ("leonard.systems", "trace_products", "systems.trace_products"),
    ("leonard.systems", "trace_products_closed_form", "systems.trace_products_closed_form"),
    ("leonard.duality", "choose_anchor_vectors", "duality.choose_anchor_vectors"),
    ("leonard.duality", "build_duality_bundle", "duality.build_duality_bundle"),
    ("leonard.duality", "verify_duality_suite", "duality.verify_duality_suite"),
    ("leonard.duality", "verify_geometry_suite", "duality.verify_geometry_suite"),
    ("leonard.duality", "build_flag", "duality.build_flag"),
    ("leonard.duality", "build_decomposition", "duality.build_decomposition"),
    ("leonard.duality", "build_basis", "duality.build_basis"),
    ("leonard.duality", "build_24_bases", "duality.build_24_bases"),
    ("leonard.duality", "verify_anchor_relations", "duality.verify_anchor_relations"),
    ("leonard.duality", "verify_basis_family", "duality.verify_basis_family"),
    ("leonard.duality", "verify_transition_relations", "duality.verify_transition_relations"),
    ("leonard.duality", "matrix_of_T", "duality.matrix_of_T"),
    ("leonard.duality", "expected_matrix_of_T", "duality.expected_matrix_of_T"),
    ("leonard.duality", "expected_pair_shapes", "duality.expected_pair_shapes"),
    ("leonard.search", "run_search", "search.run_search"),
)

LEAF_LAYERS = ("fields",)


class Tracer:
    """In-memory spans, counts and per-layer self time for one traced phase."""

    def __init__(self):
        self.spans = []   # (span id, name, start, end, parent span id, op id)
        self.counts = Counter()
        self.seconds = defaultdict(float)    # name -> time, outermost spans of that name
        self.self_seconds = defaultdict(float)  # layer -> self time
        self.op_id = None
        self._stack = []  # [span id, name, child seconds]
        self._next_id = 0

    def call(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            self.self_seconds[name.split(".", 1)[0]] += elapsed - frame[2]
            if not any(f[1] == name for f in self._stack):
                self.seconds[name] += elapsed
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent[2] += elapsed
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op_id))

    def leaf(self, name: str, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] += elapsed
            self.self_seconds[name.split(".", 1)[0]] += elapsed
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][2] += elapsed


def _wrap(tracer: Tracer, name: str, fn):
    record = tracer.leaf if name.split(".", 1)[0] in LEAF_LAYERS else tracer.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return record(name, fn, args, kwargs)

    return wrapper


def _wrap_mul(tracer: Tracer, fn, matrix_cls, vector_cls):
    """Matrix.__mul__ is three operators; only products get spans."""

    @functools.wraps(fn)
    def wrapper(self, other):
        if isinstance(other, matrix_cls):
            tracer.counts["linalg.matmul.scalar_mults"] += self.nrows * self.ncols * other.ncols
            return tracer.call("linalg.matmul", fn, (self, other), {})
        if isinstance(other, vector_cls):
            return tracer.call("linalg.matvec", fn, (self, other), {})
        return fn(self, other)  # matrix * scalar delegates to the wrapped scale

    return wrapper


class Installed:
    """The patches made by `install`; `close` undoes them in reverse order."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self):
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "leonard" or n.startswith("leonard."))]


def install(tracer: Tracer) -> Installed:
    patches = Installed()
    modules = _package_modules()
    linalg = sys.modules["leonard.linalg"]
    try:
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(_wrap(tracer, name, raw.__func__))
                elif attr == "Matrix.__mul__":
                    patched = _wrap_mul(tracer, raw, linalg.Matrix, linalg.Vector)
                else:
                    patched = _wrap(tracer, name, raw)
                patches.set(cls, meth, patched)
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.set(mod, key, wrapper)
    except BaseException:
        patches.close()
        raise
    return patches


# --- per-layer metrics from one traced pass ---


def _under(spans_by_id: dict, span, ancestor: str) -> bool:
    parent = span[4]
    while parent is not None:
        p = spans_by_id[parent]
        if p[1] == ancestor:
            return True
        parent = p[4]
    return False


EXACT_COUNTS = (
    "linalg.matmul.calls",
    "linalg.matmul.scalar_mults",
    "linalg.elim.calls",
    "systems.solve_gram.calls",
    "duality.build_decomposition.calls",
)


def layer_metrics(tracer: Tracer, search_ops: dict) -> dict:
    """Name -> (value, unit) for one traced pass.

    search_ops maps the op id of each search call to (max_trials, emitted
    arrays, exhausted?); it gives the bases of the search ratios.
    """
    c, s = tracer.counts, tracer.seconds
    spans_by_id = {sp[0]: sp for sp in tracer.spans}
    run_search_s = defaultdict(float)
    for sp in tracer.spans:
        if sp[1] == "search.run_search":
            run_search_s[sp[5]] += sp[3] - sp[2]
    builds = sum(1 for sp in tracer.spans
                 if sp[1] == "systems.from_pair" and _under(spans_by_id, sp, "search.run_search"))
    exhausted = [op for op, (_, _, ex) in search_ops.items() if ex]
    candidates = sum(search_ops[op][0] for op in exhausted)
    exhausted_hits = sum(search_ops[op][1] for op in exhausted)
    hits = sum(v[1] for v in search_ops.values())
    builds_of_system = c["systems.build_system.calls"]

    out = {
        "cli.self_s": (tracer.self_seconds["cli"], "s"),
        "fields.invert.calls": (c["fields.invert.calls"], "count"),
        "fields.codec_s": (s["fields.codec"], "s"),
        "fields.self_s": (tracer.self_seconds["fields"], "s"),
        "linalg.matmul.calls": (c["linalg.matmul.calls"], "count"),
        "linalg.matmul.s": (s["linalg.matmul"], "s"),
        "linalg.matmul.scalar_mults": (c["linalg.matmul.scalar_mults"], "count"),
        "linalg.matvec.calls": (c["linalg.matvec.calls"], "count"),
        "linalg.elim.calls": (c["linalg.elim.calls"], "count"),
        "linalg.elim.s": (s["linalg.elim"], "s"),
        "linalg.lagrange_idempotent.calls": (c["linalg.lagrange_idempotent.calls"], "count"),
        "linalg.eval_root_product.calls": (c["linalg.eval_root_product.calls"], "count"),
        "linalg.intersect_column_spaces.calls": (c["linalg.intersect_column_spaces.calls"], "count"),
        "linalg.intersect_column_spaces.s": (s["linalg.intersect_column_spaces"], "s"),
        "linalg.self_s": (tracer.self_seconds["linalg"], "s"),
        "systems.build_system.calls": (builds_of_system, "count"),
        "systems.build_system.s": (s["systems.build_system"], "s"),
        "systems.from_pair.calls": (c["systems.from_pair.calls"], "count"),
        "systems.verify_axioms.s": (s["systems.verify_axioms"], "s"),
        "systems.extract_parameter_array.s": (s["systems.extract_parameter_array"], "s"),
        "systems.certify.calls": (c["systems.certify.calls"], "count"),
        "systems.certify.s": (s["systems.certify"], "s"),
        "systems.solve_gram.calls": (c["systems.solve_gram.calls"], "count"),
        "systems.solve_gram.s": (s["systems.solve_gram"], "s"),
        "systems.solve_gram.per_build": (
            c["systems.solve_gram.calls"] / builds_of_system if builds_of_system else 0.0, "ratio"),
        "systems.standard_identity_suite.s": (s["systems.standard_identity_suite"], "s"),
        "systems.split_projectors.s": (s["systems.split_projectors"], "s"),
        "systems.split_projectors_by_intersection.s": (s["systems.split_projectors_by_intersection"], "s"),
        "systems.self_s": (tracer.self_seconds["systems"], "s"),
    }
    for name in ("choose_anchor_vectors", "build_duality_bundle", "verify_duality_suite",
                 "verify_geometry_suite", "build_24_bases", "verify_anchor_relations",
                 "verify_basis_family", "verify_transition_relations", "matrix_of_T"):
        out[f"duality.{name}.s"] = (s[f"duality.{name}"], "s")
    out["duality.build_decomposition.calls"] = (c["duality.build_decomposition.calls"], "count")
    out["duality.build_basis.calls"] = (c["duality.build_basis.calls"], "count")
    out["duality.self_s"] = (tracer.self_seconds["duality"], "s")
    out.update({
        "search.run_search.s": (s["search.run_search"], "s"),
        "search.candidates": (candidates, "count"),
        "search.candidate_us": (
            1e6 * sum(run_search_s[op] for op in exhausted) / candidates if candidates else 0.0, "us"),
        "search.hit_ratio": (exhausted_hits / candidates if candidates else 0.0, "ratio"),
        "search.hits": (hits, "count"),
        "search.builds_per_hit": (builds / hits if hits else 0.0, "ratio"),
        "search.self_s": (tracer.self_seconds["search"], "s"),
    })
    return out
