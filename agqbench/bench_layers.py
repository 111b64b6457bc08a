"""Outside-in tracing of agq's layers.

The tracer replaces each layer's public function with a timing wrapper at
every place agq binds it (``agq.constructions.hermitian_gram`` is a binding
separate from ``agq.codes.hermitian_gram``), plus the ``FieldTower.vadd`` and
``FieldTower.vmul`` kernels, and puts every original back on ``uninstall``.
No agq source is touched.  Work counts come from argument and result shapes
only, never from agq's own bookkeeping.

A span is ``(name, start, end, parent_index, request_id)``; spans stay in
memory until the caller writes them out.  A layer's self time is its span
minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

STRUCTURAL_MDS_METHODS = ("vandermonde", "cauchy", "systematic", "degenerate")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nbytes(x) -> int:
    # a Python int reaches the kernels as one int32
    return int(getattr(x, "nbytes", 4))


# -- work counters: (work, args, kwargs, result, exc) -> None ------------------


def _count_kernel(key):
    def count(work, args, kwargs, result, exc):
        if result is None:
            return
        work[f"fields.{key}.elems"] += result.size
        work["fields.kernel.bytes_computed"] += (
            _nbytes(_arg(args, kwargs, 1, "a")) + _nbytes(_arg(args, kwargs, 2, "b")) + result.nbytes
        )

    return count


def _count_batched(work, args, kwargs, result, exc):
    work["codes.batched_dependent.subsets"] += _arg(args, kwargs, 1, "mats").shape[0]


def _count_dual_distance(work, args, kwargs, result, exc):
    if result is not None:
        work["codes.dual_distance_by_columns.exact"] += bool(result.exact)


def _count_exhaustive(work, args, kwargs, result, exc):
    if result is not None:
        code = _arg(args, kwargs, 0, "code")
        work["codes.exhaustive_distance.words"] += code.tower.q2 ** code.k if code.k else 0


def _count_twist(work, args, kwargs, result, exc):
    n = _arg(args, kwargs, 0, "eval_set").n
    work["points.twist_vector.products"] += n * (n - 1)


def _count_tower(work, args, kwargs, result, exc):
    if result is not None:
        work["fields.build_tower.entries"] += result.q2


def _count_is_mds(work, args, kwargs, result, exc):
    if result is not None:
        work["codes.is_mds.structural"] += result[2] in STRUCTURAL_MDS_METHODS
    elif type(exc).__name__ == "CapExceeded":
        work["codes.is_mds.cap_exceeded"] += 1


def _count_gram(work, args, kwargs, result, exc):
    code = _arg(args, kwargs, 0, "code")
    work["codes.hermitian_gram.products"] += code.k * code.k * code.n


def _count_fibers(work, args, kwargs, result, exc):
    work["curves.rational_points.fibers"] += _arg(args, kwargs, 1, "xs").n


def _count_chain(work, args, kwargs, result, exc):
    if result is not None:
        work["constructions.construct_chain.members"] += len(result)
    elif exc is not None and any(c.__name__ == "AgqError" for c in type(exc).__mro__):
        work["constructions.construct_chain.rejections"] += 1


# (layer span name, agq module, attribute, work counter)
FUNCTION_LAYERS = (
    ("fields.build_tower", "agq.fields", "build_tower", _count_tower),
    ("points.twist_vector", "agq.points", "twist_vector", _count_twist),
    ("curves.rational_points", "agq.curves", "rational_points", _count_fibers),
    ("codes.rref", "agq.codes", "rref", None),
    ("codes.batched_dependent", "agq.codes", "batched_dependent", _count_batched),
    ("codes.hermitian_gram", "agq.codes", "hermitian_gram", _count_gram),
    ("codes.is_mds", "agq.codes", "is_mds", _count_is_mds),
    ("codes.dual_distance_by_columns", "agq.codes", "dual_distance_by_columns", _count_dual_distance),
    ("codes.exhaustive_distance", "agq.codes", "exhaustive_distance", _count_exhaustive),
    ("constructions.construct_chain", "agq.constructions", "construct_chain", _count_chain),
    ("quantum.stabilizer_params", "agq.quantum", "stabilizer_params", None),
    ("cli.catalog_entry", "agq.cli", "catalog_entry", None),
)

# (layer span name, agq module, class, method, work counter)
METHOD_LAYERS = (
    ("fields.vadd", "agq.fields", "FieldTower", "vadd", _count_kernel("vadd")),
    ("fields.vmul", "agq.fields", "FieldTower", "vmul", _count_kernel("vmul")),
)

REQUEST = "request"


class Tracer:
    """Span recorder that patches agq's layer functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.work: defaultdict = defaultdict(float)
        self.request_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, start, parent):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.request_id)

    @contextmanager
    def request(self, request_id):
        """Root span for one benchmark request; layer spans nest under it."""
        self.request_id = request_id
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, REQUEST, start, parent)
            self.request_id = None

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, name, start, parent)
                if count is not None:
                    count(tracer.work, args, kwargs, None, exc)
                raise
            tracer._close(idx, name, start, parent)
            if count is not None:
                count(tracer.work, args, kwargs, result, None)
            return result

        traced.__wrapped_layer__ = name
        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every layer at every agq module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        agq_modules = [
            mod for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "agq" or modname.startswith("agq."))
        ]
        for name, modname, attr, count in FUNCTION_LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, count)
            for mod in agq_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, modname, cls_name, attr, count in METHOD_LAYERS:
            cls = getattr(sys.modules[modname], cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], count))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, fh)


def layer_metrics(times: dict, work: dict, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""

    def t(name, key="self_s"):
        return times.get(name, {}).get(key, 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    subsets = work.get("codes.batched_dependent.subsets", 0.0)
    words = work.get("codes.exhaustive_distance.words", 0.0)
    return {
        "trace.wall_s": wall_s,
        "codes.batched_dependent.self_s": t("codes.batched_dependent"),
        "codes.batched_dependent.subsets": subsets,
        "codes.batched_dependent.subsets_per_s": ratio(subsets, t("codes.batched_dependent", "total_s")),
        "codes.dual_distance_by_columns.self_s": t("codes.dual_distance_by_columns"),
        "codes.dual_distance_by_columns.total_s": t("codes.dual_distance_by_columns", "total_s"),
        "codes.dual_distance_by_columns.calls": calls("codes.dual_distance_by_columns"),
        "codes.dual_distance_by_columns.exact_ratio": ratio(
            work.get("codes.dual_distance_by_columns.exact", 0.0), calls("codes.dual_distance_by_columns")
        ),
        "fields.vadd.self_s": t("fields.vadd"),
        "fields.vadd.elems": work.get("fields.vadd.elems", 0.0),
        "fields.vmul.self_s": t("fields.vmul"),
        "fields.vmul.elems": work.get("fields.vmul.elems", 0.0),
        "fields.kernel.bytes_computed": work.get("fields.kernel.bytes_computed", 0.0),
        "codes.exhaustive_distance.self_s": t("codes.exhaustive_distance"),
        "codes.exhaustive_distance.total_s": t("codes.exhaustive_distance", "total_s"),
        "codes.exhaustive_distance.calls": calls("codes.exhaustive_distance"),
        "codes.exhaustive_distance.words": words,
        "codes.exhaustive_distance.words_per_s": ratio(words, t("codes.exhaustive_distance", "total_s")),
        "points.twist_vector.self_s": t("points.twist_vector"),
        "points.twist_vector.products": work.get("points.twist_vector.products", 0.0),
        "fields.build_tower.self_s": t("fields.build_tower"),
        "fields.build_tower.entries": work.get("fields.build_tower.entries", 0.0),
        "codes.is_mds.self_s": t("codes.is_mds"),
        "codes.is_mds.structural_ratio": ratio(work.get("codes.is_mds.structural", 0.0), calls("codes.is_mds")),
        "codes.is_mds.cap_exceeded": work.get("codes.is_mds.cap_exceeded", 0.0),
        "codes.rref.self_s": t("codes.rref"),
        "codes.hermitian_gram.self_s": t("codes.hermitian_gram"),
        "codes.hermitian_gram.products": work.get("codes.hermitian_gram.products", 0.0),
        "curves.rational_points.self_s": t("curves.rational_points"),
        "curves.rational_points.fibers": work.get("curves.rational_points.fibers", 0.0),
        "quantum.stabilizer_params.self_s": t("quantum.stabilizer_params"),
        "cli.catalog_entry.self_s": t("cli.catalog_entry"),
        "constructions.construct_chain.total_s": t("constructions.construct_chain", "total_s"),
        "constructions.construct_chain.members": work.get("constructions.construct_chain.members", 0.0),
        "constructions.construct_chain.rejections": work.get("constructions.construct_chain.rejections", 0.0),
        "request.self_s": t(REQUEST),
    }
