"""Span recording for the traced run, installed from outside the library.

The tracer swaps wrappers onto the public names that ``gramquad.weights``,
``gramquad.moments``, ``gramquad.gauss_legendre`` and ``gramquad.cli``
look up at call time, so no library file changes. A wrapper whose target
name no longer exists is skipped: it records nothing and the run goes on.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


def _node_updates(result):
    return getattr(result, "p_points", 0) * getattr(result, "degree", 0)


def _gauss_order(result):
    return getattr(result, "order", 0)


# (module, attribute, span name or None for count-only, counter, result -> count)
PATCHES = [
    ("gramquad.weights", "compute_rule", "weights.compute_rule", "weights.node_updates", _node_updates),
    ("gramquad.weights", "integrate_on_interval", "weights.integrate", None, None),
    ("gramquad.weights", "build_recurrence", "gram_basis.build_recurrence", None, None),
    ("gramquad.weights", "equidistant_nodes", "gram_basis.equidistant_nodes", None, None),
    ("gramquad.weights", "gauss_legendre_rule", "gauss_legendre.rule", "gauss_legendre.order", _gauss_order),
    ("gramquad.weights", "compute_moments", "moments.compute", None, None),
    ("gramquad.weights", "advance_row", None, "gram_basis.advance_row_calls", None),
    ("gramquad.moments", "advance_row", None, "gram_basis.advance_row_calls", None),
    ("gramquad.gauss_legendre", "legendre_value_and_derivative", None, "gauss_legendre.value_calls", None),
    ("gramquad.cli", "compute_rule", "weights.compute_rule", "weights.node_updates", _node_updates),
    ("gramquad.cli", "integrate_on_interval", "weights.integrate", None, None),
    ("gramquad.cli", "build_recurrence", "gram_basis.build_recurrence", None, None),
    ("gramquad.cli", "dense_design_matrix", "reference.dense_design_matrix", None, None),
]


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    op_id = -1

    def region(self, name):
        return nullcontext()

    def paused(self):
        return nullcontext()


class Tracer:
    """Keeps spans in memory as (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._saved = []
        self._paused = False
        self.missing = []

    @contextmanager
    def region(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    @contextmanager
    def paused(self):
        """Calls made here, such as the output checks, record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, span, counter, count_of):
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                with self.region(span):
                    result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter] += 1 if count_of is None else count_of(result)
            return result

        return wrapper

    def install(self):
        """Swap the wrappers in; `missing` lists the names that could not be found."""
        missing = []
        for module_name, attr, span, counter, count_of in PATCHES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, counter, count_of))
        self.missing = missing

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self):
        """Total duration and total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[index]
        return total, own

    def compute_rule_split(self, ops):
        """Per-op seconds of compute_rule's self time and of each direct child."""
        split = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0 and self.spans[parent][0] == "weights.compute_rule":
                split[name] += (end - start) / ops
        split["self"] = self.self_times()[1]["weights.compute_rule"] / ops
        return dict(split)

    def write(self, path):
        """Write every span as a CSV row, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,op\n")
            for name, start, end, parent, op_id in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},{op_id}\n")


def layer_metrics(tracer, ops, bytes_written, bytes_read, overhead):
    """Per-layer metrics, each per traced op unless it is a rate or ratio."""
    total, own = tracer.self_times()
    counts = tracer.counts
    per_op = lambda value: value / ops  # noqa: E731
    assembly = own["weights.compute_rule"]
    write_self = own["cli.weights_csv"] + own["cli.weights_json"]
    return {
        "weights.compute_rule_s": (per_op(total["weights.compute_rule"]), "s"),
        "weights.assembly_self_s": (per_op(assembly), "s"),
        "weights.node_updates": (per_op(counts["weights.node_updates"]), "count"),
        "weights.node_updates_per_s": (
            counts["weights.node_updates"] / assembly if assembly else 0.0,
            "1/s",
        ),
        "weights.integrate_s": (per_op(total["weights.integrate"]), "s"),
        "gram_basis.advance_row_calls": (per_op(counts["gram_basis.advance_row_calls"]), "count"),
        "gram_basis.build_recurrence_s": (per_op(total["gram_basis.build_recurrence"]), "s"),
        "gram_basis.equidistant_nodes_s": (per_op(total["gram_basis.equidistant_nodes"]), "s"),
        "gauss_legendre.rule_s": (per_op(total["gauss_legendre.rule"]), "s"),
        "gauss_legendre.order": (per_op(counts["gauss_legendre.order"]), "count"),
        "gauss_legendre.value_calls": (per_op(counts["gauss_legendre.value_calls"]), "count"),
        "moments.compute_s": (per_op(total["moments.compute"]), "s"),
        "cli.weights_csv_self_s": (per_op(own["cli.weights_csv"]), "s"),
        "cli.weights_json_self_s": (per_op(own["cli.weights_json"]), "s"),
        "cli.bytes_written": (per_op(bytes_written), "B"),
        "cli.write_mb_per_s": (bytes_written / 1e6 / write_self if write_self else 0.0, "MB/s"),
        "cli.integrate_samples_self_s": (per_op(own["cli.integrate_samples"]), "s"),
        "cli.bytes_read": (per_op(bytes_read), "B"),
        "cli.check_self_s": (per_op(own["cli.check"]), "s"),
        "reference.dense_design_matrix_s": (per_op(total["reference.dense_design_matrix"]), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
