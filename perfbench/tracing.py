"""Spans around calls into the `nonpaving` layers, recorded from outside.

`Tracer.install` rebinds, for the duration of a traced pass, the public
functions the CLI and the layers call (in every `nonpaving` module that
imported them) and `numpy.linalg.eigvalsh` / `numpy.linalg.svd`. Each
wrapped call records a span: name, start, end, parent span and job id. Spans
stay in memory in flat arrays and are written out once, at the end of the
run. `layer_metrics` turns them into the per-layer metrics.

A span name is `<layer>.<function>`; the layer is the package module the
function lives in, or `numpy` for the two LAPACK entry points. A numpy span
is attributed to the innermost enclosing span of a package layer, so an
`eigvalsh` under `frame_bounds` counts for `frame_ops` and one under the
partition search counts for `paving_analysis`.
"""

import os
import sys
from array import array
from time import perf_counter

# (module, function, span?) for every rebound name. Functions marked False
# are only counted: they run about once per matrix entry, and a span per call
# would dominate the traced run.
TARGETS = (
    ("paving_analysis", "certify_nonpavable", True),
    ("paving_analysis", "best_partition_riesz", True),
    ("paving_analysis", "partition_from_assignment", True),
    ("paving_analysis", "witness_coefficients", True),
    ("matrix_core", "as_complex_matrix", True),
    ("matrix_core", "dft_matrix", True),
    ("matrix_core", "scale_columns", True),
    ("matrix_core", "gram", True),
    ("matrix_core", "row_square_sums", True),
    ("matrix_core", "col_square_sums", True),
    ("matrix_core", "column_orthogonality_defect", True),
    ("matrix_core", "write_matrix_csv", True),
    ("matrix_core", "read_matrix_csv", True),
    ("frame_ops", "frame_bounds", True),
    ("frame_ops", "is_tight_frame", True),
    ("constructions", "delta_schedule", True),
    ("constructions", "build_nonpavable_general", True),
    ("constructions", "doubling_step", True),
    ("constructions", "doubled_family", True),
    ("constructions", "gram_block_residual", True),
    ("constructions", "restriction_identity_residual", True),
    ("constructions", "sidecar_dict", True),
    ("serialize", "dumps_json", True),
    ("serialize", "format_complex", False),
)
NUMPY_TARGETS = ("eigvalsh", "svd")

# Per-layer metrics of a traced run, in report order.
LAYER_METRICS = (
    ("paving_analysis.partitions", "count", "lower"),
    ("paving_analysis.partition_from_assignment_s", "s", "lower"),
    ("paving_analysis.eigvalsh_calls", "count", "lower"),
    ("paving_analysis.eigvalsh_s", "s", "lower"),
    ("paving_analysis.eig_per_partition", "ratio", "lower"),
    ("paving_analysis.witness_calls", "count", "lower"),
    ("paving_analysis.witness_s", "s", "lower"),
    ("paving_analysis.svd_calls", "count", "lower"),
    ("paving_analysis.svd_s", "s", "lower"),
    ("paving_analysis.witness_per_partition", "ratio", "lower"),
    ("paving_analysis.search_s", "s", "lower"),
    ("paving_analysis.self_s", "s", "lower"),
    ("matrix_core.write_matrix_csv_s", "s", "lower"),
    ("matrix_core.csv_bytes_written", "B", "lower"),
    ("matrix_core.csv_write_mb_per_s", "MB/s", "higher"),
    ("serialize.format_complex_calls", "count", "lower"),
    ("matrix_core.read_matrix_csv_s", "s", "lower"),
    ("matrix_core.csv_bytes_read", "B", "lower"),
    ("matrix_core.csv_read_mb_per_s", "MB/s", "higher"),
    ("matrix_core.as_complex_matrix_calls", "count", "lower"),
    ("matrix_core.bytes_copied", "B", "lower"),
    ("matrix_core.gram_calls", "count", "lower"),
    ("matrix_core.gram_s", "s", "lower"),
    ("matrix_core.dft_matrix_s", "s", "lower"),
    ("frame_ops.frame_bounds_calls", "count", "lower"),
    ("frame_ops.frame_bounds_s", "s", "lower"),
    ("frame_ops.is_tight_frame_s", "s", "lower"),
    ("constructions.build_s", "s", "lower"),
    ("constructions.doubled_family_s", "s", "lower"),
    ("constructions.gram_block_residual_s", "s", "lower"),
    ("constructions.restriction_identity_residual_s", "s", "lower"),
    ("serialize.dumps_json_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder with runtime rebinding of the traced names."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.counters: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, span_name: str, fn, *args, after=None, **kwargs):
        """Run fn inside a span; `after(args, result)` runs once the span is closed."""
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(self._name_id(span_name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
        if after is not None:
            after(args, result)
        return result

    def _span_wrapper(self, span_name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            return self.call(span_name, fn, *args, after=after, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self._count(key, 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hook(self, function: str):
        if function == "write_matrix_csv":
            return lambda args, _: self._count("csv_bytes_written", os.path.getsize(args[1]))
        if function == "read_matrix_csv":
            return lambda args, _: self._count("csv_bytes_read", os.path.getsize(args[0]))
        if function == "as_complex_matrix":
            return lambda _, result: self._count("bytes_copied", result.nbytes)
        return None

    def install(self) -> None:
        """Rebind every traced name in the loaded `nonpaving` modules and numpy.linalg."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import numpy.linalg

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nonpaving" or key.startswith("nonpaving."))]
        for module_name, function, spanned in TARGETS:
            original = getattr(sys.modules[f"nonpaving.{module_name}"], function)
            span_name = f"{module_name}.{function}"
            if spanned:
                wrapper = self._span_wrapper(span_name, original, self._after_hook(function))
            else:
                wrapper = self._count_wrapper(f"{function}_calls", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for function in NUMPY_TARGETS:
            original = getattr(numpy.linalg, function)
            self._restore.append((numpy.linalg, function, original))
            setattr(numpy.linalg, function, self._span_wrapper(f"numpy.{function}", original))

    def uninstall(self) -> None:
        """Put back every name `install` rebound."""
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def save(self, path, job_labels) -> None:
        """Write all spans to an .npz file (name and job ids index the tables)."""
        import numpy as np

        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            names=np.array(self.names, dtype=str),
            jobs=np.array(job_labels, dtype=str),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            lo, hi = max(start[i], start[p]), min(end[i], end[p])
            if hi > lo:
                children.setdefault(p, []).append((lo, hi))
    out = []
    for i in range(len(start)):
        covered = 0.0
        reach = float("-inf")
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out


def attributed_layers(names, name, parent) -> list[str]:
    """Layer of each span; numpy spans take the layer of the innermost package span."""
    out = []
    for i in range(len(name)):
        j = i
        while j >= 0 and layer_of(names[name[j]]) == "numpy":
            j = parent[j]
        out.append(layer_of(names[name[j]]) if j >= 0 else "none")
    return out


def layer_metrics(tracer: Tracer, passes: int, partitions_per_pass: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans and counters of `passes` traced passes."""
    names = tracer.names
    start, end, name, parent = tracer.start, tracer.end, tracer.name, tracer.parent
    selfs = self_times(start, end, parent)
    layers = attributed_layers(names, name, parent)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for i in range(len(start)):
        span = names[name[i]]
        key = f"{layers[i]}.{span}" if layer_of(span) == "numpy" else span
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + (end[i] - start[i])
        if layer_of(span) != "numpy":
            self_by_layer[layers[i]] = self_by_layer.get(layers[i], 0.0) + selfs[i]

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    pa = "paving_analysis"
    partitions = per_pass(calls.get(f"{pa}.partition_from_assignment", 0))
    eig_calls = per_pass(calls.get(f"{pa}.numpy.eigvalsh", 0))
    witness_calls = per_pass(calls.get(f"{pa}.witness_coefficients", 0))
    write_s = per_pass(total.get("matrix_core.write_matrix_csv", 0.0))
    read_s = per_pass(total.get("matrix_core.read_matrix_csv", 0.0))
    written = per_pass(tracer.counters.get("csv_bytes_written", 0))
    read = per_pass(tracer.counters.get("csv_bytes_read", 0))
    metrics = {
        f"{pa}.partitions": partitions,
        f"{pa}.partition_from_assignment_s": per_pass(total.get(f"{pa}.partition_from_assignment", 0.0)),
        f"{pa}.eigvalsh_calls": eig_calls,
        f"{pa}.eigvalsh_s": per_pass(total.get(f"{pa}.numpy.eigvalsh", 0.0)),
        f"{pa}.eig_per_partition": ratio(eig_calls, partitions_per_pass),
        f"{pa}.witness_calls": witness_calls,
        f"{pa}.witness_s": per_pass(total.get(f"{pa}.witness_coefficients", 0.0)),
        f"{pa}.svd_calls": per_pass(calls.get(f"{pa}.numpy.svd", 0)),
        f"{pa}.svd_s": per_pass(total.get(f"{pa}.numpy.svd", 0.0)),
        f"{pa}.witness_per_partition": ratio(witness_calls, partitions_per_pass),
        f"{pa}.search_s": per_pass(total.get(f"{pa}.certify_nonpavable", 0.0)
                                   + total.get(f"{pa}.best_partition_riesz", 0.0)),
        f"{pa}.self_s": per_pass(self_by_layer.get(pa, 0.0)),
        "matrix_core.write_matrix_csv_s": write_s,
        "matrix_core.csv_bytes_written": written,
        "matrix_core.csv_write_mb_per_s": ratio(written / 1e6, write_s),
        "serialize.format_complex_calls": per_pass(tracer.counters.get("format_complex_calls", 0)),
        "matrix_core.read_matrix_csv_s": read_s,
        "matrix_core.csv_bytes_read": read,
        "matrix_core.csv_read_mb_per_s": ratio(read / 1e6, read_s),
        "matrix_core.as_complex_matrix_calls": per_pass(calls.get("matrix_core.as_complex_matrix", 0)),
        "matrix_core.bytes_copied": per_pass(tracer.counters.get("bytes_copied", 0)),
        "matrix_core.gram_calls": per_pass(calls.get("matrix_core.gram", 0)),
        "matrix_core.gram_s": per_pass(total.get("matrix_core.gram", 0.0)),
        "matrix_core.dft_matrix_s": per_pass(total.get("matrix_core.dft_matrix", 0.0)),
        "frame_ops.frame_bounds_calls": per_pass(calls.get("frame_ops.frame_bounds", 0)),
        "frame_ops.frame_bounds_s": per_pass(total.get("frame_ops.frame_bounds", 0.0)),
        "frame_ops.is_tight_frame_s": per_pass(total.get("frame_ops.is_tight_frame", 0.0)),
        "constructions.build_s": per_pass(total.get("constructions.build_nonpavable_general", 0.0)),
        "constructions.doubled_family_s": per_pass(total.get("constructions.doubled_family", 0.0)),
        "constructions.gram_block_residual_s": per_pass(total.get("constructions.gram_block_residual", 0.0)),
        "constructions.restriction_identity_residual_s": per_pass(
            total.get("constructions.restriction_identity_residual", 0.0)),
        "serialize.dumps_json_s": per_pass(total.get("serialize.dumps_json", 0.0)),
        "cli.self_s": per_pass(self_by_layer.get("cli", 0.0)),
        "trace.overhead_s": overhead_s,
    }
    return metrics
