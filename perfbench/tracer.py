"""Span recorder for the traced benchmark run.

The program itself is not instrumented.  `Tracer.install` replaces each
function named in `WRAPPED` by a wrapper, in every `entrocut` module
namespace that holds it, so calls across module boundaries (and calls a
module makes to its own public functions) open a span.  A span is
`(name, start, end, parent, count)`: perf_counter seconds, the index of the
enclosing span (-1 for a root) and a work count taken at the boundary
(window points, table entries, series terms, dim^2).  Spans stay in memory
and are written out once, at the end of the run.

Per-element accessors (`log_dim`, `SpectrumModel.dim`) are not wrapped: a
span per element would cost more than the work, so their time shows as
self time of the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name); several functions may share a span name
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("energy", "build_energy_function", "energy.build"),
    ("energy", "f_delta_batch", "energy.eval"),
    ("energy", "f_delta_int", "energy.eval"),
    ("energy", "eval_f_many", "energy.eval"),
    ("energy", "eval_f", "energy.eval"),
    ("energy", "make_synthetic_pair", "energy.identity"),
    ("energy", "verify_spectral_identity", "energy.identity"),
    ("spectra", "model_dims", "spectra.table"),
    ("spectra", "extend_model", "spectra.table"),
    ("spectra", "partition_numbers", "spectra.table"),
    ("spectra", "_convolve_power", "spectra.power"),
    ("spectra", "fit_growth_constants", "spectra.fit"),
    ("bounds", "distance_regularized_bound", "bounds.series"),
    ("bounds", "cutoff_bound", "bounds.cutoff"),
    ("bounds", "verify_trace_bound", "bounds.trace"),
    ("bounds", "trace_partition", "bounds.trace"),
    ("bounds", "trace_bound_constants", "bounds.trace"),
    ("bounds", "quasinorm_property_check", "bounds.quasinorm"),
    ("pairing", "build_truncated_space", "pairing.space"),
    ("pairing", "tau_ensemble", "pairing.ensemble"),
    ("pairing", "oracle_vs_bounds", "pairing.oracle"),
    ("pairing", "polarization_check", "pairing.identity"),
    ("pairing", "theta_product_identity_check", "pairing.identity"),
    ("entropy", "assemble_density", "entropy.density"),
    ("entropy", "von_neumann_entropy", "entropy.eig"),
    ("entropy", "eigvalsh_jacobi", "entropy.eig"),
    ("entropy", "ensemble_entropy_bound", "entropy.bound"),
)


def _memo_size(args) -> int:
    return len(getattr(args[0], "cache", ()))


def _count(fname: str, args, result, before: int) -> int:
    """Work done by one call, read at the boundary (0 where none is counted)."""
    if fname in ("f_delta_batch", "f_delta_int"):
        return _memo_size(args) - before          # fresh points put in the memo
    if fname == "eval_f_many":
        return len(args[1])
    if fname == "eval_f":
        return 1
    if fname == "partition_numbers":
        return args[0] + 1                        # table entries computed
    if fname == "distance_regularized_bound":
        return result.n_max_used
    if fname == "oracle_vs_bounds":
        return result.dim ** 2
    return 0


class Tracer:
    """Spans of one process, kept in a list in the order they opened."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[tuple] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, name, parent, time.perf_counter()))
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        # a closed span is a tuple of atoms, which the garbage collector stops
        # tracking, so a long traced run does not slow the collections down
        end = time.perf_counter()
        top, name, parent, start = self._stack.pop()
        self.spans[top] = (name, start, end, parent, count)

    def _wrap(self, fn, name: str, fname: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _memo_size(args) if fname in ("f_delta_batch", "f_delta_int") else 0
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, _count(fname, args, result, before) if result is not None else 0)
        return traced

    def install(self) -> None:
        """Wrap every function of WRAPPED that the loaded package defines."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "entrocut" or n.startswith("entrocut.")]
        for modname, fname, name in WRAPPED:
            home = sys.modules.get(f"entrocut.{modname}")
            orig = getattr(home, fname, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, fname)
            for mod in mods:
                if mod.__dict__.get(fname) is orig:
                    setattr(mod, fname, wrapped)
                    self._saved.append((mod, fname, orig))

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def write(self, path: str, process: int = 0) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            write_spans(fh, self.spans, process)


def write_spans(fh, spans: list[tuple], process: int) -> None:
    for i, (name, start, end, parent, count) in enumerate(spans):
        fh.write(json.dumps({"process": process, "id": i, "name": name, "start": start,
                             "end": end, "parent": parent, "count": count}) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [(r["name"], r["start"], r["end"], r["parent"], r["count"])
                for r in map(json.loads, fh)]


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare one, in seconds."""
    tracer = Tracer()

    def bare(x):
        return x

    wrapped = tracer._wrap(bare, "calibrate", "calibrate")
    t0 = time.perf_counter()
    for i in range(calls):
        bare(i)
    t1 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


# per-layer metrics: name -> (span name, what to take); see layer_metrics
_PER_OP = {
    "cli.main_self_s": ("cli.main", "self"),
    "energy.build_s": ("energy.build", "self"),
    "energy.build_calls": ("energy.build", "calls"),
    "energy.eval_s": ("energy.eval", "self"),
    "energy.eval_points": ("energy.eval", "count"),
    "spectra.table_s": ("spectra.table", "self"),
    "spectra.table_entries": ("spectra.table", "count"),
    "spectra.power_s": ("spectra.power", "self"),
    "spectra.fit_s": ("spectra.fit", "self"),
    "bounds.series_self_s": ("bounds.series", "self"),
    "bounds.terms": ("bounds.series", "count"),
    "bounds.cutoff_s": ("bounds.cutoff", "self"),
    "bounds.trace_s": ("bounds.trace", "self"),
    "pairing.space_s": ("pairing.space", "self"),
    "pairing.ensemble_s": ("pairing.ensemble", "self"),
    "pairing.oracle_self_s": ("pairing.oracle", "self"),
    "pairing.oracle_dim_sq": ("pairing.oracle", "count"),
    "pairing.identity_s": ("pairing.identity", "self"),
    "entropy.density_s": ("entropy.density", "self"),
    "entropy.eig_s": ("entropy.eig", "self"),
}

LAYER_UNITS = {name: ("s" if name.endswith("_s") else "count") for name in _PER_OP}
LAYER_UNITS.update({"cli.import_s": "s", "energy.build_cold_s": "s",
                    "spectra.table_useful": "ratio", "trace.spans": "count",
                    "trace.overhead_s": "s"})


def layer_metrics(processes: list[list[tuple]], n_ops: int, span_cost: float) -> dict:
    """Per-layer metrics from the span lists of every traced process.

    Spans under an "op" root are op work and are reported per op.  The two
    set-up metrics, `cli.import_s` and `energy.build_cold_s` (the first window
    build of a process, integral-of-J0 table included), are reported per
    process start: once per run in process, once per op for CLI runs.
    """
    zero = {key: 0.0 for key in ("self", "calls", "count")}
    per = {}
    import_s = cold_s = 0.0
    needed = computed = 0
    op_spans = 0
    for spans in processes:
        child = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        first_build = True
        table_max: dict[int, int] = {}
        for i, (name, start, end, parent, count) in enumerate(spans):
            self_s = (end - start) - child[i]
            if name == "cli.import":
                import_s += self_s
            if name == "energy.build" and first_build:
                cold_s += end - start
                first_build = False
            if spans[root[i]][0] != "op" or name == "op":
                continue
            op_spans += 1
            agg = per.setdefault(name, dict(zero))
            agg["self"] += self_s
            agg["calls"] += 1
            agg["count"] += count
            if name == "spectra.table" and count:
                computed += count
                table_max[root[i]] = max(table_max.get(root[i], 0), count)
        needed += sum(table_max.values())
    ops = max(n_ops, 1)
    starts = max(len(processes), 1)
    out = {"cli.import_s": import_s / starts, "energy.build_cold_s": cold_s / starts}
    for metric, (name, what) in _PER_OP.items():
        out[metric] = per.get(name, zero)[what] / ops
    out["spectra.table_useful"] = needed / computed if computed else 0.0
    out["trace.spans"] = op_spans / ops
    out["trace.overhead_s"] = op_spans * span_cost / ops
    return out
