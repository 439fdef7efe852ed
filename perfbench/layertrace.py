"""Outside-in span tracer for the hypdet layers.

The tracer wraps, from outside the program, every public function of each
layer module and every public method (and ``__init__``) of the classes those
modules define.  Several modules import layer functions by name
(``from .orbits import periodic_points`` in ``bounds`` and ``determinant``,
the ``maps`` functions in ``bounds`` and ``orbits``, the ``partition``
functions in ``aniso.blocks``), so each wrapper is bound in place of every
module attribute that referred to the original, not only in the defining
module.  Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, parent, start, end, extra]`` and reduced
to metrics when the command returns.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("orbits", "determinant", "collocation", "bounds", "maps",
          "aniso.partition", "aniso.blocks", "reports")
COMMANDS = ("cmd_resonances", "cmd_bounds", "cmd_aniso", "cmd_report")

# spans whose argument keys are recorded, for the distinct_ratio metrics
DISTINCT = ("orbits.periodic_points", "aniso.partition.dyadic_partition_eval")
REPORT_WRITERS = ("reports.write_json", "reports.write_csv", "reports.write_columns")
# spans whose bound arguments _extra or the distinct keys need
NEEDS_ARGS = DISTINCT + REPORT_WRITERS + (
    "collocation.build_transfer_matrix", "collocation.eigen_resonances",
    "maps.hyperbolicity_exponents")


def _key(v):
    """Hashable identity of one argument value, by content where cheap."""
    if v is None or isinstance(v, (bool, int, float, complex, str)):
        return v
    if isinstance(v, np.ndarray):
        a = np.ascontiguousarray(v)
        return ("array", a.shape, a.dtype.str, hashlib.blake2b(a.view(np.uint8)).hexdigest())
    if isinstance(v, (list, tuple, range)):
        return tuple(_key(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((k, _key(x)) for k, x in v.items()))
    params = getattr(v, "params", None)
    if isinstance(params, dict) and hasattr(v, "name"):  # a MapSystem
        return ("map", v.name, _key(params))
    return (type(v).__name__, id(v))


def _extra(name, args, result):
    """Deterministic per-call quantities taken from arguments and results."""
    if name == "orbits.periodic_points":
        return {"points": len(result)}
    if name == "collocation.build_transfer_matrix":
        M = result.matrix
        nnz = int(np.count_nonzero(M)) if isinstance(M, np.ndarray) else int(M.nnz)
        return {"n_freq": args["n_freq"], "dim": result.dim, "nnz": nnz}
    if name == "collocation.eigen_resonances":
        res = np.asarray(result[1])
        return {"dim": args["tm"].dim, "max_residual": float(res.max()) if res.size else 0.0}
    if name == "collocation.stability_filter":
        return {"stable": len(result)}
    if name == "collocation.match_resonances_to_zeros":
        return {"pairs": len(result["pairs"])}
    if name == "determinant.det_zeros":
        return {"zeros": len(result)}
    if name == "maps.hyperbolicity_exponents":
        return {"point_steps": len(np.atleast_2d(args["x"])) * args["m"]}
    if name == "aniso.blocks.BlockOperator.compressed_matrices":
        return {"dim": int(result[0].shape[0])}
    if name in REPORT_WRITERS:
        return {"bytes": os.path.getsize(args["path"])}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.keys = {}  # span name -> list of argument keys
        self.orbits_peak = 0  # bytes, tracemalloc peak over outermost orbits spans

    # -- instrumentation --------------------------------------------------

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        wants_args = name in NEEDS_ARGS
        is_orbits = name.startswith("orbits.")
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*a, **k):
            args = None
            if wants_args:
                bound = sig.bind(*a, **k)
                bound.apply_defaults()
                args = bound.arguments
                if name in DISTINCT:
                    self.keys.setdefault(name, []).append(_key(tuple(args.values())))
            mem = is_orbits and not any(spans[i][0].startswith("orbits.") for i in stack)
            if mem:
                tracemalloc.start()
            rec = [name, stack[-1] if stack else None, time.perf_counter(), None, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*a, **k)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if mem:
                    self.orbits_peak = max(self.orbits_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            rec[4] = _extra(name, args, result)
            return result

        return traced

    def install(self, cli_module):
        """Wrap the layer functions and rebind every reference to them."""
        replace = {}  # id(original) -> wrapper
        for short in LAYERS:
            mod = sys.modules["hypdet." + short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self.wrap(f"{short}.{attr}", obj)
                    replace[id(obj)] = w
                    setattr(mod, attr, w)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth):
                            continue
                        if mname.startswith("_") and mname != "__init__":
                            continue
                        label = "init" if mname == "__init__" else mname
                        setattr(obj, mname, self.wrap(f"{short}.{attr}.{label}", meth))
        for modname, mod in list(sys.modules.items()):
            if modname != "hypdet" and not modname.startswith("hypdet."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        for cmd in COMMANDS:
            setattr(cli_module, cmd, self.wrap("cli.cmd", getattr(cli_module, cmd)))

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its child spans."""
        out = [t1 - t0 for _, _, t0, t1, _ in self.spans]
        for _, parent, t0, t1, _ in self.spans:
            if parent is not None:
                out[parent] -= t1 - t0
        return out

    def by_name(self):
        """{span name: (calls, inclusive s, self s)} over all spans."""
        out = {}
        for (name, _, t0, t1, _), slf in zip(self.spans, self.self_times()):
            c, inc, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + 1, inc + (t1 - t0), s + slf)
        return out

    def layer_self(self):
        """{layer: self s}, with layer = the span name minus its function."""
        out = {}
        for name, (_, _, slf) in self.by_name().items():
            layer = _layer_of(name)
            out[layer] = out.get(layer, 0.0) + slf
        return out

    def metrics(self, wall_s):
        """The per-layer metrics of one traced command (see perfbench/README.md)."""
        agg = self.by_name()
        selfs = self.self_times()

        def calls(n):
            return agg.get(n, (0, 0.0, 0.0))[0]

        def incl(n):
            return agg.get(n, (0, 0.0, 0.0))[1]

        def self_s(n):
            return agg.get(n, (0, 0.0, 0.0))[2]

        def extras(n):
            return [s[4] for s in self.spans if s[0] == n and s[4] is not None]

        def distinct(n):
            keys = self.keys.get(n, [])
            return len(set(keys)) / len(keys) if keys else 0.0

        m = {}
        # orbits
        pp = "orbits.periodic_points"
        m[pp + ".calls"] = calls(pp)
        m[pp + ".s"] = self_s(pp)
        m[pp + ".distinct_ratio"] = distinct(pp)
        cp = "orbits.continue_periodic_points"
        m[cp + ".calls"] = calls(cp)
        m[cp + ".s"] = self_s(cp)
        seen, points = set(), 0
        for key, ex in zip(self.keys.get(pp, []), extras(pp)):
            if key not in seen:
                seen.add(key)
                points += ex["points"]
        m["orbits.points"] = points
        m["orbits.points_per_s"] = points / incl(pp) if incl(pp) > 0 else 0.0
        m["orbits.peak_mb"] = self.orbits_peak / 2**20
        # determinant
        m["determinant.trace_series.s"] = self_s("determinant.trace_series")
        m["determinant.validity_radius.calls"] = calls("determinant.validity_radius")
        m["determinant.validity_radius.s"] = self_s("determinant.validity_radius")
        m["determinant.det_zeros.s"] = self_s("determinant.det_zeros")
        m["determinant.determinant_report.s"] = self_s("determinant.determinant_report")
        zs = extras("determinant.det_zeros")
        m["determinant.zeros"] = zs[0]["zeros"] if zs else 0
        # collocation: lo / hi are the smaller and larger truncation of the run
        for n, field in (("collocation.build_transfer_matrix", "n_freq"),
                         ("collocation.eigen_resonances", "dim")):
            idx = sorted((i for i, s in enumerate(self.spans) if s[0] == n),
                         key=lambda i: self.spans[i][4][field])
            m[n + ".lo.s"] = selfs[idx[0]] if idx else 0.0
            m[n + ".hi.s"] = selfs[idx[-1]] if idx else 0.0
            hi = self.spans[idx[-1]][4] if idx else {}
            if n.endswith("build_transfer_matrix"):
                m["collocation.matrix.hi.dim"] = hi.get("dim", 0)
                m["collocation.matrix.hi.nnz"] = hi.get("nnz", 0)
            else:
                m[n + ".hi.max_residual"] = hi.get("max_residual", 0.0)
        m["collocation.stability_filter.s"] = self_s("collocation.stability_filter")
        st = extras("collocation.stability_filter")
        m["collocation.stable"] = st[-1]["stable"] if st else 0
        mp = extras("collocation.match_resonances_to_zeros")
        m["collocation.matched_pairs"] = mp[-1]["pairs"] if mp else 0
        # maps
        he = "maps.hyperbolicity_exponents"
        m[he + ".calls"] = calls(he)
        m[he + ".s"] = self_s(he)
        steps = sum(e["point_steps"] for e in extras(he))
        m[he + ".point_steps_per_s"] = steps / incl(he) if incl(he) > 0 else 0.0
        m["maps.splitting_power_iteration.calls"] = calls("maps.splitting_power_iteration")
        # bounds (reached through the validity radius)
        m["bounds.q_variational.calls"] = calls("bounds.q_variational")
        m["bounds.q_variational.s"] = self_s("bounds.q_variational")
        # aniso
        for f in ("young_check", "mixed_norm_L1F", "convolve", "dyadic_partition_sum",
                  "dyadic_partition_eval"):
            n = "aniso.partition." + f
            m[n + ".calls"] = calls(n)
            m[n + ".s"] = self_s(n)
        m["aniso.partition.dyadic_partition_eval.distinct_ratio"] = distinct(
            "aniso.partition.dyadic_partition_eval")
        ab = "aniso.blocks."
        m[ab + "FlatTraceQuadrature.init.s"] = self_s(ab + "FlatTraceQuadrature.init")
        m[ab + "FlatTraceQuadrature.partial_sum.s"] = self_s(ab + "FlatTraceQuadrature.partial_sum")
        m[ab + "BlockOperator.compressed_matrices.s"] = self_s(ab + "BlockOperator.compressed_matrices")
        cm = extras(ab + "BlockOperator.compressed_matrices")
        m[ab + "compressed.dim"] = cm[-1]["dim"] if cm else 0
        m[ab + "kneading_check.s"] = self_s(ab + "kneading_check")
        # reports
        m["reports.write.s"] = sum(self_s(n) for n in REPORT_WRITERS)
        m["reports.write.bytes"] = sum(e["bytes"] for n in REPORT_WRITERS for e in extras(n))
        # command time outside every layer span, and the covered share
        cmd_self = self_s("cli.cmd")
        m["cli.cmd.s"] = cmd_self
        uncovered = wall_s - (incl("cli.cmd") - cmd_self)
        m["trace.coverage"] = 1.0 - uncovered / wall_s if wall_s > 0 else 0.0
        return m


def _layer_of(name):
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "aniso" else parts[0]


UNITS = {"calls": "count", "s": "s", "distinct_ratio": "1", "points": "count",
         "points_per_s": "1/s", "peak_mb": "MB", "zeros": "count", "dim": "count",
         "nnz": "count", "max_residual": "1", "stable": "count", "matched_pairs": "count",
         "point_steps_per_s": "1/s", "bytes": "B", "coverage": "1", "overhead_frac": "1"}


def unit(name):
    """Unit of a per-layer metric, from the quantity its name ends in."""
    return UNITS[name.rsplit(".", 1)[1]]


def median_metrics(per_command):
    """Per-metric median over the traced commands of one run."""
    return {k: statistics.median(m[k] for m in per_command) for k in per_command[0]}
