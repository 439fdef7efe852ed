"""Correctness gate for one benchmark command.

A command passes only if it exited 0, every ``pass`` flag in its report JSONs
is true, its key outputs match the reference captured from the seed commit
(``perfbench/reference/<workload>.json``) and its report files are
byte-identical to every other run of the same program source, BLAS thread
count, workload and seed.  The key outputs do not depend on the CLI seed, so
they are checked on every run, whatever its seed.  Tolerances are no looser
than the program's own: 1e-6 relative on the stable eigenvalues (the
stability filter's tol, below match_tol = 1e-4), 1e-6 on determinant zeros,
1e-9 relative on traces, 1e-12 on the partition error and 1e-8 on the flat
traces (the telescoping tolerance).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

REPORTS = {
    "resonances": ("traces.csv", "determinant.json", "match.json"),
    "aniso": ("aniso.json",),
}

# field -> (kind, tolerance); kind "rel" / "abs" compare numbers or lists of
# numbers, "complex" compares lists of {"re", "im"} by greedy nearest match,
# "exact" compares for equality
TOLERANCES = {
    "traces": ("rel", 1e-9),
    "zeros": ("complex", 1e-6),
    "matched_pairs": ("exact", None),
    "stable_eigenvalues": ("complex", 1e-6),
    "partition_max_err": ("abs", 1e-12),
    "triangularity": ("exact", None),
    "flat_trace_partial_sum": ("abs", 1e-8),
    "flat_trace_fixed_point_value": ("abs", 1e-8),
    "young_passed": ("exact", None),
}


def _pass_flags(obj, path=""):
    """Paths of every false ``pass`` flag in a report."""
    bad = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "pass" and v is not True:
                bad.append(path + ".pass")
            bad += _pass_flags(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            bad += _pass_flags(v, f"{path}[{i}]")
    return bad


def _complex(items):
    return [complex(z["re"], z["im"]) for z in items]


def key_outputs(command, out_dir):
    """The outputs compared against the reference, from one command's reports."""
    if command == "resonances":
        with open(os.path.join(out_dir, "traces.csv")) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        det = _read(out_dir, "determinant.json")
        match = _read(out_dir, "match.json")
        return {
            "traces": [float(r[1]) for r in rows[1:]],
            "zeros": [{"re": z["re"], "im": z["im"]} for z in det["zeros"]],
            "matched_pairs": len(match["match"]["pairs"]),
            "stable_eigenvalues": match["stable_eigenvalues"],
        }
    if command == "aniso":
        c = _read(out_dir, "aniso.json")["checks"]
        return {
            "partition_max_err": c["partition"]["max_err"],
            "triangularity": [c["triangularity"]["h10"], c["triangularity"]["h12"]],
            "flat_trace_partial_sum": c["flat_trace"]["partial_sum"],
            "flat_trace_fixed_point_value": c["flat_trace"]["fixed_point_value"],
            "young_passed": c["young"]["passed"],
        }
    raise ValueError(f"unknown command {command!r}")


def _read(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _close(field, got, want):
    kind, tol = TOLERANCES[field]
    if kind == "exact":
        return got == want
    if kind == "complex":
        pool = _complex(want)
        if len(got) != len(pool):
            return False
        for z in _complex(got):
            j = min(range(len(pool)), key=lambda i: abs(z - pool[i]))
            if abs(z - pool[j]) > tol * max(1.0, abs(pool[j])):
                return False
            pool.pop(j)
        return True
    got_l = got if isinstance(got, list) else [got]
    want_l = want if isinstance(want, list) else [want]
    if len(got_l) != len(want_l):
        return False
    scale = (lambda w: max(1.0, abs(w))) if kind == "rel" else (lambda w: 1.0)
    return all(abs(g - w) <= tol * scale(w) for g, w in zip(got_l, want_l))


def file_hashes(command, out_dir):
    out = {}
    for name in REPORTS[command]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check(command, rc, out_dir, reference, seen_hashes):
    """List of failure reasons for one command; empty when it passes.

    seen_hashes is the report-file hashes of earlier runs of the same source,
    BLAS thread count, workload and seed (None if there were none).
    """
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [n for n in REPORTS[command] if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        return [f"missing reports {missing}"]
    reasons = []
    for name in REPORTS[command]:
        if name.endswith(".json"):
            reasons += [f"{name}: false flag {p}" for p in _pass_flags(_read(out_dir, name))]
    got = key_outputs(command, out_dir)
    for field, want in reference["outputs"].items():
        if not _close(field, got[field], want):
            reasons.append(f"{field} differs from the reference")
    if seen_hashes is not None and file_hashes(command, out_dir) != seen_hashes:
        reasons.append("report files differ from an earlier run of the same source and seed")
    return reasons
