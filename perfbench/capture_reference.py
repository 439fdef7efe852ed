"""Capture the reference key outputs of every workload at the default seed.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Runs each workload's command once, untraced, at the benchmark's default seed
and writes ``perfbench/reference/<workload>.json``.  The committed files were
captured from the seed commit of the benchmark; recapture only when a change
is meant to alter the program's results, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys

import gate
import run


def capture(name):
    wl = run.WORKLOADS[name]
    out = os.path.join(run.WORK, f"reference-{name}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config = os.path.join(out, "config.json")
    with open(config, "w") as fh:
        json.dump(wl["config"], fh)
    argv = [wl["command"], "--config", config, "--seed", str(run.DEFAULT_SEED),
            "--out", out, "--quiet"]
    _, rc, _ = run.spawn(out + ".json", False, argv, run.pinned_env(), out + ".log")
    if rc != 0:
        raise SystemExit(f"{name}: exit code {rc}; see {out}.log")
    ref = {
        "workload": name,
        "seed": run.DEFAULT_SEED,
        "blas_threads": run.BLAS_THREADS,
        "git_sha": run.git_sha(),
        "source_sha256": run.source_digest(),
        "outputs": gate.key_outputs(wl["command"], out),
    }
    path = os.path.join(run.HERE, "reference", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{name}: wrote {os.path.relpath(path, run.ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        capture(name)
