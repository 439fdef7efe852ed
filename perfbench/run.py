"""hypdet benchmark: run the CLI as a researcher does and report its cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                   # every workload, seed 7, 50 s each

Each measured command runs in a fresh interpreter (``perfbench/child.py``), one
at a time, in a closed loop with one client: the next command starts when
the previous one has returned, and none starts once the run's ``--seconds``
would be exceeded, except that at least MIN_COMMANDS always run.  Every command passes through
the correctness gate (``perfbench/gate.py``).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced commands and reports the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit, the run's failed fraction and its environment.
Exit status is 0 when every command passed the gate, 1 when one failed and 2
when the benchmark could not run (for example, no program in the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 7
BLAS_THREADS = "1"
# timed set-up-only processes before each untraced command; spread through
# the run, they see the same spells of machine speed as the commands do
PROBES_PER_COMMAND = 2
# A run's commands share one median; two keep it from resting on a single
# command that met a slow spell of the machine.  With --trace 1 they are one
# untraced and one traced command.
MIN_COMMANDS = 2

# Each workload is dominated by a different layer ("layer"); BENCHMARK.json
# gives the reason for each.  Both are cut from the shipped configs so that
# one command takes about 25 s on a 2-core machine and a run holds two.
WORKLOADS = {
    "resonances": {  # configs/resonances.json with N_det 12 -> 10, n_freq 32 -> 20
        "command": "resonances",
        "config": {"map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
                   "weight": {"id": "one"}, "p": 1.0, "q": -1.0, "N_det": 10,
                   "n_freq": 20, "det_radius": 1.5, "match_tol": 1e-4, "top_k": 48},
        "layer": "collocation",
    },
    "aniso": {  # configs/aniso.json with 100 -> 20 Young trials
        "command": "aniso",
        "config": {"map": {"id": "chart", "eps": 0.0}, "weight": {"id": "one"},
                   "n_max_aniso": 8, "young_trials": 20},
        "layer": "aniso.partition",
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to the program failing)."""


def pinned_env():
    """Environment for every child, with the BLAS/OpenMP thread count pinned.

    One thread, not nproc: on a shared 2-core machine a second BLAS thread
    saved under a tenth of the wall time of the resonances command and none
    on the Python-bound commands, while it spread each BLAS call over both
    cores and so over both cores' load from other work.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def source_digest():
    """sha256 over the program's sources and shipped configs."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                if f.endswith((".py", ".json")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # not a repository; do not let git search the parents
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(record, trace, argv, env, log):
    """Run child.py to completion; (monotonic spawn time, exit code, peak RSS in MB)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record, "1" if trace else "0", *argv]
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child; gives its own rusage
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, proc.returncode, usage.ru_maxrss / 1024.0


def read_record(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def setup_probe(run_dir, env, i):
    record = os.path.join(run_dir, f"probe{i}.json")
    t0, rc, _ = spawn(record, False, [], env, os.path.join(run_dir, f"probe{i}.log"))
    rec = read_record(record)
    if rc != 0 or rec is None:
        raise BenchError(f"set-up probe failed (exit {rc}); see {run_dir}/probe{i}.log")
    return rec["entry"] - t0, rec["env"]


def dominant_layer_line(layers, predicted):
    """Median self time per layer over the traced commands, largest first."""
    names = sorted({n for rec in layers for n in rec})
    med = {n: statistics.median(rec.get(n, 0.0) for rec in layers) for n in names}
    ranked = sorted(med.items(), key=lambda kv: -kv[1])
    shares = ", ".join(f"{n} {v:.3g} s" for n, v in ranked)
    return f"layer self time: {shares}; largest {ranked[0][0]} (predicted {predicted})"


def load_hashes(path):
    rec = read_record(path)
    return rec if isinstance(rec, dict) else {}


def run_workload(name, seed, seconds, trace):
    """One benchmark run of one workload; returns (result dict, report lines)."""
    wl = WORKLOADS[name]
    if not os.path.isfile(os.path.join(ROOT, "src", "hypdet", "cli.py")):
        raise BenchError(f"no hypdet program under {ROOT}/src")
    with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
        reference = json.load(fh)
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "config.json")
    with open(config, "w") as fh:
        json.dump(wl["config"], fh, indent=1, sort_keys=True)
    env = pinned_env()
    cli_seed = seed % 2**31
    digest = source_digest()
    hash_path = os.path.join(WORK, "report_hashes.json")
    # report bytes are reproducible for one source, BLAS thread count and seed
    hash_key = f"{digest}|threads={BLAS_THREADS}|{name}|{cli_seed}"

    _, info = setup_probe(run_dir, env, "warmup")  # untimed: fills the disk cache
    setups = []
    walls = {False: [], True: []}
    rss, traced, layers, failures = [], [], [], []
    attempted = 0
    start = time.monotonic()
    while True:
        tracing = trace and attempted % 2 == 1
        if not trace:
            for _ in range(PROBES_PER_COMMAND):
                setups.append(setup_probe(run_dir, env, len(setups))[0])
        out = os.path.join(run_dir, f"cmd{attempted}")
        record = out + ".json"
        argv = [wl["command"], "--config", config, "--seed", str(cli_seed), "--out", out,
                "--quiet"]
        t0, rc, peak = spawn(record, tracing, argv, env, out + ".log")
        attempted += 1
        rec = read_record(record)
        if rec is None:
            reasons = [f"exit code {rc}, no timing record"]
        else:
            hashes = load_hashes(hash_path)
            reasons = gate.check(wl["command"], rc, out, reference, hashes.get(hash_key))
            if not reasons and hash_key not in hashes:
                hashes[hash_key] = gate.file_hashes(wl["command"], out)
                with open(hash_path, "w") as fh:
                    json.dump(hashes, fh, indent=1, sort_keys=True)
        if reasons:
            failures.append(f"command {attempted - 1}: " + "; ".join(reasons)
                            + f" (log: {out}.log)")
        else:
            walls[tracing].append(rec["return"] - rec["entry"])
            if tracing:
                traced.append(rec["metrics"])
                layers.append(rec["layers"])
            else:
                setups.append(rec["entry"] - t0)
                rss.append(peak)
        elapsed = time.monotonic() - start
        per_cmd = elapsed / attempted
        done_min = attempted >= MIN_COMMANDS
        if failures or (done_min and elapsed + per_cmd > seconds) or attempted >= 200:
            break

    metrics = {}
    if not failures:
        if trace:
            import layertrace

            metrics = layertrace.median_metrics(traced)
            metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                              / statistics.median(walls[False]) - 1.0)
            metrics = {k: {"value": v, "unit": layertrace.unit(k)} for k, v in metrics.items()}
        else:
            values = {"wall_s": statistics.median(walls[False]),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": statistics.median(rss)}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    failed = len(failures)
    env_info = {"workload": name, "seed": seed, "cli_seed": cli_seed, "trace": trace,
                "nproc": len(os.sched_getaffinity(0)), "threads": env["OPENBLAS_NUM_THREADS"],
                "machine": platform.machine(), "git_sha": git_sha(), "source_sha256": digest,
                **info}
    lines = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    if layers:
        lines.append(dominant_layer_line(layers, wl["layer"]))
    lines.append(f"failed_frac {failed / attempted:.6g} 1  ({failed} of {attempted} commands)")
    lines += ["FAILED " + f for f in failures]
    lines.append("env " + json.dumps(env_info, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"env": env_info, "result": result, "failures": failures}, fh, indent=1)
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for line in lines:
                print(f"[{name}] {line}", flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
