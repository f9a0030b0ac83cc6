#!/usr/bin/env python3
"""The repo's round benchmark: one command, two workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expander-seq --seed 1 --seconds 10 --trace 0

It builds the program of perfbench/lbbench/ (a dune project of its own)
against a copy of the checkout's lib/ under .bench_build/, runs the
workload in fresh processes, checks every output, prints the host
context and one line per metric, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of END_TO_END; with
--trace 1 they are the per-layer ones of PER_LAYER.  The exit code is 0
only when every check passed.  The traced table names, on every row,
which end-to-end metric the per-layer metric should move, and on which
workload.  `--scale reduced` runs the same command on small inputs (see
test_run.py).

A round is one synchronous round of the balancing process.  Round times
run from one round boundary to the next: the engine hook for the
expander and the stepper return for the open system.

Both workloads run on one thread, and the gated timings are CPU time of
that process (getrusage, user + system): on an idle core it equals the
wall time, and on a shared host it leaves out the time the scheduler or
the hypervisor (steal) gives the core to other work.  It does not leave
out a change in the host's own speed, which on a shared host can move
both clocks alike from one run to the next.  The table prints the
wall-clock figures too (rounds_per_s, round_p50_ms, round_p90_ms), ungated.

Two parallel engines are measured on the side of a traced run instead of
as workloads of their own, because with two domains or processes on a
2-vCPU shared host their round times depend on the host's scheduler:
the traced expander-seq run also runs the same inputs through
Shard.Shard_engine.run on 2 domains (shard.* metrics), and the traced
torus-open-lossy run forks a 2-shard lib/dist cluster (hypercube:5,
point:8192, rotor-router, lossless, WAL on) for the dist.* metrics.
Both are checked against Core.Engine.run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    "expander-seq": (
        "random 8-regular graph, n=2^18, rotor-router d°=8, point mass 16n, "
        "through Core.Engine.run on one core: the kernel alone"
    ),
    "torus-open-lossy": (
        "32x32 torus, send-round d°=8, Poisson arrivals at 0.75 of capacity, "
        "service rate 2, lossy net, seeded faults, watchdog on"
    ),
}

# (name, unit, better).  failed_share is always 0 on a correct run, so
# it is carried by the result's "attempted"/"failed" counts and printed
# in the table, not listed here (a metric of 0 has no relative bound).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("rounds_per_cpu_s", "1/s", "higher"),
    ("round_cpu_p50_ms", "ms", "lower"),
    ("round_cpu_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better, end-to-end metric it should move, workloads).
# A workload that does not reach a layer reports 0 for its metrics.  The
# shard.* and dist.* metrics come from the side-runs of the traced
# expander-seq and torus-open-lossy runs and move no end-to-end metric of
# this benchmark.
PER_LAYER = [
    ("graphs.gen_s", "s", "lower", "setup_s", ["expander-seq"]),
    ("graphs.band_s", "s", "lower", "setup_s", ["torus-open-lossy"]),
    ("core.assign_calls", "count", "lower", "rounds_per_cpu_s", ["expander-seq"]),
    ("core.assign_ns", "ns", "lower", "rounds_per_cpu_s", ["expander-seq"]),
    ("core.engine_ns_per_node", "ns", "lower", "round_cpu_p50_ms", ["expander-seq"]),
    ("core.bytes_per_round", "B-computed", "lower", "round_cpu_p50_ms", ["expander-seq"]),
    ("core.gb_per_s", "GB/s-computed", "higher", "rounds_per_cpu_s", ["expander-seq"]),
    # Shard_engine.run partitions inside every call, so the partition is
    # paid in each batch's first round rather than in set-up.
    ("shard.partition_s", "s", "lower", None, ["expander-seq"]),
    ("shard.cut_edges", "count", "lower", None, ["expander-seq"]),
    ("shard.boundary_nodes", "count", "lower", None, ["expander-seq"]),
    ("shard.first_round_ms", "ms", "lower", None, ["expander-seq"]),
    ("shard.extra_rss_mb", "MB", "lower", None, ["expander-seq"]),
    ("shard.speedup_vs_seq", "x", "higher", None, ["expander-seq"]),
    ("workload.self_ms_per_round", "ms", "lower", "rounds_per_cpu_s", ["torus-open-lossy"]),
    ("workload.arrivals", "count", "higher", "rounds_per_cpu_s", ["torus-open-lossy"]),
    ("workload.departures", "count", "higher", "rounds_per_cpu_s", ["torus-open-lossy"]),
    ("net.step_ms", "ms", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("net.plain_step_ms", "ms", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("net.transmissions", "count", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("net.retransmissions", "count", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("net.retx_per_message", "ratio", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("net.drain_rounds", "count", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("net.stalled_node_rounds", "count", "lower", "round_cpu_p50_ms", ["torus-open-lossy"]),
    ("faults.events", "count", "lower", "round_cpu_p90_ms", ["torus-open-lossy"]),
    ("faults.watchdog_checks", "count", "lower", "rounds_per_cpu_s", ["torus-open-lossy"]),
    ("dist.admission_s", "s", "lower", None, ["torus-open-lossy"]),
    ("dist.rounds_committed", "count", "higher", None, ["torus-open-lossy"]),
    ("dist.epoch", "count", "lower", None, ["torus-open-lossy"]),
    ("dist.stale_frames", "count", "lower", None, ["torus-open-lossy"]),
    ("dist.wal_bytes_per_round", "B", "lower", None, ["torus-open-lossy"]),
    ("obs.trace_overhead_pct", "%", "lower", "rounds_per_cpu_s", list(WORKLOADS)),
]

# Final-load digest of one expander batch at the default seed, per scale
# (Core.Engine.run and Shard.Shard_engine.run must both reach it).
DEFAULT_SEED = 1
RECORDED_EXPANDER_DIGESTS = {"full": "254a9feca4382b1b", "reduced": "15b5c4bbeb30018d"}

# Measuring time of each side-run of a traced run, capped by --seconds.
SIDE_SECONDS = 10.0
# Set-ups measured per run (the median is setup_s).
SETUPS = 5

BUILD_DIR = ".bench_build"
SRC = os.path.join(BUILD_DIR, "src")
EXE = os.path.join(SRC, "_build", "default", "lbbench", "lbbench.exe")
TMP = os.path.join(BUILD_DIR, "perfbench-tmp")
DEADLINE_S = 170.0  # whole invocation, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the workload program from this checkout's sources.

    The build tree is perfbench/lbbench's own dune project with a fresh
    copy of lib/ beside it; copies keep their mtimes, so an unchanged
    checkout rebuilds nothing."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir("lib") or not os.path.isfile("dune-project"):
        log("run.py: not at the root of a loadbal checkout (no dune-project and lib/)")
        return False
    try:
        for sub in ("lib", "lbbench"):
            shutil.rmtree(os.path.join(SRC, sub), ignore_errors=True)
        shutil.copytree("lib", os.path.join(SRC, "lib"))
        package = os.path.join(here, "lbbench")
        os.makedirs(os.path.join(SRC, "lbbench"))
        shutil.copy2(os.path.join(package, "dune-project"), SRC)
        for f in ("dune", "lbbench.ml"):
            shutil.copy2(os.path.join(package, f), os.path.join(SRC, "lbbench"))
    except OSError as e:
        log(f"run.py: cannot assemble the build tree: {e}")
        return False
    cmd = ["dune", "build", "--root", SRC, "./lbbench/lbbench.exe"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        cmd = ["opam", "exec", "--"] + cmd
    try:
        # No shared dune cache: the build reads and writes only this checkout.
        env = dict(os.environ, DUNE_CACHE="disabled")
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


def run_proc(args, deadline):
    """Run lbbench in its own process group; return (json, peak RSS in MB).

    The RSS comes from wait4 on that process, so it covers only the
    process (and the children it reaped) that ran this one job."""
    os.makedirs(TMP, exist_ok=True)
    out_path = os.path.join(TMP, f"out.{os.getpid()}.json")
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([EXE] + args, stdout=out, start_new_session=True)
    status, rusage = None, None
    try:
        while status is None:
            pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                status, rusage = st, ru
            elif deadline.left() <= 0:
                raise RuntimeError(f"{' '.join(args)}: over the time budget, killed")
            else:
                time.sleep(0.02)
    finally:
        # Any process the job left behind in its group goes too, and so
        # does the job itself when it overran or this run was stopped.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if status is None:
            os.wait4(proc.pid, 0)
            os.remove(out_path)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = f.read().splitlines()
    os.remove(out_path)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)}: exit {proc.returncode}")
    return json.loads(lines[-1]), rusage.ru_maxrss / 1024.0


def quantile(sorted_values, q):
    """Nearest-rank quantile of a sorted list."""
    i = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[i]


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
            if kind != "Instruction":
                sizes["L" + level] = size
    except OSError:
        pass
    return sizes


def size_bytes(text):
    mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in mult:
        return int(text[:-1]) * mult[text[-1]]
    return int(text) if text and text.isdigit() else 0


def check_lines(doc):
    return doc.get("checks", []) + doc.get("replay", [])


def wall_rate(doc):
    return len(doc["gaps_ns"]) / doc["wall_s"] if doc["wall_s"] > 0 else 0.0


def run_workload(opts, deadline):
    """Run one workload's processes; return (measure doc, its peak RSS,
    set-ups as (wall, cpu) pairs, checks, extra per-layer figures)."""
    w = opts.workload
    common = ["--seed", str(opts.seed), "--scale", opts.scale, "--tmp", TMP]
    measure_args = [w, "--mode", "measure", "--seconds", str(opts.seconds),
                    "--trace", str(opts.trace)] + common
    doc, rss = run_proc(measure_args, deadline)
    setups = list(zip(doc["setup_s"], doc["setup_cpu_s"]))
    checks = check_lines(doc)
    extra = {}

    if w == "expander-seq":
        chk, _ = run_proc([w, "--mode", "check", "--engine", "shard"] + common, deadline)
        setups += zip(chk["setup_s"], chk["setup_cpu_s"])
        checks += chk["checks"]
        checks.append({
            "name": "final-load digest equal across Core.Engine and Shard_engine",
            "ok": chk["digest"] == doc["digest"],
            "detail": f"Core.Engine {doc['digest']}, Shard_engine {chk['digest']}",
        })
        if opts.seed == DEFAULT_SEED:
            recorded = RECORDED_EXPANDER_DIGESTS[opts.scale]
            checks.append({
                "name": "final-load digest equals the recorded default-seed value",
                "ok": doc["digest"] == recorded,
                "detail": f"{doc['digest']} vs recorded {recorded}",
            })
    while len(setups) < SETUPS:
        s, _ = run_proc([w, "--mode", "setup"] + common, deadline)
        setups += zip(s["setup_s"], s["setup_cpu_s"])

    side_seconds = str(min(opts.seconds, SIDE_SECONDS))
    if opts.trace and w == "torus-open-lossy":
        side, _ = run_proc(["cluster-2shard", "--mode", "measure", "--seconds",
                            side_seconds, "--trace", "1"] + common, deadline)
        checks += check_lines(side)
        extra.update((k, v) for k, v in side["layer"].items() if k.startswith("dist."))
    if opts.trace and w == "expander-seq":
        side, side_rss = run_proc(["expander-2shard", "--mode", "measure", "--seconds",
                                   side_seconds, "--trace", "1"] + common, deadline)
        checks += check_lines(side)
        checks.append({
            "name": "Shard_engine side-run reaches the Core.Engine final loads",
            "ok": side["digest"] == doc["digest"],
            "detail": f"Core.Engine {doc['digest']}, Shard_engine {side['digest']}",
        })
        extra.update((k, v) for k, v in side["layer"].items() if k.startswith("shard."))
        # Parallel speed-up is a wall-clock ratio of the untraced batches.
        extra["shard.extra_rss_mb"] = side_rss - rss
        extra["shard.speedup_vs_seq"] = wall_rate(side) / wall_rate(doc)
    return doc, rss, setups, checks, extra


def target(moves, on):
    if moves is None:
        return f"no end-to-end metric (side-run of the traced {', '.join(on)} run)"
    return f"{moves} on {', '.join(on)}"


def summarize(opts, doc, rss, setups, checks, extra):
    """Turn one run's raw figures into (result dict, report lines).

    Any failed check marks every round of the run as failed."""
    gaps = sorted(doc["gaps_ns"])
    cpu_gaps = sorted(doc["cpu_gaps_ns"])
    rounds = len(gaps)
    attempted = doc["attempted"]
    lines = [f"CHECK FAILED: {c['name']}: {c['detail']}" for c in checks if not c["ok"]]
    lines.append(f"checks: {sum(c['ok'] for c in checks)}/{len(checks)} passed")
    correct = bool(checks) and all(c["ok"] for c in checks)
    if rounds < 100:
        # A p90 needs at least ten rounds beyond it.
        lines.append(f"only {rounds} rounds measured; a p90 needs 100")
        correct = False
    failed = 0 if correct else attempted

    cpu_s = doc["cpu_s"]
    e2e = {
        "setup_s": (statistics.median(c for _, c in setups),
                    f"CPU; median of {len(setups)} set-ups, wall median "
                    f"{statistics.median(w for w, _ in setups):.4g} s"),
        "rounds_per_cpu_s": (rounds / cpu_s if cpu_s > 0 else 0.0,
                             f"{rounds} rounds in {cpu_s:.3f} CPU s"),
        "peak_rss_mb": (rss, "wait4 peak of the measuring process"),
    }
    # Wall-clock figures: printed, not gated.
    wall = [("rounds_per_s", wall_rate(doc), "1/s",
             f"wall; {rounds} rounds in {doc['wall_s']:.3f} s")]
    if rounds:
        e2e["round_cpu_p50_ms"] = (quantile(cpu_gaps, 0.5) / 1e6, f"{rounds} samples")
        wall.append(("round_p50_ms", quantile(gaps, 0.5) / 1e6, "ms", f"wall; {rounds} samples"))
    if rounds >= 100:
        e2e["round_cpu_p90_ms"] = (quantile(cpu_gaps, 0.9) / 1e6, f"{rounds} samples")
        wall.append(("round_p90_ms", quantile(gaps, 0.9) / 1e6, "ms", f"wall; {rounds} samples"))
    lines.append(f"{opts.workload}:")
    for name, unit, _ in END_TO_END:
        if name in e2e:
            value, note = e2e[name]
            lines.append(f"  {name:<16} {value:>14.6g} {unit:<4} ({note})")
    for name, value, unit, note in wall:
        lines.append(f"  {name:<16} {value:>14.6g} {unit:<4} ({note})")
    lines.append(f"  {'failed_share':<16} {failed / max(1, attempted):>14.6g} {'':<4} "
                 f"({failed} of {attempted} rounds)")

    if opts.trace:
        layer = dict(doc["layer"])
        layer.update(extra)
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit, _, _, _ in PER_LAYER}
        for name, unit, _, moves, on in PER_LAYER:
            reached = "" if name in layer else "  (layer not reached: 0)"
            lines.append(f"  {name:<28} {metrics[name]['value']:>14.6g} {unit:<13} "
                         f"-> {target(moves, on)}{reached}")
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END if name in e2e}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def host_line(opts, doc):
    caches = cache_sizes()
    llc = caches.get("L3") or caches.get("L2") or ""
    return (
        f"host: nproc={os.cpu_count()} (OCaml domains {doc['nproc']}), "
        f"L2={caches.get('L2', '?')}, L3={caches.get('L3', '?')}, OCaml {doc['ocaml']}, "
        f"n={doc['n']}, working set {doc['working_set_bytes']} B (computed) vs LLC "
        f"{size_bytes(llc)} B, seed {opts.seed}, scale {opts.scale}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "reduced"], default="full")
    opts = ap.parse_args()
    # A stop request unwinds through run_proc, which stops the job.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not build():
        return 2
    try:
        doc, rss, setups, checks, extra = run_workload(opts, Deadline(DEADLINE_S))
    except (RuntimeError, ValueError, KeyError, OSError) as e:
        log(f"run.py: {e}")
        return 1
    result, lines = summarize(opts, doc, rss, setups, checks, extra)
    print(host_line(opts, doc))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
