"""Checkpoint benchmark: one workload, one closed loop, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hpccg-coll --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload svc-chain-mix --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke --workload all --seconds 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with the per-layer timing shims installed and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seed reserved for confirming claims; never used while tuning a change
HELD_OUT_SEED = 9001
SETUP_REPEATS = 3
#: untimed warm-up before the measured loop, as a share of --seconds
WARMUP_SHARE = 0.2
#: end-to-end numbers that are printed but not in the result's metrics,
#: with their unit and the per-layer metric the traced run carries them in
PRINTED = {
    "restore_mbps": ("MB/s", "restore.mbps"),
    "restore_tail_s": ("s", "restore.tail_s"),
    "chain_epoch_p50_s": ("s", "chain.epoch_p50_s"),
    "time_travel_p50_s": ("s", "chain.time_travel_p50_s"),
}
PR_SET_CHILD_SUBREAPER = 36
#: how long the end of a run waits for adopted processes before killing them
REAP_SECONDS = 30.0


def _declared(trace: bool):
    """(name, unit) of every metric ``BENCHMARK.json`` declares for the
    mode: the result carries exactly these, in this order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="hpccg-coll, unique-nodedup, svc-chain-mix, process-k2 "
                             "(or 'all' with --smoke)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up: a fast correctness pass")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` on the path; False when it is missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    # Inputs are fixed by the command line alone.
    for var in ("REPRO_TRACE", "REPRO_SPMD_BACKEND", "REPRO_SPMD_TIMEOUT"):
        os.environ.pop(var, None)
    return True


def _loop(workload, rec, seconds: float, min_iterations: int = 1) -> int:
    deadline = time.perf_counter() + seconds
    iterations = 0
    while iterations < min_iterations or time.perf_counter() < deadline:
        workload.iteration(rec)
        iterations += 1
        gc.collect()  # the previous iteration's garbage, outside timed calls
    return iterations


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    from perfbench import layers, roofline
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Recorder, tail

    cls = WORKLOADS[name]
    setup_times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        workload = None  # one set-up alive at a time, so peak RSS is one set-up's
        gc.collect()
        fresh = cls(seed, smoke)
        t0 = time.perf_counter()
        fresh.setup()
        setup_times.append(time.perf_counter() - t0)
        workload, fresh = fresh, None
    workload.prepare_oracle()
    # Set-up objects live for the whole run: keep them out of every later
    # collection, so a cyclic-GC pass inside a timed call scans only what
    # the loop allocated.
    gc.collect()
    gc.freeze()
    host = roofline.probe(workload.working_set(), repeats=1 if smoke else 5)
    print(f"host: {host['host']} nproc={host['nproc']} llc={host['llc']} "
          f"sha1_4k={host['sha1_mbps']:.0f} MB/s memcpy={host['memcpy_mbps']:.0f} MB/s "
          f"({host['residency']}, working set {host['working_set_bytes']} B)")
    print(f"workload: {name} seed={seed} (held-out seed {HELD_OUT_SEED}) "
          f"ranks={workload.n_ranks} why: {cls.why}")

    # Warm-up: the allocator and the interpreter's caches settle over the
    # first iterations (the first dumps run up to 50% slower).
    warm = Recorder()
    _loop(workload, warm, 0 if smoke else seconds * WARMUP_SHARE,
          min_iterations=1 if smoke else 2)
    untraced = Recorder()
    iterations = _loop(workload, untraced, seconds / 2 if trace else seconds)
    recorders = [warm, untraced]

    e2e = dict(workload.end_to_end(untraced))
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = workload.extra_end_to_end(untraced)

    if trace:
        tracer = Tracer()
        traced = Recorder(tracer=tracer)
        try:
            layers.install(tracer)
            traced_iterations = _loop(workload, traced, seconds / 2)
            records = tracer.records()
        finally:
            tracer.uninstall()
        recorders.append(traced)
        traced_e2e = workload.end_to_end(traced)
        derived = dict(workload.derived(traced))
        for key, value in extra.items():
            derived[PRINTED[key][1]] = value
        derived["trace_overhead_frac"] = (
            1.0 - traced_e2e["dump_mbps"] / e2e["dump_mbps"] if e2e["dump_mbps"] else 0.0
        )
        metrics = layers.layer_metrics(records, traced_iterations, host, derived)
        shares = layers.self_time_shares(records)
        print("dump self-time shares: " + ", ".join(
            f"{layer}={share:.3f}" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"traced iterations: {traced_iterations}")
    else:
        metrics = e2e

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    print(f"untraced iterations: {iterations}, operations attempted: {attempted}, "
          f"failed: {failed}, error_rate = {failed / max(1, attempted):.6f} fraction")
    for message in (m for r in recorders for m in r.failures):
        print(f"FAILED: {message}")
    for key, samples_key in (("dump_tail_s", "dump"), ("restore_tail_s", "restore"),
                             ("request_tail_s", "request")):
        samples = untraced.samples.get(samples_key, [])
        _, pct, beyond = tail(samples)
        print(f"{name} {key}: p{pct:.1f} of {len(samples)} samples, {beyond} beyond")
    declared = _declared(trace)
    units = dict(_declared(False))
    for key, value in e2e.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    for key, value in extra.items():
        print(f"{name} {key} = {value:.6g} {PRINTED[key][0]}")
    if trace:
        for key, unit in declared:
            print(f"{name} {key} = {metrics[key]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit}
                    for key, unit in declared},
    }


def _adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    Each process-backend rank that creates a shared-memory window starts a
    multiprocessing resource tracker of its own, which outlives the rank.
    Adopted, those trackers can be waited for before the benchmark exits.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def _children():
    """Pids of this process's live children, as Linux lists them."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            pids.update(int(p) for p in
                        Path(f"/proc/self/task/{task}/children").read_text().split())
        except OSError:
            pass
    return pids


def _reap_children(timeout: float = REAP_SECONDS) -> int:
    """Wait for every child process to end, killing those still running
    after ``timeout`` seconds; returns how many were reaped.  Call only
    when no rank runs: it also reaps processes ``multiprocessing`` owns."""
    deadline = time.monotonic() + timeout
    reaped = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
        elif time.monotonic() < deadline:
            time.sleep(0.01)
        else:
            for child in _children():
                print(f"killing child process {child}, still running after "
                      f"{timeout:.0f} s", file=sys.stderr)
                os.kill(child, signal.SIGKILL)
            os.waitpid(-1, 0)
            reaped += 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all" and args.smoke:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    _adopt_orphans()
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
                   for name in names]
    finally:
        reaped = _reap_children()
        print(f"reaped {reaped} orphaned child processes", file=sys.stderr)
    result = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}/{k}": v for name, r in zip(names, results)
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
