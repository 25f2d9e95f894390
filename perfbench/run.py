#!/usr/bin/env python3
"""The repository benchmark: goodput, tail latency and policy quality of the
shipped audit_server, end to end and layer by layer.

Run from the root of the source tree:

    python3 perfbench/run.py --workload durable --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cold --trace 1      # per-layer run
    python3 perfbench/run.py --workload cold --repeat 10    # median/quartiles

One run builds the package (perfbench/CMakeLists.txt) into .bench_build/,
starts audit_server as its own process, and drives it with perf_client:
a set-up phase, repeated on fresh servers (`setups` per workload) to
report its median, then the measured phase, then the in-process replay that checks
every served policy. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The exit code is 0
only when every check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SERVER = BUILD / "auditgame" / "tools" / "audit_server"

# Shared by every workload; the client gets the matching scenario and
# service flags so its replay reproduces the server's tenants.
SERVICE_FLAGS = ["--scenario=uniform", "--types=5", "--budgets=6,10",
                 "--eps=0.25", "--warm_max_drift=0.25"]
# perf_client reads the shard count back from the server's stats and keeps
# 4 requests in flight per shard, below the default queue bound of 128.
SERVER_FLAGS = ["--shards=2", "--reactors=1"] + SERVICE_FLAGS
RUN_BUDGET_S = 170    # a run must end within 180 s

# Each workload's measured work grows with --seconds: a fixed op count per
# second of run, sized so a run measures about --seconds on the 4-core
# reference container. Fixed work (not a deadline) keeps loss_mean, the
# source ratios and the server's memory a function of the seed alone.
# `setups` is how many fresh servers go through the set-up phase per run
# (the last one is measured); setup_s is their median. The measured phase
# is cut into `rounds` of equal work, and the throughput, latency and CPU
# metrics are medians over rounds; `cold` has 8 so that each round keeps
# enough solves for its p90.
#
# Two planned workloads were dropped. `poll` was the `durable` traffic
# without the WAL, and `warm` was 1 ingest + 1 solve per cycle on warmed
# tenants, every policy a warm re-solve. `durable` runs every layer they
# would (its first poll of each cycle is a warm re-solve), and on the
# shared 4-core host no 10-12 s run of any workload kept its spread within
# the bounds, so their run time went into 20 s runs of these two.
WORKLOADS = {
    # Onboarding: each tenant is new and sends 1 ingest + 1 solve, so every
    # policy is a cold ISHM sweep and a compile-cache miss. Set-up is only
    # the server start (milliseconds), so it is sampled more often.
    "cold": dict(tenants_per_s=66, cycles=1, polls=1, warm_up=False,
                 durable=False, setups=15, rounds=8),
    # Polling traffic with the WAL on: each cycle is 1 ingest + 20 polls, on
    # a jitter stream revisiting the baseline every 5th cycle, so most polls
    # are PolicyCache hits. Every op is logged, with one write per shard
    # batch (the group commit) and periodic snapshots.
    "durable": dict(tenants=32, cycles_per_s=20, polls=20, warm_up=True,
                    durable=True, setups=3, rounds=10),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4", "--target",
                    "perfbench_all"], stdout=sys.stderr, check=True)


class Server:
    """audit_server as a child process on an ephemeral port."""

    LISTENING = re.compile(r"listening on [0-9.]+:(\d+)")

    def __init__(self, data_dir=None):
        argv = [str(SERVER), "--port=0"] + SERVER_FLAGS
        if data_dir is not None:
            # No fdatasync: the data directory sits on a virtual disk shared
            # with other tenants, whose flush latency (p99 ~7 ms, swinging
            # 5x from minute to minute) would measure their IO rather than
            # this program. Every op is still logged and group-committed.
            argv += [f"--data_dir={data_dir}", "--wal_sync=none"]
        self.port = None
        self.listen_s = None
        self.tail = []
        self._listening = threading.Event()
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self._reader = threading.Thread(target=self._read, args=(start,),
                                        daemon=True)
        self._reader.start()
        if not self._listening.wait(30) or self.port is None:
            self.stop()
            raise RuntimeError("audit_server did not start: "
                               + "".join(self.tail[-5:]))

    def _read(self, start):
        # Drains stderr for the server's whole life (its final stats dump
        # must never block on a full pipe).
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            self.tail = (self.tail + [line])[-20:]
            found = self.LISTENING.search(line)
            if found and self.port is None:
                self.listen_s = time.perf_counter() - start
                self.port = int(found.group(1))
                self._listening.set()
        self._listening.set()

    def peak_rss_mib(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return metrics.peak_rss_mib(status)

    def stop(self):
        """Graceful drain (SIGTERM), then kill if it hangs; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def client_argv(workload, seed, seconds, port, pid, out, setup_only, trace):
    spec = WORKLOADS[workload]
    tenants = spec.get("tenants") or round(spec["tenants_per_s"] * seconds)
    cycles = spec.get("cycles") or round(spec["cycles_per_s"] * seconds)
    binary = BUILD / ("perf_client_traced" if trace else "perf_client")
    argv = [str(binary), f"--port={port}", f"--server_pid={pid}",
            f"--seed={seed}", f"--tenants={tenants}", f"--cycles={cycles}",
            f"--polls={spec['polls']}", f"--warm_up={int(spec['warm_up'])}",
            f"--rounds={spec['rounds']}",
            f"--setup_only={int(setup_only)}", f"--trace={int(trace)}",
            f"--out={out}"] + SERVICE_FLAGS
    if trace:
        argv.append(f"--spans={BUILD / f'trace-{workload}.csv'}")
    return argv


def run_once(workload, seed, seconds, trace):
    """One benchmark run. Returns (raw client output, setup times, peak
    server RSS in MiB)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_seconds = []
        setups = WORKLOADS[workload]["setups"]
        for i in range(setups):
            measure = i == setups - 1
            data_dir = (run_dir / f"data-{i}"
                        if WORKLOADS[workload]["durable"] else None)
            server = Server(data_dir)
            try:
                out = run_dir / f"client-{i}.json"
                subprocess.run(
                    client_argv(workload, seed, seconds, server.port,
                                server.proc.pid, out, not measure, trace),
                    stdin=subprocess.DEVNULL, stdout=sys.stderr, check=True,
                    timeout=max(1.0, deadline - time.monotonic()))
                raw = json.loads(out.read_text())
                if measure:  # kept for inspection after the run
                    shutil.copy(out, BUILD / f"raw-{workload}.json")
                setup_seconds.append(server.listen_s + raw["setup"]["seconds"])
                if metrics.failed_attempts(raw["setup"]) or measure:
                    rss = server.peak_rss_mib() if measure else 0.0
                    return raw, setup_seconds, rss
            finally:
                server.stop()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload, seed, seconds, trace):
    """Runs once and returns (result line dict, problems)."""
    raw, setup_seconds, rss = run_once(workload, seed, seconds, trace)
    problems = metrics.problems(raw)
    phases = [raw["setup"]] + ([raw["measured"]] if "measured" in raw else [])
    attempted = sum(p["attempts"] for p in phases)
    failed = sum(metrics.failed_attempts(p) for p in phases)
    values = {}
    if "measured" in raw:
        values = (metrics.per_layer(raw) if trace else
                  metrics.end_to_end(raw, setup_seconds, rss))
    units = {m["name"]: m["unit"] for m in bench_config()[
        "per_layer" if trace else "end_to_end"]}
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    m = raw.get("measured")
    if m is not None:
        tails = [metrics.tail_percentile(r["latency_ms"])
                 for r in metrics.rounds(raw)]
        log(f"{workload} seed {seed}: {metrics.ok_ops(m)} ok ops in "
            f"{m['seconds']:.2f}s over {len(tails)} rounds; latency_tail_ms "
            f"is the median of per-round "
            + ", ".join(sorted({f"p{round(q * 100)} of {n}"
                                for q, _, n in tails}))
            + f" solve_cycle samples; replay checked "
            f"{raw['replay']['policies_checked']} policies in "
            f"{raw['replay']['seconds']:.2f}s")
        log("  per-round ok ops/s: " + " ".join(
            f"{metrics.mean(r['ok'], r['seconds']):.0f}"
            for r in metrics.rounds(raw)))
    return result, problems


def bench_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repeat(workload, first_seed, seconds, trace, runs):
    """Runs `runs` seeds and prints each metric's median and quartiles next
    to its bound; the last line is the same table as JSON."""
    per_metric = {}
    for seed in range(first_seed, first_seed + runs):
        result, problems = measure(workload, seed, seconds, trace)
        if problems:
            log(f"seed {seed}: " + "; ".join(problems))
            return 1
        for name, entry in result["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    bounds = {m["name"]: m.get("bound") for m in bench_config()[
        "per_layer" if trace else "end_to_end"]}
    table = {}
    for name, values in per_metric.items():
        median, q1, q3, rel = metrics.spread(values)
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": rel,
                       "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "  ok" if rel < bound / 3 else "  WIDE (>= bound/3)")
        print(f"{name:34s} median {median:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {rel:7.4f}"
              + ("" if bound is None else f"  bound {bound}") + flag)
    print(json.dumps({"workload": workload, "runs": runs, "metrics": table}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N seeds from --seed and print quartiles")
    args = parser.parse_args()
    # A timeout kill (SIGTERM) still runs the finally blocks that stop
    # the server and remove the run directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2
    if args.repeat:
        return repeat(args.workload, args.seed, args.seconds, args.trace,
                      args.repeat)
    result, problems = measure(args.workload, args.seed, args.seconds,
                               args.trace)
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
