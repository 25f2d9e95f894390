"""Metric arithmetic of the benchmark.

perf_client writes raw counts and samples; run.py feeds them through these
functions. Everything here is pure (no I/O) so test_metrics.py can pin it.
"""

import math
import statistics

# Tail percentiles tried from the highest down; the first with at least
# TAIL_MIN_BEYOND samples ranked above it is reported.
TAIL_CANDIDATES = (0.99, 0.90)
TAIL_MIN_BEYOND = 10

# The client is the bottleneck, not the server, when its thread is busier
# than this share of the measured phase.
CLIENT_BUSY_LIMIT = 0.9

SOURCES = ("cache", "warm", "cold")


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile of an ascending sample (q in (0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n, q):
    """Samples ranked strictly above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def tail_percentile(values):
    """(q, value, n): the highest candidate percentile with at least ten
    samples beyond it. Falls back to the median for tiny samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            return q, nearest_rank(ordered, q), n
    return 0.5, nearest_rank(ordered, 0.5), n


def ok_ops(phase):
    return phase["ok_ingest"] + phase["ok_solve"]


def failed_attempts(phase):
    """Attempts not answered ok, plus responses that paired with nothing.

    Every send counts as an attempt, retries included, so an op that was
    shed twice and then served is two failures and one success."""
    failed = phase["attempts"] - ok_ops(phase) + phase["unmatched"]
    return min(phase["attempts"], failed)


def failed_ratio(phase):
    if phase["attempts"] == 0:
        return 1.0
    return failed_attempts(phase) / phase["attempts"]


def proc_cpu_ticks(stat_text):
    """utime + stime (clock ticks) from a /proc/<pid>/stat line."""
    # The command name (field 2) is parenthesised and may hold spaces; the
    # fields after its closing parenthesis start at field 3 (state).
    fields = stat_text[stat_text.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def peak_rss_mib(status_text):
    """VmHWM (peak resident set) from /proc/<pid>/status, in MiB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def shard_totals(stats, key):
    return sum(shard.get(key, 0) for shard in stats.get("shards", []))


def persistence_totals(stats, key):
    return sum(shard.get("persistence", {}).get(key, 0)
               for shard in stats.get("shards", []))


def mean(total, count):
    return total / count if count else 0.0


def problems(raw):
    """Reasons the run is not valid; empty when every check passed.

    The client's window is below the server's queue bound, so a shed
    (`overloaded`) attempt is a failed attempt like any other."""
    found = []
    setup, measured = raw["setup"], raw.get("measured")
    if failed_attempts(setup):
        found.append(f"set-up phase: {failed_attempts(setup)} failed "
                     f"attempts, {setup['overloaded']} shed")
    if measured is None:
        return found + ["no measured phase"]
    if ok_ops(measured) < measured["planned_ops"]:
        found.append(f"measured phase served {ok_ops(measured)} of "
                     f"{measured['planned_ops']} planned ops")
    if failed_attempts(measured):
        found.append(f"measured phase: {failed_attempts(measured)} failed "
                     f"attempts, {measured['overloaded']} shed "
                     f"{measured['error_samples']}")
    trace_mismatches = raw.get("trace", {}).get("mismatches", 0)
    if trace_mismatches:
        found.append(f"{trace_mismatches:.0f} traced re-solves differ from "
                     f"the served policy")
    replay = raw["replay"]
    if replay["mismatches"]:
        found.append(f"{replay['mismatches']} served policies differ from "
                     f"the in-process replay {replay['mismatch_samples']}")
    if (replay["measured_policies"] != raw["measured_policies"]
            or replay["measured_loss_sum"] != raw["measured_loss_sum"]):
        found.append("loss_mean differs from the in-process replay")
    busy = client_busy_ratio(raw)
    if busy > CLIENT_BUSY_LIMIT:
        found.append(f"client thread busy {busy:.2f} of the measured phase: "
                     f"the generator, not the server, is the bottleneck")
    return found


def client_busy_ratio(raw):
    return mean(raw["client_cpu_seconds"], raw["measured"]["seconds"])


def rounds(raw):
    """The measured phase cut at its round marks: one dict per round with
    its duration, ok ops, solved policies, latency samples and server CPU
    ticks. Rounds hold equal op counts, so each is the same work."""
    m = raw["measured"]
    previous = dict(seconds=0.0, ok_ops=0, solve_samples=0,
                    solved_policies=0, server_stat=raw["server_stat_before"])
    cut = []
    for mark in m["rounds"]:
        cut.append(dict(
            seconds=mark["seconds"] - previous["seconds"],
            ok=mark["ok_ops"] - previous["ok_ops"],
            solved=mark["solved_policies"] - previous["solved_policies"],
            latency_ms=m["latency_ms"][int(previous["solve_samples"]):
                                       int(mark["solve_samples"])],
            ticks=(proc_cpu_ticks(mark["server_stat"])
                   - proc_cpu_ticks(previous["server_stat"]))))
        previous = mark
    return cut


def end_to_end(raw, setup_seconds, rss_mib):
    """Throughput, latency and CPU are each taken per round and reported as
    the median over rounds, so a short burst of noise from elsewhere on
    the host moves at most one round."""
    m = raw["measured"]
    ticks_per_ms = raw["clock_ticks_per_second"] / 1000.0

    def median_over_rounds(per_round):
        return statistics.median(per_round(r) for r in rounds(raw))

    return {
        # Only ok responses count: rejected, errored and retried attempts
        # are in m["attempts"], never in a round's "ok".
        "goodput_rps": median_over_rounds(
            lambda r: mean(r["ok"], r["seconds"])),
        "solved_policies_per_s": median_over_rounds(
            lambda r: mean(r["solved"], r["seconds"])),
        "latency_p50_ms": median_over_rounds(
            lambda r: nearest_rank(sorted(r["latency_ms"]), 0.5)),
        "latency_tail_ms": median_over_rounds(
            lambda r: tail_percentile(r["latency_ms"])[1]),
        "ok_ratio": 1.0 - failed_ratio(m),
        "loss_mean": mean(raw["measured_loss_sum"], raw["measured_policies"]),
        "server_cpu_ms_per_op": median_over_rounds(
            lambda r: mean(r["ticks"] / ticks_per_ms, r["ok"])),
        "server_rss_mb": rss_mib,
        "setup_s": statistics.median(setup_seconds),
    }


def per_layer(raw):
    m, trace = raw["measured"], raw.get("trace", {})
    before, after = raw["stats_before"], raw["stats_after"]
    ops = ok_ops(m)
    service = sorted(m["service_ms"])
    wait = sorted(max(0.0, lat - svc)
                  for lat, svc in zip(m["latency_ms"], m["service_ms"]))
    policies = sum(m[f"policies_{s}"] for s in SOURCES)

    def traced(key):
        entry = trace.get(key, {"total": 0.0, "count": 0})
        return mean(entry["total"], entry["count"])

    def delta(key):
        return shard_totals(after, key) - shard_totals(before, key)

    metrics = {
        "client.busy_ratio": client_busy_ratio(raw),
        "failed_ratio": failed_ratio(m),
        "server.codec.request_bytes": mean(m["request_bytes"], m["attempts"]),
        "server.codec.response_bytes": mean(m["response_bytes"],
                                            m["attempts"]),
        "server.codec.decode_us": traced("decode_us"),
        "server.codec.encode_us": traced("encode_us"),
        "server.service_ms_p50": nearest_rank(service, 0.5),
        "server.service_ms_p99": nearest_rank(service, 0.99),
        "server.wait_ms_p50": nearest_rank(wait, 0.5),
        "server.wait_ms_p99": nearest_rank(wait, 0.99),
        "server.batch_mean": mean(delta("processed"), delta("batches")),
        "server.retries_per_ok": mean(m["retries"], ops),
        # wal_bytes/wal_records count the live log, which snapshots prune,
        # so their ratio (not their deltas) gives bytes per logged op.
        "server.wal.bytes_per_op": mean(persistence_totals(after, "wal_bytes"),
                                        persistence_totals(after,
                                                           "wal_records")),
        "server.wal.snapshots": (
            persistence_totals(after, "snapshots_written")
            - persistence_totals(before, "snapshots_written")),
    }
    for source in SOURCES:
        metrics[f"service.{source}_ratio"] = mean(m[f"policies_{source}"],
                                                  policies)
        metrics[f"service.cycle_ms.{source}"] = traced(f"cycle_ms_{source}")
    metrics.update({
        "service.ingest_us": traced("ingest_us"),
        "core.ishm.probes_per_solve": traced("probes"),
        "core.ishm.evaluations_per_solve": traced("evaluations"),
        "core.ishm.probe_ms_p50": nearest_rank(
            sorted(trace.get("probe_ms", [])), 0.5),
        "core.ishm.self_ms": traced("ishm_self_ms"),
        "core.cggs.master_solves": traced("cggs_master_solves"),
        "core.cggs.columns_generated": traced("cggs_columns"),
        "core.cggs.pricing_ms": traced("cggs_pricing_ms"),
        "core.cggs.solve_ms": traced("cggs_solve_ms"),
        "lp.pivots_per_cggs": traced("cggs_pivots"),
        "core.detection.create_ms": traced("create_ms"),
        "core.detection.set_thresholds_us": traced("set_thresholds_us"),
        "alloc.per_solve": mean(trace.get("solve_allocations", 0),
                                trace.get("solved_policies", 0)),
        "trace.mismatches": trace.get("mismatches", 0),
    })
    return metrics


def spread(values):
    """(median, q1, q3, (q3 - q1) / median): the run-to-run spread that the
    bounds in BENCHMARK.json are set against."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else 0.0)
