#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "alloc_count.h"
#include "core/cggs.h"
#include "core/detection.h"
#include "core/ishm.h"
#include "server/binary_codec.h"

namespace perfbench {
namespace {

using namespace auditgame;  // NOLINT

// Tenants are independent, so the replay spreads them over this many
// threads (the machine's 4 cores; the server is idle by then).
constexpr size_t kReplayThreads = 4;
using Source = service::AuditService::Source;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One timed call. Spans of one replayed request share `id`; `parent` is
/// the index of the enclosing span in the same thread's log (-1 = root).
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span log, kept in memory until the replay ends.
class SpanLog {
 public:
  size_t Begin(const char* name, int64_t id) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Span{name, id, parent, NowNs(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost open span (which must be `index`); returns its
  /// duration in ms.
  double End(size_t index) {
    Span& span = spans_[index];
    span.end_ns = NowNs();
    open_.pop_back();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

struct Sum {
  int64_t count = 0;
  double total = 0.0;

  void Add(double value) {
    ++count;
    total += value;
  }
  void Merge(const Sum& other) {
    count += other.count;
    total += other.total;
  }
  util::JsonValue ToJson() const {
    util::JsonValue::Object o;
    o["count"] = static_cast<double>(count);
    o["total"] = total;
    return o;
  }
};

/// Per-layer counters of the traced run.
struct LayerTotals {
  Sum decode_us, encode_us, ingest_us;
  Sum cycle_ms[3];  // by the cycle's costliest policy source
  Sum probes, evaluations, ishm_self_ms;
  std::vector<double> probe_ms;
  Sum cggs_master_solves, cggs_columns, cggs_pricing_ms, cggs_solve_ms,
      cggs_pivots;
  Sum create_ms, set_thresholds_us;
  int64_t solved_policies = 0;
  uint64_t solve_allocations = 0;
  int64_t mismatches = 0;

  void Merge(const LayerTotals& o) {
    decode_us.Merge(o.decode_us);
    encode_us.Merge(o.encode_us);
    ingest_us.Merge(o.ingest_us);
    for (int i = 0; i < 3; ++i) cycle_ms[i].Merge(o.cycle_ms[i]);
    probes.Merge(o.probes);
    evaluations.Merge(o.evaluations);
    ishm_self_ms.Merge(o.ishm_self_ms);
    probe_ms.insert(probe_ms.end(), o.probe_ms.begin(), o.probe_ms.end());
    cggs_master_solves.Merge(o.cggs_master_solves);
    cggs_columns.Merge(o.cggs_columns);
    cggs_pricing_ms.Merge(o.cggs_pricing_ms);
    cggs_solve_ms.Merge(o.cggs_solve_ms);
    cggs_pivots.Merge(o.cggs_pivots);
    create_ms.Merge(o.create_ms);
    set_thresholds_us.Merge(o.set_thresholds_us);
    solved_policies += o.solved_policies;
    solve_allocations += o.solve_allocations;
    mismatches += o.mismatches;
  }

  util::JsonValue::Object ToJson() const {
    util::JsonValue::Object o;
    o["decode_us"] = decode_us.ToJson();
    o["encode_us"] = encode_us.ToJson();
    o["ingest_us"] = ingest_us.ToJson();
    o["cycle_ms_cache"] = cycle_ms[0].ToJson();
    o["cycle_ms_warm"] = cycle_ms[1].ToJson();
    o["cycle_ms_cold"] = cycle_ms[2].ToJson();
    o["probes"] = probes.ToJson();
    o["evaluations"] = evaluations.ToJson();
    o["ishm_self_ms"] = ishm_self_ms.ToJson();
    o["probe_ms"] = util::JsonValue::Array(probe_ms.begin(), probe_ms.end());
    o["cggs_master_solves"] = cggs_master_solves.ToJson();
    o["cggs_columns"] = cggs_columns.ToJson();
    o["cggs_pricing_ms"] = cggs_pricing_ms.ToJson();
    o["cggs_solve_ms"] = cggs_solve_ms.ToJson();
    o["cggs_pivots"] = cggs_pivots.ToJson();
    o["create_ms"] = create_ms.ToJson();
    o["set_thresholds_us"] = set_thresholds_us.ToJson();
    o["solved_policies"] = static_cast<double>(solved_policies);
    o["solve_allocations"] = static_cast<double>(solve_allocations);
    o["mismatches"] = static_cast<double>(mismatches);
    return o;
  }
};

struct WorkerResult {
  int64_t policies_checked = 0;
  int64_t mismatches = 0;
  std::vector<std::string> samples;
  LayerTotals totals;
  SpanLog spans;

  void Mismatch(std::string message) {
    ++mismatches;
    if (samples.size() < 5) samples.push_back(std::move(message));
  }
};

/// Re-solves one served warm/cold policy outside the service, the way the
/// `ishm-cggs` backend does, with every layer call timed.
void TraceSolve(const service::AuditService& service,
                const service::AuditService::CyclePolicy& policy,
                const solver::SolveResult* seed,
                const core::CompiledGame& game, int64_t id,
                WorkerResult& out) {
  SpanLog& spans = out.spans;
  LayerTotals& totals = out.totals;
  const service::AuditServiceOptions& options = service.options();
  const core::GameInstance& instance = service.instance();
  solver::SolverOptions solve_options = options.solver_options;
  if (policy.source == Source::kWarmSolve && seed != nullptr) {
    solve_options.ishm.max_subset_size = options.warm_subset_cap;
    solve_options.ishm.initial_thresholds = seed->thresholds;
    solve_options.cggs.initial_orderings.insert(
        solve_options.cggs.initial_orderings.end(),
        seed->policy.orderings.begin(), seed->policy.orderings.end());
  }
  const size_t root = spans.Begin("trace.resolve", id);

  size_t span = spans.Begin("core.DetectionModel.Create", id);
  auto detection = core::DetectionModel::Create(instance, policy.budget,
                                                options.detection_options);
  totals.create_ms.Add(spans.End(span));
  if (!detection.ok()) {
    ++totals.mismatches;
    spans.End(root);
    return;
  }

  std::vector<std::vector<double>> probed;
  double probe_total_ms = 0.0;
  const core::ThresholdEvaluator evaluator =
      core::MakeCggsEvaluator(game, *detection, solve_options.cggs);
  const core::ThresholdEvaluator timed =
      [&](const std::vector<double>& thresholds) {
        const size_t probe = spans.Begin("core.cggs_evaluator", id);
        auto evaluation = evaluator(thresholds);
        const double ms = spans.End(probe);
        totals.probe_ms.push_back(ms);
        probe_total_ms += ms;
        probed.push_back(thresholds);
        return evaluation;
      };
  span = spans.Begin("core.SolveIshm", id);
  auto ishm = core::SolveIshm(instance, timed, solve_options.ishm);
  const double ishm_ms = spans.End(span);
  if (!ishm.ok() || !SameBits(ishm->objective, policy.result.objective)) {
    ++totals.mismatches;
  }
  if (ishm.ok()) {
    totals.probes.Add(static_cast<double>(probed.size()));
    totals.evaluations.Add(static_cast<double>(ishm->stats.evaluations));
    totals.ishm_self_ms.Add(ishm_ms - probe_total_ms);
  }

  span = spans.Begin("core.SolveCggs", id);
  auto cggs = core::SolveCggs(game, *detection, policy.result.thresholds,
                              options.solver_options.cggs);
  const double cggs_ms = spans.End(span);
  if (cggs.ok()) {
    totals.cggs_solve_ms.Add(cggs_ms);
    totals.cggs_master_solves.Add(cggs->lp_solves);
    totals.cggs_columns.Add(cggs->columns_generated);
    totals.cggs_pricing_ms.Add(cggs->pricing_seconds * 1e3);
    totals.cggs_pivots.Add(static_cast<double>(cggs->master_lp_iterations));
  } else {
    ++totals.mismatches;
  }

  for (const std::vector<double>& thresholds : probed) {
    span = spans.Begin("core.DetectionModel.SetThresholds", id);
    const util::Status set = detection->SetThresholds(thresholds);
    totals.set_thresholds_us.Add(spans.End(span) * 1e3);
    if (!set.ok()) ++totals.mismatches;
  }
  spans.End(root);
}

/// Replays one tenant; `loss_sum`/`policies` receive its measured-phase
/// totals (per tenant, so the caller can add them in tenant order).
void ReplayTenant(const Tenant& tenant, int64_t tenant_index,
                  const core::GameInstance& instance,
                  const service::AuditServiceOptions& options, bool trace,
                  WorkerResult& out, double& loss_sum, int64_t& policies) {
  service::AuditService service(instance, options);
  // The policy last served per budget: the warm-start seed the service
  // itself keeps (see AuditService::RunCycle).
  std::map<double, solver::SolveResult> last_served;
  std::optional<util::StatusOr<core::CompiledGame>> game;
  SpanLog& spans = out.spans;
  LayerTotals& totals = out.totals;

  for (size_t k = 0; k < tenant.ops.size(); ++k) {
    const OpRecord& op = tenant.ops[k];
    const int64_t id = tenant_index * 1000000 + static_cast<int64_t>(k);
    const std::string where = tenant.name + " op " + std::to_string(k);
    const size_t root = trace ? spans.Begin("replay.op", id) : 0;
    const auto end_root = [&] {
      if (trace) spans.End(root);
    };

    // The server decodes every request; time the decode of both verbs on
    // the workload's own payloads.
    const std::string solve_payload =
        op.ingest ? std::string()
                  : server::EncodeBinarySolveCycleRequest(id, tenant.name);
    size_t span = trace ? spans.Begin("server.codec.decode", id) : 0;
    auto request =
        server::DecodeBinaryRequest(op.ingest ? op.payload : solve_payload);
    if (trace) totals.decode_us.Add(spans.End(span) * 1e3);
    if (!request.ok()) {
      out.Mismatch(where + ": undecodable request");
      end_root();
      return;
    }

    if (op.ingest) {
      span = trace ? spans.Begin("service.UpdateAlertDistributions", id) : 0;
      const util::Status status =
          service.UpdateAlertDistributions(std::move(request->distributions));
      if (trace) totals.ingest_us.Add(spans.End(span) * 1e3);
      end_root();
      if (!status.ok()) {
        out.Mismatch(where + ": ingest rejected: " + status.ToString());
        return;
      }
      continue;
    }

    const uint64_t allocations_before = ThreadAllocations();
    span = trace ? spans.Begin("service.RunCycle", id) : 0;
    auto report = service.RunCycle();
    const double cycle_ms = trace ? spans.End(span) : 0.0;
    const uint64_t allocations = ThreadAllocations() - allocations_before;
    if (!report.ok()) {
      out.Mismatch(where + ": replay cycle failed: " +
                   report.status().ToString());
      end_root();
      return;
    }

    const bool measured = k >= tenant.measured_begin;
    if (report->cycle != op.cycle ||
        report->policies.size() != op.policies.size()) {
      out.Mismatch(where + ": served cycle " + std::to_string(op.cycle) +
                   " with " + std::to_string(op.policies.size()) +
                   " policies, replay cycle " + std::to_string(report->cycle));
    }
    int costliest = 0;
    int solved = 0;
    for (size_t p = 0; p < report->policies.size(); ++p) {
      const service::AuditService::CyclePolicy& policy = report->policies[p];
      const int source = static_cast<int>(policy.source);
      costliest = std::max(costliest, source);
      if (policy.source != Source::kCache) ++solved;
      if (measured) {
        loss_sum += policy.result.objective;
        ++policies;
      }
      if (p >= op.policies.size()) continue;
      ++out.policies_checked;
      if (source != op.policies[p].source ||
          !SameBits(policy.result.objective, op.policies[p].objective)) {
        out.Mismatch(where + ": budget " + std::to_string(policy.budget) +
                     " served objective " +
                     std::to_string(op.policies[p].objective) +
                     ", replay " + std::to_string(policy.result.objective));
      }
    }

    if (trace) {
      totals.cycle_ms[costliest].Add(cycle_ms);
      if (solved > 0) {
        totals.solved_policies += solved;
        totals.solve_allocations += allocations;
      }
      span = spans.Begin("server.codec.encode", id);
      const std::string encoded =
          server::EncodeBinarySolveCycleResponse(id, 0, *report);
      totals.encode_us.Add(spans.End(span) * 1e3);
      if (encoded.empty()) out.Mismatch(where + ": empty encoding");
      for (const service::AuditService::CyclePolicy& policy :
           report->policies) {
        if (policy.source == Source::kCache) continue;
        if (!game.has_value()) game.emplace(core::Compile(service.instance()));
        if (!game->ok()) {
          out.Mismatch(where + ": compile failed");
          continue;
        }
        const auto seed = last_served.find(policy.budget);
        TraceSolve(service, policy,
                   seed == last_served.end() ? nullptr : &seed->second,
                   **game, id, out);
      }
    }
    for (const service::AuditService::CyclePolicy& policy : report->policies) {
      last_served[policy.budget] = policy.result;
    }
    end_root();
  }
}

void WriteSpans(const std::string& path,
                const std::vector<WorkerResult>& workers) {
  std::ofstream out(path);
  if (!out) return;
  out << "thread,id,parent,name,start_ns,end_ns\n";
  for (size_t t = 0; t < workers.size(); ++t) {
    for (const Span& span : workers[t].spans.spans()) {
      out << t << ',' << span.id << ',' << span.parent << ',' << span.name
          << ',' << span.start_ns << ',' << span.end_ns << '\n';
    }
  }
}

}  // namespace

ReplayResult Replay(const std::vector<Tenant>& tenants,
                    const core::GameInstance& instance,
                    const service::AuditServiceOptions& options,
                    const ReplayOptions& replay_options) {
  const int64_t start_ns = NowNs();
  const size_t threads =
      std::max<size_t>(1, std::min(kReplayThreads, tenants.size()));
  std::vector<WorkerResult> workers(threads);
  std::vector<double> loss_sums(tenants.size(), 0.0);
  std::vector<int64_t> policies(tenants.size(), 0);
  std::atomic<size_t> next{0};
  const auto work = [&](WorkerResult& out) {
    for (size_t i = next.fetch_add(1); i < tenants.size();
         i = next.fetch_add(1)) {
      ReplayTenant(tenants[i], static_cast<int64_t>(i), instance, options,
                   replay_options.trace, out, loss_sums[i], policies[i]);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) {
    pool.emplace_back(work, std::ref(workers[t]));
  }
  work(workers[0]);
  for (std::thread& thread : pool) thread.join();

  ReplayResult result;
  LayerTotals totals;
  for (const WorkerResult& w : workers) {
    result.policies_checked += w.policies_checked;
    result.mismatches += w.mismatches;
    for (const std::string& sample : w.samples) {
      if (result.mismatch_samples.size() < 5) {
        result.mismatch_samples.push_back(sample);
      }
    }
    totals.Merge(w.totals);
  }
  for (size_t i = 0; i < tenants.size(); ++i) {
    result.measured_loss_sum += loss_sums[i];
    result.measured_policies += policies[i];
  }
  if (replay_options.trace) {
    result.trace = totals.ToJson();
    if (!replay_options.spans_path.empty()) {
      WriteSpans(replay_options.spans_path, workers);
    }
  }
  result.seconds = static_cast<double>(NowNs() - start_ns) * 1e-9;
  return result;
}

}  // namespace perfbench
