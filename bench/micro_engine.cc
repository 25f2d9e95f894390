// Microbenchmark for solver::SolverEngine: a batch of independent
// ishm-cggs solves on Syn A (one per budget), run once serially on the
// calling thread and once fanned across the engine's worker pool. Reports
// wall-clock for both, the speedup, and verifies the parallel results are
// bit-for-bit identical to the serial ones (per-request RNG and detection
// state, so scheduling cannot change any result).
//
// On a 4+ core machine the default batch of 8 requests shows >= 2x
// speedup; the measured numbers land in BENCH_engine.json so the
// trajectory is trackable across commits.
#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "data/syn_a.h"
#include "solver/engine.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("requests", "8", "independent solve requests in the batch");
  flags.Define("eps", "0.1", "ISHM step size for every request");
  flags.Define("threads", "0", "engine workers (0 = one per core)");
  flags.Define("json", "BENCH_engine.json",
               "machine-readable report path (empty = none)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }

  // One request per budget, sweeping 2, 4, 6, ... — the shape of every
  // figure/table budget sweep in this repo.
  const int num_requests = flags.GetInt("requests");
  std::vector<solver::EngineRequest> requests;
  for (int i = 0; i < num_requests; ++i) {
    solver::EngineRequest request;
    request.solver = "ishm-cggs";
    request.instance = &*instance;
    request.budget = 2.0 * (1 + i % 10);
    request.options.ishm.step_size = flags.GetDouble("eps");
    requests.push_back(std::move(request));
  }

  util::Timer serial_timer;
  std::vector<util::StatusOr<solver::SolveResult>> serial;
  serial.reserve(requests.size());
  for (const auto& request : requests) {
    serial.push_back(solver::Solve(request));
  }
  const double serial_seconds = serial_timer.ElapsedSeconds();

  solver::SolverEngine engine(flags.GetInt("threads"));
  util::Timer parallel_timer;
  const auto parallel = engine.SolveAll(requests);
  const double parallel_seconds = parallel_timer.ElapsedSeconds();

  int mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!serial[i].ok() || !parallel[i].ok()) {
      std::cerr << "request " << i << ": " << serial[i].status() << " / "
                << parallel[i].status() << "\n";
      return 1;
    }
    if (serial[i]->objective != parallel[i]->objective ||
        serial[i]->thresholds != parallel[i]->thresholds) {
      ++mismatches;
    }
  }

  const double speedup = parallel_seconds > 0.0
                             ? serial_seconds / parallel_seconds
                             : 0.0;
  std::cout << "# SolverEngine batch: " << num_requests
            << " x ishm-cggs on Syn A\n";
  std::cout << "requests,threads,serial_seconds,parallel_seconds,speedup,"
               "mismatches\n";
  std::cout << num_requests << "," << engine.num_threads() << ","
            << serial_seconds << "," << parallel_seconds << "," << speedup
            << "," << mismatches << "\n";
  if (mismatches > 0) {
    std::cerr << "parallel results diverged from serial results\n";
    return 1;
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    util::JsonValue::Object report;
    report["bench"] = "micro_engine";
    report["requests"] = num_requests;
    report["threads"] = engine.num_threads();
    report["hardware_threads"] = util::ThreadPool::DefaultThreadCount();
    report["serial_seconds"] = serial_seconds;
    report["parallel_seconds"] = parallel_seconds;
    report["speedup"] = speedup;
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << util::JsonValue(std::move(report)).Dump(2) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
