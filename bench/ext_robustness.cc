// Extension benches (the paper's Discussion section, Section VII):
//  1. Bounded rationality — auditor loss against quantal-response
//     adversaries as the rationality parameter lambda grows, for the
//     game-theoretic policy vs. the greedy baseline.
//  2. Non-zero-sum gap — the auditor's "true" loss (damage of successful
//     violations only) under the zero-sum-optimized policy.
//  3. Parameter sensitivity — the proposed-vs-greedy gap as all benefits
//     are scaled by a multiplier (does the comparative result survive
//     parameter misestimation?).
#include <iostream>

#include "core/baselines.h"
#include "core/detection.h"
#include "core/extensions.h"
#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"

namespace {

using namespace auditgame;  // NOLINT

util::StatusOr<core::AuditPolicy> SolveProposed(
    const core::GameInstance& instance, double budget) {
  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &instance;
  request.budget = budget;
  request.options.ishm.step_size = 0.1;
  ASSIGN_OR_RETURN(solver::SolveResult result, solver::Solve(request));
  return result.policy;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budget", "10", "audit budget");
  flags.Define("lambdas", "0,0.25,0.5,1,2,4,8,16", "QR rationality sweep");
  flags.Define("benefit_scales", "0.5,0.75,1,1.5,2,3",
               "benefit multiplier sweep");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  const double budget = flags.GetDouble("budget");

  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }
  auto compiled = core::Compile(*instance);
  if (!compiled.ok()) {
    std::cerr << compiled.status() << "\n";
    return 1;
  }
  auto policy = SolveProposed(*instance, budget);
  if (!policy.ok()) {
    std::cerr << policy.status() << "\n";
    return 1;
  }
  auto detection = core::DetectionModel::Create(*instance, budget);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return 1;
  }
  auto greedy = core::GreedyByBenefitBaseline(*compiled, *detection);
  if (!greedy.ok()) {
    std::cerr << greedy.status() << "\n";
    return 1;
  }

  std::cout << "# Extension 1: quantal-response adversaries (Syn A, B = "
            << budget << ")\n";
  std::cout << "lambda,proposed_loss,greedy_loss,proposed_opt_out_mass\n";
  for (double lambda : flags.GetDoubleList("lambdas")) {
    auto qr_proposed =
        core::EvaluateQuantalResponse(*compiled, *detection, *policy, lambda);
    auto qr_greedy = core::EvaluateQuantalResponse(*compiled, *detection,
                                                   greedy->policy, lambda);
    if (!qr_proposed.ok() || !qr_greedy.ok()) {
      std::cerr << qr_proposed.status() << " / " << qr_greedy.status() << "\n";
      return 1;
    }
    double opt_out_mass = 0.0;
    for (double p : qr_proposed->opt_out_probability) opt_out_mass += p;
    std::cout << lambda << "," << qr_proposed->auditor_loss << ","
              << qr_greedy->auditor_loss << "," << opt_out_mass << "\n";
  }

  std::cout << "\n# Extension 2: non-zero-sum evaluation of the zero-sum "
               "policy\n";
  std::cout << "policy,zero_sum_loss,violation_loss\n";
  auto nzs_proposed = core::EvaluateNonZeroSum(*compiled, *detection, *policy);
  auto nzs_greedy =
      core::EvaluateNonZeroSum(*compiled, *detection, greedy->policy);
  if (!nzs_proposed.ok() || !nzs_greedy.ok()) {
    std::cerr << nzs_proposed.status() << " / " << nzs_greedy.status() << "\n";
    return 1;
  }
  std::cout << "proposed," << nzs_proposed->zero_sum_loss << ","
            << nzs_proposed->auditor_loss << "\n";
  std::cout << "greedy," << nzs_greedy->zero_sum_loss << ","
            << nzs_greedy->auditor_loss << "\n";

  std::cout << "\n# Extension 3: sensitivity to the benefit scale\n";
  std::cout << "benefit_scale,proposed_loss,greedy_loss\n";
  for (double scale : flags.GetDoubleList("benefit_scales")) {
    const core::GameInstance scaled =
        core::ScaleUtilities(*instance, scale, 1.0, 1.0);
    auto compiled_scaled = core::Compile(scaled);
    if (!compiled_scaled.ok()) {
      std::cerr << compiled_scaled.status() << "\n";
      return 1;
    }
    auto policy_scaled = SolveProposed(scaled, budget);
    auto detection_scaled = core::DetectionModel::Create(scaled, budget);
    if (!policy_scaled.ok() || !detection_scaled.ok()) {
      std::cerr << policy_scaled.status() << " / "
                << detection_scaled.status() << "\n";
      return 1;
    }
    auto eval = core::EvaluatePolicy(*compiled_scaled, *detection_scaled,
                                     *policy_scaled);
    auto greedy_scaled =
        core::GreedyByBenefitBaseline(*compiled_scaled, *detection_scaled);
    if (!eval.ok() || !greedy_scaled.ok()) {
      std::cerr << eval.status() << " / " << greedy_scaled.status() << "\n";
      return 1;
    }
    std::cout << scale << "," << eval->auditor_loss << ","
              << greedy_scaled->auditor_loss << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
