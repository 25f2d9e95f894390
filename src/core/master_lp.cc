#include "core/master_lp.h"

#include <algorithm>
#include <string>
#include <utility>

#include "lp/validate.h"
#include "math/kernels.h"

namespace auditgame::core {

RestrictedMasterLp::RestrictedMasterLp(const CompiledGame& game,
                                       const DetectionModel& detection,
                                       int expected_orderings)
    : game_(game), detection_(detection), rows_(game) {
  const size_t num_groups = game_.groups.size();
  const size_t num_victim_rows =
      static_cast<size_t>(game_.num_envelope_rows());
  const int expected = std::max(0, expected_orderings);
  model_.Reserve(static_cast<int>(num_groups) + expected,
                 static_cast<int>(num_victim_rows) + 1);
  po_vars_.reserve(static_cast<size_t>(expected));
  orderings_.reserve(static_cast<size_t>(expected));
  u_vars_.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    const double lb = game_.groups[g].can_opt_out ? 0.0 : -lp::kInfinity;
    u_vars_.push_back(
        model_.AddVariable(game_.groups[g].weight, lb, lp::kInfinity));
  }
  // One row per envelope victim: u_g at entry 0, then column o at entry
  // 1 + o (WriteUtilities relies on that layout).
  victim_rows_.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t envelope_size = game_.groups[g].envelope.size();
    victim_rows_[g].resize(envelope_size);
    for (size_t k = 0; k < envelope_size; ++k) {
      const int row = model_.AddConstraint(lp::Sense::kGreaterEqual, 0.0);
      victim_rows_[g][k] = row;
      model_.ReserveRowEntries(row, 1 + expected);
      model_.AppendCoefficient(row, u_vars_[g], 1.0);
    }
  }
  convexity_row_ = model_.AddConstraint(lp::Sense::kEqual, 1.0);
  model_.ReserveRowEntries(convexity_row_, expected);
  // The reused solve buffers track the growing column count; reserving
  // them to the hint keeps the per-round resizes allocation-free too.
  const size_t expected_vars = num_groups + static_cast<size_t>(expected);
  const size_t num_rows = num_victim_rows + 1;
  revised_.solution.primal.reserve(expected_vars);
  revised_.solution.reduced_cost.reserve(expected_vars);
  revised_.solution.dual.reserve(num_rows);
  revised_.basis.structural.reserve(expected_vars);
  revised_.basis.logical.reserve(num_rows);
  basis_.structural.reserve(expected_vars);
  basis_.logical.reserve(num_rows);
}

util::Status RestrictedMasterLp::AddOrdering(
    const std::vector<int>& ordering) {
  RETURN_IF_ERROR(detection_.DetectionProbabilitiesInto(ordering, pal_prefix_,
                                                        pal_scratch_));
  const int var = model_.AddVariable(0.0, 0.0, lp::kInfinity);
  po_vars_.push_back(var);
  orderings_.push_back(ordering);
  WriteUtilities(num_orderings() - 1, /*append=*/true);
  model_.AppendCoefficient(convexity_row_, var, 1.0);
  return util::OkStatus();
}

util::Status RestrictedMasterLp::Reprice() {
  for (size_t o = 0; o < orderings_.size(); ++o) {
    RETURN_IF_ERROR(detection_.DetectionProbabilitiesInto(
        orderings_[o], pal_prefix_, pal_scratch_));
    WriteUtilities(static_cast<int>(o), /*append=*/false);
  }
  return util::OkStatus();
}

bool RestrictedMasterLp::HasOrdering(const std::vector<int>& ordering) const {
  return std::find(orderings_.begin(), orderings_.end(), ordering) !=
         orderings_.end();
}

void RestrictedMasterLp::WriteUtilities(int column, bool append) {
  const int var = po_vars_[static_cast<size_t>(column)];
  const size_t t_count = static_cast<size_t>(game_.num_types);
  size_t r = 0;
  for (size_t g = 0; g < game_.groups.size(); ++g) {
    for (size_t k = 0; k < victim_rows_[g].size(); ++k, ++r) {
      const double value =
          math::Dot(rows_.slope(r), pal_scratch_.data(), t_count) -
          rows_.constant(r);
      if (append) {
        model_.AppendCoefficient(victim_rows_[g][k], var, value);
      } else {
        model_.SetCoefficientAt(victim_rows_[g][k], 1 + column, value);
      }
    }
  }
}

util::Status RestrictedMasterLp::SolveInto(RestrictedLpSolution& result) {
  if (po_vars_.empty()) {
    return util::InvalidArgumentError("no candidate orderings");
  }

  const lp::RevisedSimplex::Options lp_options;
  const lp::Basis* warm = has_basis_ ? &basis_ : nullptr;
  RETURN_IF_ERROR(
      lp::RevisedSimplex::SolveInto(model_, lp_options, warm, revised_));
  const lp::LpSolution& lp_solution = revised_.solution;
  const auto verify = [&] {
    return lp_solution.status == lp::SolveStatus::kOptimal
               ? lp::CheckPrimalFeasibility(model_, lp_solution)
               : util::OkStatus();
  };
  util::Status verified = verify();
  if (!verified.ok() && warm != nullptr) {
    // A warm factorization that passed the singularity test can still be
    // too ill-conditioned to trust. Pay one cold solve instead of serving
    // a wrong optimum.
    ++stats_.cold_retries;
    stats_.iterations +=
        lp_solution.phase1_iterations + lp_solution.phase2_iterations;
    RETURN_IF_ERROR(
        lp::RevisedSimplex::SolveInto(model_, lp_options, nullptr, revised_));
    verified = verify();
  }
  if (!verified.ok()) {
    ++stats_.solves;
    return verified;
  }
  if (lp_solution.status == lp::SolveStatus::kOptimal) {
    // Swap, not move: the displaced previous basis becomes next solve's
    // reusable buffer (SolveInto refills it in place).
    std::swap(basis_, revised_.basis);
    has_basis_ = true;
    if (revised_.warm_started) {
      ++stats_.warm_solves;
    } else if (revised_.basis_accepted) {
      ++stats_.repaired_solves;
    }
  }
  ++stats_.solves;
  stats_.iterations +=
      lp_solution.phase1_iterations + lp_solution.phase2_iterations;
  if (lp_solution.status != lp::SolveStatus::kOptimal) {
    return util::InternalError(
        std::string("game LP not optimal: ") +
        lp::SolveStatusToString(lp_solution.status));
  }

  result.objective = lp_solution.objective;
  result.ordering_probs.resize(po_vars_.size());
  for (size_t o = 0; o < po_vars_.size(); ++o) {
    result.ordering_probs[o] = std::max(0.0, lp_solution.primal[po_vars_[o]]);
  }
  const size_t num_groups = game_.groups.size();
  result.group_utilities.resize(num_groups);
  result.victim_duals.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    const AdversaryGroup& group = game_.groups[g];
    result.group_utilities[g] = lp_solution.primal[u_vars_[g]];
    // Victims off the envelope have no row: their constraint is implied,
    // so its dual is exactly zero.
    result.victim_duals[g].assign(group.victims.size(), 0.0);
    for (size_t k = 0; k < group.envelope.size(); ++k) {
      result.victim_duals[g][static_cast<size_t>(group.envelope[k])] =
          lp_solution.dual[victim_rows_[g][k]];
    }
  }
  result.convexity_dual = lp_solution.dual[convexity_row_];
  return util::OkStatus();
}

}  // namespace auditgame::core
