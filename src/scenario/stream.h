#ifndef AUDIT_GAME_SCENARIO_STREAM_H_
#define AUDIT_GAME_SCENARIO_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "prob/count_distribution.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::scenario {

/// How a stream's per-cycle alert-count distributions evolve away from the
/// baseline the game was generated with.
enum class StreamKind {
  /// Independent per-cycle jitter of the *baseline* pmfs: drift is
  /// bounded, cycles are exchangeable.
  kJitter,
  /// Jitter of the *previous* cycle's pmfs: drift accumulates, so warm
  /// starts eventually stop being trusted and the service re-solves cold.
  kRandomWalk,
  /// Deterministic exponential tilt of the baseline with sinusoidal
  /// amplitude (weekday/weekend load swings) plus a small jitter.
  kSeasonal,
  /// Cycles come from an external CycleSource (a trace adapter replaying a
  /// real dataset, an adversary model) instead of a synthetic drift rule.
  /// The stream still owns the revisit schedule: revisit cycles replay the
  /// baseline without consuming the source.
  kExternal,
};

/// Producer of per-cycle alert-count distributions for StreamKind::kExternal
/// — the seam the adversary subsystem's trace adapters plug into so real
/// EMR/credit replays flow through the same ScenarioStream (revisit
/// schedule, byte-determinism contract) as the synthetic families.
class CycleSource {
 public:
  virtual ~CycleSource() = default;

  /// Distributions for the next cycle the source produces. Deterministic:
  /// two sources built from the same configuration yield identical
  /// sequences.
  virtual util::StatusOr<std::vector<prob::CountDistribution>> NextCycle() = 0;
};

struct StreamSpec {
  StreamKind kind = StreamKind::kJitter;
  /// Pmf jitter amplitude per cycle (see prob::JitterPmf); also scales the
  /// seasonal tilt.
  double drift_amplitude = 0.05;
  /// Every k-th cycle replays the baseline exactly (the policy-cache
  /// revisit path); 0 = never.
  int revisit_period = 5;
  /// Cycles per seasonal oscillation (kSeasonal only; Next() refuses a
  /// seasonal stream's period below 1).
  int season_period = 7;
  uint64_t seed = 1;
};

/// Parses "jitter" / "walk" / "seasonal" (the workload_replay flag values).
util::StatusOr<StreamKind> StreamKindFromName(const std::string& name);

/// A deterministic multi-cycle alert stream: each Next() yields the
/// per-type alert-count distributions one audit cycle would refit from its
/// logs, ready for AuditService::UpdateAlertDistributions. Two streams
/// built from the same baseline and spec produce identical cycles
/// (scenario_test enforces byte equality), so replay experiments are
/// reproducible end to end.
class ScenarioStream {
 public:
  ScenarioStream(std::vector<prob::CountDistribution> baseline,
                 const StreamSpec& spec);

  /// External-source stream: `source` (borrowed, must outlive the stream)
  /// produces the non-revisit cycles; the spec's kind is forced to
  /// kExternal and only its revisit_period applies.
  ScenarioStream(std::vector<prob::CountDistribution> baseline,
                 const StreamSpec& spec, CycleSource* source);

  /// Distributions for the next cycle (the first call is cycle 1).
  util::StatusOr<std::vector<prob::CountDistribution>> Next();

  /// Cycles produced so far.
  int cycle() const { return cycle_; }

  /// True iff the given 1-based cycle replays the baseline exactly.
  bool IsRevisit(int cycle) const {
    return spec_.revisit_period > 0 && cycle % spec_.revisit_period == 0;
  }

  const std::vector<prob::CountDistribution>& baseline() const {
    return baseline_;
  }

 private:
  StreamSpec spec_;
  std::vector<prob::CountDistribution> baseline_;
  /// The random walk's current state (== baseline_ for the other kinds).
  std::vector<prob::CountDistribution> current_;
  util::Rng rng_;
  /// Borrowed producer for kExternal; null otherwise.
  CycleSource* source_ = nullptr;
  int cycle_ = 0;
};

/// Reweights `dist` by exp(theta * z) on the same support, renormalized —
/// a smooth, deterministic mean shift (theta > 0 raises it). The seasonal
/// stream's load-swing primitive.
util::StatusOr<prob::CountDistribution> ExponentialTilt(
    const prob::CountDistribution& dist, double theta);

}  // namespace auditgame::scenario

#endif  // AUDIT_GAME_SCENARIO_STREAM_H_
