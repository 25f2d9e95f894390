#ifndef AUDIT_GAME_DATA_SYN_A_H_
#define AUDIT_GAME_DATA_SYN_A_H_

#include "core/game.h"
#include "util/statusor.h"

namespace auditgame::data {

/// How the "-" (benign) entries of Table IIb enter the adversary's strategy
/// space. The paper's text allows "refraining from malicious behavior";
/// treating the benign access as that zero-utility outside option
/// (kFreeOptOut) reproduces Table III's values most closely. The semantics
/// ablation bench sweeps both (see docs/DESIGN.md "Calibration notes").
enum class SynABenignMode {
  /// Benign access is an attack with no alert and no gain: Ua = -K.
  kCostlyAccess,
  /// Benign access means refraining: Ua = 0 for employees that have one.
  kFreeOptOut,
};

/// The controlled-evaluation dataset Syn A (Table II of the paper):
///  * 4 alert types with Gaussian daily counts — means [6, 5, 4, 4],
///    stddevs [2, 1.6, 1.3, 1], truncated at the 99.5% coverage band
///    (supports [1,11], [1,9], [1,7], [1,7]);
///  * 5 potential attackers (p_e = 1; see docs/DESIGN.md on the "(pe = 12)" PDF
///    artifact) and 8 records; the deterministic access -> type matrix of
///    Table IIb ("-" entries are benign, providing a do-little option but
///    no true opt-out);
///  * adversary benefit per type [3.4, 3.7, 4, 4.3], attack cost 0.4,
///    audit cost 1 per type, capture penalty 4.
util::StatusOr<core::GameInstance> MakeSynA(
    SynABenignMode benign_mode = SynABenignMode::kFreeOptOut);

}  // namespace auditgame::data

#endif  // AUDIT_GAME_DATA_SYN_A_H_
