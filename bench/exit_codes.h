#ifndef AUDIT_GAME_BENCH_EXIT_CODES_H_
#define AUDIT_GAME_BENCH_EXIT_CODES_H_

// Exit-code convention shared by every bench that CI runs as a smoke
// gate, so the workflow can tell *why* a run tripped without parsing
// output. Kept free of other includes: the plain-main drivers
// (scenario_suite) use it without depending on Google Benchmark.
//
// 1 stays the generic "solve failed" exit used on solver errors.

namespace auditgame::bench {

inline constexpr int kSmokeExitOk = 0;
/// The report could not be written (bad path, full disk) — an
/// infrastructure failure, not a correctness signal.
inline constexpr int kSmokeExitIoError = 3;
/// The smoke's correctness gate tripped: two paths that must agree
/// (serial vs parallel pricing, the two wire encodings) disagreed.
inline constexpr int kSmokeExitDisagreement = 4;

}  // namespace auditgame::bench

#endif  // AUDIT_GAME_BENCH_EXIT_CODES_H_
