#include "closed_loop.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

#include "server/binary_codec.h"

namespace perfbench {
namespace {

using namespace auditgame;  // NOLINT
using Clock = std::chrono::steady_clock;

// An `overloaded`/`backend_down` op is re-sent after a short sit-out (the
// tenant waits, the rest of the window keeps going), at most this often.
constexpr int kMaxRetries = 20;
constexpr auto kRetryBackoff = std::chrono::milliseconds(5);

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Per-tenant loop state for one phase.
struct Slot {
  int cycles_left = 0;
  /// solve_cycle requests still due in the current cycle; -1 = the next op
  /// is the cycle's ingest.
  int polls_left = -1;
  bool in_flight = false;
  bool abandoned = false;
  /// Encoded current op, kept for retries (same bytes, same id).
  std::string pending;
  int64_t id = 0;
  int attempts = 0;
  int64_t last_cycle = 0;
  Clock::time_point op_start;
  Clock::time_point backoff_until;

  bool done() const { return abandoned || cycles_left == 0; }
};

}  // namespace

util::JsonValue PhaseStats::ToJson() const {
  util::JsonValue::Object o;
  o["planned_ops"] = static_cast<double>(planned_ops);
  o["attempts"] = static_cast<double>(attempts);
  o["ok_ingest"] = static_cast<double>(ok_ingest);
  o["ok_solve"] = static_cast<double>(ok_solve);
  o["overloaded"] = static_cast<double>(overloaded);
  o["backend_down"] = static_cast<double>(backend_down);
  o["errors"] = static_cast<double>(errors);
  o["unanswered"] = static_cast<double>(unanswered);
  o["unmatched"] = static_cast<double>(unmatched);
  o["order_violations"] = static_cast<double>(order_violations);
  o["retries"] = static_cast<double>(retries);
  o["policies_cache"] = static_cast<double>(policies_by_source[0]);
  o["policies_warm"] = static_cast<double>(policies_by_source[1]);
  o["policies_cold"] = static_cast<double>(policies_by_source[2]);
  o["request_bytes"] = static_cast<double>(request_bytes);
  o["response_bytes"] = static_cast<double>(response_bytes);
  o["seconds"] = seconds;
  util::JsonValue::Array marks;
  for (const RoundMark& mark : rounds) {
    util::JsonValue::Object m;
    m["seconds"] = mark.seconds;
    m["ok_ops"] = static_cast<double>(mark.ok_ops);
    m["solve_samples"] = static_cast<double>(mark.solve_samples);
    m["solved_policies"] = static_cast<double>(mark.solved_policies);
    m["server_stat"] = mark.server_stat;
    marks.push_back(std::move(m));
  }
  o["rounds"] = std::move(marks);
  util::JsonValue::Array latency(latency_ms.begin(), latency_ms.end());
  o["latency_ms"] = std::move(latency);
  util::JsonValue::Array service(service_ms.begin(), service_ms.end());
  o["service_ms"] = std::move(service);
  util::JsonValue::Array samples(error_samples.begin(), error_samples.end());
  o["error_samples"] = std::move(samples);
  return o;
}

PhaseStats RunPhase(net::FrameClient& client, std::vector<Tenant>& tenants,
                    int cycles, int polls, const LoopConfig& config,
                    double cap_seconds) {
  PhaseStats stats;
  const auto sample_error = [&stats](std::string message) {
    if (stats.error_samples.size() < 5) {
      stats.error_samples.push_back(std::move(message));
    }
  };
  std::vector<Slot> slots(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].measured_begin = tenants[i].ops.size();
    slots[i].cycles_left = cycles;
    for (const OpRecord& op : tenants[i].ops) {
      if (!op.ingest) slots[i].last_cycle = op.cycle;
    }
  }
  size_t active = cycles > 0 ? tenants.size() : 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_response = start;
  const int64_t planned_ops = static_cast<int64_t>(tenants.size()) * cycles *
                              (1 + static_cast<int64_t>(polls));
  stats.planned_ops = planned_ops;
  const int rounds = std::max(1, config.rounds);
  // Marks a round end once the ok-op count reaches the next boundary.
  const auto mark_rounds = [&](Clock::time_point now) {
    const int64_t ok = stats.ok_ingest + stats.ok_solve;
    while (static_cast<int>(stats.rounds.size()) < rounds &&
           ok >= planned_ops * static_cast<int64_t>(stats.rounds.size() + 1) /
                     rounds) {
      RoundMark mark;
      mark.seconds = std::chrono::duration<double>(now - start).count();
      mark.ok_ops = ok;
      mark.solve_samples = static_cast<int64_t>(stats.latency_ms.size());
      mark.solved_policies =
          stats.policies_by_source[1] + stats.policies_by_source[2];
      if (config.sample_server) mark.server_stat = config.sample_server();
      stats.rounds.push_back(std::move(mark));
    }
  };
  std::unordered_map<int64_t, size_t> outstanding;
  outstanding.reserve(static_cast<size_t>(kWindow) * 2);
  int64_t next_id = 0;
  size_t cursor = 0;
  bool stop_starting = false;
  // Tenants whose current cycle has ops left, in the order they got ready.
  std::deque<size_t> continuing;

  // Retires a tenant's current op; `ok` = answered with status ok.
  const auto finish_op = [&](Slot& slot, bool ok) {
    slot.pending.clear();
    slot.attempts = 0;
    if (!ok) {
      slot.abandoned = true;
      --active;
      return;
    }
    if (slot.polls_left < 0) {
      slot.polls_left = polls;
    } else {
      --slot.polls_left;
    }
    if (slot.polls_left == 0) {
      slot.polls_left = -1;
      if (--slot.cycles_left == 0) --active;
    }
  };

  const auto process = [&](const std::string& payload, Clock::time_point now) {
    stats.response_bytes += static_cast<int64_t>(payload.size());
    last_response = now;
    auto response = server::DecodeBinaryResponse(payload);
    if (!response.ok()) {
      ++stats.errors;
      sample_error(response.status().ToString());
      return;
    }
    const auto it = outstanding.find(response->correlation_id);
    if (it == outstanding.end()) {
      ++stats.unmatched;
      sample_error("unmatched response id " +
                   std::to_string(response->correlation_id));
      return;
    }
    const size_t index = it->second;
    outstanding.erase(it);
    Slot& slot = slots[index];
    Tenant& tenant = tenants[index];
    slot.in_flight = false;

    if (response->status == server::kBinaryStatusOverloaded ||
        response->status == server::kBinaryStatusBackendDown) {
      if (response->status == server::kBinaryStatusOverloaded) {
        ++stats.overloaded;
      } else {
        ++stats.backend_down;
      }
      if (slot.attempts < kMaxRetries) {
        ++slot.attempts;
        ++stats.retries;
        slot.backoff_until = now + kRetryBackoff;
      } else {
        finish_op(slot, false);
      }
      return;
    }
    if (response->status != server::kBinaryStatusOk) {
      ++stats.errors;
      sample_error(tenant.name + ": " + response->message);
      finish_op(slot, false);
      return;
    }
    const bool ingest = slot.polls_left < 0;
    if (ingest != (response->verb == server::kBinaryVerbIngest)) {
      ++stats.errors;
      sample_error(tenant.name + ": response verb does not match request");
      finish_op(slot, false);
      return;
    }
    OpRecord record;
    record.ingest = ingest;
    if (ingest) {
      ++stats.ok_ingest;
      record.payload = std::move(slot.pending);
    } else {
      if (response->cycle <= slot.last_cycle) {
        ++stats.order_violations;
        sample_error(tenant.name + ": cycle " +
                     std::to_string(response->cycle) + " after " +
                     std::to_string(slot.last_cycle));
        finish_op(slot, false);
        return;
      }
      slot.last_cycle = response->cycle;
      ++stats.ok_solve;
      const double latency = MillisBetween(slot.op_start, now);
      stats.latency_ms.push_back(latency);
      stats.service_ms.push_back(response->seconds * 1e3);
      record.cycle = response->cycle;
      record.policies.reserve(response->policies.size());
      for (const server::BinaryPolicy& policy : response->policies) {
        const int source = static_cast<int>(policy.source);
        if (source >= 0 && source < 3) ++stats.policies_by_source[source];
        record.policies.push_back(PolicyRecord{source, policy.objective});
      }
    }
    tenant.ops.push_back(std::move(record));
    finish_op(slot, true);
    if (!slot.done() && slot.polls_left >= 0) continuing.push_back(index);
    mark_rounds(now);
  };

  // Sends tenant `index`'s current op (its retry, or the next one of its
  // cycle); false when there was nothing to send.
  const auto send = [&](size_t index, Clock::time_point now) {
    Slot& slot = slots[index];
    Tenant& tenant = tenants[index];
    if (slot.pending.empty()) {
      slot.id = ++next_id;
      slot.op_start = now;
      if (slot.polls_left < 0) {
        auto distributions = tenant.stream->Next();
        if (!distributions.ok()) {
          ++stats.errors;
          sample_error(distributions.status().ToString());
          finish_op(slot, false);
          return false;
        }
        slot.pending = server::EncodeBinaryIngestRequest(slot.id, tenant.name,
                                                         *distributions);
      } else {
        slot.pending =
            server::EncodeBinarySolveCycleRequest(slot.id, tenant.name);
      }
    }
    client.QueueSend(slot.pending);
    outstanding.emplace(slot.id, index);
    slot.in_flight = true;
    ++stats.attempts;
    stats.request_bytes += static_cast<int64_t>(slot.pending.size());
    return true;
  };

  while (active > 0 || !outstanding.empty()) {
    const Clock::time_point now = Clock::now();
    if (!stop_starting &&
        std::chrono::duration<double>(now - start).count() > cap_seconds) {
      stop_starting = true;
    }
    // Top up the window, then flush it with one send. A tenant keeps its
    // place for a whole audit cycle: tenants mid-cycle send their next op
    // first, then new cycles start round-robin.
    Clock::time_point earliest_backoff = Clock::time_point::max();
    bool queued = false;
    bool startable = false;
    const auto window_open = [&] {
      return outstanding.size() < static_cast<size_t>(kWindow);
    };
    while (!stop_starting && window_open() && !continuing.empty()) {
      const size_t index = continuing.front();
      continuing.pop_front();
      queued |= send(index, now);
    }
    for (size_t scanned = 0; scanned < tenants.size() && window_open();
         ++scanned) {
      const size_t index = cursor;
      cursor = (cursor + 1) % tenants.size();
      const Slot& slot = slots[index];
      if (slot.in_flight || slot.done()) continue;
      // Mid-cycle tenants are served from `continuing` above.
      if (slot.pending.empty() && (stop_starting || slot.polls_left >= 0)) {
        continue;
      }
      startable = true;
      if (slot.backoff_until > now) {
        earliest_backoff = std::min(earliest_backoff, slot.backoff_until);
        continue;
      }
      queued |= send(index, now);
    }
    if (queued) {
      if (util::Status sent = client.FlushSends(); !sent.ok()) {
        sample_error(sent.ToString());
        stats.unanswered += static_cast<int64_t>(outstanding.size());
        break;
      }
    }
    if (outstanding.empty()) {
      if (!startable) break;  // only stopped tenants are left
      if (earliest_backoff != Clock::time_point::max()) {
        std::this_thread::sleep_until(earliest_backoff);
      }
      continue;
    }
    // One blocking receive, then everything already buffered.
    auto response = client.Receive();
    if (!response.ok()) {
      sample_error(response.status().ToString());
      stats.unanswered += static_cast<int64_t>(outstanding.size());
      break;
    }
    const Clock::time_point received = Clock::now();
    process(*response, received);
    for (;;) {
      std::string buffered;
      auto more = client.ReceiveBuffered(&buffered);
      if (!more.ok()) {
        sample_error(more.status().ToString());
        stats.unanswered += static_cast<int64_t>(outstanding.size());
        outstanding.clear();
        active = 0;
        break;
      }
      if (!*more) break;
      process(buffered, received);
    }
  }
  stats.seconds = std::chrono::duration<double>(last_response - start).count();
  return stats;
}

}  // namespace perfbench
