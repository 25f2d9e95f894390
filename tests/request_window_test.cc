// Tests for the client request window (server/request_window.h) in both
// encodings: retries under real `overloaded` backpressure from an
// in-process AuditServer, byte-identical re-sends across a re-dial and a
// not-applied sit-out (against a scripted loopback peer), responses that
// pair with nothing, and the strict host:port parser every dialing tool
// shares.
#include "server/request_window.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/socket.h"
#include "scenario/generator.h"
#include "server/audit_server.h"
#include "server/binary_codec.h"
#include "server/protocol.h"
#include "util/json.h"

namespace auditgame::server {
namespace {

using Completion = RequestWindow::Completion;
using Status = ResponseEnvelope::Status;

std::string TenantName(int tenant) { return "t" + std::to_string(tenant); }

std::string SolveRequest(bool binary, int64_t id, int tenant) {
  return binary ? EncodeBinarySolveCycleRequest(id, TenantName(tenant))
                : MakeSolveCycleRequest(id, TenantName(tenant));
}

int64_t IdOfRequest(const std::string& payload) {
  if (IsBinaryFrame(payload)) return BinaryCorrelationIdOf(payload);
  auto doc = util::JsonValue::Parse(payload);
  return doc.ok() ? RequestIdOf(*doc) : -1;
}

std::string OkResponse(bool binary, int64_t id) {
  return binary ? EncodeBinaryIngestOkResponse(id, /*shard=*/0)
                : MakeIngestOkResponse(id, "t", /*shard=*/0);
}

std::string OverloadedResponse(bool binary, int64_t id) {
  return binary ? EncodeBinaryOverloadedResponse(id, /*shard=*/0,
                                                 kBinaryVerbSolveCycle)
                : MakeOverloadedResponse(id, "t", /*shard=*/0);
}

/// Polls until nothing is outstanding; every completion, in order.
std::vector<Completion> Drain(RequestWindow& window) {
  std::vector<Completion> all;
  while (window.outstanding() > 0) {
    util::Status polled = window.Poll(all);
    EXPECT_TRUE(polled.ok()) << polled;
    if (!polled.ok()) break;
  }
  return all;
}

// --- (a) real backpressure ---------------------------------------------

class WindowAgainstServerTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    auto spec = scenario::SpecByName("uniform");
    ASSERT_TRUE(spec.ok());
    spec->num_types = 4;
    auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok());
    baseline_ = instance->alert_distributions;

    // One shard with a one-slot queue: a pipelined burst of 64 tenants
    // is mostly answered `overloaded`.
    AuditServerOptions options;
    options.front.port = 0;
    options.num_shards = 1;
    options.queue_capacity = 1;
    options.max_batch = 1;
    options.service.budgets = {6.0};
    options.service.solver_options.ishm.step_size = 0.25;
    options.service.num_threads = -1;
    server_ = std::make_unique<AuditServer>(*std::move(instance), options);
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] {
      util::Status run = server_->Run();
      EXPECT_TRUE(run.ok()) << run;
    });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->RequestStop();
      if (thread_.joinable()) thread_.join();
    }
  }

  std::vector<prob::CountDistribution> baseline_;
  std::unique_ptr<AuditServer> server_;
  std::thread thread_;
};

TEST_P(WindowAgainstServerTest, RetriesOverloadedUntilEveryOpIsOk) {
  const bool binary = GetParam();
  constexpr int kTenants = 64;
  constexpr int kCycles = 3;
  auto client = RequestWindow::Dial({"127.0.0.1", server_->port()}, 30000);
  ASSERT_TRUE(client.ok()) << client.status();
  RequestWindowOptions options;
  options.window = kTenants;
  options.max_retries = 100000;
  options.retry_backoff_ms = 1;
  RequestWindow window(*client, options);

  // Each tenant alternates ingest and solve_cycle, one request at a time.
  struct Tenant {
    bool solving = false;
    int cycles = 0;
    int64_t last_cycle = 0;
  };
  std::vector<Tenant> tenants(kTenants);
  int64_t next_id = 0;
  const auto submit = [&](int t) {
    const int64_t id = ++next_id;
    std::string payload =
        tenants[t].solving
            ? SolveRequest(binary, id, t)
            : (binary ? EncodeBinaryIngestRequest(id, TenantName(t), baseline_)
                      : MakeIngestRequest(id, TenantName(t), baseline_));
    window.Submit(id, std::move(payload), static_cast<uint64_t>(t));
  };
  for (int t = 0; t < kTenants; ++t) submit(t);

  int64_t ok_ops = 0;
  std::vector<Completion> done;
  while (window.outstanding() > 0) {
    done.clear();
    util::Status polled = window.Poll(done);
    ASSERT_TRUE(polled.ok()) << polled;
    for (const Completion& completion : done) {
      ASSERT_EQ(completion.kind, Completion::Kind::kAnswered);
      ASSERT_EQ(completion.response.status, Status::kOk)
          << completion.response.message;
      ++ok_ops;
      Tenant& tenant = tenants[completion.tag];
      if (tenant.solving) {
        ASSERT_TRUE(completion.response.has_cycle);
        EXPECT_GT(completion.response.cycle, tenant.last_cycle)
            << "tenant " << completion.tag;
        tenant.last_cycle = completion.response.cycle;
        ++tenant.cycles;
      }
      tenant.solving = !tenant.solving;
      if (tenant.cycles < kCycles) submit(static_cast<int>(completion.tag));
    }
  }
  EXPECT_EQ(ok_ops, 2 * kTenants * kCycles);
  EXPECT_GT(window.overloaded_retries(), 0);
  EXPECT_EQ(window.frames_sent(), ok_ops + window.overloaded_retries());
  for (const Tenant& tenant : tenants) EXPECT_EQ(tenant.cycles, kCycles);
}

INSTANTIATE_TEST_SUITE_P(Encodings, WindowAgainstServerTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Binary" : "Json";
                         });

// --- scripted peers ------------------------------------------------------

/// One accepted loopback connection of a scripted peer, read and written
/// with blocking calls (10 s receive timeout, so a broken test fails
/// instead of hanging).
class PeerConnection {
 public:
  explicit PeerConnection(net::Socket socket) : socket_(std::move(socket)) {
    const int flags = fcntl(socket_.fd(), F_GETFL, 0);
    fcntl(socket_.fd(), F_SETFL, flags & ~O_NONBLOCK);
    timeval tv{10, 0};
    setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// The next `count` request payloads (fewer if the connection ends).
  std::vector<std::string> Read(size_t count) {
    std::vector<std::string> frames;
    while (frames.size() < count) {
      std::string payload;
      auto next = decoder_.Next(&payload);
      if (!next.ok()) break;
      if (*next) {
        frames.push_back(std::move(payload));
        continue;
      }
      char chunk[4096];
      const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      decoder_.Append(chunk, static_cast<size_t>(n));
    }
    return frames;
  }

  void Write(const std::string& payload) {
    const std::string frame = net::EncodeFrame(payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(socket_.fd(), frame.data() + sent,
                               frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

 private:
  net::Socket socket_;
  net::FrameDecoder decoder_;
};

/// A loopback listener whose `script` runs on its own thread and accepts
/// the connections it wants with Accept().
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::function<void(ScriptedPeer&)> script) {
    auto listener = net::ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(*listener);
    auto port = net::LocalPort(listener_);
    EXPECT_TRUE(port.ok()) << port.status();
    port_ = *port;
    thread_ = std::thread([this, script = std::move(script)] {
      script(*this);
    });
  }
  ~ScriptedPeer() { thread_.join(); }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  net::HostPort address() const { return {"127.0.0.1", port_}; }

  /// Waits up to 10 s for the next connection.
  std::unique_ptr<PeerConnection> Accept() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      auto accepted = net::AcceptAll(listener_);
      if (!accepted.ok()) break;
      if (!accepted->empty()) {
        return std::make_unique<PeerConnection>(
            std::move(accepted->front()));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "no connection to accept";
    return nullptr;
  }

 private:
  net::Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

class WindowAgainstPeerTest : public ::testing::TestWithParam<bool> {};

// --- (b) re-dial ---------------------------------------------------------

TEST_P(WindowAgainstPeerTest, RedialResendsInFlightFramesByteIdentical) {
  const bool binary = GetParam();
  constexpr int kRequests = 8;
  constexpr size_t kReadBeforeClose = 3;
  std::vector<std::string> payloads;
  for (int i = 0; i < kRequests; ++i) {
    payloads.push_back(SolveRequest(binary, 100 + i, i));
  }

  std::vector<std::string> first_connection;
  std::vector<std::string> second_connection;
  {
    ScriptedPeer peer([&](ScriptedPeer& self) {
      // Read a few frames, then drop the connection with the rest unread.
      if (auto conn = self.Accept()) {
        first_connection = conn->Read(kReadBeforeClose);
      }
      // The re-dialed connection gets everything again and answers it.
      if (auto conn = self.Accept()) {
        second_connection = conn->Read(kRequests);
        for (const std::string& request : second_connection) {
          conn->Write(OkResponse(binary, IdOfRequest(request)));
        }
        conn->Read(1);  // hold the connection until the client closes it
      }
    });
    auto client = RequestWindow::Dial(peer.address(), 10000);
    ASSERT_TRUE(client.ok()) << client.status();
    RequestWindowOptions options;
    options.window = kRequests;
    options.reconnects = 1;
    options.target = peer.address();
    options.timeout_ms = 10000;
    RequestWindow window(*client, options);
    for (int i = 0; i < kRequests; ++i) {
      window.Submit(100 + i, payloads[i], static_cast<uint64_t>(i));
    }
    const std::vector<Completion> done = Drain(window);

    std::multiset<uint64_t> tags;
    for (const Completion& completion : done) {
      EXPECT_EQ(completion.kind, Completion::Kind::kAnswered);
      EXPECT_EQ(completion.response.status, Status::kOk);
      EXPECT_EQ(completion.response.id, 100 + static_cast<int64_t>(
                                                  completion.tag));
      tags.insert(completion.tag);
    }
    EXPECT_EQ(tags.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      EXPECT_EQ(tags.count(static_cast<uint64_t>(i)), 1u) << "request " << i;
    }
    EXPECT_EQ(window.reconnects(), 1);
    EXPECT_EQ(window.frames_sent(), 2 * kRequests);
  }  // closing the client ends the peer's last Read; the peer then joins
  ASSERT_EQ(first_connection.size(), kReadBeforeClose);
  for (size_t i = 0; i < kReadBeforeClose; ++i) {
    EXPECT_EQ(first_connection[i], payloads[i]) << "first send " << i;
  }
  // Re-sent in id order, which is submission order here.
  EXPECT_EQ(second_connection, payloads);
}

// --- (c) unpaired responses ----------------------------------------------

TEST_P(WindowAgainstPeerTest, ReportsUnknownIdsAndGarbageWithoutPairing) {
  const bool binary = GetParam();
  constexpr int64_t kId = 7;
  ScriptedPeer peer([&](ScriptedPeer& self) {
    auto conn = self.Accept();
    if (conn == nullptr) return;
    conn->Read(1);
    conn->Write(OkResponse(binary, kId + 1000));  // pairs with nothing
    // A truncated binary header, or a JSON document without an id.
    conn->Write(binary ? std::string(1, static_cast<char>(kBinaryMagic))
                       : std::string("{\"status\":\"ok\"}"));
    conn->Write(OkResponse(binary, kId));
    conn->Read(1);  // hold the connection until the client closes it
  });
  auto client = RequestWindow::Dial(peer.address(), 10000);
  ASSERT_TRUE(client.ok()) << client.status();
  RequestWindow window(*client, RequestWindowOptions{});
  window.Submit(kId, SolveRequest(binary, kId, 0), /*tag=*/42);
  const std::vector<Completion> done = Drain(window);

  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].kind, Completion::Kind::kUnmatched);
  EXPECT_EQ(done[0].response.id, kId + 1000);
  EXPECT_EQ(done[1].kind, Completion::Kind::kUndecodable);
  EXPECT_FALSE(done[1].response.message.empty());
  EXPECT_EQ(done[2].kind, Completion::Kind::kAnswered);
  EXPECT_EQ(done[2].tag, 42u);
  EXPECT_EQ(done[2].response.status, Status::kOk);
}

// --- not-applied sit-out -------------------------------------------------

TEST_P(WindowAgainstPeerTest, SitOutDoesNotBlockTheWindowAndRetriesRunOut) {
  const bool binary = GetParam();
  constexpr int kBackoffMs = 600;
  const std::string stuck = SolveRequest(binary, 1, 0);
  const std::string served = SolveRequest(binary, 2, 1);
  std::vector<std::string> seen;
  {
    ScriptedPeer peer([&](ScriptedPeer& self) {
      auto conn = self.Accept();
      if (conn == nullptr) return;
      seen = conn->Read(2);
      if (seen.size() != 2) return;
      // The served answer lands while the stuck request sits out.
      conn->Write(OverloadedResponse(binary, 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      conn->Write(OkResponse(binary, 2));
      std::vector<std::string> again = conn->Read(1);
      if (again.empty()) return;
      seen.push_back(again[0]);
      conn->Write(OverloadedResponse(binary, 1));
      conn->Read(1);  // hold the connection until the client closes it
    });
    auto client = RequestWindow::Dial(peer.address(), 10000);
    ASSERT_TRUE(client.ok()) << client.status();
    RequestWindowOptions options;
    options.window = 2;
    options.max_retries = 1;
    options.retry_backoff_ms = kBackoffMs;
    RequestWindow window(*client, options);
    window.Submit(1, stuck, /*tag=*/0);
    window.Submit(2, served, /*tag=*/1);

    const auto start = std::chrono::steady_clock::now();
    std::vector<Completion> done;
    ASSERT_TRUE(window.Poll(done).ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(kBackoffMs / 2))
        << "the sit-out blocked the rest of the window";
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 1u);
    EXPECT_EQ(done[0].response.status, Status::kOk);

    done = Drain(window);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 0u);
    EXPECT_EQ(done[0].response.status, Status::kOverloaded);
    EXPECT_EQ(done[0].retries, 1);
    EXPECT_EQ(window.overloaded_retries(), 1);
    EXPECT_EQ(window.frames_sent(), 3);
  }
  // The re-send carried the first send's bytes.
  EXPECT_EQ(seen, (std::vector<std::string>{stuck, served, stuck}));
}

INSTANTIATE_TEST_SUITE_P(Encodings, WindowAgainstPeerTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Binary" : "Json";
                         });

// --- host:port -----------------------------------------------------------

TEST(ParseHostPortTest, AcceptsOnlyAHostAndAPortInRange) {
  struct Case {
    const char* spec;
    bool ok;
  };
  const Case cases[] = {
      {"127.0.0.1:7353", true},
      {"127.0.0.1:1x", false},  // was dialed as port 1
      {"127.0.0.1:0", false},   // was accepted as a backend
      {":1", false},            // was accepted with an empty host
      {"host:", false},
      {"host:65536", false},
      {"127.0.0.1", false},
  };
  for (const Case& c : cases) {
    auto parsed = net::ParseHostPort(c.spec);
    EXPECT_EQ(parsed.ok(), c.ok) << c.spec;
  }
  auto parsed = net::ParseHostPort("127.0.0.1:7353");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->host, "127.0.0.1");
  EXPECT_EQ(parsed->port, 7353);
}

}  // namespace
}  // namespace auditgame::server
