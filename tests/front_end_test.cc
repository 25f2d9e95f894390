// Tests for the flags the serving tools share: the front door
// (server::DefineFrontEndFlags / FrontEndOptionsFromFlags), the shard and
// service knobs (DefineAuditServerFlags / AuditServerOptionsFromFlags and
// the DefineServiceFlags / ServiceOptionsFromFlags pair they share) and the
// router's (DefineRouterFlags / RouterOptionsFromFlags). The defaults
// resolve to the documented options, and out-of-range values are rejected
// instead of wrapping into a different port, no frame cap or an unbounded
// queue, or clamping into a different limit.
#include "server/front_end.h"

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "server/audit_server.h"
#include "server/router.h"
#include "tests/test_util.h"
#include "util/flags.h"

namespace auditgame::server {
namespace {

util::StatusOr<FrontEndOptions> Parse(std::vector<std::string> args) {
  util::FlagParser flags;
  DefineFrontEndFlags(flags, /*default_port=*/7353);
  RETURN_IF_ERROR(testutil::ParseArgs(flags, std::move(args)));
  return FrontEndOptionsFromFlags(flags);
}

util::StatusOr<AuditServerOptions> ParseServer(std::vector<std::string> args) {
  util::FlagParser flags;
  DefineAuditServerFlags(flags);
  RETURN_IF_ERROR(testutil::ParseArgs(flags, std::move(args)));
  return AuditServerOptionsFromFlags(flags);
}

util::StatusOr<RouterOptions> ParseRouter(std::vector<std::string> args) {
  util::FlagParser flags;
  DefineRouterFlags(flags);
  // A backend list is required; a later --backends in `args` overrides it.
  args.insert(args.begin(), "--backends=127.0.0.1:7451,127.0.0.1:7452");
  RETURN_IF_ERROR(testutil::ParseArgs(flags, std::move(args)));
  return RouterOptionsFromFlags(flags);
}

TEST(FrontEndFlagsTest, DefaultsParseToTheDocumentedOptions) {
  auto options = Parse({});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->host, "127.0.0.1");
  EXPECT_EQ(options->port, 7353);
  EXPECT_EQ(options->num_reactors, 1);
  EXPECT_EQ(options->max_frame_payload, 1024u * 1024u);
  EXPECT_EQ(options->idle_timeout_ms, 300000);
  EXPECT_EQ(options->max_connections, 0u);
  EXPECT_EQ(options->drain_timeout_ms, 10000);
  // Flags and struct agree on every default but the per-tool port.
  const FrontEndOptions defaults;
  EXPECT_EQ(options->max_frame_payload, defaults.max_frame_payload);
  EXPECT_EQ(options->max_write_buffer, defaults.max_write_buffer);
  EXPECT_EQ(options->idle_timeout_ms, defaults.idle_timeout_ms);
  EXPECT_EQ(options->drain_timeout_ms, defaults.drain_timeout_ms);
}

TEST(FrontEndFlagsTest, ExplicitValuesPassThrough) {
  auto options = Parse({"--host=0.0.0.0", "--port=65535", "--reactors=3",
                        "--max_frame_kb=1", "--idle_timeout_ms=0",
                        "--max_connections=9", "--drain_timeout_ms=5"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->host, "0.0.0.0");
  EXPECT_EQ(options->port, 65535);
  EXPECT_EQ(options->num_reactors, 3);
  EXPECT_EQ(options->max_frame_payload, 1024u);
  EXPECT_EQ(options->idle_timeout_ms, 0);
  EXPECT_EQ(options->max_connections, 9u);
  EXPECT_EQ(options->drain_timeout_ms, 5);
  auto ephemeral = Parse({"--port=0"});
  ASSERT_TRUE(ephemeral.ok()) << ephemeral.status();
  EXPECT_EQ(ephemeral->port, 0);
}

TEST(FrontEndFlagsTest, OutOfRangeValuesAreRejectedNotWrapped) {
  // 70000 would wrap to port 4464; -1 KiB would wrap to a ~SIZE_MAX cap;
  // -1 connections used to mean unlimited, 0 reactors one, a negative idle
  // timeout no reaping, and a negative drain budget abandoned in-flight
  // work at once.
  for (const char* bad :
       {"--port=70000", "--port=65536", "--port=-1", "--max_frame_kb=0",
        "--max_frame_kb=-1", "--reactors=0", "--reactors=-1",
        "--idle_timeout_ms=-1", "--max_connections=-1",
        "--drain_timeout_ms=-1"}) {
    auto options = Parse({bad});
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(AuditServerFlagsTest, DefaultsParseToTheDocumentedOptions) {
  auto options = ParseServer({});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->num_shards, 4);
  EXPECT_EQ(options->queue_capacity, 128u);
  EXPECT_EQ(options->max_batch, 16u);
  EXPECT_EQ(options->service.budgets, (std::vector<double>{6.0, 10.0}));
  EXPECT_EQ(options->service.solver_options.ishm.step_size, 0.25);
  EXPECT_EQ(options->service.warm_start_max_drift, 0.25);
  // Flags and struct agree on every default but the served budgets.
  const AuditServerOptions defaults;
  EXPECT_EQ(options->num_shards, defaults.num_shards);
  EXPECT_EQ(options->queue_capacity, defaults.queue_capacity);
  EXPECT_EQ(options->max_batch, defaults.max_batch);
  EXPECT_EQ(options->service.warm_start_max_drift,
            defaults.service.warm_start_max_drift);
}

TEST(AuditServerFlagsTest, ExplicitValuesPassThrough) {
  auto options = ParseServer({"--shards=2", "--queue_capacity=1", "--batch=3",
                              "--budgets=4,8,12", "--eps=0.5",
                              "--warm_max_drift=0"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->num_shards, 2);
  EXPECT_EQ(options->queue_capacity, 1u);
  EXPECT_EQ(options->max_batch, 3u);
  EXPECT_EQ(options->service.budgets, (std::vector<double>{4.0, 8.0, 12.0}));
  EXPECT_EQ(options->service.solver_options.ishm.step_size, 0.5);
  EXPECT_EQ(options->service.warm_start_max_drift, 0.0);
}

TEST(AuditServerFlagsTest, OutOfRangeValuesAreRejectedNotWrapped) {
  // -1 would wrap to a SIZE_MAX queue that never answers `overloaded`; a
  // negative budget or an --eps outside (0, 1) would fail every solve_cycle
  // instead of the start.
  for (const char* bad :
       {"--shards=0", "--shards=-1", "--queue_capacity=0",
        "--queue_capacity=-1", "--batch=0", "--batch=-1", "--budgets=",
        "--budgets=-5", "--budgets=6,-1", "--eps=0", "--eps=1", "--eps=-0.25",
        "--eps=1.5"}) {
    auto options = ParseServer({bad});
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(RouterFlagsTest, DefaultsMatchRouterOptions) {
  auto options = ParseRouter({});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->backends,
            (std::vector<std::string>{"127.0.0.1:7451", "127.0.0.1:7452"}));
  // Flags and struct agree on every default but the per-backend queue,
  // which the tool sizes for many clients sharing one channel.
  const RouterOptions defaults;
  EXPECT_EQ(options->virtual_nodes, defaults.virtual_nodes);
  EXPECT_EQ(options->replicate, defaults.replicate);
  EXPECT_EQ(options->replica_retries, defaults.replica_retries);
  EXPECT_EQ(options->replica_retry_backoff_ms,
            defaults.replica_retry_backoff_ms);
  EXPECT_EQ(options->ping_interval_ms, defaults.ping_interval_ms);
  EXPECT_EQ(options->backend_connect_wait_ms,
            defaults.backend_connect_wait_ms);
  EXPECT_EQ(options->channel.window, defaults.channel.window);
  EXPECT_EQ(options->channel.response_timeout_ms,
            defaults.channel.response_timeout_ms);
  EXPECT_EQ(options->channel.queue_capacity, 4096u);
}

TEST(RouterFlagsTest, OutOfRangeValuesAreInvalidArgument) {
  // A zero --backend_timeout_ms dropped every backend on its first
  // outstanding request; the others were clamped or passed through.
  for (const char* bad :
       {"--backends=", "--backends=,", "--backend_timeout_ms=0",
        "--backend_timeout_ms=-1", "--vnodes=0", "--window=0",
        "--backend_queue=0", "--backend_queue=-1", "--replica_retries=-1",
        "--replica_retry_backoff_ms=0", "--ping_interval_ms=-1",
        "--backend_wait_ms=-1"}) {
    auto options = ParseRouter({bad});
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
  // The lower bounds themselves are accepted (0 = pings off, no retries).
  auto edges = ParseRouter({"--replica_retries=0", "--ping_interval_ms=0",
                            "--backend_wait_ms=0", "--vnodes=1"});
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->ping_interval_ms, 0);
  EXPECT_EQ(edges->replica_retries, 0);
}

}  // namespace
}  // namespace auditgame::server
