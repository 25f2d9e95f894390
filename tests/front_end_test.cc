// Tests for the front-door flags both serving tools share
// (server::DefineFrontEndFlags / FrontEndOptionsFromFlags): the defaults
// resolve to the documented options, and out-of-range values are rejected
// instead of wrapping into a different port or no frame cap at all.
#include "server/front_end.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/flags.h"

namespace auditgame::server {
namespace {

util::StatusOr<FrontEndOptions> Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  util::FlagParser flags;
  DefineFrontEndFlags(flags, /*default_port=*/7353);
  util::Status parsed =
      flags.Parse(static_cast<int>(argv.size()), argv.data());
  if (!parsed.ok()) return parsed;
  return FrontEndOptionsFromFlags(flags);
}

TEST(FrontEndFlagsTest, DefaultsParseToTheDocumentedOptions) {
  auto options = Parse({});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->host, "127.0.0.1");
  EXPECT_EQ(options->port, 7353);
  EXPECT_EQ(options->num_reactors, 1);
  EXPECT_EQ(options->poller_backend, net::PollerBackend::kDefault);
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
                        "--poller=poll", "--max_frame_kb=1",
                        "--idle_timeout_ms=0", "--max_connections=9",
                        "--drain_timeout_ms=5"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->host, "0.0.0.0");
  EXPECT_EQ(options->port, 65535);
  EXPECT_EQ(options->num_reactors, 3);
  EXPECT_EQ(options->poller_backend, net::PollerBackend::kPoll);
  EXPECT_EQ(options->max_frame_payload, 1024u);
  EXPECT_EQ(options->idle_timeout_ms, 0);
  EXPECT_EQ(options->max_connections, 9u);
  EXPECT_EQ(options->drain_timeout_ms, 5);
  auto ephemeral = Parse({"--port=0", "--poller=epoll"});
  ASSERT_TRUE(ephemeral.ok()) << ephemeral.status();
  EXPECT_EQ(ephemeral->port, 0);
  EXPECT_EQ(ephemeral->poller_backend, net::PollerBackend::kEpoll);
}

TEST(FrontEndFlagsTest, OutOfRangeValuesAreRejectedNotWrapped) {
  // 70000 would wrap to port 4464; -1 KiB would wrap to a ~SIZE_MAX cap.
  for (const char* bad : {"--port=70000", "--port=65536", "--port=-1",
                          "--max_frame_kb=0", "--max_frame_kb=-1",
                          "--poller=kqueue", "--poller="}) {
    auto options = Parse({bad});
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace auditgame::server
