// Tests for net::Poller, the event-loop primitive under every reactor, the
// acceptor and the router's backend channels: level-triggered readiness,
// the remembered interest set, Forget and fd reuse, and the eventfd wake.
#include "net/poller.h"

#include <stdio.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "gtest/gtest.h"
#include "net/socket.h"

namespace auditgame::net {
namespace {

struct SocketPair {
  Socket a;
  Socket b;
};

SocketPair MakePair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return SocketPair{Socket(fds[0]), Socket(fds[1])};
}

Poller NewPoller() {
  auto poller = Poller::Create();
  EXPECT_TRUE(poller.ok()) << poller.status();
  return std::move(poller).value();
}

void WriteByte(const Socket& socket) {
  const char byte = 'x';
  ASSERT_EQ(::write(socket.fd(), &byte, 1), 1);
}

/// The event one Wait(0) reports for `fd`; its fd is -1 when there is none.
PollEvent EventFor(Poller& poller, int fd) {
  auto polled = poller.Wait(0);
  EXPECT_TRUE(polled.ok()) << polled.status();
  for (const PollEvent& event : polled->events) {
    if (event.fd == fd) return event;
  }
  return PollEvent{};
}

TEST(PollerTest, ReadableKeepsReportingUntilDrained) {
  Poller poller = NewPoller();
  SocketPair pair = MakePair();
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  EXPECT_EQ(EventFor(poller, pair.a.fd()).fd, -1);

  WriteByte(pair.b);
  // Level-triggered: an unread byte reports on every Wait.
  for (int i = 0; i < 3; ++i) {
    const PollEvent event = EventFor(poller, pair.a.fd());
    EXPECT_EQ(event.fd, pair.a.fd());
    EXPECT_TRUE(event.readable);
    EXPECT_FALSE(event.writable);
    EXPECT_FALSE(event.hangup);
  }
  char byte;
  ASSERT_EQ(::read(pair.a.fd(), &byte, 1), 1);
  EXPECT_EQ(EventFor(poller, pair.a.fd()).fd, -1);
}

TEST(PollerTest, WriteInterestReportsWritable) {
  Poller poller = NewPoller();
  SocketPair pair = MakePair();
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/false, /*write=*/true).ok());
  const PollEvent event = EventFor(poller, pair.a.fd());
  EXPECT_EQ(event.fd, pair.a.fd());
  EXPECT_TRUE(event.writable);
  EXPECT_FALSE(event.readable);

  // Dropping write interest silences an always-writable socket.
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  EXPECT_EQ(EventFor(poller, pair.a.fd()).fd, -1);
}

TEST(PollerTest, PeerCloseReportsHangup) {
  Poller poller = NewPoller();
  SocketPair pair = MakePair();
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  pair.b.Close();
  const PollEvent event = EventFor(poller, pair.a.fd());
  EXPECT_EQ(event.fd, pair.a.fd());
  EXPECT_TRUE(event.hangup);
}

TEST(PollerTest, ForgottenFdIsNotReported) {
  Poller poller = NewPoller();
  SocketPair pair = MakePair();
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  WriteByte(pair.b);
  poller.Forget(pair.a.fd());
  poller.Forget(pair.a.fd());  // unknown now: a no-op
  auto polled = poller.Wait(0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->events.empty());
}

TEST(PollerTest, ReusedFdNumberAfterForgetAndCloseIsWatchedAgain) {
  Poller poller = NewPoller();
  SocketPair first = MakePair();
  const int fd = first.a.fd();
  ASSERT_TRUE(poller.Watch(fd, /*read=*/true, /*write=*/false).ok());
  poller.Forget(fd);
  first.a.Close();

  // The lowest free descriptor number is reused.
  SocketPair second = MakePair();
  ASSERT_EQ(second.a.fd(), fd);
  ASSERT_TRUE(poller.Watch(fd, /*read=*/true, /*write=*/false).ok());
  WriteByte(second.b);
  EXPECT_TRUE(EventFor(poller, fd).readable);
}

TEST(PollerTest, ChangedInterestOnAReusedFdRegistersIt) {
  // Closing without Forget() leaves the poller remembering a registration
  // the kernel dropped. A Watch with different interest retries the MOD as
  // an ADD; an unchanged one would be skipped, hence the Forget contract.
  Poller poller = NewPoller();
  SocketPair first = MakePair();
  const int fd = first.a.fd();
  ASSERT_TRUE(poller.Watch(fd, /*read=*/true, /*write=*/false).ok());
  first.a.Close();

  SocketPair second = MakePair();
  ASSERT_EQ(second.a.fd(), fd);
  ASSERT_TRUE(poller.Watch(fd, /*read=*/true, /*write=*/true).ok());
  EXPECT_TRUE(EventFor(poller, fd).writable);
}

TEST(PollerTest, RepeatedUnchangedWatchStillReports) {
  Poller poller = NewPoller();
  SocketPair pair = MakePair();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  }
  WriteByte(pair.b);
  auto polled = poller.Wait(0);
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled->events.size(), 1u);
  EXPECT_EQ(polled->events[0].fd, pair.a.fd());
  EXPECT_TRUE(polled->events[0].readable);
}

TEST(PollerTest, NotifyFromAnotherThreadWakesABlockedWait) {
  Poller poller = NewPoller();
  const auto start = std::chrono::steady_clock::now();
  std::thread notifier([&poller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    poller.Notify();
  });
  auto polled = poller.Wait(/*timeout_ms=*/30000);
  notifier.join();
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->woken);
  EXPECT_TRUE(polled->events.empty());  // the wake is not an fd event
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

TEST(PollerTest, NotifiesCoalesceIntoOneWake) {
  Poller poller = NewPoller();
  for (int i = 0; i < 5; ++i) poller.Notify();
  auto polled = poller.Wait(0);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->woken);
  polled = poller.Wait(0);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled->woken);
}

TEST(PollerTest, TimeoutReturnsNoEventsAndNoWake) {
  Poller poller = NewPoller();
  SocketPair pair = MakePair();
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  auto polled = poller.Wait(/*timeout_ms=*/10);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->events.empty());
  EXPECT_FALSE(polled->woken);
}

TEST(PollerTest, WatchingARegularFileIsAnError) {
  Poller poller = NewPoller();
  FILE* file = ::tmpfile();
  ASSERT_NE(file, nullptr);
  const util::Status watched =
      poller.Watch(::fileno(file), /*read=*/true, /*write=*/false);
  EXPECT_FALSE(watched.ok());
  ::fclose(file);
  // The failure left nothing behind: the poller still serves other fds.
  SocketPair pair = MakePair();
  ASSERT_TRUE(poller.Watch(pair.a.fd(), /*read=*/true, /*write=*/false).ok());
  WriteByte(pair.b);
  EXPECT_TRUE(EventFor(poller, pair.a.fd()).readable);
}

}  // namespace
}  // namespace auditgame::net
