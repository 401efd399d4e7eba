// TcpStream against real loopback sockets: the waits every client makes
// must end at their deadline.
#include <gtest/gtest.h>

#include <string>

#include "common/clock.hpp"
#include "common/socket.hpp"

namespace osn {
namespace {

// A listener whose accept queue is full drops further SYNs, and the kernel
// retries a dropped SYN for minutes. A connect given a deadline must give
// up when it passes, not when the kernel does.
TEST(TcpStream, ConnectHonoursItsDeadline) {
  std::string error;
  TcpListener listener = TcpListener::listen("127.0.0.1", 0, /*backlog=*/0, &error);
  ASSERT_TRUE(listener.ok()) << error;
  // Fill the one-slot accept queue and never accept.
  TcpStream queued =
      TcpStream::connect("127.0.0.1", listener.port(), Deadline::after(sec(5)), &error);
  ASSERT_TRUE(queued.ok()) << error;

  const TimeNs start = monotonic_now_ns();
  TcpStream dropped = TcpStream::connect("127.0.0.1", listener.port(),
                                         Deadline::after(300 * kNsPerMs), &error);
  const DurNs took = monotonic_now_ns() - start;
  EXPECT_FALSE(dropped.ok());
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_LT(took, sec(10));
}

}  // namespace
}  // namespace osn
