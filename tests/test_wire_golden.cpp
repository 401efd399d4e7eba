// Golden wire bytes: the exact JSON line and OSNB frame each request and
// response encodes to. The round-trip tests cannot see a change that both
// sides of a codec agree on; these strings can. They must never be edited to
// follow a code change — a diff here is a wire-format break.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace osn::serve {
namespace {

std::string hex(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

struct GoldenRequest {
  const char* what;
  Request req;
  const char* line;
  const char* osnb_hex;
};

std::vector<GoldenRequest> golden_requests() {
  std::vector<GoldenRequest> out;

  // Every field at its default: JSON omits all but the op.
  out.push_back({"defaults", Request{}, R"({"op":"ping"})", "01000b0000e807000500"});

  // Every field set, every flag bit on.
  Request all;
  all.id = 7;
  all.op = Op::kWindow;
  all.trace = "ftq";
  all.has_window = true;
  all.window_from_ms = 100.5;
  all.window_to_ms = 900;
  all.task = 3;
  all.quantum_us = 500;
  all.cpu = 2;
  all.activity = "timer_interrupt";
  all.k = 12;
  all.deadline = 250 * kNsPerMs;
  all.stall = 7 * kNsPerMs;
  out.push_back({"every field", all,
                 R"({"id":7,"op":"window","trace":"ftq","window":[100.5,900],"task":3,)"
                 R"("quantum_us":500,"cpu":2,"activity":"timer_interrupt","k":12,)"
                 R"("deadline_ms":250,"stall_ms":7})",
                 "0107040f0366747100000000002059400000000000208c4003f403020f74696d65725f"
                 "696e746572727570740c80e59a77c09fab03"});

  // A non-ASCII trace name with characters JSON must escape.
  Request utf8;
  utf8.op = Op::kSummary;
  utf8.trace = "n\xC5\x93ud-\xC3\xBC \"q\"\\\t\x01";
  out.push_back({"non-ascii trace", utf8,
                 R"({"op":"summary","trace":"n)"
                 "\xC5\x93ud-\xC3\xBC"
                 R"( \"q\"\\\t\u0001"})",
                 "010002000f6ec59375642dc3bc202271225c0901e807000500"});

  // Explicit zeros are present, not defaulted: each still sets its flag bit.
  Request zeros;
  zeros.id = 1;
  zeros.op = Op::kChart;
  zeros.trace = "t";
  zeros.task = 0;
  zeros.cpu = 0;
  zeros.deadline = 0;
  out.push_back({"explicit zeros", zeros,
                 R"({"id":1,"op":"chart","trace":"t","task":0,"cpu":0,"deadline_ms":0})",
                 "0101030e017400e8070000050000"});

  // The upper edge of every bounded field, and ids past 2^53.
  Request edges;
  edges.id = (1ull << 53) + 1;
  edges.op = Op::kTopK;
  edges.trace = "amg";
  edges.task = 0xFFFFFFFFu;
  edges.quantum_us = kTimeInfinity / kNsPerUs;
  edges.cpu = 0xFFFF;
  edges.k = 65536;
  edges.deadline = kTimeInfinity;
  out.push_back({"upper edges", edges,
                 R"({"id":9007199254740993,"op":"topk","trace":"amg","task":4294967295,)"
                 R"("quantum_us":18446744073709551,"cpu":65535,"k":65536,)"
                 R"("deadline_ms":18446744073709})",
                 "018180808080808010060e03616d67ffffffff0fefcf9adef4a6e220ffff030080800"
                 "4ffffffffffffffffff0100"});

  // Sub-unit stall, fractional and large window bounds, a monitor op.
  Request odd;
  odd.id = ~0ull;
  odd.op = Op::kMonitorStatus;
  odd.has_window = true;
  odd.window_from_ms = 0.25;
  odd.window_to_ms = 1e16;
  odd.activity = "irq";
  odd.stall = 1'500'000;
  out.push_back({"odd values", odd,
                 R"({"id":18446744073709551615,"op":"monitor_status",)"
                 R"("window":[0.25,10000000000000000],"activity":"irq","stall_ms":1})",
                 "01ffffffffffffffffff01090100000000000000d03f0080e03779c34143e8070369"
                 "727105e0c65b"});
  return out;
}

TEST(WireGolden, RequestBytes) {
  for (const GoldenRequest& g : golden_requests()) {
    EXPECT_EQ(g.req.to_line(), g.line) << g.what;
    EXPECT_EQ(hex(request_to_osnb(g.req)), g.osnb_hex) << g.what;
  }
}

TEST(WireGolden, ResponseBytes) {
  const Response ok = Response::success(
      9, "{\n  \"workload\": \"ftq \\ \xC3\xA9\",\n  \"n\": 3\n}\n");
  EXPECT_EQ(ok.to_line(), R"({"id":9,"ok":true,"payload":"{\n  \"workload\": \"ftq \\ )"
                         "\xC3\xA9"
                         R"(\",\n  \"n\": 3\n}\n"})");
  EXPECT_EQ(hex(response_to_osnb(ok)),
            "020901277b0a202022776f726b6c6f6164223a2022667471205c20c3a9222c0a2020226e"
            "223a20330a7d0a");

  const Response fail =
      Response::failure(~0ull, errc::kBadRequest, "cpu out of range \"x\"");
  EXPECT_EQ(fail.to_line(), R"({"id":18446744073709551615,"ok":false,"error":"bad_request",)"
                           R"("message":"cpu out of range \"x\""})");
  EXPECT_EQ(hex(response_to_osnb(fail)),
            "02ffffffffffffffffff01000b6261645f7265717565737414637075206f7574206f662072"
            "616e676520227822");

  const Response anon = Response::failure(0, errc::kDeadlineExceeded, "");
  EXPECT_EQ(anon.to_line(),
            R"({"id":0,"ok":false,"error":"deadline_exceeded","message":""})");
  EXPECT_EQ(hex(response_to_osnb(anon)), "02000011646561646c696e655f657863656564656400");
}

}  // namespace
}  // namespace osn::serve
