// Mutation sweep over the daemon's two decoders of untrusted bytes:
// `FrameDecoder` (server/frame.h) and `parse_request` (server/protocol.h).
//
// One stream frames a request of every verb. Each mutation of it — every
// cut length, and every single-byte XOR 0xff — is fed to one decoder
// whole and to a second one byte at a time, and every payload either
// yields goes through `parse_request`. Both decoders must yield the same
// payloads and end status; once `kTooLarge` is returned it repeats; a
// payload that is one of the original requests parses to exactly that
// request; any other payload parses or fails with a non-empty error. The
// ASan+UBSan CI job runs this file like every other test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "server/frame.h"
#include "server/protocol.h"

namespace synscan::server {
namespace {

using Status = FrameDecoder::Status;

/// One request of each verb, as sent and as it must parse.
struct Case {
  std::string command;
  Request request;
};

std::vector<Case> every_verb() {
  std::vector<Case> cases(7);
  cases[0].command = "PING";
  cases[0].request.kind = RequestKind::kPing;
  cases[1].command = "STATUS";
  cases[1].request.kind = RequestKind::kStatus;
  cases[2].command = "LOAD /data/dir with spaces/window.pcap";
  cases[2].request.kind = RequestKind::kLoad;
  cases[2].request.argument = "/data/dir with spaces/window.pcap";
  cases[3].command = "ROLLUP week1.pcap week2.pcap";
  cases[3].request.kind = RequestKind::kRollup;
  cases[3].request.paths = {"week1.pcap", "week2.pcap"};
  cases[4].command = "QUERY campaigns tool=zmap min_packets=5 max_ports=3";
  cases[4].request.kind = RequestKind::kQuery;
  cases[4].request.argument = "campaigns";
  cases[4].request.filters = {{"tool", "zmap"}, {"min_packets", "5"}, {"max_ports", "3"}};
  cases[5].command = "QUERY analyze";
  cases[5].request.kind = RequestKind::kQuery;
  cases[5].request.argument = "analyze";
  cases[6].command = "SHUTDOWN";
  cases[6].request.kind = RequestKind::kShutdown;
  return cases;
}

/// Every field of a request, for comparison and failure messages.
std::string describe(const Request& request) {
  std::ostringstream out;
  out << "kind=" << static_cast<int>(request.kind) << " argument='" << request.argument
      << "' filters=[";
  for (const auto& filter : request.filters) out << filter.key << "=" << filter.value << ";";
  out << "] paths=[";
  for (const auto& path : request.paths) out << path << ";";
  out << "]";
  return out.str();
}

/// What one decoder yielded from a byte stream.
struct Decoded {
  std::vector<std::string> payloads;
  Status status = Status::kNeedMore;  ///< the last non-frame status
};

/// Feeds `bytes` to a fresh decoder `piece` bytes at a time, pulling
/// every payload after each piece. A frame or any other status after
/// `kTooLarge` fails the test.
Decoded decode(std::string_view bytes, std::size_t piece) {
  FrameDecoder decoder;
  Decoded out;
  std::string payload;
  std::size_t at = 0;
  do {
    const auto take = std::min(piece, bytes.size() - at);
    decoder.absorb(bytes.substr(at, take));
    at += take;
    for (auto status = decoder.next(payload);; status = decoder.next(payload)) {
      if (out.status == Status::kTooLarge) {
        EXPECT_EQ(status, Status::kTooLarge) << "after kTooLarge, at byte " << at;
      }
      if (status != Status::kFrame) {
        out.status = status;
        break;
      }
      out.payloads.push_back(payload);
    }
  } while (at < bytes.size());
  if (out.status == Status::kTooLarge) {
    EXPECT_EQ(decoder.next(payload), Status::kTooLarge);
  }
  return out;
}

/// Decodes `bytes` whole and byte by byte, requires the two to agree,
/// and parses every payload. Returns what the whole decode yielded.
Decoded check_stream(std::string_view bytes, const std::vector<Case>& cases,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const auto whole = decode(bytes, bytes.size());
  const auto bytewise = decode(bytes, 1);
  EXPECT_EQ(whole.payloads, bytewise.payloads);
  EXPECT_EQ(whole.status, bytewise.status);
  for (const auto& payload : whole.payloads) {
    Request request;
    std::string error;
    const bool parsed = parse_request(payload, request, error);
    bool original = false;
    for (const auto& c : cases) {
      if (payload != c.command) continue;
      original = true;
      EXPECT_TRUE(parsed) << c.command << ": " << error;
      EXPECT_EQ(describe(request), describe(c.request));
    }
    if (!original && !parsed) {
      EXPECT_FALSE(error.empty()) << "payload '" << payload << "'";
    }
  }
  return whole;
}

std::string length_header(std::uint32_t length) {
  std::string header(kFrameHeaderBytes, '\0');
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    header[i] = static_cast<char>((length >> (8 * i)) & 0xff);
  }
  return header;
}

TEST(ServerDecoderSweep, EveryCutYieldsTheCompleteRequests) {
  const auto cases = every_verb();
  std::string stream;
  std::vector<std::size_t> ends;  // stream offset just past each frame
  for (const auto& c : cases) {
    append_frame(stream, c.command);
    ends.push_back(stream.size());
  }
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    const auto payloads =
        check_stream(std::string_view(stream).substr(0, cut), cases, "cut " + std::to_string(cut))
            .payloads;
    std::vector<std::string> complete;
    for (std::size_t i = 0; i < cases.size() && ends[i] <= cut; ++i) {
      complete.push_back(cases[i].command);
    }
    EXPECT_EQ(payloads, complete) << "cut " << cut;
  }
}

TEST(ServerDecoderSweep, EveryByteFlipDecodesAlikeAndParsesOrFails) {
  const auto cases = every_verb();
  std::string stream;
  for (const auto& c : cases) append_frame(stream, c.command);
  std::size_t too_large = 0;
  for (std::size_t at = 0; at < stream.size(); ++at) {
    std::string flipped = stream;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xff);
    if (check_stream(flipped, cases, "flip " + std::to_string(at)).status ==
        Status::kTooLarge) {
      ++too_large;
    }
  }
  // The high bytes of every length field advertise more than the cap.
  EXPECT_EQ(too_large, std::size_t{2} * cases.size());
}

TEST(ServerDecoderSweep, LengthFieldAtTheCapOneAboveAndMax) {
  const auto cases = every_verb();
  const auto at_cap = static_cast<std::uint32_t>(kDefaultMaxFrameBytes);
  const std::string body(kDefaultMaxFrameBytes, 'x');
  const auto payloads = check_stream(length_header(at_cap) + body, cases, "at the cap").payloads;
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], body);
  EXPECT_EQ(decode(length_header(at_cap), kFrameHeaderBytes).status, Status::kNeedMore);
  for (const std::uint32_t length : {at_cap + 1, std::uint32_t{0xffffffff}}) {
    const auto header = length_header(length);
    EXPECT_EQ(decode(header, header.size()).status, Status::kTooLarge) << length;
    EXPECT_TRUE(check_stream(header + encode_frame("PING"), cases, std::to_string(length))
                    .payloads.empty());
  }
}

}  // namespace
}  // namespace synscan::server
