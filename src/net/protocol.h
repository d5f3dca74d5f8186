// Wire protocol for the networked serving front (net/server.h).
//
// Every message is one length-prefixed binary frame:
//
//   offset size field        notes
//   ------ ---- -----        -----
//        0    4 magic        0x424C4E4B ("BLNK"), little-endian
//        4    2 version      kWireVersion; mismatches get kVersionMismatch
//        6    2 verb         Verb below; responses echo the request verb
//        8    8 request_id   caller-chosen correlation id, echoed back
//       16    4 priority     signed; higher drains first (0 in responses)
//       20    4 deadline_ms  relative deadline from server receipt
//                            (0 = none; 0 in responses)
//       24    4 payload_len  bytes following the header
//       28    - payload      verb-specific body (net/codec.h)
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (bitwise exact — the transport must never perturb a result).
// Response payloads begin with a status envelope (code, message,
// retry_after_ms); request payloads begin with the tenant name. Framing
// errors that leave the stream unsynchronizable (bad magic, payload
// larger than the cap) close the connection after an error frame; every
// in-frame error (bad version, unknown verb, payload decode failure)
// answers an error frame and keeps the connection alive.

#ifndef BLINKML_NET_PROTOCOL_H_
#define BLINKML_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace blinkml {
namespace net {

inline constexpr std::uint32_t kWireMagic = 0x424C4E4Bu;  // "BLNK"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 28;
/// Frames advertising a larger payload are treated as framing corruption
/// (the connection closes after an error frame).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// Request verbs. Responses echo the request's verb; kError is reserved
/// for errors with no decodable request verb (bad magic / truncated
/// header), where the server cannot echo anything meaningful.
enum class Verb : std::uint16_t {
  kError = 0,
  kRegisterDataset = 1,
  kTrain = 2,
  kSearch = 3,
  kPredict = 4,
  kStats = 5,
  kEvictIdle = 6,
  /// Text snapshot of the server's metrics registry (obs/metrics.h).
  kMetrics = 7,
  /// Liveness/overload probe, answered inline on the IO thread — it
  /// bypasses tenant quotas and the job queue, so probes keep working
  /// while the server sheds load or drains.
  kHealth = 8,
};

const char* VerbName(Verb verb);

/// Wire-level status of a response frame. The first block mirrors
/// util/status.h codes (job outcomes); the second names protocol- and
/// admission-level rejections that have no in-process equivalent.
enum class WireStatus : std::uint16_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIOError = 3,
  kNotConverged = 4,
  kInfeasible = 5,
  kInternal = 6,
  // Protocol errors.
  kMalformedFrame = 16,
  kVersionMismatch = 17,
  kUnknownVerb = 18,
  kDecodeError = 19,
  // Scheduling / admission rejections.
  kDeadlineExceeded = 32,
  kRateLimited = 33,
  kOverQuota = 34,
  kQueueFull = 35,
  kShuttingDown = 36,
  /// Load shed: queue depth crossed the server's high-water mark (or the
  /// connection cap rejected the connect); carries a retry-after hint.
  kOverloaded = 37,
  /// Transient server-side failure (e.g. an injected fault); the job did
  /// not produce a result and the request is safe to retry.
  kUnavailable = 38,
};

const char* WireStatusName(WireStatus status);

/// True for statuses a client may retry verbatim: scheduling/admission
/// rejections and transient unavailability. The request provably did not
/// produce a (successful) result — and even a duplicated execution is
/// harmless, because job results are bitwise deterministic. Never true
/// for caller bugs (kInvalidArgument, protocol errors) or definitive job
/// outcomes (kNotConverged, kInfeasible, kInternal).
bool IsRetryableWireStatus(WireStatus status);

/// Maps a job Status onto the wire (OK stays OK; unknown codes become
/// kInternal).
WireStatus WireStatusFromStatus(const Status& status);

/// Reconstructs a client-side Status from a response envelope. Protocol
/// and admission codes map onto the closest util/status.h category with
/// the wire status name prefixed, so callers can still switch on it.
Status StatusFromWire(WireStatus status, const std::string& message);

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  Verb verb = Verb::kError;
  std::uint64_t request_id = 0;
  std::int32_t priority = 0;
  std::uint32_t deadline_ms = 0;
  std::uint32_t payload_len = 0;
};

/// Serializes a header into exactly kFrameHeaderBytes at `out`.
void EncodeFrameHeader(const FrameHeader& header, std::uint8_t* out);

/// Parses kFrameHeaderBytes. Fails (kMalformedFrame semantics) on a bad
/// magic or a payload length above kMaxPayloadBytes; a bad VERSION is not
/// an error here — the caller answers kVersionMismatch with the request
/// id echoed, which requires the parsed header.
Status DecodeFrameHeader(const std::uint8_t* data, FrameHeader* out);

// --- Payload encoding ---------------------------------------------------

/// Append-only little-endian byte sink for payload bodies.
class WireWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern: bitwise exact round trip.
  void F64(double v);
  /// u32 length + raw bytes.
  void Str(const std::string& s);
  /// `count` F64s, no length prefix; the same bytes as calling F64 per
  /// element, written with one copy on little-endian hosts.
  void Doubles(const double* data, std::size_t count);
  /// Raw bytes appended verbatim, no length prefix (splicing one writer's
  /// finished body after another's envelope).
  void Bytes(const std::uint8_t* data, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounded little-endian reader. Reads past the end set a sticky error
/// flag and return zeros; decode functions check ok() once at the end
/// instead of plumbing a Status through every field read.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  std::string Str();
  /// Reads `count` doubles into `out` (resized). A count the remaining
  /// bytes cannot hold fails before `out` is touched, so a forged count
  /// never allocates.
  void Doubles(std::size_t count, std::vector<double>* out);

  bool ok() const { return !failed_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool Need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- Blocking frame transport (clients, tests and the router's runner
// --- forwards; the fronts' IO loop parses incrementally from its own
// --- buffers) ------------------------------------------------------------

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Writes header + payload with a full-write loop of gathered sends (the
/// payload is never copied behind a header first). EINTR-safe. For
/// blocking sockets: the serving fronts write their own non-blocking
/// sockets from their IO loop (net/frame_server.h).
Status WriteFrame(int fd, const FrameHeader& header,
                  const std::uint8_t* payload, std::size_t payload_len);

/// Reads exactly one frame; kIOError on EOF/short read, kInvalidArgument
/// (malformed) on bad magic / oversized payload.
Status ReadFrame(int fd, Frame* out);

/// Opens a stream socket connected to the Unix-domain socket at `path`;
/// the caller owns (and closes) the returned fd. `non_blocking` dials
/// without ever waiting (a full listen backlog fails the dial) and
/// returns an O_NONBLOCK socket.
Result<int> DialUnix(const std::string& path, bool non_blocking = false);

}  // namespace net
}  // namespace blinkml

#endif  // BLINKML_NET_PROTOCOL_H_
