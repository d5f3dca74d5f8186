#include "net/protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/string_util.h"

namespace blinkml {
namespace net {

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kError: return "Error";
    case Verb::kRegisterDataset: return "RegisterDataset";
    case Verb::kTrain: return "Train";
    case Verb::kSearch: return "Search";
    case Verb::kPredict: return "Predict";
    case Verb::kStats: return "Stats";
    case Verb::kEvictIdle: return "EvictIdle";
    case Verb::kMetrics: return "Metrics";
    case Verb::kHealth: return "Health";
  }
  return "Unknown";
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kInvalidArgument: return "InvalidArgument";
    case WireStatus::kNotFound: return "NotFound";
    case WireStatus::kIOError: return "IOError";
    case WireStatus::kNotConverged: return "NotConverged";
    case WireStatus::kInfeasible: return "Infeasible";
    case WireStatus::kInternal: return "Internal";
    case WireStatus::kMalformedFrame: return "MalformedFrame";
    case WireStatus::kVersionMismatch: return "VersionMismatch";
    case WireStatus::kUnknownVerb: return "UnknownVerb";
    case WireStatus::kDecodeError: return "DecodeError";
    case WireStatus::kDeadlineExceeded: return "DeadlineExceeded";
    case WireStatus::kRateLimited: return "RateLimited";
    case WireStatus::kOverQuota: return "OverQuota";
    case WireStatus::kQueueFull: return "QueueFull";
    case WireStatus::kShuttingDown: return "ShuttingDown";
    case WireStatus::kOverloaded: return "Overloaded";
    case WireStatus::kUnavailable: return "Unavailable";
  }
  return "Unknown";
}

bool IsRetryableWireStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kDeadlineExceeded:
    case WireStatus::kRateLimited:
    case WireStatus::kOverQuota:
    case WireStatus::kQueueFull:
    case WireStatus::kShuttingDown:
    case WireStatus::kOverloaded:
    case WireStatus::kUnavailable:
      return true;
    default:
      return false;
  }
}

WireStatus WireStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return WireStatus::kOk;
    case StatusCode::kInvalidArgument: return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound: return WireStatus::kNotFound;
    case StatusCode::kIOError: return WireStatus::kIOError;
    case StatusCode::kNotConverged: return WireStatus::kNotConverged;
    case StatusCode::kInfeasible: return WireStatus::kInfeasible;
    case StatusCode::kInternal: return WireStatus::kInternal;
    case StatusCode::kUnavailable: return WireStatus::kUnavailable;
  }
  return WireStatus::kInternal;
}

Status StatusFromWire(WireStatus status, const std::string& message) {
  switch (status) {
    case WireStatus::kOk: return Status::OK();
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kNotFound: return Status::NotFound(message);
    case WireStatus::kIOError: return Status::IOError(message);
    case WireStatus::kNotConverged: return Status::NotConverged(message);
    case WireStatus::kInfeasible: return Status::Infeasible(message);
    case WireStatus::kInternal: return Status::Internal(message);
    // Protocol errors: the peer rejected the bytes we sent.
    case WireStatus::kMalformedFrame:
    case WireStatus::kVersionMismatch:
    case WireStatus::kUnknownVerb:
    case WireStatus::kDecodeError:
      return Status::InvalidArgument(std::string(WireStatusName(status)) +
                                     ": " + message);
    // Scheduling / admission rejections: retryable by design, so they
    // come back as kUnavailable (the retryable client category).
    case WireStatus::kDeadlineExceeded:
    case WireStatus::kRateLimited:
    case WireStatus::kOverQuota:
    case WireStatus::kQueueFull:
    case WireStatus::kShuttingDown:
    case WireStatus::kOverloaded:
    case WireStatus::kUnavailable:
      return Status::Unavailable(std::string(WireStatusName(status)) + ": " +
                                 message);
  }
  return Status::Internal(message);
}

namespace {

void PutU16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64(std::uint8_t* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t GetU64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         (static_cast<std::uint64_t>(GetU32(in + 4)) << 32);
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header, std::uint8_t* out) {
  PutU32(out, kWireMagic);
  PutU16(out + 4, header.version);
  PutU16(out + 6, static_cast<std::uint16_t>(header.verb));
  PutU64(out + 8, header.request_id);
  PutU32(out + 16, static_cast<std::uint32_t>(header.priority));
  PutU32(out + 20, header.deadline_ms);
  PutU32(out + 24, header.payload_len);
}

Status DecodeFrameHeader(const std::uint8_t* data, FrameHeader* out) {
  if (GetU32(data) != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  out->version = GetU16(data + 4);
  out->verb = static_cast<Verb>(GetU16(data + 6));
  out->request_id = GetU64(data + 8);
  out->priority = static_cast<std::int32_t>(GetU32(data + 16));
  out->deadline_ms = GetU32(data + 20);
  out->payload_len = GetU32(data + 24);
  if (out->payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrFormat("frame payload of %u bytes exceeds the %u-byte cap",
                  out->payload_len, kMaxPayloadBytes));
  }
  return Status::OK();
}

void WireWriter::U16(std::uint16_t v) {
  std::uint8_t b[2];
  PutU16(b, v);
  buf_.insert(buf_.end(), b, b + 2);
}

void WireWriter::U32(std::uint32_t v) {
  std::uint8_t b[4];
  PutU32(b, v);
  buf_.insert(buf_.end(), b, b + 4);
}

void WireWriter::U64(std::uint64_t v) {
  std::uint8_t b[8];
  PutU64(b, v);
  buf_.insert(buf_.end(), b, b + 8);
}

void WireWriter::F64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::Bytes(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

// A little-endian host stores a double as exactly the bytes F64 writes,
// so whole arrays cross the wire with one copy; any other host converts
// element by element. Chosen at compile time.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define BLINKML_WIRE_DOUBLES_BULK 1
#else
#define BLINKML_WIRE_DOUBLES_BULK 0
#endif

void WireWriter::Doubles(const double* data, std::size_t count) {
  // An empty array's data() may be null, and copying from a null pointer
  // is undefined even for zero bytes.
  if (count == 0) return;
#if BLINKML_WIRE_DOUBLES_BULK
  // One growth and one copy of the array's bytes.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + count * sizeof(double));
#else
  for (std::size_t i = 0; i < count; ++i) F64(data[i]);
#endif
}

bool WireReader::Need(std::size_t n) {
  if (failed_ || size_ - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t WireReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t WireReader::U16() {
  if (!Need(2)) return 0;
  const std::uint16_t v = GetU16(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::U32() {
  if (!Need(4)) return 0;
  const std::uint32_t v = GetU32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::U64() {
  if (!Need(8)) return 0;
  const std::uint64_t v = GetU64(data_ + pos_);
  pos_ += 8;
  return v;
}

double WireReader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const std::uint32_t len = U32();
  if (!Need(len)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

void WireReader::Doubles(std::size_t count, std::vector<double>* out) {
  // Guard the resize: a corrupted count must not allocate gigabytes
  // before the bounds check fails. Divide instead of multiplying —
  // count * 8 can wrap for adversarial counts and slip past Need().
  if (failed_ || count > remaining() / sizeof(double)) {
    failed_ = true;
    return;
  }
  out->resize(count);
  if (count == 0) return;
#if BLINKML_WIRE_DOUBLES_BULK
  std::memcpy(out->data(), data_ + pos_, count * sizeof(double));
  pos_ += count * sizeof(double);
#else
  for (std::size_t i = 0; i < count; ++i) (*out)[i] = F64();
#endif
}

namespace {

/// Drops the first `bytes` bytes from an iovec array (a partial send).
void AdvanceIovecs(iovec** iov, int* iov_count, std::size_t bytes) {
  while (*iov_count > 0 && bytes >= (*iov)->iov_len) {
    bytes -= (*iov)->iov_len;
    ++*iov;
    --*iov_count;
  }
  if (*iov_count > 0) {
    (*iov)->iov_base = static_cast<std::uint8_t*>((*iov)->iov_base) + bytes;
    (*iov)->iov_len -= bytes;
  }
}

/// Sends every byte the iovecs hold, resuming after partial sends.
/// Consumes `iov`. Meant for blocking sockets: on a non-blocking one, a
/// full send buffer fails the write (EAGAIN) mid-frame.
Status WriteAll(int fd, iovec* iov, int iov_count) {
  while (iov_count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    // sendmsg + MSG_NOSIGNAL, not writev: a peer that closed mid-response
    // must surface as EPIPE, not a process-killing SIGPIPE (the fds here
    // are always sockets).
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("send: %s", std::strerror(errno)));
    }
    AdvanceIovecs(&iov, &iov_count, static_cast<std::size_t>(n));
  }
  return Status::OK();
}

Status ReadAll(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, data + done, size - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv: %s", std::strerror(errno)));
    }
    if (n == 0) return Status::IOError("connection closed by peer");
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, const FrameHeader& header,
                  const std::uint8_t* payload, std::size_t payload_len) {
  // Header and payload leave in one gathered write, without first being
  // copied into one buffer.
  std::uint8_t header_bytes[kFrameHeaderBytes];
  FrameHeader h = header;
  h.payload_len = static_cast<std::uint32_t>(payload_len);
  EncodeFrameHeader(h, header_bytes);
  iovec iov[2] = {{header_bytes, kFrameHeaderBytes},
                  {const_cast<std::uint8_t*>(payload), payload_len}};
  return WriteAll(fd, iov, 2);
}

Status ReadFrame(int fd, Frame* out) {
  std::uint8_t header_bytes[kFrameHeaderBytes];
  BLINKML_RETURN_NOT_OK(ReadAll(fd, header_bytes, kFrameHeaderBytes));
  BLINKML_RETURN_NOT_OK(DecodeFrameHeader(header_bytes, &out->header));
  out->payload.resize(out->header.payload_len);
  if (out->header.payload_len > 0) {
    BLINKML_RETURN_NOT_OK(
        ReadAll(fd, out->payload.data(), out->payload.size()));
  }
  return Status::OK();
}

Result<int> DialUnix(const std::string& path, bool non_blocking) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("unix socket path too long: %s", path.c_str()));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // A non-blocking Unix-domain connect never waits: it completes at once
  // or fails (EAGAIN when the listener's backlog is full).
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | (non_blocking ? SOCK_NONBLOCK : 0), 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(
        StrFormat("connect(%s): %s", path.c_str(), std::strerror(err)));
  }
  return fd;
}

}  // namespace net
}  // namespace blinkml
