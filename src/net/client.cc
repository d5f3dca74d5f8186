#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace blinkml {
namespace net {

namespace {

/// SplitMix64: the backoff jitter's deterministic hash. Same
/// (request_id, attempt) -> same jitter, so a chaos run's timing is a
/// pure function of the schedule, never of a clock or global RNG.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Result<BlinkClient> BlinkClient::ConnectUnix(const std::string& path) {
  BLINKML_ASSIGN_OR_RETURN(const int fd, DialUnix(path));
  Endpoint endpoint;
  endpoint.is_unix = true;
  endpoint.unix_path = path;
  return BlinkClient(fd, std::move(endpoint));
}

Result<BlinkClient> BlinkClient::ConnectTcp(const std::string& host,
                                            int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad host address: %s", host.c_str()));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", ::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const Status status = Status::IOError(StrFormat(
        "connect(%s:%d): %s", host.c_str(), port, ::strerror(errno)));
    ::close(fd);
    return status;
  }
  Endpoint endpoint;
  endpoint.host = host;
  endpoint.port = port;
  return BlinkClient(fd, std::move(endpoint));
}

namespace {

template <typename ConnectFn>
Result<BlinkClient> ConnectWithRetry(int attempts, std::uint32_t backoff_ms,
                                     ConnectFn connect) {
  Status last = Status::IOError("connect: no attempts made");
  for (int attempt = 0; attempt < std::max(1, attempts); ++attempt) {
    if (attempt > 0 && backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    Result<BlinkClient> client = connect();
    if (client.ok()) return client;
    last = client.status();
  }
  return last;
}

}  // namespace

Result<BlinkClient> BlinkClient::ConnectUnixRetry(const std::string& path,
                                                  int attempts,
                                                  std::uint32_t backoff_ms) {
  return ConnectWithRetry(attempts, backoff_ms,
                          [&] { return ConnectUnix(path); });
}

Result<BlinkClient> BlinkClient::ConnectTcpRetry(const std::string& host,
                                                 int port, int attempts,
                                                 std::uint32_t backoff_ms) {
  return ConnectWithRetry(attempts, backoff_ms,
                          [&] { return ConnectTcp(host, port); });
}

BlinkClient::BlinkClient(BlinkClient&& other) noexcept
    : fd_(other.fd_),
      endpoint_(std::move(other.endpoint_)),
      recv_timeout_ms_(other.recv_timeout_ms_),
      next_request_id_(other.next_request_id_),
      last_retry_after_ms_(other.last_retry_after_ms_),
      last_wire_status_(other.last_wire_status_),
      retry_policy_(other.retry_policy_),
      retry_stats_(other.retry_stats_) {
  other.fd_ = -1;
}

BlinkClient& BlinkClient::operator=(BlinkClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    recv_timeout_ms_ = other.recv_timeout_ms_;
    next_request_id_ = other.next_request_id_;
    last_retry_after_ms_ = other.last_retry_after_ms_;
    last_wire_status_ = other.last_wire_status_;
    retry_policy_ = other.retry_policy_;
    retry_stats_ = other.retry_stats_;
    other.fd_ = -1;
  }
  return *this;
}

BlinkClient::~BlinkClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status BlinkClient::Reconnect() {
  Result<BlinkClient> fresh =
      endpoint_.is_unix ? ConnectUnix(endpoint_.unix_path)
                        : ConnectTcp(endpoint_.host, endpoint_.port);
  BLINKML_RETURN_NOT_OK(fresh.status());
  if (fd_ >= 0) ::close(fd_);
  fd_ = fresh->fd_;
  fresh->fd_ = -1;
  return ApplyRecvTimeout();
}

Status BlinkClient::ApplyRecvTimeout() {
  if (fd_ < 0 || recv_timeout_ms_ <= 0) return Status::OK();
  timeval tv{};
  tv.tv_sec = recv_timeout_ms_ / 1000;
  tv.tv_usec = (recv_timeout_ms_ % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    return Status::IOError(
        StrFormat("setsockopt(SO_RCVTIMEO): %s", ::strerror(errno)));
  }
  return Status::OK();
}

Status BlinkClient::set_recv_timeout_ms(int timeout_ms) {
  if (timeout_ms < 0) {
    return Status::InvalidArgument("recv timeout must be >= 0");
  }
  recv_timeout_ms_ = timeout_ms;
  return ApplyRecvTimeout();
}

Status BlinkClient::Call(Verb verb, const WireWriter& payload,
                         CallOptions options,
                         std::vector<std::uint8_t>* body) {
  last_retry_after_ms_ = 0;
  last_wire_status_ = WireStatus::kOk;
  // All attempts reuse one request id: a retry is the SAME logical call,
  // and bitwise-deterministic execution makes the duplicate safe.
  const std::uint64_t request_id = next_request_id_++;
  std::uint32_t backoff_ms = retry_policy_.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    bool transport_error = false;
    const Status status =
        CallOnce(request_id, verb, payload, options, body, &transport_error);
    if (status.ok()) {
      last_retry_after_ms_ = 0;
      return status;
    }
    const bool retryable = transport_error
                               ? retry_policy_.reconnect
                               : IsRetryableWireStatus(last_wire_status_);
    if (!retryable || attempt >= retry_policy_.max_attempts) return status;
    const std::uint32_t hint = last_retry_after_ms_;
    if (transport_error) {
      // If the endpoint itself is gone the original error is the more
      // useful one to surface.
      if (!Reconnect().ok()) return status;
      ++retry_stats_.reconnects;
    }
    const std::uint32_t jitter =
        backoff_ms == 0
            ? 0
            : static_cast<std::uint32_t>(
                  SplitMix64(request_id * 0x2545F4914F6CDD1Dull +
                             static_cast<std::uint64_t>(attempt)) %
                  (backoff_ms / 2 + 1));
    const std::uint32_t sleep_ms = std::max(backoff_ms + jitter, hint);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    backoff_ms = std::min(std::max<std::uint32_t>(backoff_ms, 1) * 2,
                          retry_policy_.max_backoff_ms);
    ++retry_stats_.retries;
  }
}

Status BlinkClient::CallOnce(std::uint64_t request_id, Verb verb,
                             const WireWriter& payload, CallOptions options,
                             std::vector<std::uint8_t>* body,
                             bool* transport_error) {
  *transport_error = false;
  if (fd_ < 0) {
    *transport_error = true;
    return Status::IOError("client is not connected");
  }

  FrameHeader header;
  header.verb = verb;
  header.request_id = request_id;
  header.priority = options.priority;
  header.deadline_ms = options.deadline_ms;
  Status status = WriteFrame(fd_, header, payload.bytes().data(),
                             payload.bytes().size());
  if (!status.ok()) {
    *transport_error = true;
    return status;
  }

  Frame response;
  status = ReadFrame(fd_, &response);
  if (!status.ok()) {
    *transport_error = true;
    return status;
  }
  if (response.header.request_id != request_id) {
    *transport_error = true;
    return Status::IOError(StrFormat(
        "response id %llu does not match request id %llu (stream "
        "desynchronized)",
        static_cast<unsigned long long>(response.header.request_id),
        static_cast<unsigned long long>(request_id)));
  }

  WireReader reader(response.payload.data(), response.payload.size());
  ResponseEnvelope envelope;
  status = Decode(&reader, &envelope);
  if (!status.ok()) {
    *transport_error = true;
    return status;
  }
  if (envelope.status != WireStatus::kOk) {
    last_wire_status_ = envelope.status;
    last_retry_after_ms_ = envelope.retry_after_ms;
    return StatusFromWire(envelope.status, envelope.message);
  }
  body->assign(response.payload.end() -
                   static_cast<std::ptrdiff_t>(reader.remaining()),
               response.payload.end());
  return Status::OK();
}

template <typename Response>
Result<Response> BlinkClient::TypedCall(Verb verb, const WireWriter& payload,
                                        CallOptions options) {
  std::vector<std::uint8_t> body;
  BLINKML_RETURN_NOT_OK(Call(verb, payload, options, &body));
  WireReader reader(body.data(), body.size());
  Response response;
  BLINKML_RETURN_NOT_OK(Decode(&reader, &response));
  return response;
}

Result<RegisterDatasetResponse> BlinkClient::RegisterDataset(
    const RegisterDatasetRequest& request, CallOptions options) {
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<RegisterDatasetResponse>(Verb::kRegisterDataset, payload,
                                            options);
}

Result<TrainResponseWire> BlinkClient::Train(const TrainRequestWire& request,
                                             CallOptions options) {
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<TrainResponseWire>(Verb::kTrain, payload, options);
}

Result<SearchResponseWire> BlinkClient::Search(
    const SearchRequestWire& request, CallOptions options) {
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<SearchResponseWire>(Verb::kSearch, payload, options);
}

Result<PredictResponseWire> BlinkClient::Predict(
    const PredictRequestWire& request, CallOptions options) {
  WireWriter payload;
  BLINKML_RETURN_NOT_OK(Encode(request, &payload));
  return TypedCall<PredictResponseWire>(Verb::kPredict, payload, options);
}

Result<StatsResponseWire> BlinkClient::Stats(const std::string& tenant,
                                             CallOptions options) {
  StatsRequestWire request;
  request.tenant = tenant;
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<StatsResponseWire>(Verb::kStats, payload, options);
}

Result<EvictIdleResponseWire> BlinkClient::EvictIdle(
    const std::string& tenant, CallOptions options) {
  EvictIdleRequestWire request;
  request.tenant = tenant;
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<EvictIdleResponseWire>(Verb::kEvictIdle, payload, options);
}

Result<MetricsResponseWire> BlinkClient::Metrics(const std::string& tenant,
                                                 CallOptions options) {
  MetricsRequestWire request;
  request.tenant = tenant;
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<MetricsResponseWire>(Verb::kMetrics, payload, options);
}

Result<HealthResponseWire> BlinkClient::Health(const std::string& tenant,
                                               CallOptions options) {
  HealthRequestWire request;
  request.tenant = tenant;
  WireWriter payload;
  Encode(request, &payload);
  return TypedCall<HealthResponseWire>(Verb::kHealth, payload, options);
}

}  // namespace net
}  // namespace blinkml
