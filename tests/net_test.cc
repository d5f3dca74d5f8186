// Networked serving front (src/net/): a Train/Search/Predict round trip
// through the socket must be bitwise identical to the same SessionManager
// call in-process at any server runner-thread count; malformed frames
// must be answered with error frames without killing the server;
// deadline-expired and over-quota requests must be rejected with their
// distinct statuses without disturbing concurrent jobs. The connection
// core's overload and failure-containment tests run against both fronts
// that share it (BlinkServer and ShardRouter).

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "util/failpoints.h"
#include "net/codec.h"
#include "net/job_queue.h"
#include "net/protocol.h"
#include "net/quotas.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "shard/router.h"
#include "tests/test_util.h"

namespace blinkml {
namespace net {
namespace {

std::string SocketPath(const char* tag) {
  return ::testing::TempDir() + "blinkml_net_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

WireConfig FastWireConfig(std::uint64_t seed) {
  WireConfig config;
  config.seed = seed;
  config.initial_sample_size = 1000;
  config.holdout_size = 1000;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  return config;
}

RegisterDatasetRequest LogisticRegistration(const std::string& tenant,
                                            const std::string& name) {
  RegisterDatasetRequest request;
  request.tenant = tenant;
  request.name = name;
  request.generator = WireGenerator::kSyntheticLogistic;
  request.rows = 4000;
  request.dim = 5;
  request.data_seed = 3;
  request.config = FastWireConfig(11);
  return request;
}

void ExpectModelBitwise(const TrainedModel& a, const TrainedModel& b,
                        const char* what) {
  ASSERT_EQ(a.theta.size(), b.theta.size()) << what;
  for (Vector::Index i = 0; i < a.theta.size(); ++i) {
    EXPECT_EQ(a.theta[i], b.theta[i]) << what << " theta[" << i << "]";
  }
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.sample_size, b.sample_size) << what;
}

// --- Round trips -------------------------------------------------------

// The acceptance bar: a Train + Predict through the socket must return the
// exact bits the in-process SessionManager produces, at 1/2/8 server
// runner threads.
TEST(BlinkServer, TrainPredictRoundTripBitwiseAtAnyRunnerThreadCount) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("tenant-a", "wire-logistic");

  // In-process reference: same factory, same config, same request.
  SessionManager reference;
  ASSERT_TRUE(reference
                  .RegisterDataset(
                      registration.name,
                      [registration] {
                        return std::move(*MakeWireDataset(registration));
                      },
                      ToBlinkConfig(registration.config))
                  .ok());
  TrainRequest reference_train;
  reference_train.dataset = registration.name;
  reference_train.spec = *MakeSpecByName("LogisticRegression", 1e-3);
  reference_train.contract = {0.01, 0.05};
  const auto reference_result = reference.Train(reference_train);
  ASSERT_TRUE(reference_result.ok())
      << reference_result.status().ToString();

  // Reference predictions on a deterministic probe matrix.
  const Dataset probe_data = *MakeWireDataset(registration);
  const Dataset::Index probe_rows = 16;
  std::vector<double> probe(static_cast<std::size_t>(probe_rows) * 5);
  for (Dataset::Index r = 0; r < probe_rows; ++r) {
    for (Dataset::Index c = 0; c < 5; ++c) {
      probe[static_cast<std::size_t>(r * 5 + c)] =
          probe_data.dense()(r, c);
    }
  }

  for (const int threads : {1, 2, 8}) {
    SessionManager manager(ServeOptions{0, threads});
    ServerOptions options;
    options.unix_path = SocketPath("roundtrip");
    options.runner_threads = threads;
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());

    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    const auto registered = client->RegisterDataset(registration);
    ASSERT_TRUE(registered.ok()) << registered.status().ToString();
    EXPECT_EQ(registered->dataset_bytes, probe_data.MemoryBytes());

    TrainRequestWire train;
    train.tenant = "tenant-a";
    train.dataset = registration.name;
    train.model_class = "LogisticRegression";
    train.l2 = 1e-3;
    train.epsilon = 0.01;
    train.delta = 0.05;
    const auto trained = client->Train(train);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();

    ExpectModelBitwise(trained->model, reference_result->model,
                       "served train");
    EXPECT_EQ(trained->sample_size, reference_result->sample_size);
    EXPECT_EQ(trained->full_size, reference_result->full_size);
    EXPECT_EQ(trained->initial_epsilon, reference_result->initial_epsilon);
    EXPECT_EQ(trained->final_epsilon, reference_result->final_epsilon);
    EXPECT_EQ(trained->used_initial_only,
              reference_result->used_initial_only);
    EXPECT_EQ(trained->contract_satisfied,
              reference_result->contract_satisfied);
    EXPECT_EQ(trained->initial_iterations,
              reference_result->initial_iterations);
    EXPECT_EQ(trained->final_iterations,
              reference_result->final_iterations);

    // Ship the served model straight back for predictions; compare with
    // the spec's in-process Predict on the same rows.
    PredictRequestWire predict;
    predict.tenant = "tenant-a";
    predict.model_class = "LogisticRegression";
    predict.model = trained->model;
    predict.rows = probe_rows;
    predict.dim = 5;
    predict.features = probe;
    const auto predicted = client->Predict(predict);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

    Matrix probe_matrix(probe_rows, 5);
    std::memcpy(probe_matrix.data(), probe.data(),
                probe.size() * sizeof(double));
    const Dataset probe_set(std::move(probe_matrix), Vector(probe_rows),
                            Task::kBinary);
    Vector expected;
    (*MakeSpecByName("LogisticRegression", 1e-3))
        ->Predict(reference_result->model.theta, probe_set, &expected);
    ASSERT_EQ(predicted->predictions.size(),
              static_cast<std::size_t>(expected.size()));
    for (Vector::Index i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(predicted->predictions[static_cast<std::size_t>(i)],
                expected[i])
          << "prediction " << i << " at " << threads << " threads";
    }

    server.Stop();
  }
}

// What RunServedCalls got back from one front.
struct ServedCalls {
  TrainResponseWire trained;
  PredictResponseWire predicted;
  HealthResponseWire health;
};

// RegisterDataset, Train, Predict (of the served model on 16 rows of the
// registered data) and Health through `client`.
void RunServedCalls(BlinkClient* client, ServedCalls* out) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("tenant-a", "wire-logistic");
  const auto registered = client->RegisterDataset(registration);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();

  TrainRequestWire train;
  train.tenant = "tenant-a";
  train.dataset = registration.name;
  train.model_class = "LogisticRegression";
  train.l2 = 1e-3;
  train.epsilon = 0.01;
  train.delta = 0.05;
  const auto trained = client->Train(train);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  out->trained = *trained;

  const Dataset data = *MakeWireDataset(registration);
  PredictRequestWire predict;
  predict.tenant = "tenant-a";
  predict.model_class = "LogisticRegression";
  predict.model = trained->model;
  predict.rows = 16;
  predict.dim = data.dim();
  for (Dataset::Index r = 0; r < predict.rows; ++r) {
    for (Dataset::Index c = 0; c < data.dim(); ++c) {
      predict.features.push_back(data.dense()(r, c));
    }
  }
  const auto predicted = client->Predict(predict);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  out->predicted = *predicted;

  const auto health = client->Health("tenant-a");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  out->health = *health;
}

// Every other front in these suites listens on a Unix socket. A front
// whose unix_path is empty listens on TCP host:port instead; on
// 127.0.0.1 with port 0 (an ephemeral port, read back through port()) it
// must answer ConnectTcpRetry's calls with a Unix-socket server's bits.
TEST(BlinkServer, TcpListenerAnswersWithTheUnixSocketBits) {
  ServedCalls over_unix, over_tcp;
  {
    SessionManager manager;
    ServerOptions options;
    options.unix_path = SocketPath("tcp_reference");
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());
    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_NO_FATAL_FAILURE(RunServedCalls(&*client, &over_unix));
    server.Stop();
  }
  {
    SessionManager manager;
    ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_GT(server.port(), 0);
    auto client = BlinkClient::ConnectTcpRetry("127.0.0.1", server.port(),
                                               /*attempts=*/50,
                                               /*backoff_ms=*/10);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_NO_FATAL_FAILURE(RunServedCalls(&*client, &over_tcp));
    server.Stop();
  }

  ExpectModelBitwise(over_tcp.trained.model, over_unix.trained.model,
                     "train over TCP");
  EXPECT_EQ(over_tcp.trained.sample_size, over_unix.trained.sample_size);
  EXPECT_EQ(over_tcp.trained.full_size, over_unix.trained.full_size);
  EXPECT_EQ(over_tcp.trained.initial_epsilon,
            over_unix.trained.initial_epsilon);
  EXPECT_EQ(over_tcp.trained.final_epsilon, over_unix.trained.final_epsilon);
  EXPECT_EQ(over_tcp.trained.contract_satisfied,
            over_unix.trained.contract_satisfied);
  ASSERT_EQ(over_tcp.predicted.predictions.size(), 16u);
  EXPECT_EQ(over_tcp.predicted.predictions, over_unix.predicted.predictions);
  EXPECT_TRUE(over_tcp.health.accepting);
  EXPECT_EQ(over_tcp.health.open_connections, 1);
  EXPECT_EQ(over_tcp.health.open_connections,
            over_unix.health.open_connections);
}

TEST(BlinkServer, SearchRoundTripBitwise) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("tenant-s", "wire-search");

  SessionManager reference;
  ASSERT_TRUE(reference
                  .RegisterDataset(
                      registration.name,
                      [registration] {
                        return std::move(*MakeWireDataset(registration));
                      },
                      ToBlinkConfig(registration.config))
                  .ok());
  SearchRequest reference_search;
  reference_search.dataset = registration.name;
  reference_search.factory = [](const Candidate& c) {
    return *MakeSpecByName("LogisticRegression", c.l2);
  };
  reference_search.candidates = HyperparamSearch::LogGrid(1e-4, 1e-1, 3);
  reference_search.options.contract = {0.01, 0.05};
  const auto reference_outcome = reference.Search(reference_search);
  ASSERT_TRUE(reference_outcome.ok());

  SessionManager manager(ServeOptions{0, 2});
  ServerOptions options;
  options.unix_path = SocketPath("search");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(registration).ok());

  SearchRequestWire search;
  search.tenant = "tenant-s";
  search.dataset = registration.name;
  search.model_class = "LogisticRegression";
  for (const Candidate& c : reference_search.candidates) {
    search.candidates.push_back({c.l2, c.seed});
  }
  search.epsilon = 0.01;
  search.delta = 0.05;
  const auto outcome = client->Search(search);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  EXPECT_EQ(outcome->best_index, reference_outcome->best_index);
  ASSERT_EQ(outcome->candidates.size(),
            reference_outcome->candidates.size());
  for (std::size_t i = 0; i < outcome->candidates.size(); ++i) {
    const auto& served = outcome->candidates[i];
    const auto& expected = reference_outcome->candidates[i];
    ASSERT_EQ(served.status == WireStatus::kOk, expected.status.ok());
    EXPECT_EQ(served.l2, expected.candidate.l2);
    EXPECT_EQ(served.score, expected.score);
    EXPECT_EQ(served.final_epsilon, expected.result.final_epsilon);
    EXPECT_EQ(served.sample_size, expected.result.sample_size);
    ExpectModelBitwise(served.model, expected.result.model, "search");
  }
}

// --- Codec -------------------------------------------------------------

// A quiet NaN whose payload has its lowest bit set: a codec that
// canonicalizes NaNs (or parses text) loses that bit.
double NanWithPayload() {
  const std::uint64_t bits = 0x7FF8000000000001ull;
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ExpectSameBits(const double* a, const double* b, std::size_t count,
                    const char* what) {
  EXPECT_EQ(count == 0 ? 0 : std::memcmp(a, b, count * sizeof(double)), 0)
      << what;
}

void ExpectModelBits(const TrainedModel& sent, const TrainedModel& got,
                     const char* what) {
  ExpectSameBits(&sent.objective, &got.objective, 1, what);
  EXPECT_EQ(sent.iterations, got.iterations) << what;
  EXPECT_EQ(sent.converged, got.converged) << what;
  EXPECT_EQ(sent.sample_size, got.sample_size) << what;
  ASSERT_EQ(sent.theta.size(), got.theta.size()) << what;
  ExpectSameBits(sent.theta.data(), got.theta.data(),
                 static_cast<std::size_t>(sent.theta.size()), what);
}

template <typename Wire>
Wire EncodeDecode(const Wire& sent) {
  WireWriter writer;
  const Status encoded = Encode(sent, &writer);
  EXPECT_TRUE(encoded.ok()) << encoded.ToString();
  const std::vector<std::uint8_t> bytes = writer.Take();
  WireReader reader(bytes.data(), bytes.size());
  Wire got;
  const Status decoded = Decode(&reader, &got);
  EXPECT_TRUE(decoded.ok()) << decoded.ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  return got;
}

// Every double in a model must cross the wire as its bits, including the
// ones a trainer can really produce at the edges: a diverged objective,
// NaN and infinite parameters, a signed zero and a subnormal.
TEST(Codec, NonFiniteModelDoublesRoundTripBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  TrainedModel model;
  model.objective = inf;
  model.iterations = 17;
  model.converged = false;
  model.sample_size = 1234;
  model.theta = Vector{NanWithPayload(), -inf, -0.0, 4.9e-324};

  TrainResponseWire train;
  train.model_class = "LogisticRegression";
  train.model = model;
  const TrainResponseWire train_got = EncodeDecode(train);
  EXPECT_EQ(train_got.model_class, train.model_class);
  ExpectModelBits(model, train_got.model, "train");

  SearchResponseWire search;
  search.best_index = 0;
  search.candidates.resize(1);
  search.candidates[0].model = model;
  const SearchResponseWire search_got = EncodeDecode(search);
  ASSERT_EQ(search_got.candidates.size(), 1u);
  ExpectModelBits(model, search_got.candidates[0].model, "search");

  PredictRequestWire predict;
  predict.tenant = "t";
  predict.model_class = "LogisticRegression";
  predict.model = model;
  predict.rows = 1;
  predict.dim = 3;
  predict.features = {inf, NanWithPayload(), -0.0};
  const PredictRequestWire predict_got = EncodeDecode(predict);
  EXPECT_EQ(predict_got.model_class, predict.model_class);
  ExpectModelBits(model, predict_got.model, "predict");
  ASSERT_EQ(predict_got.features.size(), predict.features.size());
  ExpectSameBits(predict.features.data(), predict_got.features.data(),
                 predict.features.size(), "predict features");
}

// --- Malformed input ---------------------------------------------------

class RawConnection {
 public:
  /// `rcvbuf` > 0 shrinks the socket's receive buffer before connecting.
  explicit RawConnection(const std::string& path, int rcvbuf = 0) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void SendRaw(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one response frame and returns its envelope.
  ResponseEnvelope ReadEnvelope(std::uint64_t* request_id = nullptr) {
    Frame frame;
    const Status status = ReadFrame(fd_, &frame);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ResponseEnvelope envelope;
    if (status.ok()) {
      WireReader reader(frame.payload.data(), frame.payload.size());
      EXPECT_TRUE(Decode(&reader, &envelope).ok());
      if (request_id != nullptr) *request_id = frame.header.request_id;
    }
    return envelope;
  }

  /// True when the server closed its end (EOF within the deadline).
  bool WaitForClose() {
    std::uint8_t byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> FrameBytes(const FrameHeader& header,
                                     const std::vector<std::uint8_t>& payload,
                                     bool fix_len = true) {
  FrameHeader h = header;
  if (fix_len) h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(h, bytes.data());
  std::memcpy(bytes.data() + kFrameHeaderBytes, payload.data(),
              payload.size());
  return bytes;
}

std::vector<std::uint8_t> StatsPayload(const std::string& tenant) {
  StatsRequestWire request;
  request.tenant = tenant;
  WireWriter writer;
  Encode(request, &writer);
  return writer.bytes();
}

std::vector<std::uint8_t> HealthPayload(const std::string& tenant) {
  HealthRequestWire request;
  request.tenant = tenant;
  WireWriter writer;
  Encode(request, &writer);
  return writer.bytes();
}

// --- Both fronts --------------------------------------------------------

// A front under test, started from FrontOptions: BlinkServer over an
// in-process SessionManager, or ShardRouter over one worker process.
// `hold_failpoints` arms the failpoints that hold a Train job: in this
// process for the server, in the worker for the router.
class ServerFront {
 public:
  static constexpr const char* kName = "BlinkServer";

  explicit ServerFront(const FrontOptions& front,
                       const std::string& hold_failpoints = "")
      : hold_failpoints_(hold_failpoints) {
    ServerOptions options;
    static_cast<FrontOptions&>(options) = front;
    server_ = std::make_unique<BlinkServer>(&manager_, options);
  }

  Status Start() {
    if (!hold_failpoints_.empty()) {
      BLINKML_RETURN_NOT_OK(
          fail::Failpoints::Global().ArmFromSpec(hold_failpoints_));
    }
    return server_->Start();
  }

 private:
  const std::string hold_failpoints_;
  SessionManager manager_;
  std::unique_ptr<BlinkServer> server_;
};

class RouterFront {
 public:
  static constexpr const char* kName = "ShardRouter";

  explicit RouterFront(const FrontOptions& front,
                       const std::string& hold_failpoints = "") {
    static int instance = 0;
    shard::RouterOptions options;
    static_cast<FrontOptions&>(options) = front;
    options.num_shards = 1;
    options.worker.socket_dir = "/tmp";
    options.worker.socket_prefix = "blinkml_nf_" +
                                   std::to_string(::getpid()) + "_" +
                                   std::to_string(instance++);
    options.worker.inherit_env_failpoints = false;
    options.worker.worker_failpoints = hold_failpoints;
    router_ = std::make_unique<shard::ShardRouter>(options);
  }

  Status Start() { return router_->Start(); }

 private:
  std::unique_ptr<shard::ShardRouter> router_;
};

template <typename FrontT>
class Front : public ::testing::Test {};

struct FrontName {
  template <typename FrontT>
  static std::string GetName(int) {
    return FrontT::kName;
  }
};
using Fronts = ::testing::Types<ServerFront, RouterFront>;
TYPED_TEST_SUITE(Front, Fronts, FrontName);

TYPED_TEST(Front, MalformedFramesAnswerErrorsAndServerStaysUp) {
  FrontOptions options;
  options.unix_path = SocketPath("malformed");
  TypeParam server(options);
  ASSERT_TRUE(server.Start().ok());

  // Bad magic: unsynchronizable -> error frame, then the connection
  // closes.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = Verb::kStats;
    header.request_id = 7;
    std::vector<std::uint8_t> bytes =
        FrameBytes(header, StatsPayload("raw"));
    bytes[0] ^= 0xFF;
    conn.SendRaw(bytes);
    const ResponseEnvelope envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kMalformedFrame);
    EXPECT_TRUE(conn.WaitForClose());
  }

  // Oversized payload length: also framing corruption.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = Verb::kStats;
    header.payload_len = kMaxPayloadBytes + 1;
    std::vector<std::uint8_t> bytes(kFrameHeaderBytes);
    EncodeFrameHeader(header, bytes.data());
    conn.SendRaw(bytes);
    const ResponseEnvelope envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kMalformedFrame);
    EXPECT_TRUE(conn.WaitForClose());
  }

  // Truncated header + hangup: nothing to answer; the server must just
  // reap the connection.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    conn.SendRaw({0x4B, 0x4E, 0x4C});
  }

  // Unknown verb: in-frame error; the SAME connection keeps working.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = static_cast<Verb>(99);
    header.request_id = 21;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    std::uint64_t echoed = 0;
    ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kUnknownVerb);
    EXPECT_EQ(echoed, 21u);

    header.verb = Verb::kStats;
    header.request_id = 22;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kOk);
    EXPECT_EQ(echoed, 22u);
  }

  // Version mismatch: error frame with the request id echoed; connection
  // stays alive.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.version = kWireVersion + 1;
    header.verb = Verb::kStats;
    header.request_id = 33;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    std::uint64_t echoed = 0;
    ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kVersionMismatch);
    EXPECT_EQ(echoed, 33u);

    header.version = kWireVersion;
    header.request_id = 34;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kOk);
  }

  // Undecodable payload (tenant peek fails): kDecodeError, alive.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = Verb::kTrain;
    header.request_id = 40;
    conn.SendRaw(FrameBytes(header, {0x01, 0x02}));
    ResponseEnvelope envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kDecodeError);

    header.verb = Verb::kStats;
    header.request_id = 41;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kOk);
  }

  // After all of that abuse, a fresh client still gets full service, and
  // the counters saw every rejection.
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto stats = client->Stats("raw");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->server.rejected_malformed, 2u);
  EXPECT_EQ(stats->server.rejected_unknown_verb, 1u);
  EXPECT_EQ(stats->server.rejected_version, 1u);
  EXPECT_EQ(stats->server.rejected_decode, 1u);
}

// A Predict whose rows * dim wraps 64-bit arithmetic must be answered as
// a decode error, not attempted as an allocation: 2^31 rows x 2^30 dims
// multiply to 2^61 doubles whose byte size is 0 mod 2^64, so a guard
// that multiplies instead of dividing would wave it through.
TEST(BlinkServer, PredictRowsTimesDimOverflowIsADecodeError) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("overflow");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  PredictRequestWire predict;
  predict.tenant = "raw";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(2);
  predict.rows = 1;
  predict.dim = 1;
  predict.features = {1.0};
  WireWriter writer;
  ASSERT_TRUE(Encode(predict, &writer).ok());
  std::vector<std::uint8_t> payload = writer.Take();

  // The payload ends with rows (i64), dim (i64), then the doubles.
  const auto patch_u64 = [&payload](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  patch_u64(payload.size() - 24, std::uint64_t{1} << 31);  // rows
  patch_u64(payload.size() - 16, std::uint64_t{1} << 30);  // dim

  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  FrameHeader header;
  header.verb = Verb::kPredict;
  header.request_id = 50;
  conn.SendRaw(FrameBytes(header, payload));
  std::uint64_t echoed = 0;
  const ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
  EXPECT_EQ(envelope.status, WireStatus::kDecodeError);
  EXPECT_EQ(echoed, 50u);

  // The connection and the server both survive.
  header.verb = Verb::kStats;
  header.request_id = 51;
  conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
  EXPECT_EQ(conn.ReadEnvelope().status, WireStatus::kOk);
}

// A Predict's model blob is outside input: a forged parameter count, a
// theta cut short and a blob cut inside its fixed header must each be a
// decode error and leave the connection serving. The forged count must be
// refused by the byte-count guard; resizing theta to it first would ask
// for 32 GB.
TEST(BlinkServer, MalformedModelBlobsAreDecodeErrors) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("badblob");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  // The Predict payload up to the blob, then the blob's fixed header.
  const auto blob_header = [](WireWriter* out) {
    out->Str("raw");
    out->Str("LogisticRegression");
    out->F64(0.5);  // objective
    out->I32(3);    // iterations
    out->U8(1);     // converged
    out->I64(100);  // sample_size
  };
  std::vector<std::vector<std::uint8_t>> payloads;
  {
    // 0xFFFFFFFF parameters (32 GB) claimed with 16 payload bytes left.
    WireWriter out;
    blob_header(&out);
    out.U32(0xFFFFFFFFu);
    out.I64(1);
    out.I64(1);
    payloads.push_back(out.Take());
  }
  {
    // Theta ends halfway: 4 parameters claimed, 2 sent.
    WireWriter out;
    blob_header(&out);
    out.U32(4);
    out.F64(1.0);
    out.F64(2.0);
    payloads.push_back(out.Take());
  }
  {
    // The blob ends inside its fixed header, halfway through iterations.
    WireWriter out;
    out.Str("raw");
    out.Str("LogisticRegression");
    out.F64(0.5);
    out.U16(3);
    payloads.push_back(out.Take());
  }

  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  std::uint64_t request_id = 60;
  for (const std::vector<std::uint8_t>& payload : payloads) {
    FrameHeader header;
    header.verb = Verb::kPredict;
    header.request_id = request_id;
    conn.SendRaw(FrameBytes(header, payload));
    std::uint64_t echoed = 0;
    const ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kDecodeError)
        << "request " << request_id << ": " << envelope.message;
    EXPECT_EQ(echoed, request_id);

    header.verb = Verb::kStats;
    header.request_id = request_id + 100;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    EXPECT_EQ(conn.ReadEnvelope().status, WireStatus::kOk);
    ++request_id;
  }
}

// Multi-MB responses must survive the server's non-blocking connection
// fds: a response larger than the free socket send-buffer space sees
// EAGAIN mid-frame, which has to poll-and-resume rather than tear the
// connection down.
TEST(BlinkServer, MultiMegabytePredictRoundTripsBitwise) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("bigresp");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  const Dataset::Index rows = 400000;
  const Dataset::Index dim = 2;
  std::vector<double> features(static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = 1e-3 * static_cast<double>(i % 997);
  }
  Matrix matrix(rows, dim);
  std::memcpy(matrix.data(), features.data(),
              features.size() * sizeof(double));
  const Dataset data(std::move(matrix), Vector(rows), Task::kBinary);

  const auto spec = *MakeSpecByName("LogisticRegression", 1e-3);
  PredictRequestWire predict;
  predict.tenant = "big";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(spec->ParamDim(data));
  for (Vector::Index i = 0; i < predict.model.theta.size(); ++i) {
    predict.model.theta[i] = 0.25 * static_cast<double>(i + 1);
  }
  predict.rows = rows;
  predict.dim = dim;
  predict.features = features;

  // ~6.4 MB request, ~3.2 MB response — both far beyond kernel socket
  // buffers.
  const auto predicted = client->Predict(predict);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

  Vector expected;
  spec->Predict(predict.model.theta, data, &expected);
  ASSERT_EQ(predicted->predictions.size(),
            static_cast<std::size_t>(expected.size()));
  for (Vector::Index i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(predicted->predictions[static_cast<std::size_t>(i)],
              expected[i])
        << "prediction " << i;
  }
}

// --- Scheduling --------------------------------------------------------

TEST(BlinkServer, DeadlineExpiredJobsRejectedWithDistinctStatus) {
  SessionManager manager(ServeOptions{0, 1});
  ServerOptions options;
  options.unix_path = SocketPath("deadline");
  options.runner_threads = 1;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  RegisterDatasetRequest registration =
      LogisticRegistration("tenant-d", "wire-deadline");
  registration.rows = 20000;
  registration.dim = 12;
  auto setup = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE(setup->RegisterDataset(registration).ok());

  // One connection, two frames in one write: a Train that occupies the
  // single runner for many milliseconds (it lazily generates 20000 x 12
  // rows first), and a Stats request with a 1 ms deadline. FIFO order
  // guarantees the Stats job waits behind the Train, so its deadline is
  // long gone when the runner reaches it — deterministically, with no
  // sleeps in the test.
  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  TrainRequestWire train;
  train.tenant = "tenant-d";
  train.dataset = registration.name;
  train.model_class = "LogisticRegression";
  train.epsilon = 0.01;
  train.delta = 0.05;
  WireWriter train_payload;
  Encode(train, &train_payload);
  FrameHeader train_header;
  train_header.verb = Verb::kTrain;
  train_header.request_id = 1;
  FrameHeader stats_header;
  stats_header.verb = Verb::kStats;
  stats_header.request_id = 2;
  stats_header.deadline_ms = 1;
  std::vector<std::uint8_t> burst =
      FrameBytes(train_header, train_payload.bytes());
  const std::vector<std::uint8_t> stats_frame =
      FrameBytes(stats_header, StatsPayload("tenant-d"));
  burst.insert(burst.end(), stats_frame.begin(), stats_frame.end());
  conn.SendRaw(burst);

  // The runner answers in pop order: the (undisturbed) training first,
  // then the expired Stats.
  std::uint64_t echoed = 0;
  ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
  EXPECT_EQ(envelope.status, WireStatus::kOk);
  EXPECT_EQ(echoed, 1u);
  envelope = conn.ReadEnvelope(&echoed);
  EXPECT_EQ(envelope.status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(echoed, 2u);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto after = client->Stats("tenant-d");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->server.rejected_deadline, 1u);
}

TEST(BlinkServer, QuotaRejectionsAreDistinctAndScopedToTheTenant) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("quota");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  // Tenant with a one-request burst and a glacial refill.
  TenantQuotaOptions throttled;
  throttled.requests_per_second = 1e-3;
  throttled.burst = 1.0;
  server.quotas().SetTenantOptions("throttled", throttled);

  // Tenant whose byte quota fits nothing.
  TenantQuotaOptions tiny;
  tiny.max_outstanding_bytes = 4;
  tiny.over_quota_retry_ms = 250;
  server.quotas().SetTenantOptions("tiny", tiny);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Stats("throttled").ok());
  const auto limited = client->Stats("throttled");
  ASSERT_FALSE(limited.ok());
  EXPECT_NE(limited.status().message().find("RateLimited"),
            std::string::npos);
  EXPECT_GT(client->last_retry_after_ms(), 0u);

  const auto over = client->Stats("tiny");
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("OverQuota"), std::string::npos);
  EXPECT_EQ(client->last_retry_after_ms(), 250u);

  // Unthrottled tenants on the same server are untouched.
  const auto other = client->Stats("other");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->server.rejected_rate, 1u);
  EXPECT_EQ(other->server.rejected_quota, 1u);
}

TEST(BlinkServer, RegisteredDatasetBytesCountAgainstTheByteQuota) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("resident");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  // Room for the dataset plus small request payloads — but nothing
  // sizable on top of the resident charge (4000 x 6 doubles is ~192 KB).
  const RegisterDatasetRequest registration =
      LogisticRegistration("hoarder", "wire-resident");
  const std::uint64_t dataset_bytes =
      MakeWireDataset(registration)->MemoryBytes();
  TenantQuotaOptions quota;
  quota.max_outstanding_bytes = dataset_bytes + 1024;
  server.quotas().SetTenantOptions("hoarder", quota);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto registered = client->RegisterDataset(registration);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ(registered->dataset_bytes, dataset_bytes);
  EXPECT_EQ(server.quotas().ResidentBytes("hoarder"), dataset_bytes);

  // A second dataset would double the resident charge: rejected by the
  // pre-materialization check, leaving the charge untouched.
  const auto second = client->RegisterDataset(
      LogisticRegistration("hoarder", "wire-resident-2"));
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("OverQuota"), std::string::npos);
  EXPECT_EQ(server.quotas().ResidentBytes("hoarder"), dataset_bytes);

  // Any payload bigger than the quota's slack is rejected at enqueue
  // admission because the resident bytes count against the same cap.
  PredictRequestWire predict;
  predict.tenant = "hoarder";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(6);
  predict.rows = 256;
  predict.dim = 5;
  predict.features.assign(256 * 5, 1.0);
  const auto rejected = client->Predict(predict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("OverQuota"),
            std::string::npos);
}

TEST(BlinkServer, OversizedRegisterDatasetRejectedBeforeMaterialization) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("oversized");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  TenantQuotaOptions quota;
  quota.max_outstanding_bytes = 32ull * 1024 * 1024;
  server.quotas().SetTenantOptions("bounded", quota);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  // ~88 MB estimated from a few-hundred-byte request: the tenant's byte
  // quota rejects it from the wire parameters alone — the server must
  // never attempt the allocation.
  RegisterDatasetRequest big = LogisticRegistration("bounded", "big");
  big.rows = 1000000;
  big.dim = 10;
  const auto over = client->RegisterDataset(big);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("OverQuota"), std::string::npos);
  EXPECT_GT(client->last_retry_after_ms(), 0u);
  EXPECT_EQ(server.quotas().ResidentBytes("bounded"), 0u);

  // ~80 TB: beyond even an unlimited byte quota, the server-wide
  // per-dataset cap rejects it (before the quota check — a capped
  // request can never succeed, so "retry later" would mislead).
  RegisterDatasetRequest huge = LogisticRegistration("unbounded", "huge");
  huge.rows = 1000000000;
  huge.dim = 10000;
  const auto capped = client->RegisterDataset(huge);
  ASSERT_FALSE(capped.ok());
  EXPECT_NE(capped.status().message().find("per-dataset cap"),
            std::string::npos);

  // The server is unharmed and the same tenants can still register data
  // that fits.
  const auto small =
      client->RegisterDataset(LogisticRegistration("bounded", "small"));
  ASSERT_TRUE(small.ok()) << small.status().ToString();
}

// A registration forwards its Monte-Carlo config to every Train on the
// dataset, so a config no Train can run is refused at registration, before
// anything is materialized: a negative initial sample (every Train would
// fail a sampler check), a one-row holdout, configured or taken from a
// dataset of under 10 rows (regression v divides by the holdout labels'
// spread), and a size search or an accuracy estimate whose retained
// doubles exceed the per-dataset cap. Nothing is registered: the same
// names then register with the default config.
TEST(BlinkServer, RegisterDatasetRejectsMonteCarloConfigsNoTrainCanRun) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("mcconfig");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  RegisterDatasetRequest negative_n0 = LogisticRegistration("t", "n0");
  negative_n0.config.initial_sample_size = -5;
  RegisterDatasetRequest tiny_holdout = LogisticRegistration("t", "holdout");
  tiny_holdout.generator = WireGenerator::kSyntheticLinear;
  tiny_holdout.config.holdout_size = 1;
  RegisterDatasetRequest no_draws = LogisticRegistration("t", "draws");
  no_draws.config.accuracy_samples = 0;
  RegisterDatasetRequest tiny_rows = LogisticRegistration("t", "rows");
  tiny_rows.generator = WireGenerator::kSyntheticLinear;
  tiny_rows.rows = 9;  // a holdout of max(min(holdout_size, 9 / 5), 1) = 1
  RegisterDatasetRequest huge_search = LogisticRegistration("t", "search");
  huge_search.config.size_samples = 1 << 28;  // 3.4 TB of scores, h = 800
  RegisterDatasetRequest huge_accuracy = LogisticRegistration("t", "accuracy");
  huge_accuracy.config.accuracy_samples =
      std::numeric_limits<std::int32_t>::max();  // 17 GB of v
  const std::vector<RegisterDatasetRequest*> bad_configs = {
      &negative_n0, &tiny_holdout, &no_draws,
      &tiny_rows,   &huge_search,  &huge_accuracy};
  for (const RegisterDatasetRequest* bad : bad_configs) {
    const auto refused = client->RegisterDataset(*bad);
    ASSERT_FALSE(refused.ok()) << bad->name;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << bad->name;
    EXPECT_EQ(client->last_wire_status(), WireStatus::kInvalidArgument)
        << bad->name;
  }
  EXPECT_EQ(server.quotas().ResidentBytes("t"), 0u);

  for (RegisterDatasetRequest* fixed : bad_configs) {
    fixed->rows = LogisticRegistration("t", fixed->name).rows;
    fixed->config = WireConfig();
    const auto registered = client->RegisterDataset(*fixed);
    ASSERT_TRUE(registered.ok())
        << fixed->name << ": " << registered.status().ToString();
  }
}

// Admission prices a registration from its wire parameters alone, so the
// estimate must track what MakeWireDataset really builds for every
// generator — a sparse dataset priced as dense would be refused by the
// cap at a fraction of its real size — and parameters a generator cannot
// take must come back as invalid arguments, not trip its internal checks.
TEST(WireDataset, EstimateTracksMemoryBytesForEveryGenerator) {
  struct Case {
    const char* name;
    WireGenerator generator;
    double sparsity;
    std::int64_t nnz_per_row;
  };
  const Case cases[] = {
      {"dense logistic", WireGenerator::kSyntheticLogistic, 1.0, 0},
      {"sparse logistic", WireGenerator::kSyntheticLogistic, 0.01, 0},
      {"linear", WireGenerator::kSyntheticLinear, 1.0, 0},
      {"criteo", WireGenerator::kCriteoLike, 1.0, 20},
      {"gas", WireGenerator::kGasLike, 1.0, 0},
  };
  for (const Case& c : cases) {
    RegisterDatasetRequest request;
    request.generator = c.generator;
    request.rows = 300;
    request.dim = 2000;  // wide enough that Criteo's in-row repeats are rare
    request.data_seed = 9;
    request.sparsity = c.sparsity;
    request.nnz_per_row = c.nnz_per_row;
    const Result<Dataset> data = MakeWireDataset(request);
    ASSERT_TRUE(data.ok()) << c.name << ": " << data.status().ToString();
    const double bytes = static_cast<double>(data->MemoryBytes());
    const double estimate =
        static_cast<double>(EstimateWireDatasetBytes(request));
    EXPECT_LE(bytes, estimate) << c.name;
    EXPECT_LE(estimate, 1.05 * bytes) << c.name;
  }

  RegisterDatasetRequest too_many_nnz;
  too_many_nnz.generator = WireGenerator::kCriteoLike;
  too_many_nnz.rows = 10;
  too_many_nnz.dim = 1000;
  too_many_nnz.nnz_per_row = 1001;
  EXPECT_EQ(MakeWireDataset(too_many_nnz).status().code(),
            StatusCode::kInvalidArgument);

  RegisterDatasetRequest nan_sparsity;
  nan_sparsity.generator = WireGenerator::kSyntheticLogistic;
  nan_sparsity.rows = 10;
  nan_sparsity.dim = 1000;
  nan_sparsity.sparsity = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MakeWireDataset(nan_sparsity).status().code(),
            StatusCode::kInvalidArgument);
}

// The wire's l2 is outside input: a negative or non-finite value is
// refused as kInvalidArgument (not a failed check inside the job, and not
// a vacuous model with a "satisfied" contract from l2 = +inf), the
// connection keeps serving, and in a Search only the bad candidate fails.
TEST(BlinkServer, RejectsInvalidL2PerTrainAndPerSearchCandidate) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("l2");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "wire-l2")).ok());

  TrainRequestWire train;
  train.tenant = "t";
  train.dataset = "wire-l2";
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    train.l2 = bad;
    const auto rejected = client->Train(train);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(client->last_wire_status(), WireStatus::kInvalidArgument)
        << bad;
  }
  train.l2 = 1e-3;
  const auto trained = client->Train(train);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  SearchRequestWire search;
  search.tenant = "t";
  search.dataset = "wire-l2";
  search.model_class = "LogisticRegression";
  search.candidates = {{1e-3, 0}, {-1.0, 0}};
  search.epsilon = 0.05;
  search.delta = 0.05;
  const auto outcome = client->Search(search);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->candidates.size(), 2u);
  EXPECT_EQ(outcome->candidates[0].status, WireStatus::kOk);
  EXPECT_EQ(outcome->candidates[0].model.theta.size(), 5);
  EXPECT_EQ(outcome->candidates[1].status, WireStatus::kInvalidArgument);
  EXPECT_EQ(outcome->best_index, 0);
  server.Stop();
}

TEST(BlinkServer, StatsVerbReportsManagerAndServerCounters) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("stats");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "wire-stats")).ok());
  TrainRequestWire train;
  train.tenant = "t";
  train.dataset = "wire-stats";
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  ASSERT_TRUE(client->Train(train).ok());

  const auto stats = client->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->manager.jobs_submitted, 1u);
  EXPECT_EQ(stats->manager.jobs_completed, 1u);
  EXPECT_EQ(stats->manager.live_sessions, 1);
  EXPECT_EQ(stats->manager.loaded_datasets, 1);
  EXPECT_EQ(stats->manager.loads_in_progress, 0);
  EXPECT_GT(stats->manager.cached_bytes, 0u);
  EXPECT_GE(stats->server.frames_received, 3u);
  EXPECT_GE(stats->server.jobs_enqueued, 3u);

  const auto evicted = client->EvictIdle("t");
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->sessions_evicted, 1);
}

// --- Resilience: shed, connection cap, idle reap, health ---------------

/// Tests below arm failpoints; keep every test hermetic (and immune to a
/// BLINKML_FAILPOINTS env schedule leaking in).
struct ScopedFailpoints {
  ScopedFailpoints() { fail::Failpoints::Global().DisarmAll(); }
  ~ScopedFailpoints() { fail::Failpoints::Global().DisarmAll(); }
};

std::vector<std::uint8_t> TrainPayload(const std::string& tenant,
                                       const std::string& dataset) {
  TrainRequestWire train;
  train.tenant = tenant;
  train.dataset = dataset;
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  WireWriter writer;
  Encode(train, &writer);
  return writer.bytes();
}

TYPED_TEST(Front, ShedsAtQueueHighWaterWithRetryHint) {
  ScopedFailpoints guard;
  FrontOptions options;
  options.unix_path = SocketPath("shed");
  options.runner_threads = 1;
  options.shed_queue_depth = 1;
  options.shed_retry_ms = 77;
  // Hold the single runner on the first job so the queue backs up.
  TypeParam server(options, "manager.train=delay:300@limit:2");
  ASSERT_TRUE(server.Start().ok());

  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  // Responses arrive in completion order; every Train answer is kept by
  // request id, including those read while waiting for a probe's answer.
  std::map<std::uint64_t, ResponseEnvelope> by_id;
  const std::vector<std::uint8_t> payload = TrainPayload("t", "nope");
  auto send_train = [&](std::uint64_t id) {
    FrameHeader header;
    header.verb = Verb::kTrain;
    header.request_id = id;
    conn.SendRaw(FrameBytes(header, payload));
  };
  // Blocks until an inline Health probe on this connection reports
  // `depth` queued jobs. The server answers Health on its IO thread after
  // admitting every earlier frame of the connection, so each probe sees
  // all Train frames sent before it.
  std::uint64_t probe_id = 100;
  auto wait_for_queued_jobs = [&](std::int32_t depth) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      FrameHeader probe;
      probe.verb = Verb::kHealth;
      probe.request_id = ++probe_id;
      conn.SendRaw(FrameBytes(probe, HealthPayload("t")));
      HealthResponseWire health;
      for (;;) {
        Frame frame;
        const Status read = ReadFrame(conn.fd(), &frame);
        ASSERT_TRUE(read.ok()) << read.ToString();
        WireReader reader(frame.payload.data(), frame.payload.size());
        ResponseEnvelope envelope;
        ASSERT_TRUE(Decode(&reader, &envelope).ok());
        if (frame.header.request_id != probe_id) {
          by_id[frame.header.request_id] = envelope;
          continue;
        }
        ASSERT_TRUE(Decode(&reader, &health).ok());
        break;
      }
      if (health.queued_jobs == depth) return;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "queue never reached depth " << depth;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // Frame 1 occupies the runner (held by the delay failpoint), frame 2
  // waits in the queue behind it, so frame 3 finds the queue at its
  // high-water mark and must shed — rejected BEFORE enqueue, with the
  // configured hint.
  send_train(1);
  ASSERT_NO_FATAL_FAILURE(wait_for_queued_jobs(0));
  send_train(2);
  ASSERT_NO_FATAL_FAILURE(wait_for_queued_jobs(1));
  send_train(3);
  while (by_id.size() < 3) {
    std::uint64_t id = 0;
    const ResponseEnvelope envelope = conn.ReadEnvelope(&id);
    by_id[id] = envelope;
  }
  ASSERT_EQ(by_id.count(3), 1u);
  EXPECT_EQ(by_id[3].status, WireStatus::kOverloaded);
  EXPECT_EQ(by_id[3].retry_after_ms, 77u);
  EXPECT_TRUE(IsRetryableWireStatus(by_id[3].status));

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto stats = client->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.rejected_shed, 1u);
}

TYPED_TEST(Front, ConnectionCapRejectsWithStructuredFrameAtAccept) {
  FrontOptions options;
  options.unix_path = SocketPath("conncap");
  options.max_connections = 1;
  options.shed_retry_ms = 33;
  TypeParam server(options);
  ASSERT_TRUE(server.Start().ok());

  auto first = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Stats("t").ok());  // the slot is genuinely usable

  // One over the cap: a structured kOverloaded frame, then EOF — never a
  // silent drop.
  RawConnection second(options.unix_path);
  ASSERT_TRUE(second.ok());
  const ResponseEnvelope envelope = second.ReadEnvelope();
  EXPECT_EQ(envelope.status, WireStatus::kOverloaded);
  EXPECT_EQ(envelope.retry_after_ms, 33u);
  EXPECT_TRUE(second.WaitForClose());

  // The in-cap connection is untouched, and a freed slot is reusable.
  EXPECT_TRUE(first->Stats("t").ok());
  const auto stats = first->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.rejected_max_connections, 1u);
  first = Result<BlinkClient>(Status::IOError("dropped"));  // close slot
  // connect() itself succeeds even over the cap (the reject is an error
  // frame at accept), so poll until the IO thread has noticed the freed
  // slot.
  bool reused = false;
  for (int i = 0; i < 100 && !reused; ++i) {
    auto third = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(third.ok());
    reused = third->Stats("t").ok();
    if (!reused) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reused);
}

TYPED_TEST(Front, IdleConnectionsAreReapedWithoutAnExtraThread) {
  FrontOptions options;
  options.unix_path = SocketPath("idle");
  options.idle_timeout_ms = 60;
  TypeParam server(options);
  ASSERT_TRUE(server.Start().ok());

  RawConnection idle(options.unix_path);
  ASSERT_TRUE(idle.ok());
  // Never sends a byte: the IO loop's poll-timeout reaper must close it.
  EXPECT_TRUE(idle.WaitForClose());

  // The server keeps serving fresh connections afterwards.
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto stats = client->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.idle_reaped, 1u);
}

// A client that never reads its (runner-written) response loses its
// connection after the write-stall timeout (it sees the hang-up), while
// other connections keep being served.
TYPED_TEST(Front, StalledReaderIsDroppedAndOthersAreServed) {
  FrontOptions options;
  options.unix_path = SocketPath("stall");
  options.write_stall_timeout_ms = 200;
  TypeParam server(options);
  ASSERT_TRUE(server.Start().ok());

  // ~2 MB of predictions (one double per row), far beyond what the
  // socket buffers between the front and this client hold.
  PredictRequestWire predict;
  predict.tenant = "stall";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(1);
  predict.rows = 256 * 1024;
  predict.dim = 1;
  predict.features.assign(static_cast<std::size_t>(predict.rows), 0.5);
  WireWriter writer;
  ASSERT_TRUE(Encode(predict, &writer).ok());
  RawConnection stalled(options.unix_path, /*rcvbuf=*/4096);
  ASSERT_TRUE(stalled.ok());
  FrameHeader header;
  header.verb = Verb::kPredict;
  header.request_id = 60;
  stalled.SendRaw(FrameBytes(header, writer.bytes()));

  auto other = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->Stats("t").ok());

  // Never reads: the front must hang up on it within a few seconds.
  pollfd hangup{stalled.fd(), POLLRDHUP, 0};
  ASSERT_EQ(::poll(&hangup, 1, 5000), 1) << "stalled reader never dropped";
  EXPECT_NE(hangup.revents & (POLLRDHUP | POLLHUP), 0);

  const auto metrics = other->Metrics("t");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->text.find("net_write_stalls_total 1"), std::string::npos)
      << metrics->text;
}

/// A small (inline) Predict: `rows` x `dim` deterministic features and a
/// model of the right size for LogisticRegression.
PredictRequestWire SmallPredict(std::int64_t rows, std::int64_t dim) {
  PredictRequestWire predict;
  predict.tenant = "p";
  predict.model_class = "LogisticRegression";
  predict.rows = rows;
  predict.dim = dim;
  predict.features.resize(static_cast<std::size_t>(rows * dim));
  for (std::size_t i = 0; i < predict.features.size(); ++i) {
    predict.features[i] = std::sin(0.37 * static_cast<double>(i));
  }
  const auto spec = *MakeSpecByName(predict.model_class, 1e-3);
  const Dataset data(Matrix(rows, dim, predict.features), Vector(rows),
                     spec->task());
  predict.model.theta = Vector(spec->ParamDim(data));
  for (Vector::Index j = 0; j < predict.model.theta.size(); ++j) {
    predict.model.theta[j] = 0.1 * static_cast<double>(j + 1);
  }
  return predict;
}

/// The in-process answer: ModelSpec::Predict on the request's features.
std::vector<double> ReferencePredictions(const PredictRequestWire& predict) {
  const auto spec = *MakeSpecByName(predict.model_class, 1e-3);
  const Dataset data(Matrix(predict.rows, predict.dim, predict.features),
                     Vector(predict.rows), spec->task());
  Vector predictions;
  spec->Predict(predict.model.theta, data, &predictions);
  return predictions.values();
}

void ExpectPredictionsBitwise(const PredictResponseWire& got,
                              const std::vector<double>& want) {
  ASSERT_EQ(got.predictions.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.predictions[i], &want[i], sizeof(double)), 0)
        << "prediction " << i;
  }
}

double MillisecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Health over a raw connection: the answer's queued_jobs.
std::int32_t RawQueuedJobs(RawConnection* conn, std::uint64_t request_id) {
  FrameHeader probe;
  probe.verb = Verb::kHealth;
  probe.request_id = request_id;
  conn->SendRaw(FrameBytes(probe, HealthPayload("t")));
  Frame frame;
  EXPECT_TRUE(ReadFrame(conn->fd(), &frame).ok());
  EXPECT_EQ(frame.header.request_id, request_id);
  WireReader reader(frame.payload.data(), frame.payload.size());
  ResponseEnvelope envelope;
  HealthResponseWire health;
  EXPECT_TRUE(Decode(&reader, &envelope).ok());
  EXPECT_TRUE(Decode(&reader, &health).ok());
  return health.queued_jobs;
}

/// Holds both runners of a front started with
/// "manager.train=delay:3000@limit:2" (runner_threads = 2): sends two
/// Trains on `trains` and returns once both have left the queue.
void HoldBothRunners(RawConnection* trains) {
  for (std::uint64_t id = 1; id <= 2; ++id) {
    FrameHeader header;
    header.verb = Verb::kTrain;
    header.request_id = id;
    trains->SendRaw(FrameBytes(header, TrainPayload("t", "nope")));
  }
  // Both Trains left the queue: each holds a runner. An inline Health
  // answer follows the admission of every earlier frame of its
  // connection, so an empty queue means both were popped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::uint64_t probe_id = 100;; ++probe_id) {
    const std::int32_t queued = RawQueuedJobs(trains, probe_id);
    ASSERT_FALSE(::testing::Test::HasFailure());
    if (queued == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// A small Predict never waits for a runner: with every runner held by a
// Train (delayed in the manager; through the router, in the worker), a
// Predict on another connection is answered at once, with the in-process
// bits.
TYPED_TEST(Front, PredictIsAnsweredWhileEveryRunnerIsBusy) {
  ScopedFailpoints guard;
  FrontOptions options;
  options.unix_path = SocketPath("busy");
  options.runner_threads = 2;
  TypeParam server(options, "manager.train=delay:3000@limit:2");
  ASSERT_TRUE(server.Start().ok());

  RawConnection trains(options.unix_path);
  ASSERT_TRUE(trains.ok());
  ASSERT_NO_FATAL_FAILURE(HoldBothRunners(&trains));

  const PredictRequestWire predict = SmallPredict(64, 5);
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  const auto answer = client->Predict(predict);
  const double elapsed_ms = MillisecondsSince(start);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_LT(elapsed_ms, 1000.0) << "the Predict queued behind the Trains";
  ExpectPredictionsBitwise(*answer, ReferencePredictions(predict));
}

// Only the payload size makes a Predict inline, so one row with a model
// twice the inline bound is not: it queues for a runner (here, behind
// two held ones) and the IO thread never decodes its model. Meanwhile a
// Health probe on another connection is answered at once and sees it
// queued.
TYPED_TEST(Front, PredictWithAHugeModelQueuesForARunner) {
  ScopedFailpoints guard;
  FrontOptions options;
  options.unix_path = SocketPath("hugemodel");
  options.runner_threads = 2;
  TypeParam server(options, "manager.train=delay:3000@limit:2");
  ASSERT_TRUE(server.Start().ok());

  RawConnection trains(options.unix_path);
  ASSERT_TRUE(trains.ok());
  ASSERT_NO_FATAL_FAILURE(HoldBothRunners(&trains));

  PredictRequestWire predict = SmallPredict(1, 1);
  predict.model.theta =
      Vector(static_cast<Vector::Index>(2 * kInlinePredictValues), 0.5);
  WireWriter writer;
  ASSERT_TRUE(Encode(predict, &writer).ok());
  RawConnection huge(options.unix_path);
  ASSERT_TRUE(huge.ok());
  FrameHeader header;
  header.verb = Verb::kPredict;
  header.request_id = 7;
  const auto sent = std::chrono::steady_clock::now();
  huge.SendRaw(FrameBytes(header, writer.bytes()));

  RawConnection probe(options.unix_path);
  ASSERT_TRUE(probe.ok());
  for (std::uint64_t probe_id = 1;; ++probe_id) {
    const auto start = std::chrono::steady_clock::now();
    const std::int32_t queued = RawQueuedJobs(&probe, probe_id);
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_LT(MillisecondsSince(start), 1000.0) << "Health was delayed";
    if (queued == 1) break;
    // The Trains hold the runners for 3 s; the Predict's bytes arrive
    // well within that.
    ASSERT_LT(MillisecondsSince(sent), 2000.0) << "the Predict never queued";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The runner answers it once a Train ends: the model does not fit one
  // feature.
  std::uint64_t request_id = 0;
  const ResponseEnvelope envelope = huge.ReadEnvelope(&request_id);
  EXPECT_EQ(request_id, 7u);
  EXPECT_EQ(envelope.status, WireStatus::kInvalidArgument)
      << envelope.message;
  EXPECT_GE(MillisecondsSince(sent), 1000.0);
}

// Answers written by the IO thread itself (inline Predicts) never block
// it: a client that pipelines small Predicts and never reads fills its
// socket, yet a second connection's Health and Predict are answered at
// once, and the stalled connection is dropped after the stall timeout.
TYPED_TEST(Front, InlineResponsesNeverBlockTheIoThread) {
  ScopedFailpoints guard;
  FrontOptions options;
  options.unix_path = SocketPath("inlinestall");
  options.write_stall_timeout_ms = 2000;
  TypeParam server(options);
  ASSERT_TRUE(server.Start().ok());

  // 128 answers of 8 KB each: far beyond the socket buffers between the
  // front and this client.
  const PredictRequestWire pipelined = SmallPredict(1024, 1);
  WireWriter writer;
  ASSERT_TRUE(Encode(pipelined, &writer).ok());
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= 128; ++id) {
    FrameHeader header;
    header.verb = Verb::kPredict;
    header.request_id = id;
    const std::vector<std::uint8_t> frame = FrameBytes(header, writer.bytes());
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  RawConnection stalled(options.unix_path, /*rcvbuf=*/4096);
  ASSERT_TRUE(stalled.ok());
  const auto sent = std::chrono::steady_clock::now();
  stalled.SendRaw(burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto other = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(other.ok());
  auto start = std::chrono::steady_clock::now();
  const auto health = other->Health("t");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_LT(MillisecondsSince(start), 1000.0);
  const PredictRequestWire predict = SmallPredict(16, 5);
  start = std::chrono::steady_clock::now();
  const auto answer = other->Predict(predict);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_LT(MillisecondsSince(start), 1000.0);
  ExpectPredictionsBitwise(*answer, ReferencePredictions(predict));

  // The stalled reader still loses its connection, after the timeout.
  pollfd hangup{stalled.fd(), POLLRDHUP, 0};
  ASSERT_EQ(::poll(&hangup, 1, 10000), 1) << "stalled reader never dropped";
  EXPECT_NE(hangup.revents & (POLLRDHUP | POLLHUP), 0);
  EXPECT_GE(MillisecondsSince(sent), 2000.0);
  const auto metrics = other->Metrics("t");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->text.find("net_write_stalls_total 1"), std::string::npos)
      << metrics->text;
}

// A client that pipelines requests and never reads its answers cannot
// make the front buffer them without bound: past 4 MiB of unsent answers
// the front stops reading that connection, so the client's own sends
// back up long before all 8 MiB of its requests are taken.
TYPED_TEST(Front, UnreadAnswersStopTheReadsPastTheBound) {
  ScopedFailpoints guard;
  FrontOptions options;
  options.unix_path = SocketPath("unsent");
  options.write_stall_timeout_ms = 5000;
  TypeParam server(options);
  ASSERT_TRUE(server.Start().ok());

  // 256 inline Predicts of 4000 x 1: 32 KB of request and of answer each.
  const PredictRequestWire predict = SmallPredict(4000, 1);
  WireWriter writer;
  ASSERT_TRUE(Encode(predict, &writer).ok());
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= 256; ++id) {
    FrameHeader header;
    header.verb = Verb::kPredict;
    header.request_id = id;
    const std::vector<std::uint8_t> frame = FrameBytes(header, writer.bytes());
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  RawConnection greedy(options.unix_path, /*rcvbuf=*/4096);
  ASSERT_TRUE(greedy.ok());
  std::size_t sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < burst.size() && MillisecondsSince(last_progress) < 500.0) {
    const ssize_t n = ::send(greedy.fd(), burst.data() + sent,
                             burst.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      last_progress = std::chrono::steady_clock::now();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_LT(sent, burst.size() * 3 / 4) << "the front kept reading";

  // The front itself stays responsive.
  auto other = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->Health("t").ok());
}

// Runners hand every answer to the IO loop through the wake pipe; a
// wakeup lost between the loop's drain and its re-arm leaves an answer
// unwritten while its client waits. Many concurrent runner answers must
// all arrive.
TEST(BlinkServer, EveryRunnerAnswerReachesItsClient) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("handoff");
  options.runner_threads = 4;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kCalls = 500;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client = BlinkClient::ConnectUnix(options.unix_path);
      if (!client.ok() || !client->set_recv_timeout_ms(5000).ok()) return;
      for (int i = 0; i < kCalls; ++i) {
        if (!client->Stats("t").ok()) return;
        ++answered;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(answered.load(), kClients * kCalls);
}

TEST(BlinkServer, HealthProbeReportsShedAndDrainState) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("health");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto health = client->Health("t");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->accepting);
  EXPECT_FALSE(health->shedding);
  EXPECT_GE(health->open_connections, 1);
  EXPECT_EQ(health->rejected_shed, 0u);
}

// Satellite: the retry-after hint from a rejection must not leak past
// the next successful call.
TEST(BlinkClient, RetryAfterHintResetsOnSuccess) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("hintreset");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  TenantQuotaOptions throttled;
  throttled.requests_per_second = 1e-3;
  throttled.burst = 1.0;
  server.quotas().SetTenantOptions("throttled", throttled);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Stats("throttled").ok());
  ASSERT_FALSE(client->Stats("throttled").ok());
  EXPECT_GT(client->last_retry_after_ms(), 0u);
  EXPECT_EQ(client->last_wire_status(), WireStatus::kRateLimited);

  ASSERT_TRUE(client->Stats("free").ok());
  EXPECT_EQ(client->last_retry_after_ms(), 0u);
  EXPECT_EQ(client->last_wire_status(), WireStatus::kOk);
}

// --- Protocol unit tests -----------------------------------------------

TEST(Protocol, ReaderDoublesRejectsCountsWhoseByteSizeWraps) {
  std::vector<std::uint8_t> buf(64, 0);
  WireReader reader(buf.data(), buf.size());
  std::vector<double> out;
  // count * sizeof(double) == 0 mod 2^64: a multiplying bounds check
  // would pass and resize() would attempt a 2^61-element allocation.
  reader.Doubles(std::size_t{1} << 61, &out);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(out.empty());
}

// The bulk Doubles path must write exactly the bytes of per-element F64
// calls and read them back bitwise, starting at an unaligned offset, for
// counts from empty to past 64K; a count one past the bytes left must
// fail.
TEST(Protocol, DoublesBulkMatchesPerElementLayout) {
  const double specials[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             NanWithPayload(),
                             -0.0,
                             4.9e-324,
                             std::numeric_limits<double>::max()};
  for (const std::size_t count : {0u, 1u, 7u, 65537u}) {
    std::vector<double> values(count);
    for (std::size_t i = 0; i < count; ++i) {
      values[i] = i % 3 == 0 ? specials[(i / 3) % std::size(specials)]
                             : 1.0 / static_cast<double>(i + 1) - 0.5;
    }
    WireWriter bulk;
    bulk.U8(0xA5);
    bulk.Doubles(values.data(), count);
    WireWriter per_element;
    per_element.U8(0xA5);
    for (const double v : values) per_element.F64(v);
    ASSERT_EQ(bulk.bytes(), per_element.bytes()) << count << " doubles";

    const std::vector<std::uint8_t>& bytes = bulk.bytes();
    WireReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.U8(), 0xA5);
    std::vector<double> back;
    reader.Doubles(count, &back);
    ASSERT_TRUE(reader.ok()) << count << " doubles";
    EXPECT_EQ(reader.remaining(), 0u);
    ASSERT_EQ(back.size(), count);
    ExpectSameBits(values.data(), back.data(), count, "bulk read");

    WireReader over(bytes.data(), bytes.size());
    over.U8();
    std::vector<double> none;
    over.Doubles(count + 1, &none);
    EXPECT_FALSE(over.ok()) << count + 1 << " doubles";
  }
}

// --- JobQueue unit tests -----------------------------------------------

TEST(JobQueue, DrainsInPriorityOrderFifoWithinPriority) {
  JobQueue queue;
  std::vector<int> order;
  auto push = [&](int id, std::int32_t priority) {
    JobQueue::Job job;
    job.priority = priority;
    job.run = [&order, id] { order.push_back(id); };
    ASSERT_TRUE(queue.Push(std::move(job)));
  };
  push(1, 0);
  push(2, 5);
  push(3, 0);
  push(4, 5);
  push(5, -1);

  queue.Shutdown();
  JobQueue::Job job;
  while (queue.Pop(&job)) job.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3, 5}));
}

TEST(JobQueue, BoundedPushRejectsWhenFull) {
  JobQueue queue(2);
  JobQueue::Job job;
  job.run = [] {};
  ASSERT_TRUE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
  ASSERT_TRUE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
  EXPECT_FALSE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
  queue.Shutdown();
  EXPECT_FALSE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
}

TEST(JobQueue, ExpiredChecksTheDeadline) {
  JobQueue::Job job;
  EXPECT_FALSE(JobQueue::Expired(job));  // no deadline
  job.has_deadline = true;
  job.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);
  EXPECT_TRUE(JobQueue::Expired(job));
  job.deadline = std::chrono::steady_clock::now() +
                 std::chrono::seconds(60);
  EXPECT_FALSE(JobQueue::Expired(job));
}

// --- TenantQuotas unit tests (fake clock) ------------------------------

TEST(TenantQuotas, TokenBucketRefillsAtTheConfiguredRate) {
  std::uint64_t now_micros = 0;
  TenantQuotaOptions defaults;
  defaults.requests_per_second = 10.0;
  defaults.burst = 2.0;
  TenantQuotas quotas(defaults, [&now_micros] { return now_micros; });

  // Burst of 2, then empty.
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  const AdmissionDecision rejected = quotas.Admit("t", 0);
  EXPECT_EQ(rejected.status, WireStatus::kRateLimited);
  // 10 req/s = a token every 100 ms.
  EXPECT_EQ(rejected.retry_after_ms, 100u);

  now_micros += 50 * 1000;  // half a token
  EXPECT_EQ(quotas.Admit("t", 0).retry_after_ms, 50u);
  now_micros += 50 * 1000;  // full token
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());

  // Refill caps at burst even after a long idle stretch.
  now_micros += 3600u * 1000 * 1000;
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  EXPECT_EQ(quotas.Admit("t", 0).status, WireStatus::kRateLimited);
}

TEST(TenantQuotas, ByteQuotaChargesOutstandingAndResident) {
  TenantQuotaOptions defaults;
  defaults.max_outstanding_bytes = 100;
  defaults.over_quota_retry_ms = 70;
  TenantQuotas quotas(defaults, [] { return std::uint64_t{0}; });

  EXPECT_TRUE(quotas.Admit("t", 60).admitted());
  EXPECT_EQ(quotas.OutstandingBytes("t"), 60u);
  const AdmissionDecision rejected = quotas.Admit("t", 50);
  EXPECT_EQ(rejected.status, WireStatus::kOverQuota);
  EXPECT_EQ(rejected.retry_after_ms, 70u);

  quotas.Release("t", 60);
  EXPECT_TRUE(quotas.Admit("t", 50).admitted());
  quotas.Release("t", 50);

  // Resident charges shrink what requests may use.
  quotas.ChargeResident("t", 90);
  EXPECT_EQ(quotas.ResidentBytes("t"), 90u);
  EXPECT_EQ(quotas.Admit("t", 20).status, WireStatus::kOverQuota);
  EXPECT_TRUE(quotas.Admit("t", 10).admitted());
  quotas.Release("t", 10);
  quotas.ChargeResident("t", -90);
  EXPECT_EQ(quotas.ResidentBytes("t"), 0u);

  // Tenants are independent.
  EXPECT_TRUE(quotas.Admit("other", 100).admitted());
}

TEST(TenantQuotas, ByteRejectionDoesNotBurnARateToken) {
  TenantQuotaOptions defaults;
  defaults.requests_per_second = 10.0;
  defaults.burst = 1.0;
  defaults.max_outstanding_bytes = 10;
  TenantQuotas quotas(defaults, [] { return std::uint64_t{0}; });

  EXPECT_EQ(quotas.Admit("t", 50).status, WireStatus::kOverQuota);
  // The bucket still has its token: a request that fits passes.
  EXPECT_TRUE(quotas.Admit("t", 5).admitted());
}

}  // namespace
}  // namespace net
}  // namespace blinkml
