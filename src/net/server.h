// BlinkServer: the networked serving front over SessionManager.
//
// Promotes the in-process serving layer (serve/session_manager.h) to an
// actual service. It is the FrameHandler on the connection core
// (net/frame_server.h): Admit applies per-tenant quotas (net/quotas.h)
// on the IO thread; Execute decodes the payload, runs the verb on the
// SessionManager from the front's runner thread, and answers a status
// envelope + body.
// A Predict under kInlinePredictValues (net/frame_server.h) is stateless
// and cheap: it runs on the IO thread, against the payload where it was
// read, and decodes its features once, into the Matrix Predict reads.
//
// Transparency: the service adds scheduling, never arithmetic. A job
// executed through the socket returns results BITWISE IDENTICAL to the
// same SessionManager call in-process, at any server thread count — the
// wire codecs ship every double, models included, as its IEEE-754 bit
// pattern (tests/net_test.cc holds this at 1/2/8 runner threads).
//
// The front's net_* metrics live in the manager's registry
// (SessionManager::metrics()); the Metrics verb returns that snapshot
// concatenated with the process-global registry.

#ifndef BLINKML_NET_SERVER_H_
#define BLINKML_NET_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "net/frame_server.h"
#include "net/protocol.h"
#include "net/quotas.h"
#include "serve/session_manager.h"

namespace blinkml {
namespace net {

struct ServerOptions : FrontOptions {
  /// Default per-tenant quotas (override per tenant via quotas()).
  TenantQuotaOptions default_quota;
  /// Hard cap on the estimated size of any single RegisterDataset
  /// (EstimateWireDatasetBytes, checked before anything is materialized
  /// and independent of tenant quotas — it protects the server even from
  /// tenants with unlimited byte quotas). 0 = unlimited.
  std::uint64_t max_dataset_bytes = 1ull << 30;
};

class BlinkServer : private FrameHandler {
 public:
  /// The manager must outlive the server. A runner runs each Train and
  /// Search on the manager itself, so runners beyond the manager's
  /// max_concurrent_jobs wait there for a job slot.
  BlinkServer(SessionManager* manager, ServerOptions options);

  /// Stops and joins (drains queued jobs first).
  ~BlinkServer();

  BlinkServer(const BlinkServer&) = delete;
  BlinkServer& operator=(const BlinkServer&) = delete;

  /// Binds the listener and starts the IO + runner threads.
  Status Start() { return front_.Start(); }

  /// Idempotent. Stops accepting, drains the job queue (every admitted
  /// job runs or expires, every answer is written), joins all threads,
  /// closes every connection.
  void Stop() { front_.Stop(); }

  /// The bound TCP port (after Start; 0 for Unix listeners).
  int port() const { return front_.port(); }

  /// Admission control (set per-tenant overrides before or while
  /// serving).
  TenantQuotas& quotas() { return quotas_; }

  ServerStatsWire stats() const { return front_.stats(); }

 private:
  // FrameHandler: quota admission, verb execution (small Predicts
  // inline).
  Admission Admit(const FrameHeader& header, const std::string& tenant,
                  const std::uint8_t* payload, std::size_t size) override;
  std::vector<std::uint8_t> Execute(const FrameHeader& header,
                                    const std::string& tenant,
                                    const std::uint8_t* payload,
                                    std::size_t size) override;

  // Verb bodies: decode the payload, run, fill `body`; the returned
  // envelope carries any failure.
  ResponseEnvelope RunRegisterDataset(const std::uint8_t* payload,
                                      std::size_t size, WireWriter* body);
  ResponseEnvelope RunTrain(const std::uint8_t* payload, std::size_t size,
                            WireWriter* body);
  ResponseEnvelope RunSearch(const std::uint8_t* payload, std::size_t size,
                             WireWriter* body);
  ResponseEnvelope RunPredict(const std::uint8_t* payload, std::size_t size,
                              WireWriter* body);

  SessionManager* const manager_;
  const ServerOptions options_;

  TenantQuotas quotas_;

  /// Wire registrations by dataset name, for idempotent retries: a client
  /// whose RegisterDataset response was lost to a connection fault
  /// re-sends the request, and an identical re-registration must answer
  /// kOk (with the original byte charge) instead of "already registered".
  /// The mutex also serializes RunRegisterDataset end to end —
  /// registration is rare, and coarse serialization keeps the
  /// check-materialize-register-charge sequence atomic.
  std::mutex register_mu_;
  std::unordered_map<std::string, std::pair<RegisterDatasetRequest,
                                            std::uint64_t>>
      registered_;

  /// Declared last: its runners call back into the members above.
  FrameServer front_;
};

}  // namespace net
}  // namespace blinkml

#endif  // BLINKML_NET_SERVER_H_
