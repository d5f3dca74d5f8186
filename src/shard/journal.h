// RegistrationJournal: the shard router's durable (in-process) record of
// every dataset registration it has admitted, keyed (tenant, name).
//
// Why it exists: workers are disposable. A crashed worker restarts with
// an empty SessionManager, and every dataset it owned must be re-created
// before the shard re-enters routing — otherwise a re-sent Train answers
// kNotFound, which is NOT retryable, and a client that survived the
// crash with kUnavailable retries would now fail spuriously. The journal
// is the replay source: RegisterDataset requests are idempotent and
// self-contained (the wire ships generator parameters, not data — the
// worker regenerates bitwise-identical bytes, net/codec.h), so replaying
// the journal reconstructs a worker's exact serving state.
//
// One GLOBAL journal, not one per shard. Ownership is a function of the
// key and the CURRENT member set (shard/hashing.h), and keys move:
// drain migrates them away, a breaker trip reassigns them, a revived
// shard wins some back. A per-shard journal would have to chase those
// moves; the global journal just answers "all registrations", and the
// router filters by Owner(key, members) at each replay/migration site.
//
// Idempotency contract (the server's re-registration rule,
// net::SameRegistration): an identical re-record is kOk and a no-op; a
// conflicting re-record (same key, different parameters) is
// InvalidArgument and leaves the original in place. Thread-safe;
// snapshot order is insertion order, so replays are deterministic.

#ifndef BLINKML_SHARD_JOURNAL_H_
#define BLINKML_SHARD_JOURNAL_H_

#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "util/status.h"

namespace blinkml {
namespace shard {

class RegistrationJournal {
 public:
  RegistrationJournal() = default;
  RegistrationJournal(const RegistrationJournal&) = delete;
  RegistrationJournal& operator=(const RegistrationJournal&) = delete;

  /// Records `request` under (tenant, name). OK and a no-op when an
  /// identical entry exists; InvalidArgument on a conflicting one.
  Status Record(const net::RegisterDatasetRequest& request);

  /// All entries in insertion order (copy; replay iterates without
  /// holding the journal lock).
  std::vector<net::RegisterDatasetRequest> Snapshot() const;

  bool Contains(const std::string& tenant, const std::string& name) const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<net::RegisterDatasetRequest> entries_;
  /// "tenant\0name" -> index into entries_.
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace shard
}  // namespace blinkml

#endif  // BLINKML_SHARD_JOURNAL_H_
