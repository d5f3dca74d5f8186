#include "shard/journal.h"

namespace blinkml {
namespace shard {
namespace {

std::string JournalKey(const std::string& tenant, const std::string& name) {
  std::string key;
  key.reserve(tenant.size() + 1 + name.size());
  key.append(tenant);
  key.push_back('\0');
  key.append(name);
  return key;
}

}  // namespace

Status RegistrationJournal::Record(const net::RegisterDatasetRequest& request) {
  const std::string key = JournalKey(request.tenant, request.name);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    if (net::SameRegistration(entries_[it->second], request)) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "dataset '" + request.name + "' already journaled for tenant '" +
        request.tenant + "' with different parameters");
  }
  index_.emplace(key, entries_.size());
  entries_.push_back(request);
  return Status::OK();
}

std::vector<net::RegisterDatasetRequest> RegistrationJournal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

bool RegistrationJournal::Contains(const std::string& tenant,
                                   const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(JournalKey(tenant, name)) != 0;
}

std::size_t RegistrationJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace shard
}  // namespace blinkml
