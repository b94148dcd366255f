#include "server/version_store.hpp"

#include <string>

#include "core/checksum.hpp"

namespace ipd {

ReleaseId VersionStore::publish(Bytes body) {
  const ContentKey key{crc32c(body), body.size()};
  auto shared = std::make_shared<const Bytes>(std::move(body));
  WriterLock lock(mutex_);
  const ReleaseId id = static_cast<ReleaseId>(bodies_.size());
  bodies_.push_back(std::move(shared));
  keys_.push_back(key);
  if (by_content_.contains(key)) {
    duplicate_publishes_.fetch_add(1, std::memory_order_relaxed);
  }
  by_content_[key] = id;  // newer release wins the content address
  return id;
}

std::size_t VersionStore::release_count() const {
  ReaderLock lock(mutex_);
  return bodies_.size();
}

std::shared_ptr<const Bytes> VersionStore::body(ReleaseId id) const {
  ReaderLock lock(mutex_);
  if (id >= bodies_.size()) {
    throw ValidationError("version store: no release " + std::to_string(id));
  }
  return bodies_[id];
}

ContentKey VersionStore::content_key(ReleaseId id) const {
  ReaderLock lock(mutex_);
  if (id >= keys_.size()) {
    throw ValidationError("version store: no release " + std::to_string(id));
  }
  return keys_[id];
}

std::optional<ReleaseId> VersionStore::find(const ContentKey& key) const {
  ReaderLock lock(mutex_);
  const auto it = by_content_.find(key);
  if (it == by_content_.end()) return std::nullopt;
  return it->second;
}

ReleaseId VersionStore::latest() const {
  ReaderLock lock(mutex_);
  if (bodies_.empty()) {
    throw ValidationError("version store: empty history has no latest");
  }
  return static_cast<ReleaseId>(bodies_.size() - 1);
}

}  // namespace ipd
