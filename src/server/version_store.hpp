// The service's release history: an append-only, content-addressed store.
//
// A publisher's history is an ordered sequence of immutable release
// bodies. The store hands bodies out as shared_ptr<const Bytes> so a
// request thread can diff or transmit a release while a publish is in
// flight — once published, a body never changes and never moves. Each
// release also carries a ContentKey (CRC-32C + length, the same pair the
// delta container embeds) so a device that only knows the checksum of the
// image it is running can be located in the history.
//
// VersionStore is both the concrete in-memory store and the interface
// the DeltaService consumes: every method is virtual, so a durable
// backend (store/store_backed_version_store.hpp, which reconstructs
// bodies from on-disk delta chains) slots in without the service
// noticing. The in-memory store remains the right choice for embedded
// and test use, but it is NOT durable — a process restart loses the
// whole history. Deployments that must survive restarts use the
// ArtifactStore-backed subclass; see docs/STORE.md.
//
// Duplicate content: publishing bytes that already exist in the history
// is allowed and creates a distinct release id (a rollback re-release is
// a new event in the history, not an alias of the old one). find() then
// resolves the shared ContentKey to the NEWEST such release — latest
// wins — because a device reporting that checksum should be routed from
// the most recent occurrence, where materialized deltas are likeliest to
// exist. Each shadowing publish increments the `duplicate_publishes`
// counter so operators can spot republished content.
//
// Thread-safe: publishes take an exclusive lock, lookups a shared one.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/sync.hpp"
#include "core/types.hpp"

namespace ipd {

namespace obs {
class PrometheusRenderer;
}  // namespace obs

/// Index of a release within a VersionStore (0 = oldest).
using ReleaseId = std::uint32_t;

/// Content address of a release body: the (crc32c, length) pair a delta
/// container already carries for its endpoints.
struct ContentKey {
  std::uint32_t crc = 0;
  length_t length = 0;

  auto operator<=>(const ContentKey&) const = default;
};

class VersionStore {
 public:
  VersionStore() = default;
  virtual ~VersionStore() = default;

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Append a release to the history; returns its id (== prior count).
  virtual ReleaseId publish(Bytes body);

  virtual std::size_t release_count() const;

  /// Immutable body of release `id`. Throws ValidationError on a bad id.
  virtual std::shared_ptr<const Bytes> body(ReleaseId id) const;

  /// Content address of release `id`. Throws ValidationError on a bad id.
  virtual ContentKey content_key(ReleaseId id) const;

  /// Most recent release with this content, if any — how a device that
  /// reports only its image checksum is mapped into the history. When
  /// the same bytes were published more than once, the newest release
  /// shadows the older ones (latest wins; see the header comment).
  virtual std::optional<ReleaseId> find(const ContentKey& key) const;

  /// Id of the newest release. Throws ValidationError when empty.
  virtual ReleaseId latest() const;

  /// How many publishes re-used content an earlier release already had
  /// (each one shadows the older release in find()).
  virtual std::uint64_t duplicate_publishes() const noexcept {
    return duplicate_publishes_.load(std::memory_order_relaxed);
  }

  /// Render the backend's own metric set into a service's exposition
  /// (DeltaService::stats_text()). The in-memory store has none.
  virtual void render_metrics(obs::PrometheusRenderer&) const {}

 private:
  mutable SharedMutex mutex_{"VersionStore"};
  std::vector<std::shared_ptr<const Bytes>> bodies_ GUARDED_BY(mutex_);
  std::vector<ContentKey> keys_ GUARDED_BY(mutex_);
  /// Latest id per content.
  std::map<ContentKey, ReleaseId> by_content_ GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> duplicate_publishes_{0};
};

}  // namespace ipd
