// VersionStore adapter over the durable ArtifactStore.
//
// DeltaService and DeltaServer speak the VersionStore interface; this
// subclass routes every call to an on-disk ArtifactStore, so a server
// pointed at a store directory (`serve --store-dir`) serves the same
// history across restarts. body() reconstructs from the stored delta
// chain (baseline + verifier-gated hops); a small in-RAM memo keeps the
// hottest reconstructed bodies pinned so repeated requests for the same
// release do not re-read the disk cache.
//
// preload_stored_edges() warms a DeltaService with every delta artifact
// the store already holds, through the service's verified preload(): those
// chain edges then serve, directly or as hops of a chain, with no build.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>

#include "core/sync.hpp"
#include "server/delta_service.hpp"
#include "store/artifact_store.hpp"

namespace ipd {

class StoreBackedVersionStore final : public VersionStore {
 public:
  /// `ram_budget` bounds the in-memory memo of reconstructed bodies
  /// (0 disables it; every body() then goes to the artifact store).
  explicit StoreBackedVersionStore(std::shared_ptr<ArtifactStore> store,
                                   std::uint64_t ram_budget = 64ull << 20);

  ReleaseId publish(Bytes body) override;
  std::size_t release_count() const override;
  std::shared_ptr<const Bytes> body(ReleaseId id) const override;
  ContentKey content_key(ReleaseId id) const override;
  std::optional<ReleaseId> find(const ContentKey& key) const override;
  ReleaseId latest() const override;

  ArtifactStore& store() noexcept { return *store_; }
  const ArtifactStore& store() const noexcept { return *store_; }

 private:
  std::shared_ptr<const Bytes> memo_get(ReleaseId id) const;
  void memo_put(ReleaseId id, std::shared_ptr<const Bytes> body) const;

  std::shared_ptr<ArtifactStore> store_;
  std::uint64_t ram_budget_;

  mutable Mutex memo_mutex_{"StoreBackedVersionStore::memo"};
  /// Front = most recently used.
  mutable std::list<ReleaseId> memo_lru_ GUARDED_BY(memo_mutex_);
  mutable std::unordered_map<
      ReleaseId, std::pair<std::shared_ptr<const Bytes>,
                           std::list<ReleaseId>::iterator>>
      memo_ GUARDED_BY(memo_mutex_);
  mutable std::uint64_t memo_bytes_ GUARDED_BY(memo_mutex_) = 0;
};

/// Admit every stored chain-delta artifact into `service`'s delta cache
/// (store/artifact_store.hpp stored_edges()). Returns how many edges the
/// service accepted — each one passed the service's verifier gate and
/// now serves at zero build cost. Call after constructing the service
/// over the same store so a restarted server starts warm.
std::size_t preload_stored_edges(const ArtifactStore& store,
                                 DeltaService& service);

}  // namespace ipd
