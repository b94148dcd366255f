// Durable artifact store: a release history persisted as delta chains
// against periodic full baselines.
//
// The paper's devices cannot hold two versions at once; the server has
// the dual problem — a long release history is too big to hold as full
// images, so it is kept the way fossil keeps its blobs: each release is
// either a full *baseline* body or an in-place *delta* against an
// earlier release, forming linear chains rooted at baselines. A chain
// policy (store/chain_policy.hpp) bounds chain length and cumulative
// inflation, folding a chain back onto its baseline with
// delta/compose.hpp when it grows long — at command-stream cost, never
// re-differencing the full bodies — and re-selecting a fresh baseline
// when deltas stop pulling their weight.
//
// On disk (see docs/STORE.md for the byte-level formats):
//
//   <dir>/MANIFEST             append-only log of release records
//   <dir>/segments-NNNNNN.dat  append-only artifact payloads
//   <dir>/cache/               reconstructed-version disk cache (soft)
//
// Both logs use the CRC-32C record framing of store/record_log.hpp.
// Durability invariant: the segment append is synced *before* the
// manifest record that references it, so a recovered manifest never
// points past the durable segment prefix; recovery truncates torn tails
// and refuses (typed StoreError) anything CRC-valid but inconsistent.
// Every delta loaded from disk passes verify::Verifier before it is
// applied or handed out — the store trusts its own files no more than
// the server trusts the wire.
//
// Thread-safety: publish/compact/gc take an exclusive lock; body() and
// the read accessors take a shared one, so a fleet of request threads
// reconstructs concurrently while publishes serialize.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/sync.hpp"
#include "ipdelta.hpp"
#include "server/version_store.hpp"
#include "store/chain_policy.hpp"
#include "store/record_log.hpp"
#include "store/store_metrics.hpp"
#include "store/version_cache.hpp"
#include "verify/verifier.hpp"

namespace ipd {

struct StoreOptions {
  ChainPolicyOptions chain;
  /// How chain deltas are built (and how folded chains are re-converted
  /// for in-place application).
  PipelineOptions pipeline;
  /// Byte budget of the reconstructed-version disk cache.
  std::uint64_t cache_budget = 256ull << 20;
  /// Deep-verify every referenced segment record (CRC + delta verifier)
  /// during open instead of lazily on first use. Slower cold start,
  /// used by the crash-recovery tests and `store check`.
  bool verify_on_open = false;
  /// fsync segment and manifest appends in publish order. Leave on for
  /// durability; benches may turn it off to measure the CPU path.
  bool sync_writes = true;
};

/// How one release is stored.
enum class StoredKind : std::uint8_t {
  kBaseline = 0,  ///< full body in the segment file
  kDelta = 1,     ///< serialized in-place delta against `base`
};

struct StoredRelease {
  ReleaseId id = 0;
  ContentKey key;  ///< content address of the *body* (not the artifact)
  StoredKind kind = StoredKind::kBaseline;
  ReleaseId base = 0;  ///< parent release for kDelta; == id for baselines
  std::uint64_t segment_offset = 0;  ///< record frame offset of artifact
  std::uint64_t stored_bytes = 0;    ///< artifact payload size
};

/// One materialized chain edge: the stored in-place delta `from -> to`,
/// which `serve --store-dir` preloads into the DeltaCache.
struct StoredEdge {
  ReleaseId from = 0;
  ReleaseId to = 0;
  std::uint64_t bytes = 0;
};

/// What open() found on disk.
struct RecoveryReport {
  std::size_t releases = 0;
  std::size_t manifest_records = 0;
  bool manifest_truncated = false;       ///< torn manifest tail cut
  std::uint64_t manifest_bytes_dropped = 0;
  std::uint64_t segment_orphan_bytes = 0;  ///< unreferenced tail cut
};

class ArtifactStore {
 public:
  /// Create an empty store in `dir` (the directory is created; an
  /// existing store there is an error — init must never eat history).
  static void init(const std::filesystem::path& dir);

  /// Open an existing store, running recovery. Throws StoreError when
  /// `dir` holds no store or holds one that is inconsistent beyond the
  /// torn-tail repairs recovery is allowed to make.
  explicit ArtifactStore(const std::filesystem::path& dir,
                         const StoreOptions& options = {});

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Append a release. Builds the delta against the current tip, asks
  /// the chain policy for the layout, persists (segment synced before
  /// manifest), and returns the new id (== prior count).
  ReleaseId publish(Bytes body);

  std::size_t release_count() const;

  /// Reconstruct the body of release `id`: nearest cached ancestor (or
  /// the chain's baseline) plus verifier-gated delta applications,
  /// validated against the release's content key before anything is
  /// returned. Results are cached in the disk cache.
  std::shared_ptr<const Bytes> body(ReleaseId id) const;

  /// Storage-level record of release `id`.
  StoredRelease record(ReleaseId id) const;
  std::vector<StoredRelease> releases() const;

  ContentKey content_key(ReleaseId id) const;
  std::optional<ReleaseId> find(const ContentKey& key) const;
  ReleaseId latest() const;

  /// Every stored chain-delta artifact as a (from, to) edge.
  std::vector<StoredEdge> stored_edges() const;

  /// Raw stored artifact bytes of release `id` (the serialized in-place
  /// delta for kDelta, the body for kBaseline). CRC-validated.
  Bytes stored_artifact(ReleaseId id) const;

  /// Chain statistics of the chain ending at `id` (walks base links).
  ChainStats chain_stats(ReleaseId id) const;

  /// Fold release `id`'s chain into one direct delta from its baseline
  /// (delta/compose.hpp — no re-differencing) and persist the re-pointed
  /// artifact. No-op for baselines and length-1 chains. Returns true
  /// when the chain was shortened.
  bool compact(ReleaseId id);

  /// Rewrite the segment file keeping only referenced artifacts and
  /// rewrite the manifest to match (atomic rename; a crash mid-gc leaves
  /// the old epoch intact). Returns bytes reclaimed.
  std::uint64_t gc();

  /// Deep integrity check: every artifact CRC, every delta through the
  /// verifier, every body reconstructed and matched against its content
  /// key. Throws StoreError on the first violation.
  void check() const;

  const RecoveryReport& recovery() const noexcept { return recovery_; }
  const StoreMetrics& metrics() const noexcept { return metrics_; }
  StoreMetrics& metrics() noexcept { return metrics_; }
  const StoreOptions& options() const noexcept { return options_; }
  const std::filesystem::path& dir() const noexcept { return dir_; }
  /// Current segment-file size (cold-start and gc observability).
  std::uint64_t segment_bytes() const;

 private:
  struct PendingArtifact;

  void load_locked() REQUIRES(mutex_);
  std::shared_ptr<const Bytes> reconstruct_locked(ReleaseId id) const
      REQUIRES_SHARED(mutex_);
  Bytes artifact_locked(ReleaseId id) const REQUIRES_SHARED(mutex_);
  /// Verifier gate for a disk-loaded delta artifact (once per release
  /// per process; artifacts are immutable).
  void gate_delta_locked(ReleaseId id, ByteView artifact) const
      REQUIRES_SHARED(mutex_) EXCLUDES(verified_mutex_);
  ChainStats chain_stats_locked(ReleaseId id) const REQUIRES_SHARED(mutex_);
  /// The delta chain baseline -> ... -> id (inclusive), oldest first,
  /// each hop gated and parsed; `tables` borrow `artifacts`.
  struct ParsedChain {
    std::vector<Bytes> artifacts;
    std::vector<ParsedDelta> tables;
    ReleaseId baseline = 0;
  };
  ParsedChain parse_chain_locked(ReleaseId id) const REQUIRES_SHARED(mutex_);
  ReleaseId append_release_locked(StoredKind kind, ReleaseId base,
                                  const ContentKey& key, ByteView artifact)
      REQUIRES(mutex_);
  void append_manifest_locked(std::uint8_t type, const StoredRelease& r)
      REQUIRES(mutex_);
  std::filesystem::path segment_path(std::uint64_t epoch) const;

  std::filesystem::path dir_;
  StoreOptions options_;
  ChainPolicy policy_;
  Pipeline pipeline_;
  Verifier verifier_;
  mutable StoreMetrics metrics_;  // stats, updated from const read paths

  mutable SharedMutex mutex_{"ArtifactStore"};
  RecordLog manifest_ GUARDED_BY(mutex_);
  RecordLog segment_ GUARDED_BY(mutex_);
  std::uint64_t epoch_ GUARDED_BY(mutex_) = 0;
  std::vector<StoredRelease> releases_ GUARDED_BY(mutex_);
  /// Latest id per content address.
  std::map<ContentKey, ReleaseId> by_content_ GUARDED_BY(mutex_);
  mutable VersionDiskCache cache_;  // internally synchronized
  /// Leaf lock (acquired inside mutex_, never the other way around).
  mutable Mutex verified_mutex_{"ArtifactStore::verified"};
  mutable std::unordered_set<ReleaseId> verified_
      GUARDED_BY(verified_mutex_);
  RecoveryReport recovery_;
};

}  // namespace ipd
