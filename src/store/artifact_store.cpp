#include "store/artifact_store.hpp"

#include <algorithm>
#include <cstdio>

#include "core/checksum.hpp"
#include "core/varint.hpp"
#include "delta/compose.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace ipd {

namespace {

constexpr char kManifestMagic[9] = "IPDMANI1";
constexpr char kSegmentMagic[9] = "IPDSEG01";

// Manifest record types.
constexpr std::uint8_t kRecEpoch = 3;    ///< names the live segment file
constexpr std::uint8_t kRecPublish = 1;  ///< one release appended
constexpr std::uint8_t kRecRepoint = 2;  ///< a chain fold re-parented one

/// Cursor over a manifest record payload; throws StoreError (not
/// FormatError) so a malformed-but-CRC-valid record surfaces as the
/// store inconsistency it is.
struct Reader {
  ByteView data;
  std::size_t at = 0;

  std::uint8_t u8() {
    if (at >= data.size()) {
      throw StoreError("store: manifest record truncated");
    }
    return data[at++];
  }
  std::uint64_t uv() {
    const auto r = try_decode_varint(data.subspan(at));
    if (!r) throw StoreError("store: manifest record truncated");
    at += r->consumed;
    return r->value;
  }
  bool done() const noexcept { return at == data.size(); }
};

}  // namespace

std::filesystem::path ArtifactStore::segment_path(
    std::uint64_t epoch) const {
  char name[32];
  std::snprintf(name, sizeof name, "segments-%06llu.dat",
                static_cast<unsigned long long>(epoch));
  return dir_ / name;
}

void ArtifactStore::init(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw StoreError("store: cannot create " + dir.string() + ": " +
                     ec.message());
  }
  if (std::filesystem::exists(dir / "MANIFEST")) {
    throw StoreError("store: " + dir.string() +
                     " already holds a store (init must not eat history)");
  }
  // Segment before manifest: an existing manifest implies its segment.
  {
    char name[32];
    std::snprintf(name, sizeof name, "segments-%06u.dat", 0u);
    RecordLog segment = RecordLog::create(dir / name, kSegmentMagic);
  }
  RecordLog manifest = RecordLog::create(dir / "MANIFEST", kManifestMagic);
  Bytes epoch_record;
  epoch_record.push_back(kRecEpoch);
  append_varint(epoch_record, 0);
  manifest.append(epoch_record);
  manifest.sync();
}

ArtifactStore::ArtifactStore(const std::filesystem::path& dir,
                             const StoreOptions& options)
    : dir_(dir),
      options_(options),
      policy_(options.chain),
      pipeline_(options.pipeline),
      // Served straight to in-place appliers, so conflicts are fatal.
      verifier_(VerifyOptions{.require_in_place = true}),
      cache_(dir / "cache", options.cache_budget, &metrics_) {
  const std::uint64_t t0 = obs::now_ns();
  const WriterLock lock(mutex_);
  load_locked();
  metrics_.open_ns.record(obs::now_ns() - t0);
}

void ArtifactStore::load_locked() {
  if (!std::filesystem::exists(dir_ / "MANIFEST")) {
    throw StoreError("store: " + dir_.string() +
                     " holds no store (run `ipdelta store init` first)");
  }
  // A crashed gc may have left a half-written replacement manifest; the
  // rename never happened, so the old epoch is still the truth.
  std::error_code ec;
  std::filesystem::remove(dir_ / "MANIFEST.tmp", ec);

  manifest_ = RecordLog::open(dir_ / "MANIFEST", kManifestMagic);
  std::vector<Bytes> records;
  const RecoverStats scan = manifest_.recover(
      [&](std::uint64_t, Bytes payload) {
        records.push_back(std::move(payload));
      });
  recovery_.manifest_records = scan.records;
  recovery_.manifest_truncated = scan.truncated;
  recovery_.manifest_bytes_dropped = scan.truncated_bytes;
  if (scan.truncated) {
    metrics_.torn_records_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  if (records.empty()) {
    throw StoreError("store: " + dir_.string() +
                     " manifest has no durable records");
  }

  // Record 0 names the live segment epoch.
  {
    Reader r{records[0]};
    if (r.u8() != kRecEpoch) {
      throw StoreError("store: manifest does not start with an epoch record");
    }
    epoch_ = r.uv();
  }
  segment_ = RecordLog::open(segment_path(epoch_), kSegmentMagic);

  // Stray segment files from a crashed gc (either direction) are not
  // referenced by this manifest; drop them.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("segments-", 0) == 0 &&
        entry.path() != segment_path(epoch_)) {
      std::filesystem::remove(entry.path(), ec);
    }
  }

  // Replay. Semantic violations in CRC-valid records are refusals, not
  // recoveries: silent repair here could resurrect the wrong history.
  std::uint64_t referenced_end = RecordLog::first_record_offset();
  const auto check_extent = [&](const StoredRelease& r) {
    const std::uint64_t end =
        r.segment_offset + RecordLog::framed_size(r.stored_bytes);
    if (r.segment_offset < RecordLog::first_record_offset() ||
        end > segment_.size()) {
      throw StoreError(
          "store: release " + std::to_string(r.id) +
          " references segment bytes beyond the durable prefix");
    }
    referenced_end = std::max(referenced_end, end);
  };

  for (std::size_t i = 1; i < records.size(); ++i) {
    Reader r{records[i]};
    const std::uint8_t type = r.u8();
    if (type == kRecPublish) {
      StoredRelease rel;
      rel.id = static_cast<ReleaseId>(r.uv());
      rel.kind = static_cast<StoredKind>(r.u8());
      rel.base = static_cast<ReleaseId>(r.uv());
      rel.key.crc = static_cast<std::uint32_t>(r.uv());
      rel.key.length = r.uv();
      rel.segment_offset = r.uv();
      rel.stored_bytes = r.uv();
      if (!r.done() || rel.id != releases_.size() ||
          (rel.kind != StoredKind::kBaseline &&
           rel.kind != StoredKind::kDelta) ||
          (rel.kind == StoredKind::kDelta && rel.base >= rel.id) ||
          (rel.kind == StoredKind::kBaseline && rel.base != rel.id)) {
        throw StoreError("store: malformed publish record for release " +
                         std::to_string(rel.id));
      }
      check_extent(rel);
      if (by_content_.contains(rel.key)) {
        metrics_.duplicate_publishes.fetch_add(1,
                                               std::memory_order_relaxed);
      }
      by_content_[rel.key] = rel.id;
      releases_.push_back(rel);
    } else if (type == kRecRepoint) {
      const auto id = static_cast<ReleaseId>(r.uv());
      const auto base = static_cast<ReleaseId>(r.uv());
      const std::uint64_t offset = r.uv();
      const std::uint64_t bytes = r.uv();
      if (!r.done() || id >= releases_.size() || base >= id ||
          releases_[id].kind != StoredKind::kDelta) {
        throw StoreError("store: malformed repoint record for release " +
                         std::to_string(id));
      }
      releases_[id].base = base;
      releases_[id].segment_offset = offset;
      releases_[id].stored_bytes = bytes;
      check_extent(releases_[id]);
    } else {
      throw StoreError("store: unknown manifest record type " +
                       std::to_string(type));
    }
  }
  metrics_.releases_recovered.fetch_add(releases_.size(),
                                        std::memory_order_relaxed);
  recovery_.releases = releases_.size();

  // A crash between a segment append and its manifest record leaves an
  // orphan segment tail no record references — cut it so the file is
  // exactly the referenced extents again. (Superseded fold artifacts
  // before the tail stay until gc; they are referenced history.)
  if (segment_.size() > referenced_end) {
    recovery_.segment_orphan_bytes = segment_.size() - referenced_end;
    metrics_.orphan_bytes_truncated.fetch_add(
        recovery_.segment_orphan_bytes, std::memory_order_relaxed);
    segment_.truncate_to(referenced_end);
    if (options_.sync_writes) segment_.sync();
  }

  if (options_.verify_on_open) {
    for (const StoredRelease& rel : releases_) {
      if (rel.kind == StoredKind::kDelta) {
        gate_delta_locked(rel.id, artifact_locked(rel.id));
      }
      (void)reconstruct_locked(rel.id);
    }
  }
}

std::size_t ArtifactStore::release_count() const {
  const ReaderLock lock(mutex_);
  return releases_.size();
}

StoredRelease ArtifactStore::record(ReleaseId id) const {
  const ReaderLock lock(mutex_);
  if (id >= releases_.size()) {
    throw ValidationError("store: no release " + std::to_string(id));
  }
  return releases_[id];
}

std::vector<StoredRelease> ArtifactStore::releases() const {
  const ReaderLock lock(mutex_);
  return releases_;
}

ContentKey ArtifactStore::content_key(ReleaseId id) const {
  return record(id).key;
}

std::optional<ReleaseId> ArtifactStore::find(const ContentKey& key) const {
  const ReaderLock lock(mutex_);
  const auto it = by_content_.find(key);
  if (it == by_content_.end()) return std::nullopt;
  return it->second;
}

ReleaseId ArtifactStore::latest() const {
  const ReaderLock lock(mutex_);
  if (releases_.empty()) {
    throw ValidationError("store: empty history has no latest");
  }
  return static_cast<ReleaseId>(releases_.size() - 1);
}

std::vector<StoredEdge> ArtifactStore::stored_edges() const {
  const ReaderLock lock(mutex_);
  std::vector<StoredEdge> edges;
  for (const StoredRelease& rel : releases_) {
    if (rel.kind == StoredKind::kDelta) {
      edges.push_back(StoredEdge{rel.base, rel.id, rel.stored_bytes});
    }
  }
  return edges;
}

Bytes ArtifactStore::stored_artifact(ReleaseId id) const {
  const ReaderLock lock(mutex_);
  if (id >= releases_.size()) {
    throw ValidationError("store: no release " + std::to_string(id));
  }
  return artifact_locked(id);
}

std::string ArtifactStore::stats_text() const {
  obs::PrometheusRenderer r("ipdelta_store_");
  metrics_.for_each([&](const char* name, std::uint64_t value) {
    r.counter(name, value);
  });
  metrics_.for_each_histogram([&](const char* name, const obs::Histogram& h) {
    r.histogram(name, h.snapshot());
  });
  return r.str();
}

std::uint64_t ArtifactStore::segment_bytes() const {
  const ReaderLock lock(mutex_);
  return segment_.size();
}

Bytes ArtifactStore::artifact_locked(ReleaseId id) const {
  return segment_.read_at(releases_[id].segment_offset);
}

void ArtifactStore::gate_delta_locked(ReleaseId id,
                                      ByteView artifact) const {
  {
    const MutexLock guard(verified_mutex_);
    if (verified_.contains(id)) return;
  }
  const Report report = verifier_.check(artifact);
  if (!report.ok()) {
    metrics_.verify_rejects.fetch_add(1, std::memory_order_relaxed);
    throw StoreError("store: delta artifact for release " +
                     std::to_string(id) + " failed static verification: " +
                     report.first_error());
  }
  const MutexLock guard(verified_mutex_);
  verified_.insert(id);
}

ChainStats ArtifactStore::chain_stats_locked(ReleaseId id) const {
  ChainStats stats;
  ReleaseId at = id;
  while (releases_[at].kind == StoredKind::kDelta) {
    ++stats.chain_length;
    stats.chain_bytes += releases_[at].stored_bytes;
    at = releases_[at].base;
  }
  stats.releases_since_baseline = id - at;
  return stats;
}

ChainStats ArtifactStore::chain_stats(ReleaseId id) const {
  const ReaderLock lock(mutex_);
  if (id >= releases_.size()) {
    throw ValidationError("store: no release " + std::to_string(id));
  }
  return chain_stats_locked(id);
}

std::shared_ptr<const Bytes> ArtifactStore::body(ReleaseId id) const {
  const ReaderLock lock(mutex_);
  if (id >= releases_.size()) {
    throw ValidationError("store: no release " + std::to_string(id));
  }
  return reconstruct_locked(id);
}

std::shared_ptr<const Bytes> ArtifactStore::reconstruct_locked(
    ReleaseId id) const {
  const StoredRelease& rel = releases_[id];

  // Baselines read straight from the segment; the record CRC plus the
  // content-key check below make the read trustworthy.
  if (rel.kind == StoredKind::kBaseline) {
    Bytes body = artifact_locked(id);
    if (body.size() != rel.key.length || crc32c(body) != rel.key.crc) {
      throw StoreError("store: baseline " + std::to_string(id) +
                       " does not match its content key");
    }
    return std::make_shared<const Bytes>(std::move(body));
  }

  const std::uint64_t t0 = obs::now_ns();

  // Walk up the chain until a disk-cached ancestor or the baseline.
  std::vector<ReleaseId> hops;  // deltas to apply, deepest first
  ReleaseId at = id;
  std::optional<Bytes> start;
  while (true) {
    const StoredRelease& r = releases_[at];
    if (auto cached = cache_.get(r.key)) {
      start = std::move(*cached);
      break;
    }
    if (r.kind == StoredKind::kBaseline) {
      Bytes body = artifact_locked(at);
      if (body.size() != r.key.length || crc32c(body) != r.key.crc) {
        throw StoreError("store: baseline " + std::to_string(at) +
                         " does not match its content key");
      }
      start = std::move(body);
      break;
    }
    hops.push_back(at);
    at = r.base;
  }
  if (hops.empty()) {
    // Cache hit on `id` itself (already validated by the cache).
    return std::make_shared<const Bytes>(std::move(*start));
  }

  metrics_.reconstructs.fetch_add(1, std::memory_order_relaxed);
  Bytes image = std::move(*start);
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    const Bytes artifact = artifact_locked(*it);
    // Trust boundary: bytes from disk prove themselves before they run.
    gate_delta_locked(*it, artifact);
    // The apply below validates the whole delta before it writes; the
    // header alone sizes the image.
    const auto parsed = try_parse_header(artifact);
    if (!parsed) {
      throw FormatError("truncated delta header");
    }
    const DeltaHeader& header = parsed->first;
    if (header.reference_length != image.size()) {
      throw StoreError("store: chain delta for release " +
                       std::to_string(*it) +
                       " does not chain from its parent body");
    }
    image.resize(std::max<std::size_t>(header.reference_length,
                                       header.version_length));
    const length_t new_len = apply_delta_inplace(artifact, image);
    image.resize(static_cast<std::size_t>(new_len));
    metrics_.chain_hops_applied.fetch_add(1, std::memory_order_relaxed);
  }
  if (image.size() != rel.key.length || crc32c(image) != rel.key.crc) {
    throw StoreError("store: reconstruction of release " +
                     std::to_string(id) +
                     " does not match its content key");
  }
  cache_.put(rel.key, image);
  metrics_.reconstruct_ns.record(obs::now_ns() - t0);
  return std::make_shared<const Bytes>(std::move(image));
}

void ArtifactStore::append_manifest_locked(std::uint8_t type,
                                           const StoredRelease& r) {
  Bytes payload;
  payload.push_back(type);
  if (type == kRecPublish) {
    append_varint(payload, r.id);
    payload.push_back(static_cast<std::uint8_t>(r.kind));
    append_varint(payload, r.base);
    append_varint(payload, r.key.crc);
    append_varint(payload, r.key.length);
    append_varint(payload, r.segment_offset);
    append_varint(payload, r.stored_bytes);
  } else {  // kRecRepoint
    append_varint(payload, r.id);
    append_varint(payload, r.base);
    append_varint(payload, r.segment_offset);
    append_varint(payload, r.stored_bytes);
  }
  metrics_.bytes_appended.fetch_add(RecordLog::framed_size(payload.size()),
                                    std::memory_order_relaxed);
  manifest_.append(payload);
  if (options_.sync_writes) manifest_.sync();
}

ReleaseId ArtifactStore::append_release_locked(StoredKind kind,
                                               ReleaseId base,
                                               const ContentKey& key,
                                               ByteView artifact) {
  StoredRelease rel;
  rel.id = static_cast<ReleaseId>(releases_.size());
  rel.key = key;
  rel.kind = kind;
  rel.base = kind == StoredKind::kBaseline ? rel.id : base;
  rel.stored_bytes = artifact.size();

  // Durability order: the artifact must be durable before the manifest
  // record that makes it reachable.
  rel.segment_offset = segment_.append(artifact);
  metrics_.bytes_appended.fetch_add(RecordLog::framed_size(artifact.size()),
                                    std::memory_order_relaxed);
  if (options_.sync_writes) segment_.sync();
  append_manifest_locked(kRecPublish, rel);

  if (by_content_.contains(key)) {
    metrics_.duplicate_publishes.fetch_add(1, std::memory_order_relaxed);
  }
  by_content_[key] = rel.id;
  releases_.push_back(rel);
  metrics_.artifact_bytes.record(artifact.size());
  metrics_.chain_length.record(chain_stats_locked(rel.id).chain_length);
  return rel.id;
}

ArtifactStore::ParsedChain ArtifactStore::parse_chain_locked(
    ReleaseId id) const {
  // Chain hops baseline -> ... -> id, oldest first.
  std::vector<ReleaseId> hops;
  ReleaseId at = id;
  while (releases_[at].kind == StoredKind::kDelta) {
    hops.push_back(at);
    at = releases_[at].base;
  }
  std::reverse(hops.begin(), hops.end());
  if (hops.empty()) {
    throw ValidationError("store: release " + std::to_string(id) +
                          " is a baseline; nothing to fold");
  }
  ParsedChain chain;
  chain.baseline = at;
  chain.artifacts.reserve(hops.size());
  chain.tables.reserve(hops.size());
  for (const ReleaseId hop : hops) {
    const Bytes& artifact = chain.artifacts.emplace_back(artifact_locked(hop));
    gate_delta_locked(hop, artifact);
    const ParsedDelta& table = chain.tables.emplace_back(parse_delta(artifact));
    metrics_.fold_commands.fetch_add(table.commands.size(),
                                     std::memory_order_relaxed);
  }
  return chain;
}

ReleaseId ArtifactStore::publish(Bytes body) {
  const std::uint64_t t0 = obs::now_ns();
  const ContentKey key{crc32c(body), body.size()};
  const WriterLock lock(mutex_);
  metrics_.publishes.fetch_add(1, std::memory_order_relaxed);

  if (releases_.empty()) {
    metrics_.baselines_stored.fetch_add(1, std::memory_order_relaxed);
    const ReleaseId id =
        append_release_locked(StoredKind::kBaseline, 0, key, body);
    cache_.put(key, body);
    metrics_.publish_ns.record(obs::now_ns() - t0);
    return id;
  }

  const auto tip = static_cast<ReleaseId>(releases_.size() - 1);
  const std::shared_ptr<const Bytes> tip_body = reconstruct_locked(tip);
  BuildResult built = pipeline_.build_inplace(*tip_body, body);

  const ChainStats stats = chain_stats_locked(tip);
  ChainDecision decision =
      policy_.decide(stats, built.delta.size(), body.size());

  if (decision.action == ChainAction::kFoldToBaseline) {
    // Re-anchor on the baseline by composing the chain's scripts with
    // the fresh tip delta — command-stream cost only, no differencing
    // over the full bodies.
    ParsedChain chain = parse_chain_locked(tip);
    chain.tables.push_back(parse_delta(built.delta));
    const Script direct = fold_chain(chain.tables);
    const ReleaseId baseline = chain.baseline;
    const std::shared_ptr<const Bytes> base_body =
        reconstruct_locked(baseline);
    Bytes folded = make_inplace_delta(direct, *base_body, body,
                                      options_.pipeline.convert, nullptr,
                                      options_.pipeline.compress_payload);
    if (policy_.accept_fold(folded.size(), body.size())) {
      metrics_.folds.fetch_add(1, std::memory_order_relaxed);
      metrics_.deltas_stored.fetch_add(1, std::memory_order_relaxed);
      const ReleaseId id =
          append_release_locked(StoredKind::kDelta, baseline, key, folded);
      cache_.put(key, body);
      metrics_.publish_ns.record(obs::now_ns() - t0);
      return id;
    }
    decision.action = ChainAction::kNewBaseline;  // fold did not pay
  }

  if (decision.action == ChainAction::kNewBaseline) {
    metrics_.baselines_stored.fetch_add(1, std::memory_order_relaxed);
    const ReleaseId id =
        append_release_locked(StoredKind::kBaseline, 0, key, body);
    cache_.put(key, body);
    metrics_.publish_ns.record(obs::now_ns() - t0);
    return id;
  }

  metrics_.deltas_stored.fetch_add(1, std::memory_order_relaxed);
  const ReleaseId id =
      append_release_locked(StoredKind::kDelta, tip, key, built.delta);
  cache_.put(key, body);
  metrics_.publish_ns.record(obs::now_ns() - t0);
  return id;
}

bool ArtifactStore::compact(ReleaseId id) {
  const WriterLock lock(mutex_);
  if (id >= releases_.size()) {
    throw ValidationError("store: no release " + std::to_string(id));
  }
  if (releases_[id].kind != StoredKind::kDelta) return false;
  if (chain_stats_locked(id).chain_length < 2) return false;

  const std::shared_ptr<const Bytes> target = reconstruct_locked(id);
  const ParsedChain chain = parse_chain_locked(id);
  const ReleaseId baseline = chain.baseline;
  const std::shared_ptr<const Bytes> base_body =
      reconstruct_locked(baseline);
  const Bytes folded = make_inplace_delta(
      fold_chain(chain.tables), *base_body, *target,
      options_.pipeline.convert, nullptr, options_.pipeline.compress_payload);

  StoredRelease& rel = releases_[id];
  rel.base = baseline;
  rel.stored_bytes = folded.size();
  rel.segment_offset = segment_.append(folded);
  metrics_.bytes_appended.fetch_add(RecordLog::framed_size(folded.size()),
                                    std::memory_order_relaxed);
  if (options_.sync_writes) segment_.sync();
  append_manifest_locked(kRecRepoint, rel);
  metrics_.folds.fetch_add(1, std::memory_order_relaxed);
  {
    // The artifact changed; the old verification verdict is stale.
    const MutexLock guard(verified_mutex_);
    verified_.erase(id);
  }
  return true;
}

std::uint64_t ArtifactStore::gc() {
  const WriterLock lock(mutex_);
  const std::uint64_t before =
      segment_.size() + manifest_.size();

  const std::uint64_t new_epoch = epoch_ + 1;
  RecordLog new_segment =
      RecordLog::create(segment_path(new_epoch), kSegmentMagic);
  std::vector<StoredRelease> rewritten = releases_;
  for (StoredRelease& rel : rewritten) {
    const Bytes artifact = segment_.read_at(rel.segment_offset);
    rel.segment_offset = new_segment.append(artifact);
  }
  new_segment.sync();

  {
    RecordLog new_manifest =
        RecordLog::create(dir_ / "MANIFEST.tmp", kManifestMagic);
    Bytes epoch_record;
    epoch_record.push_back(kRecEpoch);
    append_varint(epoch_record, new_epoch);
    new_manifest.append(epoch_record);
    for (const StoredRelease& rel : rewritten) {
      Bytes payload;
      payload.push_back(kRecPublish);
      append_varint(payload, rel.id);
      payload.push_back(static_cast<std::uint8_t>(rel.kind));
      append_varint(payload, rel.base);
      append_varint(payload, rel.key.crc);
      append_varint(payload, rel.key.length);
      append_varint(payload, rel.segment_offset);
      append_varint(payload, rel.stored_bytes);
      new_manifest.append(payload);
    }
    new_manifest.sync();
  }

  // The commit point: one atomic rename. Before it the old epoch is the
  // store; after it the new one is. Either crash outcome is a valid
  // store plus stray files the next open deletes.
  const std::filesystem::path old_segment = segment_path(epoch_);
  manifest_ = RecordLog();  // close before replacing the file
  segment_ = RecordLog();
  std::filesystem::rename(dir_ / "MANIFEST.tmp", dir_ / "MANIFEST");
  std::error_code ec;
  std::filesystem::remove(old_segment, ec);

  manifest_ = RecordLog::open(dir_ / "MANIFEST", kManifestMagic);
  segment_ = RecordLog::open(segment_path(new_epoch), kSegmentMagic);
  epoch_ = new_epoch;
  releases_ = std::move(rewritten);

  const std::uint64_t after = segment_.size() + manifest_.size();
  const std::uint64_t reclaimed = before > after ? before - after : 0;
  metrics_.gc_runs.fetch_add(1, std::memory_order_relaxed);
  metrics_.gc_bytes_reclaimed.fetch_add(reclaimed,
                                        std::memory_order_relaxed);
  return reclaimed;
}

void ArtifactStore::check() const {
  const ReaderLock lock(mutex_);
  for (const StoredRelease& rel : releases_) {
    const Bytes artifact = artifact_locked(rel.id);  // frame CRCs
    if (rel.kind == StoredKind::kDelta) {
      gate_delta_locked(rel.id, artifact);
    }
    (void)reconstruct_locked(rel.id);  // content-key validated inside
  }
}

}  // namespace ipd
