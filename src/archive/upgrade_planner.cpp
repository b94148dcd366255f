#include "archive/upgrade_planner.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/checksum.hpp"
#include "delta/compose.hpp"

namespace ipd {

UpgradePlanner::UpgradePlanner(
    std::vector<std::shared_ptr<const Bytes>> releases,
    const PlannerOptions& options)
    : releases_(std::move(releases)), options_(options) {
  if (options_.max_hop_span == 0) {
    throw ValidationError("planner: max_hop_span must be >= 1");
  }
  const MutexLock lock(mutex_);
  for (const auto& body : releases_) {
    if (!body) throw ValidationError("planner: null release body");
  }
}

namespace {

std::vector<std::shared_ptr<const Bytes>> copy_views(
    const std::vector<ByteView>& releases) {
  std::vector<std::shared_ptr<const Bytes>> owned;
  owned.reserve(releases.size());
  for (const ByteView view : releases) {
    owned.push_back(
        std::make_shared<const Bytes>(view.begin(), view.end()));
  }
  return owned;
}

}  // namespace

UpgradePlanner::UpgradePlanner(const std::vector<ByteView>& releases,
                               const PlannerOptions& options)
    : UpgradePlanner(copy_views(releases), options) {}

std::size_t UpgradePlanner::release_count() const {
  const MutexLock lock(mutex_);
  return releases_.size();
}

std::size_t UpgradePlanner::append_release(
    std::shared_ptr<const Bytes> body) {
  if (!body) throw ValidationError("planner: null release body");
  const MutexLock lock(mutex_);
  releases_.push_back(std::move(body));
  return releases_.size() - 1;
}

std::shared_ptr<const Bytes> UpgradePlanner::body_ref(
    std::size_t id) const {
  const MutexLock lock(mutex_);
  if (id >= releases_.size()) {
    throw ValidationError("planner: no release " + std::to_string(id));
  }
  return releases_[id];
}

std::uint64_t UpgradePlanner::edge_bytes_locked(std::size_t from,
                                                std::size_t to) {
  const auto key = std::make_pair(from, to);
  auto it = delta_cache_.find(key);
  if (it == delta_cache_.end()) {
    it = delta_cache_
             .emplace(key, Pipeline(options_.pipeline)
                               .build_inplace(*releases_[from],
                                              *releases_[to])
                               .delta)
             .first;
    deltas_built_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second.size();
}

void UpgradePlanner::seed_edge(std::size_t from, std::size_t to,
                               Bytes artifact) {
  const MutexLock lock(mutex_);
  if (from >= to || to >= releases_.size()) {
    throw ValidationError("planner: need from < to < release_count");
  }
  std::optional<std::pair<DeltaHeader, std::size_t>> parsed;
  try {
    parsed = try_parse_header(artifact);
  } catch (const FormatError&) {
    parsed.reset();
  }
  if (!parsed) {
    throw ValidationError("planner: seeded edge is not a delta container");
  }
  const DeltaHeader& header = parsed->first;
  const Bytes& reference = *releases_[from];
  const Bytes& version = *releases_[to];
  if (header.reference_length != reference.size() ||
      header.version_length != version.size() ||
      header.version_crc != crc32c(version)) {
    throw ValidationError(
        "planner: seeded edge " + std::to_string(from) + " -> " +
        std::to_string(to) + " does not match the release bodies");
  }
  delta_cache_[{from, to}] = std::move(artifact);
}

std::uint64_t UpgradePlanner::prebuild(std::size_t from, std::size_t to) {
  const MutexLock lock(mutex_);
  if (from >= to || to >= releases_.size()) {
    throw ValidationError("planner: need from < to < release_count");
  }
  return edge_bytes_locked(from, to);
}

bool UpgradePlanner::materialized(std::size_t from,
                                  std::size_t to) const {
  const MutexLock lock(mutex_);
  return delta_cache_.contains({from, to});
}

UpgradePlan UpgradePlanner::plan(std::size_t from, std::size_t to) {
  const MutexLock lock(mutex_);
  if (from >= to || to >= releases_.size()) {
    throw ValidationError("planner: need from < to < release_count");
  }

  // Edges materialized before this plan serve without a differencing
  // pass. With a build-cost penalty configured, an un-built edge is not
  // built just to learn its weight — it is priced pessimistically at the
  // full target body (a delta never serves worse than the image) plus
  // the penalty, and only the edges of the CHOSEN route get built below.
  // With no penalty the planner measures lazily, as it always has.
  std::set<std::pair<std::size_t, std::size_t>> pre_built;
  for (const auto& [key, artifact] : delta_cache_) pre_built.insert(key);
  const auto edge_weight = [&](std::size_t a, std::size_t b) {
    if (pre_built.contains({a, b})) {
      return edge_bytes_locked(a, b) + options_.per_hop_overhead;
    }
    if (options_.build_cost_penalty != 0) {
      return releases_[b]->size() + options_.per_hop_overhead +
             options_.build_cost_penalty;
    }
    return edge_bytes_locked(a, b) + options_.per_hop_overhead;
  };

  // Dijkstra over releases from..to; edges (i, j) for j-i <= max_hop_span
  // weighted by delta size + per-hop overhead (+ build penalty). The
  // full-image fallback is an edge from anywhere straight to `to`.
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  const std::size_t n = to - from + 1;
  std::vector<std::uint64_t> dist(n, kInf);
  std::vector<std::size_t> prev(n, 0);
  std::vector<bool> prev_full(n, false);
  std::vector<bool> done(n, false);
  dist[0] = 0;

  using QueueEntry = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue;
  queue.emplace(0, 0);

  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (done[u]) continue;
    done[u] = true;
    if (u == n - 1) break;
    const std::size_t u_abs = from + u;

    const std::size_t span =
        std::min(options_.max_hop_span, n - 1 - u);
    for (std::size_t hop = 1; hop <= span; ++hop) {
      const std::size_t v = u + hop;
      const std::uint64_t w = edge_weight(u_abs, from + v);
      if (d + w < dist[v]) {
        dist[v] = d + w;
        prev[v] = u;
        prev_full[v] = false;
        queue.emplace(dist[v], v);
      }
    }
    // Full-image jump straight to the target (nothing to build).
    const std::uint64_t w_full =
        releases_[to]->size() + options_.per_hop_overhead;
    if (d + w_full < dist[n - 1]) {
      dist[n - 1] = d + w_full;
      prev[n - 1] = u;
      prev_full[n - 1] = true;
      queue.emplace(dist[n - 1], n - 1);
    }
  }

  if (dist[n - 1] == kInf) {
    throw Error("planner: no path found (internal error)");
  }

  UpgradePlan plan;
  std::vector<std::size_t> order;
  std::vector<bool> full;
  for (std::size_t v = n - 1; v != 0; v = prev[v]) {
    order.push_back(v);
    full.push_back(prev_full[v]);
  }
  std::reverse(order.begin(), order.end());
  std::reverse(full.begin(), full.end());

  std::size_t at = from;
  for (std::size_t i = 0; i < order.size(); ++i) {
    UpgradeStep step;
    step.from = at;
    step.to = from + order[i];
    step.full_image = full[i];
    step.bytes = step.full_image ? releases_[step.to]->size()
                                 : edge_bytes_locked(step.from, step.to);
    plan.total_bytes += step.bytes;
    plan.steps.push_back(step);
    at = step.to;
  }
  return plan;
}

Bytes UpgradePlanner::step_artifact(const UpgradeStep& step) {
  if (step.full_image) {
    return *body_ref(step.to);  // copy of the shared body
  }
  const MutexLock lock(mutex_);
  if (step.to >= releases_.size() || step.from >= step.to) {
    throw ValidationError("planner: bad step");
  }
  edge_bytes_locked(step.from, step.to);  // ensure cached
  return delta_cache_.at({step.from, step.to});
}

Bytes UpgradePlanner::fold_plan(const UpgradePlan& plan) {
  if (plan.steps.empty()) {
    throw ValidationError("fold_plan: empty plan");
  }
  if (plan.steps.size() == 1) {
    return step_artifact(plan.steps.front());
  }
  // Any full-image step makes everything before it irrelevant.
  for (const UpgradeStep& step : plan.steps) {
    if (step.full_image) {
      return step_artifact(plan.steps.back());
    }
  }
  std::vector<Bytes> artifacts;
  std::vector<ParsedDelta> hops;
  artifacts.reserve(plan.steps.size());
  hops.reserve(plan.steps.size());
  for (const UpgradeStep& step : plan.steps) {
    hops.push_back(parse_delta(artifacts.emplace_back(step_artifact(step))));
  }
  const Script folded = fold_chain(hops);
  // Shared refs keep both endpoint bodies alive without the lock.
  const std::shared_ptr<const Bytes> reference =
      body_ref(plan.steps.front().from);
  const std::shared_ptr<const Bytes> version =
      body_ref(plan.steps.back().to);
  return make_inplace_delta(folded, *reference, *version,
                            options_.pipeline.convert, nullptr,
                            options_.pipeline.compress_payload);
}

void UpgradePlanner::execute(const UpgradePlan& plan, Bytes& image) {
  for (const UpgradeStep& step : plan.steps) {
    const std::shared_ptr<const Bytes> target = body_ref(step.to);
    if (step.full_image) {
      image = *target;
      continue;
    }
    const Bytes delta = step_artifact(step);
    image.resize(std::max(image.size(), target->size()));
    const length_t new_len = apply_delta_inplace(delta, image);
    image.resize(static_cast<std::size_t>(new_len));
  }
}

}  // namespace ipd
