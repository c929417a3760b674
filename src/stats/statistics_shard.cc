#include "stats/statistics_shard.h"

#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "stats/histogram_backends.h"
#include "stats/incremental_backend.h"
#include "stats/serialization.h"

namespace equihist {
namespace {

// Errors that mean "storage misbehaved" and are eligible for degraded
// serving; config and precondition errors always propagate to the caller.
bool IsFaultError(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kDataLoss ||
         code == StatusCode::kResourceExhausted;
}

// The metadata-only snapshot published when a column has no trustworthy
// histogram: a uniform model over an unknown domain (System-R magic
// selectivity), distinct ~ rows so equality estimates degrade to ~1.
std::shared_ptr<const ColumnStatistics> MakeFallbackSnapshot(
    const Table& table) {
  const std::uint64_t n = table.tuple_count();
  ColumnStatistics stats;
  stats.model = std::make_shared<FallbackUniformModel>(n, 0, 0);
  stats.row_count = n;
  stats.density = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  stats.distinct_estimate = static_cast<double>(n);
  stats.from_full_scan = false;
  stats.sample_size = 0;
  return std::make_shared<const ColumnStatistics>(std::move(stats));
}

// Counted-replacement deletes vacate reservoir slots without refilling
// them; once the fill fraction drops below this floor the quantiles are
// too coarse to repair against and the refresh falls back to a full
// rebuild.
constexpr double kReservoirMinFill = 0.25;

// Serving-cache slots kept per thread; old slots are evicted FIFO. The
// cache is a linear-scan vector: with realistically few hot (manager,
// column) pairs per thread this beats any hashed structure.
constexpr std::size_t kMaxServingSlots = 64;

std::uint64_t NextShardId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// FNV-1a: a platform-stable column-name hash, so per-column seed streams
// are reproducible everywhere (std::hash is implementation-defined). At
// namespace scope because the fleet routes columns to shards with the
// same hash (stats/statistics_fleet.cc).
std::uint64_t HashColumnName(const std::string& column) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const char c : column) h = Fnv1aRound(h, static_cast<std::uint8_t>(c));
  return h;
}

StatisticsShard::StatisticsShard(const Options& options)
    : options_(options),
      breaker_policy_{options.breaker_failure_threshold,
                      options.breaker_cooldown_micros, options.clock},
      shard_id_(NextShardId()) {}

ThreadPool* StatisticsShard::pool() {
  std::call_once(pool_once_, [this]() {
    // Clamped to the core count: builds are CPU-bound and fan-out past the
    // hardware threads strictly regresses (BENCH_parallel_scaling.json).
    const std::size_t threads = ResolveBuildThreadCount(options_.threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  });
  return pool_.get();
}

Result<ColumnStatistics> StatisticsShard::Build(const std::string& column,
                                                  const Table& table,
                                                  std::uint64_t seed,
                                                  ThreadPool* build_pool) {
  BackendBuildOptions build;
  build.backend = options_.default_backend;
  const auto it = options_.column_backends.find(column);
  if (it != options_.column_backends.end()) build.backend = it->second;
  build.buckets = options_.buckets;
  build.f = options_.f;
  build.gamma = options_.gamma;
  build.seed = seed;
  build.retry = options_.retry;
  build.max_skipped_blocks = options_.max_skipped_blocks;
  build.reservoir_capacity = options_.reservoir_capacity;
  // Every backend's build is one CVB run; the equi-height default
  // publishes CVB's histogram, other backends build from its sample.
  return BuildStatisticsWithBackend(table, build, build_pool);
}

std::shared_ptr<StatisticsShard::Entry> StatisticsShard::FindEntry(
    const std::string& column) const {
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<StatisticsShard::Entry> StatisticsShard::GetEntry(
    const std::string& column) {
  if (std::shared_ptr<Entry> entry = FindEntry(column)) return entry;
  WriterMutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(column);
  if (inserted) it->second = std::make_shared<Entry>(&mu_);
  return it->second;
}

bool StatisticsShard::IsStaleLocked(const Entry& entry) const {
  if (entry.stats == nullptr) return false;
  if (entry.stats->row_count == 0) return true;
  const double modified_fraction =
      static_cast<double>(
          entry.modifications_since_build.load(std::memory_order_relaxed)) /
      static_cast<double>(entry.stats->row_count);
  return modified_fraction > options_.staleness_threshold;
}

bool StatisticsShard::NeedsBuild(const Entry& entry,
                                 bool require_fresh) const {
  return entry.stats == nullptr || entry.serving_fallback ||
         (require_fresh && IsStaleLocked(entry));
}

Result<std::shared_ptr<const ColumnStatistics>> StatisticsShard::Resolve(
    const std::string& column, const Table& table, bool require_fresh,
    Status* build_error) {
  {
    ReaderMutexLock lock(mu_);
    const auto it = entries_.find(column);
    if (it != entries_.end()) {
      const Entry& entry = *it->second;
      entry.AssertReaderHeld();
      // A fallback snapshot satisfies no caller: it goes on to a real
      // build, which the breaker inside BuildAndPublish rate-limits.
      if (!NeedsBuild(entry, require_fresh)) return entry.stats;
    }
  }
  const std::shared_ptr<Entry> entry = GetEntry(column);
  return BuildAndPublish(column, entry.get(), table, require_fresh,
                         build_error);
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::BuildAndPublish(const std::string& column, Entry* entry,
                                   const Table& table, bool require_fresh,
                                   Status* build_error) {
  // One build per column at a time: a second thread arriving here blocks
  // until the first publishes, then takes the fresh snapshot below.
  MutexLock build_lock(entry->build_mu);
  std::uint64_t generation = 0;
  std::uint64_t modifications_at_capture = 0;
  bool breaker_open = false;
  Status breaker_status = Status::OK();
  std::shared_ptr<const ColumnStatistics> current;
  {
    ReaderMutexLock lock(mu_);
    entry->AssertReaderHeld();
    if (!NeedsBuild(*entry, require_fresh)) return entry->stats;
    current = entry->stats;
    // Circuit breaker: while open, don't attempt the *storage* build —
    // noted here, acted on below, after the incremental path got its shot.
    if (!entry->breaker.Admits(breaker_policy_)) {
      breaker_open = true;
      breaker_status = Status::Unavailable(
          "circuit breaker open after " +
          std::to_string(entry->breaker.consecutive_failures()) +
          " consecutive build failures; last: " +
          entry->last_error.ToString());
    }
    generation = entry->generation;
    // Captured now, consumed at publish: only modifications that already
    // existed when this build started may be cleared — DML recorded while
    // the build runs is not reflected in the new snapshot and must keep
    // counting toward its staleness.
    modifications_at_capture =
        entry->modifications_since_build.load(std::memory_order_relaxed);
  }
  // O(Δ) refresh first (DESIGN.md §15): when the live maintained state is
  // warm and within budget, publish from it and skip the storage build
  // entirely. Deliberately tried even while the breaker is open — the
  // refresh reads no pages, so the very faults that opened the breaker
  // cannot hurt it, and it is exactly the repair a column on sick storage
  // wants.
  if (std::shared_ptr<const ColumnStatistics> refreshed =
          TryRefreshIncremental(entry, modifications_at_capture)) {
    return refreshed;
  }
  if (breaker_open) {
    // Keep serving whatever is published (the stale snapshot or the
    // fallback) until the cooldown lets a build through.
    if (current != nullptr) {
      if (build_error != nullptr) *build_error = breaker_status;
      return current;
    }
    return breaker_status;
  }
  // Seed addressed by (shard seed, column, generation): independent of
  // the order in which threads or BuildAll shards reach this column.
  const std::uint64_t seed =
      DeriveStreamSeed(options_.seed ^ HashColumnName(column), generation);
  const std::uint64_t build_started = SteadyMicros();
  Result<ColumnStatistics> built = Build(column, table, seed, pool());
  if (!built.ok()) {
    if (build_error != nullptr) *build_error = built.status();
    return AbsorbBuildFailure(entry, table, built.status());
  }
  metrics_.Observe(metrics::Hist::kBuildLatencyMicros,
                   SteadyMicros() - build_started);
  auto snapshot =
      std::make_shared<const ColumnStatistics>(std::move(built).value());
  // The build factories produce the model (with any compiled read-path
  // state) outside any manager lock; the serving path shares it. A
  // model-less snapshot must never publish — the serving path would have
  // nothing to estimate with.
  if (snapshot->model == nullptr) {
    return Status::Internal("built statistics carry no histogram model");
  }
  Publish(entry, snapshot, modifications_at_capture);
  // Re-arm (or disarm) the live maintenance state from the fresh snapshot.
  // DML that raced the build and landed in the old live state is simply
  // superseded: it still counts toward staleness via the counter above.
  WarmMaintenance(entry, *snapshot);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  metrics_.Increment(metrics::Counter::kBuildsCompleted);
  return snapshot;
}

std::shared_ptr<const ColumnStatistics>
StatisticsShard::TryRefreshIncremental(
    Entry* entry, std::uint64_t modifications_at_capture) {
  // Snapshot the live state under its own lock, then assemble and publish
  // with no maintenance lock held — DML keeps flowing while we publish.
  std::optional<Histogram> histogram;
  std::optional<BackingReservoir> reservoir;
  {
    MutexLock lock(entry->maintenance.mu);
    MaintenanceState& m = entry->maintenance;
    if (!m.live.has_value()) return nullptr;  // cold: never warmed, or disarmed
    // Count-only modifications never reached the reservoir; the live state
    // is unrepresentative and only a full rebuild can catch up.
    if (m.opaque_modifications != 0) return nullptr;
    const BackingReservoir& backing = m.live->backing_sample();
    if (backing.population() == 0 || backing.size() == 0) return nullptr;
    // Counted-replacement deletes drain the reservoir without refilling
    // it; below the fill floor its quantiles are too coarse to trust.
    if (backing.fill_fraction() < kReservoirMinFill) return nullptr;
    // Repair budget: past this much absorbed DML (relative to the live row
    // count) the accumulated drift calls for a reseed from the table.
    if (static_cast<double>(backing.ops_since_seed()) >
        options_.incremental_repair_budget *
            static_cast<double>(backing.population())) {
      return nullptr;
    }
    Result<Histogram> snapshot = m.live->Snapshot();
    if (!snapshot.ok()) return nullptr;  // pre-first-insert: nothing to publish
    histogram = std::move(snapshot).value();
    reservoir = backing;  // copy; `live` keeps absorbing DML meanwhile
  }
  Result<ColumnStatistics> built =
      MakeIncrementalStatistics(*histogram, std::move(*reservoir));
  if (!built.ok()) return nullptr;  // fall through to the full build
  auto snapshot =
      std::make_shared<const ColumnStatistics>(std::move(built).value());
  // A successful refresh heals like a successful build: the column is
  // demonstrably servable again.
  Publish(entry, snapshot, modifications_at_capture);
  incremental_refreshes_.fetch_add(1, std::memory_order_relaxed);
  metrics_.Increment(metrics::Counter::kIncrementalRefreshes);
  return snapshot;
}

void StatisticsShard::Publish(Entry* entry,
                              std::shared_ptr<const ColumnStatistics> snapshot,
                              std::uint64_t modifications_at_capture) {
  WriterMutexLock lock(mu_);
  entry->AssertWriterHeld();
  total_build_cost_ += snapshot->build_cost;
  entry->stats = std::move(snapshot);
  entry->generation += 1;
  entry->breaker.RecordSuccess();
  entry->serving_fallback = false;
  entry->quarantined = false;
  entry->last_error = Status::OK();
  // Release-publish so a serving thread that observes the new counter
  // also observes the snapshot it validates.
  entry->published.fetch_add(1, std::memory_order_release);
  entry->modifications_since_build.fetch_sub(modifications_at_capture,
                                             std::memory_order_relaxed);
}

void StatisticsShard::WarmMaintenance(Entry* entry,
                                        const ColumnStatistics& stats) {
  const auto* incremental =
      dynamic_cast<const IncrementalEquiDepthModel*>(stats.model.get());
  MutexLock lock(entry->maintenance.mu);
  MaintenanceState& m = entry->maintenance;
  // The snapshot subsumes everything recorded so far, opaque or not.
  m.opaque_modifications = 0;
  m.live.reset();
  if (incremental == nullptr) return;  // other families stay cold
  GmpOptions gmp;
  gmp.buckets = incremental->histogram().bucket_count();
  gmp.reservoir_capacity = incremental->reservoir().capacity();
  Result<IncrementalEquiDepth> live = IncrementalEquiDepth::FromState(
      gmp, incremental->histogram(), incremental->reservoir());
  // On failure the state stays cold and every refresh falls back to a
  // full rebuild — degraded but correct.
  if (live.ok()) m.live.emplace(std::move(live).value());
}

void StatisticsShard::RecordInsert(const std::string& column, Value value) {
  metrics_.Increment(metrics::Counter::kDmlRecords);
  const std::shared_ptr<Entry> entry = FindEntry(column);
  if (entry == nullptr) return;
  entry->modifications_since_build.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(entry->maintenance.mu);
  if (entry->maintenance.live.has_value()) {
    entry->maintenance.live->Insert(value);
  }
}

void StatisticsShard::RecordDelete(const std::string& column, Value value) {
  metrics_.Increment(metrics::Counter::kDmlRecords);
  const std::shared_ptr<Entry> entry = FindEntry(column);
  if (entry == nullptr) return;
  entry->modifications_since_build.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(entry->maintenance.mu);
  if (entry->maintenance.live.has_value()) {
    entry->maintenance.live->Delete(value);
  }
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::AbsorbBuildFailure(Entry* entry, const Table& table,
                                    const Status& error) {
  metrics_.Increment(metrics::Counter::kBuildsFailed);
  // Non-fault errors (bad options, empty table, internal bugs) are the
  // caller's problem: no breaker, no degradation, just the error.
  if (!IsFaultError(error.code())) return error;
  {
    WriterMutexLock lock(mu_);
    entry->AssertWriterHeld();
    entry->breaker.RecordFailure(breaker_policy_);
    ++entry->total_build_failures;
    entry->last_error = error;
    // Stale-while-error: the failed rebuild leaves the published snapshot
    // untouched (`published` is NOT bumped), so every serving thread keeps
    // its cached snapshot with zero extra cost. The staleness that caused
    // the rebuild persists — the modification counter is not reset — so
    // the next EnsureFresh tries again (breaker permitting).
    if (entry->stats != nullptr) return entry->stats;
  }
  if (!options_.fallback_on_unbuilt) return error;
  // Never-built column on faulty storage: publish the metadata-only
  // uniform fallback so estimation stays available. Health reports
  // kDegraded; a later successful build replaces it.
  auto snapshot = MakeFallbackSnapshot(table);
  {
    WriterMutexLock lock(mu_);
    entry->AssertWriterHeld();
    entry->stats = snapshot;
    entry->serving_fallback = true;
    entry->published.fetch_add(1, std::memory_order_release);
  }
  metrics_.Increment(metrics::Counter::kFallbackPublishes);
  return snapshot;
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::GetOrBuildShared(const std::string& column,
                                    const Table& table) {
  return Resolve(column, table, /*require_fresh=*/false);
}

void StatisticsShard::RecordModifications(const std::string& column,
                                          std::uint64_t count) {
  metrics_.Increment(metrics::Counter::kDmlRecords);
  const std::shared_ptr<Entry> entry = FindEntry(column);
  if (entry == nullptr) return;
  entry->modifications_since_build.fetch_add(count,
                                             std::memory_order_relaxed);
  if (count == 0) return;
  // Opaque DML disqualifies incremental refresh until the next warm-up:
  // the values never reached the reservoir (see TryRefreshIncremental).
  MutexLock lock(entry->maintenance.mu);
  entry->maintenance.opaque_modifications += count;
}

bool StatisticsShard::IsStale(const std::string& column) const {
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return false;
  const Entry& entry = *it->second;
  entry.AssertReaderHeld();
  return IsStaleLocked(entry);
}

Result<std::shared_ptr<const ColumnStatistics>> StatisticsShard::EnsureFresh(
    const std::string& column, const Table& table) {
  return Resolve(column, table, /*require_fresh=*/true);
}

StatisticsShard::BuildAllResult StatisticsShard::BuildAll(
    const std::vector<std::string>& columns, const Table& table) {
  // Per-column outcome: the build error even when degraded serving
  // absorbed it, or the propagated error for non-fault failures.
  auto build_one = [this, &table](const std::string& column) -> Status {
    Status build_error = Status::OK();
    const auto result =
        Resolve(column, table, /*require_fresh=*/true, &build_error);
    if (!result.ok()) return result.status();
    return build_error;
  };

  BuildAllResult result;
  result.attempted = columns.size();
  std::vector<Status> outcomes(columns.size());
  ThreadPool* fan_out = pool();
  if (fan_out == nullptr) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      outcomes[i] = build_one(columns[i]);
    }
  } else {
    // Each column is one pool task; its build then uses the same pool for
    // its internal stages (ParallelFor callers participate, so the nesting
    // cannot starve). Every column is attempted regardless of failures.
    std::vector<std::future<Status>> pending;
    pending.reserve(columns.size());
    for (const std::string& column : columns) {
      pending.push_back(fan_out->Submit(
          [&build_one, column]() -> Status { return build_one(column); }));
    }
    for (std::size_t i = 0; i < pending.size(); ++i) {
      outcomes[i] = pending[i].get();
    }
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (outcomes[i].ok()) {
      ++result.succeeded;
    } else {
      result.failed.emplace_back(columns[i], outcomes[i]);
    }
  }
  return result;
}

Status StatisticsShard::InstallSerializedStatistics(
    const std::string& column, std::span<const std::uint8_t> bytes) {
  const std::shared_ptr<Entry> node = GetEntry(column);
  Entry* const entry = node.get();
  // Installs serialize against live builds of the same column.
  MutexLock build_lock(entry->build_mu);
  // Same race-free accounting as BuildAndPublish: the blob reflects DML
  // up to (at most) this point, so only modifications already recorded
  // may be cleared when it publishes.
  const std::uint64_t modifications_at_capture =
      entry->modifications_since_build.load(std::memory_order_relaxed);
  Result<ColumnStatistics> parsed = DeserializeColumnStatistics(bytes);
  if (parsed.ok() && parsed->model == nullptr) {
    parsed = Status::DataLoss("serialized statistics carry no histogram");
  }
  if (!parsed.ok()) {
    // Quarantine: reject the blob, record why, keep serving whatever was
    // published before. The flag clears on the next successful install or
    // live build.
    WriterMutexLock lock(mu_);
    entry->AssertWriterHeld();
    entry->quarantined = true;
    entry->last_error = parsed.status();
    return parsed.status();
  }
  auto snapshot =
      std::make_shared<const ColumnStatistics>(std::move(parsed).value());
  Publish(entry, snapshot, modifications_at_capture);
  // An installed incremental-equi-depth blob carries its reservoir, so
  // restore-from-catalog re-arms O(Δ) maintenance just like a live build.
  WarmMaintenance(entry, *snapshot);
  return Status::OK();
}

ColumnHealthReport StatisticsShard::Health(const std::string& column) const {
  ColumnHealthReport report;
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return report;  // unknown: kDegraded, !exists
  const Entry& entry = *it->second;
  entry.AssertReaderHeld();
  report.exists = true;
  report.serving_fallback = entry.serving_fallback;
  report.quarantined = entry.quarantined;
  report.consecutive_build_failures = entry.breaker.consecutive_failures();
  report.total_build_failures = entry.total_build_failures;
  if (entry.stats != nullptr && entry.stats->row_count > 0) {
    report.modified_fraction =
        static_cast<double>(entry.modifications_since_build.load(
            std::memory_order_relaxed)) /
        static_cast<double>(entry.stats->row_count);
  }
  report.last_error = entry.last_error;
  report.breaker_open = !entry.breaker.Admits(breaker_policy_);
  if (entry.stats == nullptr || entry.serving_fallback || entry.quarantined) {
    report.health = ColumnHealth::kDegraded;
  } else if (IsStaleLocked(entry) ||
             entry.breaker.consecutive_failures() > 0) {
    report.health = ColumnHealth::kStale;
  } else {
    report.health = ColumnHealth::kFresh;
  }
  return report;
}

bool StatisticsShard::Drop(const std::string& column) {
  WriterMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return false;
  it->second->AssertWriterHeld();
  // A placeholder whose first build failed never became visible.
  const bool existed = it->second->stats != nullptr;
  // Invalidate every thread's serving cache: the bump makes any cached
  // publication count stale, and the refresh goes through the map — where
  // the column no longer exists — rather than the detached entry node.
  it->second->published.fetch_add(1, std::memory_order_release);
  entries_.erase(it);
  return existed;
}

// -- Lock-free serving path --------------------------------------------------

StatisticsShard::ServingState& StatisticsShard::Serving() {
  thread_local ServingState state;
  return state;
}

StatisticsShard::PinnedEvictions StatisticsShard::ThreadPinnedEvictions() {
  return Serving().pinned_evictions;
}

StatisticsShard::CachedServing* StatisticsShard::FindCachedServing(
    const std::string& column) {
  for (CachedServing& slot : Serving().cache) {
    if (slot.shard_id == shard_id_ && slot.column == column) return &slot;
  }
  return nullptr;
}

const StatisticsShard::CachedServing* StatisticsShard::CurrentServing(
    const std::string& column) {
  const CachedServing* slot = FindCachedServing(column);
  if (slot == nullptr || slot->entry->published.load(
                             std::memory_order_acquire) != slot->published) {
    return nullptr;
  }
  return slot;
}

StatisticsShard::CachedServing* StatisticsShard::CaptureServing(
    const std::string& column) {
  CachedServing fresh;
  {
    ReaderMutexLock lock(mu_);
    const auto it = entries_.find(column);
    if (it == entries_.end()) return nullptr;
    it->second->AssertReaderHeld();
    if (it->second->stats == nullptr) return nullptr;
    // Counter and snapshot are mutually consistent here: publishes mutate
    // both under the exclusive lock we are sharing against.
    fresh.published = it->second->published.load(std::memory_order_acquire);
    fresh.model = it->second->stats->model;
    fresh.entry = it->second;
  }
  fresh.shard_id = shard_id_;
  fresh.column = column;
  ServingState& state = Serving();
  CachedServing* slot = FindCachedServing(column);
  if (slot == nullptr) {
    if (state.cache.size() >= kMaxServingSlots) {
      CachedServing& victim = state.cache.front();
      CountPinnedEviction(state, victim);
      state.Release(std::move(victim.model));
      state.cache.erase(state.cache.begin());
    }
    slot = &state.cache.emplace_back();
  }
  state.Release(std::move(slot->model));
  *slot = std::move(fresh);
  return slot;
}

void StatisticsShard::CountPinnedEviction(ServingState& state,
                                          const CachedServing& victim) {
  for (const PinnedColumn& pin : state.pins) {
    if (pin.model != victim.model.get()) continue;
    ++state.pinned_evictions.evicted;
    if (victim.entry->published.load(std::memory_order_acquire) !=
        victim.published) {
      ++state.pinned_evictions.evicted_after_republish;
    }
    return;
  }
}

Result<const HistogramModel*> StatisticsShard::RefreshServing(
    const std::string& column, const Table& table) {
  metrics_.Increment(metrics::Counter::kServingCacheRefreshes);
  if (const CachedServing* slot = CaptureServing(column)) {
    return slot->model.get();
  }
  // Missing or never-built column: build through the normal path, then
  // capture again.
  EQUIHIST_ASSIGN_OR_RETURN(
      const std::shared_ptr<const ColumnStatistics> built,
      Resolve(column, table, /*require_fresh=*/false));
  if (const CachedServing* slot = CaptureServing(column)) {
    return slot->model.get();
  }
  // A concurrent Drop removed the column after the build: answer this
  // call from the snapshot the build returned, but leave it out of the
  // cache, so the dropped column is not served again without a rebuild.
  ServingState& state = Serving();
  state.Release(std::exchange(state.uncached, built->model));
  return state.uncached.get();
}

Result<const HistogramModel*> StatisticsShard::ServingModel(
    const std::string& column, const Table& table) {
  if (const CachedServing* slot = CurrentServing(column)) {
    return slot->model.get();
  }
  return RefreshServing(column, table);
}

Result<double> StatisticsShard::EstimateRange(const std::string& column,
                                              const Table& table,
                                              const RangeQuery& query) {
  metrics_.Increment(metrics::Counter::kEstimateQueries);
  EQUIHIST_ASSIGN_OR_RETURN(const HistogramModel* const model,
                            ServingModel(column, table));
  return model->EstimateRangeCount(query);
}

Status StatisticsShard::EstimateBatch(
    const Table& table, std::span<const BatchEstimateRequest> requests,
    BatchEstimateResult* result) {
  return EstimatePinned(table, requests, result,
                        [this](const std::string&) -> StatisticsShard& {
                          return *this;
                        });
}

Status StatisticsShard::EstimatePinned(
    const Table& table, std::span<const BatchEstimateRequest> requests,
    BatchEstimateResult* result,
    const std::function<StatisticsShard&(const std::string&)>& owner) {
  if (result == nullptr) {
    return Status::InvalidArgument("null batch result");
  }
  const std::size_t n = requests.size();
  result->estimates.assign(n, 0.0);
  // Each distinct column's serving snapshot resolves once, at its first
  // request, and that pinned model answers every later request for the
  // column: the batch is a consistent cut even if a rebuild or drop lands
  // mid-batch. A pin borrows the model from the thread's serving state,
  // which keeps every model it lets go of until the batch returns, so a
  // column that is cached and current costs no refcount write. A
  // predicate list names a handful of columns, so the pins are a
  // linear-scanned vector, reused by the thread's next batch; `base`
  // leaves the pins of a batch further up this thread's stack alone.
  ServingState& state = Serving();
  const std::size_t base = state.pins.size();
  struct Unpin {
    ServingState& state;
    std::size_t base;
    ~Unpin() {
      state.pins.resize(base);
      if (base == 0) state.keep_alive.clear();
    }
  } unpin{state, base};
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& column = requests[i].column;
    std::size_t p = base;
    while (p < state.pins.size() && *state.pins[p].column != column) ++p;
    if (p == state.pins.size()) {
      StatisticsShard& shard = owner(column);
      EQUIHIST_ASSIGN_OR_RETURN(const HistogramModel* const model,
                                shard.ServingModel(column, table));
      state.pins.push_back(PinnedColumn{&column, &shard, model, 0});
    }
    ++state.pins[p].requests;
    result->estimates[i] =
        state.pins[p].model->EstimateRangeCount(requests[i].query);
  }
  // Each touched shard records its part of the batch as one batch: the
  // requests of a shard's later pins fold into its first.
  const std::span<PinnedColumn> pinned =
      std::span(state.pins).subspan(base);
  for (std::size_t p = 0; p < pinned.size(); ++p) {
    if (pinned[p].requests == 0) continue;  // folded into an earlier pin
    for (std::size_t q = p + 1; q < pinned.size(); ++q) {
      if (pinned[q].shard != pinned[p].shard) continue;
      pinned[p].requests += pinned[q].requests;
      pinned[q].requests = 0;
    }
    metrics::MetricsPlane& plane = pinned[p].shard->metrics_;
    plane.Increment(metrics::Counter::kEstimateBatches);
    plane.Increment(metrics::Counter::kEstimateQueries, pinned[p].requests);
    plane.Observe(metrics::Hist::kEstimateBatchSize, pinned[p].requests);
  }
  return Status::OK();
}

bool StatisticsShard::Has(const std::string& column) const {
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return false;
  it->second->AssertReaderHeld();
  return it->second->stats != nullptr;
}

std::size_t StatisticsShard::size() const {
  ReaderMutexLock lock(mu_);
  std::size_t count = 0;
  for (const auto& [name, entry] : entries_) {
    entry->AssertReaderHeld();
    if (entry->stats != nullptr) ++count;
  }
  return count;
}

IoStats StatisticsShard::total_build_cost() const {
  ReaderMutexLock lock(mu_);
  return total_build_cost_;
}

std::uint64_t StatisticsShard::stale_count() const {
  ReaderMutexLock lock(mu_);
  std::uint64_t stale = 0;
  for (const auto& [name, entry] : entries_) {
    entry->AssertReaderHeld();
    if (IsStaleLocked(*entry)) ++stale;
  }
  return stale;
}

}  // namespace equihist
