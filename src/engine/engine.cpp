#include "engine/engine.hpp"

#include <numeric>
#include <thread>

#include "core/error.hpp"
#include "exec/parallel_map.hpp"
#include "exec/worker_budget.hpp"
#include "obs/obs.hpp"

namespace dbp::engine {

void EngineConfig::validate() const {
  DBP_REQUIRE(shard_count >= 1 && shard_count <= 4096,
              "shard count must be in [1, 4096]");
  DBP_REQUIRE(ring_capacity >= 2 && (ring_capacity & (ring_capacity - 1)) == 0,
              "ring capacity must be a power of two >= 2");
  DBP_REQUIRE(!algorithm.empty(), "engine needs a packing algorithm name");
  spec.to_cost_model().validate();
  fault_policy.validate();
  DBP_REQUIRE(fault_policy.on_anomaly == FaultPolicy::AnomalyAction::kDropAndCount,
              "engine shards must use AnomalyAction::kDropAndCount — a "
              "DispatchError thrown on a shard worker cannot unwind into the "
              "producer that submitted the event");
}

struct ShardedDispatchEngine::Shard {
  explicit Shard(const EngineConfig& config)
      : ring(config.ring_capacity),
        dispatcher(config.spec, config.algorithm, config.packer_options,
                   config.fault_policy) {}

  BoundedMpscRing<SessionEvent> ring;
  GameServerDispatcher dispatcher;
  /// Last epoch's RLE snapshot (strictly decreasing sizes); reused, so the
  /// steady state allocates nothing.
  std::vector<SizeRun> snapshot;
  std::uint64_t applied = 0;
};

ShardedDispatchEngine::ShardedDispatchEngine(EngineConfig config,
                                             std::unique_ptr<ShardRouter> router)
    : config_(std::move(config)),
      router_(router ? std::move(router) : std::make_unique<HashShardRouter>()),
      oracle_(config_.spec.to_cost_model(), config_.bin_count,
              config_.oracle_memo_limit) {
  config_.validate();
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
}

ShardedDispatchEngine::~ShardedDispatchEngine() = default;

bool ShardedDispatchEngine::try_submit(const SessionEvent& event) {
  const std::size_t shard = router_->shard_for(event.route_key, shards_.size());
  DBP_REQUIRE(shard < shards_.size(), "router returned an out-of-range shard");
  return shards_[shard]->ring.try_push(event);
}

void ShardedDispatchEngine::submit(const SessionEvent& event) {
  std::uint32_t failed_rounds = 0;
  while (!try_submit(event)) {
    // The shard's ring is full: become the pump if nobody else is, so
    // backpressure drains the backlog instead of deadlocking producers.
    if (pump_mutex_.try_lock()) {
      pump_locked();
      pump_mutex_.unlock();
      failed_rounds = 0;
      continue;
    }
    // Another thread holds the pump — possibly a long advance_epoch. Yield
    // for a bounded number of rounds, then back off exponentially (capped)
    // so a producer stalls cheaply instead of burning a core until the
    // epoch finishes. Timing-only: the event still lands in its shard's
    // ring in this producer's program order.
    const std::chrono::microseconds delay = submit_backoff(++failed_rounds);
    if (delay == std::chrono::microseconds{0}) {
      std::this_thread::yield();
    } else {
      submit_backoffs_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(delay);
    }
  }
}

void ShardedDispatchEngine::drain() {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  pump_locked();
}

std::uint64_t ShardedDispatchEngine::drain_shard(Shard& shard) {
  const std::uint64_t before = shard.applied;
  SessionEvent event;
  while (shard.ring.try_pop(event)) {
    switch (event.kind) {
      case SessionEvent::Kind::kStart:
        (void)shard.dispatcher.start_session(event.session_id,
                                             event.gpu_fraction,
                                             event.time_minutes);
        break;
      case SessionEvent::Kind::kEnd:
        shard.dispatcher.end_session(event.session_id, event.time_minutes);
        break;
    }
    ++shard.applied;
  }
  return shard.applied - before;
}

void ShardedDispatchEngine::pump_locked() {
  if (exec::WorkerBudget::effective() <= 1 || shards_.size() <= 1) {
    // Inline: the caller thread applies every shard's FIFO in shard order.
    // Observability is suppressed exactly as on worker threads, so the
    // exported trace is byte-identical across budgets.
    const exec::WorkerLease lease;
    const obs::ObsScope quiet(nullptr, nullptr);
    for (const std::unique_ptr<Shard>& shard : shards_) drain_shard(*shard);
    return;
  }
  // One job per shard: a job owns its shard exclusively for this pump, so
  // per-shard application stays FIFO and the schedule never affects
  // results — only which thread runs them. The caller thread runs jobs too
  // (OpenMP's master), hence the quiet scope inside the job. Each job
  // returns its drained count only because parallel_map maps to values;
  // Shard::applied is already counted per event.
  std::vector<std::size_t> shard_ids(shards_.size());
  std::iota(shard_ids.begin(), shard_ids.end(), std::size_t{0});
  (void)parallel_map(shard_ids, [this](std::size_t s) {
    const exec::WorkerLease lease;
    const obs::ObsScope quiet(nullptr, nullptr);
    return drain_shard(*shards_[s]);
  });
}

void ShardedDispatchEngine::snapshot_shards_locked() {
  for (const auto& shard : shards_) shard->dispatcher.active_size_runs(shard->snapshot);
}

void ShardedDispatchEngine::merge_snapshots_locked() {
  // K-way merge of the per-shard runs in decreasing size order; bitwise-
  // equal sizes sum their counts. Shard order never matters (addition of
  // uint64 counts is associative), so the merged multiset is partition-
  // invariant: the same active sessions yield the same runs for any shard
  // count — the property the cross-shard differential test pins.
  merged_runs_.clear();
  std::vector<std::size_t>& next = merge_cursors_;
  next.assign(shards_.size(), 0);
  for (;;) {
    bool any = false;
    double best = 0.0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<SizeRun>& runs = shards_[s]->snapshot;
      if (next[s] >= runs.size()) continue;
      const double size = runs[next[s]].size;
      if (!any || size > best) {
        best = size;
        any = true;
      }
    }
    if (!any) break;
    std::uint64_t count = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<SizeRun>& runs = shards_[s]->snapshot;
      if (next[s] < runs.size() && runs[next[s]].size == best) {
        count += runs[next[s]].count;
        ++next[s];
      }
    }
    merged_runs_.push_back(SizeRun{best, count});
  }
}

void ShardedDispatchEngine::advance_epoch(Time now_minutes) {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  DBP_REQUIRE(epochs_ == 0 || now_minutes >= last_epoch_time_,
              "epoch times must be non-decreasing");
  // 1. Close the segment [last_epoch, now): the active multiset over that
  // segment is the one captured at the *previous* epoch (events queued
  // since then carry timestamps >= the epoch they follow). A zero-length
  // segment (now == last epoch — the wire timer thread produces coincident
  // ticks under load) contributes exactly 0 dollars and must not inflate
  // segments/exact_segments; it still refreshes the snapshot below, which
  // is a no-op on bounds when no new events were queued
  // (EngineTest.ZeroLengthEpochSegmentsAreFree).
  if (have_snapshot_) {
    const double minutes = now_minutes - last_epoch_time_;
    if (minutes > 0.0) {
      const double rate = config_.spec.to_cost_model().cost_rate;
      lower_dollars_.add(static_cast<double>(last_bounds_.lower) * minutes * rate);
      upper_dollars_.add(static_cast<double>(last_bounds_.upper) * minutes * rate);
      ++segments_;
      if (last_bounds_.exact()) ++exact_segments_;
    }
  }
  // 2. Apply everything queued, then snapshot and merge.
  pump_locked();
  snapshot_shards_locked();
  merge_snapshots_locked();
  last_bounds_ = oracle_.count_rle(merged_runs_);
  have_snapshot_ = true;
  last_epoch_time_ = now_minutes;
  ++epochs_;
  // 3. Deterministic observability, emitted from the caller thread only —
  // worker threads never record, so traces are byte-identical across
  // worker budgets.
  if (obs::RunTracer* tracer = obs::tracer()) {
    obs::TraceRecord mark;
    mark.time = now_minutes;
    mark.kind = obs::TraceKind::kEpochMark;
    mark.count = events_applied_locked();
    tracer->record(std::move(mark));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::TraceRecord snap;
      snap.time = now_minutes;
      snap.kind = obs::TraceKind::kShardSnapshot;
      snap.shard = s;
      snap.count = shards_[s]->dispatcher.active_sessions();
      tracer->record(std::move(snap));
    }
  }
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("engine.epochs").add();
  }
}

StreamingOptBounds ShardedDispatchEngine::opt_bounds() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  StreamingOptBounds bounds;
  bounds.lower_dollars = lower_dollars_.value();
  bounds.upper_dollars = upper_dollars_.value();
  bounds.segments = segments_;
  bounds.exact_segments = exact_segments_;
  return bounds;
}

double ShardedDispatchEngine::rental_cost_dollars(Time now_minutes) const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  double dollars = 0.0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    dollars += shard->dispatcher.rental_cost_dollars(now_minutes);
  }
  return dollars;
}

std::size_t ShardedDispatchEngine::active_sessions() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->dispatcher.active_sessions();
  }
  return total;
}

std::size_t ShardedDispatchEngine::active_servers() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->dispatcher.active_servers();
  }
  return total;
}

std::uint64_t ShardedDispatchEngine::events_applied() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  return events_applied_locked();
}

std::uint64_t ShardedDispatchEngine::events_applied_locked() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) total += shard->applied;
  return total;
}

DispatcherFaultStats ShardedDispatchEngine::merged_fault_stats() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  DispatcherFaultStats merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const DispatcherFaultStats& stats = shard->dispatcher.fault_stats();
    merged.duplicate_starts += stats.duplicate_starts;
    merged.unknown_ends += stats.unknown_ends;
    merged.unknown_servers += stats.unknown_servers;
    merged.time_order_violations += stats.time_order_violations;
    merged.invalid_sizes += stats.invalid_sizes;
    merged.rental_attempts_failed += stats.rental_attempts_failed;
    merged.sessions_rejected_rental += stats.sessions_rejected_rental;
    merged.sessions_rejected_cap += stats.sessions_rejected_cap;
    merged.sessions_shed += stats.sessions_shed;
    merged.sessions_redispatched += stats.sessions_redispatched;
    merged.sessions_lost_on_crash += stats.sessions_lost_on_crash;
    merged.servers_crashed += stats.servers_crashed;
    merged.backoff_minutes += stats.backoff_minutes;
  }
  return merged;
}

const GameServerDispatcher& ShardedDispatchEngine::shard_dispatcher(
    std::size_t shard) const {
  DBP_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->dispatcher;
}

std::uint64_t ShardedDispatchEngine::oracle_hits() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  return oracle_.hits();
}

std::uint64_t ShardedDispatchEngine::oracle_misses() const {
  const std::lock_guard<std::mutex> lock(pump_mutex_);
  return oracle_.misses();
}

}  // namespace dbp::engine
