// dbp_perfbench — the repository benchmark (perfbench/README.md).
//
// Runs one named workload through the public APIs of src/opt, src/engine
// and src/net, checks the outputs, and prints one JSON result line:
//
//   dbp_perfbench --workload=opt_uniform|engine_gaming|wire_gaming
//                 --seed=N --seconds=S --trace=0|1 [--tiny]
//
// A run repeats "passes" until --seconds of timed work have accumulated
// (and at least kMinPasses). Pass k generates its inputs from sub-seed k of
// --seed and builds a fresh engine/server (set-up, outside the timed
// region), then times the workload's pipeline. --trace=0 prints the
// end-to-end metrics; --trace=1 alternates untraced and traced passes,
// replays each layer's public functions on the same inputs, writes the span
// file to kOutDir, and prints the per-layer metrics. Any failed check
// prints {"correct": false, ...} with no metrics and exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <malloc.h>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/arena.hpp"
#include "core/compensated_sum.hpp"
#include "core/metrics.hpp"
#include "engine/engine.hpp"
#include "exec/worker_budget.hpp"
#include "gaming/dispatcher.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "net/wire_server.hpp"
#include "obs/obs.hpp"
#include "opt/bin_count.hpp"
#include "opt/classical.hpp"
#include "opt/exact.hpp"
#include "opt/lower_bounds.hpp"
#include "opt/opt_total.hpp"
#include "opt/scratch.hpp"
#include "sim/event.hpp"
#include "workload/cloud_gaming.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace dbp;
using Stream = std::vector<engine::SessionEvent>;

// DBP_LINT_ALLOW(wall-clock): benchmark harness — measuring wall time is its
// entire job; timings go to the result line and the span file only.
using Clock = std::chrono::steady_clock;

/// exec::WorkerBudget (OpenMP team and pump fan-out size) of a workload.
/// engine_gaming runs at 1: at 2, the pump starts two fresh threads per
/// drain and per epoch, and its figures then tracked the host's idle-vCPU
/// wake-up latency (up to 40% apart between runs) rather than the code.
int worker_budget(const std::string& workload) {
  return workload == "engine_gaming" ? 1 : 2;
}
constexpr std::size_t kShards = 4;
constexpr std::size_t kEngineCutEvery = 100;  ///< engine_gaming epoch cadence
constexpr std::size_t kWireCutEvery = 1000;   ///< wire_gaming epoch cadence
constexpr std::size_t kMinPasses = 3;
/// The oracle-miss snapshots of traced passes are replayed through the
/// solver chain until this many are collected (~4 engine_gaming passes,
/// every wire_gaming pass), bounding the traced run's replay time.
constexpr std::size_t kMaxReplaySnapshots = 6000;
/// Hours of a gaming trace the opt-layer replay estimates (first_hours).
constexpr double kOptReplayHours = 6.0;
/// Span files and wire sockets, relative to the working directory (the
/// checkout root), so socket paths stay short.
constexpr const char* kOutDir = ".bench_build/out";
/// Unattributed share of a traced pass (benchmark time outside every layer
/// span) above which the traced run fails its self-check.
constexpr double kMaxUnattributedFrac = 0.05;

/// Thrown by a failed correctness check; the run then reports a failure.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- spans ----------------------------------------------------------------

/// In-memory span log: one span per call (or run of consecutive calls) at a
/// layer boundary, written out when the run ends. Disabled logs take no
/// clock reads.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int pass = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  int begin(std::string name, int parent, int pass) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), parent, pass, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] Clock::time_point origin() const noexcept { return origin_; }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Self time per span name over the spans of `passes`: each span's duration
/// minus the durations of its children (children never overlap — every
/// span is recorded on the main thread).
std::map<std::string, double> self_ms_by_name(const SpanLog& log,
                                              const std::vector<int>& passes) {
  const auto& spans = log.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanLog::Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += ms_between(span.start, span.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::find(passes.begin(), passes.end(), spans[i].pass) == passes.end()) continue;
    out[spans[i].name] += ms_between(spans[i].start, spans[i].end) - child_ms[i];
  }
  return out;
}

// ---- inputs ---------------------------------------------------------------

struct Sizes {
  std::size_t uniform_items;
  double gaming_hours;
};

/// Shape of `dbp_gen --kind=random --mu=8 --rate=10`: continuous sizes in
/// [0.05, 0.5] of a bin, ~80 items active in steady state.
Instance make_uniform_instance(std::size_t items, std::uint64_t seed) {
  RandomInstanceConfig config;
  config.item_count = items;
  config.arrival.rate = 10.0;
  config.duration.max_length = 8.0;
  config.size.min_fraction = 0.05;
  config.size.max_fraction = 0.5;
  return generate_random_instance(config, seed);
}

/// Multi-day cloud-gaming trace: default 8-title catalog (dyadic GPU
/// fractions 1/8..1/2), 40 arrivals/minute at the diurnal peak.
Instance make_gaming_instance(double hours, std::uint64_t seed) {
  CloudGamingConfig config;
  config.horizon_hours = hours;
  config.peak_arrivals_per_minute = 40.0;
  return generate_cloud_gaming_trace(config, seed).instance;
}

/// The instance's sorted event sequence as engine session events.
Stream to_stream(const Instance& instance) {
  Stream stream;
  stream.reserve(2 * instance.size());
  for (const Event& event : build_event_sequence(instance)) {
    if (event.kind == EventKind::kArrival) {
      stream.push_back(engine::start_event(event.item, instance.item(event.item).size,
                                           event.time));
    } else {
      stream.push_back(engine::end_event(event.item, event.time));
    }
  }
  return stream;
}

bool same_stream(const Stream& a, const Stream& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const engine::SessionEvent& x, const engine::SessionEvent& y) {
                      return x.session_id == y.session_id &&
                             x.gpu_fraction == y.gpu_fraction &&
                             x.time_minutes == y.time_minutes && x.kind == y.kind &&
                             x.route_key == y.route_key;
                    });
}

engine::EngineConfig engine_config() {
  engine::EngineConfig config;
  config.shard_count = kShards;
  return config;
}

std::uint64_t failed_sessions(const DispatcherFaultStats& faults) {
  return faults.total_dropped_events() + faults.sessions_rejected_rental +
         faults.sessions_rejected_cap + faults.sessions_shed +
         faults.sessions_lost_on_crash;
}

// ---- pipeline passes ------------------------------------------------------

/// Certified bounds and bill at one cut, as the engine reports them.
struct CutAnswer {
  double lower = 0.0;
  double upper = 0.0;
  double bill = 0.0;
  friend bool operator==(const CutAnswer&, const CutAnswer&) = default;
};

/// What one pass of any pipeline produced.
struct PassResult {
  double wall_ms = 0.0;
  std::size_t events = 0;
  std::vector<double> cut_ms;  ///< per-cut latency samples
  std::vector<CutAnswer> answers;  ///< wire: every query answer
  double lower = 0.0;          ///< certified OPT_total bounds at the end
  double upper = 0.0;
  double bill = 0.0;           ///< engine/wire: aggregate bill at the horizon
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Layer observations (filled on traced passes).
  std::map<std::string, double> layer;  ///< counters and means by metric name
  std::vector<std::vector<SizeRun>> miss_snapshots;  ///< engine oracle misses
  OptTotalResult opt{};
};

/// opt_uniform pipeline: one batch estimate_opt_total. On traced passes the
/// opt_total.* phase timers are read through an ObsScope registry.
PassResult run_opt_pass(const Instance& instance, const CostModel& model,
                        SpanLog& log, int pass) {
  PassResult out;
  out.events = 2 * instance.size();
  obs::MetricsRegistry registry;
  const obs::ObsScope scope(nullptr, log.enabled() ? &registry : nullptr);
  const int root = log.begin("pass", -1, pass);
  const Clock::time_point t0 = Clock::now();
  const int span = log.begin("opt.estimate", root, pass);
  out.opt = estimate_opt_total(instance, model);
  log.end(span);
  const Clock::time_point t1 = Clock::now();
  log.end(root);
  out.wall_ms = ms_between(t0, t1);
  out.cut_ms.push_back(out.wall_ms);
  out.lower = out.opt.lower_cost;
  out.upper = out.opt.upper_cost;
  out.attempted = 1;
  if (log.enabled()) {
    for (const char* phase : {"sweep", "evaluate", "combine"}) {
      const auto stats = registry.timer_stats(std::string("opt_total.") + phase);
      out.layer[std::string("opt.") + phase + "_ms"] = stats ? stats->total_ms : 0.0;
    }
  }
  return out;
}

/// engine_gaming pipeline: one producer submits the stream; every `cut_every`
/// events it calls drain() and advance_epoch() — the cut latency sample.
PassResult run_engine_pass(engine::ShardedDispatchEngine& eng, const Stream& stream,
                           std::size_t cut_every, SpanLog& log, int pass) {
  PassResult out;
  out.events = stream.size();
  out.cut_ms.reserve(stream.size() / cut_every + 1);
  std::uint64_t misses_seen = 0;
  double merged_runs = 0.0;
  double active = 0.0;
  std::size_t epochs = 0;
  const auto cut = [&](Time t, int root) {
    const Clock::time_point c0 = Clock::now();
    const int drain = log.begin("engine.drain", root, pass);
    eng.drain();
    log.end(drain);
    const int epoch = log.begin("engine.epoch", root, pass);
    eng.advance_epoch(t);
    log.end(epoch);
    out.cut_ms.push_back(ms_between(c0, Clock::now()));
    if (log.enabled()) {
      ++epochs;
      merged_runs += static_cast<double>(eng.merged_snapshot_rle().size());
      active += static_cast<double>(eng.active_sessions());
      if (eng.oracle_misses() > misses_seen) {
        misses_seen = eng.oracle_misses();
        out.miss_snapshots.push_back(eng.merged_snapshot_rle());
      }
    }
  };
  const int root = log.begin("pass", -1, pass);
  const Clock::time_point t0 = Clock::now();
  int submit = -1;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (submit < 0) submit = log.begin("engine.submit", root, pass);
    eng.submit(stream[i]);
    if ((i + 1) % cut_every == 0) {
      log.end(submit);
      submit = -1;
      cut(stream[i].time_minutes, root);
    }
  }
  log.end(submit);
  const Time horizon = stream.empty() ? 0.0 : stream.back().time_minutes;
  cut(horizon, root);
  const engine::StreamingOptBounds bounds = eng.opt_bounds();
  const Clock::time_point t1 = Clock::now();
  log.end(root);
  out.wall_ms = ms_between(t0, t1);
  out.lower = bounds.lower_dollars;
  out.upper = bounds.upper_dollars;
  out.bill = eng.rental_cost_dollars(horizon);
  out.attempted = stream.size();
  out.failed = failed_sessions(eng.merged_fault_stats()) +
               (stream.size() - std::min<std::uint64_t>(stream.size(), eng.events_applied()));
  check(eng.events_applied() == stream.size(), "engine: events_applied != submitted");
  check(eng.merged_fault_stats().total_dropped_events() == 0, "engine: dropped events");
  if (log.enabled()) {
    out.layer["engine.epochs"] = static_cast<double>(epochs);
    out.layer["engine.submit_backoffs"] = static_cast<double>(eng.submit_backoffs());
    out.layer["engine.oracle_misses"] = static_cast<double>(eng.oracle_misses());
    out.layer["engine.merged_runs_mean"] = merged_runs / static_cast<double>(epochs);
    out.layer["engine.active_sessions_mean"] = active / static_cast<double>(epochs);
  }
  return out;
}

double json_field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = body.find(needle);
  check(at != std::string::npos, std::string("query body lacks ") + key);
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

CutAnswer parse_answer(const net::WireResponse& response) {
  check(response.error == net::WireError::kNone, "wire: query rejected: " + response.detail);
  return CutAnswer{json_field(response.body, "lower_dollars"),
                   json_field(response.body, "upper_dollars"),
                   json_field(response.body, "bill_dollars")};
}

/// In-process replay of the wire pass's request sequence: advance_epoch at
/// the same cuts, then the query's drain and reads. The wire answers must
/// match it bit for bit.
std::vector<CutAnswer> reference_answers(const Stream& stream, std::size_t cut_every) {
  engine::ShardedDispatchEngine eng(engine_config());
  std::vector<CutAnswer> answers;
  const auto cut = [&](Time t) {
    eng.advance_epoch(t);
    eng.drain();
    const engine::StreamingOptBounds b = eng.opt_bounds();
    answers.push_back(CutAnswer{b.lower_dollars, b.upper_dollars, eng.rental_cost_dollars(t)});
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    eng.submit(stream[i]);
    if ((i + 1) % cut_every == 0) cut(stream[i].time_minutes);
  }
  cut(stream.empty() ? 0.0 : stream.back().time_minutes);
  return answers;
}

/// A fresh engine behind an in-process WireServer (no timer thread) and one
/// binary-framing client: the set-up of a wire pass.
struct WireRig {
  engine::ShardedDispatchEngine eng{engine_config()};
  std::unique_ptr<net::WireServer> server;
  std::unique_ptr<net::WireClient> client;

  explicit WireRig(const std::string& socket_path) {
    net::WireServerConfig config;
    config.socket_path = socket_path;
    server = std::make_unique<net::WireServer>(eng, config);
    server->start();
    client = std::make_unique<net::WireClient>(socket_path, net::WireClient::Framing::kBinary);
  }
  ~WireRig() {
    client.reset();
    server->stop();
  }
  WireRig(const WireRig&) = delete;
  WireRig& operator=(const WireRig&) = delete;
};

/// wire_gaming pipeline: the client pipelines submits; every `cut_every`
/// events it sends `epoch` and waits for a `query` answer — the cut latency
/// sample (client side, epoch sent to answer received).
PassResult run_wire_pass(WireRig& rig, const Stream& stream, std::size_t cut_every,
                         SpanLog& log, int pass) {
  PassResult out;
  out.events = stream.size();
  net::WireClient& client = *rig.client;
  std::vector<CutAnswer>& answers = out.answers;
  const auto cut = [&](Time t, int root) {
    const Clock::time_point c0 = Clock::now();
    const int span = log.begin("net.query", root, pass);
    client.epoch(t);
    const net::WireResponse response = client.query(t);
    log.end(span);
    out.cut_ms.push_back(ms_between(c0, Clock::now()));
    answers.push_back(parse_answer(response));
  };
  const int root = log.begin("pass", -1, pass);
  const Clock::time_point t0 = Clock::now();
  int write = -1;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (write < 0) write = log.begin("net.client_write", root, pass);
    client.submit(stream[i]);
    if ((i + 1) % cut_every == 0) {
      log.end(write);
      write = -1;
      cut(stream[i].time_minutes, root);
    }
  }
  log.end(write);
  cut(stream.empty() ? 0.0 : stream.back().time_minutes, root);
  const Clock::time_point t1 = Clock::now();
  log.end(root);
  out.wall_ms = ms_between(t0, t1);
  out.lower = answers.back().lower;
  out.upper = answers.back().upper;
  out.bill = answers.back().bill;
  const net::WireServerStats stats = rig.server->stats();
  const DispatcherFaultStats faults = rig.eng.merged_fault_stats();
  const std::uint64_t requests = stream.size() + 2 * answers.size();
  out.attempted = requests;
  out.failed = stats.frames_rejected + client.async_errors().size() +
               failed_sessions(faults) +
               (stream.size() - std::min<std::uint64_t>(stream.size(), rig.eng.events_applied()));
  check(client.async_errors().empty(), "wire: asynchronous rejections");
  check(stats.frames_rejected == 0, "wire: server rejected frames");
  check(stats.events_submitted == stream.size(), "wire: events_submitted != sent");
  check(rig.eng.events_applied() == stream.size(), "wire: events_applied != sent");
  if (log.enabled()) {
    out.layer["net.bytes_per_event"] =
        static_cast<double>(stats.bytes_in) / static_cast<double>(stream.size());
    out.layer["net.frames_per_event"] =
        static_cast<double>(stats.frames_received) / static_cast<double>(stream.size());
    out.layer["net.frames_rejected"] = static_cast<double>(stats.frames_rejected);
  }
  return out;
}

// ---- layer replays (traced runs only) --------------------------------------

/// Distinct active-set snapshots of a batch instance in first-occurrence
/// order with their total widths — the set estimate_opt_total evaluates.
struct BatchSnapshots {
  std::vector<std::vector<SizeRun>> runs;
  std::vector<double> widths;
};

BatchSnapshots sweep_snapshots(const Instance& instance) {
  BatchSnapshots out;
  std::vector<CompensatedSum> widths;
  std::map<double, std::uint64_t, std::greater<>> active;
  // DBP_LINT_ALLOW(unordered-container): dedup by exact key, never
  // iterated — snapshot order is first-occurrence order, as in opt_total.
  std::unordered_map<std::vector<SizeRun>, std::size_t, SizeRunVectorHash, SizeRunKeyEqual>
      index;
  const std::vector<Event> events = build_event_sequence(instance);
  std::size_t i = 0;
  while (i < events.size()) {
    const Time t = events[i].time;
    for (; i < events.size() && events[i].time == t; ++i) {
      const double size = instance.item(events[i].item).size;
      if (events[i].kind == EventKind::kArrival) {
        ++active[size];
      } else if (--active[size] == 0) {
        active.erase(size);
      }
    }
    if (i == events.size()) break;
    const double width = events[i].time - t;
    if (width <= 0.0 || active.empty()) continue;
    std::vector<SizeRun> key;
    key.reserve(active.size());
    for (const auto& [size, count] : active) key.push_back(SizeRun{size, count});
    const auto [slot, inserted] = index.try_emplace(key, out.runs.size());
    if (inserted) {
      out.runs.push_back(std::move(key));
      widths.emplace_back();
    }
    widths[slot->second].add(width);
  }
  for (const CompensatedSum& w : widths) out.widths.push_back(w.value());
  return out;
}

/// Replays each snapshot through the bin-count chain's public solvers in the
/// order optimal_bin_count_rle runs them (L2, FFD, BFD, then the exact
/// search only when the heuristics disagree), timing each solver.
struct SolverReplay {
  double l2_ms = 0.0, ffd_ms = 0.0, bfd_ms = 0.0, exact_ms = 0.0;
  std::uint64_t attempted = 0, closed = 0, exhausted = 0, nodes = 0;
  std::vector<BinCountBounds> bounds;
};

SolverReplay replay_solvers(const std::vector<std::vector<SizeRun>>& snapshots,
                            const CostModel& model, SpanLog& log, int pass) {
  const BinCountOptions options;
  SolverReplay out;
  BinCountScratch scratch;
  const int root = log.begin("replay.solvers", -1, pass);
  for (const std::vector<SizeRun>& runs : snapshots) {
    if (runs.empty()) {
      out.bounds.push_back(BinCountBounds{0, 0});
      continue;
    }
    CompensatedSum total;
    for (const SizeRun& run : runs) {
      for (std::uint64_t k = 0; k < run.count; ++k) total.add(run.size);
    }
    const double largest = runs.front().size;
    const double smallest = runs.back().size;
    if (model.fits(total.value(), model.bin_capacity) ||
        largest - smallest <= options.equal_size_rel_tolerance * largest) {
      // optimal_bin_count_rle's closed-form fast paths; no solver runs.
      out.bounds.push_back(optimal_bin_count_rle(runs, model, options, scratch));
      continue;
    }
    scratch.arena.reset();
    Clock::time_point a = Clock::now();
    const std::size_t lower = l2_lower_bound_rle(runs, model, scratch.arena);
    Clock::time_point b = Clock::now();
    out.l2_ms += ms_between(a, b);
    const std::size_t ffd = first_fit_decreasing_rle(runs, model, scratch.ffd_tree);
    a = Clock::now();
    out.ffd_ms += ms_between(b, a);
    const std::size_t bfd = best_fit_decreasing_rle(runs, model, scratch.bfd_residuals);
    b = Clock::now();
    out.bfd_ms += ms_between(a, b);
    const std::size_t upper = std::min(ffd, bfd);
    if (lower == upper) {
      out.bounds.push_back(BinCountBounds{lower, upper});
      continue;
    }
    const std::uint64_t n = rle_item_count(runs);
    const std::span<double> expanded =
        scratch.arena.allocate_array<double>(static_cast<std::size_t>(n));
    std::size_t at = 0;
    for (const SizeRun& run : runs) {
      for (std::uint64_t k = 0; k < run.count; ++k) expanded[at++] = run.size;
    }
    a = Clock::now();
    const ExactPackingResult exact =
        exact_bin_count_bounded(expanded, model, lower, upper, options.exact, scratch.arena);
    out.exact_ms += ms_between(a, Clock::now());
    const BinCountBounds bounds{std::max(lower, exact.lower), std::min(upper, exact.upper)};
    ++out.attempted;
    out.nodes += exact.nodes;
    if (bounds.exact()) ++out.closed;
    if (exact.nodes >= options.exact.node_budget) ++out.exhausted;
    out.bounds.push_back(bounds);
  }
  log.end(root);
  return out;
}

/// engine.oracle_ms: the engine's epoch oracle computation (memo misses
/// only, as the engine's memo answers repeats) replayed on the snapshots.
double replay_oracle(const std::vector<std::vector<SizeRun>>& snapshots,
                     const CostModel& model, const SolverReplay& solvers) {
  const Clock::time_point a = Clock::now();
  std::vector<BinCountBounds> bounds;
  bounds.reserve(snapshots.size());
  for (const std::vector<SizeRun>& runs : snapshots) {
    bounds.push_back(optimal_bin_count_rle(runs, model));
  }
  const double ms = ms_between(a, Clock::now());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    check(bounds[i].lower == solvers.bounds[i].lower &&
              bounds[i].upper == solvers.bounds[i].upper,
          "solver replay disagrees with optimal_bin_count_rle");
  }
  return ms;
}

/// gaming.apply_ms: each shard's substream (split with the engine's router)
/// through a plain First Fit GameServerDispatcher. The shard-order sum of
/// their bills must equal the engine's aggregate bill.
double replay_apply(const Stream& stream, double engine_bill) {
  const engine::HashShardRouter router;
  const engine::EngineConfig config = engine_config();
  std::vector<Stream> parts(kShards);
  for (const engine::SessionEvent& event : stream) {
    parts[router.shard_for(event.route_key, kShards)].push_back(event);
  }
  const Time horizon = stream.empty() ? 0.0 : stream.back().time_minutes;
  double ms = 0.0;
  double bill = 0.0;
  for (const Stream& part : parts) {
    GameServerDispatcher plain(config.spec, config.algorithm, config.packer_options,
                               config.fault_policy);
    const Clock::time_point a = Clock::now();
    for (const engine::SessionEvent& event : part) {
      if (event.kind == engine::SessionEvent::Kind::kStart) {
        (void)plain.start_session(event.session_id, event.gpu_fraction, event.time_minutes);
      } else {
        plain.end_session(event.session_id, event.time_minutes);
      }
    }
    ms += ms_between(a, Clock::now());
    bill += plain.rental_cost_dollars(horizon);
  }
  check(bill == engine_bill, "per-shard dispatcher replay disagrees with the engine bill");
  return ms;
}

/// net.encode_ms / net.decode_ms over the wire pass's request sequence.
std::pair<double, double> replay_codec(const Stream& stream, std::size_t cut_every) {
  std::vector<net::WireRequest> requests;
  requests.reserve(stream.size() + 2 * (stream.size() / cut_every + 1));
  const auto cut = [&](Time t) {
    requests.push_back(net::WireRequest{net::WireVerb::kEpoch, {}, t});
    requests.push_back(net::WireRequest{net::WireVerb::kQuery, {}, t});
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    requests.push_back(net::WireRequest{net::WireVerb::kSubmit, stream[i], 0.0});
    if ((i + 1) % cut_every == 0) cut(stream[i].time_minutes);
  }
  cut(stream.empty() ? 0.0 : stream.back().time_minutes);

  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(requests.size());
  Clock::time_point a = Clock::now();
  for (const net::WireRequest& request : requests) {
    frames.push_back(net::encode_request_frame(request));
  }
  const double encode_ms = ms_between(a, Clock::now());
  std::size_t mismatches = 0;
  a = Clock::now();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::span<const std::uint8_t> frame(frames[i]);
    net::FrameHeader header;
    if (net::decode_frame_header(frame, header) != net::WireError::kNone ||
        header.payload_len != frame.size() - net::kFrameHeaderBytes) {
      ++mismatches;
      continue;
    }
    const net::DecodeResult decoded =
        net::decode_request(frame.subspan(net::kFrameHeaderBytes, header.payload_len));
    const net::WireRequest& want = requests[i];
    const engine::SessionEvent& got = decoded.request.event;
    mismatches += static_cast<std::size_t>(
        decoded.error != net::WireError::kNone || decoded.request.verb != want.verb ||
        (want.verb == net::WireVerb::kSubmit
             ? got.session_id != want.event.session_id || got.kind != want.event.kind ||
                   got.time_minutes != want.event.time_minutes ||
                   (got.kind == engine::SessionEvent::Kind::kStart &&
                    got.gpu_fraction != want.event.gpu_fraction)
             : decoded.request.time_minutes != want.time_minutes));
  }
  const double decode_ms = ms_between(a, Clock::now());
  check(mismatches == 0, "codec replay: decoded requests differ from the encoded ones");
  return {encode_ms, decode_ms};
}

// ---- statistics and output ------------------------------------------------

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// The tail percentile of one pass's cut latencies: the highest rung of
/// {50, 90, 99, 99.9} with at least 10 samples beyond it. Per pass, so the
/// rung does not change when a faster build fits more passes into a run.
double tail_rung(std::size_t samples) {
  const double n = static_cast<double>(samples);
  double rung = 0.5;
  for (const double p : {0.9, 0.99, 0.999}) {
    if (n * (1.0 - p) >= 10.0) rung = p;
  }
  return rung;
}

/// VmHWM of this process. (getrusage's ru_maxrss would do, but Linux
/// carries it across execve, so it would report the launching Python
/// process whenever that was larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw CheckFailure("VmHWM missing from /proc/self/status");
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
}

// ---- the run --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--tiny" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !(o.seconds > 0.0) ||
      (o.workload != "opt_uniform" && o.workload != "engine_gaming" &&
       o.workload != "wire_gaming")) {
    throw std::invalid_argument(
        "usage: dbp_perfbench --workload=opt_uniform|engine_gaming|wire_gaming "
        "--seed=N [--seconds=S] [--trace=0|1] [--tiny]");
  }
  return o;
}

/// One pass's inputs.
struct Inputs {
  Instance instance;
  Stream stream;
};

/// Pass k of a run draws its inputs from sub-seed k of the run seed
/// (splitmix64), so one run covers many independent inputs: the rare
/// snapshots the exact solver cannot close average out over a run's volume
/// instead of deciding it.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t pass) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + pass + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The sessions that start in a gaming trace's first `hours`: the batch
/// estimate of a whole multi-day trace takes longer than a run, so the opt
/// layer is replayed on this prefix on the gaming workloads.
Instance first_hours(const Instance& instance, double hours) {
  Instance out;
  for (const Item& item : instance.items()) {
    if (item.arrival < 60.0 * hours) out.add(item.arrival, item.departure, item.size);
  }
  return out;
}

class Run {
 public:
  explicit Run(Options options)
      : o_(std::move(options)),
        sizes_(o_.tiny ? Sizes{150, 4.0} : Sizes{1000, 48.0}),
        log_(o_.trace) {}

  int execute() {
    std::filesystem::create_directories(kOutDir);
    // Untimed warm-up on pass 0's inputs (thread pools, page faults, lazy
    // set-up); the first timed pass must repeat its results exactly.
    const Pass warmup = one_pass(0, false);
    setup_ms_.clear();
    generate_ms_.clear();
    double timed_ms = 0.0;
    for (std::size_t k = 0; timed_ms < 1000.0 * o_.seconds || k < kMinPasses; ++k) {
      Pass plain = one_pass(k, false);
      if (k == 0) check_repeat(warmup, plain);
      timed_ms += plain.result.wall_ms;
      record_plain(plain.result);
      if (o_.trace) {
        // The traced pass repeats the plain one on the same inputs, so
        // their wall times pair up for trace_overhead_frac.
        Pass traced = one_pass(k, true);
        check_repeat(plain, traced);
        timed_ms += traced.result.wall_ms;
        overhead_.push_back(traced.result.wall_ms / plain.result.wall_ms - 1.0);
        record_traced(std::move(traced));
      }
    }
    check(attempted_ > 0, "no operations attempted");
    if (o_.trace) {
      report_layers();
    } else {
      report_end_to_end();
    }
    print_result(true, attempted_, failed_, metrics_);
    return 0;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  struct Pass {
    Inputs inputs;
    PassResult result;
  };

  [[nodiscard]] Inputs make_inputs(std::uint64_t seed) const {
    Inputs in;
    in.instance = o_.workload == "opt_uniform"
                      ? make_uniform_instance(sizes_.uniform_items, seed)
                      : make_gaming_instance(sizes_.gaming_hours, seed);
    in.stream = to_stream(in.instance);
    return in;
  }

  [[nodiscard]] CostModel model() const {
    return o_.workload == "opt_uniform" ? CostModel{} : ServerSpec{}.to_cost_model();
  }

  [[nodiscard]] std::string socket_path(int id) const {
    return std::string(kOutDir) + "/wire-" + std::to_string(::getpid()) + "-" +
           std::to_string(id) + ".sock";
  }

  /// Set-up (generate inputs, construct engine/server), the timed pipeline,
  /// then the pass's checks.
  Pass one_pass(std::size_t k, bool traced) {
    const int id = next_id_++;
    SpanLog quiet(false);
    SpanLog& log = traced ? log_ : quiet;
    Pass pass;
    const Clock::time_point s0 = Clock::now();
    pass.inputs = make_inputs(sub_seed(o_.seed, k));
    generate_ms_.push_back(ms_between(s0, Clock::now()));
    const Inputs& in = pass.inputs;
    if (o_.workload == "opt_uniform") {
      setup_ms_.push_back(ms_between(s0, Clock::now()));
      pass.result = run_opt_pass(in.instance, model(), log, id);
      check(pass.result.lower >= compute_cost_bounds(in.instance, model()).lower(),
            "opt: lower bound below the closed-form bounds (b.1)/(b.2)");
    } else if (o_.workload == "engine_gaming") {
      engine::ShardedDispatchEngine eng(engine_config());
      setup_ms_.push_back(ms_between(s0, Clock::now()));
      pass.result = run_engine_pass(eng, in.stream, kEngineCutEvery, log, id);
    } else {
      {
        WireRig rig(socket_path(id));
        setup_ms_.push_back(ms_between(s0, Clock::now()));
        pass.result = run_wire_pass(rig, in.stream, kWireCutEvery, log, id);
      }
      if (!traced) {
        check(pass.result.answers == reference_answers(in.stream, kWireCutEvery),
              "wire: query answers differ from the in-process engine replay");
      }
    }
    const PassResult& r = pass.result;
    check(r.lower > 0.0 && r.lower <= r.upper, "OPT_total bounds are not certified");
    attempted_ += r.attempted;
    failed_ += r.failed;
    return pass;
  }

  /// A repeat on the same sub-seed must see the same inputs and produce the
  /// same bounds, bill and (wire) query answers bit for bit.
  static void check_repeat(const Pass& a, const Pass& b) {
    check(same_stream(a.inputs.stream, b.inputs.stream), "one seed generated different inputs");
    check(a.result.lower == b.result.lower && a.result.upper == b.result.upper &&
              a.result.bill == b.result.bill && a.result.answers == b.result.answers,
          "results differ between repeats of one input");
  }

  /// End-to-end statistics are medians over passes (per-pass throughput,
  /// per-pass latency percentiles): a burst of machine noise moves a few
  /// passes, not the run.
  void record_plain(const PassResult& r) {
    wall_ms_.push_back(r.wall_ms);
    events_per_s_.push_back(1000.0 * static_cast<double>(r.events) / r.wall_ms);
    lower_sum_ += r.lower;
    upper_sum_ += r.upper;
    rung_ = tail_rung(r.cut_ms.size());
    cuts_per_pass_ = r.cut_ms.size();
    p50_ms_.push_back(percentile(r.cut_ms, 0.5));
    tail_ms_.push_back(percentile(r.cut_ms, rung_));
  }

  /// Bookkeeping after each traced pass, plus the cheap layer replays on
  /// its inputs: the engine (unless it is the pipeline), per-shard apply and
  /// the codec. Their results are summed here and reported per pass.
  void record_traced(Pass traced) {
    traced_.push_back(next_id_ - 1);
    traced_wall_ms_ += traced.result.wall_ms;
    for (const auto& [name, value] : traced.result.layer) layer_sum_[name] += value;
    const Stream& stream = traced.inputs.stream;
    PassResult replayed;
    if (o_.workload != "engine_gaming") {
      const int id = next_id_++;
      engine_replays_.push_back(id);
      engine::ShardedDispatchEngine eng(engine_config());
      replayed = run_engine_pass(eng, stream, cut_every(), log_, id);
      for (const auto& [name, value] : replayed.layer) layer_sum_[name] += value;
    }
    const PassResult& engine_pass = o_.workload == "engine_gaming" ? traced.result : replayed;
    if (miss_snapshots_.size() < kMaxReplaySnapshots) {
      miss_snapshots_.insert(miss_snapshots_.end(), engine_pass.miss_snapshots.begin(),
                             engine_pass.miss_snapshots.end());
      ++miss_passes_;
    }
    layer_sum_["gaming.apply_ms"] += replay_apply(stream, engine_pass.bill);
    const auto [encode_ms, decode_ms] = replay_codec(stream, kWireCutEvery);
    layer_sum_["net.encode_ms"] += encode_ms;
    layer_sum_["net.decode_ms"] += decode_ms;
    last_traced_ = std::move(traced);
  }

  /// Epoch cadence of the workload's own stream (opt_uniform's stream is
  /// replayed through the engine at engine_gaming's cadence).
  [[nodiscard]] std::size_t cut_every() const {
    return o_.workload == "wire_gaming" ? kWireCutEvery : kEngineCutEvery;
  }

  void report_end_to_end() {
    set("setup_s", median(setup_ms_) / 1000.0, "s");
    set("peak_rss_mb", peak_rss_mb(), "MB");
    set("wall_s", median(wall_ms_) / 1000.0, "s");
    set("events_per_s", median(events_per_s_), "ev/s");
    set("latency_p50_ms", median(p50_ms_), "ms");
    set("latency_tail_ms", median(tail_ms_), "ms");
    set("opt_bound_ratio", upper_sum_ / lower_sum_, "ratio");
  }

  /// Per-layer metrics, per pass: span self times of the traced passes and
  /// of the replays that followed them, plus the replays run once on the
  /// last traced pass's inputs (the batch opt layer on the gaming workloads,
  /// the wire path on the other two, the solver chain on opt_uniform).
  void report_layers() {
    const double passes = static_cast<double>(traced_.size());
    for (const auto& [name, total] : layer_sum_) set(name, total / passes);
    const std::map<std::string, double> self = self_ms_by_name(log_, traced_);
    const std::map<std::string, double> engine_self = self_ms_by_name(log_, engine_replays_);
    const auto self_of = [](const std::map<std::string, double>& m, const char* name,
                            double per) {
      const auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second / per;
    };

    const double unattributed = self_of(self, "pass", 1.0) / traced_wall_ms_;
    set("trace_overhead_frac", median(overhead_));
    set("trace_unattributed_frac", unattributed);
    check(unattributed <= kMaxUnattributedFrac,
          "traced layer spans leave more than 5% of the pass unattributed");
    set("workload.generate_ms", median(generate_ms_));
    set("latency_tail_pct", 100.0 * rung_);
    set("latency_samples_per_pass", static_cast<double>(cuts_per_pass_));
    set("failed_ops_frac", static_cast<double>(failed_) / static_cast<double>(attempted_));
    set("opt_gap", (upper_sum_ - lower_sum_) / lower_sum_);
    for (const char* name : {"engine.submit", "engine.drain", "engine.epoch"}) {
      set(std::string(name) + "_ms", o_.workload == "engine_gaming"
                                         ? self_of(self, name, passes)
                                         : self_of(engine_self, name, passes));
    }

    const Inputs& in = last_traced_.inputs;
    const int replay = next_id_++;
    const CostModel engine_model = engine_config().spec.to_cost_model();

    // opt layer: the pipeline itself on opt_uniform, whose solver replay
    // runs over the last pass's batch snapshots; on the gaming workloads a
    // batch replay, and the solver replay runs over the collected
    // epoch-oracle misses.
    OptTotalResult opt = last_traced_.result.opt;
    SolverReplay solvers;
    double solver_passes = 1.0;
    const auto miss_passes = static_cast<double>(miss_passes_);
    if (o_.workload == "opt_uniform") {
      const BatchSnapshots batch = sweep_snapshots(in.instance);
      check(batch.runs.size() == opt.distinct_snapshots,
            "replay sweep found a different number of distinct snapshots");
      solvers = replay_solvers(batch.runs, model(), log_, replay);
      check_batch_integral(batch, solvers, opt);
      set("opt.snapshots_distinct", static_cast<double>(batch.runs.size()));
    } else {
      const PassResult r = run_opt_pass(first_hours(in.instance, kOptReplayHours), model(),
                                        log_, replay);
      for (const auto& [name, value] : r.layer) set(name, value);
      opt = r.opt;
      solvers = replay_solvers(miss_snapshots_, engine_model, log_, replay);
      solver_passes = miss_passes;
      set("opt.snapshots_distinct", static_cast<double>(miss_snapshots_.size()) / miss_passes);
    }
    set("exec.evaluate_workers", static_cast<double>(opt.evaluate_workers));
    const SolverReplay oracle_solvers =
        o_.workload == "opt_uniform" ? replay_solvers(miss_snapshots_, engine_model, log_, replay)
                                     : solvers;
    set("engine.oracle_ms",
        replay_oracle(miss_snapshots_, engine_model, oracle_solvers) / miss_passes);
    set("opt.l2_ms", solvers.l2_ms / solver_passes);
    set("opt.ffd_ms", solvers.ffd_ms / solver_passes);
    set("opt.bfd_ms", solvers.bfd_ms / solver_passes);
    set("opt.exact_ms", solvers.exact_ms / solver_passes);
    set("opt.exact_attempted", static_cast<double>(solvers.attempted) / solver_passes);
    set("opt.exact_closed", static_cast<double>(solvers.closed) / solver_passes);
    set("opt.exact_budget_exhausted", static_cast<double>(solvers.exhausted) / solver_passes);
    set("opt.exact_nodes", static_cast<double>(solvers.nodes) / solver_passes);
    set("opt.exact_close_rate", solvers.attempted == 0
                                    ? 1.0
                                    : static_cast<double>(solvers.closed) /
                                          static_cast<double>(solvers.attempted));

    // net layer: the pipeline itself on wire_gaming, one replay otherwise.
    if (o_.workload == "wire_gaming") {
      set("net.client_write_ms", self_of(self, "net.client_write", passes));
      set("net.query_ms", self_of(self, "net.query", passes));
    } else {
      PassResult r;
      {
        WireRig rig(socket_path(replay));
        r = run_wire_pass(rig, in.stream, kWireCutEvery, log_, replay);
      }
      check(r.answers == reference_answers(in.stream, kWireCutEvery),
            "wire replay: query answers differ from the in-process engine replay");
      const std::map<std::string, double> s = self_ms_by_name(log_, {replay});
      set("net.client_write_ms", self_of(s, "net.client_write", 1.0));
      set("net.query_ms", self_of(s, "net.query", 1.0));
      for (const auto& [name, value] : r.layer) set(name, value);
    }
    write_spans();
  }

  /// The replayed solver bounds, combined like estimate_opt_total's phase 3,
  /// must reproduce the estimate bit for bit.
  void check_batch_integral(const BatchSnapshots& batch, const SolverReplay& solvers,
                            const OptTotalResult& opt) const {
    CompensatedSum lower;
    CompensatedSum upper;
    for (std::size_t s = 0; s < batch.widths.size(); ++s) {
      lower.add(static_cast<double>(solvers.bounds[s].lower) * batch.widths[s]);
      upper.add(static_cast<double>(solvers.bounds[s].upper) * batch.widths[s]);
    }
    const CostModel m = model();
    const double lower_cost = std::max(lower.value() * m.cost_rate, opt.closed_form.lower());
    check(lower_cost == opt.lower_cost && upper.value() * m.cost_rate == opt.upper_cost,
          "solver replay does not reproduce the estimate's bounds");
  }

  /// Units of the per-layer metrics; end-to-end metrics name theirs.
  static const char* unit_of(const std::string& name) {
    static const std::map<std::string, const char*, std::less<>> kUnits = {
        {"engine.active_sessions_mean", "sessions"},
        {"engine.merged_runs_mean", "runs"},
        {"latency_tail_pct", "pct"},
        {"net.bytes_per_event", "B/ev"},
        {"net.frames_per_event", "frames/ev"},
        {"opt.exact_close_rate", "ratio"},
        {"opt_gap", "ratio"},
        {"failed_ops_frac", "ratio"},
        {"trace_overhead_frac", "ratio"},
        {"trace_unattributed_frac", "ratio"},
    };
    if (const auto it = kUnits.find(name); it != kUnits.end()) return it->second;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) return "ms";
    return "count";
  }

  void set(const std::string& name, double value, const char* unit) {
    check(std::isfinite(value), "metric " + name + " is not finite");
    metrics_[name] = Metric{value, unit};
  }
  void set(const std::string& name, double value) { set(name, value, unit_of(name)); }

  void write_spans() const {
    const std::string path = std::string(kOutDir) + "/spans-" + o_.workload + ".jsonl";
    std::ofstream out(path);
    const auto& spans = log_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"parent\":%d,\"pass\":%d,\"name\":\"%s\","
                    "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                    i, spans[i].parent, spans[i].pass, spans[i].name.c_str(),
                    ms_between(log_.origin(), spans[i].start),
                    ms_between(log_.origin(), spans[i].end));
      out << line;
    }
    out.close();
    check(static_cast<bool>(out), "cannot write the span file " + path);
  }

  Options o_;
  Sizes sizes_;
  SpanLog log_;
  int next_id_ = 0;
  Pass last_traced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> setup_ms_, generate_ms_, wall_ms_, events_per_s_, overhead_;
  std::vector<double> p50_ms_, tail_ms_;
  double rung_ = 0.5;
  double lower_sum_ = 0.0;
  double upper_sum_ = 0.0;
  std::size_t cuts_per_pass_ = 0;
  std::vector<int> traced_;
  double traced_wall_ms_ = 0.0;
  std::map<std::string, double> layer_sum_;
  std::vector<int> engine_replays_;
  std::vector<std::vector<SizeRun>> miss_snapshots_;  ///< oracle misses to replay
  std::size_t miss_passes_ = 0;  ///< traced passes whose misses are in miss_snapshots_
  std::map<std::string, Metric> metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "dbp_perfbench: " << error.what() << "\n";
    return 2;
  }
  // One malloc arena: with glibc's default, each short-lived pump or
  // connection thread may land on a fresh arena, and the arena count — a
  // scheduling accident — moved peak_rss_mb by ~15% between identical runs.
  mallopt(M_ARENA_MAX, 1);
  exec::WorkerBudget::set(worker_budget(options.workload));
  Run run(options);
  try {
    return run.execute();
  } catch (const CheckFailure& failure) {
    std::cerr << "dbp_perfbench: check failed: " << failure.what() << "\n";
  } catch (const std::exception& error) {
    std::cerr << "dbp_perfbench: " << error.what() << "\n";
  }
  print_result(false, std::max<std::uint64_t>(run.attempted(), 1),
               std::max<std::uint64_t>(run.failed(), 1), {});
  return 1;
}
