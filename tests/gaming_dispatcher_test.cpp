#include "gaming/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/binary_io.hpp"
#include "core/error.hpp"
#include "opt/rle.hpp"
#include "workload/rng.hpp"

namespace dbp {
namespace {

ServerSpec basic_spec() { return ServerSpec{1.0, 6.0}; }  // $6/hour

TEST(ServerSpecTest, CostModelConversion) {
  const CostModel model = basic_spec().to_cost_model();
  EXPECT_DOUBLE_EQ(model.bin_capacity, 1.0);
  EXPECT_DOUBLE_EQ(model.cost_rate, 0.1);  // $6/hour = $0.1/minute
}

TEST(GameServerDispatcherTest, RentsAndReleasesServers) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  const BinId server_a = dispatcher.start_session(1, 0.5, 0.0);
  const BinId server_b = dispatcher.start_session(2, 0.75, 5.0);
  EXPECT_NE(server_a, server_b);
  EXPECT_EQ(dispatcher.active_servers(), 2u);
  EXPECT_EQ(dispatcher.active_sessions(), 2u);
  dispatcher.end_session(1, 30.0);
  EXPECT_EQ(dispatcher.active_servers(), 1u);
  dispatcher.end_session(2, 65.0);
  EXPECT_EQ(dispatcher.active_servers(), 0u);
  EXPECT_EQ(dispatcher.servers_ever_rented(), 2u);
  // Bill: server A [0, 30) + server B [5, 65) = 90 minutes = 1.5 hours = $9.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(65.0), 9.0);
}

TEST(GameServerDispatcherTest, SharesServersLikeFirstFit) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  const BinId a = dispatcher.start_session(1, 0.5, 0.0);
  const BinId b = dispatcher.start_session(2, 0.5, 1.0);
  EXPECT_EQ(a, b);  // second session shares the first server
  EXPECT_EQ(dispatcher.active_servers(), 1u);
}

TEST(GameServerDispatcherTest, OpenServersBilledToNow) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 0.0);
  // 60 running minutes = 1 hour = $6, session still active.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(60.0), 6.0);
}

TEST(GameServerDispatcherTest, EnforcesTimeOrder) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 10.0);
  EXPECT_THROW(dispatcher.start_session(2, 0.5, 5.0), PreconditionError);
  EXPECT_THROW(dispatcher.end_session(1, 5.0), PreconditionError);
}

TEST(GameServerDispatcherTest, RejectsInvalidSpec) {
  EXPECT_THROW(GameServerDispatcher(ServerSpec{0.0, 1.0}, "first-fit"),
               PreconditionError);
  EXPECT_THROW(GameServerDispatcher(ServerSpec{1.0, 0.0}, "first-fit"),
               PreconditionError);
  EXPECT_THROW(GameServerDispatcher(basic_spec(), "no-such-algorithm"),
               PreconditionError);
}

TEST(DispatchComparisonTest, ComparesAlgorithmsOnTrace) {
  CloudGamingConfig config;
  config.horizon_hours = 8.0;
  config.peak_arrivals_per_minute = 1.0;
  const CloudGamingTrace trace = generate_cloud_gaming_trace(config, 77);
  const DispatchComparison comparison = compare_dispatch_algorithms(
      trace, {"first-fit", "best-fit", "next-fit"}, basic_spec());
  ASSERT_EQ(comparison.reports.size(), 3u);
  EXPECT_GT(comparison.optimal_dollars_lower, 0.0);
  for (const DispatchReport& report : comparison.reports) {
    EXPECT_GE(report.total_dollars, comparison.optimal_dollars_lower - 1e-9);
    EXPECT_GT(report.utilization, 0.0);
    EXPECT_LE(report.utilization, 1.0 + 1e-9);
    EXPECT_GE(report.overspend.lower, 1.0 - 1e-9);
    EXPECT_GT(report.peak_servers, 0);
    EXPECT_DOUBLE_EQ(report.server_hours * basic_spec().price_per_hour,
                     report.total_dollars);
  }
}

// Pinned counter-example (PR 8 satellite): rental_cost_dollars probed with
// `now` earlier than a server's open time must clamp that rental at zero
// dollars, never accrue a negative tail.
TEST(GameServerDispatcherTest, ProbeBeforeOpenBillsZeroNotNegative) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.5, 10.0);
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(0.0), 0.0);
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(10.0), 0.0);
  // Forward probes accrue normally from the open time.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(70.0), 6.0);  // 60 min @ $0.1
}

// Regression: a *closed* rental probed mid-life used to bill its full
// length regardless of the probe time; the bill is "accrued by now", so it
// must truncate at the probe (and clamp at zero before the open).
TEST(GameServerDispatcherTest, ClosedRentalTruncatesAtProbeTime) {
  GameServerDispatcher dispatcher(basic_spec(), "first-fit");
  dispatcher.start_session(1, 0.9, 0.0);   // server A [0, 30)
  dispatcher.start_session(2, 0.9, 20.0);  // server B [20, 40)
  dispatcher.end_session(1, 30.0);
  dispatcher.end_session(2, 40.0);
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(0.0), 0.0);
  // Probe at 10: A contributes 10 minutes, B nothing yet.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(10.0), 1.0);
  // Probe at 25: A 25 minutes, B 5 minutes.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(25.0), 3.0);
  // Probe past both closes: the full 30 + 20 = 50 minutes.
  EXPECT_DOUBLE_EQ(dispatcher.rental_cost_dollars(100.0), 5.0);
}

/// rle_from_sorted over the packer's residents, with sizes from the map of
/// every session the test started — independent of the dispatcher's own
/// session table, which active_size_runs reads.
std::vector<SizeRun> resident_runs(const GameServerDispatcher& dispatcher,
                                   const std::map<std::uint64_t, double>& started) {
  std::vector<double> sizes;
  for (const BinId bin : dispatcher.bins().open_bins()) {
    for (const ItemId item : dispatcher.bins().items_in(bin)) {
      sizes.push_back(started.at(item));
    }
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return rle_from_sorted(sizes);
}

TEST(GameServerDispatcherTest, ActiveSizeRunsEqualRleOfSortedActiveSizes) {
  // Random start/end/crash streams under a flaky rental provider and a
  // fleet cap, so sessions also leave through crash re-dispatch, loss on
  // crash and shedding. After every event the counted runs must equal the
  // sorted-then-compressed reference; one output vector is reused
  // throughout, so stale runs from a larger snapshot must not survive.
  FaultPolicy policy;
  policy.on_anomaly = FaultPolicy::AnomalyAction::kDropAndCount;
  policy.rental_failure_rate = 0.2;
  policy.max_rental_retries = 0;
  policy.max_fleet_servers = 6;
  DispatcherFaultStats totals;
  std::size_t round_trips = 0;
  std::vector<SizeRun> runs;
  for (const bool dyadic : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      policy.seed = seed;
      Rng rng(seed);
      GameServerDispatcher dispatcher(basic_spec(), "first-fit", {}, policy);
      std::map<std::uint64_t, double> started;
      Time now = 0.0;
      for (std::uint64_t event = 0; event < 400; ++event) {
        now += 1.0;
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.55 || started.empty()) {
          const double size = dyadic
                                  ? 0.125 * static_cast<double>(rng.uniform_int(1, 4))
                                  : rng.uniform(0.02, 0.6);
          const std::uint64_t id = started.size() + 1;
          started.emplace(id, size);
          (void)dispatcher.start_session(id, size, now);
        } else if (roll < 0.95) {
          // May name an ended or lost session: dropped and counted.
          dispatcher.end_session(rng.uniform_int(1, started.size()), now);
        } else {
          const std::vector<BinId> open = dispatcher.bins().open_bins();
          if (!open.empty()) {
            (void)dispatcher.fail_server(open[rng.uniform_int(0, open.size() - 1)], now);
          }
        }
        dispatcher.active_size_runs(runs);
        ASSERT_EQ(runs, resident_runs(dispatcher, started))
            << (dyadic ? "dyadic" : "continuous") << " seed " << seed << " event "
            << event;
        if (event == 200) {
          ByteWriter out;
          dispatcher.save_state(out);
          const std::vector<std::uint8_t> bytes = out.take();
          GameServerDispatcher restored(basic_spec(), "first-fit", {}, policy);
          ByteReader in(bytes);
          restored.restore_state(in);
          std::vector<SizeRun> restored_runs;
          restored.active_size_runs(restored_runs);
          EXPECT_EQ(restored_runs, runs);
          ++round_trips;
        }
      }
      const DispatcherFaultStats& stats = dispatcher.fault_stats();
      totals.sessions_shed += stats.sessions_shed;
      totals.sessions_redispatched += stats.sessions_redispatched;
      totals.sessions_lost_on_crash += stats.sessions_lost_on_crash;
    }
  }
  EXPECT_EQ(round_trips, 8u);
  // Every way a session can leave besides end_session was exercised.
  EXPECT_GT(totals.sessions_shed, 0u);
  EXPECT_GT(totals.sessions_redispatched, 0u);
  EXPECT_GT(totals.sessions_lost_on_crash, 0u);
}

TEST(DispatchComparisonTest, BestFitOverspendsOnAdversarialPattern) {
  // Miniature sanity check of the paper's message: with heavy churn, FF's
  // bill never exceeds (2*mu+13) times the optimum (Theorem 5).
  CloudGamingConfig config;
  config.horizon_hours = 12.0;
  config.peak_arrivals_per_minute = 1.5;
  const CloudGamingTrace trace = generate_cloud_gaming_trace(config, 3);
  const DispatchComparison comparison =
      compare_dispatch_algorithms(trace, {"first-fit"}, basic_spec());
  const double mu = comparison.metrics.mu;
  EXPECT_LE(comparison.reports[0].overspend.upper, 2.0 * mu + 13.0);
}

}  // namespace
}  // namespace dbp
