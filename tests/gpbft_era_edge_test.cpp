// Era-switch edge cases: forged halts, lead failure mid-switch, cancelled
// switches, and ordering of transactions queued across a switch.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {
namespace {

using ::gpbft::gpbft::Role;

ScenarioSpec edge_config(std::size_t nodes, std::size_t committee) {
  ScenarioSpec config;
  config.nodes = nodes;
  config.committee.initial = committee;
  config.clients = 1;
  config.seed = 41;
  config.committee.era_period = Duration::seconds(10);
  config.geo.report_period = Duration::seconds(2);
  config.geo.window = Duration::seconds(10);
  config.geo.min_reports = 2;
  config.geo.promotion_threshold = Duration::seconds(15);
  config.engine.request_timeout = Duration::seconds(6);
  config.engine.view_change_timeout = Duration::seconds(5);
  return config;
}

ledger::Transaction tx_from(GpbftCluster& cluster, RequestId request) {
  return make_workload_tx(cluster.client(0).id(), request, cluster.placement().position(0),
                          cluster.simulator().now(), 16, 10, request);
}

TEST(EraEdge, ForgedHaltFromNonLeadIgnored) {
  // Only the current lead may halt the committee (§III-E). A halt signed by
  // a backup endorser is discarded: ordering continues uninterrupted.
  ScenarioSpec config = edge_config(4, 4);
  config.committee.era_period = Duration::seconds(1000);  // no real switches
  GpbftCluster cluster(config);
  cluster.start();
  cluster.run_for(Duration::seconds(1));

  // Endorser 2 (not the lead) broadcasts a forged ERA-HALT.
  const NodeId forger = cluster.endorser(1).id();
  ASSERT_NE(cluster.endorser(0).primary_of(0), forger);
  pbft::EraHaltMsg halt;
  halt.closing_era = 0;
  halt.sender = forger;
  const Bytes body = halt.encode();
  for (std::size_t i = 0; i < 4; ++i) {
    if (cluster.endorser(i).id() == forger) continue;
    net::Envelope envelope;
    envelope.from = forger;
    envelope.to = cluster.endorser(i).id();
    envelope.type = pbft::msg_type::kEraHalt;
    envelope.payload = pbft::seal(cluster.keys(), forger, cluster.endorser(i).id(),
                                  pbft::msg_type::kEraHalt,
                                  BytesView(body.data(), body.size()), true);
    cluster.network().send(std::move(envelope));
  }
  cluster.run_for(Duration::seconds(1));

  // Transactions still commit promptly: nobody halted.
  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(3));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(EraEdge, LeadCrashMidSwitchResumesViaFailsafe) {
  // The lead halts the committee and dies before proposing the config
  // block; the halt failsafe (and the view change) restore ordering.
  ScenarioSpec config = edge_config(6, 4);
  GpbftCluster cluster(config);
  cluster.start();

  // Run to just before the first era boundary, then kill the lead so the
  // ERA-HALT goes out but the configuration block never follows.
  const NodeId lead = cluster.endorser(0).primary_of(0);
  cluster.run_for(Duration::millis(10'020));  // halt broadcast at t=10
  cluster.network().crash(lead);

  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(40));

  // The system recovered: the transaction committed under a new primary.
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(EraEdge, LeadCrashMidSwitchUnderLossKeepsRosterConsistent) {
  // The lead dies right as the era-switch halt goes out, while the network
  // drops 5% of all traffic. The view change must still complete (the
  // transaction commits under a new primary) and every surviving active
  // endorser must agree on the era and the production order — checked both
  // explicitly and by the online invariant monitor (agreement + roster).
  ScenarioSpec config = edge_config(6, 4);
  config.net.drop_rate = 0.05;
  GpbftCluster cluster(config);

  InvariantMonitor monitor(cluster.simulator());
  cluster.watch(monitor);
  cluster.start();

  const NodeId lead = cluster.endorser(0).primary_of(0);
  cluster.run_for(Duration::millis(10'020));  // halt broadcast at t=10
  cluster.network().crash(lead);
  monitor.note_fault("lead " + lead.str() + " crashed mid-switch, drop_rate=0.05");

  const ledger::Transaction tx = tx_from(cluster, 1);
  monitor.expect_submission(tx);
  cluster.client(0).submit(tx);
  cluster.run_for(Duration::seconds(60));

  // Liveness: the view change completed and the transaction committed.
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);

  // Roster consistency on the survivors: same era, same producer order.
  const gpbft::Endorser* reference = nullptr;
  for (std::size_t i = 0; i < cluster.endorser_count(); ++i) {
    const auto& endorser = cluster.endorser(i);
    if (endorser.id() == lead || endorser.role() != Role::Active) continue;
    if (reference == nullptr) {
      reference = &endorser;
      continue;
    }
    EXPECT_EQ(endorser.era(), reference->era()) << "endorser " << i;
    EXPECT_EQ(endorser.producer_order(), reference->producer_order()) << "endorser " << i;
  }
  ASSERT_NE(reference, nullptr);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
  EXPECT_GT(monitor.blocks_checked(), 0u);
}

TEST(EraEdge, UnchangedMembershipCancelsSwitch) {
  // With no candidates and a stable committee, every era boundary cancels:
  // the era number never advances, and ordering pauses only briefly.
  ScenarioSpec config = edge_config(4, 4);
  GpbftCluster cluster(config);
  cluster.start();
  cluster.run_for(Duration::seconds(35));  // three boundaries

  EXPECT_EQ(cluster.era(), 0u);
  EXPECT_EQ(cluster.total_era_switches(), 0u);
  cluster.client(0).submit(tx_from(cluster, 1));
  cluster.run_for(Duration::seconds(3));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(EraEdge, TransactionsQueuedDuringSwitchCommitAfterConfigBlock) {
  // Submissions landing inside the switch window are deferred; the chain
  // must contain the era-1 configuration block before those transactions.
  ScenarioSpec config = edge_config(6, 4);
  GpbftCluster cluster(config);
  cluster.start();

  // Land the submissions inside the switch window: the halt goes out at the
  // t=20 boundary and the configuration block follows after the settle
  // delay, so requests at t=20.02 find every endorser halted.
  cluster.run_for(Duration::millis(20'020));
  for (RequestId r = 1; r <= 3; ++r) cluster.client(0).submit(tx_from(cluster, r));
  cluster.run_for(Duration::seconds(10));

  ASSERT_EQ(cluster.client(0).committed_count(), 3u);
  ASSERT_GE(cluster.era(), 1u);

  // Locate the configuration block and the workload transactions.
  const auto& chain = cluster.endorser(0).chain();
  Height config_height = 0;
  Height first_tx_height = 0;
  for (Height h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions) {
      if (tx.kind == ledger::TxKind::Config && config_height == 0) config_height = h;
      if (tx.sender == cluster.client(0).id() && first_tx_height == 0) first_tx_height = h;
    }
  }
  ASSERT_GT(config_height, 0u);
  ASSERT_GT(first_tx_height, 0u);
  EXPECT_LT(config_height, first_tx_height)
      << "queued transactions must commit after the switch's config block";
}

TEST(EraEdge, PromotedRosterOrderSharedByAllMembers) {
  ScenarioSpec config = edge_config(7, 4);
  GpbftCluster cluster(config);
  cluster.start();
  cluster.run_for(Duration::seconds(35));
  ASSERT_EQ(cluster.committee_size(), 7u);

  const auto& reference = cluster.endorser(0).producer_order();
  for (std::size_t i = 1; i < cluster.endorser_count(); ++i) {
    if (cluster.endorser(i).role() != Role::Active) continue;
    EXPECT_EQ(cluster.endorser(i).producer_order(), reference) << "endorser " << i;
  }
}

TEST(EraEdge, EnrolledCellsTravelOnChain) {
  // After a promotion, the chain's latest configuration transaction carries
  // a cell for every member — the enrolled-location record (DESIGN.md §3).
  ScenarioSpec config = edge_config(6, 4);
  GpbftCluster cluster(config);
  cluster.start();
  cluster.run_for(Duration::seconds(35));
  ASSERT_GE(cluster.era(), 1u);

  const ledger::EraConfig latest = cluster.endorser(0).chain().current_era_config();
  ASSERT_EQ(latest.endorsers.size(), 6u);
  ASSERT_EQ(latest.cells.size(), latest.endorsers.size());
  for (std::size_t i = 0; i < latest.endorsers.size(); ++i) {
    EXPECT_FALSE(latest.cells[i].empty()) << "member " << latest.endorsers[i].str();
    // The enrolled cell matches the device's actual placement.
    const std::size_t index = latest.endorsers[i].value - 1;
    EXPECT_EQ(latest.cells[i],
              geo::geohash_encode(cluster.placement().position(index)))
        << "member " << latest.endorsers[i].str();
  }
}

}  // namespace
}  // namespace gpbft::sim
