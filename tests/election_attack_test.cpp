// Adversarial election-attack pack (tier1-adversarial): the reputation-
// weighted endorser election must keep Sybil flooders and quarantined
// devices off the committee under attack campaigns, the stock geo-timer
// election must demonstrably seat the same attackers (the vulnerability the
// reputation layer closes), restarting mid-campaign must rebuild the
// reputation ledger from persisted configuration blocks, and attack runs
// must stay seed-deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "gpbft/endorser.hpp"
#include "sim/chaos.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"

namespace gpbft::sim {
namespace {

bool contains(const std::vector<NodeId>& roster, NodeId id) {
  return std::find(roster.begin(), roster.end(), id) != roster.end();
}

/// Compressed campaign-style G-PBFT scenario: 7-member genesis committee,
/// two candidates, era switches every 15 s.
ScenarioSpec attack_spec(std::uint64_t seed, bool reputation) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Gpbft;
  spec.seed = seed;
  spec.nodes = 9;
  spec.clients = 2;
  spec.committee.initial = 7;
  spec.committee.min = 4;
  spec.committee.max = 9;
  spec.committee.era_period = Duration::seconds(15);
  spec.geo.report_period = Duration::seconds(3);
  spec.geo.window = Duration::seconds(12);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  spec.workload.period = Duration::seconds(4);
  spec.workload.txs_per_client = 6;
  spec.reputation.enabled = reputation;
  return spec;
}

/// The attack pack on campaign_spec(): Sybil floods, targeted crashes and
/// mobility oscillation, against the reputation-weighted election.
ScenarioSpec attack_base() {
  ScenarioSpec base = campaign_spec();
  base.chaos.sybil_burst_chance = 0.25;
  base.chaos.targeted_crash_chance = 0.2;
  base.chaos.oscillate_chance = 0.25;
  base.reputation.enabled = true;
  return base;
}

ChaosCampaignOptions attack_campaign(std::size_t seeds) {
  ChaosCampaignOptions options;
  options.seeds = seeds;
  options.intensities = {"light"};
  options.protocols = {ProtocolKind::Gpbft};
  options.committee = 7;
  options.candidates = 2;
  return options;
}

// --- no attacker seated, across seeds -------------------------------------------------

TEST(ElectionAttack, ReputationCampaignSeatsNoAttackerAcrossTwentySeeds) {
  // Twenty seeded attack campaigns with the reputation election on: the
  // monitor's SYBIL-SEATED / COMMITTEE-QUALITY / ERA-CONVERGENCE checks are
  // armed inside run_chaos_campaign, so zero failed runs means no election
  // ever seated an active flooder or a quarantined device, and every
  // workload recovered within the liveness grace.
  const ChaosCampaignResult result = run_chaos_campaign(attack_base(), attack_campaign(20));
  ASSERT_EQ(result.runs.size(), 20u);
  EXPECT_EQ(result.failed_runs(), 0u) << result.summary();
  for (const ChaosRunResult& run : result.runs) {
    EXPECT_EQ(run.committed, run.expected) << run.seed;
  }
}

// --- before/after: the vulnerability and the fix --------------------------------------

TEST(ElectionAttack, StockElectionSeatsFlooderReputationQuarantinesIt) {
  // One committee member floods forged copies of its (truthful) geo report
  // from t=4 s on. Every copy passes the area-registry check, so the stock
  // geographic election has no handle on the attack and keeps the flooder
  // seated through every era switch. The reputation election's era-switch
  // rate audit strikes it and the quarantine latch keeps it off the roster.
  const auto final_roster = [](bool reputation) {
    ScenarioSpec spec = attack_spec(77, reputation);
    const auto cluster = std::make_unique<GpbftCluster>(spec);
    GpbftCluster* raw = cluster.get();
    cluster->start();
    cluster->schedule_workload(spec.workload, nullptr);
    cluster->simulator().schedule(Duration::seconds(4), [raw]() {
      raw->set_fault_mode(NodeId{5}, pbft::FaultMode::SybilGeoReports);
    });
    cluster->run_for(Duration::seconds(60));
    cluster->stop();
    return cluster->committee();
  };

  const std::vector<NodeId> stock = final_roster(false);
  const std::vector<NodeId> guarded = final_roster(true);
  EXPECT_TRUE(contains(stock, NodeId{5}))
      << "stock election should be blind to the report flood";
  EXPECT_FALSE(contains(guarded, NodeId{5}))
      << "reputation election should quarantine the flooder";
  // The rest of the committee is unaffected by the demotion.
  EXPECT_GE(guarded.size(), 6u);
}

// --- restart mid-campaign rebuilds the ledger from persisted config blocks ------------

TEST(ElectionAttack, RestartedEndorserRebuildsReputationAndRejoins) {
  ScenarioSpec spec = attack_spec(7, /*reputation=*/true);
  const auto cluster = std::make_unique<GpbftCluster>(spec);
  InvariantMonitor monitor(cluster->simulator());
  cluster->watch(monitor);
  monitor.set_sybil_detection_grace(spec.geo.window + spec.geo.report_period);
  monitor.set_era_convergence_bound(Duration::seconds(30));
  cluster->start();
  cluster->schedule_workload(spec.workload, nullptr,
                             [&monitor](const ledger::Transaction& tx) {
                               monitor.expect_submission(tx);
                             });
  GpbftCluster* raw = cluster.get();
  cluster->simulator().schedule(Duration::seconds(4), [raw, &monitor]() {
    raw->set_fault_mode(NodeId{5}, pbft::FaultMode::SybilGeoReports);
    monitor.note_sybil(NodeId{5}, true);
  });
  // Past the first era switch the configuration block carries the score
  // snapshot (flooder already struck and quarantined); node 2 reboots with
  // disk amnesia for everything above its restored height.
  cluster->simulator().schedule(Duration::seconds(40), [raw]() {
    ASSERT_GE(raw->era(), 1u);
    ASSERT_TRUE(raw->restart_node(NodeId{2}));
  });
  cluster->run_for(Duration::seconds(70));
  cluster->run_for(spec.engine.request_timeout * 3);
  cluster->stop();
  cluster->finish_invariants(monitor);
  monitor.check_restart_convergence();

  EXPECT_GE(cluster->total_era_switches(), 1u);
  EXPECT_TRUE(monitor.clean()) << monitor.report();

  // The rebooted endorser's reputation ledger was rebuilt from the persisted
  // configuration blocks: it knows the flooder is quarantined even though it
  // never re-observed the flood audit itself.
  const TimePoint now = cluster->simulator().now();
  EXPECT_TRUE(cluster->endorser(1).reputation().quarantined(NodeId{5}, now));

  // It rejoined the same committee and the same chain as a peer that never
  // went down; the flooder stays excluded.
  EXPECT_TRUE(contains(cluster->committee(), NodeId{2}));
  EXPECT_FALSE(contains(cluster->committee(), NodeId{5}));
  EXPECT_EQ(cluster->endorser(1).chain().tip().hash().hex(),
            cluster->endorser(2).chain().tip().hash().hex());
}

// --- determinism ----------------------------------------------------------------------

TEST(ElectionAttack, AttackCampaignsAreSeedDeterministic) {
  // Identical options twice: the campaign summary is documented to be
  // byte-identical, which pins every committed count, fault-event count and
  // violation line across the attack families' forked RNG streams.
  const ChaosCampaignOptions options = attack_campaign(3);
  const std::string first = run_chaos_campaign(attack_base(), options).summary();
  const std::string second = run_chaos_campaign(attack_base(), options).summary();
  EXPECT_EQ(first, second);
}

TEST(ElectionAttack, ZeroChancePlansMatchPreAttackPlans) {
  // The election-attack families draw from their own forked RNG stream:
  // with all three chances at zero the generated fault plan — and hence the
  // whole run — is byte-identical to a pre-attack-pack campaign.
  ScenarioSpec base = attack_base();
  base.chaos.sybil_burst_chance = 0.0;
  base.chaos.targeted_crash_chance = 0.0;
  base.chaos.oscillate_chance = 0.0;
  base.reputation.enabled = false;
  const ChaosCampaignOptions options = attack_campaign(3);
  EXPECT_EQ(run_chaos_campaign(base, options).summary(),
            run_chaos_campaign(campaign_spec(), options).summary());
}

}  // namespace
}  // namespace gpbft::sim
