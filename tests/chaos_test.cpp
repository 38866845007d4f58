// Chaos engine tests: FaultPlan generation (determinism, fault budget,
// fault/heal pairing), the online InvariantMonitor's detectors, and the
// campaign driver's byte-identical reporting.
#include <gtest/gtest.h>

#include <set>

#include "ledger/block.hpp"
#include "sim/chaos.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"

namespace gpbft::sim {
namespace {

std::vector<NodeId> seven_nodes() {
  std::vector<NodeId> nodes;
  for (std::uint64_t i = 1; i <= 7; ++i) nodes.push_back(NodeId{i});
  return nodes;
}

// --- FaultPlan -----------------------------------------------------------------------

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  const ChaosProfile profile = ChaosProfile::heavy();
  const Duration horizon = Duration::seconds(60);
  const FaultPlan a = FaultPlan::random(123, profile, seven_nodes(), horizon);
  const FaultPlan b = FaultPlan::random(123, profile, seven_nodes(), horizon);
  const FaultPlan c = FaultPlan::random(124, profile, seven_nodes(), horizon);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
  EXPECT_EQ(a.events().size(), b.events().size());
}

TEST(FaultPlan, BudgetRespectedAndEveryFaultHealed) {
  // Walk every generated timeline tracking the concurrently-faulty set:
  // crashed + Byzantine + partitioned-away must never exceed max_faulty,
  // and every fault family must be healed by the end of the plan.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosProfile profile = ChaosProfile::heavy();
    profile.max_faulty = 2;
    const FaultPlan plan =
        FaultPlan::random(seed, profile, seven_nodes(), Duration::seconds(60));

    std::set<std::uint64_t> crashed;
    std::set<std::uint64_t> byzantine;
    std::set<std::uint64_t> partitioned;
    std::set<std::pair<std::uint64_t, std::uint64_t>> degraded_links;
    std::set<std::uint64_t> browned_out;
    for (const ChaosEvent& event : plan.events()) {
      switch (event.kind) {
        case ChaosEvent::Kind::Crash:
          for (const NodeId id : event.nodes) crashed.insert(id.value);
          break;
        case ChaosEvent::Kind::Recover:
          for (const NodeId id : event.nodes) crashed.erase(id.value);
          break;
        case ChaosEvent::Kind::Byzantine:
          for (const NodeId id : event.nodes) byzantine.insert(id.value);
          break;
        case ChaosEvent::Kind::ByzantineHeal:
          for (const NodeId id : event.nodes) byzantine.erase(id.value);
          break;
        case ChaosEvent::Kind::Partition:
          for (const NodeId id : event.nodes) partitioned.insert(id.value);
          break;
        case ChaosEvent::Kind::Heal:
          partitioned.clear();
          break;
        case ChaosEvent::Kind::LinkFault:
          degraded_links.insert({event.nodes.at(0).value, event.nodes.at(1).value});
          break;
        case ChaosEvent::Kind::LinkClear:
          degraded_links.erase({event.nodes.at(0).value, event.nodes.at(1).value});
          break;
        case ChaosEvent::Kind::Brownout:
          for (const NodeId id : event.nodes) browned_out.insert(id.value);
          break;
        case ChaosEvent::Kind::BrownoutClear:
          for (const NodeId id : event.nodes) browned_out.erase(id.value);
          break;
        case ChaosEvent::Kind::Restart:
        case ChaosEvent::Kind::DiskFault:
          break;  // durability events are instantaneous; nothing to heal
        default:
          break;  // attack/tamper families never consume the fault budget
      }
      // The hard budget: concurrently crashed + Byzantine + partitioned.
      std::set<std::uint64_t> faulty = crashed;
      faulty.insert(byzantine.begin(), byzantine.end());
      faulty.insert(partitioned.begin(), partitioned.end());
      ASSERT_LE(faulty.size(), profile.max_faulty)
          << "seed " << seed << " at " << event.describe();
    }
    // Every fault family healed by the end of the plan.
    EXPECT_TRUE(crashed.empty()) << "seed " << seed;
    EXPECT_TRUE(byzantine.empty()) << "seed " << seed;
    EXPECT_TRUE(partitioned.empty()) << "seed " << seed;
    EXPECT_TRUE(degraded_links.empty()) << "seed " << seed;
    EXPECT_TRUE(browned_out.empty()) << "seed " << seed;
    if (!plan.events().empty()) {
      EXPECT_EQ(plan.all_healed_at().ns, plan.events().back().at.ns);
      EXPECT_LE(plan.all_healed_at().ns, Duration::seconds(60).ns);
    }
  }
}

TEST(FaultPlan, GeneratesRestartAndDiskFaultEvents) {
  ChaosProfile profile = ChaosProfile::light();
  profile.restart_chance = 0.5;
  profile.disk_fault_chance = 0.5;
  profile.max_faulty = 2;
  const FaultPlan plan = FaultPlan::random(11, profile, seven_nodes(), Duration::seconds(60));
  std::size_t restarts = 0;
  std::size_t disk_faults = 0;
  for (const ChaosEvent& event : plan.events()) {
    if (event.kind == ChaosEvent::Kind::Restart) ++restarts;
    if (event.kind == ChaosEvent::Kind::DiskFault) ++disk_faults;
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(disk_faults, 0u);
  EXPECT_EQ(plan.describe(),
            FaultPlan::random(11, profile, seven_nodes(), Duration::seconds(60)).describe());
}

TEST(ChaosEvent, DescribeIsStable) {
  EXPECT_EQ(ChaosEvent::crash(TimePoint{Duration::seconds(12).ns}, NodeId{3}).describe(),
            "t=12.000s crash node 3");
  EXPECT_EQ(ChaosEvent::heal(TimePoint{Duration::millis(500).ns}).describe(),
            "t=0.500s heal partition");
}

// --- InvariantMonitor ----------------------------------------------------------------

ledger::Transaction client_tx(std::uint64_t client, RequestId request) {
  return ledger::make_normal_tx(NodeId{kClientIdBase + client}, request, Bytes{1, 2, 3}, Amount{1},
                                geo::GeoReport{});
}

ledger::Block block_at(Height height, std::vector<ledger::Transaction> txs,
                       std::uint8_t salt = 0) {
  ledger::BlockHeader prev;
  prev.height = height - 1;
  prev.prev_hash.bytes[0] = salt;  // differentiates hashes of rival blocks
  return ledger::build_block(prev, std::move(txs), EraId{0}, ViewId{0}, SeqNum{height},
                             TimePoint{}, NodeId{1});
}

TEST(InvariantMonitor, DetectsAgreementViolation) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const ledger::Transaction tx = client_tx(1, 1);
  monitor.expect_submission(tx);

  monitor.on_executed(NodeId{1}, block_at(1, {tx}, 0));
  monitor.on_executed(NodeId{2}, block_at(1, {}, 1));  // rival block, same height

  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::Agreement);
  EXPECT_EQ(monitor.violations()[0].node, NodeId{2});
  EXPECT_FALSE(monitor.clean());
}

TEST(InvariantMonitor, IgnoresFaultyNodesForAgreement) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.set_faulty(NodeId{2}, true);
  monitor.on_executed(NodeId{1}, block_at(1, {}, 0));
  monitor.on_executed(NodeId{2}, block_at(1, {}, 1));  // Byzantine divergence: excluded
  EXPECT_TRUE(monitor.clean());

  monitor.set_faulty(NodeId{2}, false);
  monitor.on_executed(NodeId{2}, block_at(2, {}, 1));
  monitor.on_executed(NodeId{1}, block_at(2, {}, 0));  // now it counts again
  EXPECT_FALSE(monitor.clean());
}

TEST(InvariantMonitor, DetectsUnsubmittedTransaction) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.on_executed(NodeId{1}, block_at(1, {client_tx(1, 99)}));
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::Validity);
}

TEST(InvariantMonitor, DetectsDuplicateExecution) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  const ledger::Transaction tx = client_tx(1, 1);
  monitor.expect_submission(tx);
  monitor.on_executed(NodeId{1}, block_at(1, {tx}));
  monitor.on_executed(NodeId{1}, block_at(2, {tx}));  // same tx at a new height
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::DuplicateExecution);
}

TEST(InvariantMonitor, DetectsMissedLivenessDeadline) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.check_bounded_liveness(5, 10, TimePoint{}, Duration::seconds(30));
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, Violation::Kind::Liveness);

  net::Simulator sim2(1);
  InvariantMonitor satisfied(sim2);
  satisfied.check_bounded_liveness(10, 10, TimePoint{}, Duration::seconds(30));
  EXPECT_TRUE(satisfied.clean());
}

TEST(InvariantMonitor, ViolationCarriesFaultContext) {
  net::Simulator sim(1);
  InvariantMonitor monitor(sim);
  monitor.note_fault("t=1.000s crash node 2");
  monitor.on_executed(NodeId{1}, block_at(1, {}, 0));
  monitor.on_executed(NodeId{3}, block_at(1, {}, 1));
  ASSERT_FALSE(monitor.clean());
  EXPECT_NE(monitor.report().find("crash node 2"), std::string::npos);
}

// --- campaign ------------------------------------------------------------------------

TEST(ChaosCampaign, SummaryIsByteIdenticalAcrossRuns) {
  ChaosCampaignOptions options;
  options.seeds = 2;
  options.intensities = {"medium"};
  const ChaosCampaignResult first = run_chaos_campaign(campaign_spec(), options);
  const ChaosCampaignResult second = run_chaos_campaign(campaign_spec(), options);
  EXPECT_EQ(first.summary(), second.summary());
  EXPECT_EQ(first.failed_runs(), 0u);
  ASSERT_EQ(first.runs.size(), 8u);  // 2 seeds x {pbft, gpbft, dbft, pow}
  for (const ChaosRunResult& run : first.runs) {
    EXPECT_TRUE(run.passed()) << run.protocol << " seed " << run.seed;
    EXPECT_EQ(run.committed, run.expected);
    EXPECT_GT(run.blocks_checked, 0u);
  }
}

TEST(ChaosCampaign, RestartAndDiskFaultSweepIsGreenAndDeterministic) {
  // The headline durability claim: a campaign that crash–restarts nodes from
  // their simulated disks and corrupts those disks mid-run stays green across
  // every protocol stack, and reruns byte-identically under the same seeds.
  ScenarioSpec base = campaign_spec();
  base.chaos.restart_chance = 0.25;
  base.chaos.disk_fault_chance = 0.2;
  ChaosCampaignOptions options;
  options.seeds = 2;
  options.intensities = {"medium"};
  const ChaosCampaignResult first = run_chaos_campaign(base, options);
  const ChaosCampaignResult second = run_chaos_campaign(base, options);
  EXPECT_EQ(first.summary(), second.summary());
  EXPECT_EQ(first.failed_runs(), 0u);
  ASSERT_EQ(first.runs.size(), 8u);  // 2 seeds x {pbft, gpbft, dbft, pow}
  std::uint64_t restarts = 0;
  for (const ChaosRunResult& run : first.runs) {
    EXPECT_TRUE(run.passed()) << run.protocol << " seed " << run.seed;
    EXPECT_EQ(run.committed, run.expected) << run.protocol << " seed " << run.seed;
    restarts += run.restarts;
  }
  EXPECT_GT(restarts, 0u);  // the sweep actually exercised restart recovery
}

TEST(ChaosCampaign, SingleProtocolSelection) {
  // The campaign sweeps exactly the protocols asked for, in order.
  ChaosCampaignOptions options;
  options.seeds = 1;
  options.intensities = {"light"};
  options.protocols = {ProtocolKind::Dbft, ProtocolKind::Pow};
  const ChaosCampaignResult result = run_chaos_campaign(campaign_spec(), options);
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_EQ(result.runs[0].protocol, "dbft");
  EXPECT_EQ(result.runs[1].protocol, "pow");
  EXPECT_EQ(result.failed_runs(), 0u);
}

}  // namespace
}  // namespace gpbft::sim
