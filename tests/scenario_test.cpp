// Scenario layer tests: the declarative spec round-trips through its text
// format exactly, the deployment factory reproduces the pre-refactor
// clusters seed-for-seed (golden block hashes), and the dBFT / PoW
// deployments hold their invariants under a monitored smoke run.
#include <gtest/gtest.h>

#include <memory>

#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario.hpp"

namespace gpbft::sim {
namespace {

ScenarioSpec exercised_spec() {
  // Touch every section with non-default values so the round-trip test
  // cannot pass by accident of defaults.
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Dbft;
  spec.seed = 987654321;
  spec.nodes = 31;
  spec.clients = 9;
  spec.deadline = Duration::seconds(777);
  spec.workload.txs_per_client = 41;
  spec.workload.period = Duration::millis(1250);
  spec.workload.payload_bytes = 48;
  spec.workload.fee = 3;
  spec.workload.start = TimePoint{Duration::millis(1500).ns};
  spec.workload.stagger = Duration::millis(7);
  spec.workload.client_retries = false;
  spec.committee.initial = 5;
  spec.committee.min = 5;
  spec.committee.max = 21;
  spec.committee.era_period = Duration::seconds(45);
  spec.committee.blacklist = {NodeId{6}, NodeId{30}};
  spec.committee.whitelist = {NodeId{7}};
  spec.geo.report_period = Duration::seconds(7);
  spec.geo.window = Duration::seconds(35);
  spec.geo.min_reports = 4;
  spec.geo.promotion_threshold = Duration::seconds(90);
  spec.geo.reports_on_chain = true;
  spec.engine.batch_size = 24;
  spec.engine.pipeline_depth = 2;
  spec.engine.checkpoint_interval = 32;
  spec.engine.compute_macs = false;
  spec.engine.request_timeout = Duration::seconds(9);
  spec.engine.view_change_timeout = Duration::seconds(7);
  spec.net.processing_rate_msgs_per_sec = 119.5;
  spec.net.drop_rate = 0.015625;
  spec.placement.base = geo::GeoPoint{48.8566, 2.3522};
  spec.placement.area_precision = 6;
  spec.placement.spacing_meters = 12.5;
  spec.dbft.block_interval = Duration::seconds(11);
  spec.dbft.delegates = 9;
  spec.dbft.epoch_blocks = 8;
  spec.pow.block_interval = Duration::seconds(13);
  spec.pow.confirmations = 4;
  spec.pow.hashrate = 2.5e5;
  spec.chaos.intensity = "medium";
  spec.chaos.horizon = Duration::seconds(55);
  spec.chaos.liveness_grace = Duration::seconds(111);
  spec.chaos.restart_chance = 0.125;
  spec.chaos.disk_fault_chance = 0.0625;
  spec.chaos.sybil_burst_chance = 0.25;
  spec.chaos.targeted_crash_chance = 0.1875;
  spec.chaos.oscillate_chance = 0.09375;
  spec.reputation.enabled = true;
  spec.reputation.half_life = Duration::seconds(3600);
  spec.reputation.quarantine_enter = 350;
  spec.reputation.quarantine_exit = 800;
  spec.reputation.sybil_rate_factor = 5;
  return spec;
}

// --- text format ---------------------------------------------------------------------

TEST(Scenario, PrintParseRoundTripIdentity) {
  const ScenarioSpec spec = exercised_spec();
  const std::string text = print_scenario(spec);
  const Result<ScenarioSpec> parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value() == spec);
  // And the rendering is a fixed point: print(parse(print(s))) == print(s).
  EXPECT_EQ(print_scenario(parsed.value()), text);
}

TEST(Scenario, DefaultsRoundTripToo) {
  const ScenarioSpec spec;
  const Result<ScenarioSpec> parsed = parse_scenario(print_scenario(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(Scenario, OmittedKeysKeepDefaults) {
  const Result<ScenarioSpec> parsed =
      parse_scenario("protocol=pow\nnodes=12\n# a comment\n\nseed=5\ncommittee.blacklist=6,9\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().protocol, ProtocolKind::Pow);
  EXPECT_EQ(parsed.value().nodes, 12u);
  EXPECT_EQ(parsed.value().seed, 5u);
  EXPECT_EQ(parsed.value().committee.blacklist, (std::vector<NodeId>{NodeId{6}, NodeId{9}}));
  EXPECT_TRUE(parsed.value().committee.whitelist.empty());
  EXPECT_TRUE(parsed.value().workload == WorkloadSpec{});
}

TEST(Scenario, StrictParseRejectsGarbage) {
  EXPECT_FALSE(parse_scenario("nonsense_key=1\n").ok());       // unknown key
  EXPECT_FALSE(parse_scenario("nodes=5x\n").ok());             // trailing junk
  EXPECT_FALSE(parse_scenario("protocol=raft\n").ok());        // unknown protocol
  EXPECT_FALSE(parse_scenario("nodes\n").ok());                // no '='
  EXPECT_FALSE(parse_scenario("placement.area_precision=13\n").ok());  // out of range
  EXPECT_FALSE(parse_scenario("workload.period_ns=abc\n").ok());
  EXPECT_FALSE(parse_scenario("sim.threads=2\n").ok());  // not a key: host threads are no model parameter
  // Values that used to crash a run or were silently accepted out of range.
  for (const char* rate : {"0", "-5", "nan", "inf"}) {
    EXPECT_FALSE(parse_scenario(std::string("net.processing_rate_msgs_per_sec=") + rate).ok())
        << rate;
  }
  EXPECT_FALSE(parse_scenario("net.drop_rate=1.5\n").ok());
  EXPECT_FALSE(parse_scenario("net.drop_rate=-0.1\n").ok());
  EXPECT_FALSE(parse_scenario("net.drop_rate=nan\n").ok());
  EXPECT_FALSE(parse_scenario("committee.max=0\n").ok());
  // A chaos chance is a per-step probability; NaN used to mean "no chaos".
  for (const char* key : {"restart_chance", "disk_fault_chance", "sybil_burst_chance",
                          "targeted_crash_chance", "oscillate_chance", "tamper_chance"}) {
    for (const char* chance : {"2", "inf", "nan", "-1"}) {
      EXPECT_FALSE(parse_scenario(std::string("chaos.") + key + "=" + chance).ok())
          << key << "=" << chance;
    }
  }
  // Malformed admittance lists.
  for (const char* list : {"5,,6", "0", "5x", ",5", "5,", "-5"}) {
    EXPECT_FALSE(parse_scenario(std::string("committee.blacklist=") + list).ok()) << list;
    EXPECT_FALSE(parse_scenario(std::string("committee.whitelist=") + list).ok()) << list;
  }
}

TEST(Scenario, ProtocolNamesRoundTrip) {
  for (const ProtocolKind kind :
       {ProtocolKind::Pbft, ProtocolKind::Gpbft, ProtocolKind::Dbft, ProtocolKind::Pow}) {
    const Result<ProtocolKind> back = protocol_from_name(protocol_name(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
  EXPECT_FALSE(protocol_from_name("paxos").ok());
}

// --- deployment parity ----------------------------------------------------------------
//
// The golden hashes below pin the exact event sequence a spec-built
// deployment replays for a fixed seed and workload: identical tip hashes,
// heights and commit counts. They have held since the clusters were first
// built from specs; a change here is a behaviour change.

TEST(DeploymentParity, PbftGoldenRunIsBitIdentical) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pbft;
  spec.nodes = 5;
  spec.clients = 2;
  spec.seed = 42;
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 4;

  const auto cluster = std::make_unique<PbftCluster>(spec);
  cluster->start();
  LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);
  const bool done =
      cluster->run_until_committed(spec.workload.txs_per_client,
                                   TimePoint{Duration::seconds(300).ns});
  cluster->stop();

  EXPECT_TRUE(done);
  EXPECT_EQ(cluster->committed_count(), 8u);
  EXPECT_EQ(cluster->replica(0).chain().height(), 8u);
  EXPECT_EQ(cluster->replica(0).chain().tip().hash().hex(),
            "68086af0d716cdecdc16dd24bd2c5c5a353ce8958358e0e12e321500564f84ed");
}

TEST(DeploymentParity, GpbftGoldenRunIsBitIdentical) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Gpbft;
  spec.nodes = 6;
  spec.clients = 2;
  spec.seed = 7;
  spec.committee.initial = 4;
  spec.committee.min = 4;
  spec.committee.max = 6;
  spec.committee.era_period = Duration::seconds(15);
  spec.geo.report_period = Duration::seconds(3);
  spec.geo.window = Duration::seconds(12);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 4;

  const auto cluster = std::make_unique<GpbftCluster>(spec);
  cluster->start();
  LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);
  cluster->run_for(Duration::seconds(60));
  cluster->stop();

  EXPECT_EQ(cluster->committed_count(), 8u);
  EXPECT_EQ(cluster->total_era_switches(), 1u);
  EXPECT_EQ(cluster->committee_size(), 6u);  // both candidates promoted
  EXPECT_EQ(cluster->endorser(0).chain().height(), 9u);
  EXPECT_EQ(cluster->endorser(0).chain().tip().hash().hex(),
            "540d7bde3eab76203c96355ea7b35f686f91d6889e98e6071db233bc81b98894");
}

// --- dBFT / PoW deployments under the monitor ----------------------------------------

TEST(DeploymentSmoke, DbftCommitsCleanlyUnderCrashFault) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Dbft;
  spec.nodes = 7;
  spec.clients = 2;
  spec.seed = 3;
  spec.dbft.block_interval = Duration::seconds(2);
  spec.workload.period = Duration::seconds(1);
  spec.workload.txs_per_client = 3;

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  InvariantMonitor monitor(deployment->simulator());
  deployment->watch(monitor);
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr,
                                [&monitor](const ledger::Transaction& tx) {
                                  monitor.expect_submission(tx);
                                });

  // One delegate drops out mid-run and comes back: f = 2 tolerates it.
  deployment->simulator().schedule(Duration::seconds(3), [&deployment]() {
    deployment->network().crash(NodeId{5});
  });
  deployment->simulator().schedule(Duration::seconds(9), [&deployment]() {
    deployment->network().recover(NodeId{5});
  });

  const bool done = deployment->run_until_committed(
      spec.workload.txs_per_client, TimePoint{Duration::seconds(300).ns});
  deployment->stop();
  deployment->finish_invariants(monitor);

  EXPECT_TRUE(done);
  EXPECT_EQ(deployment->committed_count(), 6u);
  EXPECT_EQ(deployment->committee().size(), 7u);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(DeploymentSmoke, PowConfirmsAndPassesChainInvariants) {
  ScenarioSpec spec;
  spec.protocol = ProtocolKind::Pow;
  spec.nodes = 5;
  spec.clients = 2;
  spec.seed = 9;
  spec.pow.block_interval = Duration::seconds(3);
  spec.pow.confirmations = 2;
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 2;
  spec.deadline = Duration::seconds(2000);

  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  InvariantMonitor monitor(deployment->simulator());
  deployment->watch(monitor);  // no online hook for PoW: checked at the end
  deployment->start();
  deployment->schedule_workload(spec.workload, nullptr,
                                [&monitor](const ledger::Transaction& tx) {
                                  monitor.expect_submission(tx);
                                });

  const bool done = deployment->run_until_committed(spec.workload.txs_per_client,
                                                    TimePoint{spec.deadline.ns});
  deployment->stop();
  deployment->finish_invariants(monitor);

  EXPECT_TRUE(done);
  EXPECT_EQ(deployment->committed_count(), 4u);
  EXPECT_GT(deployment->hashes_computed(), 0.0);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
}

}  // namespace
}  // namespace gpbft::sim
