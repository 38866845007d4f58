// Wire-tamper chaos suite (tier1-tamper): the in-flight Byzantine adversary
// against all four protocol stacks.
//
//  * Replace storms (MITM) must leave every run crash-free and
//    invariant-clean — mutants double as loss, so consensus rides its
//    timeout/recovery machinery through them.
//  * Inject storms (man-on-the-side) are held to the stronger REJECT-SAFE
//    bar: with MACs on, the tampered run's chain tip must be byte-identical
//    to the clean run's at the same seed (docs/protocol.md §12).
//  * Fault plans with tamper windows stay deterministic, and zero-chance
//    plans are byte-identical to pre-tamper ones (the golden-hash
//    guarantee rests on this).
//
// CI additionally sweeps 20 seeds per protocol under ASan+UBSan via
// `gpbft_cli chaos --tamper` / `--reject-safe` (scripts/ci.sh); this suite
// keeps a smaller, always-on slice of that coverage in the tier-1 gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/chaos.hpp"

namespace gpbft::sim {
namespace {

ChaosCampaignOptions quick_options() {
  ChaosCampaignOptions options;
  options.seeds = 2;
  options.committee = 7;
  options.candidates = 2;
  return options;
}

/// campaign_spec() with tamper windows opening at `chance` per step, in
/// Replace (MITM) mode unless the campaign picks its own.
ScenarioSpec storm(double chance) {
  ScenarioSpec base = campaign_spec();
  base.chaos.tamper_chance = chance;
  base.chaos.tamper_mode = "replace";
  return base;
}

TEST(TamperChaos, ReplaceStormAllProtocolsNoViolations) {
  ChaosCampaignOptions options = quick_options();
  options.intensities = {"none"};  // isolate the wire adversary
  const ChaosCampaignResult result = run_chaos_campaign(storm(0.75), options);

  ASSERT_EQ(result.runs.size(), 8u);  // 4 protocols x 2 seeds
  for (const auto& run : result.runs) {
    EXPECT_TRUE(run.passed()) << run.protocol << " seed " << run.seed << ": "
                              << run.violations.size() << " violations";
    EXPECT_EQ(run.committed, run.expected)
        << run.protocol << " seed " << run.seed << " lost liveness under the storm";
    EXPECT_GT(run.fault_events, 0u) << "no tamper window ever opened";
  }
}

TEST(TamperChaos, ReplaceStormOnTopOfNodeFaults) {
  // The wire adversary composes with the light node-fault profile: crashes
  // and link faults underneath, mutated bytes on top.
  ChaosCampaignOptions options = quick_options();
  options.seeds = 1;
  options.intensities = {"light"};
  const ChaosCampaignResult result = run_chaos_campaign(storm(0.5), options);

  ASSERT_EQ(result.runs.size(), 4u);
  for (const auto& run : result.runs) {
    EXPECT_TRUE(run.passed()) << run.protocol << " seed " << run.seed;
  }
}

TEST(TamperChaos, RejectSafeTipIdentityAcrossProtocols) {
  const ChaosCampaignResult result = run_tamper_campaign(storm(0.75), quick_options());

  ASSERT_EQ(result.runs.size(), 8u);
  for (const auto& run : result.runs) {
    EXPECT_TRUE(run.passed()) << run.protocol << " seed " << run.seed << ": "
                              << (run.violations.empty() ? ""
                                                         : run.violations.front().detail);
    EXPECT_EQ(run.intensity, "inject");
    EXPECT_FALSE(run.tip_hex.empty());
    EXPECT_EQ(run.committed, run.expected) << run.protocol << " seed " << run.seed;
  }
}

TEST(TamperChaos, CampaignsAreDeterministic) {
  ChaosCampaignOptions options = quick_options();
  options.seeds = 1;
  const ChaosCampaignResult first = run_tamper_campaign(storm(0.75), options);
  const ChaosCampaignResult second = run_tamper_campaign(storm(0.75), options);
  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_EQ(first.runs[i].tip_hex, second.runs[i].tip_hex);
    EXPECT_EQ(first.runs[i].committed, second.runs[i].committed);
    EXPECT_EQ(first.runs[i].violations.size(), second.runs[i].violations.size());
  }
  EXPECT_EQ(first.summary(), second.summary());
}

// --- fault-plan generation --------------------------------------------------

std::vector<NodeId> plan_nodes() {
  return {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}, NodeId{6}, NodeId{7}};
}

TEST(TamperChaos, ZeroChancePlansAreByteIdentical) {
  // The tamper stream is forked off the plan seed: leaving tamper_chance at
  // zero must reproduce the pre-tamper plan exactly, event for event. Every
  // golden hash in the repo rests on this property.
  ChaosProfile with_stream = ChaosProfile::medium();
  ASSERT_EQ(with_stream.tamper_chance, 0.0);
  const ChaosProfile baseline = ChaosProfile::medium();
  const FaultPlan a = FaultPlan::random(42, baseline, plan_nodes(), Duration::seconds(60));
  const FaultPlan b = FaultPlan::random(42, with_stream, plan_nodes(), Duration::seconds(60));
  EXPECT_EQ(a.describe(), b.describe());
  for (const auto& event : a.events()) {
    EXPECT_NE(event.kind, ChaosEvent::Kind::Tamper);
    EXPECT_NE(event.kind, ChaosEvent::Kind::TamperHeal);
  }
}

TEST(TamperChaos, TamperWindowsPairWithHealsAndNeverOverlap) {
  ChaosProfile profile = profile_for("none");
  profile.tamper_chance = 1.0;
  const FaultPlan plan = FaultPlan::random(7, profile, plan_nodes(), Duration::seconds(60));
  int open = 0;
  std::size_t windows = 0;
  for (const auto& event : plan.events()) {
    if (event.kind == ChaosEvent::Kind::Tamper) {
      EXPECT_EQ(open, 0) << "overlapping tamper windows at " << event.at.to_seconds() << "s";
      EXPECT_GT(event.tamper_rule.chance, 0.0);
      ++open;
      ++windows;
    } else if (event.kind == ChaosEvent::Kind::TamperHeal) {
      ASSERT_EQ(open, 1);
      --open;
    }
  }
  EXPECT_EQ(open, 0) << "a tamper window was never healed";
  EXPECT_GT(windows, 0u);
}

TEST(TamperChaos, PlansWithTamperAreDeterministic) {
  ChaosProfile profile = ChaosProfile::light();
  profile.tamper_chance = 0.5;
  const FaultPlan a = FaultPlan::random(9, profile, plan_nodes(), Duration::seconds(60));
  const FaultPlan b = FaultPlan::random(9, profile, plan_nodes(), Duration::seconds(60));
  EXPECT_EQ(a.describe(), b.describe());
  const FaultPlan c = FaultPlan::random(10, profile, plan_nodes(), Duration::seconds(60));
  EXPECT_NE(a.describe(), c.describe());
}

}  // namespace
}  // namespace gpbft::sim
