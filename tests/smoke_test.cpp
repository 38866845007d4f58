// End-to-end smoke: both protocols commit transactions in a small network.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace gpbft::sim {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec = default_spec();
  spec.workload.txs_per_client = 2;
  spec.workload.period = Duration::seconds(1);
  spec.engine.compute_macs = true;
  spec.deadline = Duration::seconds(300);
  return spec;
}

TEST(Smoke, PbftCommitsTransactions) {
  const ExperimentResult result = run_latency(ProtocolKind::Pbft, 4, small_spec());
  EXPECT_EQ(result.committed, result.expected);
  EXPECT_GT(result.latency.mean, 0.0);
}

TEST(Smoke, GpbftCommitsTransactions) {
  const ExperimentResult result = run_latency(ProtocolKind::Gpbft, 8, small_spec());
  EXPECT_EQ(result.committed, result.expected);
  EXPECT_EQ(result.committee, 8u);
}

TEST(Smoke, SingleTransactionCostAccounted) {
  const ExperimentResult result = run_single_tx(ProtocolKind::Pbft, 7, small_spec());
  EXPECT_EQ(result.committed, 1u);
  EXPECT_GT(result.consensus_kb, 0.0);
}

}  // namespace
}  // namespace gpbft::sim
