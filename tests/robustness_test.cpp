// Robustness: no decoder crashes on arbitrary bytes, replicas shrug off
// garbage and forged messages, and the sync protocol refuses conflicting
// blocks. Byzantine peers get to send anything; the honest state machine
// must neither crash nor corrupt.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ledger/genesis.hpp"
#include "ledger/store.hpp"
#include "pbft/messages.hpp"
#include "pow/pow_store.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/workload.hpp"

namespace gpbft {
namespace {

using namespace sim;

// --- decoder fuzz ----------------------------------------------------------------

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes data(rng.uniform(0, max_len));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, NoDecoderCrashesOnArbitraryBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Bytes data = random_bytes(rng, 512);
    const BytesView view(data.data(), data.size());
    // Each decode either errors or yields a value; it must never crash or
    // read out of bounds (ASAN-clean under arbitrary input).
    (void)ledger::Transaction::decode(view);
    (void)ledger::Block::decode(view);
    (void)ledger::BlockHeader::decode(view);
    (void)pbft::ClientRequest::decode(view);
    (void)pbft::PrePrepare::decode(view);
    (void)pbft::Prepare::decode(view);
    (void)pbft::Commit::decode(view);
    (void)pbft::Reply::decode(view);
    (void)pbft::CheckpointMsg::decode(view);
    (void)pbft::ViewChangeMsg::decode(view);
    (void)pbft::NewViewMsg::decode(view);
    (void)pbft::SyncRequest::decode(view);
    (void)pbft::SyncResponse::decode(view);
    (void)pbft::GeoReportMsg::decode(view);
    (void)pbft::EraHaltMsg::decode(view);
    (void)pbft::EraLaunchMsg::decode(view);
  }
}

TEST_P(DecoderFuzz, TruncationsOfValidMessagesError) {
  Rng rng(GetParam());
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  const ledger::Transaction tx =
      ledger::make_normal_tx(NodeId{3}, 9, Bytes{1, 2, 3, 4}, 7, report);
  const Bytes encoded = tx.encode();
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const auto decoded = ledger::Transaction::decode(BytesView(encoded.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << cut << " decoded successfully";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(101, 202, 303, 404));

// --- store-image fuzz ----------------------------------------------------------------
//
// The restart path feeds whatever a simulated disk yields straight into the
// chain deserializers; a corrupt image must come back as an error, never a
// crash and never a silently-wrong chain.

ledger::Chain small_chain() {
  ledger::GenesisConfig config;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    config.initial_endorsers.push_back(
        ledger::EndorserInfo{NodeId{i}, geo::GeoPoint{22.39, 114.1}});
  }
  ledger::Chain chain(ledger::make_genesis_block(config));
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  for (std::uint64_t b = 1; b <= 3; ++b) {
    std::vector<ledger::Transaction> txs;
    txs.push_back(ledger::make_normal_tx(NodeId{10}, b, Bytes{1, 2}, 5, report));
    const ledger::Block block =
        ledger::build_block(chain.tip().header, std::move(txs), 0, 0, b,
                            TimePoint{Duration::seconds(static_cast<std::int64_t>(b)).ns},
                            NodeId{1 + b % 4});
    EXPECT_TRUE(chain.append(block, block.tx_digests()).ok());
  }
  return chain;
}

class StoreImageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreImageFuzz, DeserializersSurviveArbitraryBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Bytes data = random_bytes(rng, 1024);
    const BytesView view(data.data(), data.size());
    (void)ledger::deserialize_chain(view);
    (void)pow::deserialize_pow_chain(view);
  }
}

TEST_P(StoreImageFuzz, MutatedImagesErrorOrDecodeTheOriginal) {
  Rng rng(GetParam());
  const ledger::Chain chain = small_chain();
  const Bytes image = ledger::serialize_chain(chain);
  for (int i = 0; i < 100; ++i) {
    Bytes mutated = image;
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    }
    const auto decoded = ledger::deserialize_chain(BytesView(mutated.data(), mutated.size()));
    // Flips at the same position may cancel out; every surviving decode must
    // be the original chain, bit for bit.
    if (decoded.ok()) {
      EXPECT_EQ(decoded.value().tip().hash(), chain.tip().hash());
      EXPECT_EQ(decoded.value().height(), chain.height());
    }
    // Truncations of the mutated image must never decode.
    const auto truncated =
        ledger::deserialize_chain(BytesView(mutated.data(), rng.uniform(0, image.size() - 1)));
    EXPECT_FALSE(truncated.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreImageFuzz, ::testing::Values(11, 22, 33));

// --- garbage on the wire ------------------------------------------------------------

TEST(Robustness, ReplicaIgnoresGarbagePayloads) {
  ScenarioSpec config;
  config.nodes = 4;
  config.clients = 1;
  config.seed = 9;
  PbftCluster cluster(config);
  cluster.start();

  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    net::Envelope envelope;
    envelope.from = NodeId{9999};  // not even a participant
    envelope.to = cluster.replica(0).id();
    envelope.type = static_cast<net::MessageType>(rng.uniform(0, 30));
    envelope.payload = random_bytes(rng, 256);
    cluster.network().send(std::move(envelope));
  }
  cluster.run_for(Duration::seconds(2));

  // Still fully functional afterwards.
  cluster.client(0).submit(make_workload_tx(cluster.client(0).id(), 1,
                                            cluster.placement().position(0),
                                            cluster.simulator().now(), 16, 10, 1));
  cluster.run_for(Duration::seconds(5));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(Robustness, SpoofedSenderEnvelopesRejected) {
  // A message sealed by node X but delivered in an envelope claiming node Y
  // fails the seal check on arrival.
  ScenarioSpec config;
  config.nodes = 4;
  config.clients = 1;
  config.seed = 9;
  PbftCluster cluster(config);
  cluster.start();

  // Craft a valid-looking PREPARE sealed with the attacker's own key but
  // spoofing the envelope sender as replica 2.
  pbft::Prepare forged;
  forged.view = 0;
  forged.seq = 1;
  forged.digest = crypto::sha256("forged");
  forged.replica = cluster.replica(1).id();
  const Bytes body = forged.encode();

  net::Envelope envelope;
  envelope.from = cluster.replica(1).id();  // spoofed
  envelope.to = cluster.replica(0).id();
  envelope.type = pbft::msg_type::kPrepare;
  // Sealed under the *attacker's* identity (node 9999): tag cannot verify
  // for the claimed sender.
  envelope.payload = pbft::seal(cluster.keys(), NodeId{9999}, cluster.replica(0).id(),
                                pbft::msg_type::kPrepare,
                                BytesView(body.data(), body.size()), true);
  cluster.network().send(std::move(envelope));
  cluster.run_for(Duration::seconds(1));

  // The forged vote influenced nothing; normal operation proceeds.
  cluster.client(0).submit(make_workload_tx(cluster.client(0).id(), 1,
                                            cluster.placement().position(0),
                                            cluster.simulator().now(), 16, 10, 1));
  cluster.run_for(Duration::seconds(5));
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

TEST(Robustness, ConflictingSyncResponseRejected) {
  ScenarioSpec config;
  config.nodes = 4;
  config.clients = 1;
  config.seed = 9;
  PbftCluster cluster(config);
  cluster.start();

  // Commit one real block everywhere.
  cluster.client(0).submit(make_workload_tx(cluster.client(0).id(), 1,
                                            cluster.placement().position(0),
                                            cluster.simulator().now(), 16, 10, 1));
  cluster.run_for(Duration::seconds(5));
  ASSERT_EQ(cluster.replica(0).chain().height(), 1u);
  const crypto::Hash256 honest_tip = cluster.replica(0).chain().tip().hash();

  // A malicious "responder" offers a different block 1 (and a block 2 built
  // on it). Linkage from genesis is valid, but replica 0 already committed
  // a conflicting block 1 — hash linkage fails at adoption.
  const ledger::Block& genesis = cluster.replica(0).chain().at(0);
  geo::GeoReport report;
  report.point = geo::GeoPoint{22.39, 114.10};
  ledger::Block fake1 = ledger::build_block(
      genesis.header, {ledger::make_normal_tx(NodeId{66}, 1, Bytes{9}, 5, report)}, 0, 0, 1,
      TimePoint{Duration::seconds(2).ns}, cluster.replica(1).id());
  ledger::Block fake2 = ledger::build_block(
      fake1.header, {ledger::make_normal_tx(NodeId{66}, 2, Bytes{9}, 5, report)}, 0, 0, 2,
      TimePoint{Duration::seconds(3).ns}, cluster.replica(1).id());

  pbft::SyncResponse poison;
  poison.blocks = {fake1, fake2};
  poison.responder = cluster.replica(1).id();
  const Bytes body = poison.encode();
  net::Envelope envelope;
  envelope.from = cluster.replica(1).id();
  envelope.to = cluster.replica(0).id();
  envelope.type = pbft::msg_type::kSyncResponse;
  envelope.payload = pbft::seal(cluster.keys(), cluster.replica(1).id(),
                                cluster.replica(0).id(), pbft::msg_type::kSyncResponse,
                                BytesView(body.data(), body.size()), true);
  cluster.network().send(std::move(envelope));
  cluster.run_for(Duration::seconds(2));

  EXPECT_EQ(cluster.replica(0).chain().height(), 1u);
  EXPECT_EQ(cluster.replica(0).chain().tip().hash(), honest_tip);
}

TEST(Robustness, CandidateIgnoresConsensusTraffic) {
  // A candidate endorser receives stray consensus messages (e.g. replayed
  // by an attacker); it must not build chain state from them.
  ScenarioSpec config;
  config.nodes = 6;
  config.committee.initial = 4;
  config.clients = 0;
  config.seed = 3;
  config.committee.era_period = Duration::seconds(1000);  // no switches
  GpbftCluster cluster(config);
  cluster.start();
  ASSERT_EQ(cluster.endorser(5).role(), ::gpbft::gpbft::Role::Candidate);

  pbft::Commit stray;
  stray.view = 0;
  stray.seq = 1;
  stray.digest = crypto::sha256("stray");
  stray.replica = cluster.endorser(0).id();
  const Bytes body = stray.encode();
  for (int i = 0; i < 10; ++i) {
    net::Envelope envelope;
    envelope.from = cluster.endorser(0).id();
    envelope.to = cluster.endorser(5).id();
    envelope.type = pbft::msg_type::kCommit;
    envelope.payload = pbft::seal(cluster.keys(), cluster.endorser(0).id(),
                                  cluster.endorser(5).id(), pbft::msg_type::kCommit,
                                  BytesView(body.data(), body.size()), true);
    cluster.network().send(std::move(envelope));
  }
  cluster.run_for(Duration::seconds(2));
  EXPECT_EQ(cluster.endorser(5).chain().height(), 0u);
}

// --- faulty primary across an era switch ----------------------------------------------

/// Runs a G-PBFT cluster whose view-0 primary turns Byzantine before the
/// first era switch: the view change must route around it and the switch
/// must still land, with the invariant monitor attached throughout.
void faulty_primary_era_switch(pbft::FaultMode mode) {
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
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  spec.workload.period = Duration::seconds(2);
  spec.workload.txs_per_client = 4;

  const auto cluster = std::make_unique<GpbftCluster>(spec);
  InvariantMonitor monitor(cluster->simulator());
  cluster->watch(monitor);
  cluster->start();
  cluster->schedule_workload(spec.workload, nullptr,
                             [&monitor](const ledger::Transaction& tx) {
                               monitor.expect_submission(tx);
                             });
  GpbftCluster* raw = cluster.get();
  const NodeId victim = cluster->endorser(0).id();  // view-0 primary
  cluster->simulator().schedule(Duration::seconds(5), [raw, &monitor, victim, mode]() {
    raw->set_fault_mode(victim, mode);
    monitor.set_faulty(victim, true);
  });

  EXPECT_TRUE(cluster->run_until_committed(spec.workload.txs_per_client,
                                           TimePoint{Duration::seconds(600).ns}));
  cluster->run_for(Duration::seconds(30));
  cluster->stop();
  cluster->finish_invariants(monitor);

  EXPECT_GE(cluster->total_era_switches(), 1u);
  EXPECT_TRUE(monitor.clean()) << monitor.report();
  // The honest endorsers agree on one chain despite the Byzantine primary.
  EXPECT_EQ(cluster->endorser(1).chain().tip().hash().hex(),
            cluster->endorser(2).chain().tip().hash().hex());
}

TEST(Robustness, SilentPrimaryStillReachesEraSwitch) {
  faulty_primary_era_switch(pbft::FaultMode::Silent);
}

TEST(Robustness, CorruptProposalsPrimaryStillReachesEraSwitch) {
  faulty_primary_era_switch(pbft::FaultMode::CorruptProposals);
}

TEST(Robustness, HighLossNetworkEventuallyCommits) {
  // 20% message loss: retransmission-free PBFT relies on quorums being
  // redundant; with the sync protocol the cluster still converges.
  ScenarioSpec config;
  config.nodes = 7;
  config.clients = 1;
  config.seed = 21;
  config.net.drop_rate = 0.2;
  config.engine.request_timeout = Duration::seconds(15);
  PbftCluster cluster(config);
  cluster.start();

  const ledger::Transaction tx = make_workload_tx(cluster.client(0).id(), 1,
                                                  cluster.placement().position(0),
                                                  cluster.simulator().now(), 16, 10, 1);
  // The client retransmits a few times, as real clients do on loss.
  for (int attempt = 0; attempt < 5; ++attempt) {
    cluster.client(0).submit(tx);
    cluster.run_for(Duration::seconds(10));
    if (cluster.client(0).committed_count() > 0) break;
  }
  EXPECT_EQ(cluster.client(0).committed_count(), 1u);
}

}  // namespace
}  // namespace gpbft
