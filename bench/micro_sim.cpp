// Micro-benchmarks: discrete-event simulator throughput and an end-to-end
// consensus round — the numbers that bound how large a deployment the
// harness can sweep per wall-clock second.
#include <benchmark/benchmark.h>

#include <memory>

#include "sim/deployment.hpp"
#include "sim/workload.hpp"

namespace {

using namespace gpbft;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim(1);
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(Duration::micros(i), []() {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_NetworkMessageDelivery(benchmark::State& state) {
  struct Sink : net::INetNode {
    NodeId node_id;
    [[nodiscard]] NodeId id() const override { return node_id; }
    void handle(const net::Envelope&) override {}
  };
  for (auto _ : state) {
    net::Simulator sim(1);
    net::Network network(sim, net::NetConfig{});
    Sink a, b;
    a.node_id = NodeId{1};
    b.node_id = NodeId{2};
    network.attach(&a);
    network.attach(&b);
    for (int i = 0; i < 1'000; ++i) {
      network.send(net::Envelope{NodeId{1}, NodeId{2}, 1, Bytes(64, 0)});
    }
    sim.run();
    benchmark::DoNotOptimize(network.stats().total_bytes);
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_NetworkMessageDelivery);

void BM_ConsensusRound(benchmark::State& state) {
  // Full three-phase PBFT round, committee size as the argument.
  for (auto _ : state) {
    state.PauseTiming();
    sim::ScenarioSpec spec;
    spec.protocol = sim::ProtocolKind::Pbft;
    spec.nodes = static_cast<std::size_t>(state.range(0));
    spec.clients = 1;
    spec.seed = 1;
    spec.engine.compute_macs = false;
    const auto cluster = std::make_unique<sim::PbftCluster>(spec);
    cluster->start();
    state.ResumeTiming();

    cluster->client(0).submit(sim::make_workload_tx(cluster->client(0).id(), 1,
                                                    cluster->placement().position(0),
                                                    cluster->simulator().now(), 32, 10, 1));
    cluster->run_until_committed(1, TimePoint{Duration::seconds(120).ns});
    benchmark::DoNotOptimize(cluster->client(0).committed_count());
    state.PauseTiming();
    cluster->stop();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ConsensusRound)->Arg(4)->Arg(16)->Arg(40)->Unit(benchmark::kMillisecond);

}  // namespace
