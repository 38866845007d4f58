// Environmental sensor network with on-chain location reports.
//
// A city deploys fixed air-quality sensors. The deployment runs G-PBFT in
// full-fidelity mode (geo.reports_on_chain): every periodic location report
// is a zero-fee transaction, so the election table — the paper's
// chain-based G(v, t) — is reconstructible from blocks alone. The example
// shows a late-joining sensor bootstrapping its entire election table from
// the state transfer, then auditing another device's location history
// straight off the chain.
//
//   ./build/examples/sensor_network
#include <cstdio>
#include <memory>

#include "sim/deployment.hpp"

int main() {
  using namespace gpbft;

  sim::ScenarioSpec spec;
  spec.protocol = sim::ProtocolKind::Gpbft;
  spec.nodes = 8;              // fixed sensors
  spec.committee.initial = 4;  // the first four installed
  spec.clients = 4;            // mobile probes submitting readings
  spec.seed = 12;
  spec.geo.reports_on_chain = true;
  spec.committee.era_period = Duration::seconds(12);
  spec.geo.report_period = Duration::seconds(3);
  spec.geo.window = Duration::seconds(12);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  spec.workload.period = Duration::seconds(5);
  spec.workload.txs_per_client = 10;

  const auto cluster = std::make_unique<sim::GpbftCluster>(spec);
  cluster->start();

  // Mobile probes upload air-quality readings continuously.
  sim::LatencyRecorder recorder;
  cluster->schedule_workload(spec.workload, &recorder);

  cluster->run_for(Duration::seconds(60));
  cluster->run_until_committed(spec.workload.txs_per_client,
                               TimePoint{Duration::seconds(300).ns});

  const std::uint64_t committed = cluster->committed_count();
  std::printf("sensor network: era %llu, committee %zu, %llu readings committed "
              "(mean %.3f s)\n\n",
              static_cast<unsigned long long>(cluster->era()), cluster->committee_size(),
              static_cast<unsigned long long>(committed), recorder.mean());

  // How much of the chain is location reports vs readings?
  const auto& chain = cluster->endorser(0).chain();
  std::size_t reports = 0, readings = 0;
  for (Height h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions) {
      if (ledger::is_geo_report_tx(tx)) {
        ++reports;
      } else if (tx.kind == ledger::TxKind::Normal) {
        ++readings;
      }
    }
  }
  std::printf("chain: %llu blocks, %zu location reports, %zu sensor readings on chain\n",
              static_cast<unsigned long long>(chain.height()), reports, readings);

  // The late-joining sensor (device 8) rebuilt its election table entirely
  // from chain data during its state transfer.
  const auto& newcomer = cluster->endorser(7);
  std::printf("\ndevice 8 joined in era %llu as %s; its election table knows %zu devices\n",
              static_cast<unsigned long long>(newcomer.era()),
              newcomer.role() == ::gpbft::gpbft::Role::Active ? "an endorser" : "a candidate",
              newcomer.election_table().devices().size());

  // Audit device 1's location history from the newcomer's chain-derived
  // table (the paper's Table II, rebuilt from blocks).
  const NodeId audited = cluster->endorser(0).id();
  std::printf("\naudit of %s from chain-derived data (last rows):\n", audited.str().c_str());
  const std::string table = newcomer.election_table().render(audited);
  // Print only the header and the final few rows to keep the output short.
  std::size_t shown = 0, lines = 0;
  for (const char c : table) {
    if (c == '\n') ++lines;
  }
  std::size_t skip = lines > 6 ? lines - 6 : 0;
  std::size_t line = 0;
  std::string current;
  for (const char c : table) {
    current.push_back(c);
    if (c == '\n') {
      if (line == 0 || line > skip) {
        std::fputs(current.c_str(), stdout);
        ++shown;
      }
      current.clear();
      ++line;
    }
  }
  return committed == spec.workload.txs_per_client * cluster->client_count() ? 0 : 1;
}
