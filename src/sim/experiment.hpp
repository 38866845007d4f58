// Experiment runners for the paper's evaluation section.
//
// run_scenario is the one way to run a ScenarioSpec: it builds the
// deployment, arms the fault plan and invariant monitor spec.chaos asks
// for, drives the workload and returns the measured quantities. The
// latency runner, the CLI's run/report/profile and the chaos campaigns
// (chaos.hpp) all go through it:
//
//   * latency experiments (Figs. 3a/3b/4, Tables III-IV): every node
//     proposes transactions at a constant frequency; per-transaction
//     consensus latency = submission to (f+1)-th matching reply (PoW:
//     submission to confirmation depth);
//   * communication-cost experiments (Figs. 5a/5b/6, Table III): a single
//     transaction is proposed and the bytes on the wire are accounted,
//     split into consensus traffic (REQUEST + three phases + REPLY) and
//     total (including geo reports and era control).
//
// Calibration is centralised in default_spec() — see DESIGN.md §4.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/network.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace gpbft::sim {

/// The calibrated ScenarioSpec every bench starts from (single source of
/// truth): loss-free workload (client retries off), engine batch 32, MACs
/// off, request timeout = deadline, 30 s eras, a one-era geo window, at
/// least 2 reports and a 20 s stationarity threshold. Callers edit the
/// copy; the runners below fill in protocol, nodes and clients.
[[nodiscard]] ScenarioSpec default_spec();

/// Per-phase consensus time, read back from the telemetry registry's
/// pbft.phase.* histograms (summed seconds over all executed blocks on all
/// replicas, so means weight every block equally when runs are merged).
struct PhaseBreakdown {
  double prepare_s{0};   // pre-prepare accepted -> prepared
  double commit_s{0};    // prepared -> committed
  double execute_s{0};   // committed -> executed
  std::uint64_t blocks{0};  // block executions observed (all replicas)

  [[nodiscard]] double prepare_mean() const {
    return blocks == 0 ? 0.0 : prepare_s / static_cast<double>(blocks);
  }
  [[nodiscard]] double commit_mean() const {
    return blocks == 0 ? 0.0 : commit_s / static_cast<double>(blocks);
  }
  [[nodiscard]] double execute_mean() const {
    return blocks == 0 ? 0.0 : execute_s / static_cast<double>(blocks);
  }
};

struct ExperimentResult {
  std::size_t nodes{0};
  std::size_t committee{0};
  BoxplotStats latency;              // seconds, over latency_samples
  std::vector<double> latency_samples;  // per-transaction latencies (s)
  std::uint64_t committed{0};
  std::uint64_t expected{0};
  double consensus_kb{0};            // REQUEST + 3 phases + REPLY bytes
  double total_kb{0};                // everything on the wire
  double sim_seconds{0};             // simulated time consumed
  std::uint64_t era_switches{0};     // G-PBFT only
  double hashes_computed{0};         // PoW only: total network hash work
  PhaseBreakdown phases;             // PBFT-engine protocols; empty for PoW
};

/// Consensus-traffic bytes from network stats (KB).
[[nodiscard]] double consensus_kilobytes(const net::NetStats& stats);

/// The ScenarioSpec a latency experiment deploys: `base` with `protocol`,
/// `nodes` protocol nodes and one proposing client per node. G-PBFT seeds
/// the genesis roster at min(nodes, committee.max) — the paper's Fig. 3b
/// steady state, with era switches still running — so a caller's edit to
/// committee.max moves the roster too.
[[nodiscard]] ScenarioSpec latency_scenario(ProtocolKind protocol, std::size_t nodes,
                                            const ScenarioSpec& base);

// --- one scenario -------------------------------------------------------------------

struct ChaosProfile;

/// What run_scenario takes besides the spec: per-call choices of a caller,
/// never part of the deployment description.
struct RunHooks {
  /// Monitor the run and drive the fault horizon even when spec.chaos arms
  /// no fault family (campaigns hold clean runs to the faulted timeline).
  bool always_monitor{false};
  /// Last edit to the composed ChaosProfile before the plan is drawn.
  std::function<void(ChaosProfile&)> edit_profile;
  /// Runs on the built deployment before start() (tracing switch-on).
  std::function<void(Deployment&)> before_start;
};

/// A finished scenario: the stopped deployment (telemetry finalized, for
/// exports), its result, node 0's chain tip, and, when a plan was armed,
/// the monitor holding the invariant verdict.
struct ScenarioRun {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<InvariantMonitor> monitor;  // null when no plan was armed
  ExperimentResult result;
  std::string tip_hex;
  std::size_t fault_events{0};
};

/// Runs `spec` once. When spec.chaos arms a fault family (an intensity
/// other than "none", or any chaos chance above zero) or the hooks ask for
/// it, the monitor is attached and a FaultPlan seeded with `plan_seed` is
/// drawn from the ChaosProfile spec.chaos describes, with a budget of f
/// among the fault targets. Faults run over chaos.horizon, and the workload
/// gets chaos.liveness_grace past the last heal. Otherwise the workload
/// runs until committed or spec.deadline. Invariant checks finish before
/// the telemetry is finalized.
[[nodiscard]] ScenarioRun run_scenario(const ScenarioSpec& spec, std::uint64_t plan_seed,
                                       const RunHooks& hooks = {});

// --- latency (Figs. 3a, 3b, 4; Tables III-IV) ---------------------------------------

/// Runs latency_scenario(protocol, nodes, base) through run_scenario: the
/// constant-frequency workload, measuring per-transaction consensus latency. dBFT seats
/// min(nodes, dbft.delegates) genesis delegates with NEO-style pacing; PoW
/// counts a transaction once it reaches pow.confirmations depth on any
/// miner's best chain, and hashes_computed reports total mining work.
[[nodiscard]] ExperimentResult run_latency(ProtocolKind protocol, std::size_t nodes,
                                           const ScenarioSpec& base);

// --- communication cost (Figs. 5a, 5b, 6; Table III) -------------------------------

/// Proposes a single transaction from one client and accounts the bytes on
/// the wire. Needs a protocol whose clients are pbft::Clients (not PoW).
[[nodiscard]] ExperimentResult run_single_tx(ProtocolKind protocol, std::size_t nodes,
                                             const ScenarioSpec& base);

/// Repeats run_latency over `runs` seeds derived from base.seed and merges
/// all per-transaction latency samples into one distribution (Fig. 3 draws
/// boxplots over ten runs per node count). Byte costs are averaged across
/// runs.
[[nodiscard]] ExperimentResult repeat_runs(ProtocolKind protocol, std::size_t nodes,
                                           const ScenarioSpec& base, std::size_t runs);

}  // namespace gpbft::sim
