#include "sim/experiment.hpp"

#include <algorithm>

#include "pbft/messages.hpp"
#include "sim/chaos.hpp"
#include "sim/workload_plane.hpp"

namespace gpbft::sim {

ScenarioSpec default_spec() {
  ScenarioSpec spec;
  // Loss-free measurement runs: retransmission off so REQUEST traffic
  // matches the paper's testbed (retries are for faulty networks).
  spec.workload.client_retries = false;
  spec.engine.batch_size = 32;
  // Large sweeps skip recomputing HMAC tags (bytes unchanged); see
  // pbft::PbftConfig::compute_macs.
  spec.engine.compute_macs = false;
  // Under the saturating workload of the latency experiments, requests can
  // legitimately queue for hundreds of simulated seconds (that queueing is
  // the measurement); the timeout must not fire view changes meanwhile.
  spec.engine.request_timeout = spec.deadline;
  spec.committee.era_period = Duration::seconds(30);
  // Promotion machinery parameters: reports every 10 s, Algorithm 1 window
  // of one era period, at least 2 reports; the 72 h stationarity rule is
  // scaled into simulation range so candidate promotion is observable.
  spec.geo.window = spec.committee.era_period;
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  return spec;
}

double consensus_kilobytes(const net::NetStats& stats) {
  std::uint64_t bytes = 0;
  for (const auto type :
       {pbft::msg_type::kClientRequest, pbft::msg_type::kPrePrepare, pbft::msg_type::kPrepare,
        pbft::msg_type::kCommit, pbft::msg_type::kReply}) {
    const auto it = stats.bytes_by_type.find(type);
    if (it != stats.bytes_by_type.end()) bytes += it->second;
  }
  return static_cast<double>(bytes) / 1024.0;
}

namespace {

/// The measured quantities of a finished, stopped run. Phase times come
/// from the per-phase histograms the replicas populated (sums in seconds;
/// empty for PoW).
ExperimentResult finish_result(Deployment& deployment, std::size_t nodes,
                               const LatencyRecorder& recorder, std::uint64_t expected) {
  deployment.finalize_telemetry();
  ExperimentResult result;
  result.nodes = nodes;
  result.committee = deployment.committee_size();
  result.latency_samples = recorder.samples();
  result.latency = recorder.boxplot();
  result.committed = deployment.committed_count();
  result.expected = expected;
  result.consensus_kb = consensus_kilobytes(deployment.stats());
  result.total_kb = deployment.stats().total_kilobytes();
  result.sim_seconds = deployment.simulator().now().to_seconds();
  result.era_switches = deployment.era_switches();
  result.hashes_computed = deployment.hashes_computed();
  const obs::Registry& reg = deployment.telemetry().metrics();
  const obs::Histogram execute = reg.histogram_total("pbft.phase.execute_seconds");
  result.phases.prepare_s = reg.histogram_total("pbft.phase.prepare_seconds").sum;
  result.phases.commit_s = reg.histogram_total("pbft.phase.commit_seconds").sum;
  result.phases.execute_s = execute.sum;
  result.phases.blocks = execute.count;
  return result;
}

}  // namespace

ScenarioSpec latency_scenario(ProtocolKind protocol, std::size_t nodes,
                              const ScenarioSpec& base) {
  ScenarioSpec spec = base;
  spec.protocol = protocol;
  spec.nodes = nodes;
  spec.clients = nodes;  // one proposing device per node (§V-B)
  if (protocol == ProtocolKind::Gpbft) {
    // Steady state of the paper's Fig. 3b: all eligible nodes join until
    // the maximum; the genesis roster holds them directly so the
    // measurement is of the steady committee (era switches still run).
    spec.committee.initial = std::min(nodes, base.committee.max);
  }
  return spec;
}

// --- one scenario -------------------------------------------------------------------

ScenarioRun run_scenario(const ScenarioSpec& spec, std::uint64_t plan_seed,
                         const RunHooks& hooks) {
  ScenarioRun run;
  run.deployment = make_deployment(spec);
  Deployment& deployment = *run.deployment;
  if (hooks.before_start) hooks.before_start(deployment);

  const ChaosSpec& chaos = spec.chaos;
  // Intensity "none" with a positive chance still runs a plan, one whose
  // only families are the enabled ones.
  const bool faults = chaos.intensity != "none" || chaos.restart_chance > 0.0 ||
                      chaos.disk_fault_chance > 0.0 || chaos.sybil_burst_chance > 0.0 ||
                      chaos.targeted_crash_chance > 0.0 || chaos.oscillate_chance > 0.0 ||
                      chaos.tamper_chance > 0.0;
  InvariantMonitor* monitor = nullptr;
  FaultPlan plan;
  if (faults || hooks.always_monitor) {
    run.monitor = std::make_unique<InvariantMonitor>(deployment.simulator());
    monitor = run.monitor.get();
    deployment.watch(*monitor);
    if (spec.protocol == ProtocolKind::Gpbft) {
      // A flood can only show up as a rate anomaly once it spans the audit's
      // lookback window; only seatings past that age count as violations.
      monitor->set_sybil_detection_grace(spec.geo.window + spec.geo.report_period);
      // The reputation-weighted election also claims bounded committee
      // churn: every honest application of an era's configuration must land
      // within the bound of the first one (generous enough for a crash-held
      // victim's resync).
      if (spec.reputation.enabled) monitor->set_era_convergence_bound(Duration::seconds(30));
    }

    ChaosProfile profile = profile_for(chaos.intensity);
    profile.restart_chance = chaos.restart_chance;
    profile.disk_fault_chance = chaos.disk_fault_chance;
    profile.sybil_burst_chance = chaos.sybil_burst_chance;
    profile.targeted_crash_chance = chaos.targeted_crash_chance;
    profile.oscillate_chance = chaos.oscillate_chance;
    profile.tamper_chance = chaos.tamper_chance;
    profile.tamper_template.mode = chaos.tamper_mode == "inject" ? net::TamperRule::Mode::Inject
                                                                 : net::TamperRule::Mode::Replace;
    const std::vector<NodeId> victims = deployment.fault_targets();
    profile.max_faulty = victims.empty() ? 0 : (victims.size() - 1) / 3;
    // Miners model no equivocation faults (there is no FaultMode to toggle);
    // PoW runs get the crash/partition/link/brownout families only.
    if (spec.protocol == ProtocolKind::Pow) {
      profile.byzantine_chance = 0.0;
      // PoW's wire carries no MACs and its client requests no signatures:
      // tampering a request forges workload (a VALIDITY violation by
      // construction), and replaying a mined one re-seeds the mempool. Spare
      // the request plane; the proof/merkle checks cover the block plane.
      profile.tamper_template.spare_types.push_back(pbft::msg_type::kClientRequest);
      if (profile.tamper_template.mode == net::TamperRule::Mode::Inject) {
        // A mutated block header can pass the proof check by sheer luck and
        // would then be a *valid* sibling block, an outcome MAC-based tip
        // identity cannot claim anything about. Inject storms spare the
        // gossip plane; Replace storms still cover it (as loss).
        profile.tamper_template.spare_types.push_back(pow::kPowBlock);
      }
    }
    if (hooks.edit_profile) hooks.edit_profile(profile);
    plan = FaultPlan::random(plan_seed, profile, victims, chaos.horizon);

    FaultPlan::ChaosHandlers handlers;
    handlers.set_byzantine = [&deployment, monitor](NodeId id, pbft::FaultMode mode) {
      deployment.set_fault_mode(id, mode);
      // A Sybil report flood leaves the consensus plane honest: the node is
      // still held to agreement, but marked for the no-Sybil-seated check.
      monitor->set_faulty(id, mode != pbft::FaultMode::None &&
                                  mode != pbft::FaultMode::SybilGeoReports);
      monitor->note_sybil(id, mode == pbft::FaultMode::SybilGeoReports);
    };
    handlers.resolve_target = [&deployment]() { return deployment.latest_elected(); };
    handlers.oscillate = [&deployment](NodeId id, bool displaced) {
      deployment.displace_node(id, displaced);
    };
    handlers.restart = [&deployment](NodeId id) { (void)deployment.restart_node(id); };
    handlers.disk_fault = [&deployment](NodeId id, DiskFaultKind kind) {
      deployment.inject_disk_fault(id, kind);
    };
    handlers.hook = [monitor](const ChaosEvent& event) { monitor->note_fault(event.describe()); };
    plan.schedule(deployment.simulator(), deployment.network(), handlers);
  }

  deployment.start();
  LatencyRecorder recorder;
  Deployment::SubmitHook on_submit;
  if (monitor != nullptr) {
    on_submit = [monitor](const ledger::Transaction& tx) { monitor->expect_submission(tx); };
  }
  deployment.schedule_workload(spec.workload, &recorder, on_submit);

  TimePoint deadline{spec.deadline.ns};
  const TimePoint healed = plan.all_healed_at();
  if (monitor != nullptr) {
    deployment.run_for(chaos.horizon);
    deadline = TimePoint{std::max(chaos.horizon.ns, healed.ns) + chaos.liveness_grace.ns};
  }
  deployment.run_until_committed(spec.workload.txs_per_client, deadline);
  // Restarted nodes may still be closing their resync gap when the last
  // client transaction lands; give the final round-trips time to settle
  // before holding them to the post-restart convergence bound.
  if (monitor != nullptr && monitor->restarts_observed() > 0) {
    deployment.run_for(spec.engine.request_timeout * 3);
  }
  deployment.stop();
  run.tip_hex = deployment.tip_hex();
  run.fault_events = plan.events().size();

  // Open-loop plane: expect what the arrival process actually generated,
  // not a per-client quota.
  const std::uint64_t expected = deployment.plane() != nullptr
                                     ? deployment.plane()->submitted()
                                     : spec.workload.txs_per_client * spec.clients;
  // Invariant verdicts land in the registry and trace, so the end-of-run
  // checks run before finish_result finalizes the telemetry.
  if (monitor != nullptr) {
    deployment.finish_invariants(*monitor);
    monitor->check_restart_convergence();
    monitor->check_bounded_liveness(deployment.committed_count(), expected, healed,
                                    chaos.liveness_grace);
  }
  run.result = finish_result(deployment, spec.nodes, recorder, expected);
  return run;
}

// --- latency experiments ------------------------------------------------------------

ExperimentResult run_latency(ProtocolKind protocol, std::size_t nodes, const ScenarioSpec& base) {
  const ScenarioSpec spec = latency_scenario(protocol, nodes, base);
  return run_scenario(spec, spec.seed).result;
}

// --- communication-cost experiments ---------------------------------------------------

ExperimentResult run_single_tx(ProtocolKind protocol, std::size_t nodes,
                               const ScenarioSpec& base) {
  ScenarioSpec spec = latency_scenario(protocol, nodes, base);
  spec.clients = 1;
  const std::unique_ptr<Deployment> deployment = make_deployment(spec);
  Deployment& cluster = *deployment;
  cluster.start();
  cluster.run_for(Duration::millis(100));  // settle attachments
  cluster.network().reset_stats();

  LatencyRecorder recorder;
  cluster.client(0).set_retry_interval(Duration{0});
  cluster.client(0).set_commit_callback(
      [&recorder](const crypto::Hash256&, Height, Duration latency) {
        recorder.record(latency);
      });
  const ledger::Transaction tx = make_workload_tx(
      cluster.client(0).id(), 1, cluster.placement().position(0),
      cluster.simulator().now(), 32, 10, spec.seed);
  cluster.client(0).submit(tx);

  const TimePoint deadline{spec.deadline.ns};
  cluster.run_until_committed(1, deadline);
  cluster.stop();
  return finish_result(cluster, nodes, recorder, 1);
}

ExperimentResult repeat_runs(ProtocolKind protocol, std::size_t nodes, const ScenarioSpec& base,
                             std::size_t runs) {
  ExperimentResult merged{};
  for (std::size_t r = 0; r < runs; ++r) {
    ScenarioSpec spec = base;
    spec.seed = base.seed * 7919 + r + 1;
    ExperimentResult result = run_latency(protocol, nodes, spec);
    merged.nodes = result.nodes;
    merged.committee = result.committee;
    merged.latency_samples.insert(merged.latency_samples.end(), result.latency_samples.begin(),
                                  result.latency_samples.end());
    merged.committed += result.committed;
    merged.expected += result.expected;
    merged.era_switches += result.era_switches;
    merged.consensus_kb += result.consensus_kb;
    merged.total_kb += result.total_kb;
    merged.sim_seconds += result.sim_seconds;
    merged.hashes_computed += result.hashes_computed;
    merged.phases.prepare_s += result.phases.prepare_s;
    merged.phases.commit_s += result.phases.commit_s;
    merged.phases.execute_s += result.phases.execute_s;
    merged.phases.blocks += result.phases.blocks;
  }
  merged.consensus_kb /= static_cast<double>(runs);
  merged.total_kb /= static_cast<double>(runs);
  merged.latency = BoxplotStats::from_samples(merged.latency_samples);
  return merged;
}

}  // namespace gpbft::sim
