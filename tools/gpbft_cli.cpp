// gpbft_cli — command-line front end for the simulation harness.
//
// Runs any of the four implemented consensus protocols against the paper's
// workloads without writing C++:
//
//   gpbft_cli latency --protocol gpbft --nodes 202
//   gpbft_cli cost    --protocol pbft  --nodes 130
//   gpbft_cli sweep   --protocol gpbft --nodes 4,40,130,202 --runs 3 --csv
//   gpbft_cli chaos   --seeds 20 --intensity all
//   gpbft_cli run     --scenario deployment.scenario --trace-out t.json
//   gpbft_cli report  --scenario deployment.scenario
//
// Commands:
//   latency  constant-frequency workload; per-transaction commit latency
//   cost     single transaction; bytes on the wire
//   sweep    latency over a comma-separated node grid
//   chaos    seeded fault-injection campaign (seeds x intensities x
//            protocols) with the online invariant monitor attached; prints
//            a deterministic pass/fail report and exits non-zero on any
//            violation
//   run      one deployment described by a declarative scenario file
//            (key=value; see sim/scenario.hpp). When the scenario's chaos
//            intensity is not "none", a seeded fault plan is injected and
//            the invariant report printed (non-zero exit on violations).
//            --metrics-out writes the telemetry registry as JSONL;
//            --trace-out enables causal tracing and writes a Chrome/
//            Perfetto trace.json (both byte-identical for identical seeds).
//   report   like run, but also pretty-prints the telemetry rollup
//            (per-family counter totals, histogram means) after the run;
//            with --trace-out it additionally prints the commit
//            critical-path breakdown derived from the trace.
//   profile  like run, but with the wall-clock profiler enabled: prints
//            the probe hotspot table (exclusive wall time per site), the
//            commit critical-path phase breakdown and the slowest
//            requests. --profile-out writes the probe call tree as JSON;
//            --collapsed-out writes Brendan-Gregg collapsed stacks for
//            flamegraph.pl / speedscope. Profiling reads only the host's
//            steady clock: the run's chain tip, metrics and trace exports
//            are byte-identical to an unprofiled same-seed run.
//
// Common options (defaults = the calibrated values of DESIGN.md §4):
//   --protocol pbft|gpbft|dbft|pow   --nodes N[,N...]   --seed S
//   --txs K          transactions per client        (12)
//   --period SEC     proposal period per client     (5)
//   --rate S         node processing rate, msgs/s   (160)
//   --batch B        block batch size ceiling       (32)
//   --batch-close N  consensus batch close size     (1 = unbatched)
//   --batch-timeout SEC  partial-batch deadline     (0.25)
//   --max-committee C   G-PBFT committee cap        (40)
//   --era-period SEC    G-PBFT era switch period    (30)
//   --runs R         seeded repetitions (sweep)     (1)
//   --csv            machine-readable output
// Numeric values are parsed as strictly as a scenario file: junk, trailing
// characters and out-of-range values (a zero or non-finite --rate, a zero
// --max-committee) exit 2 before anything runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "sim/chaos.hpp"
#include "sim/experiment.hpp"
#include "sim/workload_plane.hpp"

namespace {

using namespace gpbft;

struct CliOptions {
  std::string command;
  std::string protocol = "gpbft";
  std::vector<std::size_t> nodes = {40};
  std::size_t runs = 1;
  bool csv = false;
  sim::ScenarioSpec spec = sim::default_spec();
  std::string intensity = "all";  // chaos: light|medium|heavy|all
  std::size_t seeds = 10;         // chaos: seeds per (protocol, intensity)
  double restart_chance = 0.0;    // chaos: crash-restart-from-disk chance per step
  double disk_fault_chance = 0.0; // chaos: disk corruption chance per step
  bool attack_election = false;   // chaos: election-attack pack (G-PBFT)
  bool stock_election = false;    // chaos: keep the stock geo-timer election
  bool tamper = false;            // chaos: wire-tamper storm (Replace-mode adversary)
  bool reject_safe = false;       // chaos: REJECT-SAFE clean/Inject tip-identity pairs
  double tamper_chance = 0.0;     // chaos: tamper-window chance per step (0 = default)
  std::string scenario_path;      // run: scenario file
  std::string trace_out;          // run/report: Perfetto trace destination
  std::string metrics_out;        // run/report: metrics JSONL destination
  std::string profile_out;        // profile: probe call tree JSON
  std::string collapsed_out;      // profile: collapsed-stack flamegraph input
  std::size_t top = 15;           // profile/report: hotspot table rows
  bool protocol_set = false;      // chaos/run defaults when unset
  bool seed_set = false;          // run keeps the file's seed when unset
  bool txs_set = false;           // chaos keeps its own default when unset
};

void print_usage() {
  std::fprintf(stderr,
               "usage: gpbft_cli <latency|cost|sweep|chaos|run|report|profile> [options]\n"
               "  --protocol pbft|gpbft|dbft|pow   consensus to run (default gpbft)\n"
               "  --nodes N[,N...]                 network sizes (default 40)\n"
               "  --seed S --txs K --period SEC --rate S --batch B\n"
               "  --batch-close N --batch-timeout SEC\n"
               "  --max-committee C --era-period SEC --runs R --csv\n"
               "chaos options:\n"
               "  --protocol pbft|gpbft|dbft|pow|all  protocols to torture (default all)\n"
               "  --seeds N                        seeds per protocol x intensity (default 10)\n"
               "  --intensity light|medium|heavy|all  fault intensity (default all)\n"
               "  --nodes N                        committee size (default 7)\n"
               "  --restarts P                     crash-restart-from-disk chance per step\n"
               "  --disk-faults P                  disk corruption chance per step\n"
               "  --attack-election                election-attack pack (Sybil floods, targeted\n"
               "                                   crashes, mobility oscillation) with the\n"
               "                                   reputation-weighted election; G-PBFT only\n"
               "                                   unless --protocol says otherwise\n"
               "  --stock-election                 with --attack-election: keep the stock\n"
               "                                   geo-timer election (expected to fail)\n"
               "  --tamper                         wire-tamper storm: an in-flight adversary\n"
               "                                   flips bits, truncates/extends, retypes,\n"
               "                                   oversizes and replays messages (MITM mode)\n"
               "  --tamper-chance P                tamper-window chance per step\n"
               "  --reject-safe                    REJECT-SAFE pairs: each seed runs clean and\n"
               "                                   under a man-on-the-side Inject storm; with\n"
               "                                   MACs on the chain tips must be identical\n"
               "  --seed S --txs K\n"
               "run/report/profile options:\n"
               "  --scenario FILE                  declarative scenario (key=value)\n"
               "  --protocol P --seed S            override the file's values\n"
               "  --trace-out FILE                 enable tracing, write Perfetto trace.json\n"
               "  --metrics-out FILE               write the metrics registry as JSONL\n"
               "profile options:\n"
               "  --profile-out FILE               write the probe call tree as JSON\n"
               "  --collapsed-out FILE             write collapsed stacks (flamegraph input)\n"
               "  --top N                          hotspot/slowest-request table rows (15)\n");
}

bool parse_count(const std::string& value, std::size_t& out) {
  const auto parsed = sim::parse_unsigned(value);
  if (!parsed || parsed.value() == 0) return false;
  out = static_cast<std::size_t>(parsed.value());
  return true;
}

bool parse_chance(const std::string& value, double& out) {
  const auto parsed = sim::parse_number(value);
  if (!parsed || !(parsed.value() >= 0.0 && parsed.value() <= 1.0)) return false;
  out = parsed.value();
  return true;
}

bool parse_seconds(const std::string& value, Duration& out) {
  const auto parsed = sim::parse_number(value);
  if (!parsed || !std::isfinite(parsed.value()) || parsed.value() < 0.0) return false;
  out = Duration::from_seconds(parsed.value());
  return true;
}

bool parse_node_list(const std::string& arg, std::vector<std::size_t>& nodes) {
  nodes.clear();
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = std::min(arg.find(',', start), arg.size());
    std::size_t value = 0;
    if (!parse_count(arg.substr(start, comma - start), value)) return false;
    nodes.push_back(value);
    start = comma + 1;
  }
  return true;
}

/// A flag that names a scenario key: same parser, same range checks.
bool set_key(sim::ScenarioSpec& spec, const char* key, const std::string& value) {
  const Result<void> set = sim::set_scenario_value(spec, key, value);
  if (!set) std::fprintf(stderr, "%s\n", set.error().c_str());
  return set.ok();
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  if (argc < 2) return false;
  options.command = argv[1];
  if (options.command != "latency" && options.command != "cost" && options.command != "sweep" &&
      options.command != "chaos" && options.command != "run" && options.command != "report" &&
      options.command != "profile") {
    return false;
  }

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--csv") {
      options.csv = true;
      continue;
    }
    if (flag == "--attack-election") {
      options.attack_election = true;
      continue;
    }
    if (flag == "--stock-election") {
      options.stock_election = true;
      continue;
    }
    if (flag == "--tamper") {
      options.tamper = true;
      continue;
    }
    if (flag == "--reject-safe") {
      options.reject_safe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--protocol") {
      options.protocol = value;
      options.protocol_set = true;
    } else if (flag == "--nodes") {
      if (!parse_node_list(value, options.nodes)) return false;
    } else if (flag == "--seed") {
      if (!set_key(options.spec, "seed", value)) return false;
      options.seed_set = true;
    } else if (flag == "--txs") {
      if (!set_key(options.spec, "workload.txs_per_client", value)) return false;
      options.txs_set = true;
    } else if (flag == "--period") {
      if (!parse_seconds(value, options.spec.workload.period)) return false;
    } else if (flag == "--rate") {
      if (!set_key(options.spec, "net.processing_rate_msgs_per_sec", value)) return false;
    } else if (flag == "--batch") {
      if (!set_key(options.spec, "engine.batch_size", value)) return false;
    } else if (flag == "--batch-close") {
      if (!set_key(options.spec, "batch.size", value)) return false;
    } else if (flag == "--batch-timeout") {
      if (!parse_seconds(value, options.spec.batch.timeout)) return false;
    } else if (flag == "--max-committee") {
      if (!set_key(options.spec, "committee.max", value)) return false;
    } else if (flag == "--era-period") {
      // The promotion window follows the era cadence (Algorithm 1 evaluates
      // one era's worth of reports).
      if (!parse_seconds(value, options.spec.committee.era_period)) return false;
      options.spec.geo.window = options.spec.committee.era_period;
    } else if (flag == "--runs") {
      if (!parse_count(value, options.runs)) return false;
    } else if (flag == "--seeds") {
      if (!parse_count(value, options.seeds)) return false;
    } else if (flag == "--intensity") {
      options.intensity = value;
    } else if (flag == "--restarts") {
      if (!parse_chance(value, options.restart_chance)) return false;
    } else if (flag == "--disk-faults") {
      if (!parse_chance(value, options.disk_fault_chance)) return false;
    } else if (flag == "--tamper-chance") {
      if (!parse_chance(value, options.tamper_chance)) return false;
    } else if (flag == "--scenario") {
      options.scenario_path = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--metrics-out") {
      options.metrics_out = value;
    } else if (flag == "--profile-out") {
      options.profile_out = value;
    } else if (flag == "--collapsed-out") {
      options.collapsed_out = value;
    } else if (flag == "--top") {
      if (!parse_count(value, options.top)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (options.command == "chaos") {
    if (!options.protocol_set) options.protocol = "all";
    if (options.protocol != "all" && !sim::protocol_from_name(options.protocol).ok()) {
      return false;
    }
    if (options.intensity != "none" && options.intensity != "light" &&
        options.intensity != "medium" && options.intensity != "heavy" &&
        options.intensity != "all") {
      return false;
    }
    return true;
  }
  if (options.command == "run" || options.command == "report" || options.command == "profile") {
    if (options.scenario_path.empty()) return false;
    if (options.protocol_set && !sim::protocol_from_name(options.protocol).ok()) return false;
    return true;
  }
  if (!sim::protocol_from_name(options.protocol).ok()) return false;
  return true;
}

int run_chaos(const CliOptions& options) {
  sim::ChaosCampaignOptions campaign;
  campaign.seeds = options.seeds;
  campaign.base_seed = options.spec.seed;
  campaign.committee = options.nodes.empty() ? 7 : options.nodes.front();
  campaign.restart_chance = options.restart_chance;
  campaign.disk_fault_chance = options.disk_fault_chance;
  if (options.txs_set) campaign.txs_per_client = options.spec.workload.txs_per_client;
  if (options.intensity != "all") campaign.intensities = {options.intensity};
  if (options.protocol != "all") {
    campaign.protocols = {sim::protocol_from_name(options.protocol).value()};
  }
  if (options.attack_election) {
    campaign.sybil_burst_chance = 0.25;
    campaign.targeted_crash_chance = 0.2;
    campaign.oscillate_chance = 0.25;
    campaign.reputation = !options.stock_election;
    // The attacks target the endorser election; torture G-PBFT unless the
    // user named a protocol explicitly.
    if (!options.protocol_set) campaign.protocols = {sim::ProtocolKind::Gpbft};
  }
  if (options.reject_safe) {
    // Clean/Inject pairs at each seed; intensities are ignored ("none" is
    // used so node faults stay out of the tip-identity comparison).
    campaign.tamper_chance = options.tamper_chance;
    const sim::ChaosCampaignResult result = sim::run_tamper_campaign(campaign);
    std::fputs(result.summary().c_str(), stdout);
    return result.failed_runs() == 0 ? 0 : 1;
  }
  if (options.tamper || options.tamper_chance > 0.0) {
    campaign.tamper_chance = options.tamper_chance > 0.0 ? options.tamper_chance : 0.5;
    campaign.tamper_template.mode = net::TamperRule::Mode::Replace;
  }

  const sim::ChaosCampaignResult result = sim::run_chaos_campaign(campaign);
  std::fputs(result.summary().c_str(), stdout);
  return result.failed_runs() == 0 ? 0 : 1;
}


void print_result(const std::string& protocol, bool csv, const sim::ExperimentResult& r) {
  if (csv) {
    std::printf("%s,%zu,%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.3f,%.3f,%llu,%llu,%llu\n",
                protocol.c_str(), r.nodes, r.committee, r.latency.min, r.latency.q1,
                r.latency.median, r.latency.q3, r.latency.max, r.latency.mean, r.consensus_kb,
                r.total_kb, static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.expected),
                static_cast<unsigned long long>(r.era_switches));
    return;
  }
  std::printf("%-6s n=%-4zu committee=%-4zu | latency %s | consensus %.2f KB, total %.2f KB | "
              "%llu/%llu committed",
              protocol.c_str(), r.nodes, r.committee, r.latency.str().c_str(),
              r.consensus_kb, r.total_kb, static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.expected));
  if (r.era_switches > 0) {
    std::printf(" | %llu era switches", static_cast<unsigned long long>(r.era_switches));
  }
  if (r.hashes_computed > 0) std::printf(" | %.2e hashes", r.hashes_computed);
  std::printf("\n");
}

void print_csv_header() {
  std::printf(
      "protocol,nodes,committee,lat_min,lat_q1,lat_med,lat_q3,lat_max,lat_mean,"
      "consensus_kb,total_kb,committed,expected,era_switches\n");
}

/// `run`: one deployment straight from a scenario file.
int run_scenario(const CliOptions& options) {
  std::ifstream file(options.scenario_path);
  if (!file) {
    std::fprintf(stderr, "run: cannot open %s\n", options.scenario_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = sim::parse_scenario(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "run: %s: %s\n", options.scenario_path.c_str(),
                 parsed.error().c_str());
    return 2;
  }
  sim::ScenarioSpec spec = parsed.value();
  if (options.protocol_set) spec.protocol = sim::protocol_from_name(options.protocol).value();
  if (options.seed_set) spec.seed = options.spec.seed;

  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  const bool profiling = options.command == "profile";
  if (profiling) {
    // The profiler reads the host's steady clock only; it cannot perturb
    // the run. The critical-path analyzer needs the causal trace.
    obs::Profiler::instance().set_enabled(true);
    deployment->telemetry().set_trace_enabled(true);
  }
  if (!options.trace_out.empty()) deployment->telemetry().set_trace_enabled(true);
  sim::InvariantMonitor monitor(deployment->simulator());
  const bool durability =
      spec.chaos.restart_chance > 0.0 || spec.chaos.disk_fault_chance > 0.0;
  const bool attacks = spec.chaos.sybil_burst_chance > 0.0 ||
                       spec.chaos.targeted_crash_chance > 0.0 ||
                       spec.chaos.oscillate_chance > 0.0;
  const bool tampering = spec.chaos.tamper_chance > 0.0;
  const bool chaos = spec.chaos.intensity != "none" || durability || attacks || tampering;
  sim::FaultPlan plan;
  if (chaos) {
    deployment->watch(monitor);
    if (spec.protocol == sim::ProtocolKind::Gpbft) {
      // Floods younger than the audit's lookback window cannot show up as a
      // rate anomaly yet; only older seatings count as violations.
      monitor.set_sybil_detection_grace(spec.geo.window + spec.geo.report_period);
      // The reputation-weighted election claims bounded committee churn;
      // hold it to a convergence bound on era-config application spread.
      if (spec.reputation.enabled) {
        monitor.set_era_convergence_bound(Duration::seconds(30));
      }
    }
    // intensity "none" with durability/attack chances still runs a plan —
    // one whose only families are the explicitly enabled ones.
    sim::ChaosProfile profile = spec.chaos.intensity == "none"
                                    ? sim::ChaosProfile{.crash_chance = 0.0,
                                                        .link_fault_chance = 0.0,
                                                        .brownout_chance = 0.0}
                                    : sim::profile_for(spec.chaos.intensity);
    profile.restart_chance = spec.chaos.restart_chance;
    profile.disk_fault_chance = spec.chaos.disk_fault_chance;
    profile.sybil_burst_chance = spec.chaos.sybil_burst_chance;
    profile.targeted_crash_chance = spec.chaos.targeted_crash_chance;
    profile.oscillate_chance = spec.chaos.oscillate_chance;
    profile.tamper_chance = spec.chaos.tamper_chance;
    profile.tamper_template.mode = spec.chaos.tamper_mode == "inject"
                                       ? net::TamperRule::Mode::Inject
                                       : net::TamperRule::Mode::Replace;
    const std::vector<NodeId> victims = deployment->fault_targets();
    profile.max_faulty = victims.empty() ? 0 : (victims.size() - 1) / 3;
    if (spec.protocol == sim::ProtocolKind::Pow) {
      profile.byzantine_chance = 0.0;
      // PoW client requests carry no end-to-end authenticator; tampering
      // them forges workload, not wire noise (see run_protocol_chaos).
      profile.tamper_template.spare_types.push_back(pbft::msg_type::kClientRequest);
      if (profile.tamper_template.mode == net::TamperRule::Mode::Inject) {
        profile.tamper_template.spare_types.push_back(pow::kPowBlock);
      }
    }
    plan = sim::FaultPlan::random(spec.seed, profile, victims, spec.chaos.horizon);
    sim::FaultPlan::ChaosHandlers handlers;
    handlers.set_byzantine = [&deployment, &monitor](NodeId id, pbft::FaultMode mode) {
      deployment->set_fault_mode(id, mode);
      // Sybil report floods stay honest on the consensus plane; the node is
      // still held to agreement but marked for the no-Sybil-seated check.
      monitor.set_faulty(id, mode != pbft::FaultMode::None &&
                                 mode != pbft::FaultMode::SybilGeoReports);
      monitor.note_sybil(id, mode == pbft::FaultMode::SybilGeoReports);
    };
    handlers.resolve_target = [&deployment]() { return deployment->latest_elected(); };
    handlers.oscillate = [&deployment](NodeId id, bool displaced) {
      deployment->displace_node(id, displaced);
    };
    handlers.restart = [&deployment](NodeId id) { (void)deployment->restart_node(id); };
    handlers.disk_fault = [&deployment](NodeId id, sim::DiskFaultKind kind) {
      deployment->inject_disk_fault(id, kind);
    };
    handlers.hook = [&monitor](const sim::ChaosEvent& event) { monitor.note_fault(event.describe()); };
    plan.schedule(deployment->simulator(), deployment->network(), handlers);
  }

  deployment->start();
  sim::LatencyRecorder recorder;
  sim::Deployment::SubmitHook on_submit;
  if (chaos) {
    on_submit = [&monitor](const ledger::Transaction& tx) { monitor.expect_submission(tx); };
  }
  deployment->schedule_workload(spec.workload, &recorder, on_submit);

  TimePoint deadline{spec.deadline.ns};
  if (chaos) {
    deployment->run_for(spec.chaos.horizon);
    deadline = TimePoint{std::max(spec.chaos.horizon.ns, plan.all_healed_at().ns) +
                         spec.chaos.liveness_grace.ns};
  }
  deployment->run_until_committed(spec.workload.txs_per_client, deadline);
  // Give restarted nodes time to finish resyncing the agreed prefix before
  // the convergence check.
  if (monitor.restarts_observed() > 0) deployment->run_for(spec.engine.request_timeout * 3);
  deployment->stop();

  sim::ExperimentResult result;
  result.nodes = spec.nodes;
  result.committee = deployment->committee_size();
  result.latency_samples = recorder.samples();
  result.latency = recorder.boxplot();
  result.committed = deployment->committed_count();
  // Open-loop plane: expect what the arrival process actually generated,
  // not a per-client quota (sim/experiment.cpp does the same).
  result.expected = deployment->plane() != nullptr
                        ? deployment->plane()->submitted()
                        : spec.workload.txs_per_client * spec.clients;
  result.consensus_kb = sim::consensus_kilobytes(deployment->stats());
  result.total_kb = deployment->stats().total_kilobytes();
  result.era_switches = deployment->era_switches();
  result.hashes_computed = deployment->hashes_computed();
  // Invariant verdicts land in the registry/trace, so run the end-of-run
  // checks before the exports are snapshotted.
  if (chaos) {
    deployment->finish_invariants(monitor);
    monitor.check_restart_convergence();
    monitor.check_bounded_liveness(result.committed, result.expected, plan.all_healed_at(),
                                   spec.chaos.liveness_grace);
  }
  deployment->finalize_telemetry();

  if (options.csv) print_csv_header();
  print_result(sim::protocol_name(spec.protocol), options.csv, result);
  if (options.command == "report") {
    std::fputs(deployment->telemetry().metrics().summary().c_str(), stdout);
    if (deployment->telemetry().trace_enabled()) {
      const auto path = obs::CriticalPathReport::analyze(deployment->telemetry().trace());
      std::printf("\n%s", path.phase_table().c_str());
    }
  }
  if (profiling) {
    obs::Profiler& prof = obs::Profiler::instance();
    prof.set_enabled(false);
    std::printf("\ntip %s\n", deployment->tip_hex().c_str());
    std::printf("\n--- wall-clock hotspots (exclusive time) ---\n%s",
                prof.hotspot_table(options.top).c_str());
    const auto path = obs::CriticalPathReport::analyze(deployment->telemetry().trace());
    std::printf("\n--- commit critical path ---\n%s", path.phase_table().c_str());
    std::printf("\n--- slowest requests ---\n%s", path.slowest_table(options.top).c_str());
    if (!options.profile_out.empty() && !prof.write_json(options.profile_out)) {
      std::fprintf(stderr, "cannot write profile to %s\n", options.profile_out.c_str());
      return 2;
    }
    if (!options.collapsed_out.empty() && !prof.write_collapsed(options.collapsed_out)) {
      std::fprintf(stderr, "cannot write collapsed stacks to %s\n",
                   options.collapsed_out.c_str());
      return 2;
    }
  }
  if (!options.trace_out.empty() && !deployment->telemetry().write_trace(options.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", options.trace_out.c_str());
    return 2;
  }
  if (!options.metrics_out.empty() &&
      !deployment->telemetry().write_metrics_jsonl(options.metrics_out)) {
    std::fprintf(stderr, "cannot write metrics to %s\n", options.metrics_out.c_str());
    return 2;
  }

  if (chaos) {
    std::fputs(monitor.report().c_str(), stdout);
    return monitor.clean() ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) {
    print_usage();
    return 2;
  }

  if (options.command == "chaos") return run_chaos(options);
  if (options.command == "run" || options.command == "report" || options.command == "profile") {
    return run_scenario(options);
  }

  const sim::ProtocolKind protocol = sim::protocol_from_name(options.protocol).value();
  if (options.command == "cost" && protocol != sim::ProtocolKind::Pbft &&
      protocol != sim::ProtocolKind::Gpbft) {
    std::fprintf(stderr, "cost: only pbft/gpbft supported\n");
    return 2;
  }
  if (options.csv) print_csv_header();
  for (const std::size_t nodes : options.nodes) {
    sim::ExperimentResult result;
    if (options.command == "latency") {
      result = sim::run_latency(protocol, nodes, options.spec);
    } else if (options.command == "cost") {
      result = sim::run_single_tx(protocol, nodes, options.spec);
    } else {  // sweep: repeated seeded runs per node count, merged distributions
      result = sim::repeat_runs(protocol, nodes, options.spec, options.runs);
    }
    print_result(options.protocol, options.csv, result);
  }
  return 0;
}
