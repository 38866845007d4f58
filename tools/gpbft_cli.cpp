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
//            (key=value; see sim/scenario.hpp), run by sim::run_scenario.
//            When its chaos.* keys arm a fault plan, the invariant report
//            is printed (non-zero exit on violations).
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
// latency/cost/sweep options (defaults = the calibrated values of DESIGN.md §4):
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
// --max-committee) exit 2 before anything runs, as does a flag the command
// does not read (kCommandFlags).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "sim/chaos.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace gpbft;

struct CliOptions {
  std::string command;
  std::string protocol = "gpbft";
  std::vector<std::size_t> nodes = {40};
  std::size_t runs = 1;
  bool csv = false;
  /// latency/cost/sweep: default_spec(); chaos: the campaign's base spec,
  /// campaign_spec(). Flags that name a scenario key edit it.
  sim::ScenarioSpec spec;
  std::string intensity = "all";  // chaos: light|medium|heavy|all
  std::size_t seeds = 10;         // chaos: seeds per (protocol, intensity)
  bool attack_election = false;   // chaos: election-attack pack (G-PBFT)
  bool stock_election = false;    // chaos: keep the stock geo-timer election
  bool tamper = false;            // chaos: wire-tamper storm (Replace-mode adversary)
  bool reject_safe = false;       // chaos: REJECT-SAFE clean/Inject tip-identity pairs
  std::string scenario_path;      // run: scenario file
  std::string trace_out;          // run/report: Perfetto trace destination
  std::string metrics_out;        // run/report: metrics JSONL destination
  std::string profile_out;        // profile: probe call tree JSON
  std::string collapsed_out;      // profile: collapsed-stack flamegraph input
  std::size_t top = 15;           // profile: hotspot table rows
  bool protocol_set = false;      // chaos/run defaults when unset
  bool seed_set = false;          // run keeps the file's seed when unset
  std::vector<std::string> flags;  // every flag given, for the per-command check
};

void print_usage() {
  std::fprintf(stderr,
               "usage: gpbft_cli <latency|cost|sweep|chaos|run|report|profile> [options]\n"
               "(a flag the command does not read exits 2)\n"
               "latency/cost/sweep options:\n"
               "  --protocol pbft|gpbft|dbft|pow   consensus to run (default gpbft)\n"
               "  --nodes N[,N...]                 network sizes (default 40)\n"
               "  --seed S --rate S --batch B --batch-close N --batch-timeout SEC\n"
               "  --max-committee C --era-period SEC --csv\n"
               "  --txs K --period SEC             latency/sweep   --runs R   sweep\n"
               "chaos options:\n"
               "  --protocol pbft|gpbft|dbft|pow|all  protocols to torture (default all)\n"
               "  --seeds N                        seeds per protocol x intensity (default 10)\n"
               "  --intensity none|light|medium|heavy|all  fault intensity (default all)\n"
               "  --nodes N                        committee size (default 40)\n"
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
               "  --csv                            machine-readable result line\n"
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

/// The flags each command reads. A command given any other flag exits 2
/// before anything runs rather than silently ignoring it.
constexpr std::string_view kScenarioFlags =
    " --protocol --seed --csv --scenario --trace-out --metrics-out ";
constexpr std::pair<std::string_view, std::string_view> kCommandFlags[] = {
    {"latency", " --protocol --nodes --seed --txs --period --rate --batch --batch-close"
                " --batch-timeout --max-committee --era-period --csv "},
    {"cost", " --protocol --nodes --seed --rate --batch --batch-close --batch-timeout"
             " --max-committee --era-period --csv "},
    {"sweep", " --protocol --nodes --seed --txs --period --rate --batch --batch-close"
              " --batch-timeout --max-committee --era-period --csv --runs "},
    {"chaos", " --protocol --nodes --seed --txs --seeds --intensity --restarts --disk-faults"
              " --attack-election --stock-election --tamper --tamper-chance --reject-safe "},
    {"run", kScenarioFlags},
    {"report", kScenarioFlags},
    {"profile", " --protocol --seed --csv --scenario --trace-out --metrics-out --profile-out"
                " --collapsed-out --top "},
};

bool given(const CliOptions& options, const char* flag) {
  return std::find(options.flags.begin(), options.flags.end(), flag) != options.flags.end();
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  if (argc < 2) return false;
  options.command = argv[1];
  const auto command = std::find_if(std::begin(kCommandFlags), std::end(kCommandFlags),
                                    [&](const auto& entry) { return entry.first == argv[1]; });
  if (command == std::end(kCommandFlags)) return false;
  options.spec = options.command == "chaos" ? sim::campaign_spec() : sim::default_spec();

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    options.flags.push_back(flag);
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
      if (!set_key(options.spec, "chaos.restart_chance", value)) return false;
    } else if (flag == "--disk-faults") {
      if (!set_key(options.spec, "chaos.disk_fault_chance", value)) return false;
    } else if (flag == "--tamper-chance") {
      if (!set_key(options.spec, "chaos.tamper_chance", value)) return false;
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
  for (const std::string& flag : options.flags) {
    if (command->second.find(" " + flag + " ") == std::string_view::npos) {
      std::fprintf(stderr, "%s: %s does not apply\n", options.command.c_str(), flag.c_str());
      return false;
    }
  }
  if (options.command == "chaos") {
    if (options.nodes.size() != 1) {
      std::fprintf(stderr, "chaos: --nodes takes one committee size\n");
      return false;
    }
    if (options.stock_election && !options.attack_election) {
      std::fprintf(stderr, "chaos: --stock-election applies only with --attack-election\n");
      return false;
    }
    // REJECT-SAFE pairs run at intensity "none" with their own Inject storm.
    if (options.reject_safe && (options.tamper || given(options, "--intensity"))) {
      std::fprintf(stderr, "chaos: --tamper and --intensity do not apply with --reject-safe\n");
      return false;
    }
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
  sim::ScenarioSpec base = options.spec;
  sim::ChaosCampaignOptions campaign;
  campaign.seeds = options.seeds;
  campaign.committee = options.nodes.front();
  if (options.intensity != "all") campaign.intensities = {options.intensity};
  if (options.protocol != "all") {
    campaign.protocols = {sim::protocol_from_name(options.protocol).value()};
  }
  if (options.attack_election) {
    base.chaos.sybil_burst_chance = 0.25;
    base.chaos.targeted_crash_chance = 0.2;
    base.chaos.oscillate_chance = 0.25;
    base.reputation.enabled = !options.stock_election;
    // The attacks target the endorser election; torture G-PBFT unless the
    // user named a protocol explicitly.
    if (!options.protocol_set) campaign.protocols = {sim::ProtocolKind::Gpbft};
  }
  // Storm windows open on half the steps (--tamper) or three quarters
  // (--reject-safe) unless --tamper-chance says otherwise.
  if (!given(options, "--tamper-chance")) {
    if (options.tamper) base.chaos.tamper_chance = 0.5;
    if (options.reject_safe) base.chaos.tamper_chance = 0.75;
  }
  // --reject-safe: clean/Inject pairs at each seed, at intensity "none" so
  // node faults stay out of the tip-identity comparison.
  const sim::ChaosCampaignResult result = options.reject_safe
                                              ? sim::run_tamper_campaign(base, campaign)
                                              : sim::run_chaos_campaign(base, campaign);
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

/// `run`/`report`/`profile`: one deployment straight from a scenario file.
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

  const bool profiling = options.command == "profile";
  sim::RunHooks hooks;
  hooks.before_start = [&options, profiling](sim::Deployment& deployment) {
    // The profiler reads the host's steady clock only; it cannot perturb
    // the run. The critical-path analyzer needs the causal trace.
    if (profiling) obs::Profiler::instance().set_enabled(true);
    if (profiling || !options.trace_out.empty()) deployment.telemetry().set_trace_enabled(true);
  };
  const sim::ScenarioRun run = sim::run_scenario(spec, spec.seed, hooks);
  obs::Telemetry& telemetry = run.deployment->telemetry();

  if (options.csv) print_csv_header();
  print_result(sim::protocol_name(spec.protocol), options.csv, run.result);
  if (options.command == "report") {
    std::fputs(telemetry.metrics().summary().c_str(), stdout);
    if (telemetry.trace_enabled()) {
      const auto path = obs::CriticalPathReport::analyze(telemetry.trace());
      std::printf("\n%s", path.phase_table().c_str());
    }
  }
  if (profiling) {
    obs::Profiler& prof = obs::Profiler::instance();
    prof.set_enabled(false);
    std::printf("\ntip %s\n", run.tip_hex.c_str());
    std::printf("\n--- wall-clock hotspots (exclusive time) ---\n%s",
                prof.hotspot_table(options.top).c_str());
    const auto path = obs::CriticalPathReport::analyze(telemetry.trace());
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
  if (!options.trace_out.empty() && !telemetry.write_trace(options.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", options.trace_out.c_str());
    return 2;
  }
  if (!options.metrics_out.empty() && !telemetry.write_metrics_jsonl(options.metrics_out)) {
    std::fprintf(stderr, "cannot write metrics to %s\n", options.metrics_out.c_str());
    return 2;
  }

  if (run.monitor != nullptr) {
    std::fputs(run.monitor->report().c_str(), stdout);
    return run.monitor->clean() ? 0 : 1;
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
