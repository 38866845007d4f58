// perfbench_runner: one benchmark run of one workload.
//
// Builds the workload's deployment from its ScenarioSpec text through
// sim::parse_scenario -> sim::make_deployment, drives it open-loop in fixed
// simulated slices, and prints one JSON object of raw measurements on
// stdout. perfbench/run.py turns that object into the benchmark's metrics;
// README.md in this directory defines every one of them.
//
//   perfbench_runner --scenario FILE --seed N --seconds S --trace 0|1
//                    [--crash-primary-at-ns T]
//
// --trace 0: full repetitions of the batch job until S host seconds have
//            passed (at least one), with kSetups set-up-only repetitions
//            before the first and after each one.
// --trace 1: one untraced repetition, one repetition of the sliced-driver
//            self-test (a single run_for to the same end instant), one
//            repetition with the causal trace, the profiler and the
//            invariant monitor on, then micro-timings of the crypto, codec
//            and ledger calls on the run's own message and block sizes.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "pbft/messages.hpp"
#include "sim/deployment.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario.hpp"
#include "sim/workload_plane.hpp"

namespace gpbft::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Simulated slice of the run loop. Done-checks fall on whole simulated
/// seconds, as in Deployment::run_until_committed, so it divides one second.
constexpr Duration kSlice = Duration::millis(50);
constexpr std::int64_t kSlicesPerSecond = Duration::seconds(1).ns / kSlice.ns;
static_assert(kSlicesPerSecond * kSlice.ns == Duration::seconds(1).ns);
/// Set-up-only repetitions before the first full repetition and after each.
/// Spread over the run, they sample the host's fast and slow spells alike.
constexpr std::size_t kSetups = 10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string scenario;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::int64_t crash_primary_at_ns{-1};  // negative: fault-free workload
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --scenario FILE --seed N --seconds S --trace 0|1\n"
               "                        [--crash-primary-at-ns T]\n",
               why);
  std::exit(2);
}

std::int64_t parse_int(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') usage(flag);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--scenario") {
      args.scenario = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_int(value, "bad --seed"));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_int(value, "bad --seconds"));
    } else if (flag == "--trace") {
      args.trace = parse_int(value, "bad --trace") != 0;
    } else if (flag == "--crash-primary-at-ns") {
      args.crash_primary_at_ns = parse_int(value, "bad --crash-primary-at-ns");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.scenario.empty()) usage("--scenario is required");
  if (args.seconds < 1) usage("--seconds must be at least 1");
  return args;
}

sim::ScenarioSpec load_spec(const Args& args) {
  std::ifstream file(args.scenario);
  if (!file) usage(("cannot read " + args.scenario).c_str());
  std::stringstream text;
  text << file.rdbuf() << "\nseed=" << args.seed << "\n";
  Result<sim::ScenarioSpec> spec = sim::parse_scenario(text.str());
  if (!spec) usage((args.scenario + ": " + spec.error()).c_str());
  return spec.value();
}

// --- one repetition of the batch job ----------------------------------------

enum class Drive {
  Sliced,     // run_for(slice) until done at a whole second: the measured path
  SingleRun,  // one run_for to a given end instant: the slicing self-test
};

struct JobConfig {
  Drive drive{Drive::Sliced};
  TimePoint end{};  // SingleRun only
  bool traced{false};
};

struct JobResult {
  double build_s{0};  // make_deployment + start + schedule_workload
  double run_s{0};    // workload start to done
  double drain_s{0};  // stop + drain of in-flight deliveries
  double host_s{0};   // start() through the drain
  // host_s cut at every slice boundary: [start() to the end of slice 1,
  // slices 2..n, the drain]. Repetitions of one run do identical work per
  // segment, so run.py can compare them segment by segment.
  std::vector<double> segments_s;
  std::uint64_t submitted{0};
  std::uint64_t committed{0};
  std::vector<double> latencies;  // committed requests, seconds from due
  TimePoint end{};                // done instant
  std::uint64_t events_at_end{0};
  std::uint64_t events{0};  // after the drain
  std::string tip;
  double outage_s{0};
  std::uint64_t wire_bytes{0};
  std::uint64_t wire_msgs{0};
  std::uint64_t view_changes{0};
  bool monitor_clean{true};
  std::string monitor_report;
};

using Inspect = std::function<void(sim::Deployment&)>;

/// Runs the workload once. `inspect` (traced repetitions) reads the live
/// deployment after the drain, before it is destroyed.
JobResult run_job(const sim::ScenarioSpec& spec, const Args& args, const JobConfig& config,
                  const Inspect& inspect = {}) {
  JobResult result;
  sim::LatencyRecorder recorder;
  std::optional<sim::InvariantMonitor> monitor;  // outlives the deployment

  const auto t_build = Clock::now();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  net::Simulator& sim = deployment->simulator();
  if (config.traced) {
    deployment->telemetry().set_trace_enabled(true);
    monitor.emplace(sim);
    deployment->watch(*monitor);
    obs::Profiler::instance().clear();
    obs::Profiler::instance().set_enabled(true);
  }
  const auto t_start = Clock::now();
  deployment->start();
  deployment->schedule_workload(spec.workload, &recorder,
                                [&result, &monitor](const ledger::Transaction& tx) {
                                  ++result.submitted;
                                  if (monitor) monitor->expect_submission(tx);
                                });
  const auto t_run = Clock::now();

  TimePoint window_start{};
  if (args.crash_primary_at_ns >= 0) {
    // The fault is a simulator event, so the sliced and single-run drivers
    // inject it identically.
    window_start = TimePoint{args.crash_primary_at_ns};
    const NodeId primary = deployment->committee().front();  // view 0's primary
    net::Network& network = deployment->network();
    sim.schedule_at(window_start, [&network, primary]() { network.crash(primary); });
  }

  auto segment_start = t_start;
  const auto mark_segment = [&]() {
    const auto now = Clock::now();
    result.segments_s.push_back(seconds_between(segment_start, now));
    segment_start = now;
  };

  const TimePoint deadline{spec.deadline.ns};
  if (config.drive == Drive::Sliced) {
    // With the deadline at now, run_until_committed only evaluates the
    // deployment's own "workload done" predicate.
    const auto done = [&]() {
      return deployment->run_until_committed(spec.workload.txs_per_client, sim.now());
    };
    std::int64_t slice_index = 0;
    Duration stall{0};
    Duration longest{0};
    while (sim.now() < deadline) {
      if (slice_index % kSlicesPerSecond == 0 && done()) break;
      const std::uint64_t committed_before = deployment->committed_count();
      const bool pending = result.submitted > committed_before;
      const TimePoint slice_start = sim.now();
      deployment->run_for(kSlice);
      ++slice_index;
      mark_segment();
      if (!pending || deployment->committed_count() != committed_before) {
        stall = Duration{0};
      } else if (slice_start >= window_start) {
        stall = stall + kSlice;
        longest = std::max(longest, stall);
      }
    }
    result.outage_s = longest.to_seconds();
  } else {
    deployment->run_for(config.end - sim.now());
  }
  result.end = sim.now();
  result.events_at_end = sim.events_processed();
  const auto t_done = Clock::now();
  deployment->stop();
  sim.run();
  const auto t_end = Clock::now();
  result.segments_s.push_back(seconds_between(segment_start, t_end));
  if (config.traced) obs::Profiler::instance().set_enabled(false);

  result.build_s = seconds_between(t_build, t_run);
  result.run_s = seconds_between(t_run, t_done);
  result.drain_s = seconds_between(t_done, t_end);
  result.host_s = seconds_between(t_start, t_end);
  result.committed = deployment->committed_count();
  result.latencies = recorder.samples();
  result.events = sim.events_processed();
  result.tip = deployment->tip_hex();
  result.wire_bytes = deployment->stats().total_bytes;
  result.wire_msgs = deployment->stats().total_messages;
  result.view_changes =
      deployment->telemetry().metrics().counter_total("pbft.view_changes_completed");
  if (monitor) {
    result.monitor_clean = monitor->clean();
    result.monitor_report = monitor->report();
  }
  if (inspect) inspect(*deployment);
  return result;
}

/// make_deployment + start + schedule_workload alone, for the set-up time.
double setup_once(const sim::ScenarioSpec& spec) {
  sim::LatencyRecorder recorder;
  const auto t0 = Clock::now();
  const std::unique_ptr<sim::Deployment> deployment = sim::make_deployment(spec);
  deployment->start();
  deployment->schedule_workload(spec.workload, &recorder);
  const double elapsed = seconds_between(t0, Clock::now());
  deployment->stop();
  return elapsed;
}

// --- micro-timings on the run's own sizes -------------------------------------

volatile std::uint64_t g_sink = 0;

/// Median over rounds of host ns per call of `fn`; each round runs for at
/// least ~2 ms so the clock read is negligible.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::size_t iterations = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) fn();
    if (seconds_between(t0, Clock::now()) >= 2e-3 || iterations >= (1u << 24)) break;
    iterations *= 2;
  }
  std::vector<double> rounds;
  for (int r = 0; r < 7; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) fn();
    rounds.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(iterations));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

// --- JSON output --------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const char* key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");  // JSON has no inf or nan
    }
    return raw(key, buf);
  }
  JsonObject& count(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const char* key, bool value) { return raw(key, value ? "true" : "false"); }
  JsonObject& str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (c == '\n') {
        quoted += "\\n";
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        quoted += c;
      }
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Sim-side outcome of a repetition; identical across repetitions of one
/// seed, so run.py checks them for equality.
JsonObject outcome_json(const JobResult& r) {
  JsonObject o;
  o.count("submitted", r.submitted)
      .count("committed", r.committed)
      .str("tip", r.tip)
      .count("end_ns", static_cast<std::uint64_t>(r.end.ns))
      .count("events_at_end", r.events_at_end)
      .count("events", r.events)
      .num("outage_s", r.outage_s)
      .count("wire_bytes", r.wire_bytes)
      .count("wire_msgs", r.wire_msgs)
      .count("view_changes", r.view_changes)
      .raw("latencies_s", json_array(r.latencies));
  return o;
}

JsonObject host_json(const JobResult& r) {
  JsonObject o;
  o.num("build_s", r.build_s)
      .num("run_s", r.run_s)
      .num("drain_s", r.drain_s)
      .num("host_s", r.host_s)
      .raw("segments_s", json_array(r.segments_s));
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- modes ----------------------------------------------------------------------

int run_untraced(const sim::ScenarioSpec& spec, const Args& args) {
  std::vector<double> setups;
  const auto time_setups = [&]() {
    for (std::size_t i = 0; i < kSetups; ++i) setups.push_back(setup_once(spec));
  };
  time_setups();

  std::string reps = "[";
  const auto t0 = Clock::now();
  std::size_t count = 0;
  do {
    const JobResult r = run_job(spec, args, JobConfig{});
    setups.push_back(r.build_s);
    JsonObject rep = outcome_json(r);
    rep.raw("host", host_json(r).str());
    if (count++ > 0) reps += ',';
    reps += rep.str();
    // A repetition that lost requests is not timed again.
    if (r.committed != r.submitted) break;
    time_setups();
  } while (seconds_between(t0, Clock::now()) < args.seconds);
  reps += "]";

  JsonObject out;
  out.raw("setups_s", json_array(setups)).raw("reps", reps).num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// --- traced run: per-layer numbers ------------------------------------------------

/// Counters and histograms the program already keeps, read from the
/// deployment's telemetry registry and accessors.
void add_counters(sim::Deployment& deployment, JsonObject& layers) {
  deployment.finalize_telemetry();
  const obs::Registry& reg = deployment.telemetry().metrics();
  const auto counter = [&reg](const char* name) { return reg.counter_total(name); };
  const auto histogram = [&reg](const char* name) {
    const obs::Histogram h = reg.histogram_total(name);
    JsonObject o;
    o.raw("bounds", json_array(h.bounds))
        .raw("counts", json_array(std::vector<double>(h.counts.begin(), h.counts.end())))
        .count("count", h.count)
        .num("sum", h.sum);
    return o.str();
  };
  layers.count("pbft.blocks_executed", counter("pbft.blocks_executed"))
      .count("pbft.view_changes_completed", counter("pbft.view_changes_completed"))
      .count("pbft.client_table.hits", counter("pbft.client_table.hits"))
      .count("client.retries", counter("client.retries"))
      .count("gpbft.geo_reports_sent", counter("gpbft.geo_reports_sent"))
      .count("gpbft.era_switches", deployment.era_switches())
      .count("gpbft.era_switches_initiated", counter("gpbft.era_switches_initiated"))
      .count("net.msgs_dropped", deployment.stats().dropped_messages)
      .count("net.msgs_rejected", deployment.stats().rejected_messages)
      .count("net.max_queue_depth", deployment.simulator().max_queue_depth())
      .raw("hist.pbft.phase.prepare_seconds", histogram("pbft.phase.prepare_seconds"))
      .raw("hist.pbft.phase.commit_seconds", histogram("pbft.phase.commit_seconds"))
      .raw("hist.gpbft.era_switch_seconds", histogram("gpbft.era_switch_seconds"))
      .raw("hist.net.recv_stall_seconds", histogram("net.recv_stall_seconds"));

  const obs::CriticalPathReport report =
      obs::CriticalPathReport::analyze(deployment.telemetry().trace());
  JsonObject phases;
  for (const obs::PhasePercentiles& p : report.phase_stats()) {
    phases.num(p.name.c_str(), p.total_ms);
  }
  layers.raw("cp_total_ms", phases.str());
}

/// Times pbft::seal and pbft::open_view at each message type's mean size on
/// the wire, with the run's key material and MAC setting, weighted by how
/// many messages of that type the run sent; then SHA-256 per 64-byte block
/// on a buffer of the weighted mean sealed size.
void add_crypto_timings(sim::Deployment& deployment, bool compute_macs, JsonObject& layers) {
  const obs::Registry& reg = deployment.telemetry().metrics();
  const crypto::KeyRegistry& keys = deployment.keys();
  const NodeId sender{1};
  const NodeId receiver{2};
  double seal_ns = 0;
  double open_ns = 0;
  double sealed_bytes = 0;
  double messages = 0;
  for (net::MessageType type = 1; type <= 32; ++type) {
    const std::string name = pbft::message_type_name(type);
    const std::uint64_t msgs = reg.counter_total("net.msgs." + name);
    if (name == "UNKNOWN" || msgs == 0) continue;
    const std::uint64_t bytes = reg.counter_total("net.bytes." + name);

    const std::size_t sealed = bytes / msgs - net::Envelope::kHeaderBytes;
    std::size_t body_len = 1;
    while (pbft::sealed_size(body_len + 1) <= sealed) ++body_len;
    Bytes body(body_len);
    for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i * 31);
    const BytesView body_view(body.data(), body.size());
    const Bytes sealed_body = pbft::seal(keys, sender, receiver, type, body_view, compute_macs);
    const BytesView sealed_view(sealed_body.data(), sealed_body.size());

    const double weight = static_cast<double>(msgs);
    seal_ns += weight * ns_per_call([&]() {
      g_sink = g_sink + pbft::seal(keys, sender, receiver, type, body_view, compute_macs).back();
    });
    open_ns += weight * ns_per_call([&]() {
      const auto body = pbft::open_view(keys, sender, receiver, type, sealed_view, compute_macs);
      g_sink = g_sink + body.value().size();
    });
    sealed_bytes += weight * static_cast<double>(sealed_body.size());
    messages += weight;
  }
  layers.num("crypto.seal_ns", seal_ns / messages)
      .num("crypto.open_ns", open_ns / messages);

  const Bytes data(static_cast<std::size_t>(sealed_bytes / messages), 0xa5);
  const double blocks = static_cast<double>((data.size() + 9 + 63) / 64);  // with padding
  layers.num("crypto.sha256_ns_per_block", ns_per_call([&]() {
               crypto::Sha256 h;
               h.update(BytesView(data.data(), data.size()));
               g_sink = g_sink + h.finalize().bytes[0];
             }) / blocks);
}

const ledger::Chain& chain_of(sim::Deployment& deployment) {
  if (auto* gpbft = dynamic_cast<sim::GpbftCluster*>(&deployment)) {
    return gpbft->endorser(0).chain();
  }
  return dynamic_cast<sim::PbftCluster&>(deployment).replica(0).chain();
}

/// Codec and ledger timings on the run's own block: the one on node 0's
/// chain nearest the mean client transactions per non-empty block.
void add_codec_timings(sim::Deployment& deployment, JsonObject& layers) {
  const ledger::Chain& chain = chain_of(deployment);
  const auto client_txs = [&chain](Height h) {
    const auto& txs = chain.at(h).transactions;
    return static_cast<std::size_t>(std::count_if(txs.begin(), txs.end(), [](const auto& tx) {
      return tx.kind == ledger::TxKind::Normal;
    }));
  };
  std::uint64_t txs = 0;
  std::uint64_t batches = 0;
  for (Height h = 1; h <= chain.height(); ++h) {
    const std::size_t n = client_txs(h);
    txs += n;
    batches += n > 0 ? 1 : 0;
  }
  const double mean_txs = static_cast<double>(txs) / static_cast<double>(batches);
  Height pick = 1;
  for (Height h = 1; h <= chain.height(); ++h) {
    if (std::abs(static_cast<double>(client_txs(h)) - mean_txs) <
        std::abs(static_cast<double>(client_txs(pick)) - mean_txs)) {
      pick = h;
    }
  }
  const ledger::Block& block = chain.at(pick);
  layers.num("pbft.txs_per_batch", mean_txs);

  pbft::PrePrepare pre_prepare;
  pre_prepare.view = block.header.view;
  pre_prepare.seq = block.header.seq;
  pre_prepare.digest = block.hash();
  pre_prepare.block = block;
  const pbft::Prepare prepare{pre_prepare.view, pre_prepare.seq, pre_prepare.digest, NodeId{1}};
  const pbft::Commit commit{pre_prepare.view, pre_prepare.seq, pre_prepare.digest, NodeId{1}};
  const pbft::ClientRequest request{block.transactions.front()};
  const Bytes pre_prepare_bytes = pre_prepare.encode();
  const Bytes prepare_bytes = prepare.encode();
  const Bytes commit_bytes = commit.encode();
  const Bytes request_bytes = request.encode();
  const Bytes block_bytes = block.encode();
  const auto view = [](const Bytes& b) { return BytesView(b.data(), b.size()); };

  layers
      .num("pbft.decode_ns.PRE-PREPARE", ns_per_call([&]() {
             g_sink = g_sink + pbft::PrePrepare::decode(view(pre_prepare_bytes)).value().seq;
           }))
      .num("pbft.decode_ns.PREPARE", ns_per_call([&]() {
             g_sink = g_sink + pbft::Prepare::decode(view(prepare_bytes)).value().seq;
           }))
      .num("pbft.decode_ns.COMMIT", ns_per_call([&]() {
             g_sink = g_sink + pbft::Commit::decode(view(commit_bytes)).value().seq;
           }))
      .num("pbft.decode_ns.REQUEST", ns_per_call([&]() {
             g_sink = g_sink +
                      pbft::ClientRequest::decode(view(request_bytes)).value().transaction.fee;
           }))
      .num("ledger.block_hash_ns",
           ns_per_call([&]() { g_sink = g_sink + block.hash().bytes[0]; }))
      .num("ledger.merkle_root_ns",
           ns_per_call([&]() { g_sink = g_sink + block.compute_merkle_root().bytes[0]; }))
      .num("ledger.block_decode_ns", ns_per_call([&]() {
             g_sink = g_sink + ledger::Block::decode(view(block_bytes)).value().header.height;
           }));
}

/// The untraced repetition (host spans and the trace-overhead base), the
/// sliced-driver self-test, and the traced repetition with the per-layer
/// reads. Per-site profiler rollups are left to run.py: the profiler's JSON
/// tree is passed through verbatim.
int run_traced(const sim::ScenarioSpec& spec, const Args& args) {
  const JobResult plain = run_job(spec, args, JobConfig{});
  JobConfig single;
  single.drive = Drive::SingleRun;
  single.end = plain.end;
  const JobResult self_test = run_job(spec, args, single);

  JsonObject layers;
  JobConfig traced_config;
  traced_config.traced = true;
  const JobResult traced = run_job(spec, args, traced_config, [&](sim::Deployment& deployment) {
    add_counters(deployment, layers);
    add_crypto_timings(deployment, spec.engine.compute_macs, layers);
    add_codec_timings(deployment, layers);
  });

  JsonObject self_test_json;
  self_test_json.str("tip", self_test.tip)
      .count("events_at_end", self_test.events_at_end)
      .count("events", self_test.events)
      .count("end_ns", static_cast<std::uint64_t>(self_test.end.ns));
  JsonObject plain_json = outcome_json(plain);
  plain_json.raw("host", host_json(plain).str());
  JsonObject traced_json = outcome_json(traced);
  traced_json.raw("host", host_json(traced).str())
      .boolean("monitor_clean", traced.monitor_clean)
      .str("monitor_report", traced.monitor_clean ? "" : traced.monitor_report);

  JsonObject out;
  out.raw("plain", plain_json.str())
      .raw("self_test", self_test_json.str())
      .raw("traced", traced_json.str())
      .raw("layers", layers.str())
      .raw("profile", obs::Profiler::instance().to_json())
      .count("profile_total_ns", obs::Profiler::instance().total_wall_ns());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace gpbft::perfbench

int main(int argc, char** argv) {
  using namespace gpbft::perfbench;
  const Args args = parse_args(argc, argv);
  const gpbft::sim::ScenarioSpec spec = load_spec(args);
  return args.trace ? run_traced(spec, args) : run_untraced(spec, args);
}
