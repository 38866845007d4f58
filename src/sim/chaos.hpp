// Chaos engine: declarative, seeded fault schedules.
//
// A FaultPlan is a timeline of ChaosEvents — crash/recover, partition/heal,
// per-link fault rules, brownouts, Byzantine fault-mode toggles — that can
// be authored literally (tests pin exact scenarios) or generated randomly
// from a seed and an intensity profile (campaigns sweep seeds). Scheduling
// a plan onto the simulator replays it deterministically: the same plan on
// the same seeded deployment produces a bit-identical run.
//
// Random generation respects a concurrent-fault budget (ChaosProfile::
// max_faulty, normally the committee's f): at no instant are more than that
// many nodes crashed, Byzantine, or partitioned away, and every generated
// fault is paired with a heal — so a correct protocol must come back to
// full liveness after FaultPlan::all_healed_at(). That is exactly the claim
// the paper's evaluation rests on (§IV: tolerance under node churn and
// failures), turned into a repeatable harness.
//
// A scenario's `chaos.*` keys describe its plan; run_scenario
// (experiment.hpp) composes the ChaosProfile from them, schedules the plan
// and arms the InvariantMonitor. run_chaos_campaign is a sweep over it:
// N seeds x intensity levels x protocols (PBFT / G-PBFT / dBFT / PoW, all
// behind the Deployment interface) from one base spec, rendered as a
// deterministic pass/fail report (the CLI `chaos` subcommand is a thin
// wrapper over it). Each protocol is
// checked against the invariant subset that applies to it: the BFT
// deployments hook every execution online; PoW has no execution hook and
// instead replays every miner's confirmed prefix at run end — agreement is
// only claimed at the configured confirmation depth. Byzantine fault-mode
// toggles only exist for the BFT protocols; PoW profiles zero that chance.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "pbft/config.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario.hpp"
#include "sim/storage.hpp"

namespace gpbft::sim {

/// One scheduled fault action.
struct ChaosEvent {
  enum class Kind {
    Crash,          // nodes: victims
    Recover,        // nodes: victims
    Partition,      // nodes: the isolated minority (everyone else majority)
    Heal,           // heals the partition
    LinkFault,      // nodes: {from, to}; fault: the rule
    LinkClear,      // nodes: {from, to}
    Brownout,       // nodes: {victim}; factor: rate divisor
    BrownoutClear,  // nodes: {victim}
    Byzantine,      // nodes: {victim}; mode: the behaviour
    ByzantineHeal,  // nodes: {victim}
    Restart,        // nodes: {victim}; crash–restart from the node's disk
    DiskFault,      // nodes: {victim}; disk: the corruption injected
    // Election-attack family (targets G-PBFT's endorser election):
    SybilBurst,        // nodes: {victim}; floods forged geo reports
    SybilHeal,         // nodes: {victim}; stops the flood
    TargetedCrash,     // nodes empty; victim resolved at fire time via
                       // ChaosHandlers::resolve_target (most-recently-
                       // elected endorser); recovers after `hold`
    OscillateMobility,  // nodes: {victim}; displaces its reported cell
    OscillateRestore,   // nodes: {victim}; moves it back
    // Wire-tamper family (a network-wide in-flight adversary, not a node
    // fault — it never consumes the concurrent-fault budget):
    Tamper,      // nodes empty; tamper_rule: the adversary installed
    TamperHeal,  // removes the adversary
  };

  TimePoint at;
  Kind kind{Kind::Crash};
  std::vector<NodeId> nodes;
  net::LinkFault fault{};
  double factor{1.0};
  pbft::FaultMode mode{pbft::FaultMode::None};
  DiskFaultKind disk{DiskFaultKind::TornWrite};
  Duration hold{};  // TargetedCrash: downtime before the scheduled recover
  net::TamperRule tamper_rule{};  // Tamper: the rule to install

  /// Deterministic one-line rendering ("t=12.000s crash node 3").
  [[nodiscard]] std::string describe() const;

  // Literal-authoring helpers.
  static ChaosEvent crash(TimePoint at, NodeId victim);
  static ChaosEvent recover(TimePoint at, NodeId victim);
  static ChaosEvent partition(TimePoint at, std::vector<NodeId> minority);
  static ChaosEvent heal(TimePoint at);
  static ChaosEvent link_fault(TimePoint at, NodeId from, NodeId to, net::LinkFault fault);
  static ChaosEvent link_clear(TimePoint at, NodeId from, NodeId to);
  static ChaosEvent brownout(TimePoint at, NodeId victim, double factor);
  static ChaosEvent brownout_clear(TimePoint at, NodeId victim);
  static ChaosEvent byzantine(TimePoint at, NodeId victim, pbft::FaultMode mode);
  static ChaosEvent byzantine_heal(TimePoint at, NodeId victim);
  static ChaosEvent restart(TimePoint at, NodeId victim);
  static ChaosEvent disk_fault(TimePoint at, NodeId victim, DiskFaultKind kind);
  static ChaosEvent sybil_burst(TimePoint at, NodeId victim);
  static ChaosEvent sybil_heal(TimePoint at, NodeId victim);
  static ChaosEvent targeted_crash(TimePoint at, Duration hold);
  static ChaosEvent oscillate_mobility(TimePoint at, NodeId victim);
  static ChaosEvent oscillate_restore(TimePoint at, NodeId victim);
  static ChaosEvent tamper(TimePoint at, net::TamperRule rule);
  static ChaosEvent tamper_heal(TimePoint at);
};

/// Intensity profile for random plan generation. Every `step`, each fault
/// family fires with its chance; a fired fault lasts `fault_duration` and
/// then heals. Parameter maxima bound the drawn severities.
struct ChaosProfile {
  Duration step = Duration::seconds(5);
  Duration fault_duration = Duration::seconds(10);

  double crash_chance{0.2};
  double partition_chance{0.0};
  double byzantine_chance{0.0};
  double link_fault_chance{0.2};
  double brownout_chance{0.15};
  /// Durability faults; zero in the built-in profiles (a scenario opts in
  /// via its chaos.* chances). Their randomness draws from a stream forked
  /// off the plan seed, so enabling them never perturbs the other families.
  double restart_chance{0.0};
  double disk_fault_chance{0.0};

  /// Election-attack families (Sybil report floods, targeted crashes of the
  /// most-recently-elected endorser, mobility oscillation at the stability
  /// boundary); zero in the built-in profiles. Like the durability pair,
  /// their randomness draws from its own stream forked off the plan seed —
  /// zero-chance plans are byte-identical to pre-attack ones.
  double sybil_burst_chance{0.0};
  double targeted_crash_chance{0.0};
  double oscillate_chance{0.0};

  /// Wire-tamper windows (in-flight bit flips, truncation, type confusion,
  /// oversized payloads, replays); zero in the built-in profiles. Like the
  /// other opt-in families the draws come from a forked stream, so
  /// zero-chance plans are byte-identical to pre-tamper ones. A fired
  /// window installs `tamper_template` with a per-message mutation rate
  /// drawn up to `max_tamper_rate`; one window is live at a time.
  double tamper_chance{0.0};
  double max_tamper_rate{0.25};
  net::TamperRule tamper_template{};

  double max_loss{0.15};
  Duration max_extra_latency = Duration::millis(40);
  double max_duplicate{0.25};
  Duration max_reorder = Duration::millis(20);
  double max_brownout{6.0};

  /// Concurrent crashed + Byzantine + partitioned-away budget (run_scenario
  /// sets it to f of the deployment's fault targets).
  std::size_t max_faulty{1};

  static ChaosProfile light();
  static ChaosProfile medium();
  static ChaosProfile heavy();
};

class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(ChaosEvent event);

  /// Generates a plan over [0, horizon): one decision round per
  /// profile.step, faults drawn only among `nodes`, every fault healed by
  /// horizon. Same (seed, profile, nodes, horizon) => identical plan.
  static FaultPlan random(std::uint64_t seed, const ChaosProfile& profile,
                          const std::vector<NodeId>& nodes, Duration horizon);

  [[nodiscard]] const std::vector<ChaosEvent>& events() const { return events_; }
  /// Instant of the last scheduled event — after it, every generated fault
  /// has healed (random plans always pair faults with heals).
  [[nodiscard]] TimePoint all_healed_at() const;
  /// Deterministic multi-line rendering of the whole timeline.
  [[nodiscard]] std::string describe() const;

  using ByzantineSetter = std::function<void(NodeId, pbft::FaultMode)>;
  using EventHook = std::function<void(const ChaosEvent&)>;
  using RestartHandler = std::function<void(NodeId)>;
  using DiskFaultHandler = std::function<void(NodeId, DiskFaultKind)>;
  using TargetResolver = std::function<NodeId()>;
  using MobilityToggler = std::function<void(NodeId, bool)>;

  /// Receivers for the event families that need deployment cooperation.
  /// Network-level events (crash, partition, link, brownout) always apply;
  /// an event whose handler is unset is skipped (the hook still fires).
  struct ChaosHandlers {
    ByzantineSetter set_byzantine;
    RestartHandler restart;        // wire to Deployment::restart_node
    DiskFaultHandler disk_fault;   // wire to Deployment::inject_disk_fault
    /// TargetedCrash resolution: called at fire time, returns the victim
    /// (G-PBFT wires the most-recently-elected endorser). Unset = skipped.
    TargetResolver resolve_target;
    /// OscillateMobility: displace (`true`) or restore (`false`) a device's
    /// reported cell (G-PBFT moves its location and area-registry slot).
    MobilityToggler oscillate;
    EventHook hook;                // fires after each applied event
  };

  /// Schedules every event onto the simulator with the full handler set.
  void schedule(net::Simulator& sim, net::Network& network, const ChaosHandlers& handlers) const;

  /// Convenience overload for plans without restart/disk-fault events.
  void schedule(net::Simulator& sim, net::Network& network, ByzantineSetter set_byzantine = {},
                EventHook hook = {}) const;

 private:
  std::vector<ChaosEvent> events_;
};

// --- seeded campaigns ---------------------------------------------------------------

/// Profile by name; aborts on an unknown intensity. "none" yields an
/// all-zero profile — no fault family fires — so campaigns can isolate an
/// opt-in family (tamper storms, REJECT-SAFE pairs) from node faults.
[[nodiscard]] ChaosProfile profile_for(const std::string& intensity);

/// The ScenarioSpec a chaos campaign starts from: two clients proposing
/// six transactions every 4 s with retries on, PBFT timeouts below the
/// 40 s fault horizon so view changes fire under faults, and each
/// protocol's pacing compressed into the horizon (G-PBFT eras and geo
/// promotion, dBFT and PoW block intervals, PoW confirmation depth).
/// Callers edit the copy (seed, workload, spec.chaos chances, reputation);
/// the campaign fills in protocol, seed, intensity and committee shape.
[[nodiscard]] ScenarioSpec campaign_spec();

/// A campaign's sweep axes and committee shape. Everything else a run
/// deploys comes from the base spec the campaign is given.
struct ChaosCampaignOptions {
  std::size_t seeds{10};
  std::vector<std::string> intensities{"light", "medium", "heavy"};
  /// Protocols swept, in report order.
  std::vector<ProtocolKind> protocols{ProtocolKind::Pbft, ProtocolKind::Gpbft,
                                      ProtocolKind::Dbft, ProtocolKind::Pow};

  /// Committee size (PBFT replicas / G-PBFT initial committee / dBFT
  /// delegates / PoW miners).
  std::size_t committee{7};
  /// Extra G-PBFT candidate endorsers (era switches promote them mid-run).
  std::size_t candidates{2};
};

struct ChaosRunResult {
  std::string protocol;
  std::string intensity;
  std::uint64_t seed{0};
  std::uint64_t committed{0};
  std::uint64_t expected{0};
  std::size_t fault_events{0};
  std::uint64_t restarts{0};
  std::uint64_t blocks_checked{0};
  std::vector<Violation> violations;
  /// Hex hash of node 0's chain tip at run end — the REJECT-SAFE campaign
  /// compares it across a clean/tampered pair.
  std::string tip_hex;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

struct ChaosCampaignResult {
  std::vector<ChaosRunResult> runs;

  [[nodiscard]] std::size_t failed_runs() const;
  /// Deterministic report: same options => byte-identical text.
  [[nodiscard]] std::string summary() const;
};

/// Runs every protocol x intensity x seed through run_scenario with the
/// monitor attached. Run i deploys `base` at seed base.seed + i, and its
/// fault plan is seeded from (base.seed, i, protocol, intensity).
[[nodiscard]] ChaosCampaignResult run_chaos_campaign(const ScenarioSpec& base,
                                                     const ChaosCampaignOptions& options);

/// The REJECT-SAFE campaign: for every protocol x seed it runs `base`
/// twice at the same seed, once clean (tamper chance zero) and once under
/// an Inject-mode storm whose windows open with base.chaos.tamper_chance
/// (man-on-the-side ghosts; replay disabled because replayed genuine
/// messages legitimately elicit responses), and requires the tampered
/// run's chain tip to be byte-identical to the clean run's. With MACs on,
/// every forged ghost must be rejected at the wire layer without perturbing
/// the genuine plane; a tip mismatch records a RejectSafe violation.
/// `options.intensities` is ignored ("none" is used so node faults stay out
/// of the picture).
[[nodiscard]] ChaosCampaignResult run_tamper_campaign(const ScenarioSpec& base,
                                                      const ChaosCampaignOptions& options);

}  // namespace gpbft::sim
