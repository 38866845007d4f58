#include "sim/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>

#include "sim/experiment.hpp"

namespace gpbft::sim {

namespace {

std::string time_str(TimePoint at) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.3fs", at.to_seconds());
  return buf;
}

std::string nodes_str(const std::vector<NodeId>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(nodes[i].value);
  }
  return out;
}

const char* chaos_kind_name(ChaosEvent::Kind kind) {
  switch (kind) {
    case ChaosEvent::Kind::Crash: return "crash";
    case ChaosEvent::Kind::Recover: return "recover";
    case ChaosEvent::Kind::Partition: return "partition";
    case ChaosEvent::Kind::Heal: return "heal";
    case ChaosEvent::Kind::LinkFault: return "link_fault";
    case ChaosEvent::Kind::LinkClear: return "link_clear";
    case ChaosEvent::Kind::Brownout: return "brownout";
    case ChaosEvent::Kind::BrownoutClear: return "brownout_clear";
    case ChaosEvent::Kind::Byzantine: return "byzantine";
    case ChaosEvent::Kind::ByzantineHeal: return "byzantine_heal";
    case ChaosEvent::Kind::Restart: return "restart";
    case ChaosEvent::Kind::DiskFault: return "disk_fault";
    case ChaosEvent::Kind::SybilBurst: return "sybil_burst";
    case ChaosEvent::Kind::SybilHeal: return "sybil_heal";
    case ChaosEvent::Kind::TargetedCrash: return "targeted_crash";
    case ChaosEvent::Kind::OscillateMobility: return "oscillate_mobility";
    case ChaosEvent::Kind::OscillateRestore: return "oscillate_restore";
    case ChaosEvent::Kind::Tamper: return "tamper";
    case ChaosEvent::Kind::TamperHeal: return "tamper_heal";
  }
  return "unknown";
}

const char* tamper_mode_name(net::TamperRule::Mode mode) {
  switch (mode) {
    case net::TamperRule::Mode::Replace: return "replace";
    case net::TamperRule::Mode::Inject: return "inject";
  }
  return "unknown";
}

const char* fault_mode_name(pbft::FaultMode mode) {
  switch (mode) {
    case pbft::FaultMode::None: return "none";
    case pbft::FaultMode::Silent: return "silent";
    case pbft::FaultMode::EquivocateDigest: return "equivocate";
    case pbft::FaultMode::CorruptProposals: return "corrupt-proposals";
    case pbft::FaultMode::SybilGeoReports: return "sybil-geo-reports";
  }
  return "unknown";
}

}  // namespace

// --- ChaosEvent -------------------------------------------------------------------

std::string ChaosEvent::describe() const {
  std::string out = time_str(at) + " ";
  char buf[128];
  switch (kind) {
    case Kind::Crash:
      out += "crash node " + nodes_str(nodes);
      break;
    case Kind::Recover:
      out += "recover node " + nodes_str(nodes);
      break;
    case Kind::Partition:
      out += "partition {" + nodes_str(nodes) + "} from the rest";
      break;
    case Kind::Heal:
      out += "heal partition";
      break;
    case Kind::LinkFault:
      std::snprintf(buf, sizeof(buf), "link %llu->%llu loss=%.2f lat+=%.0fms dup=%.2f reorder=%.0fms",
                    static_cast<unsigned long long>(nodes.at(0).value),
                    static_cast<unsigned long long>(nodes.at(1).value), fault.loss,
                    fault.extra_latency.to_millis(), fault.duplicate,
                    fault.reorder_window.to_millis());
      out += buf;
      break;
    case Kind::LinkClear:
      out += "clear link " + std::to_string(nodes.at(0).value) + "->" +
             std::to_string(nodes.at(1).value);
      break;
    case Kind::Brownout:
      std::snprintf(buf, sizeof(buf), "brownout node %llu x%.1f",
                    static_cast<unsigned long long>(nodes.at(0).value), factor);
      out += buf;
      break;
    case Kind::BrownoutClear:
      out += "brownout clear node " + nodes_str(nodes);
      break;
    case Kind::Byzantine:
      out += "byzantine node " + nodes_str(nodes) + " mode=" + fault_mode_name(mode);
      break;
    case Kind::ByzantineHeal:
      out += "byzantine heal node " + nodes_str(nodes);
      break;
    case Kind::Restart:
      out += "restart node " + nodes_str(nodes);
      break;
    case Kind::DiskFault:
      out += "disk fault node " + nodes_str(nodes) + " kind=" + disk_fault_name(disk);
      break;
    case Kind::SybilBurst:
      out += "sybil burst node " + nodes_str(nodes);
      break;
    case Kind::SybilHeal:
      out += "sybil heal node " + nodes_str(nodes);
      break;
    case Kind::TargetedCrash:
      std::snprintf(buf, sizeof(buf), "targeted crash (latest elected) hold=%.3fs",
                    hold.to_seconds());
      out += buf;
      break;
    case Kind::OscillateMobility:
      out += "oscillate mobility node " + nodes_str(nodes);
      break;
    case Kind::OscillateRestore:
      out += "oscillate restore node " + nodes_str(nodes);
      break;
    case Kind::Tamper:
      std::snprintf(buf, sizeof(buf), "tamper wire mode=%s rate=%.3f",
                    tamper_mode_name(tamper_rule.mode), tamper_rule.chance);
      out += buf;
      break;
    case Kind::TamperHeal:
      out += "tamper heal";
      break;
  }
  return out;
}

ChaosEvent ChaosEvent::crash(TimePoint at, NodeId victim) {
  return ChaosEvent{at, Kind::Crash, {victim}};
}
ChaosEvent ChaosEvent::recover(TimePoint at, NodeId victim) {
  return ChaosEvent{at, Kind::Recover, {victim}};
}
ChaosEvent ChaosEvent::partition(TimePoint at, std::vector<NodeId> minority) {
  return ChaosEvent{at, Kind::Partition, std::move(minority)};
}
ChaosEvent ChaosEvent::heal(TimePoint at) { return ChaosEvent{at, Kind::Heal, {}}; }
ChaosEvent ChaosEvent::link_fault(TimePoint at, NodeId from, NodeId to, net::LinkFault fault) {
  ChaosEvent event{at, Kind::LinkFault, {from, to}};
  event.fault = fault;
  return event;
}
ChaosEvent ChaosEvent::link_clear(TimePoint at, NodeId from, NodeId to) {
  return ChaosEvent{at, Kind::LinkClear, {from, to}};
}
ChaosEvent ChaosEvent::brownout(TimePoint at, NodeId victim, double factor) {
  ChaosEvent event{at, Kind::Brownout, {victim}};
  event.factor = factor;
  return event;
}
ChaosEvent ChaosEvent::brownout_clear(TimePoint at, NodeId victim) {
  return ChaosEvent{at, Kind::BrownoutClear, {victim}};
}
ChaosEvent ChaosEvent::byzantine(TimePoint at, NodeId victim, pbft::FaultMode mode) {
  ChaosEvent event{at, Kind::Byzantine, {victim}};
  event.mode = mode;
  return event;
}
ChaosEvent ChaosEvent::byzantine_heal(TimePoint at, NodeId victim) {
  ChaosEvent event{at, Kind::ByzantineHeal, {victim}};
  event.mode = pbft::FaultMode::None;
  return event;
}
ChaosEvent ChaosEvent::restart(TimePoint at, NodeId victim) {
  return ChaosEvent{at, Kind::Restart, {victim}};
}
ChaosEvent ChaosEvent::disk_fault(TimePoint at, NodeId victim, DiskFaultKind kind) {
  ChaosEvent event{at, Kind::DiskFault, {victim}};
  event.disk = kind;
  return event;
}
ChaosEvent ChaosEvent::sybil_burst(TimePoint at, NodeId victim) {
  ChaosEvent event{at, Kind::SybilBurst, {victim}};
  event.mode = pbft::FaultMode::SybilGeoReports;
  return event;
}
ChaosEvent ChaosEvent::sybil_heal(TimePoint at, NodeId victim) {
  ChaosEvent event{at, Kind::SybilHeal, {victim}};
  event.mode = pbft::FaultMode::None;
  return event;
}
ChaosEvent ChaosEvent::targeted_crash(TimePoint at, Duration hold) {
  ChaosEvent event{at, Kind::TargetedCrash, {}};
  event.hold = hold;
  return event;
}
ChaosEvent ChaosEvent::oscillate_mobility(TimePoint at, NodeId victim) {
  return ChaosEvent{at, Kind::OscillateMobility, {victim}};
}
ChaosEvent ChaosEvent::oscillate_restore(TimePoint at, NodeId victim) {
  return ChaosEvent{at, Kind::OscillateRestore, {victim}};
}
ChaosEvent ChaosEvent::tamper(TimePoint at, net::TamperRule rule) {
  ChaosEvent event{at, Kind::Tamper, {}};
  event.tamper_rule = std::move(rule);
  return event;
}
ChaosEvent ChaosEvent::tamper_heal(TimePoint at) { return ChaosEvent{at, Kind::TamperHeal, {}}; }

// --- ChaosProfile ------------------------------------------------------------------

ChaosProfile ChaosProfile::light() {
  ChaosProfile profile;
  profile.crash_chance = 0.15;
  profile.link_fault_chance = 0.15;
  profile.brownout_chance = 0.1;
  profile.partition_chance = 0.0;
  profile.byzantine_chance = 0.0;
  profile.max_loss = 0.1;
  profile.max_duplicate = 0.15;
  profile.max_brownout = 4.0;
  return profile;
}

ChaosProfile ChaosProfile::medium() {
  ChaosProfile profile;
  profile.crash_chance = 0.25;
  profile.link_fault_chance = 0.25;
  profile.brownout_chance = 0.2;
  profile.partition_chance = 0.1;
  profile.byzantine_chance = 0.0;
  profile.max_loss = 0.2;
  profile.max_duplicate = 0.25;
  profile.max_brownout = 6.0;
  return profile;
}

ChaosProfile ChaosProfile::heavy() {
  ChaosProfile profile;
  profile.crash_chance = 0.35;
  profile.link_fault_chance = 0.35;
  profile.brownout_chance = 0.3;
  profile.partition_chance = 0.15;
  profile.byzantine_chance = 0.15;
  profile.max_loss = 0.3;
  profile.max_extra_latency = Duration::millis(80);
  profile.max_duplicate = 0.4;
  profile.max_reorder = Duration::millis(40);
  profile.max_brownout = 10.0;
  return profile;
}

// --- FaultPlan ---------------------------------------------------------------------

FaultPlan& FaultPlan::add(ChaosEvent event) {
  events_.push_back(std::move(event));
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const ChaosProfile& profile,
                            const std::vector<NodeId>& nodes, Duration horizon) {
  FaultPlan plan;
  if (nodes.empty() || profile.step.ns <= 0) return plan;
  Rng rng(seed);
  // Durability faults (restart / disk corruption) draw from a forked stream:
  // enabling them must not shift the draws of the pre-existing families, so
  // a plan with restart_chance == 0 is byte-identical to one generated
  // before these families existed.
  Rng durability = rng.fork(0x64757261'62696c69ull);
  // Election-attack families likewise draw from their own stream: plans
  // with all attack chances at zero stay byte-identical to older ones.
  Rng election = rng.fork(0x656c6563'74696f6eull);
  // Wire-tamper windows: same forked-stream discipline ("tamper").
  Rng wire = rng.fork(0x74616d'706572ull);

  std::map<std::uint64_t, std::int64_t> down_until;  // node -> instant it is healthy again
  std::int64_t partition_until = 0;                  // one partition at a time
  std::int64_t targeted_until = 0;  // fire-time-resolved crash window (victim unknown here)
  std::int64_t tamper_until = 0;    // one wire adversary at a time

  const auto faulty_at = [&down_until, &targeted_until](std::int64_t t) {
    std::size_t n = targeted_until > t ? 1 : 0;
    for (const auto& [node, until] : down_until) {
      (void)node;
      if (until > t) ++n;
    }
    return n;
  };
  const auto pick_healthy = [&](std::int64_t t) -> std::optional<NodeId> {
    std::vector<NodeId> healthy;
    for (NodeId node : nodes) {
      const auto it = down_until.find(node.value);
      if (it == down_until.end() || it->second <= t) healthy.push_back(node);
    }
    if (healthy.empty()) return std::nullopt;
    return healthy[rng.uniform(0, healthy.size() - 1)];
  };
  const auto random_node = [&rng, &nodes]() { return nodes[rng.uniform(0, nodes.size() - 1)]; };

  // Every fault starts no later than horizon - fault_duration, so the whole
  // plan (heals included) fits inside the horizon.
  for (std::int64_t t = profile.step.ns; t + profile.fault_duration.ns <= horizon.ns;
       t += profile.step.ns) {
    const std::int64_t heal_at = t + profile.fault_duration.ns;

    if (rng.chance(profile.crash_chance) && faulty_at(t) < profile.max_faulty) {
      if (const auto victim = pick_healthy(t)) {
        plan.add(ChaosEvent::crash(TimePoint{t}, *victim));
        plan.add(ChaosEvent::recover(TimePoint{heal_at}, *victim));
        down_until[victim->value] = heal_at;
      }
    }
    if (rng.chance(profile.byzantine_chance) && faulty_at(t) < profile.max_faulty) {
      if (const auto victim = pick_healthy(t)) {
        static constexpr pbft::FaultMode kModes[] = {pbft::FaultMode::Silent,
                                                     pbft::FaultMode::EquivocateDigest,
                                                     pbft::FaultMode::CorruptProposals};
        plan.add(ChaosEvent::byzantine(TimePoint{t}, *victim, kModes[rng.uniform(0, 2)]));
        plan.add(ChaosEvent::byzantine_heal(TimePoint{heal_at}, *victim));
        down_until[victim->value] = heal_at;
      }
    }
    if (rng.chance(profile.partition_chance) && partition_until <= t &&
        faulty_at(t) < profile.max_faulty) {
      const std::size_t budget = profile.max_faulty - faulty_at(t);
      std::vector<NodeId> minority;
      const std::size_t want = rng.uniform(1, budget);
      for (std::size_t i = 0; i < want; ++i) {
        if (const auto victim = pick_healthy(t)) {
          minority.push_back(*victim);
          down_until[victim->value] = heal_at;
        }
      }
      if (!minority.empty()) {
        plan.add(ChaosEvent::partition(TimePoint{t}, minority));
        plan.add(ChaosEvent::heal(TimePoint{heal_at}));
        partition_until = heal_at;
      }
    }
    if (rng.chance(profile.link_fault_chance) && nodes.size() >= 2) {
      const NodeId from = random_node();
      NodeId to = random_node();
      while (to == from) to = random_node();
      net::LinkFault fault;
      fault.loss = rng.uniform_real(0.0, profile.max_loss);
      fault.extra_latency = Duration{static_cast<std::int64_t>(
          rng.uniform(0, static_cast<std::uint64_t>(profile.max_extra_latency.ns)))};
      fault.duplicate = rng.uniform_real(0.0, profile.max_duplicate);
      fault.reorder_window = Duration{static_cast<std::int64_t>(
          rng.uniform(0, static_cast<std::uint64_t>(profile.max_reorder.ns)))};
      plan.add(ChaosEvent::link_fault(TimePoint{t}, from, to, fault));
      plan.add(ChaosEvent::link_clear(TimePoint{heal_at}, from, to));
    }
    if (rng.chance(profile.brownout_chance)) {
      plan.add(ChaosEvent::brownout(TimePoint{t}, random_node(),
                                    rng.uniform_real(2.0, profile.max_brownout)));
      plan.add(ChaosEvent::brownout_clear(TimePoint{heal_at}, plan.events_.back().nodes[0]));
    }
    if (durability.chance(profile.restart_chance) && faulty_at(t) < profile.max_faulty) {
      std::vector<NodeId> healthy;
      for (NodeId node : nodes) {
        const auto it = down_until.find(node.value);
        if (it == down_until.end() || it->second <= t) healthy.push_back(node);
      }
      if (!healthy.empty()) {
        const NodeId victim = healthy[durability.uniform(0, healthy.size() - 1)];
        plan.add(ChaosEvent::restart(TimePoint{t}, victim));
        // The reboot itself is instantaneous, but the node may lag until
        // resync closes the gap — budget it as faulty for a fault window so
        // other families cannot push the system past f alongside it.
        down_until[victim.value] = heal_at;
      }
    }
    if (durability.chance(profile.disk_fault_chance)) {
      static constexpr DiskFaultKind kDiskKinds[] = {
          DiskFaultKind::TornWrite, DiskFaultKind::BitRot, DiskFaultKind::StaleSnapshot};
      const NodeId victim = nodes[durability.uniform(0, nodes.size() - 1)];
      plan.add(
          ChaosEvent::disk_fault(TimePoint{t}, victim, kDiskKinds[durability.uniform(0, 2)]));
    }
    // Election-attack families. A Sybil flooder stays live on the consensus
    // plane, but budget it as faulty anyway: reputation may quarantine it
    // out of the committee, and the roster must keep a 2f+1 honest quorum.
    if (election.chance(profile.sybil_burst_chance) && faulty_at(t) < profile.max_faulty) {
      std::vector<NodeId> healthy;
      for (NodeId node : nodes) {
        const auto it = down_until.find(node.value);
        if (it == down_until.end() || it->second <= t) healthy.push_back(node);
      }
      if (!healthy.empty()) {
        const NodeId victim = healthy[election.uniform(0, healthy.size() - 1)];
        // A flood shorter than the audit window is pointless for the
        // attacker (no rate anomaly ever spans a full window), so bursts
        // run 3x the ordinary fault duration, clamped to the horizon.
        const std::int64_t flood_heal =
            std::min(t + 3 * profile.fault_duration.ns, horizon.ns);
        plan.add(ChaosEvent::sybil_burst(TimePoint{t}, victim));
        plan.add(ChaosEvent::sybil_heal(TimePoint{flood_heal}, victim));
        down_until[victim.value] = flood_heal;
      }
    }
    if (election.chance(profile.targeted_crash_chance) && targeted_until <= t &&
        faulty_at(t) < profile.max_faulty) {
      // The victim — the most-recently-elected endorser — is only known at
      // fire time (ChaosHandlers::resolve_target); reserve one budget slot
      // for the hold window regardless of who it lands on.
      plan.add(ChaosEvent::targeted_crash(TimePoint{t}, profile.fault_duration));
      targeted_until = heal_at;
    }
    if (election.chance(profile.oscillate_chance)) {
      const NodeId victim = nodes[election.uniform(0, nodes.size() - 1)];
      plan.add(ChaosEvent::oscillate_mobility(TimePoint{t}, victim));
      plan.add(ChaosEvent::oscillate_restore(TimePoint{heal_at}, victim));
    }
    // The wire adversary attacks messages, not nodes: it never consumes the
    // concurrent-fault budget. One window at a time keeps the installed
    // rule unambiguous (set_tamper replaces, so overlap would double-heal).
    if (wire.chance(profile.tamper_chance) && tamper_until <= t) {
      net::TamperRule rule = profile.tamper_template;
      rule.chance = wire.uniform_real(0.02, std::max(0.02, profile.max_tamper_rate));
      plan.add(ChaosEvent::tamper(TimePoint{t}, std::move(rule)));
      plan.add(ChaosEvent::tamper_heal(TimePoint{heal_at}));
      tamper_until = heal_at;
    }
  }
  return plan;
}

TimePoint FaultPlan::all_healed_at() const {
  TimePoint healed{};
  for (const ChaosEvent& event : events_) healed = std::max(healed, event.at);
  return healed;
}

std::string FaultPlan::describe() const {
  std::vector<const ChaosEvent*> ordered;
  ordered.reserve(events_.size());
  for (const ChaosEvent& event : events_) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const ChaosEvent* a, const ChaosEvent* b) { return a->at < b->at; });
  std::string out;
  for (const ChaosEvent* event : ordered) out += event->describe() + "\n";
  return out;
}

void FaultPlan::schedule(net::Simulator& sim, net::Network& network,
                         ByzantineSetter set_byzantine, EventHook hook) const {
  ChaosHandlers handlers;
  handlers.set_byzantine = std::move(set_byzantine);
  handlers.hook = std::move(hook);
  schedule(sim, network, handlers);
}

void FaultPlan::schedule(net::Simulator& sim, net::Network& network,
                         const ChaosHandlers& handlers) const {
  for (const ChaosEvent& event : events_) {
    sim.schedule_at(event.at, [&sim, &network, handlers, event]() {
      switch (event.kind) {
        case ChaosEvent::Kind::Crash:
          for (NodeId node : event.nodes) network.crash(node);
          break;
        case ChaosEvent::Kind::Recover:
          for (NodeId node : event.nodes) network.recover(node);
          break;
        case ChaosEvent::Kind::Partition:
          // Group 0 (implicit for unmentioned nodes, clients included) is
          // the majority; the event's nodes form the isolated minority.
          network.partition({{}, event.nodes});
          break;
        case ChaosEvent::Kind::Heal:
          network.heal_partition();
          break;
        case ChaosEvent::Kind::LinkFault:
          network.set_link_fault(event.nodes.at(0), event.nodes.at(1), event.fault);
          break;
        case ChaosEvent::Kind::LinkClear:
          network.clear_link_fault(event.nodes.at(0), event.nodes.at(1));
          break;
        case ChaosEvent::Kind::Brownout:
          network.set_brownout(event.nodes.at(0), event.factor);
          break;
        case ChaosEvent::Kind::BrownoutClear:
          network.clear_brownout(event.nodes.at(0));
          break;
        case ChaosEvent::Kind::Byzantine:
        case ChaosEvent::Kind::ByzantineHeal:
          if (handlers.set_byzantine) handlers.set_byzantine(event.nodes.at(0), event.mode);
          break;
        case ChaosEvent::Kind::Restart:
          if (handlers.restart) handlers.restart(event.nodes.at(0));
          break;
        case ChaosEvent::Kind::DiskFault:
          if (handlers.disk_fault) handlers.disk_fault(event.nodes.at(0), event.disk);
          break;
        case ChaosEvent::Kind::SybilBurst:
        case ChaosEvent::Kind::SybilHeal:
          if (handlers.set_byzantine) handlers.set_byzantine(event.nodes.at(0), event.mode);
          break;
        case ChaosEvent::Kind::TargetedCrash:
          if (handlers.resolve_target) {
            const NodeId victim = handlers.resolve_target();
            network.crash(victim);
            sim.schedule(event.hold, [&network, victim]() { network.recover(victim); });
          }
          break;
        case ChaosEvent::Kind::OscillateMobility:
          if (handlers.oscillate) handlers.oscillate(event.nodes.at(0), /*displaced=*/true);
          break;
        case ChaosEvent::Kind::OscillateRestore:
          if (handlers.oscillate) handlers.oscillate(event.nodes.at(0), /*displaced=*/false);
          break;
        case ChaosEvent::Kind::Tamper:
          network.set_tamper(event.tamper_rule);
          break;
        case ChaosEvent::Kind::TamperHeal:
          network.clear_tamper();
          break;
      }
      // Fault injections land in the same telemetry stream the protocols
      // write to, so a trace shows cause (chaos) next to effect (phases).
      obs::Telemetry& tel = network.telemetry();
      tel.count(std::string("chaos.") + chaos_kind_name(event.kind));
      tel.instant(std::string("chaos.") + chaos_kind_name(event.kind), "chaos",
                  event.nodes.empty() ? NodeId{0} : event.nodes.front(),
                  {{"detail", event.describe()}});
      if (handlers.hook) handlers.hook(event);
    });
  }
}

// --- campaigns ---------------------------------------------------------------------

ChaosProfile profile_for(const std::string& intensity) {
  if (intensity == "light") return ChaosProfile::light();
  if (intensity == "medium") return ChaosProfile::medium();
  if (intensity == "heavy") return ChaosProfile::heavy();
  if (intensity == "none") {
    // All-zero: no family fires until a campaign opts one in on top.
    ChaosProfile profile;
    profile.crash_chance = 0.0;
    profile.partition_chance = 0.0;
    profile.byzantine_chance = 0.0;
    profile.link_fault_chance = 0.0;
    profile.brownout_chance = 0.0;
    return profile;
  }
  std::fprintf(stderr, "unknown chaos intensity: %s\n", intensity.c_str());
  std::abort();
}

ScenarioSpec campaign_spec() {
  ScenarioSpec spec;
  spec.clients = 2;
  spec.workload.txs_per_client = 6;
  spec.workload.period = Duration::seconds(4);
  spec.engine.request_timeout = Duration::seconds(6);
  spec.engine.view_change_timeout = Duration::seconds(5);
  // G-PBFT: the promotion machinery is compressed into the horizon so era
  // switches happen while faults are live.
  spec.committee.era_period = Duration::seconds(15);
  spec.geo.report_period = Duration::seconds(3);
  spec.geo.window = Duration::seconds(12);
  spec.geo.min_reports = 2;
  spec.geo.promotion_threshold = Duration::seconds(20);
  // dBFT: block pacing compressed below the fault horizon so several blocks
  // (and the speaker rotation) happen while faults are live.
  spec.dbft.block_interval = Duration::seconds(5);
  // PoW: faster blocks and a shallower depth keep confirmation latency well
  // inside the liveness grace window.
  spec.pow.block_interval = Duration::seconds(5);
  spec.pow.confirmations = 2;
  return spec;
}

namespace {

/// Decorrelates (base seed, run index, intensity) into a plan seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t run, const std::string& intensity) {
  std::uint64_t h = base * 0x9e3779b97f4a7c15ull + run * 0x2545f4914f6cdd1dull;
  for (const char c : intensity) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return splitmix64(h);
}

/// `base` as campaign run `run` of `protocol` at `intensity`, shaped to the
/// campaign's committee.
ScenarioSpec campaign_run_spec(const ScenarioSpec& base, const ChaosCampaignOptions& options,
                               ProtocolKind protocol, const std::string& intensity,
                               std::uint64_t run) {
  ScenarioSpec spec = base;
  spec.protocol = protocol;
  spec.seed = base.seed + run;
  spec.chaos.intensity = intensity;
  spec.nodes = options.committee;
  if (protocol == ProtocolKind::Gpbft) {
    // Candidates join mid-run: era switches promote them while faults are
    // live.
    spec.nodes = options.committee + options.candidates;
    spec.committee.initial = options.committee;
    spec.committee.min = std::min<std::size_t>(options.committee, 4);
    spec.committee.max = spec.nodes;
  }
  if (protocol == ProtocolKind::Dbft) spec.dbft.delegates = options.committee;
  return spec;
}

/// One campaign run: `spec` through run_scenario with the monitor attached,
/// even when no fault family is armed.
ChaosRunResult campaign_run(const ScenarioSpec& spec, const std::string& intensity,
                            std::uint64_t plan_seed, RunHooks hooks = {}) {
  hooks.always_monitor = true;
  const ScenarioRun run = run_scenario(spec, plan_seed, hooks);
  ChaosRunResult result;
  result.protocol = protocol_name(spec.protocol);
  result.intensity = intensity;
  result.seed = spec.seed;
  result.committed = run.result.committed;
  result.expected = run.result.expected;
  result.fault_events = run.fault_events;
  result.restarts = run.monitor->restarts_observed();
  result.blocks_checked = run.monitor->blocks_checked();
  result.violations = run.monitor->violations();
  result.tip_hex = run.tip_hex;
  return result;
}

}  // namespace

std::size_t ChaosCampaignResult::failed_runs() const {
  std::size_t failed = 0;
  for (const ChaosRunResult& run : runs) {
    if (!run.passed()) ++failed;
  }
  return failed;
}

std::string ChaosCampaignResult::summary() const {
  std::string out = "proto  intensity  seed        committed  faults  blocks  result\n";
  char buf[160];
  for (const ChaosRunResult& run : runs) {
    std::snprintf(buf, sizeof(buf), "%-6s %-10s %-11llu %4llu/%-4llu %7zu %7llu  %s\n",
                  run.protocol.c_str(), run.intensity.c_str(),
                  static_cast<unsigned long long>(run.seed),
                  static_cast<unsigned long long>(run.committed),
                  static_cast<unsigned long long>(run.expected), run.fault_events,
                  static_cast<unsigned long long>(run.blocks_checked),
                  run.passed() ? "PASS" : "FAIL");
    out += buf;
    for (const Violation& violation : run.violations) {
      std::snprintf(buf, sizeof(buf), "    [t=%.3fs] %s node=%llu height=%llu: ",
                    violation.at.to_seconds(), violation_kind_name(violation.kind),
                    static_cast<unsigned long long>(violation.node.value),
                    static_cast<unsigned long long>(violation.height));
      out += buf;
      out += violation.detail + "\n";
    }
  }
  std::snprintf(buf, sizeof(buf), "campaign: %zu run(s), %zu failed\n", runs.size(),
                failed_runs());
  out += buf;
  return out;
}

ChaosCampaignResult run_chaos_campaign(const ScenarioSpec& base,
                                       const ChaosCampaignOptions& options) {
  ChaosCampaignResult result;
  for (const ProtocolKind protocol : options.protocols) {
    for (const std::string& intensity : options.intensities) {
      const std::string label = std::string(protocol_name(protocol)) + "-" + intensity;
      for (std::uint64_t run = 0; run < options.seeds; ++run) {
        result.runs.push_back(
            campaign_run(campaign_run_spec(base, options, protocol, intensity, run), intensity,
                         mix_seed(base.seed, run, label)));
      }
    }
  }
  return result;
}

ChaosCampaignResult run_tamper_campaign(const ScenarioSpec& base,
                                        const ChaosCampaignOptions& options) {
  ChaosCampaignResult result;
  ScenarioSpec clean = base;
  clean.chaos.tamper_chance = 0.0;
  ScenarioSpec tampered = base;
  tampered.chaos.tamper_mode = "inject";
  // Replays re-deliver *genuine* sealed messages; honest nodes answer them
  // (reply caches, sync responses), legitimately perturbing the clean
  // plane. REJECT-SAFE claims silence for forgeries only, so the Inject
  // pair disables the replay family; Replace storms still exercise it.
  RunHooks no_replay;
  no_replay.edit_profile = [](ChaosProfile& profile) { profile.tamper_template.replay = 0.0; };
  for (const ProtocolKind protocol : options.protocols) {
    const std::string label = std::string(protocol_name(protocol)) + "-none";
    for (std::uint64_t run = 0; run < options.seeds; ++run) {
      const std::uint64_t plan_seed = mix_seed(base.seed, run, label);
      const ChaosRunResult clean_run = campaign_run(
          campaign_run_spec(clean, options, protocol, "none", run), "none", plan_seed);
      ChaosRunResult tampered_run =
          campaign_run(campaign_run_spec(tampered, options, protocol, "none", run), "inject",
                       plan_seed, no_replay);
      if (tampered_run.tip_hex != clean_run.tip_hex) {
        Violation violation;
        violation.kind = Violation::Kind::RejectSafe;
        violation.detail = "tampered tip " + tampered_run.tip_hex + " != clean tip " +
                           clean_run.tip_hex + " at seed " + std::to_string(tampered_run.seed);
        tampered_run.violations.push_back(std::move(violation));
      }
      result.runs.push_back(std::move(tampered_run));
    }
  }
  return result;
}

}  // namespace gpbft::sim
