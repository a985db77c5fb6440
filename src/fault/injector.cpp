#include "fault/injector.h"

#include <algorithm>


namespace protean::fault {

namespace {
constexpr std::uint64_t kStreamSalt = 0xFA417;

std::uint64_t stream_salt(NodeId node, FaultKind kind) {
  return kStreamSalt + static_cast<std::uint64_t>(node) * 8 +
         static_cast<std::uint64_t>(kind);
}
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             const FaultConfig& config, FaultTarget& target)
    : sim_(simulator), config_(config), target_(target) {}

void FaultInjector::start() {
  running_ = true;
  const std::size_t domain = target_.fault_domain_size();

  // Scripted timeline. Each entry gets its own fork so the selector draw of
  // a scripted ECC event is a pure function of (seed, entry index).
  for (std::size_t i = 0; i < config_.script.size(); ++i) {
    const ScriptedFault& f = config_.script[i];
    if (f.node >= domain) {
      continue;
    }
    const Duration delay = std::max(0.0, f.at - sim_.now());
    const FaultKind kind = f.kind;
    const NodeId node = f.node;
    auto rng = std::make_shared<Rng>(
        Rng(config_.seed).fork(0x5c219 + static_cast<std::uint64_t>(i)));
    sim_.schedule_after(delay, [this, kind, node, rng] {
      if (!running_) return;
      fire(kind, node, rng.get());
    });
  }

  // Hazard processes: one independent stream per (node, kind) with rate > 0.
  struct Hazard {
    FaultKind kind;
    double per_node_hour;
  };
  const Hazard hazards[] = {
      {FaultKind::kCrash, config_.crash_rate},
      {FaultKind::kSpotKill, config_.kill_rate},
      {FaultKind::kEcc, config_.ecc_rate},
  };
  for (const Hazard& hazard : hazards) {
    if (hazard.per_node_hour <= 0.0) continue;
    for (NodeId node = 0; node < domain; ++node) {
      streams_.push_back(HazardStream{
          hazard.kind, node, hazard.per_node_hour / 3600.0,
          Rng(config_.seed).fork(stream_salt(node, hazard.kind))});
    }
  }
  for (std::size_t s = 0; s < streams_.size(); ++s) arm(s);
}

void FaultInjector::arm(std::size_t stream) {
  HazardStream& hs = streams_[stream];
  const Duration wait = hs.rng.exponential(hs.rate_per_s);
  sim_.schedule_after(wait, [this, stream] {
    if (!running_) return;
    HazardStream& s = streams_[stream];
    fire(s.kind, s.node, &s.rng);
    arm(stream);
  });
}

void FaultInjector::fire(FaultKind kind, NodeId node, Rng* rng) {
  switch (kind) {
    case FaultKind::kCrash:
      if (target_.inject_crash(node)) ++crashes_;
      break;
    case FaultKind::kSpotKill:
      if (target_.inject_spot_kill(node)) ++kills_;
      break;
    case FaultKind::kEcc: {
      // Draw the victim selector unconditionally so determinism does not
      // depend on whether the injection landed.
      const double selector = rng->uniform();
      if (target_.inject_ecc_failure(node, selector)) ++ecc_;
      break;
    }
  }
}

}  // namespace protean::fault
