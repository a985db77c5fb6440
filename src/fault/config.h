// Fault-injection configuration (src/fault).
//
// A FaultConfig is a deterministic *failure plan*: scripted timeline entries
// ("crash node 2 at t=40") plus RNG hazard rates (events per node-hour)
// drawn from per-(node, kind) forked streams seeded from the experiment
// seed, so any faulted run replays exactly. Recovery knobs (reboot delay,
// ECC repair delay, retry budget, hedging) live here too so one struct
// describes the whole resilience scenario.
//
// Everything is default-off: `enabled == false` must leave every simulated
// run byte-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace protean::fault {

/// The failure modes the injector can produce.
enum class FaultKind : std::uint8_t {
  kCrash,     ///< node crashes; in-flight work lost; reboots after a delay
  kSpotKill,  ///< the hosting spot VM dies abruptly (no eviction notice)
  kEcc,       ///< one MIG slice degrades (ECC); geometry heals around it
};

const char* to_string(FaultKind kind) noexcept;

/// One scripted timeline entry: `kind` hits `node` at absolute time `at`.
struct ScriptedFault {
  FaultKind kind = FaultKind::kCrash;
  SimTime at = 0.0;
  NodeId node = 0;

  bool operator==(const ScriptedFault&) const = default;
};

/// Gateway-side re-dispatch policy for batches lost to a fault.
struct RetryConfig {
  /// Re-dispatch attempts per batch before it is dropped for good.
  int max_retries = 3;
  /// Backoff before attempt k is base × 2^(k-1), capped at `max_backoff`.
  Duration base_backoff = 0.25;
  Duration max_backoff = 5.0;
};

/// Backoff before retry attempt `attempt` (1-based): capped exponential.
Duration retry_backoff(int attempt, const RetryConfig& config) noexcept;

/// Hedged re-dispatch for strict batches: if a strict batch has not
/// completed within `slo_fraction` of its SLO budget, a duplicate is
/// dispatched to another node and completions are de-duplicated.
struct HedgeConfig {
  bool enabled = false;
  double slo_fraction = 0.5;
  /// Lower bound on the hedge delay (very tight SLOs would otherwise hedge
  /// near-instantly and double the offered load).
  Duration floor = 0.1;
  /// Hedge budget: twins may be launched for at most this fraction of the
  /// strict batches eligible for hedging. Without a cap, a post-fault
  /// backlog pushes *every* queued batch past its hedge deadline and the
  /// duplicate load sustains the very backlog it reacts to.
  double budget_fraction = 0.05;
};

struct FaultConfig {
  bool enabled = false;

  /// Scripted timeline, applied in addition to the hazard processes.
  std::vector<ScriptedFault> script;

  /// Poisson hazard rates, in events per node-hour (0 = off).
  double crash_rate = 0.0;
  double kill_rate = 0.0;
  double ecc_rate = 0.0;

  /// Probability that a drained MIG reconfiguration times out: the GPU pays
  /// gpu::Gpu::kReconfigFailMultiplier × the normal downtime and comes back
  /// in its *old* geometry (the reconfigurator naturally retries on a later
  /// tick).
  double reconfig_fail_prob = 0.0;

  /// A crashed node reboots (same VM lease) after this delay.
  Duration reboot_delay = 60.0;
  /// A degraded slice is repaired (geometry heals back) after this delay.
  Duration ecc_repair_delay = 120.0;

  RetryConfig retry;
  HedgeConfig hedge;

  /// Derived from the experiment seed by the harness (like market.seed).
  std::uint64_t seed = 0xFA017;
};

/// Leaf parser for one scripted token, `KIND@T:nID` (a `--faults` list
/// element; the CLI composes the list grammar with harness::FlagSpec).
/// T is a finite time >= 0 in seconds.
std::optional<ScriptedFault> parse_scripted_fault(const std::string& token);

/// Applies one `key=value` rate/recovery knob from the `--faults` grammar
/// (crash-rate, kill-rate, ecc-rate, reconfig-fail, reboot, ecc-repair).
/// Returns false if the key is unknown or the value is out of range.
bool apply_fault_knob(FaultConfig& config, const std::string& key,
                      double value);

}  // namespace protean::fault
