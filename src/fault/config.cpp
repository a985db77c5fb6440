#include "fault/config.h"

#include <algorithm>
#include <cmath>

namespace protean::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSpotKill: return "kill";
    case FaultKind::kEcc: return "ecc";
  }
  return "?";
}

Duration retry_backoff(int attempt, const RetryConfig& config) noexcept {
  if (attempt <= 1) return std::min(config.base_backoff, config.max_backoff);
  const double doubled =
      config.base_backoff * std::ldexp(1.0, std::min(attempt - 1, 60));
  return std::min(doubled, config.max_backoff);
}

namespace {

// A finite number spanning all of `s`, the rule harness::parse_spec_number
// applies to every other spec number.
std::optional<double> parse_double(const std::string& s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<FaultKind> parse_kind(const std::string& name) {
  if (name == "crash") return FaultKind::kCrash;
  if (name == "kill") return FaultKind::kSpotKill;
  if (name == "ecc") return FaultKind::kEcc;
  return std::nullopt;
}

}  // namespace

std::optional<ScriptedFault> parse_scripted_fault(const std::string& token) {
  const std::size_t at = token.find('@');
  const std::size_t colon = token.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos || colon < at) {
    return std::nullopt;
  }
  const auto kind = parse_kind(token.substr(0, at));
  if (!kind) return std::nullopt;
  const auto when = parse_double(token.substr(at + 1, colon - at - 1));
  if (!when || *when < 0.0) return std::nullopt;
  const std::string node = token.substr(colon + 1);
  if (node.size() < 2 || node[0] != 'n') return std::nullopt;
  const auto id = parse_double(node.substr(1));
  if (!id || *id < 0.0 || *id != std::floor(*id) || *id > 1e9) {
    return std::nullopt;
  }
  ScriptedFault fault;
  fault.kind = *kind;
  fault.at = *when;
  fault.node = static_cast<NodeId>(*id);
  return fault;
}

bool apply_fault_knob(FaultConfig& config, const std::string& key,
                      double value) {
  if (key == "crash-rate" && value >= 0.0) {
    config.crash_rate = value;
  } else if (key == "kill-rate" && value >= 0.0) {
    config.kill_rate = value;
  } else if (key == "ecc-rate" && value >= 0.0) {
    config.ecc_rate = value;
  } else if (key == "reconfig-fail" && value >= 0.0 && value <= 1.0) {
    config.reconfig_fail_prob = value;
  } else if (key == "reboot" && value > 0.0) {
    config.reboot_delay = value;
  } else if (key == "ecc-repair" && value > 0.0) {
    config.ecc_repair_delay = value;
  } else {
    return false;
  }
  return true;
}

}  // namespace protean::fault
