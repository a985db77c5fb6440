// Command-line option parsing for the `protean_sim` CLI.
//
// Kept in the library (rather than the tool's main.cpp) so it is unit
// testable. Parsing is strict: unknown flags and malformed values are
// errors, not warnings.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"

namespace protean::harness {

struct CliOptions {
  ExperimentConfig config;
  std::vector<sched::Scheme> schemes = {sched::Scheme::kProtean};
  /// Seed replications per grid cell (--seeds); seed, seed+1, ...
  std::uint32_t seeds = 1;
  /// Worker threads for the sweep runner (--jobs); 1 = serial.
  int jobs = 1;
  /// Optional numeric parameter axis (--sweep rps=1000:5000:500).
  SweepAxis sweep_axis;
  bool json = false;
  bool list_models = false;
  bool list_schemes = false;
  bool help = false;
  /// Path of a "second,rps" CSV replayed instead of a synthetic trace.
  std::string trace_file;
  /// Destination of the resident-weights timeline (--dump-mem-timeline).
  std::string mem_timeline_file;

  /// True when the run needs the sweep/aggregate pipeline rather than the
  /// classic one-report-per-scheme output.
  bool is_sweep() const noexcept {
    return seeds > 1 || sweep_axis.active();
  }

  /// The sweep grid this invocation describes.
  SweepConfig sweep_config() const {
    SweepConfig sweep;
    sweep.base = config;
    sweep.schemes = schemes;
    sweep.replications = seeds;
    sweep.axis = sweep_axis;
    return sweep;
  }
};

struct CliParseResult {
  std::optional<CliOptions> options;  ///< set on success
  std::string error;                  ///< set on failure
};

/// Parses CLI arguments (excluding argv[0]).
CliParseResult parse_cli(const std::vector<std::string>& args);

/// Maps a user-facing scheme alias ("protean", "infless", "molecule",
/// "naive", "gpulet", "oracle", "mig-only", "mps-mig", "smart",
/// "protean-static", "protean-no-reorder", "protean-no-eta",
/// "protean-soft", "protean-pipe") to a Scheme.
std::optional<sched::Scheme> scheme_from_alias(const std::string& alias);

/// The usage text printed by --help.
std::string cli_usage();

/// Every flag parse_cli accepts, in usage order. Tests cross-check this
/// list against cli_usage() so the help text can never drift from the
/// parser.
const std::vector<std::string>& cli_flags();

}  // namespace protean::harness
