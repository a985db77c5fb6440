// The paper's evaluation grid as data: one row per figure or table that
// runs experiments, each a list of cells (a labelled config) and the schemes
// every cell runs under. `bench_paper` prints these rows and
// `paper_claims_test` asserts on them, so a claim always checks a run its
// figure prints.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace protean::harness {

/// Simulated seconds of traffic each figure replays by default (hours in the
/// paper), so the whole grid runs in seconds.
inline constexpr Duration kPaperHorizon = 60.0;

struct PaperCell {
  std::string label;  ///< unique within its row
  ExperimentConfig config;
  /// The cell runs once per scheme, in this order; `config.scheme` is unset.
  std::vector<sched::Scheme> schemes;
};

struct PaperRow {
  std::string id;  ///< the figure id `bench_paper` takes ("fig5", "table4")
  std::vector<PaperCell> cells;
};

/// Every row at `horizon`, in DESIGN.md's figure order. Built on each call.
std::vector<PaperRow> paper_rows(Duration horizon);

/// The cell `label` of row `id`; throws std::invalid_argument if either is
/// unknown.
PaperCell paper_cell(std::string_view id, std::string_view label,
                     Duration horizon = kPaperHorizon);

}  // namespace protean::harness
