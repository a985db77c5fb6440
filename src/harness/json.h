// Report serialization onto the shared JSON value (common/json.h).
//
// Purpose-built for machine-readable experiment output (the CLI's --json
// mode and downstream plotting scripts).
#pragma once

#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "harness/sweep.h"

namespace protean::harness {

using protean::Json;
using protean::json_escape;

/// Serializes an experiment report (all scalar fields; latency samples are
/// summarized as percentiles rather than dumped raw).
Json report_to_json(const Report& report);

/// Serializes a batch of reports plus shared run metadata.
Json reports_to_json(const ExperimentConfig& config,
                     const std::vector<Report>& reports);

/// Serializes a mean/stddev/CI metric summary.
Json metric_summary_to_json(const MetricSummary& summary);

/// Serializes one aggregated grid cell, including full per-seed detail.
Json aggregate_to_json(const AggregateReport& aggregate);

/// Serializes a whole sweep: grid metadata plus one aggregate per cell.
Json aggregates_to_json(const SweepConfig& sweep,
                        const std::vector<AggregateReport>& aggregates);

}  // namespace protean::harness
