// Deterministic span tracing for simulation runs (Dapper-style request
// tracing, emitted as Chrome trace-event JSON loadable in Perfetto /
// chrome://tracing).
//
// The tracer is strictly observational and default-off: every hook in the
// engine/cluster/harness is guarded by a null check, no hook mutates
// simulation state or consumes randomness, so runs without a tracer are
// byte-identical to builds without the subsystem, and runs with one are
// deterministic across repeats (events are emitted in simulation order and
// carry no wall-clock or pointer-derived data).
//
// Event vocabulary (docs/observability.md has the full reference):
//  * async "b"/"e" pairs keyed by batch id — per-batch phase spans
//    ("form", "queue", "boot", "exec");
//  * complete "X" spans — per-slice busy intervals ("busy") and GPU
//    reconfiguration downtime ("reconfigure");
//  * instants "i" — lifecycle points ("cold_start", "lost", "retry",
//    "drop", "hedge", "backlog", "slice_failed") and scheduler decision
//    records ("sched");
//  * counters "C" — per-slice pressure/slowdown/memory/reservation
//    timelines sampled at settle points.
//
// The run's Collector aggregates are embedded under a "collector" root key
// (ignored by trace viewers) so obs/check.h can replay the span stream and
// cross-check it against the metrics path with no side channel.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace protean::obs {

/// Event categories, usable as a filter bitmask (`--trace FILE:filter`).
enum Category : unsigned {
  kSpans = 1u << 0,     ///< batch phases, busy/reconfigure spans, lifecycle
  kCounters = 1u << 1,  ///< per-slice timelines at settle points
  kSched = 1u << 2,     ///< scheduler decision records
};
inline constexpr unsigned kAllCategories = kSpans | kCounters | kSched;

/// Category names accepted in trace filters ("spans", "counters", "sched").
const char* category_name(Category category) noexcept;

/// Where (and what) to trace. Parsed from the CLI's `FILE[:filter]` spec.
struct TraceOptions {
  std::string path;                       ///< empty disables tracing
  unsigned categories = kAllCategories;   ///< bitmask of Category

  bool enabled() const noexcept { return !path.empty(); }
};

/// Collects trace events for one run and serializes them as Chrome
/// trace-event JSON. One Tracer per Simulator: sweeps running grids on a
/// thread pool give every run its own instance, so no locking is needed.
class Tracer {
 public:
  /// One event argument; either numeric or string.
  struct Arg {
    Arg(std::string k, double value)
        : key(std::move(k)), num(value), is_num(true) {}
    Arg(std::string k, std::string value)
        : key(std::move(k)), str(std::move(value)) {}
    Arg(std::string k, const char* value)
        : key(std::move(k)), str(value) {}
    std::string key;
    double num = 0.0;
    std::string str;
    bool is_num = false;
  };
  using Args = std::initializer_list<Arg>;

  explicit Tracer(sim::Simulator& simulator,
                  unsigned categories = kAllCategories);

  /// True when events of this category are recorded; hooks check this
  /// before doing any formatting work.
  bool wants(Category category) const noexcept {
    return (categories_ & category) != 0;
  }
  unsigned categories() const noexcept { return categories_; }

  // ---- emitters (all no-ops when the category is filtered out) -----------

  /// Complete ("X") span over [start, end] seconds of simulated time.
  void complete(Category category, std::string_view name, int pid, int tid,
                SimTime start, SimTime end, Args args = {});
  /// Async-nestable begin/end ("b"/"e"); paired by (category, id).
  void async_begin(Category category, std::string_view name, std::uint64_t id,
                   int pid, SimTime at, Args args = {});
  void async_end(Category category, std::string_view name, std::uint64_t id,
                 int pid, SimTime at, Args args = {});
  /// Instant ("i") event at the current simulation time.
  void instant(Category category, std::string_view name, int pid,
               Args args = {});
  /// Counter ("C") sample at the current simulation time; args are series.
  void counter(Category category, std::string_view name, int pid,
               Args args = {});
  /// Viewer labels for process/thread lanes (emitted once per key).
  void process_name(int pid, std::string_view name);
  void thread_name(int pid, int tid, std::string_view name);

  /// Records one Collector aggregate for the embedded cross-check block.
  void set_summary(std::string_view key, double value);

  std::size_t event_count() const noexcept { return events_.size(); }

  /// The full trace document: {"traceEvents": [...], "displayTimeUnit":
  /// "ms", "categories": "...", "collector": {...}}.
  std::string to_json() const;

  /// Writes to_json() (plus trailing newline) to `path`; false on I/O error.
  bool write_file(const std::string& path) const;

 private:
  void push_event(std::string_view ph, std::string_view name,
                  std::string_view cat, int pid, int tid, SimTime at,
                  Duration dur, const std::uint64_t* id, Args args);

  sim::Simulator& sim_;
  unsigned categories_;
  std::vector<std::string> events_;  ///< pre-serialized JSON objects
  std::vector<std::pair<std::string, double>> summary_;
  std::set<std::string> metadata_seen_;
};

}  // namespace protean::obs
