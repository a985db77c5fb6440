#include "cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/check.h"
#include "obs/trace.h"
#include "telemetry/registry.h"

namespace protean::cluster {

namespace {

/// kConsolidate packs a node while its estimated contention pressure stays
/// below this bound. INFless's latency model is interference-naive
/// (additive, no thrash), so it believes packing up to roughly the SLO
/// multiplier is safe — the over-consolidation the paper criticizes.
constexpr double kConsolidatePressureLimit = 2.85;

/// Splits each arrival burst across the shard gateways: count / K to every
/// shard, with the remainder rotated round-robin so no shard systematically
/// sees more traffic. Shards whose share is zero are skipped entirely (the
/// gateway treats an empty burst as a caller bug).
class ShardFanout final : public trace::RequestSink {
 public:
  explicit ShardFanout(std::vector<std::unique_ptr<Gateway>>& gateways)
      : gateways_(gateways) {}

  void on_arrivals(const workload::ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override {
    const int k = static_cast<int>(gateways_.size());
    const int share = count / k;
    const int extra = count % k;
    for (int s = 0; s < k; ++s) {
      const int rotated = (s - cursor_ + k) % k;
      const int c = share + (rotated < extra ? 1 : 0);
      if (c > 0) {
        gateways_[static_cast<std::size_t>(s)]->on_arrivals(
            model, strict, c, window_start, window_end);
      }
    }
    cursor_ = (cursor_ + extra) % k;
  }

 private:
  std::vector<std::unique_ptr<Gateway>>& gateways_;
  int cursor_ = 0;  ///< shard that takes the next remainder request
};

/// A fleet total, summed over the nodes in id order when it is read. Node
/// totals include the GPUs that evictions retired.
template <typename T>
T sum_nodes(const std::vector<std::unique_ptr<WorkerNode>>& nodes,
            T (WorkerNode::*get)() const noexcept) {
  T sum{};
  for (const auto& node : nodes) sum += ((*node).*get)();
  return sum;
}

}  // namespace

Cluster::Cluster(sim::Simulator& simulator, const ClusterConfig& config,
                 Scheduler& scheduler, std::vector<Scheduler*> shard_schedulers)
    : sim_(simulator),
      config_(config),
      scheduler_(scheduler),
      shard_schedulers_(std::move(shard_schedulers)) {
  PROTEAN_CHECK_MSG(config_.node_count > 0, "cluster needs nodes");
  PROTEAN_CHECK_MSG(config_.shards > 0, "cluster needs at least one shard");
  // With autoscaling on, extra node slots beyond the base fleet exist from
  // construction (node identities are stable) but start parked: the market
  // provisions only the base node_count, and the control loop acquires and
  // releases the rest. Disabled, slots == node_count and the market config
  // is untouched — byte-identical to the legacy static fleet.
  std::uint32_t slots = config_.node_count;
  if (config_.autoscale.enabled) {
    slots = config_.autoscale.resolve_max(config_.node_count);
    config_.market.initial_nodes = config_.node_count;
    config_.market.reference_nodes = config_.node_count;
  }
  const std::uint32_t shard_count = config_.shards;
  PROTEAN_CHECK_MSG(shard_count <= slots, "more shards than node slots");
  PROTEAN_CHECK_MSG(
      shard_count == 1 ||
          shard_schedulers_.size() == static_cast<std::size_t>(shard_count),
      "sharded control plane needs one scheduler per shard");
  // Contiguous partition: node id belongs to shard id*K/slots, so shard s
  // owns slot range [ceil(s*slots/K), ceil((s+1)*slots/K)).
  shards_.resize(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_[s].lo = (static_cast<std::uint64_t>(s) * slots + shard_count - 1) /
                    shard_count;
    shards_[s].hi =
        (static_cast<std::uint64_t>(s + 1) * slots + shard_count - 1) /
        shard_count;
    shards_[s].by_load.resize(shards_[s].hi - shards_[s].lo);
    shards_[s].accepting.resize(shards_[s].hi - shards_[s].lo);
    shards_[s].ready.resize(shards_[s].hi - shards_[s].lo);
  }
  index_.resize(slots);
  nodes_.reserve(slots);
  for (NodeId id = 0; id < slots; ++id) {
    Scheduler& node_scheduler =
        shard_count == 1
            ? scheduler_
            : *shard_schedulers_[static_cast<std::uint64_t>(id) * shard_count /
                                 slots];
    nodes_.push_back(std::make_unique<WorkerNode>(sim_, id, config_,
                                                  node_scheduler, collector_));
  }
  for (auto& node : nodes_) {
    node->set_redistribute(
        [this](workload::Batch&& b) { dispatch(std::move(b)); });
    const NodeId id = node->id();
    node->set_load_listener([this, id] { on_node_load_changed(id); });
  }
  // Seed the dispatch index with the constructed state (all slots up, idle).
  for (NodeId id = 0; id < slots; ++id) on_node_load_changed(id);
  // Shard s issues batch ids s+1, s+1+K, s+1+2K, ... — globally unique, and
  // the single-shard sequence 1, 2, 3, ... when K == 1.
  gateways_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    gateways_.push_back(std::make_unique<Gateway>(
        sim_, config_, [this](workload::Batch&& b) { dispatch(std::move(b)); },
        /*first_batch_id=*/s + 1, /*id_stride=*/shard_count));
  }
  if (shard_count > 1) fanout_ = std::make_unique<ShardFanout>(gateways_);
  market_ = std::make_unique<spot::Market>(sim_, config_.market, slots, *this);
  dispatch_policy_ =
      scheduler_.dispatch_policy().value_or(DispatchPolicy::kRandom);
  if (config_.fault.enabled) {
    for (auto& node : nodes_) {
      node->set_lost_batch_handler(
          [this](workload::Batch&& b) { on_lost_batch(std::move(b)); });
    }
    // Hedged twins (and retry/drop races) must not double-count an id.
    collector_.set_dedup(true);
    injector_ =
        std::make_unique<fault::FaultInjector>(sim_, config_.fault, *this);
  }
  if (config_.workflow.enabled) {
    pipeline_conscious_ = scheduler_.pipeline_conscious();
    workflow_ = std::make_unique<workflow::WorkflowRuntime>(
        sim_, config_.workflow, collector_, config_.tracer,
        config_.slo_multiplier, pipeline_conscious_);
    for (auto& node : nodes_) {
      node->set_stage_complete_handler(
          [this](workload::Batch&& b) { on_stage_complete(std::move(b)); });
    }
  }
  if (config_.attr.enabled) {
    attr_ = std::make_unique<attr::AttributionEngine>(config_.attr,
                                                      config_.tracer);
    attr_->set_shard_of(
        [this](NodeId id) { return static_cast<int>(shard_of(id)); });
    collector_.set_attr_batch_hook(
        [this](const workload::Batch& b, const workload::Decomposition& d,
               double lat_first, double lat_last) {
          attr_->observe_batch(b, d, lat_first, lat_last);
        });
    collector_.set_attr_drop_hook(
        [this](bool strict, int count) { attr_->observe_dropped(strict, count); });
    if (workflow_) workflow_->set_attribution(attr_.get());
  }
  if (config_.telemetry != nullptr) register_telemetry(*config_.telemetry);
}

void Cluster::register_telemetry(telemetry::MetricsRegistry& registry) {
  registry.gauge("cluster_backlog_depth", [this] {
    return static_cast<double>(backlog_.size());
  });
  registry.gauge("cluster_gpu_utilization_pct",
                 [this] { return gpu_utilization_pct(); });
  registry.gauge("cluster_memory_utilization_pct",
                 [this] { return memory_utilization_pct(); });
  registry.gauge("cold_starts_total", [this] {
    return static_cast<double>(total_cold_starts());
  });
  registry.gauge("requests_dropped_total", [this] {
    return static_cast<double>(collector_.dropped());
  });
  registry.gauge("fault_retries_total", [this] {
    return static_cast<double>(collector_.retries());
  });
  registry.gauge("fault_hedges_total", [this] {
    return static_cast<double>(collector_.hedges());
  });
  registry.gauge("fault_lost_requests_total", [this] {
    return static_cast<double>(collector_.lost_requests());
  });
  registry.gauge("memcache_hit_ratio", [this] {
    const double accesses = static_cast<double>(collector_.cache_hits() +
                                                collector_.cache_misses());
    if (accesses == 0.0) return 0.0;
    return static_cast<double>(collector_.cache_hits()) / accesses;
  });
  if (gateways_.size() == 1) {
    gateways_.front()->register_telemetry(registry);
  } else {
    registry.gauge("cluster_shards",
                   [this] { return static_cast<double>(shard_count()); });
    registry.gauge("cluster_shard_load_skew",
                   [this] { return shard_load_skew(); });
    for (std::size_t s = 0; s < gateways_.size(); ++s) {
      gateways_[s]->register_telemetry(
          registry, "{shard=\"" + std::to_string(s) + "\"}");
    }
  }
  for (auto& node : nodes_) node->register_telemetry(registry);
  if (workflow_) workflow_->register_telemetry(registry);
  if (attr_) {
    registry.gauge("attr_requests_total", [this] {
      return static_cast<double>(attr_->requests());
    });
    registry.gauge("attr_identity_violations_total", [this] {
      return static_cast<double>(attr_->identity_violations());
    });
    registry.gauge("attr_negative_clamps_total", [this] {
      return static_cast<double>(collector_.negative_component_clamps());
    });
    // One labelled series per cause; the final scrape's sum across causes
    // reproduces the report's violation count (tools/slo_explain relies on
    // this). kService can never classify a violation but is emitted anyway
    // so the series set is closed under the Cause enum.
    for (int c = 0; c < attr::kCauseCount; ++c) {
      const auto cause = static_cast<attr::Cause>(c);
      registry.gauge(std::string("attr_violations_total{cause=\"") +
                         attr::cause_name(cause) + "\"}",
                     [this, cause] {
                       return static_cast<double>(attr_->violations_for(cause));
                     });
    }
  }
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  started_at_ = sim_.now();
  // Nodes start "up" by construction; the market may immediately change
  // that (spot-only under a tight market leaves some nodes down).
  market_->start();
  for (auto& node : nodes_) {
    if (!market_->node_up(node->id()) && node->up()) node->evict();
  }
  monitor_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, config_.monitor_interval, [this] { monitor_tick(); });
  backlog_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, 1.0, [this] { drain_backlog(); });
  if (injector_) injector_->start();
}

void Cluster::stop() {
  monitor_task_.reset();
  backlog_task_.reset();
  if (injector_) injector_->stop();
  if (market_) market_->stop();
}

trace::RequestSink& Cluster::sink() noexcept {
  if (fanout_) return *fanout_;
  return *gateways_.front();
}

std::uint64_t Cluster::gateway_requests_seen() const noexcept {
  std::uint64_t total = 0;
  for (const auto& gateway : gateways_) total += gateway->requests_seen();
  return total;
}

void Cluster::flush_gateways() {
  for (auto& gateway : gateways_) gateway->flush_all();
}

double Cluster::shard_load_skew() const {
  if (shards_.size() <= 1) return 1.0;
  double total = 0.0;
  double peak = 0.0;
  for (const ShardState& shard : shards_) {
    total += shard.load_sum;
    peak = std::max(peak, shard.load_sum);
  }
  if (total <= 0.0) return 1.0;
  return peak * static_cast<double>(shards_.size()) / total;
}

std::uint32_t Cluster::shard_of(NodeId id) const noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(id) *
                                    shards_.size() / nodes_.size());
}

void Cluster::SlotSet::assign(std::size_t i, bool on) noexcept {
  std::uint64_t& word = words[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (((word & bit) != 0) == on) return;
  word ^= bit;
  if (on) {
    ++count;
  } else {
    --count;
  }
}

std::size_t Cluster::SlotSet::select(std::size_t k) const {
  PROTEAN_CHECK_MSG(k < count, "SlotSet::select rank out of range");
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    const auto set = static_cast<std::size_t>(std::popcount(word));
    if (k >= set) {
      k -= set;
      continue;
    }
    for (; k > 0; --k) word &= word - 1;  // drop the k lowest set bits
    return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }
  return words.size() * 64;  // unreachable: count tracks the set bits
}

void Cluster::LoadTree::resize(std::size_t slots) {
  leaves = std::bit_ceil(std::max<std::size_t>(slots, 1));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  nodes.assign(2 * leaves, Entry{kInf, 0});
  for (std::size_t i = 0; i < leaves; ++i) {
    nodes[leaves + i].slot = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = leaves - 1; i >= 1; --i) {
    nodes[i] = lower(nodes[2 * i], nodes[2 * i + 1]);
  }
}

void Cluster::LoadTree::set(std::size_t slot, double key) {
  std::size_t i = leaves + slot;
  if (nodes[i].key == key) return;
  nodes[i].key = key;
  for (i /= 2; i >= 1; i /= 2) {
    const Entry& winner = lower(nodes[2 * i], nodes[2 * i + 1]);
    if (nodes[i] == winner) break;  // every ancestor is unchanged too
    nodes[i] = winner;
  }
}

void Cluster::on_node_load_changed(NodeId id) {
  WorkerNode& node = *nodes_[id];
  ShardState& shard = shards_[shard_of(id)];
  IndexEntry& entry = index_[id];
  const std::size_t slot = id - shard.lo;
  const bool member = node.accepting();
  const bool ready = member && !node.gpu().reconfiguring();
  const double load = node.outstanding_work();
  shard.ready.assign(slot, ready);
  shard.accepting.assign(slot, member);
  if (entry.member != member || (member && entry.load != load)) {
    if (entry.member) shard.load_sum -= entry.load;
    if (member) shard.load_sum += load;
    entry.member = member;
    entry.load = load;
  }
  shard.by_load.set(slot,
                    ready ? load : std::numeric_limits<double>::infinity());
}

std::string Cluster::audit_dispatch_index() const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::string problem = audit_shard(s);
    if (!problem.empty()) return problem;
  }
  return {};
}

std::string Cluster::audit_shard(std::size_t s) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ShardState& shard = shards_[s];
  std::ostringstream problem;
  std::size_t accepting = 0;
  std::size_t ready = 0;
  for (NodeId id = shard.lo; id < shard.hi; ++id) {
    const WorkerNode& node = *nodes_[id];
    const std::size_t slot = id - shard.lo;
    const bool live_accepting = node.accepting();
    const bool live_ready = live_accepting && !node.gpu().reconfiguring();
    accepting += live_accepting ? 1 : 0;
    ready += live_ready ? 1 : 0;
    if (shard.accepting.test(slot) != live_accepting) {
      problem << "node " << id << ": accepting bit " << !live_accepting
              << ", live " << live_accepting;
      return problem.str();
    }
    if (shard.ready.test(slot) != live_ready) {
      problem << "node " << id << ": ready bit " << !live_ready << ", live "
              << live_ready;
      return problem.str();
    }
    const IndexEntry& entry = index_[id];
    if (entry.member != live_accepting ||
        (live_accepting && entry.load != node.outstanding_work())) {
      problem << "node " << id << ": stale load entry";
      return problem.str();
    }
    const double key = live_ready ? entry.load : kInf;
    if (shard.by_load.nodes[shard.by_load.leaves + slot].key != key) {
      problem << "node " << id << ": tree leaf "
              << shard.by_load.nodes[shard.by_load.leaves + slot].key
              << ", expected " << key;
      return problem.str();
    }
    const WorkerNode::DispatchEstimate& memo = node.dispatch_estimate();
    if (memo.pressure != node.estimated_pressure() ||
        memo.free_memory != node.estimated_free_memory()) {
      problem << "node " << id << ": dispatch estimate memo {"
              << memo.pressure << ", " << memo.free_memory
              << "} != fresh {" << node.estimated_pressure() << ", "
              << node.estimated_free_memory() << "}";
      return problem.str();
    }
  }
  if (shard.accepting.count != accepting || shard.ready.count != ready) {
    problem << "shard " << s << ": index counts drifted";
    return problem.str();
  }
  const LoadTree& tree = shard.by_load;
  for (std::size_t i = shard.hi - shard.lo; i < tree.leaves; ++i) {
    if (tree.nodes[tree.leaves + i].key != kInf) {
      problem << "shard " << s << ": padding leaf " << i << " is finite";
      return problem.str();
    }
  }
  for (std::size_t i = 1; i < tree.leaves; ++i) {
    if (!(tree.nodes[i] ==
          LoadTree::lower(tree.nodes[2 * i], tree.nodes[2 * i + 1]))) {
      problem << "shard " << s << ": tree node " << i
              << " does not hold its children's winner";
      return problem.str();
    }
  }
  if (least_loaded_pick(shard) != least_loaded_scan(shard.lo, shard.hi)) {
    problem << "shard " << s
            << ": indexed least-loaded pick differs from the scan";
  }
  return problem.str();
}

WorkerNode* Cluster::pick_node(const workload::Batch& batch) {
  WorkerNode* chosen = pick_node_base(batch);
  // DAG-aware preference (pipeline-conscious schemes only): keep a stage on
  // its predecessor's node — a zero-cost hop — unless the configured policy
  // found a node that is ahead by more than one transfer hop. Per-stage
  // greedy dispatch ignores the hop cost entirely; that gap is what the
  // workflow bench measures. The base policy runs first either way, so the
  // random-routing RNG stream is identical across schemes.
  if (workflow_ && pipeline_conscious_ && batch.has_pred &&
      chosen != nullptr) {
    WorkerNode& pred = *nodes_.at(batch.pred_node);
    if (&pred != chosen && pred.accepting() &&
        !(pred.gpu().reconfiguring() && pred.queued() > 4)) {
      const Duration hop = workflow_->hop_cost(batch);
      if (pred.outstanding_work() <= chosen->outstanding_work() + hop) {
        chosen = &pred;
      }
    }
  }
  return chosen;
}

std::size_t Cluster::pick_shard() {
  if (shards_.size() == 1) return 0;
  // Power of two choices over the incrementally-maintained shard load sums;
  // the p2c stream draws from its own fork so enabling shards leaves the
  // within-shard routing RNG untouched.
  const std::size_t a = shard_rng_.index(shards_.size());
  const std::size_t b = shard_rng_.index(shards_.size());
  return shards_[b].load_sum < shards_[a].load_sum ? b : a;
}

WorkerNode* Cluster::pick_node_base(const workload::Batch& batch) {
  const std::size_t home = pick_shard();
  WorkerNode* chosen = pick_in_shard(batch, home);
  // A shard with no serviceable node spills to its siblings in index order;
  // at shards == 1 the home shard is the whole fleet and this loop is dead.
  for (std::size_t s = 0; chosen == nullptr && s < shards_.size(); ++s) {
    if (s == home) continue;
    chosen = pick_in_shard(batch, s);
  }
  return chosen;
}

WorkerNode* Cluster::least_loaded_scan(NodeId lo, NodeId hi) const {
  WorkerNode* best = nullptr;
  for (NodeId id = lo; id < hi; ++id) {
    WorkerNode* node = nodes_[id].get();
    if (!node->accepting()) continue;
    if (node->gpu().reconfiguring() && node->queued() > 4) continue;
    if (best == nullptr ||
        node->outstanding_work() < best->outstanding_work()) {
      best = node;
    }
  }
  return best;
}

WorkerNode* Cluster::least_loaded_pick(const ShardState& shard) const {
  // The argmin of (outstanding work, id) over accepting nodes, skipping
  // reconfiguring ones with more than four queued batches — what the
  // reference least_loaded_scan computes in O(n). Ready nodes compete in
  // the tree (O(log n) per update, O(1) to read); reconfiguring ones are
  // few and their queues change without a listener call, so they are
  // checked live from the accepting-but-not-ready words.
  const LoadTree::Entry& root = shard.by_load.root();
  bool found = root.key != std::numeric_limits<double>::infinity();
  double best_load = root.key;
  std::size_t best_slot = root.slot;
  for (std::size_t w = 0; w < shard.accepting.words.size(); ++w) {
    for (std::uint64_t bits = shard.accepting.words[w] & ~shard.ready.words[w];
         bits != 0; bits &= bits - 1) {
      const std::size_t slot =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const NodeId id = shard.lo + static_cast<NodeId>(slot);
      if (nodes_[id]->queued() > 4) continue;
      const double load = index_[id].load;
      if (!found || load < best_load ||
          (load == best_load && slot < best_slot)) {
        found = true;
        best_load = load;
        best_slot = slot;
      }
    }
  }
  return found ? nodes_[shard.lo + best_slot].get() : nullptr;
}

WorkerNode* Cluster::pick_in_shard(const workload::Batch& batch,
                                   std::size_t s) {
  const ShardState& shard = shards_[s];
  // A missed listener notification or memo stamp shows up here, not as a
  // silent routing divergence.
  PROTEAN_DCHECK(audit_shard(s).empty());
  if (dispatch_policy_ == DispatchPolicy::kConsolidate) {
    // INFless/Llama-style packing: the busiest ready GPU that still has
    // memory for the batch and whose contention pressure stays under the
    // limit. The policy compares every candidate by definition; each one
    // costs a memo read (WorkerNode::dispatch_estimate), not a slice and
    // queue walk.
    const double demand = std::max(batch.model->fbr, batch.model->sm_req);
    WorkerNode* best = nullptr;
    double best_pressure = 0.0;
    for (NodeId id = shard.lo; id < shard.hi; ++id) {
      if (!shard.ready.test(id - shard.lo)) continue;
      WorkerNode* node = nodes_[id].get();
      const WorkerNode::DispatchEstimate& est = node->dispatch_estimate();
      if (est.pressure + demand > kConsolidatePressureLimit) continue;
      if (est.free_memory < batch.model->mem_gb) continue;
      if (best == nullptr || est.pressure > best_pressure) {
        best = node;
        best_pressure = est.pressure;
      }
    }
    if (best != nullptr) return best;
    // Everything is saturated: spill to the least-pressured accepting node.
    for (NodeId id = shard.lo; id < shard.hi; ++id) {
      if (!shard.accepting.test(id - shard.lo)) continue;
      WorkerNode* node = nodes_[id].get();
      const double pressure = node->dispatch_estimate().pressure;
      if (best == nullptr || pressure < best_pressure) {
        best = node;
        best_pressure = pressure;
      }
    }
    return best;
  }
  if (dispatch_policy_ == DispatchPolicy::kRandom) {
    // Uniform random routing over ready nodes, in id order; nodes mid-
    // reconfiguration are only used when nothing else is up, and then the
    // lowest accepting id (every accepting node is reconfiguring).
    if (shard.ready.count == 0) {
      if (shard.accepting.count == 0) return nullptr;
      return nodes_[shard.lo + shard.accepting.select(0)].get();
    }
    const std::size_t rank = dispatch_rng_.index(shard.ready.count);
    return nodes_[shard.lo + shard.ready.select(rank)].get();
  }
  if (WorkerNode* best = least_loaded_pick(shard); best != nullptr) {
    return best;
  }
  // Fall back to any accepting node (all may be reconfiguring + loaded):
  // the lowest accepting id.
  if (shard.accepting.count == 0) return nullptr;
  return nodes_[shard.lo + shard.accepting.select(0)].get();
}

void Cluster::dispatch(workload::Batch&& batch) {
  // Sealed strict gateway batches of the entry model become stage 0 of a
  // new flow; stage/retry re-dispatches pass through untouched.
  if (workflow_) workflow_->admit(batch);
  maybe_arm_hedge(batch);
  WorkerNode* node = pick_node(batch);
  if (node == nullptr) {
    if (obs::Tracer* t = config_.tracer;
        t != nullptr && t->wants(obs::kSpans)) {
      t->instant(obs::kSpans, "backlog", 0,
                 {{"batch", static_cast<double>(batch.id)}});
    }
    backlog_.push_back(std::move(batch));
    return;
  }
  if (workflow_ && batch.has_pred) {
    // Inter-stage transfer: free when co-located with the producing stage,
    // a bandwidth + fixed-hop delay otherwise. Paid once — a later fault
    // retry re-dispatches with the input already resident.
    const Duration hop = workflow_->pay_hop(batch, node->id());
    batch.has_pred = false;
    if (hop > 0.0) {
      batch.transfer += hop;
      if (obs::Tracer* t = config_.tracer;
          t != nullptr && t->wants(obs::kSpans)) {
        t->instant(obs::kSpans, "transfer", static_cast<int>(node->id()) + 1,
                   {{"batch", static_cast<double>(batch.id)},
                    {"hop_ms", 1e3 * hop}});
      }
      const NodeId dest = node->id();
      auto moved = batch_pool_.make(std::move(batch));
      sim_.schedule_after(hop, [this, moved, dest] {
        WorkerNode& n = *nodes_.at(dest);
        if (n.accepting()) {
          n.enqueue(std::move(*moved));
        } else {
          dispatch(std::move(*moved));  // destination died mid-transfer
        }
      });
      return;
    }
  }
  node->enqueue(std::move(batch));
}

void Cluster::on_stage_complete(workload::Batch&& batch) {
  for (workload::Batch& next : workflow_->on_stage_complete(batch)) {
    dispatch(std::move(next));
  }
}

void Cluster::maybe_arm_hedge(workload::Batch& batch) {
  const fault::FaultConfig& fc = config_.fault;
  if (!fc.enabled || !fc.hedge.enabled) return;
  // Workflow stage batches are not hedged: a hedged twin finishing second
  // would race the flow's join bookkeeping for no tail benefit (the runtime
  // already dedups, but the duplicate stage work is pure waste).
  if (batch.flow != 0) return;
  if (!batch.strict || batch.slo >= kNeverTime) return;
  if (batch.hedged || batch.hedge_armed || batch.attempts > 0) return;
  batch.hedge_armed = true;
  ++hedge_candidates_;
  auto twin = batch_pool_.make(batch);
  twin->hedged = true;
  const Duration delay =
      std::max(fc.hedge.floor, fc.hedge.slo_fraction * batch.slo);
  sim_.schedule_after(delay, [this, twin] {
    if (collector_.seen(twin->id)) return;  // primary already finished
    // Hedge budget ("The Tail at Scale"): a post-fault backlog pushes every
    // queued batch past its hedge deadline; without a cap the duplicate
    // load would sustain the backlog it is meant to cut short.
    const double budget = config_.fault.hedge.budget_fraction *
                          static_cast<double>(hedge_candidates_);
    if (static_cast<double>(collector_.hedges()) + 1.0 > budget) return;
    collector_.record_hedge();
    if (obs::Tracer* t = config_.tracer;
        t != nullptr && t->wants(obs::kSpans)) {
      t->instant(obs::kSpans, "hedge", 0,
                 {{"batch", static_cast<double>(twin->id)}});
    }
    dispatch(workload::Batch(*twin));
  });
}

void Cluster::on_lost_batch(workload::Batch&& batch) {
  collector_.record_lost_work(batch.count);
  if (collector_.seen(batch.id)) return;  // a twin already settled this id
  if (batch.attempts >= config_.fault.retry.max_retries) {
    if (workflow_ && batch.flow != 0) {
      // A terminally dropped stage kills its whole flow — once. Parallel
      // DAG branches that die later find the flow already dead and count
      // nothing, so diamond twins cannot inflate the drop statistics.
      const int lost = workflow_->on_stage_dropped(batch);
      if (lost > 0) {
        collector_.record_dropped(batch.strict, lost);
        if (obs::Tracer* t = config_.tracer;
            t != nullptr && t->wants(obs::kSpans)) {
          t->instant(obs::kSpans, "drop", 0,
                     {{"batch", static_cast<double>(batch.id)},
                      {"flow", static_cast<double>(batch.flow)},
                      {"attempts", static_cast<double>(batch.attempts)}});
        }
      }
      return;
    }
    // Out of retries: terminal for this copy. The first terminal event for
    // an id — this drop or a twin's completion — wins in the collector.
    if (collector_.claim(batch.id)) {
      collector_.record_dropped(batch.strict, batch.count);
      if (obs::Tracer* t = config_.tracer;
          t != nullptr && t->wants(obs::kSpans)) {
        t->instant(obs::kSpans, "drop", 0,
                   {{"batch", static_cast<double>(batch.id)},
                    {"attempts", static_cast<double>(batch.attempts)}});
      }
    }
    return;
  }
  ++batch.attempts;
  collector_.record_retry();
  if (obs::Tracer* t = config_.tracer;
      t != nullptr && t->wants(obs::kSpans)) {
    t->instant(obs::kSpans, "retry", 0,
               {{"batch", static_cast<double>(batch.id)},
                {"attempt", static_cast<double>(batch.attempts)}});
  }
  const Duration delay =
      fault::retry_backoff(batch.attempts, config_.fault.retry);
  auto shared = batch_pool_.make(std::move(batch));
  sim_.schedule_after(delay, [this, shared] {
    // Attribution: everything since the failed attempt entered its node
    // queue — queue wait, the partial execution, the backoff delay — is
    // wasted wall time, except the slice already charged to the blackout
    // lane during that window (blackout_mark brackets the overlap).
    workload::Batch& b = *shared;
    const Duration attempt_blackout = b.reconfig_blackout - b.blackout_mark;
    b.retry_overhead +=
        std::max(0.0, (sim_.now() - b.enqueued_at) - attempt_blackout);
    b.blackout_mark = b.reconfig_blackout;
    dispatch(std::move(*shared));
  });
}

void Cluster::drain_backlog() {
  while (!backlog_.empty()) {
    WorkerNode* node = pick_node(backlog_.front());
    if (node == nullptr) return;
    node->enqueue(std::move(backlog_.front()));
    backlog_.pop_front();
  }
}

void Cluster::begin_decommission(NodeId id) {
  WorkerNode& node = *nodes_.at(id);
  if (!node.up()) return;
  node.set_draining(true);
  for (workload::Batch& b : node.take_queue()) {
    dispatch(std::move(b));
  }
}

void Cluster::cancel_decommission(NodeId id) {
  WorkerNode& node = *nodes_.at(id);
  // Only clear a drain we set ourselves: a market eviction notice also
  // drains, and that one must stand until the VM actually dies.
  if (!node.up() || market_->node_draining(id)) return;
  node.set_draining(false);
  drain_backlog();
}

void Cluster::on_eviction_notice(NodeId id, SimTime eviction_at) {
  (void)eviction_at;
  WorkerNode& node = *nodes_.at(id);
  node.set_draining(true);
  // Unstarted batches move to healthy nodes right away; running jobs get
  // the notice window to finish (Section 4.5).
  for (workload::Batch& b : node.take_queue()) {
    dispatch(std::move(b));
  }
}

void Cluster::on_node_evicted(NodeId id) {
  WorkerNode& node = *nodes_.at(id);
  for (workload::Batch& b : node.evict()) {
    dispatch(std::move(b));
  }
}

void Cluster::on_node_restored(NodeId id, spot::VmTier tier) {
  (void)tier;
  WorkerNode& node = *nodes_.at(id);
  if (!node.up()) node.restore();
  node.set_draining(false);
  drain_backlog();
}

std::size_t Cluster::fault_domain_size() const { return nodes_.size(); }

bool Cluster::inject_crash(NodeId id) {
  WorkerNode& node = *nodes_.at(id);
  if (!node.up()) return false;  // already down: the fault misses
  for (workload::Batch& b : node.evict()) dispatch(std::move(b));
  const NodeId n = id;
  sim_.schedule_after(config_.fault.reboot_delay, [this, n] {
    WorkerNode& down = *nodes_.at(n);
    // Reboot only while the market still leases this VM; if it was evicted
    // meanwhile, the market's replacement path owns the restore.
    if (!down.up() && market_->node_up(n)) {
      down.restore();
      drain_backlog();
    }
  });
  return true;
}

bool Cluster::inject_spot_kill(NodeId id) { return market_->force_kill(id); }

bool Cluster::inject_ecc_failure(NodeId id, double slice_selector) {
  return nodes_.at(id)->inject_ecc(slice_selector);
}

void Cluster::monitor_tick() {
  int reconfiguring = 0;
  for (auto& node : nodes_) {
    if (node->up() && node->gpu().reconfiguring()) ++reconfiguring;
  }
  // Budget scales with the *base* fleet so an autoscaled-out deployment
  // does not loosen the paper's 30% simultaneous-reconfiguration bound
  // (nodes_.size() == node_count when autoscaling is off).
  const int cap = std::max(
      1, static_cast<int>(std::floor(config_.max_reconfig_fraction *
                                     static_cast<double>(config_.node_count))));
  int budget = std::max(0, cap - reconfiguring);
  for (auto& node : nodes_) {
    if (!node->up()) continue;
    // Each node is monitored by its own shard's scheduler (== scheduler_ on
    // the single-shard control plane); the budget stays fleet-global.
    node->scheduler().on_monitor(*node, budget);
  }
}

double Cluster::gpu_utilization_pct() const {
  const Duration elapsed = sim_.now() - started_at_;
  if (elapsed <= 0.0) return 0.0;
  // Normalized by the base fleet (== nodes_.size() unless autoscaling),
  // so elastic runs report utilization against the provisioned baseline.
  return 100.0 * sum_nodes(nodes_, &WorkerNode::gpu_busy_seconds) /
         (elapsed * static_cast<double>(config_.node_count));
}

double Cluster::memory_utilization_pct() const {
  const Duration elapsed = sim_.now() - started_at_;
  if (elapsed <= 0.0) return 0.0;
  return 100.0 * sum_nodes(nodes_, &WorkerNode::gpu_memory_gb_seconds) /
         (elapsed * config_.gpu_memory_gb *
          static_cast<double>(config_.node_count));
}

std::uint64_t Cluster::total_cold_starts() const {
  return sum_nodes(nodes_, &WorkerNode::cold_starts);
}

std::uint64_t Cluster::total_dropped_jobs() const {
  return sum_nodes(nodes_, &WorkerNode::dropped_jobs);
}

int Cluster::total_reconfigurations() const {
  return sum_nodes(nodes_, &WorkerNode::reconfigurations);
}

std::uint64_t Cluster::total_lost_batches() const {
  return sum_nodes(nodes_, &WorkerNode::lost_batches);
}

int Cluster::total_failed_reconfigurations() const {
  return sum_nodes(nodes_, &WorkerNode::failed_reconfigurations);
}

}  // namespace protean::cluster
