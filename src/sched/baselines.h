// Baseline request-serving policies the paper compares against (Section 5),
// plus the straw-man schemes from the Section 2.2 motivation experiment.
//
//  * Molecule (beta)  — whole GPU, time sharing, no MPS.
//  * INFless/Llama    — whole GPU, MPS consolidation of every batch.
//  * Naive Slicing    — static MIG slices + MPS, requests load-balanced by
//                       slice memory, no strict/BE awareness.
//  * MIG Only         — static slices, time sharing per slice.
//  * MPS+MIG          — static slices + MPS, batches spread evenly.
//  * Smart MPS+MIG    — static slices + MPS; strict on the largest slice,
//                       BE on the others (the Section 2.2 straw man).
//  * GPUlet           — whole GPU, MPS with per-class SM caps (strategic
//                       MPS-only usage, Section 6.2).
#pragma once

#include <memory>
#include <string>

#include "cluster/node.h"
#include "cluster/scheduler.h"

namespace protean::sched {

class MoleculeBetaScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "Molecule (beta)"; }
  gpu::SharingMode sharing_mode() const override {
    return gpu::SharingMode::kTimeShare;
  }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::full();
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
};

class InflessLlamaScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "INFless/Llama"; }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::full();
  }
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    // "Consolidate excessive workload batches on individual GPUs" (§1).
    return cluster::DispatchPolicy::kConsolidate;
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
};

class NaiveSlicingScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "Naive Slicing"; }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::g4_2_1();
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
};

class MigOnlyScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "MIG Only"; }
  gpu::SharingMode sharing_mode() const override {
    return gpu::SharingMode::kTimeShare;
  }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::g4_3();
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
};

class MpsMigScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "MPS+MIG"; }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::g4_3();
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
};

class SmartMpsMigScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "'Smart' MPS+MIG"; }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::g4_3();
  }
  bool reorder_strict_first() const override { return true; }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
};

class GpuletScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "GPUlet"; }
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::full();
  }
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    // GPUlet schedules strategically (its scheduler sizes SM partitions per
    // job); it balances load rather than over-consolidating.
    return cluster::DispatchPolicy::kLeastLoaded;
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
  gpu::JobSpec make_job(const workload::Batch& batch, const gpu::Slice& slice,
                        JobId job_id) const override;
};

}  // namespace protean::sched
