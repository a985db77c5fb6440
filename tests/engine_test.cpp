// Tests for the GPU execution engine: MPS processor sharing per Eq. 1 +
// compute pressure + thrash, time sharing, reservations, reconfiguration.
#include "gpu/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace protean::gpu {
namespace {

JobSpec job(JobId id, Duration solo, double fbr, double sm, MemGb mem,
            bool strict = false) {
  JobSpec spec;
  spec.id = id;
  spec.solo_time = solo;
  spec.fbr = fbr;
  spec.sm_share = sm;
  spec.mem_gb = mem;
  spec.strict = strict;
  return spec;
}

struct Done {
  std::vector<JobCompletion> completions;
  CompletionCallback cb() {
    return [this](const JobCompletion& c) { completions.push_back(c); };
  }
};

TEST(MpsSlowdown, IdentityBelowSaturation) {
  EXPECT_DOUBLE_EQ(mps_slowdown(0.3), 1.0);
  EXPECT_DOUBLE_EQ(mps_slowdown(1.0), 1.0);
}

TEST(MpsSlowdown, LinearBetweenOneAndKnee) {
  InterferenceParams p;  // knee 1.5
  EXPECT_DOUBLE_EQ(mps_slowdown(1.2, p), 1.2);
  EXPECT_DOUBLE_EQ(mps_slowdown(1.5, p), 1.5);
}

TEST(MpsSlowdown, QuadraticThrashAboveKnee) {
  InterferenceParams p;
  p.thrash_gamma = 0.6;
  p.thrash_knee = 1.5;
  EXPECT_NEAR(mps_slowdown(2.5, p), 2.5 + 0.6 * 1.0, 1e-12);
  EXPECT_NEAR(mps_slowdown(3.5, p), 3.5 + 0.6 * 4.0, 1e-12);
}

TEST(Slice, SoloJobRunsAtSoloTime) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  Done done;
  slice.submit(job(1, 0.2, 0.9, 1.0, 5.0), done.cb());
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 1u);
  EXPECT_NEAR(done.completions[0].exec_time, 0.2, 1e-9);
  EXPECT_TRUE(slice.idle());
}

TEST(Slice, SoloBandwidthSaturatedJobStillRunsAtSoloTime) {
  // fbr > 1: the solo measurement already includes the job's own ceiling.
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  Done done;
  slice.submit(job(1, 0.3, 1.35, 0.5, 8.0), done.cb());
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 1u);
  EXPECT_NEAR(done.completions[0].exec_time, 0.3, 1e-9);
}

TEST(Slice, TwoComputeBoundJobsProcessorShare) {
  sim::Simulator sim;
  InterferenceParams params;
  params.thrash_gamma = 0.0;  // pure additive for exact math
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps, params);
  Done done;
  slice.submit(job(1, 0.1, 0.2, 1.0, 1.0), done.cb());
  slice.submit(job(2, 0.1, 0.2, 1.0, 1.0), done.cb());
  sim.run_to_completion();
  // Pressure = 2 (SM) > fbr sum 0.4: both run at rate 1/2 -> 0.2 s.
  ASSERT_EQ(done.completions.size(), 2u);
  EXPECT_NEAR(done.completions[0].exec_time, 0.2, 1e-9);
  EXPECT_NEAR(done.completions[1].exec_time, 0.2, 1e-9);
}

TEST(Slice, SmallKernelsPackWithoutComputeContention) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  Done done;
  slice.submit(job(1, 0.1, 0.3, 0.3, 1.0), done.cb());
  slice.submit(job(2, 0.1, 0.3, 0.3, 1.0), done.cb());
  sim.run_to_completion();
  // Total pressure max(0.6, 0.6) < 1: no slowdown at all.
  for (const auto& c : done.completions) {
    EXPECT_NEAR(c.exec_time, 0.1, 1e-9);
  }
}

TEST(Slice, BandwidthContentionFollowsEq1) {
  sim::Simulator sim;
  InterferenceParams params;
  params.thrash_gamma = 0.0;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps, params);
  Done done;
  // Two jobs, each fbr 0.8, tiny SM share: S = max(1.6, 0.4, 1) = 1.6.
  slice.submit(job(1, 0.1, 0.8, 0.2, 1.0), done.cb());
  slice.submit(job(2, 0.1, 0.8, 0.2, 1.0), done.cb());
  sim.run_to_completion();
  for (const auto& c : done.completions) {
    EXPECT_NEAR(c.exec_time, 0.16, 1e-9);
  }
}

TEST(Slice, LateArrivalSlowsResident) {
  sim::Simulator sim;
  InterferenceParams params;
  params.thrash_gamma = 0.0;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps, params);
  Done done;
  slice.submit(job(1, 0.2, 0.1, 1.0, 1.0), done.cb());
  sim.schedule_at(0.1, [&] {
    slice.submit(job(2, 0.2, 0.1, 1.0, 1.0), done.cb());
  });
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 2u);
  // Job 1: 0.1 s solo (half its work) then shares at rate 1/2 for the
  // remaining 0.1 s of work -> finishes at 0.3.
  EXPECT_NEAR(done.completions[0].finished_at, 0.3, 1e-9);
  EXPECT_EQ(done.completions[0].id, 1u);
  // Job 2: shares from 0.1 to 0.3 (progress 0.1), then runs alone for the
  // remaining 0.1 -> finishes at 0.4.
  EXPECT_NEAR(done.completions[1].finished_at, 0.4, 1e-9);
}

TEST(Slice, SaturatedJobNormalizedAgainstOwnPressure) {
  sim::Simulator sim;
  InterferenceParams params;
  params.thrash_gamma = 0.0;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps, params);
  Done done;
  // Two bus-saturating jobs (fbr 1.3 each): S_total = 2.6, own = 1.3 ->
  // each at rate 0.5 -> 2x solo.
  slice.submit(job(1, 0.2, 1.3, 0.4, 1.0), done.cb());
  slice.submit(job(2, 0.2, 1.3, 0.4, 1.0), done.cb());
  sim.run_to_completion();
  for (const auto& c : done.completions) {
    EXPECT_NEAR(c.exec_time, 0.4, 1e-9);
  }
}

TEST(Slice, MemoryAdmissionControl) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k2g, SharingMode::kMps);  // 10 GB
  Done done;
  EXPECT_TRUE(slice.can_admit(job(1, 0.1, 0.1, 0.1, 6.0)));
  slice.submit(job(1, 0.1, 0.1, 0.1, 6.0), done.cb());
  EXPECT_FALSE(slice.can_admit(job(2, 0.1, 0.1, 0.1, 6.0)));
  EXPECT_TRUE(slice.can_admit(job(3, 0.1, 0.1, 0.1, 4.0)));
  sim.run_to_completion();
  EXPECT_TRUE(slice.can_admit(job(2, 0.1, 0.1, 0.1, 6.0)));
}

TEST(Slice, TimeShareRejectsSecondJob) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kTimeShare);
  Done done;
  slice.submit(job(1, 0.1, 0.9, 1.0, 1.0), done.cb());
  EXPECT_FALSE(slice.can_admit(job(2, 0.1, 0.9, 1.0, 1.0)));
  sim.run_to_completion();
  EXPECT_TRUE(slice.can_admit(job(2, 0.1, 0.9, 1.0, 1.0)));
}

TEST(Slice, TimeSharePaysSwapOverheadOnModelSwitch) {
  sim::Simulator sim;
  InterferenceParams params;
  params.timeshare_overhead = 0.05;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kTimeShare,
              params);
  Done done;
  static const int model_a = 0, model_b = 0;
  JobSpec first = job(1, 0.1, 0.9, 1.0, 1.0);
  first.model_tag = &model_a;
  slice.submit(first, done.cb());
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 1u);
  // Fresh slice: the first container launch pays the swap.
  EXPECT_NEAR(done.completions[0].exec_time, 0.15, 1e-9);

  // Same model again: container reused, no swap.
  slice.submit(first, done.cb());
  sim.run_to_completion();
  EXPECT_NEAR(done.completions[1].exec_time, 0.1, 1e-9);

  // Different model: swap paid again.
  JobSpec second = job(2, 0.1, 0.9, 1.0, 1.0);
  second.model_tag = &model_b;
  slice.submit(second, done.cb());
  sim.run_to_completion();
  EXPECT_NEAR(done.completions[2].exec_time, 0.15, 1e-9);
}

TEST(Slice, ReservationsBlockAdmissionWithoutContention) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k2g, SharingMode::kMps);
  slice.reserve_memory(8.0);
  EXPECT_FALSE(slice.can_admit(job(1, 0.1, 0.1, 0.1, 5.0)));
  EXPECT_DOUBLE_EQ(slice.current_slowdown(), 1.0);
  slice.release_reservation(8.0);
  EXPECT_TRUE(slice.can_admit(job(1, 0.1, 0.1, 0.1, 5.0)));
}

TEST(Slice, OverReservationThrows) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k1g, SharingMode::kMps);  // 5 GB
  EXPECT_THROW(slice.reserve_memory(6.0), std::logic_error);
}

TEST(Slice, ReleasingMoreThanReservedThrows) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k2g, SharingMode::kMps);
  slice.reserve_memory(4.0);
  EXPECT_THROW(slice.release_reservation(5.0), std::logic_error);
  EXPECT_THROW(Slice(sim, nullptr, 1, SliceProfile::k2g, SharingMode::kMps)
                   .release_reservation(1.0),
               std::logic_error);
}

TEST(Slice, ReserveThenCancelRestoresAvailableMemory) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k2g, SharingMode::kMps);  // 10 GB
  const MemGb before = slice.available_memory();
  slice.reserve_memory(7.0);
  slice.reserve_memory(3.0);
  EXPECT_GE(slice.available_memory(), 0.0);
  EXPECT_DOUBLE_EQ(slice.available_memory(), 0.0);
  // The batch was cancelled (eviction mid-boot): both reservations unwind
  // and the slice is exactly as free as it started.
  slice.release_reservation(3.0);
  slice.release_reservation(7.0);
  EXPECT_DOUBLE_EQ(slice.available_memory(), before);
  EXPECT_EQ(slice.reservations(), 0);
}

TEST(Slice, SharedWeightsChargedOncePerModelTag) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps,
              InterferenceParams{}, 40.0, /*shared_weights=*/true);
  static const int tag = 0;
  JobSpec spec = job(1, 0.5, 0.1, 0.1, 10.0);
  spec.weight_gb = 6.0;
  spec.model_tag = &tag;
  Done done;

  // First job charges activations (4) + weights (6).
  EXPECT_DOUBLE_EQ(slice.admission_demand(spec), 10.0);
  slice.submit(spec, done.cb());
  EXPECT_DOUBLE_EQ(slice.memory_in_use(), 10.0);

  // A concurrent same-model job shares the resident weights: it only needs
  // its activation part, and total usage grows by 4, not 10.
  spec.id = 2;
  EXPECT_DOUBLE_EQ(slice.admission_demand(spec), 4.0);
  slice.submit(spec, done.cb());
  EXPECT_DOUBLE_EQ(slice.memory_in_use(), 14.0);

  // A different model brings its own weights.
  static const int other_tag = 0;
  JobSpec other = job(3, 0.5, 0.1, 0.1, 10.0);
  other.weight_gb = 6.0;
  other.model_tag = &other_tag;
  EXPECT_DOUBLE_EQ(slice.admission_demand(other), 10.0);

  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(slice.memory_in_use(), 0.0);
  // With every job gone the weight charge is released too.
  EXPECT_DOUBLE_EQ(slice.admission_demand(spec), 10.0);
}

TEST(Slice, WithoutSharedWeightsFlagWeightsAreNotShared) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  static const int tag = 0;
  JobSpec spec = job(1, 0.5, 0.1, 0.1, 10.0);
  spec.weight_gb = 6.0;
  spec.model_tag = &tag;
  Done done;
  slice.submit(spec, done.cb());
  spec.id = 2;
  // Legacy accounting: the full footprint per job, weights included.
  EXPECT_DOUBLE_EQ(slice.admission_demand(spec), 10.0);
  EXPECT_DOUBLE_EQ(slice.memory_in_use(), 10.0);
  sim.run_to_completion();
}

TEST(Slice, SwapSlowdownBelowOneIsRejected) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  EXPECT_THROW(slice.set_swap_slowdown(0.5), std::logic_error);
  slice.set_swap_slowdown(1.0);  // exact no-op
  EXPECT_DOUBLE_EQ(slice.swap_slowdown(), 1.0);
}

TEST(Slice, BusySecondsTracksActiveTime) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  Done done;
  slice.submit(job(1, 0.5, 0.2, 0.2, 1.0), done.cb());
  sim.run_until(2.0);
  EXPECT_NEAR(slice.busy_seconds(), 0.5, 1e-9);
}

TEST(Slice, MemoryIntegralTracksResidency) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  Done done;
  slice.submit(job(1, 0.5, 0.2, 0.2, 8.0), done.cb());
  sim.run_until(2.0);
  EXPECT_NEAR(slice.memory_gb_seconds(), 4.0, 1e-9);
}

TEST(Slice, StrictAccountingSeparatesClasses) {
  sim::Simulator sim;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kMps);
  Done done;
  slice.submit(job(1, 0.2, 0.1, 0.1, 6.0, /*strict=*/true), done.cb());
  slice.submit(job(2, 0.2, 0.1, 0.1, 4.0, /*strict=*/false), done.cb());
  EXPECT_EQ(slice.strict_jobs(), 1u);
  EXPECT_DOUBLE_EQ(slice.be_memory_in_use(), 4.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(slice.be_memory_in_use(), 0.0);
}

TEST(Gpu, BuildsSlicesFromGeometry) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_2_1(), SharingMode::kMps);
  auto slices = gpu.slices();
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0]->profile(), SliceProfile::k4g);
  EXPECT_EQ(slices[1]->profile(), SliceProfile::k2g);
  EXPECT_EQ(slices[2]->profile(), SliceProfile::k1g);
}

TEST(Gpu, MemorySizeScalesSliceCapacities) {
  sim::Simulator sim;
  Gpu a100_40(sim, 0, Geometry::g4_2_1(), SharingMode::kMps);
  Gpu a100_80(sim, 1, Geometry::g4_2_1(), SharingMode::kMps, 2.0,
              InterferenceParams{}, 80.0);
  const auto small = a100_40.slices();
  const auto large = a100_80.slices();
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_DOUBLE_EQ(large[i]->memory_capacity(),
                     2.0 * small[i]->memory_capacity());
  }
  EXPECT_DOUBLE_EQ(a100_40.memory_capacity(), 40.0);
  EXPECT_DOUBLE_EQ(a100_80.memory_capacity(), 80.0);
}

TEST(Gpu, InvalidGeometryThrows) {
  sim::Simulator sim;
  EXPECT_THROW(Gpu(sim, 0, Geometry{SliceProfile::k4g, SliceProfile::k4g},
                   SharingMode::kMps),
               std::logic_error);
}

TEST(Gpu, ReconfigureToSameGeometryIsImmediate) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps);
  bool done = false;
  EXPECT_TRUE(gpu.request_reconfigure(Geometry::g4_3(), [&] { done = true; }));
  EXPECT_TRUE(done);
  EXPECT_FALSE(gpu.reconfiguring());
  EXPECT_EQ(gpu.reconfigurations(), 0);
}

TEST(Gpu, ReconfigureTakesDowntimeWhenIdle) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 2.0);
  SimTime done_at = -1.0;
  gpu.request_reconfigure(Geometry::g4_2_1(), [&] { done_at = sim.now(); });
  EXPECT_TRUE(gpu.reconfiguring());
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
  EXPECT_EQ(gpu.geometry(), Geometry::g4_2_1());
  EXPECT_EQ(gpu.reconfigurations(), 1);
}

TEST(Gpu, ReconfigureWaitsForRunningJobs) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 2.0);
  Done done;
  gpu.slices()[0]->submit(job(1, 1.0, 0.2, 0.5, 1.0), done.cb());
  SimTime done_at = -1.0;
  gpu.request_reconfigure(Geometry::full(), [&] { done_at = sim.now(); });
  // New work is refused during the drain.
  EXPECT_FALSE(gpu.slices()[1]->can_admit(job(2, 0.1, 0.1, 0.1, 1.0)));
  sim.run_to_completion();
  // Job ends at 1.0, then 2 s downtime.
  EXPECT_DOUBLE_EQ(done_at, 3.0);
  EXPECT_EQ(gpu.geometry(), Geometry::full());
}

TEST(Gpu, ReconfigureWaitsForReservations) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 2.0);
  gpu.slices()[0]->reserve_memory(5.0);
  SimTime done_at = -1.0;
  gpu.request_reconfigure(Geometry::full(), [&] { done_at = sim.now(); });
  sim.schedule_at(1.0, [&] { gpu.slices()[0]->release_reservation(5.0); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(Gpu, SecondReconfigureWhileInFlightIsRejected) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 2.0);
  EXPECT_TRUE(gpu.request_reconfigure(Geometry::full()));
  EXPECT_FALSE(gpu.request_reconfigure(Geometry::g4_2_1()));
  sim.run_to_completion();
  EXPECT_EQ(gpu.geometry(), Geometry::full());
}

TEST(Gpu, CapacityCallbackFiresOnCompletionAndReconfig) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 1.0);
  int calls = 0;
  gpu.set_capacity_callback([&] { ++calls; });
  Done done;
  gpu.slices()[0]->submit(job(1, 0.5, 0.2, 0.5, 1.0), done.cb());
  sim.run_to_completion();
  EXPECT_GE(calls, 1);
  const int after_job = calls;
  gpu.request_reconfigure(Geometry::full());
  sim.run_to_completion();
  EXPECT_GT(calls, after_job);
}

TEST(Gpu, BusySecondsAggregatesAcrossSlices) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps);
  Done done;
  // Overlapping jobs on both slices: whole-GPU busy time is the union.
  gpu.slices()[0]->submit(job(1, 0.4, 0.2, 0.5, 1.0), done.cb());
  gpu.slices()[1]->submit(job(2, 0.6, 0.2, 0.5, 1.0), done.cb());
  sim.run_until(2.0);
  EXPECT_NEAR(gpu.busy_seconds(), 0.6, 1e-9);
}

TEST(Gpu, MemoryIntegralSurvivesReconfiguration) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 1.0);
  Done done;
  gpu.slices()[0]->submit(job(1, 0.5, 0.2, 0.5, 10.0), done.cb());
  sim.run_until(1.0);
  const double before = gpu.memory_gb_seconds();
  EXPECT_NEAR(before, 5.0, 1e-9);
  gpu.request_reconfigure(Geometry::full());
  sim.run_to_completion();
  EXPECT_GE(gpu.memory_gb_seconds(), before - 1e-9);
}

TEST(Gpu, CallbackResubmitKeepsBusyAccountingContinuous) {
  // Regression: complete_front_runner used to mark the slice idle *after*
  // running completion callbacks. A callback that resubmits flips the slice
  // busy again, and the stale decrement then left the busy counter pinned,
  // inflating busy_seconds forever.
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps);
  Slice* slice = gpu.slices().front();
  Done done;
  bool resubmitted = false;
  slice->submit(job(1, 0.1, 0.5, 0.5, 2.0), [&](const JobCompletion&) {
    if (!resubmitted) {
      resubmitted = true;
      slice->submit(job(2, 0.1, 0.5, 0.5, 2.0), done.cb());
    }
  });
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 1u);
  EXPECT_NEAR(gpu.busy_seconds(), 0.2, 1e-9);
  // Advance well past the work: an idle GPU must not keep accruing.
  sim.run_until(1.0);
  EXPECT_NEAR(gpu.busy_seconds(), 0.2, 1e-9);
}

TEST(Slice, AbortResetsModelTagSoNextSubmitPaysSwap) {
  // Regression: abort_jobs left last_model_tag_ set, so a resubmit of the
  // same model after a container death skipped the context-swap overhead.
  sim::Simulator sim;
  InterferenceParams params;
  params.timeshare_overhead = 0.05;
  Slice slice(sim, nullptr, 0, SliceProfile::k7g, SharingMode::kTimeShare,
              params);
  Done done;
  static const int model_a = 0;
  JobSpec spec = job(1, 0.1, 0.9, 1.0, 1.0);
  spec.model_tag = &model_a;
  slice.submit(spec, done.cb());
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 1u);
  EXPECT_NEAR(done.completions[0].exec_time, 0.15, 1e-9);

  slice.submit(spec, done.cb());
  EXPECT_EQ(slice.abort_jobs(), 1u);  // the container died with the job
  ASSERT_EQ(done.completions.size(), 2u);
  EXPECT_TRUE(done.completions[1].failed);

  // Same model after the abort: the replacement container swaps in again.
  slice.submit(spec, done.cb());
  sim.run_to_completion();
  ASSERT_EQ(done.completions.size(), 3u);
  EXPECT_NEAR(done.completions[2].exec_time, 0.15, 1e-9);
}

TEST(Gpu, FailSliceDropsBootReservationsAndReconfigureCompletes) {
  // An ECC hit can land while a booting container holds a reservation on
  // the victim; the drained reconfiguration that follows must not wait on
  // memory that died with the slice.
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 2.0);
  Slice* victim = gpu.slices()[1];
  victim->reserve_memory(5.0);
  EXPECT_EQ(victim->reservations(), 1);
  ASSERT_TRUE(gpu.fail_slice(victim->id()));
  bool reconfigured = false;
  ASSERT_TRUE(
      gpu.request_reconfigure(Geometry::g4_2_1(), [&] { reconfigured = true; }));
  sim.run_to_completion();
  EXPECT_TRUE(reconfigured);
  for (const Slice* s : const_cast<const Gpu&>(gpu).slices()) {
    EXPECT_EQ(s->reservations(), 0);
    EXPECT_DOUBLE_EQ(s->reserved_memory(), 0.0);
  }
}

TEST(Gpu, StateVersionBumpsOnEveryEstimateInput) {
  // Memos over the live slices (consolidating dispatch) key on this stamp,
  // so every method that moves the FBR/SM sums, memory in use,
  // reservations, the slice set or the GPU's state must bump it itself.
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::g4_3(), SharingMode::kMps, 2.0);
  std::uint64_t seen = gpu.state_version();
  const auto bumped = [&] {
    const bool moved = gpu.state_version() != seen;
    seen = gpu.state_version();
    return moved;
  };
  Slice* big = gpu.slices()[0];
  Slice* small = gpu.slices()[1];
  Done done;
  big->submit(job(1, 1.0, 0.4, 0.5, 2.0), done.cb());
  EXPECT_TRUE(bumped()) << "submit";
  sim.run_until(1.5);
  EXPECT_TRUE(bumped()) << "completion";
  small->reserve_memory(3.0);
  EXPECT_TRUE(bumped()) << "reserve_memory";
  small->release_reservation(3.0);
  EXPECT_TRUE(bumped()) << "release_reservation";
  big->submit(job(2, 5.0, 0.4, 0.5, 2.0), done.cb());
  EXPECT_TRUE(bumped());
  EXPECT_EQ(gpu.abort_all_jobs(), 1u);
  EXPECT_TRUE(bumped()) << "abort_all_jobs";
  ASSERT_TRUE(gpu.fail_slice(small->id()));
  EXPECT_TRUE(bumped()) << "fail_slice";
  ASSERT_TRUE(gpu.request_reconfigure(Geometry::g4_3()));
  EXPECT_TRUE(bumped()) << "drain, then down";
  EXPECT_TRUE(gpu.slices().empty());
  sim.run_to_completion();
  EXPECT_TRUE(bumped()) << "reconfiguration rebuild";
  EXPECT_EQ(gpu.slices().size(), 2u);
  // Unrelated reads leave it alone.
  (void)gpu.max_pressure();
  (void)gpu.resident_gb();
  EXPECT_FALSE(bumped());
}

TEST(Gpu, SoftRepartitionBumpsStateVersion) {
  sim::Simulator sim;
  Gpu gpu(sim, 0, Geometry::full(), SharingMode::kSoftSlice);
  const std::uint64_t before = gpu.state_version();
  ASSERT_TRUE(gpu.request_reconfigure(Geometry::g4_3()));
  EXPECT_NE(gpu.state_version(), before);
  EXPECT_EQ(gpu.slices().size(), 2u);
}

}  // namespace
}  // namespace protean::gpu
