// MIG (Multi-Instance GPU) profiles and geometries for an A100-40GB-class
// device, following Table 2 of the paper and NVIDIA's placement rules.
//
// A geometry is a multiset of slice profiles. Validity is checked with the
// memory-slot model NVIDIA documents for the A100: the GPU has 8 memory
// slots; 1g occupies 1, 2g occupies 2, 3g and 4g occupy 4, and 7g occupies
// all 8. Profile counts are additionally bounded by Table 2's "Max Count".
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace protean::gpu {

/// The five MIG instance profiles available on an A100 40GB (Table 2).
enum class SliceProfile : std::uint8_t { k1g = 0, k2g, k3g, k4g, k7g };

inline constexpr std::array<SliceProfile, 5> kAllProfiles = {
    SliceProfile::k1g, SliceProfile::k2g, SliceProfile::k3g, SliceProfile::k4g,
    SliceProfile::k7g};

/// Static capability data for one profile (one row of Table 2).
struct ProfileTraits {
  const char* name;        // e.g. "4g.20gb"
  const char* short_name;  // e.g. "4g"
  int compute_units;       // numerator of the compute fraction (x/7 SMs)
  MemGb memory_gb;         // dedicated slice memory
  int cache_eighths;       // numerator of the cache/bandwidth fraction (x/8)
  int memory_slots;        // placement slots occupied out of 8
  int max_count;           // max simultaneous instances of this profile
};

const ProfileTraits& traits(SliceProfile profile) noexcept;

/// Fraction of the GPU's SMs available to the slice (x/7).
double compute_fraction(SliceProfile profile) noexcept;

/// Fraction of the GPU's L2 cache / memory bandwidth available (x/8).
double cache_fraction(SliceProfile profile) noexcept;

MemGb memory_gb(SliceProfile profile) noexcept;
const char* short_name(SliceProfile profile) noexcept;

/// Parses "1g".."7g" or the long form "1g.5gb" etc. Throws on bad input.
SliceProfile parse_profile(const std::string& text);

/// A MIG geometry: the multiset of profiles a GPU is partitioned into,
/// stored canonically in descending profile size.
class Geometry {
 public:
  Geometry() = default;
  Geometry(std::initializer_list<SliceProfile> profiles);
  explicit Geometry(std::vector<SliceProfile> profiles);

  /// Validity under the A100 slot model; invalid geometries cannot be
  /// instantiated on a Gpu.
  bool valid() const noexcept;

  const std::vector<SliceProfile>& slices() const noexcept { return slices_; }
  std::size_t size() const noexcept { return slices_.size(); }
  bool empty() const noexcept { return slices_.empty(); }
  SliceProfile operator[](std::size_t i) const { return slices_.at(i); }

  int total_memory_slots() const noexcept;
  MemGb total_memory_gb() const noexcept;
  int total_compute_units() const noexcept;

  /// Human-readable form, e.g. "(4g,3g)".
  std::string to_string() const;

  bool operator==(const Geometry& other) const noexcept {
    return slices_ == other.slices_;
  }
  bool operator!=(const Geometry& other) const noexcept {
    return !(*this == other);
  }

  /// All valid geometries on an A100 (deduplicated multisets), useful for
  /// Oracle sweeps and property tests.
  static const std::vector<Geometry>& all_valid();

  /// Named geometries used throughout the paper, built once.
  static const Geometry& full();    // (7g)
  static const Geometry& g4_3();    // (4g,3g)
  static const Geometry& g4_2_1();  // (4g,2g,1g)
  static const Geometry& g3_3();    // (3g,3g)

 private:
  void canonicalize();
  std::vector<SliceProfile> slices_;
};

}  // namespace protean::gpu
