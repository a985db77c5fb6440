#include "gpu/mig.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

namespace protean::gpu {

namespace {

constexpr std::array<ProfileTraits, 5> kTraits = {{
    {"1g.5gb", "1g", 1, 5.0, 1, 1, 7},
    {"2g.10gb", "2g", 2, 10.0, 2, 2, 3},
    {"3g.20gb", "3g", 3, 20.0, 4, 4, 2},
    {"4g.20gb", "4g", 4, 20.0, 4, 4, 1},
    {"7g.40gb", "7g", 7, 40.0, 8, 8, 1},
}};

constexpr int kTotalMemorySlots = 8;

}  // namespace

const ProfileTraits& traits(SliceProfile profile) noexcept {
  return kTraits[static_cast<std::size_t>(profile)];
}

double compute_fraction(SliceProfile profile) noexcept {
  return static_cast<double>(traits(profile).compute_units) / 7.0;
}

double cache_fraction(SliceProfile profile) noexcept {
  return static_cast<double>(traits(profile).cache_eighths) / 8.0;
}

MemGb memory_gb(SliceProfile profile) noexcept {
  return traits(profile).memory_gb;
}

const char* short_name(SliceProfile profile) noexcept {
  return traits(profile).short_name;
}

SliceProfile parse_profile(const std::string& text) {
  for (SliceProfile p : kAllProfiles) {
    if (text == traits(p).short_name || text == traits(p).name) return p;
  }
  throw std::invalid_argument("unknown MIG profile: " + text);
}

Geometry::Geometry(std::initializer_list<SliceProfile> profiles)
    : slices_(profiles) {
  canonicalize();
}

Geometry::Geometry(std::vector<SliceProfile> profiles)
    : slices_(std::move(profiles)) {
  canonicalize();
}

void Geometry::canonicalize() {
  // Descending by compute units: the largest slice is slices_[0].
  std::sort(slices_.begin(), slices_.end(),
            [](SliceProfile a, SliceProfile b) {
              return traits(a).compute_units > traits(b).compute_units;
            });
}

bool Geometry::valid() const noexcept {
  if (slices_.empty()) return false;
  int slots = 0;
  int units = 0;
  std::array<int, 5> counts{};
  for (SliceProfile p : slices_) {
    const auto& t = traits(p);
    slots += t.memory_slots;
    units += t.compute_units;
    if (++counts[static_cast<std::size_t>(p)] > t.max_count) return false;
  }
  if (slots > kTotalMemorySlots) return false;
  // The A100 exposes 7 compute slices; no geometry can exceed them even if
  // it fits the 8 memory slots (e.g. 2g+2g+2g+1g+1g).
  if (units > 7) return false;
  // 7g cannot coexist with anything else (it is the whole GPU).
  if (counts[static_cast<std::size_t>(SliceProfile::k7g)] > 0 &&
      slices_.size() > 1) {
    return false;
  }
  // NVIDIA placement restriction: 4g occupies the "left half"; it can pair
  // with profiles that fit in the remaining 4 slots, which the slot model
  // already captures. One extra rule from the placement tree: at most one of
  // {4g} and two of {3g}, captured by max_count above.
  return true;
}

int Geometry::total_memory_slots() const noexcept {
  int slots = 0;
  for (SliceProfile p : slices_) slots += traits(p).memory_slots;
  return slots;
}

MemGb Geometry::total_memory_gb() const noexcept {
  MemGb gb = 0.0;
  for (SliceProfile p : slices_) gb += traits(p).memory_gb;
  return gb;
}

int Geometry::total_compute_units() const noexcept {
  int units = 0;
  for (SliceProfile p : slices_) units += traits(p).compute_units;
  return units;
}

std::string Geometry::to_string() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    if (i > 0) os << ',';
    os << short_name(slices_[i]);
  }
  os << ')';
  return os.str();
}

const std::vector<Geometry>& Geometry::all_valid() {
  static const std::vector<Geometry> geometries = [] {
    std::vector<Geometry> out;
    // Enumerate counts (n1, n2, n3, n4, n7) within the per-profile maxima
    // and keep the ones that pass the slot model. Skip the empty geometry.
    for (int n7 = 0; n7 <= 1; ++n7) {
      for (int n4 = 0; n4 <= 1; ++n4) {
        for (int n3 = 0; n3 <= 2; ++n3) {
          for (int n2 = 0; n2 <= 3; ++n2) {
            for (int n1 = 0; n1 <= 7; ++n1) {
              std::vector<SliceProfile> s;
              s.insert(s.end(), static_cast<std::size_t>(n7), SliceProfile::k7g);
              s.insert(s.end(), static_cast<std::size_t>(n4), SliceProfile::k4g);
              s.insert(s.end(), static_cast<std::size_t>(n3), SliceProfile::k3g);
              s.insert(s.end(), static_cast<std::size_t>(n2), SliceProfile::k2g);
              s.insert(s.end(), static_cast<std::size_t>(n1), SliceProfile::k1g);
              if (s.empty()) continue;
              Geometry g(std::move(s));
              if (g.valid()) out.push_back(std::move(g));
            }
          }
        }
      }
    }
    return out;
  }();
  return geometries;
}

const Geometry& Geometry::full() {
  static const Geometry g{SliceProfile::k7g};
  return g;
}
const Geometry& Geometry::g4_3() {
  static const Geometry g{SliceProfile::k4g, SliceProfile::k3g};
  return g;
}
const Geometry& Geometry::g4_2_1() {
  static const Geometry g{SliceProfile::k4g, SliceProfile::k2g,
                          SliceProfile::k1g};
  return g;
}
const Geometry& Geometry::g3_3() {
  static const Geometry g{SliceProfile::k3g, SliceProfile::k3g};
  return g;
}

}  // namespace protean::gpu
