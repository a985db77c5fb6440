// Tests for the custom model builder.
#include "workload/builder.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

namespace protean::workload {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every RDF entry and per-slice solo time is the Eq. 2 expression at
/// `alpha`, bit for bit.
void expect_rdf_table(const ModelProfile& m, double alpha) {
  EXPECT_EQ(bits(m.deficiency_alpha), bits(alpha));
  for (gpu::SliceProfile p : gpu::kAllProfiles) {
    const double rdf = std::pow(1.0 / gpu::compute_fraction(p), alpha);
    EXPECT_EQ(bits(m.rdf(p)), bits(rdf)) << gpu::short_name(p);
    EXPECT_EQ(bits(m.solo_time_on(p)), bits(m.solo_time_7g * rdf))
        << gpu::short_name(p);
  }
}

ModelBuilder minimal() {
  return std::move(ModelBuilder("custom-model")
                       .solo_latency_ms(100.0)
                       .memory_gb(4.0)
                       .fbr(0.6));
}

TEST(ModelBuilder, MinimalDescriptionBuilds) {
  const ModelProfile m = minimal().build();
  EXPECT_EQ(m.name, "custom-model");
  EXPECT_EQ(m.batch_size, 128);
  EXPECT_NEAR(m.solo_time_7g, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(m.mem_gb, 4.0);
  EXPECT_DOUBLE_EQ(m.fbr, 0.6);
}

TEST(ModelBuilder, DerivesInterferenceClassFromFbr) {
  EXPECT_EQ(ModelBuilder::classify_fbr(0.3), InterferenceClass::kLI);
  EXPECT_EQ(ModelBuilder::classify_fbr(0.8), InterferenceClass::kHI);
  EXPECT_EQ(ModelBuilder::classify_fbr(1.2), InterferenceClass::kVHI);
  EXPECT_EQ(minimal().build().iclass, InterferenceClass::kHI);
}

TEST(ModelBuilder, DerivesAlphaFromClass) {
  const auto li = ModelBuilder("li").solo_latency_ms(50).memory_gb(2).fbr(0.3).build();
  const auto hi = ModelBuilder("hi").solo_latency_ms(50).memory_gb(2).fbr(0.9).build();
  EXPECT_LT(li.deficiency_alpha, hi.deficiency_alpha);
}

TEST(ModelBuilder, DerivesSmRequirementFromFbr) {
  const auto light = ModelBuilder("l").solo_latency_ms(50).memory_gb(2).fbr(0.2).build();
  const auto heavy = ModelBuilder("h").solo_latency_ms(50).memory_gb(2).fbr(1.2).build();
  EXPECT_LT(light.sm_req, heavy.sm_req);
  EXPECT_LE(heavy.sm_req, 1.0);
}

TEST(ModelBuilder, ExplicitOverridesWin) {
  const auto m = ModelBuilder("x")
                     .solo_latency_ms(50)
                     .memory_gb(2)
                     .fbr(0.3)
                     .interference_class(InterferenceClass::kVHI)
                     .deficiency_alpha(0.9)
                     .sm_requirement(0.25)
                     .batch_size(4)
                     .domain(Domain::kLanguage)
                     .build();
  EXPECT_EQ(m.iclass, InterferenceClass::kVHI);
  EXPECT_DOUBLE_EQ(m.deficiency_alpha, 0.9);
  EXPECT_DOUBLE_EQ(m.sm_req, 0.25);
  EXPECT_EQ(m.batch_size, 4);
  EXPECT_EQ(m.domain, Domain::kLanguage);
}

TEST(ModelBuilder, BuiltProfileWorksWithSliceMath) {
  const auto m = minimal().build();
  EXPECT_DOUBLE_EQ(m.rdf(gpu::SliceProfile::k7g), 1.0);
  EXPECT_GT(m.rdf(gpu::SliceProfile::k1g), 1.0);
  EXPECT_TRUE(m.fits(gpu::SliceProfile::k1g));
  EXPECT_NEAR(m.slo_deadline(), 0.3, 1e-12);
}

TEST(ModelBuilder, ExplicitAlphaFillsTheRdfTable) {
  // An LI-class FBR would default to 0.15; the explicit value wins.
  const auto m = ModelBuilder("a")
                     .solo_latency_ms(70)
                     .memory_gb(3)
                     .fbr(0.3)
                     .deficiency_alpha(0.9)
                     .build();
  expect_rdf_table(m, 0.9);
  EXPECT_GT(m.rdf(gpu::SliceProfile::k1g), 5.0);
}

TEST(ModelBuilder, ExplicitClassPicksItsDefaultAlpha) {
  const auto m = ModelBuilder("c")
                     .solo_latency_ms(70)
                     .memory_gb(3)
                     .fbr(0.3)
                     .interference_class(InterferenceClass::kVHI)
                     .build();
  expect_rdf_table(m, 0.60);
}

TEST(ModelBuilder, TabulateRdfFollowsAChangedAlpha) {
  ModelProfile m = minimal().build();
  m.deficiency_alpha = 0.5;
  m.tabulate_rdf();
  expect_rdf_table(m, 0.5);
  m.deficiency_alpha = 0.0;
  m.tabulate_rdf();
  for (gpu::SliceProfile p : gpu::kAllProfiles) {
    EXPECT_EQ(m.rdf(p), 1.0) << gpu::short_name(p);
  }
}

struct ClassDefault {
  double fbr;
  InterferenceClass iclass;
  double alpha;
};

class ModelBuilderClassDefault
    : public ::testing::TestWithParam<ClassDefault> {};

TEST_P(ModelBuilderClassDefault, DefaultAlphaFillsTheRdfTable) {
  const ClassDefault& want = GetParam();
  const auto m =
      ModelBuilder("d").solo_latency_ms(90).memory_gb(4).fbr(want.fbr).build();
  EXPECT_EQ(m.iclass, want.iclass);
  expect_rdf_table(m, want.alpha);
}

INSTANTIATE_TEST_SUITE_P(
    Classes, ModelBuilderClassDefault,
    ::testing::Values(ClassDefault{0.3, InterferenceClass::kLI, 0.15},
                      ClassDefault{0.8, InterferenceClass::kHI, 0.40},
                      ClassDefault{1.2, InterferenceClass::kVHI, 0.60}),
    [](const ::testing::TestParamInfo<ClassDefault>& param) {
      return std::string(to_string(param.param.iclass));
    });

TEST(ModelBuilder, RejectsMissingFields) {
  EXPECT_THROW(ModelBuilder("x").memory_gb(2).fbr(0.5).build(),
               std::invalid_argument);
  EXPECT_THROW(ModelBuilder("x").solo_latency_ms(50).fbr(0.5).build(),
               std::invalid_argument);
  EXPECT_THROW(ModelBuilder("x").solo_latency_ms(50).memory_gb(2).build(),
               std::invalid_argument);
}

TEST(ModelBuilder, RejectsOutOfRangeValues) {
  EXPECT_THROW(ModelBuilder(""), std::invalid_argument);
  EXPECT_THROW(minimal().batch_size(0).build(), std::invalid_argument);
  EXPECT_THROW(minimal().solo_latency_ms(-1).build(), std::invalid_argument);
  EXPECT_THROW(minimal().solo_latency_ms(60000).build(), std::invalid_argument);
  EXPECT_THROW(minimal().memory_gb(50).build(), std::invalid_argument);
  EXPECT_THROW(minimal().fbr(2.0).build(), std::invalid_argument);
  EXPECT_THROW(minimal().sm_requirement(1.5).build(), std::invalid_argument);
  EXPECT_THROW(minimal().deficiency_alpha(2.0).build(), std::invalid_argument);
}

TEST(ModelBuilder, ErrorsNameTheField) {
  try {
    ModelBuilder("x").memory_gb(2).fbr(0.5).build();
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("solo_latency_ms"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace protean::workload
