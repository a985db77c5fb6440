// Tests for the model catalog and its calibration anchors.
#include "workload/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace protean::workload {
namespace {

const ModelCatalog& catalog() { return ModelCatalog::instance(); }

TEST(Catalog, HasTwentyTwoModels) { EXPECT_EQ(catalog().size(), 22u); }

TEST(Catalog, DomainSplitMatchesPaper) {
  EXPECT_EQ(catalog().by_domain(Domain::kVision).size(), 12u);
  EXPECT_EQ(catalog().by_domain(Domain::kLanguage).size(), 8u);
  EXPECT_EQ(catalog().by_domain(Domain::kGenerative).size(), 2u);
}

TEST(Catalog, LookupByNameAndFind) {
  EXPECT_EQ(catalog().by_name("ResNet 50").name, "ResNet 50");
  EXPECT_NE(catalog().find("GPT-2"), nullptr);
  EXPECT_EQ(catalog().find("GPT-5"), nullptr);
  EXPECT_THROW(catalog().by_name("GPT-5"), std::invalid_argument);
}

TEST(Catalog, VisionModelsUseBatch128AndLanguageBatch4) {
  for (const auto& m : catalog().all()) {
    if (m.domain == Domain::kVision) {
      EXPECT_EQ(m.batch_size, 128) << m.name;
    } else {
      EXPECT_EQ(m.batch_size, 4) << m.name;
    }
  }
}

TEST(Catalog, VisionSoloTimesInPaperWindow) {
  for (const auto* m : catalog().by_domain(Domain::kVision)) {
    EXPECT_GE(m->solo_time_7g, 0.050) << m->name;
    EXPECT_LE(m->solo_time_7g, 0.210) << m->name;
  }
}

TEST(Catalog, MemoryFootprintsSpanPaperRange) {
  double lo = 1e9, hi = 0.0;
  for (const auto& m : catalog().all()) {
    lo = std::min(lo, m.mem_gb);
    hi = std::max(hi, m.mem_gb);
  }
  EXPECT_LE(lo, 2.5);
  EXPECT_GE(hi, 13.0);
  EXPECT_LE(hi, 40.0);
}

TEST(Calibration, AlbertRdfAnchor) {
  // Section 2.2: ALBERT's batch execution slows 2.15x on a 3g slice.
  const auto& albert = catalog().by_name("ALBERT");
  EXPECT_NEAR(albert.rdf(gpu::SliceProfile::k3g), 2.15, 0.02);
}

TEST(Calibration, ShuffleNetBarelySuffersDeficiency) {
  const auto& shuffle = catalog().by_name("ShuffleNet V2");
  EXPECT_LT(shuffle.rdf(gpu::SliceProfile::k3g), 1.05);
}

TEST(Calibration, VhiFbrsHigherThanVisionByRoughly59Pct) {
  double vision = 0.0, vhi = 0.0;
  int nv = 0, nl = 0;
  for (const auto& m : catalog().all()) {
    if (m.domain == Domain::kVision) {
      vision += m.fbr;
      ++nv;
    } else if (m.domain == Domain::kLanguage) {
      vhi += m.fbr;
      ++nl;
    }
  }
  vision /= nv;
  vhi /= nl;
  EXPECT_NEAR(vhi / vision, 1.59, 0.25);
}

TEST(Calibration, GptFbrsHighestInCatalog) {
  const double gpt1 = catalog().by_name("GPT-1").fbr;
  const double gpt2 = catalog().by_name("GPT-2").fbr;
  for (const auto& m : catalog().all()) {
    if (m.domain == Domain::kGenerative) continue;
    EXPECT_LT(m.fbr, gpt1) << m.name;
    EXPECT_LT(m.fbr, gpt2) << m.name;
  }
}

TEST(Calibration, VisionClassesSeparateOnFbrAlphaAndSmReq) {
  // Every HI vision model is more bandwidth bound, slows more on a smaller
  // slice and asks for more SMs than any LI vision model.
  double li_fbr = 0.0, li_alpha = 0.0, li_sm = 0.0;
  double hi_fbr = 1e9, hi_alpha = 1e9, hi_sm = 1e9;
  int li = 0, hi = 0;
  for (const auto* m : catalog().by_domain(Domain::kVision)) {
    if (m->iclass == InterferenceClass::kLI) {
      ++li;
      li_fbr = std::max(li_fbr, m->fbr);
      li_alpha = std::max(li_alpha, m->deficiency_alpha);
      li_sm = std::max(li_sm, m->sm_req);
    } else {
      ++hi;
      EXPECT_EQ(m->iclass, InterferenceClass::kHI) << m->name;
      hi_fbr = std::min(hi_fbr, m->fbr);
      hi_alpha = std::min(hi_alpha, m->deficiency_alpha);
      hi_sm = std::min(hi_sm, m->sm_req);
    }
  }
  EXPECT_EQ(li, 8);
  EXPECT_EQ(hi, 4);
  EXPECT_LT(li_fbr, hi_fbr);
  EXPECT_LT(li_alpha, hi_alpha);
  EXPECT_LT(li_sm, hi_sm);
}

TEST(Model, RdfIsOneOnFullGpuAndMonotone) {
  for (const auto& m : catalog().all()) {
    EXPECT_DOUBLE_EQ(m.rdf(gpu::SliceProfile::k7g), 1.0) << m.name;
    EXPECT_LE(m.rdf(gpu::SliceProfile::k7g), m.rdf(gpu::SliceProfile::k4g));
    EXPECT_LE(m.rdf(gpu::SliceProfile::k4g), m.rdf(gpu::SliceProfile::k3g));
    EXPECT_LE(m.rdf(gpu::SliceProfile::k3g), m.rdf(gpu::SliceProfile::k2g));
    EXPECT_LE(m.rdf(gpu::SliceProfile::k2g), m.rdf(gpu::SliceProfile::k1g));
  }
}

TEST(Model, SoloTimeOnAppliesRdf) {
  const auto& m = catalog().by_name("ResNet 50");
  EXPECT_NEAR(m.solo_time_on(gpu::SliceProfile::k4g),
              m.solo_time_7g * m.rdf(gpu::SliceProfile::k4g), 1e-12);
}

TEST(Model, FitsChecksSliceMemory) {
  const auto& dpn = catalog().by_name("DPN 92");  // 14 GB
  EXPECT_TRUE(dpn.fits(gpu::SliceProfile::k7g));
  EXPECT_TRUE(dpn.fits(gpu::SliceProfile::k4g));
  EXPECT_TRUE(dpn.fits(gpu::SliceProfile::k3g));
  EXPECT_FALSE(dpn.fits(gpu::SliceProfile::k2g));
  EXPECT_FALSE(dpn.fits(gpu::SliceProfile::k1g));
}

TEST(Model, SmShareSaturatesOnSmallSlices) {
  const auto& m = catalog().by_name("VGG 19");  // sm_req 1.0
  EXPECT_DOUBLE_EQ(m.sm_share_on(gpu::SliceProfile::k7g), 1.0);
  EXPECT_DOUBLE_EQ(m.sm_share_on(gpu::SliceProfile::k1g), 1.0);
  const auto& albert = catalog().by_name("ALBERT");  // sm_req 0.35
  EXPECT_NEAR(albert.sm_share_on(gpu::SliceProfile::k7g), 0.35, 1e-12);
  EXPECT_DOUBLE_EQ(albert.sm_share_on(gpu::SliceProfile::k1g), 1.0);
}

TEST(Model, SloDeadlineUsesMultiplier) {
  const auto& m = catalog().by_name("ResNet 50");
  EXPECT_NEAR(m.slo_deadline(), 3.0 * m.solo_time_7g, 1e-12);
  EXPECT_NEAR(m.slo_deadline(2.0), 2.0 * m.solo_time_7g, 1e-12);
}

TEST(Model, TabulateRdfFollowsAChangedAlpha) {
  ModelProfile m = catalog().by_name("ResNet 50");
  m.deficiency_alpha = 0.5;
  m.tabulate_rdf();
  for (gpu::SliceProfile p : gpu::kAllProfiles) {
    const double rdf = std::pow(1.0 / gpu::compute_fraction(p), 0.5);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.rdf(p)),
              std::bit_cast<std::uint64_t>(rdf))
        << gpu::short_name(p);
  }
  m.deficiency_alpha = 0.0;
  m.tabulate_rdf();
  for (gpu::SliceProfile p : gpu::kAllProfiles) {
    EXPECT_EQ(m.rdf(p), 1.0) << gpu::short_name(p);
  }
}

TEST(Catalog, OppositeClassPoolForHiIsVisionLi) {
  const auto pool =
      catalog().opposite_class_pool(catalog().by_name("ResNet 50"));
  EXPECT_FALSE(pool.empty());
  for (const auto* m : pool) {
    EXPECT_EQ(m->iclass, InterferenceClass::kLI) << m->name;
    EXPECT_EQ(m->domain, Domain::kVision) << m->name;
  }
}

TEST(Catalog, OppositeClassPoolForLiIsVisionHi) {
  const auto pool =
      catalog().opposite_class_pool(catalog().by_name("MobileNet"));
  EXPECT_FALSE(pool.empty());
  for (const auto* m : pool) {
    EXPECT_EQ(m->iclass, InterferenceClass::kHI) << m->name;
  }
}

TEST(Catalog, OppositeClassPoolForVhiIsOtherLanguageModels) {
  const auto& gpt = catalog().by_name("GPT-1");
  const auto pool = catalog().opposite_class_pool(gpt);
  EXPECT_FALSE(pool.empty());
  for (const auto* m : pool) {
    EXPECT_EQ(m->domain, Domain::kLanguage) << m->name;
    EXPECT_NE(m->name, gpt.name);
  }
}

// Property sweep: physical sanity of every catalog entry.
class EveryModelTest : public ::testing::TestWithParam<ModelProfile> {};

TEST_P(EveryModelTest, ParametersArePhysical) {
  const ModelProfile& m = GetParam();
  EXPECT_GT(m.solo_time_7g, 0.0);
  EXPECT_GT(m.mem_gb, 0.0);
  EXPECT_LE(m.mem_gb, 40.0);
  EXPECT_GT(m.fbr, 0.0);
  EXPECT_LE(m.fbr, 1.5);
  EXPECT_GT(m.sm_req, 0.0);
  EXPECT_LE(m.sm_req, 1.0);
  EXPECT_GE(m.deficiency_alpha, 0.0);
  EXPECT_LE(m.deficiency_alpha, 1.0);
}

TEST_P(EveryModelTest, FitsTheFullGpu) {
  EXPECT_TRUE(GetParam().fits(gpu::SliceProfile::k7g));
}

TEST_P(EveryModelTest, VhiIffLanguageOrGenerative) {
  const ModelProfile& m = GetParam();
  const bool is_llm = m.domain != Domain::kVision;
  EXPECT_EQ(m.iclass == InterferenceClass::kVHI, is_llm) << m.name;
}

// The table holds exactly the Eq. 2 expression it replaced, so every
// report that reads an RDF or a per-slice solo time is unchanged.
TEST_P(EveryModelTest, RdfTableIsThePowExpressionBitForBit) {
  const ModelProfile& m = GetParam();
  for (gpu::SliceProfile p : gpu::kAllProfiles) {
    const double rdf =
        std::pow(1.0 / gpu::compute_fraction(p), m.deficiency_alpha);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.rdf(p)),
              std::bit_cast<std::uint64_t>(rdf))
        << gpu::short_name(p);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.solo_time_on(p)),
              std::bit_cast<std::uint64_t>(m.solo_time_7g * rdf))
        << gpu::short_name(p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryModelTest,
    ::testing::ValuesIn(ModelCatalog::instance().all()),
    [](const ::testing::TestParamInfo<ModelProfile>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace protean::workload
