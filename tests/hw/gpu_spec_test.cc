#include "hw/gpu_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace stemroot::hw {
namespace {

TEST(GpuSpecTest, PresetsValidate) {
  EXPECT_NO_THROW(GpuSpec::Rtx2080().Validate());
  EXPECT_NO_THROW(GpuSpec::H100().Validate());
  EXPECT_NO_THROW(GpuSpec::H200().Validate());
}

TEST(GpuSpecTest, PresetNamesRoundTripThroughFromName) {
  for (const std::string& token : GpuSpec::PresetNames()) {
    const std::optional<GpuSpec> spec = GpuSpec::FromName(token);
    ASSERT_TRUE(spec.has_value()) << token;
    const std::optional<GpuSpec> again = GpuSpec::FromName(spec->name);
    ASSERT_TRUE(again.has_value()) << spec->name;
    EXPECT_EQ(again->name, spec->name);
    EXPECT_NO_THROW(spec->Validate());
  }
  // Every factory preset is reachable by its name.
  for (const GpuSpec& spec :
       {GpuSpec::Rtx2080(), GpuSpec::H100(), GpuSpec::H200()}) {
    const std::optional<GpuSpec> parsed = GpuSpec::FromName(spec.name);
    ASSERT_TRUE(parsed.has_value()) << spec.name;
    EXPECT_EQ(parsed->num_sms, spec.num_sms);
    EXPECT_EQ(parsed->dram_bw_gbps, spec.dram_bw_gbps);
  }
}

TEST(GpuSpecTest, FromNameIsCaseInsensitiveAndRejectsUnknown) {
  ASSERT_TRUE(GpuSpec::FromName("H100").has_value());
  ASSERT_TRUE(GpuSpec::FromName("RTX2080").has_value());
  EXPECT_FALSE(GpuSpec::FromName("h199").has_value());
  EXPECT_FALSE(GpuSpec::FromName("").has_value());
}

TEST(GpuSpecTest, GenerationalOrdering) {
  const GpuSpec rtx = GpuSpec::Rtx2080();
  const GpuSpec h100 = GpuSpec::H100();
  const GpuSpec h200 = GpuSpec::H200();
  EXPECT_GT(h100.num_sms, rtx.num_sms);
  EXPECT_GT(h100.dram_bw_gbps, rtx.dram_bw_gbps);
  // H200 is H100 compute with an upgraded memory system (Fig. 13 premise).
  EXPECT_EQ(h200.num_sms, h100.num_sms);
  EXPECT_GT(h200.dram_bw_gbps, h100.dram_bw_gbps);
}

TEST(GpuSpecTest, ValidationRejectsNonFiniteValues) {
  for (const double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(v);
    for (double GpuSpec::*field :
         {&GpuSpec::clock_ghz, &GpuSpec::issue_width, &GpuSpec::dram_bw_gbps,
          &GpuSpec::dram_latency_ns, &GpuSpec::l2_latency_ns,
          &GpuSpec::fp16_speedup}) {
      GpuSpec spec = GpuSpec::Rtx2080();
      spec.*field = v;
      EXPECT_THROW(spec.Validate(), std::invalid_argument);
    }
    EXPECT_THROW(GpuSpec::Rtx2080().WithCacheScale(v), std::invalid_argument);
    EXPECT_THROW(GpuSpec::Rtx2080().WithSmScale(v), std::invalid_argument);
  }
  // Finite but too large to round into the field.
  EXPECT_THROW(GpuSpec::Rtx2080().WithCacheScale(1e300),
               std::invalid_argument);
  EXPECT_THROW(GpuSpec::Rtx2080().WithSmScale(1e300), std::invalid_argument);
}

TEST(GpuSpecTest, CacheScaleScalesBothLevels) {
  const GpuSpec base = GpuSpec::Rtx2080();
  const GpuSpec doubled = base.WithCacheScale(2.0);
  EXPECT_EQ(doubled.l1_bytes, base.l1_bytes * 2);
  EXPECT_EQ(doubled.l2_bytes, base.l2_bytes * 2);
  EXPECT_EQ(doubled.num_sms, base.num_sms);
  const GpuSpec halved = base.WithCacheScale(0.5);
  EXPECT_EQ(halved.l1_bytes, base.l1_bytes / 2);
}

TEST(GpuSpecTest, SmScaleRoundsAndFloors) {
  const GpuSpec base = GpuSpec::Rtx2080();
  EXPECT_EQ(base.WithSmScale(2.0).num_sms, base.num_sms * 2);
  EXPECT_EQ(base.WithSmScale(0.5).num_sms, base.num_sms / 2);
  EXPECT_GE(base.WithSmScale(0.001).num_sms, 1u);
}

TEST(GpuSpecTest, ScaleValidation) {
  const GpuSpec base = GpuSpec::Rtx2080();
  EXPECT_THROW(base.WithCacheScale(0.0), std::invalid_argument);
  EXPECT_THROW(base.WithSmScale(-1.0), std::invalid_argument);
}

TEST(GpuSpecTest, VariantNamesAreDescriptive) {
  const GpuSpec base = GpuSpec::Rtx2080();
  EXPECT_NE(base.WithCacheScale(2.0).name.find("cache"),
            std::string::npos);
  EXPECT_NE(base.WithSmScale(0.5).name.find("sm"), std::string::npos);
}

TEST(GpuSpecTest, ValidateCatchesCorruption) {
  GpuSpec spec = GpuSpec::Rtx2080();
  spec.num_sms = 0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = GpuSpec::Rtx2080();
  spec.line_bytes = 100;  // not a power of two
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = GpuSpec::Rtx2080();
  spec.fp16_speedup = 0.5;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = GpuSpec::Rtx2080();
  spec.dram_bw_gbps = 0.0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::hw
