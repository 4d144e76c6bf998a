// The vector exp of the kernel table (simd::KernelTable::exp_row_sum): its
// error bound against std::exp, its edge cases, its lane-blocked sum, and
// bitwise parity across every SIMD tier the host can run.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/cpu_features.h"
#include "gtest/gtest.h"
#include "tensor/simd/kernels.h"

namespace darec::tensor::simd {
namespace {

using core::SimdLevel;

uint32_t Bits(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Distance in representable floats between two finite same-sign values.
int64_t UlpDistance(float a, float b) {
  auto ordered = [](float f) {
    const int64_t bits = static_cast<int32_t>(Bits(f));
    return bits < 0 ? std::numeric_limits<int32_t>::min() - bits : bits;
  };
  return std::llabs(ordered(a) - ordered(b));
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (core::HardwareSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (core::HardwareSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

/// 2^22 evenly spaced points over [-87, 88] — the whole normal-result range
/// the distillation logits reach — plus small magnitudes ±m·2^-e down to
/// 2^-40, where the reduction leaves r = x and the polynomial alone decides.
std::vector<float> DenseSweep() {
  std::vector<float> xs;
  constexpr int64_t kPoints = int64_t{1} << 22;
  for (int64_t i = 0; i <= kPoints; ++i) {
    xs.push_back(static_cast<float>(-87.0 + 175.0 * i / kPoints));
  }
  for (int e = 7; e <= 40; ++e) {
    for (int m = 64; m < 128; ++m) {
      const float x = std::ldexp(static_cast<float>(m), -e - 6);
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  return xs;
}

class SimdExpTest : public ::testing::Test {
 protected:
  void TearDown() override {
    core::SetSimdLevelForTest(core::SimdLevelFromEnvOrDie());
  }
};

TEST_F(SimdExpTest, WithinTwoUlpOfStdExpOnEveryTier) {
  const std::vector<float> xs = DenseSweep();
  std::vector<float> ys(xs.size());
  for (SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(core::SimdLevelName(level));
    core::SetSimdLevelForTest(level);
    Kernels().exp_row_sum(xs.data(), 1.0f, 0.0f, ys.data(),
                          static_cast<int64_t>(xs.size()));
    int64_t worst = 0;
    float worst_x = 0.0f;
    for (size_t i = 0; i < xs.size(); ++i) {
      const int64_t d = UlpDistance(ys[i], std::exp(xs[i]));
      if (d > worst) {
        worst = d;
        worst_x = xs[i];
      }
    }
    EXPECT_LE(worst, 2) << "worst at x = " << worst_x;
  }
}

TEST_F(SimdExpTest, ScaleAndShiftApplyBeforeExp) {
  const std::vector<float> xs{-3.0f, -0.5f, 0.0f, 0.25f, 1.0f, 7.0f};
  std::vector<float> ys(xs.size());
  const float scale = 2.0f;  // 1/τ at τ = 0.5
  const float shift = 3.5f;
  Kernels().exp_row_sum(xs.data(), scale, shift, ys.data(),
                        static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(UlpDistance(ys[i], std::exp(xs[i] * scale - shift)), 2)
        << "x = " << xs[i];
  }
}

TEST_F(SimdExpTest, UnderflowAndMaskedInputsGiveExactZero) {
  const float inf = std::numeric_limits<float>::infinity();
  // ln(FLT_MIN) ≈ -87.3365: everything below flushes to +0, never to a
  // subnormal — the masked self-similarity (-inf) included.
  const std::vector<float> xs{-87.34f, -88.0f, -100.0f, -1e4f, -1e30f, -inf};
  std::vector<float> ys(xs.size(), 1.0f);
  for (SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(core::SimdLevelName(level));
    core::SetSimdLevelForTest(level);
    const double sum = Kernels().exp_row_sum(xs.data(), 1.0f, 0.0f, ys.data(),
                                             static_cast<int64_t>(xs.size()));
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(Bits(ys[i]), 0u) << "x = " << xs[i] << " gave " << ys[i];
    }
    EXPECT_EQ(Bits(sum), 0u);
  }
}

TEST_F(SimdExpTest, OverflowGivesInfAndNanPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs{88.8f, 1e4f, inf, nan, 0.0f};
  std::vector<float> ys(xs.size());
  for (SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(core::SimdLevelName(level));
    core::SetSimdLevelForTest(level);
    const double sum = Kernels().exp_row_sum(xs.data(), 1.0f, 0.0f, ys.data(),
                                             static_cast<int64_t>(xs.size()));
    EXPECT_EQ(ys[0], inf);
    EXPECT_EQ(ys[1], inf);
    EXPECT_EQ(ys[2], inf);
    EXPECT_TRUE(std::isnan(ys[3]));
    EXPECT_EQ(ys[4], 1.0f);
    EXPECT_TRUE(std::isnan(sum));
  }
  // Just below the overflow threshold the 2^k scale needs k = 128, one past
  // the largest float exponent; it must still come out finite and accurate.
  const float x = 88.7f;
  float y = 0.0f;
  Kernels().exp_row_sum(&x, 1.0f, 0.0f, &y, 1);
  EXPECT_TRUE(std::isfinite(y));
  EXPECT_LE(UlpDistance(y, std::exp(x)), 2);
}

TEST_F(SimdExpTest, SumIsTheLaneBlockedDoubleSum) {
  // 16-lane blocked accumulation combined in lane order; a ragged tail
  // lands in the low lanes.
  for (int64_t n : {1, 15, 16, 17, 100, 1031}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<float> xs(n), ys(n);
    for (int64_t i = 0; i < n; ++i) xs[i] = std::sin(0.37f * i) * 4.0f;
    const double sum =
        Kernels().exp_row_sum(xs.data(), 1.0f, 0.0f, ys.data(), n);
    double lanes[kExpSumLanes] = {};
    for (int64_t i = 0; i < n; ++i) lanes[i % kExpSumLanes] += ys[i];
    double expected = 0.0;
    for (double lane : lanes) expected += lane;
    EXPECT_EQ(Bits(sum), Bits(expected));
  }
}

TEST_F(SimdExpTest, InPlaceMatchesOutOfPlace) {
  std::vector<float> xs(1000);
  for (size_t i = 0; i < xs.size(); ++i) xs[i] = std::cos(0.11f * i) * 20.0f;
  std::vector<float> ys(xs.size());
  const double out_of_place = Kernels().exp_row_sum(
      xs.data(), 0.5f, 1.0f, ys.data(), static_cast<int64_t>(xs.size()));
  const double in_place = Kernels().exp_row_sum(
      xs.data(), 0.5f, 1.0f, xs.data(), static_cast<int64_t>(xs.size()));
  EXPECT_EQ(Bits(in_place), Bits(out_of_place));
  for (size_t i = 0; i < xs.size(); ++i) ASSERT_EQ(Bits(xs[i]), Bits(ys[i]));
}

TEST_F(SimdExpTest, EveryTierIsBitwiseIdentical) {
  const std::vector<float> xs = DenseSweep();
  const int64_t n = static_cast<int64_t>(xs.size());
  core::SetSimdLevelForTest(SimdLevel::kScalar);
  std::vector<float> reference(xs.size());
  const double reference_sum =
      Kernels().exp_row_sum(xs.data(), 1.0f, 0.0f, reference.data(), n);
  for (SimdLevel level : AvailableLevels()) {
    SCOPED_TRACE(core::SimdLevelName(level));
    core::SetSimdLevelForTest(level);
    std::vector<float> ys(xs.size());
    const double sum =
        Kernels().exp_row_sum(xs.data(), 1.0f, 0.0f, ys.data(), n);
    EXPECT_EQ(Bits(sum), Bits(reference_sum));
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(Bits(ys[i]), Bits(reference[i])) << "x = " << xs[i];
    }
  }
}

}  // namespace
}  // namespace darec::tensor::simd
