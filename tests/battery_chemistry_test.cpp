#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "battery/chemistry.hpp"
#include "util/require.hpp"

namespace baat::battery {
namespace {

using util::amperes;
using util::PreconditionError;

constexpr OcvCurve kAllCurves[] = {OcvCurve::LeadAcidQuadratic, OcvCurve::NmcCubic,
                                   OcvCurve::LfpPlateau, OcvCurve::Linear};

TEST(Chemistry, OcvEndpoints) {
  const LeadAcidParams p;
  EXPECT_NEAR(open_circuit_voltage(p, 0.0).value(), p.ocv_cell_empty.value() * p.cells, 1e-9);
  EXPECT_NEAR(open_circuit_voltage(p, 1.0).value(), p.ocv_cell_full.value() * p.cells, 1e-9);
}

TEST(Chemistry, OcvStrictlyIncreasing) {
  const LeadAcidParams p;
  double prev = open_circuit_voltage(p, 0.0).value();
  for (int i = 1; i <= 100; ++i) {
    const double v = open_circuit_voltage(p, i / 100.0).value();
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Chemistry, OcvRejectsOutOfRangeSoc) {
  const LeadAcidParams p;
  EXPECT_THROW(open_circuit_voltage(p, -0.1), PreconditionError);
  EXPECT_THROW(open_circuit_voltage(p, 1.1), PreconditionError);
}

// Property sweep: soc_from_voltage must invert open_circuit_voltage across
// the whole SoC range.
class OcvRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(OcvRoundTrip, InverseOfOcv) {
  const LeadAcidParams p;
  const double soc = GetParam();
  const auto v = open_circuit_voltage(p, soc);
  EXPECT_NEAR(soc_from_voltage(p, v), soc, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SocSweep, OcvRoundTrip,
                         ::testing::Values(0.0, 0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95, 1.0));

TEST(Chemistry, SocFromVoltageClamps) {
  const LeadAcidParams p;
  EXPECT_DOUBLE_EQ(soc_from_voltage(p, util::volts(9.0)), 0.0);
  EXPECT_DOUBLE_EQ(soc_from_voltage(p, util::volts(15.0)), 1.0);
}

TEST(Chemistry, PeukertAtOrBelowRatedIsNameplate) {
  const LeadAcidParams p;
  EXPECT_DOUBLE_EQ(effective_capacity(p, amperes(0.0)).value(), p.capacity_c20.value());
  EXPECT_DOUBLE_EQ(effective_capacity(p, p.rated_current()).value(), p.capacity_c20.value());
}

TEST(Chemistry, PeukertShrinksWithCurrent) {
  const LeadAcidParams p;
  const double c5 = effective_capacity(p, amperes(5.0)).value();
  const double c15 = effective_capacity(p, amperes(15.0)).value();
  const double c35 = effective_capacity(p, amperes(35.0)).value();
  EXPECT_LT(c5, p.capacity_c20.value());
  EXPECT_LT(c15, c5);
  EXPECT_LT(c35, c15);
  // 1C discharge of a 20h-rated battery loses tens of percent, not everything.
  EXPECT_GT(c35, 0.5 * p.capacity_c20.value());
}

TEST(Chemistry, PeukertRejectsNegativeCurrent) {
  const LeadAcidParams p;
  EXPECT_THROW(effective_capacity(p, amperes(-1.0)), PreconditionError);
}

TEST(Chemistry, ChargeAcceptanceFullBelowKneeTapersAbove) {
  const LeadAcidParams p;
  EXPECT_DOUBLE_EQ(charge_acceptance(p, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(charge_acceptance(p, p.taper_knee_soc), 1.0);
  const double mid = charge_acceptance(p, 0.9);
  EXPECT_LT(mid, 1.0);
  EXPECT_GT(mid, charge_acceptance(p, 0.99));
  // Residual trickle keeps full charge reachable.
  EXPECT_GT(charge_acceptance(p, 1.0), 0.0);
}

TEST(Chemistry, CoulombicEfficiencyDropsNearFull) {
  const LeadAcidParams p;
  EXPECT_DOUBLE_EQ(coulombic_efficiency(p, 0.5), p.coulombic_efficiency_bulk);
  EXPECT_NEAR(coulombic_efficiency(p, 1.0), p.coulombic_efficiency_full, 1e-12);
  EXPECT_GT(coulombic_efficiency(p, 0.85), coulombic_efficiency(p, 0.95));
}

// --- chemistry edge-case sweep ---------------------------------------------
// A non-finite sensor voltage must come out of the estimator as NaN, not a
// confident 0 or 1 — the old clamp laundered poisoned readings into a
// plausible SoC and hid them from the run-health watchdog.

TEST(Chemistry, SocFromVoltageNonFinitePropagatesAsNan) {
  const LeadAcidParams p;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (OcvCurve curve : kAllCurves) {
    EXPECT_TRUE(std::isnan(soc_from_voltage(p, util::Volts{nan}, curve)));
    EXPECT_TRUE(std::isnan(soc_from_voltage(p, util::Volts{inf}, curve)));
    EXPECT_TRUE(std::isnan(soc_from_voltage(p, util::Volts{-inf}, curve)));
  }
  // The historical 2-arg overload keeps the same contract.
  EXPECT_TRUE(std::isnan(soc_from_voltage(p, util::Volts{nan})));
}

TEST(Chemistry, SocFromVoltageFiniteFuzzStaysInUnitRange) {
  // Deterministic LCG fuzz: every *finite* voltage — however absurd — must
  // map into [0,1] for every OCV curve; NaN is reserved for non-finite input.
  const LeadAcidParams p;
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(s >> 11) / 9007199254740992.0;
    const double v = -50.0 + 200.0 * u;  // way past any physical block voltage
    for (OcvCurve curve : kAllCurves) {
      const double soc = soc_from_voltage(p, util::Volts{v}, curve);
      ASSERT_FALSE(std::isnan(soc)) << "curve " << static_cast<int>(curve) << " v=" << v;
      ASSERT_GE(soc, 0.0);
      ASSERT_LE(soc, 1.0);
    }
  }
}

// soc_from_voltage must invert open_circuit_voltage for every curve shape,
// including the LFP plateau whose flat middle is the estimator stress case.
class OcvRoundTripAllCurves
    : public ::testing::TestWithParam<std::tuple<OcvCurve, double>> {};

TEST_P(OcvRoundTripAllCurves, InverseOfOcv) {
  const LeadAcidParams p;
  const auto [curve, soc] = GetParam();
  const auto v = open_circuit_voltage(p, soc, curve);
  EXPECT_NEAR(soc_from_voltage(p, v, curve), soc, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    CurveBySoc, OcvRoundTripAllCurves,
    ::testing::Combine(::testing::ValuesIn(kAllCurves),
                       ::testing::Values(0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0)));

// --- span form ----------------------------------------------------------------
// The batched inversion reorders only independent readings (the NmcCubic
// Newton solve runs iteration-major over blocks), so every element must be
// the scalar soc_from_voltage bit for bit: for each curve, at every lane
// position of a block, for partial tail blocks and for pinned inputs.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Readings with pinned inputs (poison, at/below empty, at/above full)
/// scattered over lane positions among random in-range voltages.
std::vector<double> span_inputs(const LeadAcidParams& p, std::size_t n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double v_empty = p.ocv_cell_empty.value() * p.cells;
  const double v_full = p.ocv_cell_full.value() * p.cells;
  const double pinned[] = {nan, inf, -inf, v_empty, v_empty - 0.5, -3.0,
                           v_full, v_full + 0.5, 1e300};
  std::uint64_t state = 0x2545f4914f6cdd1dull + n;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    v[i] = i % 4 == 1 ? pinned[(i / 4 + n) % std::size(pinned)]
                      : v_empty + (v_full - v_empty) * u;
  }
  return v;
}

TEST(Chemistry, SocFromVoltageSpanMatchesScalarBitwise) {
  const LeadAcidParams p;
  const std::size_t sizes[] = {0, 1, kSocBatchBlock - 1, kSocBatchBlock, kSocBatchBlock + 1, 48};
  for (std::size_t n : sizes) {
    const std::vector<double> ocv = span_inputs(p, n);
    for (OcvCurve curve : kAllCurves) {
      std::vector<double> out(n, -7.0);
      soc_from_voltage(p, ocv, curve, out);
      std::vector<double> in_place = ocv;
      soc_from_voltage(p, in_place, curve, in_place);
      for (std::size_t i = 0; i < n; ++i) {
        const double scalar = soc_from_voltage(p, util::Volts{ocv[i]}, curve);
        EXPECT_EQ(bits(out[i]), bits(scalar))
            << "curve " << static_cast<int>(curve) << " n=" << n << " i=" << i
            << " v=" << ocv[i];
        EXPECT_EQ(bits(in_place[i]), bits(scalar)) << "in place, n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Chemistry, SocFromVoltageSpanRejectsLengthMismatch) {
  const LeadAcidParams p;
  const std::vector<double> ocv(3, 12.5);
  std::vector<double> out(2);
  EXPECT_THROW(soc_from_voltage(p, ocv, OcvCurve::NmcCubic, out), PreconditionError);
}

// --- Peukert edge cases -----------------------------------------------------
// Regression for the I -> 0 boundary: pow(i20/i, k-1) diverges as i -> 0, so
// the implementation must never evaluate it below the rated current — any
// capacity above nameplate from a vanishing current is Peukert *inflation*.

TEST(Chemistry, PeukertExactTwentyHourRateRegression) {
  const LeadAcidParams p;
  // Exactly the 20 h rate, and the neighbouring representable doubles: all
  // must return the nameplate (below/at) or at most the nameplate (above).
  const double i20 = p.capacity_c20.value() / 20.0;
  EXPECT_DOUBLE_EQ(effective_capacity(p, amperes(i20)).value(), p.capacity_c20.value());
  EXPECT_DOUBLE_EQ(effective_capacity(p, amperes(std::nextafter(i20, 0.0))).value(),
                   p.capacity_c20.value());
  const double above = effective_capacity(p, amperes(std::nextafter(i20, 1e9))).value();
  EXPECT_LE(above, p.capacity_c20.value());
  EXPECT_GT(above, 0.999 * p.capacity_c20.value());
}

TEST(Chemistry, PeukertVanishingCurrentNeverDividesOrInflates) {
  const LeadAcidParams p;
  for (double i : {0.0, std::numeric_limits<double>::denorm_min(), 1e-300, 1e-12, 1e-3}) {
    const double cap = effective_capacity(p, amperes(i)).value();
    EXPECT_TRUE(std::isfinite(cap)) << "i=" << i;
    EXPECT_DOUBLE_EQ(cap, p.capacity_c20.value()) << "i=" << i;
  }
}

TEST(Chemistry, PeukertNanCurrentPropagates) {
  const LeadAcidParams p;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(effective_capacity(p, amperes(nan)).value()));
}

// --- chemistry registry -----------------------------------------------------

TEST(Chemistry, NameParseRoundTrip) {
  for (Chemistry c : {Chemistry::LeadAcid, Chemistry::LiNmc, Chemistry::LiLfp,
                      Chemistry::Bucket}) {
    Chemistry parsed = Chemistry::LeadAcid;
    EXPECT_TRUE(parse_chemistry(chemistry_name(c), parsed));
    EXPECT_EQ(parsed, c);
  }
  Chemistry out = Chemistry::LeadAcid;
  EXPECT_FALSE(parse_chemistry("nicad", out));
  EXPECT_FALSE(parse_chemistry("", out));
}

TEST(Chemistry, DerivedVoltages) {
  const LeadAcidParams p;
  EXPECT_DOUBLE_EQ(p.cutoff_voltage().value(), 10.5);
  EXPECT_DOUBLE_EQ(p.gassing_voltage().value(), 14.1);
  EXPECT_NEAR(p.absorb_voltage().value(), 14.4, 1e-9);
  EXPECT_DOUBLE_EQ(p.nominal_voltage().value(), 12.0);
  EXPECT_DOUBLE_EQ(p.rated_current().value(), 1.75);
}

}  // namespace
}  // namespace baat::battery
