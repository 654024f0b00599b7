#include "battery/chemistry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "battery/step_math.hpp"
#include "util/require.hpp"

namespace baat::battery {

// The formulas live in step_math.hpp (shared with the fleet tick kernel);
// these wrappers keep the public unit-typed API.

std::string_view chemistry_name(Chemistry c) {
  switch (c) {
    case Chemistry::LeadAcid: return "lead_acid";
    case Chemistry::LiNmc: return "li_nmc";
    case Chemistry::LiLfp: return "li_lfp";
    case Chemistry::Bucket: return "bucket";
  }
  return "?";
}

bool parse_chemistry(std::string_view name, Chemistry& out) {
  if (name == "lead_acid") {
    out = Chemistry::LeadAcid;
  } else if (name == "li_nmc") {
    out = Chemistry::LiNmc;
  } else if (name == "li_lfp") {
    out = Chemistry::LiLfp;
  } else if (name == "bucket") {
    out = Chemistry::Bucket;
  } else {
    return false;
  }
  return true;
}

OcvCurve ocv_curve_for(Chemistry c) {
  switch (c) {
    case Chemistry::LeadAcid: return OcvCurve::LeadAcidQuadratic;
    case Chemistry::LiNmc: return OcvCurve::NmcCubic;
    case Chemistry::LiLfp: return OcvCurve::LfpPlateau;
    case Chemistry::Bucket: return OcvCurve::Linear;
  }
  return OcvCurve::LeadAcidQuadratic;
}

Volts open_circuit_voltage(const LeadAcidParams& p, double soc) {
  return Volts{detail::block_ocv_v(p, soc)};
}

Volts open_circuit_voltage(const LeadAcidParams& p, double soc, OcvCurve curve) {
  return Volts{detail::block_ocv_chem_v(p, soc, curve)};
}

double soc_from_voltage(const LeadAcidParams& p, Volts ocv) {
  return soc_from_voltage(p, ocv, OcvCurve::LeadAcidQuadratic);
}

namespace {

/// Normalized voltage fraction of a whole-block OCV reading (= the curve's
/// shape value at the reading's SoC).
double ocv_fraction(const LeadAcidParams& p, double ocv) {
  const double cell = ocv / p.cells;
  const double span = (p.ocv_cell_full - p.ocv_cell_empty).value();
  return (cell - p.ocv_cell_empty.value()) / span;
}

/// The readings the curve inverse never sees: a non-finite reading comes out
/// as NaN, not a confident 0 or 1 — the clamp would otherwise launder sensor
/// poison into a plausible estimate and hide it from the run-health watchdog
/// (the same contract the fastmath tiers keep for the physics
/// transcendentals); a finite reading at or past either end pins to it.
bool pinned_soc(double ocv, double s, double& soc) {
  if (!std::isfinite(ocv)) {
    soc = std::numeric_limits<double>::quiet_NaN();
  } else if (s <= 0.0) {
    soc = 0.0;
  } else if (s >= 1.0) {
    soc = 1.0;
  } else {
    return false;
  }
  return true;
}

}  // namespace

double soc_from_voltage(const LeadAcidParams& p, Volts ocv, OcvCurve curve) {
  const double s = ocv_fraction(p, ocv.value());
  double soc = 0.0;
  if (pinned_soc(ocv.value(), s, soc)) return soc;
  return util::clamp01(detail::soc_from_ocv_shape(curve, s));
}

void soc_from_voltage(const LeadAcidParams& p, std::span<const double> ocv, OcvCurve curve,
                      std::span<double> out) {
  BAAT_REQUIRE(out.size() == ocv.size(), "soc_from_voltage: output span length mismatch");
  if (curve != OcvCurve::NmcCubic) {
    for (std::size_t k = 0; k < ocv.size(); ++k) {
      out[k] = soc_from_voltage(p, Volts{ocv[k]}, curve);
    }
    return;
  }
  // Pinned lanes iterate too (on whatever fraction they carry) and their
  // result is discarded: no lane's arithmetic depends on another lane.
  for (std::size_t base = 0; base < ocv.size(); base += kSocBatchBlock) {
    const std::size_t w = std::min(kSocBatchBlock, ocv.size() - base);
    double s[kSocBatchBlock] = {};
    double x[kSocBatchBlock] = {};
    for (std::size_t k = 0; k < w; ++k) {
      s[k] = ocv_fraction(p, ocv[base + k]);
      x[k] = s[k];
    }
    for (int it = 0; it < detail::kNmcNewtonSteps; ++it) {
      for (std::size_t k = 0; k < w; ++k) x[k] = detail::nmc_newton_step(x[k], s[k]);
    }
    for (std::size_t k = 0; k < w; ++k) {
      double soc = 0.0;
      out[base + k] = pinned_soc(ocv[base + k], s[k], soc) ? soc : util::clamp01(x[k]);
    }
  }
}

AmpereHours effective_capacity(const LeadAcidParams& p, Amperes discharge_current) {
  return AmpereHours{detail::effective_capacity_ah(p, discharge_current.value())};
}

double charge_acceptance(const LeadAcidParams& p, double soc) {
  return detail::charge_acceptance_f(p, soc);
}

double coulombic_efficiency(const LeadAcidParams& p, double soc) {
  return detail::coulombic_efficiency_f(p, soc);
}

}  // namespace baat::battery
