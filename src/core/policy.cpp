#include "core/policy.hpp"

#include "core/policies.hpp"
#include "util/require.hpp"

namespace baat::core {

std::string_view policy_kind_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::EBuff: return "e-Buff";
    case PolicyKind::BaatS: return "BAAT-s";
    case PolicyKind::BaatH: return "BAAT-h";
    case PolicyKind::Baat: return "BAAT";
    case PolicyKind::BaatPlanned: return "BAAT-planned";
    case PolicyKind::BaatPredictive: return "BAAT-p";
  }
  return "?";
}

std::unique_ptr<AgingPolicy> make_policy(PolicyKind kind, const PolicyParams& params) {
  switch (kind) {
    case PolicyKind::EBuff: return std::make_unique<EBuffPolicy>(params);
    case PolicyKind::BaatS: return std::make_unique<BaatSPolicy>(params);
    case PolicyKind::BaatH: return std::make_unique<BaatHPolicy>(params);
    case PolicyKind::Baat: return std::make_unique<BaatPolicy>(params, false);
    case PolicyKind::BaatPlanned:
      BAAT_REQUIRE(params.planned.cycles_plan > 0.0,
                   "BAAT-planned requires planned.cycles_plan > 0");
      return std::make_unique<BaatPolicy>(params, true);
    case PolicyKind::BaatPredictive:
      return std::make_unique<BaatPredictivePolicy>(params);
  }
  throw util::PreconditionError("unknown policy kind");
}

std::optional<std::size_t> place_least_loaded(const PolicyContext& ctx, double cores,
                                              double mem_gb) {
  std::optional<std::size_t> best;
  double best_free = -1.0;
  for (const NodeView& n : ctx.nodes) {
    if (!n.powered_on || n.cores_free < cores || n.mem_free_gb < mem_gb) continue;
    if (n.cores_free > best_free) {
      best_free = n.cores_free;
      best = n.index;
    }
  }
  return best;
}

}  // namespace baat::core
