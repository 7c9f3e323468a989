#include "smc/mitigation/mitigator.hpp"

#include "smc/mitigation/graphene.hpp"
#include "smc/mitigation/para.hpp"

namespace easydram::smc::mitigation {

std::string_view to_string(MitigationKind kind) {
  switch (kind) {
    case MitigationKind::kNone: return "none";
    case MitigationKind::kPara: return "para";
    case MitigationKind::kGraphene: return "graphene";
  }
  return "?";
}

std::unique_ptr<RowHammerMitigator> make_mitigator(const MitigationConfig& cfg,
                                                   const dram::Geometry& geo,
                                                   std::uint32_t channel) {
  switch (cfg.kind) {
    case MitigationKind::kNone:
      return nullptr;
    case MitigationKind::kPara:
      return std::make_unique<ParaMitigator>(cfg, geo, channel);
    case MitigationKind::kGraphene:
      return std::make_unique<GrapheneMitigator>(cfg, geo);
  }
  return nullptr;
}

}  // namespace easydram::smc::mitigation
