#include "smc/refresh_policy.hpp"

#include "common/contracts.hpp"

namespace easydram::smc {

RaidrRefreshPolicy::RaidrRefreshPolicy(RaidrBinning binning)
    : binning_(std::move(binning)) {
  EASYDRAM_EXPECTS(binning_.window_refs > 0 && binning_.ranks > 0);
  EASYDRAM_EXPECTS(binning_.multipliers.size() ==
                   static_cast<std::size_t>(binning_.ranks) *
                       binning_.window_refs);
  for (const std::uint8_t m : binning_.multipliers) {
    EASYDRAM_EXPECTS(m >= 1);
  }
}

bool RaidrRefreshPolicy::should_issue(std::uint32_t rank, std::int64_t slot) {
  EASYDRAM_EXPECTS(rank < binning_.ranks && slot >= 0);
  const auto stripe = static_cast<std::uint32_t>(slot % binning_.window_refs);
  const std::int64_t round = slot / binning_.window_refs;
  const std::uint32_t m = binning_.multiplier(rank, stripe);
  // Phase-spread: stripe s issues on rounds congruent to s mod m, so each
  // round refreshes ~1/m of the m-bin instead of all of it every m-th
  // round (which would leave round 0 with zero savings and round m-1 with
  // a refresh burst).
  return round % m == stripe % m;
}

std::string_view to_string(RefreshKind kind) {
  switch (kind) {
    case RefreshKind::kAllRows: return "all_rows";
    case RefreshKind::kRaidr: return "raidr";
  }
  return "?";
}

}  // namespace easydram::smc
