#include "cpu/cache.hpp"

#include <bit>

namespace easydram::cpu {

namespace {

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg), ways_(cfg.ways) {
  EASYDRAM_EXPECTS(cfg.line_bytes > 0 && is_pow2(cfg.line_bytes));
  EASYDRAM_EXPECTS(cfg.ways > 0);
  const std::uint64_t set_bytes =
      static_cast<std::uint64_t>(cfg.ways) * cfg.line_bytes;
  EASYDRAM_EXPECTS(cfg.size_bytes % set_bytes == 0);
  const std::uint64_t num_sets = cfg.size_bytes / set_bytes;
  EASYDRAM_EXPECTS(num_sets > 0 && is_pow2(num_sets));
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes));
  line_mask_ = cfg.line_bytes - 1;
  set_mask_ = num_sets - 1;
  key_.assign(num_sets * cfg.ways, kInvalid);
  lru_.assign(num_sets * cfg.ways, 0);
  dirty_.assign(num_sets * cfg.ways, 0);
}

FillResult Cache::fill(std::uint64_t line) {
  EASYDRAM_EXPECTS((line & line_mask_) == 0);
  const std::uint64_t key = line >> line_shift_;
  const std::size_t base = set_base(key);

  // One branch-free pass finds both a hit and the set's last invalid way.
  std::size_t hit = kMiss;
  std::size_t victim = kMiss;
  for (std::size_t i = base; i < base + ways_; ++i) {
    hit = key_[i] == key ? i : hit;
    victim = key_[i] == kInvalid ? i : victim;
  }
  if (hit != kMiss) {
    // Already present (e.g. racing fills); just refresh LRU.
    lru_[hit] = ++lru_clock_;
    return FillResult{};
  }
  FillResult result;
  if (victim == kMiss) {
    victim = base;
    for (std::size_t i = base + 1; i < base + ways_; ++i) {
      victim = lru_[i] < lru_[victim] ? i : victim;
    }
    result.evicted = true;
    result.evicted_dirty = dirty_[victim] != 0;
    result.evicted_line = key_[victim] << line_shift_;
  }
  key_[victim] = key;
  dirty_[victim] = 0;
  lru_[victim] = ++lru_clock_;
  return result;
}

}  // namespace easydram::cpu
