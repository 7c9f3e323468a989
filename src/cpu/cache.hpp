#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"

namespace easydram::cpu {

/// Geometry of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 64;
};

/// Outcome of allocating a line.
struct FillResult {
  bool evicted = false;
  bool evicted_dirty = false;
  std::uint64_t evicted_line = 0;  ///< Line base address.
};

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement. Tracks tags and dirty bits only — the timing models in
/// this repository never need cached data contents.
///
/// Layout: three flat per-way arrays (num_sets x ways, row-major) instead
/// of an array of {tag, valid, dirty, lru} structs. `key_` holds the line
/// number (`line >> log2(line_bytes)`) and all-ones for an invalid way, so
/// a lookup is one compare per way over 8-byte keys — an 8-way set is one
/// host cache line — with no valid flag to test, no tag/set reassembly on
/// eviction, and a branch-free scan (a set never holds the same key twice,
/// so the scan has at most one hit). Line alignment is a mask test, not a
/// division.
///
/// One lookup per access: `access_dirty` serves a store hit (LRU update +
/// dirty bit) in the lookup that finds the line, where `access` followed
/// by `mark_dirty` scans the set twice.
///
/// Behaviour is the array-of-structs design's, decision for decision: LRU
/// by one global clock per cache (valid ways always hold distinct stamps),
/// `fill` takes the last invalid way of the set before evicting the
/// least-recently-used one, and the hit/miss counters and both contract
/// checks are unchanged. tests/test_hotpath.cpp keeps that design as a
/// reference and checks the two against each other on random streams.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }

  /// Hit check + LRU update. `line` must be line-aligned.
  bool access(std::uint64_t line) {
    const std::size_t w = find(line);
    if (w == kMiss) {
      ++misses_;
      return false;
    }
    lru_[w] = ++lru_clock_;
    ++hits_;
    return true;
  }

  /// access() that also marks a hit line dirty (a store hit in one
  /// lookup). A miss changes nothing but the miss counter.
  bool access_dirty(std::uint64_t line) {
    const std::size_t w = find(line);
    if (w == kMiss) {
      ++misses_;
      return false;
    }
    lru_[w] = ++lru_clock_;
    dirty_[w] = 1;
    ++hits_;
    return true;
  }

  /// Allocates `line`, evicting the set's LRU entry if the set is full.
  FillResult fill(std::uint64_t line);

  /// Marks a present line dirty; precondition: the line is present.
  void mark_dirty(std::uint64_t line) {
    const std::size_t w = find(line);
    EASYDRAM_EXPECTS(w != kMiss && "mark_dirty on a line that is not present");
    dirty_[w] = 1;
  }

  /// Invalidates `line` if present; reports whether it was present/dirty.
  struct FlushResult {
    bool was_present = false;
    bool was_dirty = false;
  };
  FlushResult flush(std::uint64_t line) {
    const std::size_t w = find(line);
    if (w == kMiss) return FlushResult{};
    const FlushResult r{true, dirty_[w] != 0};
    key_[w] = kInvalid;
    dirty_[w] = 0;
    return r;
  }

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  static constexpr std::size_t kMiss = ~std::size_t{0};

  /// Index of the first way of `key`'s set in the per-way arrays.
  std::size_t set_base(std::uint64_t key) const {
    return static_cast<std::size_t>(key & set_mask_) * ways_;
  }

  /// Per-way index holding `line`, or kMiss.
  std::size_t find(std::uint64_t line) const {
    EASYDRAM_EXPECTS((line & line_mask_) == 0);
    const std::uint64_t key = line >> line_shift_;
    const std::size_t base = set_base(key);
    const std::uint64_t* keys = key_.data() + base;
    // Ways hold distinct keys, so at most one term is nonzero and `slot` is
    // 1 + the hit way, or 0 on a miss: no branch and no serial select chain.
    std::size_t slot = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      slot += static_cast<std::size_t>(keys[w] == key) * (w + 1);
    }
    return slot == 0 ? kMiss : base + slot - 1;
  }

  CacheConfig cfg_;
  std::uint32_t ways_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint64_t line_mask_ = 0;   ///< line_bytes - 1.
  std::uint64_t set_mask_ = 0;    ///< num_sets - 1.
  std::vector<std::uint64_t> key_;   ///< Line number per way; kInvalid = empty.
  std::vector<std::uint64_t> lru_;   ///< Last-use stamp per way.
  std::vector<std::uint8_t> dirty_;  ///< Dirty bit per way.
  std::uint64_t lru_clock_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace easydram::cpu
