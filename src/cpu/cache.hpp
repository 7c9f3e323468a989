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
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }

  /// Hit check + LRU update. `line` must be line-aligned.
  bool access(std::uint64_t line);

  /// Hit check without LRU side effects.
  bool probe(std::uint64_t line) const;

  /// Allocates `line`, evicting the set's LRU entry if the set is full.
  FillResult fill(std::uint64_t line);

  /// Marks a present line dirty; precondition: the line is present.
  void mark_dirty(std::uint64_t line);

  /// Invalidates `line` if present; reports whether it was present/dirty.
  struct FlushResult {
    bool was_present = false;
    bool was_dirty = false;
  };
  FlushResult flush(std::uint64_t line);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  std::size_t set_of(std::uint64_t line) const;
  std::uint64_t tag_of(std::uint64_t line) const;
  std::uint64_t line_of(std::size_t set, std::uint64_t tag) const;

  CacheConfig cfg_;
  std::size_t num_sets_;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint32_t sets_shift_ = 0;  ///< log2(num_sets_).
  std::vector<Way> ways_;  ///< num_sets_ x cfg_.ways, row-major.
  std::uint64_t lru_clock_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace easydram::cpu
