#pragma once

#include <cstdint>
#include <vector>

#include "smc/easyapi.hpp"
#include "smc/rowclone_map.hpp"

namespace easydram::smc {

/// A bank/row coordinate (column-free), the granularity RowClone works at.
struct RowRef {
  std::uint32_t bank = 0;
  std::uint32_t row = 0;

  bool operator==(const RowRef&) const = default;
};

/// Runs the PiDRAM-style clonability verification (§7.1, "Mapping
/// Problem"): a pair is clonable iff `trials` RowClone copy operations from
/// src to dst all reproduce the source data exactly.
class RowClonePairTester {
 public:
  /// `trials` defaults to the paper's 1000; the modelled chip is
  /// deterministic, so tests and benches may lower it to save time.
  RowClonePairTester(EasyApi& api, int trials = 1000);

  /// Tests one pair and records the verdict in `map`.
  bool test(std::uint32_t bank, std::uint32_t src_row, std::uint32_t dst_row,
            RowCloneMap& map);

  std::int64_t trials_run() const { return trials_run_; }

 private:
  /// One trial: write a pattern to src, RowClone, read dst back, compare.
  bool one_trial(std::uint32_t bank, std::uint32_t src_row, std::uint32_t dst_row,
                 std::uint64_t salt);

  EasyApi* api_;
  int trials_;
  std::int64_t trials_run_ = 0;
};

/// A bulk copy plan: per source row, the verified destination row, or a
/// CPU fallback marker.
struct CopyPlanEntry {
  RowRef src;
  RowRef dst;
  bool use_rowclone = false;
};

/// A bulk initialization plan: per destination row, the reserved
/// same-subarray source (pattern) row, or a CPU fallback marker.
struct InitPlanEntry {
  RowRef dst;
  RowRef pattern_src;
  bool use_rowclone = false;
};

/// The data allocation algorithm of §7.1: reserves whole DRAM rows
/// (alignment), sizes regions in row multiples (granularity), keeps pairs
/// within one subarray (mapping), and plans CPU fallbacks where
/// verification fails. Allocation walks banks row-linearly; destination
/// candidates are probed within the source's subarray.
class RowCloneAllocator {
 public:
  RowCloneAllocator(EasyApi& api, RowCloneMap& map, RowClonePairTester& tester);

  /// Plans an N-row bulk copy. Sources occupy the next free rows; for each
  /// source the allocator verifies up to `max_candidates` same-subarray
  /// destinations and falls back to CPU copy when none passes.
  std::vector<CopyPlanEntry> plan_copy(std::size_t n_rows, int max_candidates = 8);

  /// Like plan_copy, but distributes consecutive logical rows round-robin
  /// across all banks — the bank-interleaving optimization §7.1 leaves as
  /// future work. RowClone operations to different banks can then overlap
  /// at the DRAM, improving bulk-copy throughput. Pairs still stay within
  /// one subarray (the FPM constraint is per-pair, not per-operation-set).
  /// Do not mix with plan_copy/plan_init on the same allocator instance.
  std::vector<CopyPlanEntry> plan_copy_interleaved(std::size_t n_rows,
                                                   int max_candidates = 8);

  /// Plans an N-row bulk initialization: one pattern source row is
  /// reserved per subarray; a destination whose pair with its subarray's
  /// pattern row fails verification falls back to CPU stores.
  std::vector<InitPlanEntry> plan_init(std::size_t n_rows);

 private:
  RowRef row_at(std::uint64_t linear_index) const;
  /// Reserves and returns the subarray's pattern row (first row of the
  /// subarray), creating it on first use.
  RowRef pattern_row_for(const RowRef& dst);

  /// Next free row of `bank` under interleaved allocation (skips reserved
  /// pattern rows).
  RowRef next_row_in_bank(std::uint32_t bank);

  EasyApi* api_;
  RowCloneMap* map_;
  RowClonePairTester* tester_;
  std::uint64_t cursor_ = 0;
  std::vector<std::uint64_t> bank_cursors_;
  std::vector<std::int32_t> pattern_rows_;  ///< per (bank, subarray), -1 = none.
};

}  // namespace easydram::smc
