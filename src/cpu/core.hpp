#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.hpp"
#include "cpu/backend.hpp"
#include "cpu/cache.hpp"
#include "cpu/trace.hpp"

namespace easydram::cpu {

/// Core timing parameters.
///
/// The model is a trace-driven approximation of an out-of-order core:
/// non-memory instructions retire at `issue_width` per cycle; independent
/// load misses overlap up to `mlp` outstanding; stores retire into a
/// `store_buffer`-deep buffer and only stall the core when it fills;
/// dependent loads (pointer chases) expose their full latency.
struct CoreConfig {
  Frequency emulated_clock = Frequency::gigahertz(1);
  std::uint32_t issue_width = 2;  ///< A power of two (retire is a shift).
  std::uint32_t mlp = 4;
  std::uint32_t store_buffer = 16;
  std::int64_t l1_latency = 2;    ///< Dependent-load L1 hit cycles.
  std::int64_t l2_latency = 14;   ///< Dependent-load L2 hit cycles.
  std::int64_t fill_to_use = 4;   ///< Response release to dependent use.
  std::int64_t flush_cost = 4;    ///< Cycles to issue one cache-line flush.
  /// CPU-side cost of triggering one RowClone operation: uncached MMIO
  /// stores of the source/target addresses, the go bit, and completion
  /// polling (PiDRAM-style memory-mapped interface). Charged per kRowClone
  /// in addition to the memory system's service latency.
  Cycles rowclone_trigger_cycles{600};
  /// In-order pipeline: every load behaves as dependent (blocking).
  bool blocking_loads = false;
  /// Write-streaming (non-temporal full-line stores): kStoreStream skips
  /// the read-for-ownership and posts the line straight to memory.
  bool write_streaming = false;
};

/// Cache hierarchy configuration (L1D + unified L2, inclusive).
struct CacheHierConfig {
  CacheConfig l1{32 * 1024, 4, 64};
  CacheConfig l2{512 * 1024, 8, 64};
};

/// Counters produced by one run.
struct RunResult {
  std::int64_t cycles = 0;
  std::int64_t instructions = 0;
  std::int64_t loads = 0;
  std::int64_t stores = 0;
  std::int64_t l1_misses = 0;
  std::int64_t l2_misses = 0;
  std::int64_t mem_reads = 0;
  std::int64_t mem_writes = 0;
  std::int64_t rowclones = 0;
  std::int64_t rowclone_fallbacks = 0;
  std::int64_t flushes = 0;
  /// Cycle counts captured at kMarker records (measurement windows).
  std::vector<std::int64_t> markers;

  bool operator==(const RunResult&) const = default;
};

/// Trace-driven core + cache hierarchy timing model. One instance models
/// one run: construct, call run(), read the result.
class Core {
 public:
  Core(const CoreConfig& cfg, const CacheHierConfig& caches);

  RunResult run(TraceSource& trace, MemoryBackend& mem);

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }

 private:
  void advance_for_instructions(std::uint32_t count);
  /// Brings `line` into L1 (and L2), submitting writebacks for dirty
  /// victims. `in_l2` is the caller's L2 lookup result; when false the line
  /// comes from main memory and the backend request id is returned
  /// (0 otherwise).
  std::uint64_t allocate_line(std::uint64_t line, bool in_l2,
                              MemoryBackend& mem);
  void evict_from_l2(std::uint64_t line, bool l2_dirty, MemoryBackend& mem);
  void wait_oldest_load(MemoryBackend& mem);
  void reserve_store_slot(MemoryBackend& mem);
  void drain_all(MemoryBackend& mem);

  CoreConfig cfg_;
  Cache l1_;
  Cache l2_;

  std::int64_t cycle_ = 0;
  std::uint32_t width_remainder_ = 0;
  std::uint32_t width_shift_ = 0;  ///< log2(issue_width).
  std::deque<std::uint64_t> outstanding_loads_;
  std::deque<std::uint64_t> store_slots_;
  RunResult result_;
};

}  // namespace easydram::cpu
