#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cpu/trace.hpp"
#include "smc/addr_map.hpp"

namespace easydram::workloads {

/// RowHammer aggressor access patterns.
enum class HammerPattern : std::uint8_t {
  /// One aggressor row plus a far conflict row in the same bank: the
  /// classic "open A, open B" loop that forces an ACT of A every
  /// iteration. Victims: A's (and B's) physical neighbors.
  kSingleSided,
  /// Two aggressors sandwiching one victim (rows V-1 and V+1): every
  /// iteration disturbs V from both sides — the strongest classic pattern.
  kDoubleSided,
  /// `sides` aggressors spaced two rows apart: every inter-aggressor row
  /// is a double-sided victim (the "many-sided" patterns that defeat
  /// in-DRAM TRR samplers).
  kManySided,
};

std::string_view to_string(HammerPattern p);

/// Shape of one hammer kernel. Defaults pick subarray-interior rows of
/// bank 0 so every aggressor has both neighbors.
struct HammerParams {
  HammerPattern pattern = HammerPattern::kDoubleSided;
  std::uint32_t bank = 0;
  std::uint32_t rank = 0;
  std::uint32_t channel = 0;
  /// First aggressor row. Keep >= 1 and subarray-interior so neighbor sets
  /// are full-size; the generators do not re-derive it. (1024 would sit ON
  /// a subarray boundary of the default 512-row subarrays: no lower
  /// neighbor.)
  std::uint32_t base_row = 1030;
  /// kManySided only: number of aggressor rows.
  std::uint32_t sides = 4;
  /// Hammer iterations; each touches every aggressor once (load + flush,
  /// the user-space clflush attack loop).
  int rounds = 1200;
  /// Non-memory instructions between accesses (a tight attack loop).
  std::uint32_t gap_instructions = 1;
};

/// Aggressor rows the pattern activates, in per-round access order.
std::vector<std::uint32_t> hammer_aggressor_rows(const HammerParams& p);

/// Rows the pattern disturbs: the union of the aggressors' neighbors,
/// minus the aggressors themselves (an activated row is restored, not
/// disturbed). Sorted ascending.
std::vector<std::uint32_t> hammer_victim_rows(const HammerParams& p,
                                              const dram::Geometry& geo);

/// The hammer kernel as a core trace: `rounds` passes of load+clflush over
/// every aggressor row (column 0 of each), so each access misses the cache
/// hierarchy and re-activates the row in DRAM.
std::vector<cpu::TraceRecord> make_hammer_trace(const HammerParams& p,
                                                const smc::AddressMapper& mapper);

/// Blended workload: `background` records (any benign trace, e.g. a
/// PolyBench kernel prefix) with one full hammer round spliced in every
/// `burst_period` background records — the "attacker thread sharing the
/// memory system with a victim application" mix. Hammer rounds beyond the
/// background's end run back to back; `p.rounds` still bounds the total.
/// `background` must hold no kRowClone: a burst could split it from its
/// operand (ContractViolation).
std::vector<cpu::TraceRecord> make_hammer_blend(
    const HammerParams& p, const smc::AddressMapper& mapper,
    std::span<const cpu::TraceRecord> background, std::size_t burst_period);

}  // namespace easydram::workloads
