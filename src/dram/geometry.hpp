#pragma once

#include <array>
#include <cstdint>

#include "common/contracts.hpp"
#include "dram/types.hpp"

namespace easydram::dram {

/// REF commands per retention window (JESD79-4: 8192 auto-refresh commands
/// cover the whole array every tREFW = 64 ms). Each REF therefore refreshes
/// a rows_per_bank/8192 stripe of every bank; the RowHammer exposure
/// accounting, the Graphene-style tracker, and the RAIDR refresh policy all
/// key their stripe/window arithmetic off this value (the default of
/// Geometry::refresh_window_refs).
inline constexpr std::int64_t kRefsPerRetentionWindow = 8192;

/// Physical organization of the modelled memory system.
///
/// The defaults match the paper's case-study memory system (§7.2): a single
/// channel, single rank of DDR4 with 4 bank groups x 4 banks and 32 K rows
/// per bank; a row holds 8 KiB at rank level and a column access moves one
/// 64-byte cache line. Rows are grouped into subarrays of 512 rows, the
/// granularity at which RowClone (an intra-subarray operation) can move data.
///
/// `channels`/`ranks_per_channel` generalize the address space to
/// channels x ranks x banks; per-bank quantities (`num_banks`,
/// `rows_per_bank`, ...) always describe ONE rank, so existing single-rank
/// code keeps its meaning unchanged.
struct Geometry {
  std::uint32_t channels = 1;
  std::uint32_t ranks_per_channel = 1;
  std::uint32_t bank_groups = 4;
  std::uint32_t banks_per_group = 4;
  std::uint32_t rows_per_bank = 32768;
  std::uint32_t row_bytes = 8192;
  std::uint32_t col_bytes = 64;
  std::uint32_t rows_per_subarray = 512;
  /// REF commands that cover the whole array once (one retention window,
  /// nominally tREFW = 64 ms). REF number n refreshes the round-robin
  /// stripe n mod refresh_window_refs of every bank in the rank. The JEDEC
  /// value is 8192; tests and time-compressed retention scenarios shrink it
  /// so a whole window fits in a millisecond-scale emulated run.
  std::uint32_t refresh_window_refs =
      static_cast<std::uint32_t>(kRefsPerRetentionWindow);

  /// Banks in one rank.
  constexpr std::uint32_t num_banks() const { return bank_groups * banks_per_group; }
  /// Banks in one channel (across its ranks).
  constexpr std::uint32_t banks_per_channel() const {
    return num_banks() * ranks_per_channel;
  }
  constexpr std::uint32_t cols_per_row() const { return row_bytes / col_bytes; }
  constexpr std::uint32_t subarrays_per_bank() const {
    return rows_per_bank / rows_per_subarray;
  }
  constexpr std::uint64_t rank_capacity_bytes() const {
    return static_cast<std::uint64_t>(num_banks()) * rows_per_bank * row_bytes;
  }
  constexpr std::uint64_t channel_capacity_bytes() const {
    return rank_capacity_bytes() * ranks_per_channel;
  }
  /// Total addressable capacity across every channel and rank.
  constexpr std::uint64_t capacity_bytes() const {
    return channel_capacity_bytes() * channels;
  }

  constexpr std::uint32_t bank_group_of(std::uint32_t bank) const {
    return bank / banks_per_group;
  }
  constexpr std::uint32_t subarray_of(std::uint32_t row) const {
    return row / rows_per_subarray;
  }
  constexpr bool same_subarray(std::uint32_t row_a, std::uint32_t row_b) const {
    return subarray_of(row_a) == subarray_of(row_b);
  }

  /// Physically adjacent rows of `row` inside its subarray: the RowHammer
  /// victim set of an aggressor (and, symmetrically, the rows a targeted
  /// neighbor refresh must touch). Subarray edges have one neighbor — the
  /// sense-amplifier stripe between subarrays isolates the wordline
  /// coupling, so adjacency never crosses a subarray boundary.
  struct NeighborRows {
    std::array<std::uint32_t, 2> rows{};
    std::uint32_t count = 0;
  };
  constexpr NeighborRows neighbor_rows(std::uint32_t row) const {
    NeighborRows n;
    if (row > 0 && same_subarray(row - 1, row)) n.rows[n.count++] = row - 1;
    if (row + 1 < rows_per_bank && same_subarray(row, row + 1)) {
      n.rows[n.count++] = row + 1;
    }
    return n;
  }

  /// Rows of one refresh stripe in every bank: REF number n refreshes rows
  /// [stripe * refresh_stripe_rows(), ...) where stripe = n mod
  /// refresh_window_refs. 4 rows for the default 32 K-row / 8192-REF shape.
  constexpr std::uint32_t refresh_stripe_rows() const {
    return (rows_per_bank + refresh_window_refs - 1) / refresh_window_refs;
  }
  /// Refresh stripe (round-robin position within the window) REF slot
  /// number `slot` targets. Slots count both issued and skipped refresh
  /// opportunities, so the mapping is stable under a skipping policy.
  constexpr std::uint32_t refresh_stripe_of_slot(std::int64_t slot) const {
    return static_cast<std::uint32_t>(slot % refresh_window_refs);
  }
  /// Stripe containing `row` — the inverse of refresh_stripe_of_slot for
  /// reasoning about when a given row's victims are reset.
  constexpr std::uint32_t refresh_stripe_of_row(std::uint32_t row) const {
    return row / refresh_stripe_rows();
  }

  /// Flattens (rank, bank-in-rank) to a per-channel bank index; the
  /// per-channel device and the process-variation model index bank state
  /// this way so rank 0 coincides with the historical single-rank indices.
  constexpr std::uint32_t flat_bank(std::uint32_t rank, std::uint32_t bank) const {
    return rank * num_banks() + bank;
  }

  /// Flattens a full address to a system-wide bank index (used as the
  /// RowClone-map key namespace; equals `bank` for the 1x1 default).
  constexpr std::uint32_t system_bank(const DramAddress& a) const {
    return (a.channel * ranks_per_channel + a.rank) * num_banks() + a.bank;
  }

  /// Validates an address against this geometry.
  constexpr bool contains(const DramAddress& a) const {
    return a.channel < channels && a.rank < ranks_per_channel &&
           a.bank < num_banks() && a.row < rows_per_bank && a.col < cols_per_row();
  }
};

}  // namespace easydram::dram
