#include "smc/scheduler.hpp"

#include <algorithm>

namespace easydram::smc {

std::optional<std::size_t> FcfsScheduler::pick(const PickContext& ctx,
                                               std::size_t& scanned_entries) {
  // The modeled SMC program walks its whole table to find the oldest
  // entry; the host gets it for free as the head of the arrival list.
  scanned_entries = ctx.table.size();
  if (ctx.table.empty()) return std::nullopt;
  return ctx.table.first();
}

namespace {

bool is_row_hit(const BankStateView& banks, const dram::DramAddress& a) {
  const auto open = banks.open_row(a);
  return open.has_value() && *open == a.row;
}

/// FR-FCFS restricted to entries whose stream satisfies `pred`: the oldest
/// row hit among them, else the oldest; nullopt when no entry qualifies.
/// Traversal is oldest-first, so the first qualifying entry is the oldest
/// and the first row hit found is the oldest row hit.
template <typename StreamPredicate>
std::optional<std::size_t> frfcfs_pick_if(const RequestTable& table,
                                          const BankStateView& banks,
                                          StreamPredicate pred) {
  std::optional<std::size_t> oldest;
  for (std::size_t s = table.first(); s != RequestTable::kNull;
       s = table.next(s)) {
    const TableEntry& e = table.at(s);
    if (!pred(e.request.stream_id)) continue;
    if (!oldest) oldest = s;
    if (is_row_hit(banks, e.dram_addr)) return s;
  }
  return oldest;
}

std::optional<std::size_t> frfcfs_pick(const RequestTable& table,
                                       const BankStateView& banks) {
  return frfcfs_pick_if(table, banks, [](std::uint32_t) { return true; });
}

/// Distinct stream ids outstanding in `table`, ascending. The table is
/// small (tens of slots), so a sorted scratch vector beats any set.
std::vector<std::uint32_t> distinct_streams(const RequestTable& table) {
  std::vector<std::uint32_t> streams;
  for (std::size_t s = table.first(); s != RequestTable::kNull;
       s = table.next(s)) {
    streams.push_back(table.at(s).request.stream_id);
  }
  std::sort(streams.begin(), streams.end());
  streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
  return streams;
}

}  // namespace

std::optional<std::size_t> FrfcfsScheduler::pick(const PickContext& ctx,
                                                 std::size_t& scanned_entries) {
  scanned_entries = ctx.table.size();
  if (ctx.table.empty()) return std::nullopt;
  return frfcfs_pick(ctx.table, ctx.banks);
}

std::optional<std::size_t> AtlasScheduler::pick(const PickContext& ctx,
                                                std::size_t& scanned_entries) {
  scanned_entries = ctx.table.size();
  if (ctx.table.empty()) return std::nullopt;
  if (ctx.streams == nullptr) return frfcfs_pick(ctx.table, ctx.banks);

  // Rank outstanding streams by long-term attained service, least first
  // (ties to the lower stream id), and serve FR-FCFS within the winner.
  const std::vector<std::uint32_t> present = distinct_streams(ctx.table);
  std::uint32_t best = present.front();
  std::uint64_t best_service = ctx.streams->attained_service(best);
  for (const std::uint32_t s : present) {
    const std::uint64_t service = ctx.streams->attained_service(s);
    if (service < best_service) {
      best = s;
      best_service = service;
    }
  }
  return frfcfs_pick_if(ctx.table, ctx.banks,
                        [best](std::uint32_t s) { return s == best; });
}

std::string_view to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kFrfcfs: return "frfcfs";
    case SchedulerKind::kAtlas: return "atlas";
  }
  return "?";
}

std::optional<SchedulerKind> parse_scheduler(std::string_view token) {
  for (const SchedulerKind kind :
       {SchedulerKind::kFcfs, SchedulerKind::kFrfcfs, SchedulerKind::kAtlas}) {
    if (token == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kFrfcfs: return std::make_unique<FrfcfsScheduler>();
    case SchedulerKind::kAtlas: return std::make_unique<AtlasScheduler>();
  }
  return std::make_unique<FrfcfsScheduler>();
}

}  // namespace easydram::smc
