#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "smc/bank_state.hpp"
#include "smc/request_table.hpp"

namespace easydram::smc {

/// Per-stream attained service (served requests) the controller maintains
/// alongside the request table. Streams are dense small integers (tenant
/// ids); the table grows on first sight of a stream and is never trimmed,
/// so accumulated service survives idle phases — exactly what ATLAS-style
/// long-term ranking needs.
class StreamTable {
 public:
  void note_service(std::uint32_t stream, std::uint64_t amount = 1) {
    if (stream >= attained_.size()) attained_.resize(stream + 1);
    attained_[stream] += amount;
  }

  /// Zero for a stream never served.
  std::uint64_t attained_service(std::uint32_t stream) const {
    return stream < attained_.size() ? attained_[stream] : 0;
  }

 private:
  std::vector<std::uint64_t> attained_;
};

/// Everything a scheduling policy may consult for one decision, bundled so
/// the `pick` signature stops growing as policies get richer. `streams` is
/// nullable: callers without per-stream bookkeeping (unit tests, benches)
/// pass nullptr and stream-aware policies degrade to their single-source
/// behavior.
struct PickContext {
  const RequestTable& table;
  const BankStateView& banks;
  const StreamTable* streams = nullptr;
};

/// A memory-request scheduling policy (Table 2: FCFS::schedule,
/// FRFCFS::schedule). Returns the table index to serve next, or nullopt for
/// an empty table. `scanned_entries` reports how many table entries the
/// policy examined so the cycle meter can charge a realistic software cost.
///
/// `pick` is non-const on purpose: a policy supplied through
/// `SystemConfig::scheduler_factory` may update its own bookkeeping as part
/// of the decision, exactly like a software-memory-controller
/// implementation. Row-hit comparisons must key on the full (channel, rank,
/// bank) bank coordinate — see dram::row_key.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::optional<std::size_t> pick(const PickContext& ctx,
                                          std::size_t& scanned_entries) = 0;
  virtual std::string_view name() const = 0;
};

/// First come, first served: always the oldest request.
class FcfsScheduler final : public Scheduler {
 public:
  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "FCFS"; }
};

/// First ready, first come, first served: the oldest row-buffer-hit request
/// if one exists, otherwise the oldest request.
class FrfcfsScheduler final : public Scheduler {
 public:
  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "FR-FCFS"; }
};

/// ATLAS-style scheduler (Kim et al., HPCA'10, simplified): streams are
/// ranked by long-term attained service (least attained service first, ties
/// to the lower stream id), and the scheduler serves FR-FCFS within the
/// highest-ranked stream that has an outstanding request. A stream that has
/// consumed lots of bandwidth is automatically outranked by lighter
/// streams, so latency-sensitive tenants pull ahead without explicit
/// classification. Without stream metadata it degrades to plain FR-FCFS.
class AtlasScheduler final : public Scheduler {
 public:
  std::optional<std::size_t> pick(const PickContext& ctx,
                                  std::size_t& scanned_entries) override;
  std::string_view name() const override { return "ATLAS"; }
};

/// Registry of the built-in scheduling policies, addressable from
/// `SystemConfig` and the CLI's `--sched` flag. kFrfcfs is the default.
enum class SchedulerKind : std::uint8_t {
  kFcfs,
  kFrfcfs,
  kAtlas,
};

/// CLI token for `kind` ("fcfs", "frfcfs", "atlas").
std::string_view to_string(SchedulerKind kind);

/// Parses a CLI token into a SchedulerKind; nullopt for unknown tokens.
std::optional<SchedulerKind> parse_scheduler(std::string_view token);

/// Instantiates `kind`.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind);

}  // namespace easydram::smc
