#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace easydram::cpu {

/// Operations in a core execution trace.
enum class Op : std::uint8_t {
  kLoad,           ///< Load whose value feeds no address (overlappable).
  kLoadDependent,  ///< Load on the critical path (e.g. pointer chase).
  kStore,
  /// Full-cache-line store in a detected streaming pattern (memset/memcpy
  /// destinations). Cores with write-streaming support (e.g. Cortex A57)
  /// skip the read-for-ownership and post the line directly; others treat
  /// it as a plain store.
  kStoreStream,
  kFlush,     ///< Cache-line flush via the memory-mapped register (§7.1).
  /// Trigger an in-DRAM copy of the row at `addr` onto the row named by the
  /// kRowCloneDst operand record that must directly follow this one.
  kRowClone,
  /// Operand of the preceding kRowClone: `addr` is the copy destination.
  /// Consumed inside the kRowClone step, so it retires no instruction and
  /// its other fields are ignored. Anywhere else it is a contract violation.
  kRowCloneDst,
  kDrain,     ///< Memory barrier: wait for all outstanding requests.
  kMarker,    ///< Snapshot the cycle counter into RunResult::markers.
};

/// One trace record: `gap_instructions` non-memory instructions execute
/// before the operation itself. Kept at 16 bytes: generating a multi-
/// million-record trace is bound by first-touch page faults, so its cost
/// scales with the record size. The one two-address operation (RowClone)
/// spends a second record instead of widening every record.
struct TraceRecord {
  std::uint64_t addr = 0;
  std::uint32_t gap_instructions = 0;
  /// Traffic-stream identity for multi-tenant traces. The core forwards it
  /// to the memory backend so every memory request it causes (including
  /// cache writebacks, attributed to the evicting stream) carries it.
  std::uint16_t stream = 0;
  Op op = Op::kLoad;
};
static_assert(sizeof(TraceRecord) == 16);

/// Pull-based trace generator. `next` returns the next record, or nullptr
/// at the end of the trace; the record stays valid until the following
/// call, so consumers read it in place. `last_rowclone_ok` feeds back the
/// outcome of the most recent kRowClone so generators can emit CPU-fallback
/// accesses, exactly as the paper's software falls back to load/store
/// copies.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual const TraceRecord* next(bool last_rowclone_ok) = 0;
};

/// Fetches the kRowCloneDst operand that must directly follow a kRowClone
/// and returns the copy destination. Like any next() call, it invalidates
/// the kRowClone record.
inline std::uint64_t next_rowclone_dst(TraceSource& trace,
                                       bool last_rowclone_ok) {
  const TraceRecord* dst = trace.next(last_rowclone_ok);
  EASYDRAM_EXPECTS(dst != nullptr && dst->op == Op::kRowCloneDst);
  return dst->addr;
}

/// A trace replayed from a pre-recorded vector (ignores feedback).
class VectorTrace final : public TraceSource {
 public:
  explicit VectorTrace(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

  const TraceRecord* next(bool /*last_rowclone_ok*/) override {
    return cursor_ < records_.size() ? &records_[cursor_++] : nullptr;
  }

  void rewind() { cursor_ = 0; }
  std::size_t size() const { return records_.size(); }

 private:
  std::vector<TraceRecord> records_;
  std::size_t cursor_ = 0;
};

/// A trace replayed from a caller-owned span (ignores feedback). Use this
/// to run several simulators over one generated workload: the multi-
/// million-record kernels are expensive to copy, and the span borrows them
/// instead. The underlying storage must outlive the source.
class SpanTrace final : public TraceSource {
 public:
  explicit SpanTrace(std::span<const TraceRecord> records)
      : records_(records) {}

  const TraceRecord* next(bool /*last_rowclone_ok*/) override {
    return cursor_ < records_.size() ? &records_[cursor_++] : nullptr;
  }

  void rewind() { cursor_ = 0; }
  std::size_t size() const { return records_.size(); }

 private:
  std::span<const TraceRecord> records_;
  std::size_t cursor_ = 0;
};

}  // namespace easydram::cpu
