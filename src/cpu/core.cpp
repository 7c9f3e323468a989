#include "cpu/core.hpp"

#include <algorithm>
#include <bit>

namespace easydram::cpu {

Core::Core(const CoreConfig& cfg, const CacheHierConfig& caches)
    : cfg_(cfg), l1_(caches.l1), l2_(caches.l2) {
  EASYDRAM_EXPECTS(std::has_single_bit(cfg.issue_width));
  EASYDRAM_EXPECTS(cfg.mlp > 0);
  EASYDRAM_EXPECTS(cfg.store_buffer > 0);
  width_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg.issue_width));
}

void Core::advance_for_instructions(std::uint32_t count) {
  result_.instructions += count;
  const std::uint64_t total = count + width_remainder_;
  cycle_ += static_cast<std::int64_t>(total >> width_shift_);
  width_remainder_ = static_cast<std::uint32_t>(total & (cfg_.issue_width - 1));
}

void Core::evict_from_l2(std::uint64_t line, bool l2_dirty, MemoryBackend& mem) {
  // Inclusive hierarchy: back-invalidate the L1 copy; the freshest dirty
  // version (L1 over L2) is written back to memory.
  const Cache::FlushResult l1f = l1_.flush(line);
  if (l2_dirty || l1f.was_dirty) {
    reserve_store_slot(mem);
    store_slots_.push_back(mem.submit_write(line, cycle_));
    ++result_.mem_writes;
  }
}

std::uint64_t Core::allocate_line(std::uint64_t line, bool in_l2,
                                  MemoryBackend& mem) {
  std::uint64_t mem_id = 0;
  if (!in_l2) {
    const FillResult l2fill = l2_.fill(line);
    if (l2fill.evicted) evict_from_l2(l2fill.evicted_line, l2fill.evicted_dirty, mem);
    mem_id = mem.submit_read(line, cycle_);
    ++result_.mem_reads;
  }
  const FillResult l1fill = l1_.fill(line);
  if (l1fill.evicted && l1fill.evicted_dirty) {
    // Dirty L1 victim folds back into L2. The hierarchy is inclusive (every
    // L2 eviction and flush also invalidates the L1 copy), so the victim is
    // in L2 and mark_dirty's presence check holds.
    l2_.mark_dirty(l1fill.evicted_line);
  }
  return mem_id;
}

void Core::wait_oldest_load(MemoryBackend& mem) {
  EASYDRAM_EXPECTS(!outstanding_loads_.empty());
  const Completion c = mem.wait(outstanding_loads_.front());
  outstanding_loads_.pop_front();
  cycle_ = std::max(cycle_, c.release_cycle);
}

void Core::reserve_store_slot(MemoryBackend& mem) {
  if (store_slots_.size() < cfg_.store_buffer) return;
  const Completion c = mem.wait(store_slots_.front());
  store_slots_.pop_front();
  cycle_ = std::max(cycle_, c.release_cycle);
}

void Core::drain_all(MemoryBackend& mem) {
  while (!outstanding_loads_.empty()) wait_oldest_load(mem);
  while (!store_slots_.empty()) {
    const Completion c = mem.wait(store_slots_.front());
    store_slots_.pop_front();
    cycle_ = std::max(cycle_, c.release_cycle);
  }
}

RunResult Core::run(TraceSource& trace, MemoryBackend& mem) {
  result_ = RunResult{};
  cycle_ = 0;
  width_remainder_ = 0;
  outstanding_loads_.clear();
  store_slots_.clear();

  TraceRecord rec;
  bool last_rowclone_ok = true;
  std::uint32_t current_stream = 0;
  mem.set_stream(current_stream);
  while (trace.next(rec, last_rowclone_ok)) {
    // Stream identity is sticky on the backend: every request this record
    // causes — including writebacks of lines another stream dirtied — is
    // attributed to the stream whose access is executing now.
    if (rec.stream != current_stream) {
      current_stream = rec.stream;
      mem.set_stream(current_stream);
    }
    advance_for_instructions(rec.gap_instructions + 1);
    const std::uint64_t line = rec.addr & ~std::uint64_t{63};

    switch (rec.op) {
      case Op::kLoad:
      case Op::kLoadDependent: {
        ++result_.loads;
        const bool dependent = cfg_.blocking_loads || rec.op == Op::kLoadDependent;
        if (l1_.access(line)) {
          if (dependent) cycle_ += cfg_.l1_latency;
          break;
        }
        ++result_.l1_misses;
        if (l2_.access(line)) {
          allocate_line(line, /*in_l2=*/true, mem);
          if (dependent) cycle_ += cfg_.l2_latency;
          break;
        }
        ++result_.l2_misses;
        if (outstanding_loads_.size() >= cfg_.mlp) wait_oldest_load(mem);
        const std::uint64_t id = allocate_line(line, /*in_l2=*/false, mem);
        if (dependent) {
          const Completion c = mem.wait(id);
          cycle_ = std::max(cycle_, c.release_cycle + cfg_.fill_to_use);
        } else {
          outstanding_loads_.push_back(id);
        }
        break;
      }

      case Op::kStoreStream: {
        if (cfg_.write_streaming) {
          ++result_.stores;
          // Non-temporal full-line store: no allocation, no RFO. Any cached
          // copy is superseded wholesale (no writeback needed).
          l1_.flush(line);
          l2_.flush(line);
          reserve_store_slot(mem);
          store_slots_.push_back(mem.submit_write(line, cycle_));
          ++result_.mem_writes;
          break;
        }
        [[fallthrough]];  // Cores without streaming treat it as a store.
      }

      case Op::kStore: {
        ++result_.stores;
        if (l1_.access_dirty(line)) break;
        ++result_.l1_misses;
        if (l2_.access(line)) {
          allocate_line(line, /*in_l2=*/true, mem);
          l1_.mark_dirty(line);
          break;
        }
        ++result_.l2_misses;
        // Write-allocate: the read-for-ownership occupies a store-buffer
        // slot; the core stalls only when the buffer is full.
        reserve_store_slot(mem);
        const std::uint64_t id = allocate_line(line, /*in_l2=*/false, mem);
        l1_.mark_dirty(line);
        store_slots_.push_back(id);
        break;
      }

      case Op::kFlush: {
        ++result_.flushes;
        cycle_ += cfg_.flush_cost;
        const Cache::FlushResult f1 = l1_.flush(line);
        const Cache::FlushResult f2 = l2_.flush(line);
        if (f1.was_dirty || f2.was_dirty) {
          reserve_store_slot(mem);
          store_slots_.push_back(mem.submit_write(line, cycle_));
          ++result_.mem_writes;
        }
        break;
      }

      case Op::kRowClone: {
        ++result_.rowclones;
        cycle_ += cfg_.rowclone_trigger_cycles.count;
        const std::uint64_t id = mem.submit_rowclone(rec.addr, rec.addr2, cycle_);
        const Completion c = mem.wait(id);
        cycle_ = std::max(cycle_, c.release_cycle);
        last_rowclone_ok = c.ok;
        if (!c.ok) ++result_.rowclone_fallbacks;
        break;
      }

      case Op::kDrain:
        drain_all(mem);
        break;

      case Op::kMarker:
        drain_all(mem);
        result_.markers.push_back(cycle_);
        break;
    }
  }

  drain_all(mem);
  result_.cycles = cycle_;
  return result_;
}

}  // namespace easydram::cpu
