#include "ramulator/ramulator.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace easydram::ramulator {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}

RamulatorSim::RamulatorSim(const RamulatorConfig& cfg)
    : cfg_(cfg), banks_(cfg.geometry.num_banks()) {
  next_ref_ = cfg_.timing.tREFI;
}

dram::DramAddress RamulatorSim::map(std::uint64_t paddr) const {
  const auto& geo = cfg_.geometry;
  const std::uint64_t line = (paddr / 64) % (geo.capacity_bytes() / 64);
  dram::DramAddress a;
  a.bank = static_cast<std::uint32_t>(line % geo.num_banks());
  const std::uint64_t upper = line / geo.num_banks();
  a.col = static_cast<std::uint32_t>(upper % geo.cols_per_row());
  a.row = static_cast<std::uint32_t>((upper / geo.cols_per_row()) % geo.rows_per_bank);
  return a;
}

std::size_t RamulatorSim::pick_frfcfs(const std::vector<MemRequest>& queue) const {
  std::size_t oldest = kNpos;
  std::size_t oldest_hit = kNpos;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const MemRequest& r = queue[i];
    if (oldest == kNpos || r.seq < queue[oldest].seq) oldest = i;
    const BankState& b = banks_[r.addr.bank];
    const bool hit = !r.is_rowclone && b.open && b.row == r.addr.row;
    if (hit && (oldest_hit == kNpos || r.seq < queue[oldest_hit].seq)) oldest_hit = i;
  }
  return oldest_hit != kNpos ? oldest_hit : oldest;
}

bool RamulatorSim::try_advance_request(MemRequest& req, Picoseconds now, bool& done,
                                       Picoseconds& block_until) {
  const dram::TimingParams& t = cfg_.timing;
  BankState& b = banks_[req.addr.bank];
  done = false;

  if (req.is_rowclone) {
    if (b.open) {
      if (now < b.pre_ok) {
        block_until = b.pre_ok;
        return false;
      }
      b.open = false;
      b.act_ok = std::max(b.act_ok, now + t.tRP);
      return true;
    }
    if (now < b.act_ok || now < rank_busy_until_) {
      block_until = std::max(b.act_ok, rank_busy_until_);
      return false;
    }
    // Idealized in-DRAM copy: ACT->PRE->ACT plus full restore + precharge.
    const Picoseconds finish = now + t.tCK * 2 + t.tRAS + t.tRP;
    b.act_ok = std::max(b.act_ok, finish);
    push_completion(finish + cfg_.rowclone_overhead, req.id);
    ++stats_.rowclones;
    done = true;
    return true;
  }

  if (b.open && b.row == req.addr.row) {
    if (now < b.col_ok) {
      block_until = b.col_ok;
      return false;
    }
    const Picoseconds lead = req.is_write ? t.tCWL : t.tCL;
    if (now + lead < bus_free_) {
      block_until = bus_free_ - lead;
      return false;
    }
    const Picoseconds data_end = now + lead + t.tBL;
    bus_free_ = data_end;
    b.col_ok = now + t.tCCD_L;
    b.pre_ok = std::max(b.pre_ok, req.is_write ? data_end + t.tWR : now + t.tRTP);
    if (!req.is_write) push_completion(data_end, req.id);
    ++stats_.row_hits;
    done = true;
    return true;
  }

  if (b.open) {
    if (now < b.pre_ok) {
      block_until = b.pre_ok;
      return false;
    }
    b.open = false;
    b.act_ok = std::max(b.act_ok, now + t.tRP);
    return true;
  }

  // Closed bank: activate.
  if (now < b.act_ok || now < rank_busy_until_) {
    block_until = std::max(b.act_ok, rank_busy_until_);
    return false;
  }
  if (act_window_.size() >= 4 && now < act_window_.front() + t.tFAW) {
    block_until = act_window_.front() + t.tFAW;
    return false;
  }
  if (!act_window_.empty() && now < act_window_.back() + t.tRRD_S) {
    block_until = act_window_.back() + t.tRRD_S;
    return false;
  }
  b.open = true;
  b.row = req.addr.row;
  const Picoseconds trcd =
      cfg_.trcd_of ? cfg_.trcd_of(req.addr.bank, req.addr.row) : t.tRCD;
  b.col_ok = now + trcd;
  b.pre_ok = now + t.tRAS;
  b.act_ok = now + t.tRC;
  act_window_.push_back(now);
  while (act_window_.size() > 4) act_window_.erase(act_window_.begin());
  ++stats_.row_misses;
  return true;
}

bool RamulatorSim::issue_one_command(Picoseconds now) {
  // Event-driven short circuit: a failed attempt records when its first
  // blocking condition clears; until then (and absent invalidating
  // events) re-attempting is provably futile.
  if (issue_retry_valid_ && now < issue_retry_at_) return false;
  issue_retry_valid_ = false;

  const dram::TimingParams& t = cfg_.timing;
  if (now < last_cmd_ + t.tCK) return fail_until(last_cmd_ + t.tCK);

  // Refresh has priority when due: close banks, then refresh the rank.
  // While `now >= next_ref_` holds, this branch is taken on every attempt,
  // so its blocking time alone bounds the retry.
  if (now >= next_ref_) {
    for (BankState& b : banks_) {
      if (!b.open) continue;
      if (now < b.pre_ok) return fail_until(b.pre_ok);
      b.open = false;
      b.act_ok = std::max(b.act_ok, now + t.tRP);
      last_cmd_ = now;
      invalidate_issue_cache();
      return true;
    }
    if (now < rank_busy_until_) return fail_until(rank_busy_until_);
    rank_busy_until_ = now + t.tRFC;
    next_ref_ += t.tREFI;
    last_cmd_ = now;
    invalidate_issue_cache();
    return true;
  }

  // Write drain when reads are absent or writes pile up.
  const bool drain_writes =
      read_queue_.empty() || write_queue_.size() >= cfg_.write_queue_depth - 4;
  auto& queue = drain_writes && !write_queue_.empty() ? write_queue_ : read_queue_;
  if (queue.empty()) return fail_until(next_ref_);

  // The FR-FCFS pick only depends on queue contents and bank open-row
  // state, both invariant since the last issued command / enqueue — reuse
  // the memoized pick on the (dominant) cycles where nothing could issue.
  const bool picking_writes = &queue == &write_queue_;
  if (cached_pick_ == kNpos || cached_pick_write_ != picking_writes) {
    cached_pick_ = pick_frfcfs(queue);
    cached_pick_write_ = picking_writes;
  }
  const std::size_t pick = cached_pick_;
  EASYDRAM_ENSURES(pick != kNpos);
  bool done = false;
  Picoseconds block_until{};
  if (!try_advance_request(queue[pick], now, done, block_until)) {
    // The pick unblocks at block_until; a refresh becoming due preempts it.
    return fail_until(std::min(block_until, next_ref_));
  }
  invalidate_issue_cache();
  if (done) queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
  last_cmd_ = now;
  return true;
}

void RamulatorSim::tick_memory(Picoseconds now) {
  // One command slot per DRAM cycle; a CPU tick is shorter than tCK, so a
  // single attempt per CPU tick saturates the command bus.
  issue_one_command(now);
}

RamStats RamulatorSim::run(cpu::TraceSource& trace) {
  stats_ = RamStats{};
  cpu::Cache llc(cfg_.llc);

  std::int64_t cycle = 0;
  std::uint64_t next_id = 1;
  // Outstanding reads/rowclones/profiles; each gets exactly one
  // completion, and stall_on_id is zeroed when its completion is
  // harvested, so a count replaces the old per-request unordered_set.
  std::size_t inflight = 0;
  std::int64_t stall_until = 0;
  std::uint64_t stall_on_id = 0;

  cpu::TraceRecord rec;
  bool have_rec = false;
  std::uint32_t gap_left = 0;
  bool trace_done = false;

  const auto enqueue_read = [&, this](const dram::DramAddress& a) {
    MemRequest r;
    r.id = next_id++;
    r.addr = a;
    r.seq = seq_++;
    read_queue_.push_back(r);
    invalidate_issue_cache();
    ++inflight;
    ++stats_.mem_reads;
    return r.id;
  };
  const auto enqueue_write = [&, this](const dram::DramAddress& a) {
    MemRequest r;
    r.id = next_id++;
    r.addr = a;
    r.is_write = true;
    r.seq = seq_++;
    write_queue_.push_back(r);
    invalidate_issue_cache();
    ++stats_.mem_writes;
  };

  // Exact incremental form of cpu_clock.cycles_to_ps(cycle): with
  // t(c) = floor((c * 1e12 + hz/2) / hz), consecutive values differ by
  // step_q or step_q + 1 depending on the running remainder — no 128-bit
  // multiply/divide per simulated cycle.
  const std::int64_t hz = cfg_.cpu_clock.hertz;
  EASYDRAM_EXPECTS(hz > 0);
  const std::int64_t step_q = 1'000'000'000'000 / hz;
  const std::int64_t step_r = 1'000'000'000'000 % hz;
  std::int64_t now_ps = 0;
  std::int64_t now_rem = hz / 2;

  int idle_guard = 0;
  while (true) {
    const Picoseconds now{now_ps};
    tick_memory(now);

    // Harvest ready completions (skipped until the earliest can be due).
    if (!completions_.empty() && earliest_completion_ <= now) {
      Picoseconds earliest{kNever};
      for (std::size_t i = 0; i < completions_.size();) {
        if (completions_[i].first <= now) {
          --inflight;
          if (stall_on_id == completions_[i].second) stall_on_id = 0;
          completions_[i] = completions_.back();
          completions_.pop_back();
        } else {
          if (completions_[i].first < earliest) earliest = completions_[i].first;
          ++i;
        }
      }
      earliest_completion_ = earliest;
    }

    bool progressed = false;
    // True when the retire stage is blocked on something only a *memory
    // event* can clear (full queue / MSHRs, a drain, or trace exhaustion)
    // — as opposed to a stall_until deadline, which expires with time.
    bool resource_blocked = false;
    std::uint32_t budget = cfg_.retire_width;
    while (budget > 0) {
      if (cycle < stall_until) break;
      if (stall_on_id != 0) break;

      if (!have_rec) {
        if (trace_done || stats_.instructions >= cfg_.max_instructions) {
          trace_done = true;
          resource_blocked = true;
          break;
        }
        have_rec = trace.next(rec, /*last_rowclone_ok=*/true);
        if (!have_rec) {
          trace_done = true;
          resource_blocked = true;
          break;
        }
        gap_left = rec.gap_instructions;
      }

      if (gap_left > 0) {
        const std::uint32_t spend = std::min(budget, gap_left);
        gap_left -= spend;
        budget -= spend;
        stats_.instructions += spend;
        progressed = true;
        continue;
      }

      const std::uint64_t line = rec.addr & ~std::uint64_t{63};
      bool consumed = true;
      switch (rec.op) {
        case cpu::Op::kLoad:
        case cpu::Op::kLoadDependent: {
          ++stats_.loads;
          if (llc.access(line)) {
            if (rec.op == cpu::Op::kLoadDependent) stall_until = cycle + cfg_.llc_latency;
            break;
          }
          ++stats_.llc_misses;
          if (inflight >= cfg_.mshrs ||
              read_queue_.size() >= cfg_.read_queue_depth ||
              write_queue_.size() >= cfg_.write_queue_depth) {
            --stats_.loads;
            --stats_.llc_misses;
            consumed = false;
            break;
          }
          const cpu::FillResult fill = llc.fill(line);
          if (fill.evicted && fill.evicted_dirty) enqueue_write(map(fill.evicted_line));
          const std::uint64_t id = enqueue_read(map(line));
          if (rec.op == cpu::Op::kLoadDependent) stall_on_id = id;
          break;
        }

        case cpu::Op::kStoreStream:  // The simple core has no streaming mode.
        case cpu::Op::kStore: {
          ++stats_.stores;
          if (llc.access_dirty(line)) break;
          ++stats_.llc_misses;
          if (inflight >= cfg_.mshrs ||
              read_queue_.size() >= cfg_.read_queue_depth ||
              write_queue_.size() >= cfg_.write_queue_depth) {
            --stats_.stores;
            --stats_.llc_misses;
            consumed = false;
            break;
          }
          const cpu::FillResult fill = llc.fill(line);
          if (fill.evicted && fill.evicted_dirty) enqueue_write(map(fill.evicted_line));
          enqueue_read(map(line));  // RFO, non-blocking.
          llc.mark_dirty(line);
          break;
        }

        case cpu::Op::kFlush: {
          if (write_queue_.size() >= cfg_.write_queue_depth) {
            consumed = false;
            break;
          }
          const cpu::Cache::FlushResult f = llc.flush(line);
          if (f.was_dirty) enqueue_write(map(line));
          break;
        }

        case cpu::Op::kRowClone: {
          if (read_queue_.size() >= cfg_.read_queue_depth) {
            consumed = false;
            break;
          }
          MemRequest r;
          r.id = next_id++;
          r.addr = map(rec.addr2 & ~std::uint64_t{63});
          r.is_rowclone = true;
          r.seq = seq_++;
          read_queue_.push_back(r);
          invalidate_issue_cache();
          ++inflight;
          stall_on_id = r.id;
          break;
        }

        case cpu::Op::kDrain: {
          if (inflight != 0 || !write_queue_.empty()) {
            consumed = false;
            break;
          }
          break;
        }

        case cpu::Op::kMarker:
          if (inflight != 0 || !write_queue_.empty()) {
            consumed = false;
            break;
          }
          stats_.markers.push_back(cycle);
          break;
      }

      if (!consumed) {
        resource_blocked = true;
        break;
      }
      ++stats_.instructions;
      --budget;
      have_rec = false;
      progressed = true;
    }

    ++cycle;
    now_ps += step_q;
    now_rem += step_r;
    if (now_rem >= hz) {
      now_rem -= hz;
      ++now_ps;
    }

    const auto run_finished = [&] {
      const bool memory_idle = inflight == 0 && read_queue_.empty() &&
                               write_queue_.empty() && completions_.empty();
      return trace_done && !have_rec && memory_idle && stall_on_id == 0 &&
             cycle >= stall_until;
    };
    if (run_finished()) break;

    // Fast-forward across provably inert stretches. When this cycle
    // retired nothing, the run is not finished (checked above), the
    // retire stage is still blocked *at the incremented cycle* (a
    // stall_until deadline may have just expired — then no skip), and the
    // memory side is blocked with a known retry horizon, every cycle
    // until the earliest of {issue retry, completion, stall release} is a
    // no-op: the retire stage can only be unblocked by one of those
    // events (stall_until elapsing, a completion clearing stall_on_id /
    // MSHRs / drains, or a command issuing to free queue space). Lands on
    // exactly the first cycle where an event can fire — and the finished
    // check re-runs there before the next body executes — so the
    // simulated timeline is bit-identical to single-stepping.
    if (!progressed && issue_retry_valid_ &&
        (stall_on_id != 0 || cycle < stall_until || resource_blocked)) {
      // First cycle c >= 0 with cycles_to_ps(c) >= x. cycles_to_ps(c) =
      // floor((c * 1e12 + hz/2) / hz) >= x  <=>  c * 1e12 >= x * hz - hz/2,
      // so c = ceil((x * hz - hz/2) / 1e12): one division per skip.
      const auto first_cycle_at = [hz](Picoseconds x) {
        const __int128 num = static_cast<__int128>(x.count) * hz - hz / 2;
        if (num <= 0) return std::int64_t{0};
        return static_cast<std::int64_t>((num + 1'000'000'000'000 - 1) /
                                         1'000'000'000'000);
      };
      std::int64_t target = first_cycle_at(issue_retry_at_);
      if (!completions_.empty()) {
        target = std::min(target, first_cycle_at(earliest_completion_));
      }
      if (cycle < stall_until) target = std::min(target, stall_until);
      if (target > cycle) {
        cycle = target;
        // now_ps = cycles_to_ps(cycle) and its remainder from one quotient.
        const __int128 num =
            static_cast<__int128>(cycle) * 1'000'000'000'000 + hz / 2;
        const __int128 q = num / hz;
        now_ps = static_cast<std::int64_t>(q);
        now_rem = static_cast<std::int64_t>(num - q * hz);
        // A stall_until-bounded skip can land exactly on the finish line;
        // single-stepping would break here without running another body.
        if (run_finished()) break;
      }
    }

    // Livelock guard: tolerate long stalls (memory latency, drains) but
    // abort if nothing moves for an implausible stretch.
    if (progressed || !completions_.empty()) {
      idle_guard = 0;
    } else {
      EASYDRAM_EXPECTS(++idle_guard < 10'000'000);
    }
  }

  stats_.cycles = cycle;
  return stats_;
}

}  // namespace easydram::ramulator
