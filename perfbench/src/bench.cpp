#include "bench.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "sys/system.hpp"

namespace perfbench {

// --- SpanRecorder -----------------------------------------------------------

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string_view name) : rec_(rec) {
  if (rec_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  index_ = static_cast<std::int32_t>(rec_->spans_.size());
  rec_->spans_.push_back(s);
  rec_->open_.push_back(index_);
  rec_->spans_.back().start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  Span& s = rec_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  rec_->open_.pop_back();
  if (s.parent >= 0) {
    rec_->spans_[static_cast<std::size_t>(s.parent)].covered_ns += s.end_ns - s.start_ns;
  }
}

void SpanRecorder::record_call(Call kind, std::int64_t ns) {
  CallStats& c = calls_[static_cast<std::size_t>(kind)];
  ++c.count;
  c.total_ns += ns;
  if (c.samples_ns.size() < kMaxSamples) {
    c.samples_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(ns, UINT32_MAX)));
  }
  if (!open_.empty()) spans_[static_cast<std::size_t>(open_.back())].covered_ns += ns;
}

double SpanRecorder::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return ns_to_s(ns);
}

double SpanRecorder::self_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns - s.covered_ns;
  }
  return ns_to_s(ns);
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"self_us\":"
        << static_cast<double>(s.end_ns - s.start_ns - s.covered_ns) / 1e3 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- Checker / IdLedger -----------------------------------------------------

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(1, what);
}

void Checker::fail(std::int64_t n, const std::string& what) {
  failed_ += n;
  if (messages_.size() < 16) messages_.push_back(what);
}

void IdLedger::submitted(std::uint64_t id) {
  if (state_.empty()) first_ = id;
  if (id < first_) {
    ++duplicates_;  // Ids are handed out in increasing order; a lower one is reused.
    return;
  }
  const std::uint64_t off = id - first_;
  if (off >= state_.size()) state_.resize(off + 1, 0);
  if (state_[off] != 0) {
    ++duplicates_;
    return;
  }
  state_[off] = 1;
}

void IdLedger::completed(std::uint64_t id, const cpu::Completion& c) {
  if (c.error != RequestError::kNone) ++errors_;
  const std::uint64_t off = id - first_;
  if (id < first_ || off >= state_.size() || state_[off] == 0) {
    ++unknown_;
    return;
  }
  if (state_[off] == 2) {
    ++duplicates_;
    return;
  }
  state_[off] = 2;
}

void IdLedger::settle(Checker& check, const std::string& where) {
  std::int64_t lost = 0;
  for (const std::uint8_t s : state_) lost += s == 1 ? 1 : 0;
  if (lost > 0) check.fail(lost, where + ": " + std::to_string(lost) + " ids never completed");
  if (duplicates_ > 0) {
    check.fail(duplicates_, where + ": " + std::to_string(duplicates_) + " ids reused or completed twice");
  }
  if (unknown_ > 0) check.fail(unknown_, where + ": " + std::to_string(unknown_) + " completions of unknown ids");
  if (errors_ > 0) check.fail(errors_, where + ": " + std::to_string(errors_) + " error completions");
  *this = IdLedger{};
}

// --- TimedBackend -----------------------------------------------------------

void TimedBackend::set_stream(std::uint32_t stream) { sys_.set_stream(stream); }

template <typename F>
std::uint64_t TimedBackend::timed_submit(F&& f) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t id = f();
  rec_.record_call(Call::kSubmit, now_ns() - t0);
  ids_.submitted(id);
  return id;
}

std::uint64_t TimedBackend::submit_read(std::uint64_t paddr, std::int64_t now) {
  return timed_submit([&] { return sys_.submit_read(paddr, now); });
}

std::uint64_t TimedBackend::submit_write(std::uint64_t paddr, std::int64_t now) {
  return timed_submit([&] { return sys_.submit_write(paddr, now); });
}

std::uint64_t TimedBackend::submit_rowclone(std::uint64_t src, std::uint64_t dst,
                                            std::int64_t now) {
  return timed_submit([&] { return sys_.submit_rowclone(src, dst, now); });
}

std::uint64_t TimedBackend::submit_profile(std::uint64_t paddr, Picoseconds trcd,
                                           std::int64_t now) {
  return timed_submit([&] { return sys_.submit_profile(paddr, trcd, now); });
}

cpu::Completion TimedBackend::wait(std::uint64_t id) {
  const std::int64_t t0 = now_ns();
  const cpu::Completion c = sys_.wait(id);
  rec_.record_call(Call::kWait, now_ns() - t0);
  ids_.completed(id, c);
  return c;
}

// --- Fingerprint ------------------------------------------------------------

void Fingerprint::add(std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h_ ^= u & 0xFF;
    h_ *= 0x100000001b3ULL;
    u >>= 8;
  }
}

void Fingerprint::add(const cpu::RunResult& r) {
  for (const std::int64_t v :
       {r.cycles, r.instructions, r.loads, r.stores, r.l1_misses, r.l2_misses,
        r.mem_reads, r.mem_writes, r.rowclones, r.rowclone_fallbacks, r.flushes}) {
    add(v);
  }
  for (const std::int64_t m : r.markers) add(m);
}

void Fingerprint::add(const smc::ApiStats& s) {
  for (const std::int64_t v :
       {s.requests_received, s.responses_sent, s.batches_executed,
        s.commands_executed, s.rowclone_attempts, s.rowclone_successes,
        s.refreshes_issued, s.refreshes_skipped,
        static_cast<std::int64_t>(s.violations_seen), s.dram_busy.count,
        s.ecc_corrected, s.ecc_uncorrectable, s.scrub_reads, s.retries_issued,
        s.rows_retired, s.ecc_escaped, s.sched_picks, s.sched_row_hits,
        s.sched_row_conflicts, s.sched_entries_scanned}) {
    add(v);
  }
}

void Fingerprint::add(const ramulator::RamStats& s) {
  for (const std::int64_t v :
       {s.cycles, s.instructions, s.loads, s.stores, s.llc_misses, s.mem_reads,
        s.mem_writes, s.row_hits, s.row_misses, s.rowclones}) {
    add(v);
  }
  for (const std::int64_t m : s.markers) add(m);
}

}  // namespace perfbench
