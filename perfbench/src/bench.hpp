// Shared pieces of the benchmark program: host clock, the span recorder, the
// per-repetition record every workload fills, and the correctness ledger.
//
// Host time and modeled (emulated) time never mix here: every `_s`/`_ns`
// field is host time read from std::chrono::steady_clock, and modeled
// results only ever enter the fingerprint and the invariant checks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/backend.hpp"
#include "cpu/core.hpp"
#include "ramulator/ramulator.hpp"
#include "smc/easyapi.hpp"

namespace easydram::sys {
class EasyDramSystem;
}

namespace perfbench {

using namespace easydram;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --- Spans ------------------------------------------------------------------

/// Per-call layer boundaries crossed once per request. One span per call
/// would cost more memory than the workload itself, so these are folded
/// into counts, totals and a bounded sample of durations, and charged to
/// the enclosing span as covered (child) time.
enum class Call : std::uint8_t { kSubmit, kWait };
inline constexpr std::size_t kCallKinds = 2;

struct CallStats {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  /// First kMaxSamples call durations, for the percentiles.
  std::vector<std::uint32_t> samples_ns;
};

/// One timed interval: name, start, end and the span that caused it.
struct Span {
  std::string_view name;  ///< Always a string literal.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  /// Part of [start, end) covered by direct children (spans and calls).
  std::int64_t covered_ns = 0;
};

/// Records spans around the benchmark's calls into each layer. Spans stay
/// in memory; write_chrome_trace() writes them once, at exit. A layer's self
/// time is its spans' duration minus the time their children cover.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 21;

  /// Opens a span that closes when the guard leaves scope. A null recorder
  /// makes the guard a no-op, so workload code reads the same traced or not.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::int32_t index_ = -1;
  };

  void record_call(Call kind, std::int64_t ns);

  /// Sum over spans named `name` of their duration / their self time.
  double total_s(std::string_view name) const;
  double self_s(std::string_view name) const;
  const CallStats& calls(Call kind) const {
    return calls_[static_cast<std::size_t>(kind)];
  }
  std::size_t span_count() const { return spans_.size(); }

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::array<CallStats, kCallKinds> calls_{};
};

// --- Correctness ----------------------------------------------------------

/// Counts attempted operations and failures. A failure is an error
/// completion, an id that never completed or completed twice, or a broken
/// invariant; the first few are kept as messages for the report.
class Checker {
 public:
  void attempt(std::int64_t n) { attempted_ += n; }
  /// One invariant check: counts as one attempted operation.
  void expect(bool ok, const std::string& what);
  void fail(std::int64_t n, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Tracks every id the benchmark submits or observes: each must complete
/// exactly once and without a RequestError.
class IdLedger {
 public:
  void submitted(std::uint64_t id);
  void completed(std::uint64_t id, const cpu::Completion& c);
  /// Folds the ledger's failures into `check` (lost, duplicate and error
  /// completions) and resets it. The caller counts the attempts.
  void settle(Checker& check, const std::string& where);

 private:
  std::uint64_t first_ = 0;
  std::vector<std::uint8_t> state_;  ///< 0 unseen, 1 pending, 2 done.
  std::int64_t duplicates_ = 0;
  std::int64_t unknown_ = 0;
  std::int64_t errors_ = 0;
};

/// MemoryBackend decorator for the traced run: forwards every call to the
/// system unchanged and times it. It must never change the model; the
/// benchmark checks that by comparing modeled fingerprints.
class TimedBackend final : public cpu::MemoryBackend {
 public:
  TimedBackend(sys::EasyDramSystem& sys, SpanRecorder& rec, IdLedger& ids)
      : sys_(sys), rec_(rec), ids_(ids) {}

  void set_stream(std::uint32_t stream) override;
  std::uint64_t submit_read(std::uint64_t paddr, std::int64_t now) override;
  std::uint64_t submit_write(std::uint64_t paddr, std::int64_t now) override;
  std::uint64_t submit_rowclone(std::uint64_t src, std::uint64_t dst,
                                std::int64_t now) override;
  std::uint64_t submit_profile(std::uint64_t paddr, Picoseconds trcd,
                               std::int64_t now) override;
  cpu::Completion wait(std::uint64_t id) override;

 private:
  template <typename F>
  std::uint64_t timed_submit(F&& f);

  sys::EasyDramSystem& sys_;
  SpanRecorder& rec_;
  IdLedger& ids_;
};

// --- Fingerprint of the modeled outputs ------------------------------------

/// FNV-1a over modeled results only (never host time). Identical inputs
/// must give identical fingerprints in every repetition, traced or not.
class Fingerprint {
 public:
  void add(std::int64_t v);
  void add(const cpu::RunResult& r);
  void add(const smc::ApiStats& s);
  void add(const ramulator::RamStats& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- One repetition of a workload ------------------------------------------

/// Layer counts of one repetition's measured phase (setup excluded unless
/// the name says so). Deterministic for a given seed.
struct Counts {
  std::int64_t instructions = 0;      ///< Emulated instructions retired.
  std::int64_t requests = 0;          ///< Requests the EasyDRAM system completed.
  std::int64_t reads = 0;             ///< Reads the rw_burst client submitted.
  std::int64_t writes = 0;            ///< Writes the rw_burst client submitted.
  std::int64_t sched_picks = 0;
  std::int64_t sched_entries_scanned = 0;
  std::int64_t sched_row_hits = 0;
  std::int64_t batches = 0;
  std::int64_t commands = 0;
  std::int64_t setup_commands = 0;    ///< Bender commands run during setup.
  std::int64_t scrub_reads = 0;
  std::int64_t ecc_reads = 0;         ///< Lines decoded (ECC systems only).
  std::int64_t ecc_writes = 0;        ///< Lines encoded (ECC systems only).
  std::int64_t bloom_reads = 0;       ///< Reads on systems with a weak-row filter.
  std::int64_t rowclone_trials = 0;   ///< Pair-verification trials in setup.
  std::int64_t ram_instructions = 0;  ///< Instructions the Ramulator baseline ran.
  // Cache counters: only the traced run builds the cores, so only it sees them.
  std::int64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
};

struct Rep {
  double setup_s = 0;      ///< Host time before the measured phase.
  double run_s = 0;        ///< Host time of the measured phase.
  double easydram_s = 0;   ///< Host time inside EasyDRAM run/submit/wait calls.
  double ramulator_s = 0;  ///< Host time inside RamulatorSim::run.
  double gen_s = 0;        ///< Trace / op-stream generation (part of setup).
  double construct_s = 0;  ///< EasyDramSystem constructors (part of setup).
  double rowclone_alloc_s = 0;
  double characterize_s = 0;
  Counts counts;
  std::uint64_t fingerprint = 0;
};

/// Per-run context handed to every workload repetition.
struct Context {
  std::uint64_t seed = 0;
  SpanRecorder* rec = nullptr;  ///< Null for untraced repetitions.
  Checker* check = nullptr;
};

// Workloads (workloads.cpp). Each call runs one repetition: set up, then the
// measured phase, then the invariant checks.
Rep run_polybench_fig14(Context& ctx);
Rep run_rw_burst(Context& ctx);
Rep run_rowclone_trcd(Context& ctx);

// Isolated ns/op of the layers' public entry points (micro.cpp).
struct MicroResult {
  std::string_view name;
  double ns_per_op = 0;
};
std::vector<MicroResult> run_microbenchmarks(std::uint64_t seed);

}  // namespace perfbench
