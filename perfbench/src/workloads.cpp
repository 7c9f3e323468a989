// The three benchmark workloads. Each function runs one repetition: it
// generates its inputs from the seed, sets up, runs the measured phase and
// checks the modeled outputs. Work is processed one item (kernel, plan) at a
// time so at most one multi-million-record trace is alive; setup_s and run_s
// are the sums of the items' setup and measured phases.

#include <algorithm>
#include <array>
#include <climits>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "smc/rowclone_alloc.hpp"
#include "sys/system.hpp"
#include "workloads/copyinit.hpp"
#include "workloads/polybench.hpp"

namespace perfbench {
namespace {

using Scope = SpanRecorder::Scope;

double since_s(std::int64_t t0) { return ns_to_s(now_ns() - t0); }

/// Replays EasyDramSystem::run's end-of-workload step after the benchmark
/// ran its own core: a fresh core retires exactly `cycles * issue_width` filler
/// instructions and no memory operation, so run() advances the system to the
/// traced core's final cycle and drains exactly as the untraced run does.
void finish_run(sys::EasyDramSystem& sysm, std::int64_t cycles) {
  const std::uint64_t width = sysm.config().core.issue_width;
  const std::uint64_t max_chunk = (UINT32_MAX / width) * width;
  std::uint64_t left = static_cast<std::uint64_t>(cycles) * width;
  std::vector<cpu::TraceRecord> filler;
  while (left > 0) {
    const std::uint64_t chunk = std::min(left, max_chunk);
    cpu::TraceRecord r;
    r.op = cpu::Op::kDrain;
    r.gap_instructions = static_cast<std::uint32_t>(chunk - 1);
    filler.push_back(r);
    left -= chunk;
  }
  cpu::VectorTrace trace(std::move(filler));
  sysm.run(trace);
}

/// Runs `trace` to completion on `sysm`. Untraced, this is one
/// EasyDramSystem::run call timed from outside. Traced, the same steps go
/// through public calls the benchmark can time: a Core built from the system's
/// configuration runs against a TimedBackend, then finish_run() drains.
cpu::RunResult run_on_system(Context& ctx, sys::EasyDramSystem& sysm,
                             cpu::TraceSource& trace, Rep& rep,
                             const std::string& where) {
  const std::int64_t t0 = now_ns();
  cpu::RunResult r;
  if (ctx.rec == nullptr) {
    r = sysm.run(trace);
  } else {
    Scope run_span(ctx.rec, "sys.run");
    cpu::Core core(sysm.config().core, sysm.config().caches);
    IdLedger ids;
    TimedBackend backend(sysm, *ctx.rec, ids);
    {
      Scope core_span(ctx.rec, "cpu.Core::run");
      r = core.run(trace, backend);
    }
    {
      Scope drain_span(ctx.rec, "sys.drain");
      finish_run(sysm, r.cycles);
    }
    ids.settle(*ctx.check, where);
    rep.counts.l1_hits += core.l1().hits();
    rep.counts.l1_misses += core.l1().misses();
    rep.counts.l2_hits += core.l2().hits();
    rep.counts.l2_misses += core.l2().misses();
  }
  rep.easydram_s += since_s(t0);
  rep.counts.instructions += r.instructions;
  return r;
}

void add_run_delta(Counts& c, const smc::ApiStats& before, const smc::ApiStats& after) {
  c.requests += after.responses_sent - before.responses_sent;
  c.sched_picks += after.sched_picks - before.sched_picks;
  c.sched_entries_scanned += after.sched_entries_scanned - before.sched_entries_scanned;
  c.sched_row_hits += after.sched_row_hits - before.sched_row_hits;
  c.batches += after.batches_executed - before.batches_executed;
  c.commands += after.commands_executed - before.commands_executed;
  c.scrub_reads += after.scrub_reads - before.scrub_reads;
  c.setup_commands += before.commands_executed;
}

/// Invariants every EasyDRAM system must hold after its measured phase:
/// each of the `submitted` requests was received and answered exactly once,
/// none failed with an uncorrectable error, and on every channel the modeled
/// wall clock covers the DRAM interface's busy time.
void check_system(Context& ctx, sys::EasyDramSystem& sysm, std::int64_t submitted,
                  const smc::ApiStats& before, const smc::ApiStats& after,
                  const std::string& where) {
  Checker& check = *ctx.check;
  check.attempt(submitted);
  const std::int64_t received = after.requests_received - before.requests_received;
  const std::int64_t answered = after.responses_sent - before.responses_sent;
  if (received != submitted || answered != submitted) {
    check.fail(std::max<std::int64_t>(1, std::abs(submitted - answered)),
               where + ": submitted " + std::to_string(submitted) + ", received " +
                   std::to_string(received) + ", answered " + std::to_string(answered));
  }
  const std::int64_t errors = after.ecc_uncorrectable - before.ecc_uncorrectable;
  if (errors > 0) check.fail(errors, where + ": uncorrectable error completions");
  for (std::uint32_t ch = 0; ch < sysm.num_channels(); ++ch) {
    check.expect(sysm.keeper(ch).wall() >= sysm.api(ch).stats().dram_busy,
                 where + ": channel " + std::to_string(ch) + " wall < dram_busy");
  }
}

void relocate(std::vector<cpu::TraceRecord>& records, std::uint64_t offset) {
  for (cpu::TraceRecord& r : records) r.addr += offset;
}

// --- polybench_fig14 --------------------------------------------------------

}  // namespace

Rep run_polybench_fig14(Context& ctx) {
  Rep rep;
  Fingerprint fp;
  const auto names = workloads::fig13_names();
  for (std::size_t k = 0; k < names.size(); ++k) {
    const std::string name(names[k]);
    const std::int64_t s0 = now_ns();
    std::vector<cpu::TraceRecord> records;
    std::unique_ptr<sys::EasyDramSystem> sysm;
    {
      Scope setup_span(ctx.rec, "setup");
      {
        Scope gen_span(ctx.rec, "workloads.generate");
        records = workloads::generate_kernel(names[k]);
        // The seed places each kernel's arrays at a different row offset:
        // the same loop nest and cache behaviour, different banks and rows.
        relocate(records, (hash_mix(ctx.seed, k) % 64) * 8192);
      }
      rep.gen_s += since_s(s0);
      const std::int64_t c0 = now_ns();
      Scope ctor_span(ctx.rec, "sys.construct");
      sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
      cfg.variation.seed = ctx.seed;
      sysm = std::make_unique<sys::EasyDramSystem>(cfg);
      rep.construct_s += since_s(c0);
    }
    const std::int64_t r0 = now_ns();
    rep.setup_s += ns_to_s(r0 - s0);
    {
      Scope run_span(ctx.rec, "run");
      const smc::ApiStats before = sysm->smc_stats();
      cpu::SpanTrace trace(records);
      const cpu::RunResult r = run_on_system(ctx, *sysm, trace, rep, name);
      const smc::ApiStats after = sysm->smc_stats();
      check_system(ctx, *sysm, r.mem_reads + r.mem_writes + r.rowclones, before,
                   after, name);
      add_run_delta(rep.counts, before, after);
      fp.add(r);
      fp.add(after);
      fp.add(sysm->wall().count);

      const std::int64_t b0 = now_ns();
      Scope ram_span(ctx.rec, "ramulator.run");
      ramulator::RamulatorSim sim{ramulator::RamulatorConfig{}};
      cpu::SpanTrace ram_trace(records);
      const ramulator::RamStats s = sim.run(ram_trace);
      rep.ramulator_s += since_s(b0);
      rep.counts.ram_instructions += s.instructions;
      ctx.check->expect(s.instructions == r.instructions,
                        name + ": Ramulator retired a different instruction count");
      fp.add(s);
    }
    rep.run_s += since_s(r0);
  }
  rep.fingerprint = fp.value();
  return rep;
}

// --- rw_burst ---------------------------------------------------------------

namespace {

constexpr std::size_t kBurstOps = 400'000;
constexpr std::size_t kMaxReads = 16;   ///< Outstanding reads (closed loop).
constexpr std::size_t kMaxWrites = 32;  ///< Outstanding posted writes.
constexpr std::uint64_t kRandomLines = std::uint64_t{1} << 17;  ///< 8 MiB.

/// Seeded op stream: line address with bit 0 set for a write. About 2:1
/// reads to writes; about 3/4 of accesses continue a stride-64 stream (row
/// hits), 1/4 jump to a random line (row conflicts).
std::vector<std::uint64_t> make_burst(std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<std::uint64_t> ops(kBurstOps);
  std::uint64_t seq = (rng.next() % kRandomLines) * 64;
  for (std::uint64_t& op : ops) {
    const std::uint64_t r = rng.next();
    const bool write = r % 3 == 0;
    const bool random = ((r >> 32) & 3) == 0;
    const std::uint64_t addr =
        random ? (rng.next() % kRandomLines) * 64 : (seq = (seq + 64) % (kRandomLines * 64));
    op = addr | (write ? 1 : 0);
  }
  return ops;
}

/// Fixed-capacity FIFO of outstanding ids.
template <std::size_t N>
struct IdQueue {
  std::array<std::uint64_t, N> ids{};
  std::size_t head = 0, size = 0;
  bool full() const { return size == N; }
  void push(std::uint64_t id) { ids[(head + size++) % N] = id; }
  std::uint64_t pop() {
    const std::uint64_t id = ids[head];
    head = (head + 1) % N;
    --size;
    return id;
  }
};

}  // namespace

Rep run_rw_burst(Context& ctx) {
  Rep rep;
  const std::int64_t s0 = now_ns();
  std::vector<std::uint64_t> ops;
  std::unique_ptr<sys::EasyDramSystem> sysm;
  {
    Scope setup_span(ctx.rec, "setup");
    {
      Scope gen_span(ctx.rec, "workloads.generate");
      ops = make_burst(ctx.seed);
    }
    rep.gen_s = since_s(s0);
    const std::int64_t c0 = now_ns();
    Scope ctor_span(ctx.rec, "sys.construct");
    sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
    cfg.variation.seed = ctx.seed;
    cfg.geometry.channels = 4;
    cfg.mapping = smc::MappingKind::kChannelInterleaved;
    cfg.sched = smc::SchedulerKind::kFrfcfs;
    cfg.ecc.enabled = true;
    cfg.ecc.scrub = true;
    sysm = std::make_unique<sys::EasyDramSystem>(cfg);
    rep.construct_s = since_s(c0);
  }
  const std::int64_t r0 = now_ns();
  rep.setup_s = ns_to_s(r0 - s0);

  const smc::ApiStats before = sysm->smc_stats();
  IdLedger ids;
  std::int64_t now = 100;
  std::int64_t release_sum = 0;
  SpanRecorder* rec = ctx.rec;
  auto wait = [&](std::uint64_t id) {
    const std::int64_t t0 = rec != nullptr ? now_ns() : 0;
    const cpu::Completion c = sysm->wait(id);
    if (rec != nullptr) rec->record_call(Call::kWait, now_ns() - t0);
    ids.completed(id, c);
    release_sum += c.release_cycle;
    now = std::max(now, c.release_cycle + 1);
  };
  {
    Scope run_span(rec, "run");
    Scope burst_span(rec, "sys.burst");
    IdQueue<kMaxReads> reads;
    IdQueue<kMaxWrites> writes;
    for (const std::uint64_t op : ops) {
      const bool write = (op & 1) != 0;
      const std::uint64_t addr = op & ~std::uint64_t{1};
      if (write && writes.full()) wait(writes.pop());
      if (!write && reads.full()) wait(reads.pop());
      const std::int64_t t0 = rec != nullptr ? now_ns() : 0;
      const std::uint64_t id = write ? sysm->submit_write(addr, now)
                                     : sysm->submit_read(addr, now);
      if (rec != nullptr) rec->record_call(Call::kSubmit, now_ns() - t0);
      ids.submitted(id);
      if (write) {
        writes.push(id);
        ++rep.counts.writes;
      } else {
        reads.push(id);
        ++rep.counts.reads;
      }
      ++now;
    }
    while (reads.size > 0) wait(reads.pop());
    while (writes.size > 0) wait(writes.pop());
  }
  rep.run_s = since_s(r0);
  rep.easydram_s = rep.run_s;

  const smc::ApiStats after = sysm->smc_stats();
  const auto submitted = static_cast<std::int64_t>(ops.size());
  // One emulated memory instruction per op: the client is a load/store
  // stream with no compute between accesses.
  rep.counts.instructions = submitted;
  ids.settle(*ctx.check, "rw_burst");
  check_system(ctx, *sysm, submitted, before, after, "rw_burst");
  ctx.check->expect(after.ecc_escaped == 0, "rw_burst: ECC escapes");
  ctx.check->expect(after.ecc_uncorrectable == 0, "rw_burst: ECC uncorrectable");
  add_run_delta(rep.counts, before, after);
  rep.counts.ecc_reads = rep.counts.reads + rep.counts.scrub_reads;
  rep.counts.ecc_writes = rep.counts.writes;

  Fingerprint fp;
  fp.add(after);
  fp.add(sysm->wall().count);
  fp.add(release_sum);
  fp.add(now);
  rep.fingerprint = fp.value();
  return rep;
}

// --- rowclone_trcd ----------------------------------------------------------

namespace {

constexpr std::size_t kCloneRows = 1024;  ///< Rows per Copy/Init plan (8 MiB).
constexpr int kVerifyTrials = 8;
constexpr std::array<std::string_view, 4> kTrcdKernels{"gemver", "mvt", "gesummv",
                                                       "trisolv"};

/// Rows per bank a trace can touch under the line-interleaved mapping.
std::uint32_t footprint_rows_per_bank(const std::vector<cpu::TraceRecord>& trace,
                                      const dram::Geometry& geo) {
  std::uint64_t max_addr = 0;
  for (const auto& r : trace) max_addr = std::max(max_addr, r.addr);
  const std::uint64_t per_bank = (max_addr / 64 + 1) / geo.num_banks() + 1;
  return static_cast<std::uint32_t>(per_bank / geo.cols_per_row() + 2);
}

/// Runs one Copy/Init system: the CPU baseline or the RowClone variant.
void run_copyinit(Context& ctx, Rep& rep, Fingerprint& fp, sys::EasyDramSystem& sysm,
                  workloads::CopyInitParams params,
                  const std::vector<smc::CopyPlanEntry>& copy_plan,
                  const std::vector<smc::InitPlanEntry>& init_plan,
                  const std::string& where) {
  const std::int64_t g0 = now_ns();
  std::unique_ptr<workloads::CopyInitTrace> trace;
  {
    Scope gen_span(ctx.rec, "workloads.generate");
    trace = std::make_unique<workloads::CopyInitTrace>(params, sysm.mapper(),
                                                       copy_plan, init_plan);
  }
  rep.gen_s += since_s(g0);
  rep.setup_s += since_s(g0);

  const std::int64_t r0 = now_ns();
  Scope run_span(ctx.rec, "run");
  const smc::ApiStats before = sysm.smc_stats();
  const cpu::RunResult r = run_on_system(ctx, sysm, *trace, rep, where);
  const smc::ApiStats after = sysm.smc_stats();
  check_system(ctx, sysm, r.mem_reads + r.mem_writes + r.rowclones, before, after, where);
  ctx.check->expect(
      after.rowclone_successes - before.rowclone_successes + r.rowclone_fallbacks ==
          r.rowclones,
      where + ": RowClone successes + fallbacks != attempts");
  add_run_delta(rep.counts, before, after);
  fp.add(r);
  fp.add(after);
  fp.add(sysm.wall().count);
  rep.run_s += since_s(r0);
}

}  // namespace

Rep run_rowclone_trcd(Context& ctx) {
  Rep rep;
  Fingerprint fp;
  sys::SystemConfig ts = sys::jetson_nano_time_scaling();
  ts.variation.seed = ctx.seed;

  // Fig. 11 path: Copy and Init with CLFLUSH. The RowClone system verifies
  // and allocates its pairs; the CPU baseline reuses the same rows.
  for (const auto kind : {workloads::CopyInitParams::Kind::kCopy,
                          workloads::CopyInitParams::Kind::kInit}) {
    const bool copy = kind == workloads::CopyInitParams::Kind::kCopy;
    const std::string label = copy ? "copy" : "init";
    std::vector<smc::CopyPlanEntry> copy_plan;
    std::vector<smc::InitPlanEntry> init_plan;
    std::unique_ptr<sys::EasyDramSystem> rc_sys, cpu_sys;
    {
      const std::int64_t s0 = now_ns();
      Scope setup_span(ctx.rec, "setup");
      {
        Scope ctor_span(ctx.rec, "sys.construct");
        rc_sys = std::make_unique<sys::EasyDramSystem>(ts);
        cpu_sys = std::make_unique<sys::EasyDramSystem>(ts);
      }
      rep.construct_s += since_s(s0);
      const std::int64_t a0 = now_ns();
      {
        Scope alloc_span(ctx.rec, "smc.rowclone_alloc");
        smc::RowClonePairTester tester(rc_sys->api(), kVerifyTrials);
        smc::RowCloneAllocator alloc(rc_sys->api(), rc_sys->clone_map(), tester);
        if (copy) {
          copy_plan = alloc.plan_copy(kCloneRows);
        } else {
          init_plan = alloc.plan_init(kCloneRows);
          // Pattern rows are written once at setup, uncharged.
          const std::vector<std::uint8_t> pattern(rc_sys->device().geometry().row_bytes,
                                                  0xA5);
          for (const auto& e : init_plan) {
            for (auto* s : {rc_sys.get(), cpu_sys.get()}) {
              s->device().backdoor_write_row(e.pattern_src.bank, e.pattern_src.row,
                                             pattern);
            }
          }
        }
        rep.counts.rowclone_trials += tester.trials_run();
        rc_sys->enable_rowclone();
      }
      rep.rowclone_alloc_s += since_s(a0);
      rep.setup_s += since_s(s0);
    }
    workloads::CopyInitParams params;
    params.kind = kind;
    params.clflush = true;
    run_copyinit(ctx, rep, fp, *cpu_sys, params, copy_plan, init_plan, label + "/cpu");
    params.use_rowclone = true;
    run_copyinit(ctx, rep, fp, *rc_sys, params, copy_plan, init_plan, label + "/rowclone");
  }

  // Fig. 13 path: characterize weak rows, then run with reduced tRCD.
  const dram::Geometry geo;
  std::vector<std::uint32_t> banks(geo.num_banks());
  for (std::uint32_t b = 0; b < geo.num_banks(); ++b) banks[b] = b;
  sys::SystemConfig li = ts;
  li.mapping = smc::MappingKind::kLineInterleaved;
  for (const std::string_view kernel : kTrcdKernels) {
    const std::string name(kernel);
    const std::int64_t s0 = now_ns();
    std::vector<cpu::TraceRecord> records;
    std::unique_ptr<sys::EasyDramSystem> sysm;
    {
      Scope setup_span(ctx.rec, "setup");
      {
        Scope gen_span(ctx.rec, "workloads.generate");
        records = workloads::generate_kernel(kernel);
      }
      rep.gen_s += since_s(s0);
      const std::int64_t c0 = now_ns();
      {
        Scope ctor_span(ctx.rec, "sys.construct");
        sysm = std::make_unique<sys::EasyDramSystem>(li);
      }
      rep.construct_s += since_s(c0);
      const std::int64_t p0 = now_ns();
      Scope char_span(ctx.rec, "smc.trcd_characterize");
      const smc::WeakRowFilterStats st = sysm->characterize_and_install_weak_rows(
          banks, footprint_rows_per_bank(records, geo), Picoseconds{9000}, 1 << 17, 4);
      fp.add(st.rows_profiled);
      fp.add(st.weak_rows);
      rep.characterize_s += since_s(p0);
    }
    rep.setup_s += since_s(s0);

    const std::int64_t r0 = now_ns();
    Scope run_span(ctx.rec, "run");
    const smc::ApiStats before = sysm->smc_stats();
    cpu::SpanTrace trace(records);
    const cpu::RunResult r = run_on_system(ctx, *sysm, trace, rep, name + "/trcd");
    const smc::ApiStats after = sysm->smc_stats();
    check_system(ctx, *sysm, r.mem_reads + r.mem_writes + r.rowclones, before, after,
                 name + "/trcd");
    add_run_delta(rep.counts, before, after);
    rep.counts.bloom_reads += r.mem_reads;
    fp.add(r);
    fp.add(after);
    fp.add(sysm->wall().count);
    rep.run_s += since_s(r0);
  }
  rep.fingerprint = fp.value();
  return rep;
}

}  // namespace perfbench
