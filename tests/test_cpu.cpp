#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "cpu/backend.hpp"
#include "cpu/cache.hpp"
#include "cpu/core.hpp"
#include "cpu/presets.hpp"
#include "cpu/trace.hpp"
#include "workloads/builder.hpp"
#include "workloads/copyinit.hpp"

namespace easydram::cpu {
namespace {

/// Fixed-latency memory backend: responses release `latency` cycles after
/// submission, with optional per-kind tracking for assertions.
class FixedLatencyBackend final : public MemoryBackend {
 public:
  explicit FixedLatencyBackend(std::int64_t latency) : latency_(latency) {}

  std::uint64_t submit_read(std::uint64_t paddr, std::int64_t now) override {
    reads.push_back(paddr);
    return remember(now);
  }
  std::uint64_t submit_write(std::uint64_t paddr, std::int64_t now) override {
    writes.push_back(paddr);
    return remember(now);
  }
  std::uint64_t submit_rowclone(std::uint64_t src, std::uint64_t dst,
                                std::int64_t now) override {
    rowclones.emplace_back(src, dst);
    return remember(now);
  }
  std::uint64_t submit_profile(std::uint64_t, Picoseconds, std::int64_t now) override {
    return remember(now);
  }

  void set_stream(std::uint32_t stream) override { streams.push_back(stream); }

  Completion wait(std::uint64_t id) override {
    return Completion{release_.at(id), rowclone_ok};
  }

  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> writes;
  /// (src, dst) of every RowClone, and every set_stream argument.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rowclones;
  std::vector<std::uint32_t> streams;
  bool rowclone_ok = true;

 private:
  std::uint64_t remember(std::int64_t now) {
    const std::uint64_t id = next_++;
    release_[id] = now + latency_;
    return id;
  }

  std::int64_t latency_;
  std::uint64_t next_ = 1;
  std::unordered_map<std::uint64_t, std::int64_t> release_;
};

CoreConfig tiny_core() {
  CoreConfig c;
  c.emulated_clock = Frequency::gigahertz(1);
  c.issue_width = 1;
  c.mlp = 2;
  c.store_buffer = 2;
  c.l1_latency = 2;
  c.l2_latency = 10;
  c.fill_to_use = 0;
  return c;
}

CacheHierConfig tiny_caches() {
  CacheHierConfig h;
  h.l1 = CacheConfig{1024, 2, 64};   // 16 lines.
  h.l2 = CacheConfig{4096, 4, 64};   // 64 lines.
  return h;
}

// --------------------------------------------------------------------------
// Cache unit tests
// --------------------------------------------------------------------------

TEST(CacheTest, HitAfterFill) {
  Cache c(CacheConfig{1024, 2, 64});
  EXPECT_FALSE(c.access(0));
  c.fill(0);
  EXPECT_TRUE(c.access(0));
  EXPECT_EQ(c.hits(), 1);
  EXPECT_EQ(c.misses(), 1);
}

TEST(CacheTest, LruEviction) {
  // 2-way, 8 sets: lines 0, 512, 1024 map to set 0 (stride 512 = 8 sets*64).
  Cache c(CacheConfig{1024, 2, 64});
  c.fill(0);
  c.fill(512);
  c.access(0);      // 0 is now MRU; 512 is LRU.
  const FillResult f = c.fill(1024);
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.evicted_line, 512u);
  EXPECT_TRUE(c.flush(0).was_present);
  EXPECT_FALSE(c.flush(512).was_present);
}

TEST(CacheTest, DirtyEvictionReported) {
  Cache c(CacheConfig{1024, 2, 64});
  c.fill(0);
  c.mark_dirty(0);
  c.fill(512);
  const FillResult f = c.fill(1024);  // Evicts 0 (LRU).
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.evicted_line, 0u);
  EXPECT_TRUE(f.evicted_dirty);
}

TEST(CacheTest, FlushReportsDirtyAndInvalidates) {
  Cache c(CacheConfig{1024, 2, 64});
  c.fill(64);
  c.mark_dirty(64);
  const Cache::FlushResult f = c.flush(64);
  EXPECT_TRUE(f.was_present);
  EXPECT_TRUE(f.was_dirty);
  const Cache::FlushResult f2 = c.flush(64);
  EXPECT_FALSE(f2.was_present);
}

TEST(CacheTest, AccessDirtyMarksHitsOnly) {
  Cache c(CacheConfig{1024, 2, 64});
  // A miss changes nothing but the miss counter: no allocation, no dirt.
  EXPECT_FALSE(c.access_dirty(0));
  EXPECT_FALSE(c.flush(0).was_present);
  EXPECT_EQ(c.misses(), 1);
  c.fill(0);
  c.fill(512);
  // A hit marks the line dirty and refreshes its LRU stamp like access().
  EXPECT_TRUE(c.access_dirty(0));
  EXPECT_EQ(c.hits(), 1);
  const FillResult f = c.fill(1024);  // Evicts 512 (LRU), which is clean.
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.evicted_line, 512u);
  EXPECT_FALSE(f.evicted_dirty);
  const Cache::FlushResult fl = c.flush(0);
  EXPECT_TRUE(fl.was_present);
  EXPECT_TRUE(fl.was_dirty);
}

TEST(CacheTest, MisalignedLineRejected) {
  Cache c(CacheConfig{1024, 2, 64});
  EXPECT_THROW(c.access(3), ContractViolation);
}

TEST(CacheTest, MarkDirtyOnAbsentLineRejected) {
  Cache c(CacheConfig{1024, 2, 64});
  EXPECT_THROW(c.mark_dirty(0), ContractViolation);
}

struct CacheGeom {
  std::uint64_t size;
  std::uint32_t ways;
};

class CacheGeometry : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(CacheGeometry, WorkingSetLargerThanCacheAlwaysEvicts) {
  const auto [size, ways] = GetParam();
  Cache c(CacheConfig{size, ways, 64});
  const std::uint64_t lines = size / 64;
  // Touch 2x capacity sequentially: second pass cannot be all hits.
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    if (!c.access(i * 64)) c.fill(i * 64);
  }
  std::int64_t hits = 0;
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    if (c.access(i * 64)) ++hits;
  }
  EXPECT_LT(hits, static_cast<std::int64_t>(2 * lines));
  // And capacity is respected: at most `lines` lines present.
  std::int64_t present = 0;
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    if (c.flush(i * 64).was_present) ++present;
  }
  EXPECT_LE(present, static_cast<std::int64_t>(lines));
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(CacheGeom{1024, 2}, CacheGeom{4096, 4},
                                           CacheGeom{32768, 4}, CacheGeom{65536, 8},
                                           CacheGeom{131072, 16}));

// --------------------------------------------------------------------------
// Core timing model
// --------------------------------------------------------------------------

std::vector<TraceRecord> loads(std::initializer_list<std::uint64_t> addrs,
                               Op op = Op::kLoad, std::uint32_t gap = 0) {
  std::vector<TraceRecord> v;
  for (const std::uint64_t a : addrs) {
    TraceRecord r;
    r.op = op;
    r.addr = a;
    r.gap_instructions = gap;
    v.push_back(r);
  }
  return v;
}

TEST(CoreTest, PureComputeRunsAtIssueWidth) {
  CoreConfig cfg = tiny_core();
  cfg.issue_width = 2;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t(1, TraceRecord{});
  t[0].op = Op::kMarker;
  t[0].gap_instructions = 999;  // 1000 instructions total.
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.instructions, 1000);
  EXPECT_EQ(r.cycles, 500);
}

TEST(CoreTest, IssueWidthIsAPowerOfTwoAndCarriesRemainders) {
  for (const std::uint32_t bad : {0u, 3u, 6u}) {
    CoreConfig cfg = tiny_core();
    cfg.issue_width = bad;
    EXPECT_THROW(Core(cfg, tiny_caches()), ContractViolation) << bad;
  }
  CoreConfig cfg = tiny_core();
  cfg.issue_width = 4;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  // 3 then 5 instructions: 0 cycles with 3 left over, then (5 + 3) / 4.
  std::vector<TraceRecord> t(2, TraceRecord{});
  t[0].op = t[1].op = Op::kMarker;
  t[0].gap_instructions = 2;
  t[1].gap_instructions = 4;
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.instructions, 8);
  EXPECT_EQ(r.cycles, 2);
}

TEST(CoreTest, DependentMissExposesFullLatency) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(100);
  VectorTrace trace(loads({0}, Op::kLoadDependent));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 100);
  EXPECT_EQ(r.l2_misses, 1);
  EXPECT_EQ(mem.reads.size(), 1u);
}

TEST(CoreTest, IndependentMissesOverlap) {
  CoreConfig cfg = tiny_core();
  cfg.mlp = 4;
  Core overlap(cfg, tiny_caches());
  FixedLatencyBackend mem1(100);
  VectorTrace t1(loads({0, 4096, 8192, 12288}));
  const RunResult r_overlap = overlap.run(t1, mem1);

  Core serial(tiny_core(), tiny_caches());  // Same but dependent loads.
  FixedLatencyBackend mem2(100);
  VectorTrace t2(loads({0, 4096, 8192, 12288}, Op::kLoadDependent));
  const RunResult r_serial = serial.run(t2, mem2);

  EXPECT_LT(r_overlap.cycles, r_serial.cycles / 2);
}

TEST(CoreTest, MlpLimitSerializes) {
  CoreConfig narrow = tiny_core();
  narrow.mlp = 1;
  Core core(narrow, tiny_caches());
  FixedLatencyBackend mem(100);
  VectorTrace trace(loads({0, 4096, 8192, 12288}));
  const RunResult r = core.run(trace, mem);
  // Four misses at MLP 1: at least 3 full latencies are exposed.
  EXPECT_GE(r.cycles, 300);
}

TEST(CoreTest, L1HitsAreCheapForDependentLoads) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(100);
  // Load the same line repeatedly: one miss, then L1 hits at 2 cycles.
  std::vector<TraceRecord> t = loads({0}, Op::kLoadDependent);
  for (int i = 0; i < 10; ++i) {
    const auto more = loads({0}, Op::kLoadDependent);
    t.insert(t.end(), more.begin(), more.end());
  }
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.l1_misses, 1);
  EXPECT_LT(r.cycles, 100 + 11 * 4);
}

TEST(CoreTest, StoresArePostedThroughStoreBuffer) {
  CoreConfig cfg = tiny_core();
  cfg.store_buffer = 8;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t;
  for (int i = 0; i < 8; ++i) {
    TraceRecord r;
    r.op = Op::kStore;
    // Distinct sets (stride 64) so tiny-cache conflicts cause no extra
    // writebacks that would occupy store-buffer slots.
    r.addr = static_cast<std::uint64_t>(i) * 64;
    t.push_back(r);
  }
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  // All 8 RFOs fit in the store buffer: the core never stalls on them
  // until the final drain.
  EXPECT_LE(r.cycles, 100 + 16);
  EXPECT_EQ(mem.reads.size(), 8u);  // RFOs are reads.
}

TEST(CoreTest, FullStoreBufferStalls) {
  CoreConfig cfg = tiny_core();
  cfg.store_buffer = 1;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t;
  for (int i = 0; i < 4; ++i) {
    TraceRecord r;
    r.op = Op::kStore;
    r.addr = static_cast<std::uint64_t>(i) * 4096;
    t.push_back(r);
  }
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 300);
}

TEST(CoreTest, BlockingLoadsConfigSerializesEverything) {
  CoreConfig cfg = tiny_core();
  cfg.blocking_loads = true;
  cfg.mlp = 8;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(50);
  VectorTrace trace(loads({0, 4096, 8192}));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 150);
}

TEST(CoreTest, DirtyEvictionsWriteBack) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  std::vector<TraceRecord> t;
  // Dirty many distinct lines so L2 (64 lines) must evict dirty victims.
  for (int i = 0; i < 200; ++i) {
    TraceRecord r;
    r.op = Op::kStore;
    r.addr = static_cast<std::uint64_t>(i) * 64;
    t.push_back(r);
  }
  VectorTrace trace(std::move(t));
  core.run(trace, mem);
  EXPECT_GT(mem.writes.size(), 0u);
}

TEST(CoreTest, FlushWritesBackDirtyLine) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  std::vector<TraceRecord> t;
  TraceRecord st;
  st.op = Op::kStore;
  st.addr = 0;
  t.push_back(st);
  TraceRecord fl;
  fl.op = Op::kFlush;
  fl.addr = 0;
  t.push_back(fl);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.flushes, 1);
  ASSERT_EQ(mem.writes.size(), 1u);
  EXPECT_EQ(mem.writes[0], 0u);
}

TEST(CoreTest, FlushOfCleanLineDoesNotWriteBack) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  std::vector<TraceRecord> t = loads({0});
  TraceRecord fl;
  fl.op = Op::kFlush;
  fl.addr = 0;
  t.push_back(fl);
  VectorTrace trace(std::move(t));
  core.run(trace, mem);
  EXPECT_EQ(mem.writes.size(), 0u);
}

TEST(CoreTest, RowCloneFeedbackReachesTrace) {
  /// Trace source that emits one rowclone then reports the feedback.
  class FeedbackProbe final : public TraceSource {
   public:
    const TraceRecord* next(bool last_rowclone_ok) override {
      switch (step_++) {
        case 0:
          rec_ = TraceRecord{0, 2, 0, Op::kRowClone};
          return &rec_;
        case 1:
          rec_ = TraceRecord{8192, 0, 0, Op::kRowCloneDst};
          return &rec_;
        default:
          if (step_ == 3) saw_ok = last_rowclone_ok;
          return nullptr;
      }
    }
    int step_ = 0;
    bool saw_ok = true;

   private:
    TraceRecord rec_;
  };

  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  mem.rowclone_ok = false;
  FeedbackProbe trace;
  const RunResult r = core.run(trace, mem);
  EXPECT_FALSE(trace.saw_ok);
  EXPECT_EQ(r.rowclones, 1);
  EXPECT_EQ(r.rowclone_fallbacks, 1);
}

// --------------------------------------------------------------------------
// Trace record round trips: every field the core reads reaches the backend
// unchanged.
// --------------------------------------------------------------------------

TEST(TraceRecordTest, RowCloneAddressesReachBackendUnchanged) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  TraceRecord rc;
  rc.op = Op::kRowClone;
  rc.addr = 0x0123'4567'89AB'CDC0;
  TraceRecord dst;
  dst.op = Op::kRowCloneDst;
  dst.addr = 0xFEDC'BA98'7654'3200;
  VectorTrace trace(std::vector<TraceRecord>{rc, dst});
  core.run(trace, mem);
  ASSERT_EQ(mem.rowclones.size(), 1u);
  EXPECT_EQ(mem.rowclones[0].first, rc.addr);
  EXPECT_EQ(mem.rowclones[0].second, dst.addr);
}

TEST(TraceRecordTest, StreamReachesBackendUnchanged) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  TraceRecord ld;
  ld.op = Op::kLoad;
  ld.stream = 4097;
  VectorTrace trace(std::vector<TraceRecord>{ld});
  core.run(trace, mem);
  // The core resets the backend to stream 0, then switches once.
  EXPECT_EQ(mem.streams, (std::vector<std::uint32_t>{0, 4097}));
  EXPECT_EQ(mem.reads.size(), 1u);
}

TEST(TraceRecordTest, VectorAndSpanReplaysAgree) {
  std::vector<TraceRecord> t;
  const Op ops[] = {Op::kLoad,        Op::kLoadDependent, Op::kStore,
                    Op::kStoreStream, Op::kFlush,         Op::kRowClone,
                    Op::kDrain,       Op::kMarker};
  for (std::uint32_t i = 0; i < 200; ++i) {
    TraceRecord r;
    r.op = ops[i % std::size(ops)];
    r.gap_instructions = i % 7;
    r.addr = (i * 4160ull) % (64 * 1024);  // Line-aligned, within 64 KiB.
    r.stream = static_cast<std::uint16_t>(i / 50);
    t.push_back(r);
    if (r.op == Op::kRowClone) {
      t.push_back(TraceRecord{r.addr + 8192, 0, 0, Op::kRowCloneDst});
    }
  }

  Core span_core(tiny_core(), tiny_caches());
  FixedLatencyBackend span_mem(30);
  SpanTrace span(t);
  const RunResult from_span = span_core.run(span, span_mem);

  Core vec_core(tiny_core(), tiny_caches());
  FixedLatencyBackend vec_mem(30);
  VectorTrace vec(t);
  const RunResult from_vector = vec_core.run(vec, vec_mem);

  EXPECT_EQ(from_vector, from_span);
  EXPECT_EQ(from_vector.rowclones, 25);
  EXPECT_EQ(from_vector.markers.size(), 25u);
  EXPECT_EQ(vec_mem.reads, span_mem.reads);
  EXPECT_EQ(vec_mem.writes, span_mem.writes);
  EXPECT_EQ(vec_mem.rowclones, span_mem.rowclones);
  EXPECT_EQ(vec_mem.streams, span_mem.streams);
}

TEST(TraceRecordTest, BuilderRowClonePairRetiresAsOneStep) {
  workloads::TraceBuilder b(1);
  b.load(0);
  b.rowclone(8192, 16384);
  b.load(64);
  const std::vector<TraceRecord> t = b.take();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1].op, Op::kRowClone);
  EXPECT_EQ(t[2].op, Op::kRowCloneDst);
  EXPECT_EQ(t[2].addr, 16384u);

  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  VectorTrace trace(t);
  const RunResult r = core.run(trace, mem);
  ASSERT_EQ(mem.rowclones.size(), 1u);
  EXPECT_EQ(mem.rowclones[0].first, 8192u);
  EXPECT_EQ(mem.rowclones[0].second, 16384u);

  // The operand retires nothing: three records' worth of instructions
  // (gaps 1, 2, 1 plus one each) and cycles = load issue (2) + clone issue
  // (3) + trigger (600) + clone latency (10) + load issue (2) + that
  // load's latency (10).
  RunResult want;
  want.cycles = 2 + 3 + 600 + 10 + 2 + 10;
  want.instructions = 7;
  want.loads = 2;
  want.l1_misses = 2;
  want.l2_misses = 2;
  want.mem_reads = 2;
  want.rowclones = 1;
  EXPECT_EQ(r, want);
}

TEST(TraceRecordTest, RowCloneOperandOutOfPlaceIsContractViolation) {
  const TraceRecord load{0, 0, 0, Op::kLoad};
  const TraceRecord clone{0, 2, 0, Op::kRowClone};
  const TraceRecord dst{8192, 0, 0, Op::kRowCloneDst};
  const std::vector<std::vector<TraceRecord>> bad = {
      {dst},                      // Stray: no kRowClone before it.
      {load, dst},                // Stray after another op.
      {clone, dst, dst},          // Trailing: a second operand.
      {clone, load},              // Missing: another op follows.
      {clone},                    // Missing: the trace ends.
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    Core core(tiny_core(), tiny_caches());
    FixedLatencyBackend mem(10);
    VectorTrace trace(bad[i]);
    EXPECT_THROW(core.run(trace, mem), ContractViolation) << "case " << i;
  }
}

TEST(CoreTest, CopyInitFallbackSeesRowCloneFeedback) {
  // A generator that reacts to RowClone outcomes must see each clone's
  // result on the call after its operand, through the real core.
  const dram::Geometry geo;
  const smc::LinearMapper mapper(geo);
  auto run = [&](bool clone_ok) {
    std::vector<smc::CopyPlanEntry> plan(2);
    for (std::uint32_t i = 0; i < 2; ++i) {
      plan[i].src = smc::RowRef{0, 2 * i};
      plan[i].dst = smc::RowRef{0, 2 * i + 1};
      plan[i].use_rowclone = true;
    }
    workloads::CopyInitParams p;
    p.use_rowclone = true;
    workloads::CopyInitTrace trace(p, mapper, std::move(plan), {});
    Core core(tiny_core(), tiny_caches());
    FixedLatencyBackend mem(10);
    mem.rowclone_ok = clone_ok;
    const RunResult r = core.run(trace, mem);
    EXPECT_EQ(mem.rowclones.size(), 2u);
    for (std::uint32_t i = 0; i < mem.rowclones.size(); ++i) {
      EXPECT_EQ(mem.rowclones[i].first,
                mapper.to_physical(dram::DramAddress{0, 2 * i, 0}));
      EXPECT_EQ(mem.rowclones[i].second,
                mapper.to_physical(dram::DramAddress{0, 2 * i + 1, 0}));
    }
    return r;
  };
  const RunResult ok = run(true);
  EXPECT_EQ(ok.rowclones, 2);
  EXPECT_EQ(ok.rowclone_fallbacks, 0);
  EXPECT_EQ(ok.loads, 0);
  const std::int64_t cols = dram::Geometry{}.cols_per_row();
  const RunResult failed = run(false);
  EXPECT_EQ(failed.rowclones, 2);
  EXPECT_EQ(failed.rowclone_fallbacks, 2);
  EXPECT_EQ(failed.loads, 2 * cols);  // Both rows redone by the CPU.
  EXPECT_EQ(failed.stores, 2 * cols);
}

TEST(CoreTest, MarkersSnapshotCycles) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t;
  TraceRecord m;
  m.op = Op::kMarker;
  t.push_back(m);
  const auto l = loads({0}, Op::kLoadDependent);
  t.insert(t.end(), l.begin(), l.end());
  t.push_back(m);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  ASSERT_EQ(r.markers.size(), 2u);
  EXPECT_GE(r.markers[1] - r.markers[0], 100);
}

TEST(CoreTest, DrainWaitsForAllOutstanding) {
  CoreConfig cfg = tiny_core();
  cfg.mlp = 4;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(500);
  std::vector<TraceRecord> t = loads({0, 4096});
  TraceRecord d;
  d.op = Op::kDrain;
  t.push_back(d);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 500);
}

TEST(CoreTest, PresetsAreInternallyConsistent) {
  EXPECT_TRUE(pidram_inorder_core().blocking_loads);
  EXPECT_EQ(pidram_inorder_core().emulated_clock, Frequency::megahertz(50));
  EXPECT_EQ(cortex_a57_core().emulated_clock.hertz, 1'430'000'000);
  EXPECT_GT(jetson_nano_caches().l2.size_bytes, easydram_caches().l2.size_bytes);
}

}  // namespace
}  // namespace easydram::cpu
