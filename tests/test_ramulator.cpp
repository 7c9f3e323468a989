#include <gtest/gtest.h>

#include <vector>

#include "ramulator/ramulator.hpp"
#include "workloads/builder.hpp"

namespace easydram::ramulator {
namespace {

using namespace easydram::literals;

RamulatorConfig small_cfg() {
  RamulatorConfig cfg;
  cfg.llc = cpu::CacheConfig{16 * 1024, 4, 64};  // Small LLC for miss tests.
  return cfg;
}

TEST(RamulatorTest, PureComputeRetiresAtWidth) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  b.compute(4000);
  b.load(0);  // Single access carrying the gap.
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.instructions, 4003);
  // 4-wide retire: at least 1000 cycles, and memory adds a bounded tail.
  EXPECT_GE(s.cycles, 1000);
  EXPECT_LE(s.cycles, 3000);
}

TEST(RamulatorTest, LlcHitsAvoidMemory) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 8; ++i) b.load(static_cast<std::uint64_t>(i) * 64);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.mem_reads, 8);  // Only cold misses.
  EXPECT_EQ(s.loads, 80);
}

TEST(RamulatorTest, DependentLoadsExposeDramLatency) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  // 128 KiB stride: same bank, a new row each time (line-interleaved map),
  // so every access pays the full PRE+ACT+RD path.
  for (int i = 0; i < 20; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 128 * 1024);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  // Each row-miss access: >= tRCD+tCL+tBL ~ 33 ns ~ 105 CPU cycles at 3.2 GHz.
  EXPECT_GE(s.cycles, 20 * 100);
  EXPECT_EQ(s.llc_misses, 20);
  EXPECT_GE(s.row_misses, 20);
}

TEST(RamulatorTest, RowHitsAreCounted) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  // Sequential lines within one DRAM row of one bank: line-interleaved
  // mapping sends consecutive lines to different banks, so use stride
  // 16*64 to stay in bank 0 and walk its columns.
  for (int i = 0; i < 32; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 16 * 64);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_GT(s.row_hits, 20);
}

TEST(RamulatorTest, RowCloneIsIdealized) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.rowclone(static_cast<std::uint64_t>(2 * i) * 8192,
               static_cast<std::uint64_t>(2 * i + 1) * 8192);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.rowclones, 10);
  // Each idealized clone costs ~2 tCK + tRAS + tRP plus the fixed
  // request-path overhead (~350 ns total); ten clones finish in ~3.5 us.
  EXPECT_LT(s.cycles, 20'000);
}

TEST(RamulatorTest, InstructionCapStopsSimulation) {
  RamulatorConfig cfg = small_cfg();
  cfg.max_instructions = 1000;
  RamulatorSim sim(cfg);
  workloads::TraceBuilder b;
  for (int i = 0; i < 10000; ++i) b.load(static_cast<std::uint64_t>(i % 8) * 64);
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_LE(s.instructions, 1005);
}

TEST(RamulatorTest, Deterministic) {
  auto once = [] {
    RamulatorSim sim(small_cfg());
    workloads::TraceBuilder b;
    for (int i = 0; i < 500; ++i) {
      b.load(static_cast<std::uint64_t>(i) * 512);
      b.store(static_cast<std::uint64_t>(i) * 512 + 64);
    }
    cpu::VectorTrace t(b.take());
    return sim.run(t).cycles;
  };
  EXPECT_EQ(once(), once());
}

TEST(RamulatorTest, MarkersCaptured) {
  RamulatorSim sim(small_cfg());
  std::vector<cpu::TraceRecord> recs;
  cpu::TraceRecord m;
  m.op = cpu::Op::kMarker;
  recs.push_back(m);
  cpu::TraceRecord l;
  l.op = cpu::Op::kLoadDependent;
  l.addr = 4096;
  recs.push_back(l);
  recs.push_back(m);
  cpu::VectorTrace t(std::move(recs));
  const RamStats s = sim.run(t);
  ASSERT_EQ(s.markers.size(), 2u);
  EXPECT_GT(s.markers[1], s.markers[0]);
}

TEST(RamulatorTest, ReducedTrcdSpeedsUpRowMisses) {
  workloads::TraceBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 4096);
  }
  const auto recs = b.take();

  RamulatorSim nominal(small_cfg());
  cpu::VectorTrace t1(recs);
  const RamStats s1 = nominal.run(t1);

  RamulatorConfig fast_cfg = small_cfg();
  fast_cfg.trcd_of = [](std::uint32_t, std::uint32_t) { return 9_ns; };
  RamulatorSim fast(fast_cfg);
  cpu::VectorTrace t2(recs);
  const RamStats s2 = fast.run(t2);

  EXPECT_LT(s2.cycles, s1.cycles);
}

TEST(RamulatorTest, WritebacksHappenUnderCapacityPressure) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  for (int i = 0; i < 2000; ++i) b.store(static_cast<std::uint64_t>(i) * 64);
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_GT(s.mem_writes, 100);
}

// --------------------------------------------------------------------------
// Pinned outputs. Every RamStats field of three synthetic runs, recorded at
// commit e07753a (before the flat cache and the one-division fast-forward)
// by running these exact traces. The golden scenarios cover Ramulator only
// through digests of whole documents; these pin it directly, so a host-speed
// change to the LLC lookups, the retire loop or the fast-forward that moves
// any count or cycle fails here with the field named.
// --------------------------------------------------------------------------

void expect_stats(const RamStats& s, const RamStats& want) {
  EXPECT_EQ(s.cycles, want.cycles);
  EXPECT_EQ(s.instructions, want.instructions);
  EXPECT_EQ(s.loads, want.loads);
  EXPECT_EQ(s.stores, want.stores);
  EXPECT_EQ(s.llc_misses, want.llc_misses);
  EXPECT_EQ(s.mem_reads, want.mem_reads);
  EXPECT_EQ(s.mem_writes, want.mem_writes);
  EXPECT_EQ(s.row_hits, want.row_hits);
  EXPECT_EQ(s.row_misses, want.row_misses);
  EXPECT_EQ(s.rowclones, want.rowclones);
  EXPECT_EQ(s.markers, want.markers);
}

cpu::TraceRecord marker() {
  cpu::TraceRecord m;
  m.op = cpu::Op::kMarker;
  return m;
}

TEST(RamulatorTest, PinnedLoadsUnderCapacityPressure) {
  // Two passes streaming 64 KiB through the 16 KiB LLC, interleaved with
  // a hot 4 KiB block (one line per set) that keeps hitting, every other
  // hot access dependent, plus a strided stream that conflicts in the
  // banks and compute gaps.
  workloads::TraceBuilder b;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < 1024; ++i) {
      b.load(i * 64);
      if (i % 2 == 0) {
        b.load_dependent((1 << 20) + (i % 64) * 64, 3);
      } else {
        b.load((1 << 20) + (i % 64) * 64);
      }
      if (i % 16 == 0) b.load((i * 4099 % 1024) * 8192 + 8 * 1024 * 1024);
      if (i % 64 == 0) b.compute(97);
    }
  }
  RamulatorSim sim(small_cfg());
  cpu::VectorTrace t(b.take());
  const RamStats want{
      .cycles = 78327,
      .instructions = 16800,
      .loads = 4224,
      .stores = 0,
      .llc_misses = 2271,
      .mem_reads = 2271,
      .mem_writes = 0,
      .row_hits = 2271,
      .row_misses = 321,
      .rowclones = 0,
      .markers = {}};
  expect_stats(sim.run(t), want);
}

TEST(RamulatorTest, PinnedStoresFlushesAndDrain) {
  // Stores over 48 KiB (dirty evictions), store hits on a hot 2 KiB
  // block, flushes of dirty and clean lines, a drain, then loads back.
  workloads::TraceBuilder b;
  for (std::uint64_t i = 0; i < 768; ++i) {
    b.store(i * 64);
    if (i % 8 == 0) b.store((i % 32) * 64);
  }
  for (std::uint64_t i = 0; i < 768; i += 3) b.flush(i * 64);
  b.drain();
  for (std::uint64_t i = 0; i < 256; ++i) {
    b.load(i * 128, 5);
    if (i % 5 == 0) b.store(i * 128 + 64);
  }
  b.drain();
  RamulatorSim sim(small_cfg());
  cpu::VectorTrace t(b.take());
  const RamStats want{
      .cycles = 37096,
      .instructions = 4798,
      .loads = 256,
      .stores = 916,
      .llc_misses = 1074,
      .mem_reads = 1074,
      .mem_writes = 696,
      .row_hits = 1770,
      .row_misses = 32,
      .rowclones = 0,
      .markers = {}};
  expect_stats(sim.run(t), want);
}

TEST(RamulatorTest, PinnedRowCloneAndMarkers) {
  // Measurement windows around RowClone bursts, with loads of the copied
  // rows in between so clones and column accesses share banks.
  std::vector<cpu::TraceRecord> recs;
  for (int window = 0; window < 3; ++window) {
    recs.push_back(marker());
    workloads::TraceBuilder w;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const std::uint64_t src = (2 * i + 16 * window) * 8192;
      w.rowclone(src, src + 8192);
      w.load_dependent(src + 8192 + i * 64);
      w.load(src + 4096);
    }
    for (const cpu::TraceRecord& r : w.take()) recs.push_back(r);
  }
  recs.push_back(marker());
  RamulatorSim sim(small_cfg());
  cpu::VectorTrace t(std::move(recs));
  const RamStats want{
      .cycles = 22301,
      .instructions = 196,
      .loads = 48,
      .stores = 0,
      .llc_misses = 48,
      .mem_reads = 48,
      .mem_writes = 0,
      .row_hits = 48,
      .row_misses = 45,
      .rowclones = 24,
      .markers = {0, 7196, 14748, 22300}};
  expect_stats(sim.run(t), want);
}

}  // namespace
}  // namespace easydram::ramulator
