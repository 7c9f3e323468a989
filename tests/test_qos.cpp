// Multi-tenant QoS: stream identity end-to-end, the ATLAS-style
// stream-aware scheduler, static bank partitioning, the mixed-tenant trace
// builder, and the scenario numbers that justify keeping ATLAS and
// bankpart. Companion of docs/ARCHITECTURE.md's "QoS & multi-tenant
// traffic" chapter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cli/scenario.hpp"
#include "common/contracts.hpp"
#include "smc/addr_map.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"
#include "sys/system.hpp"
#include "workloads/mixed.hpp"

namespace easydram {
namespace {

using smc::BankStateView;
using smc::PickContext;
using smc::RequestTable;
using smc::StreamTable;
using smc::TableEntry;

/// Bank-state fake over the full DRAM coordinate (the schedulers key row
/// hits on channel/rank/bank, so the lambda sees the whole address).
struct AddrBanks final : BankStateView {
  explicit AddrBanks(
      std::function<std::optional<std::uint32_t>(const dram::DramAddress&)> f)
      : fn(std::move(f)) {}
  std::optional<std::uint32_t> open_row(
      const dram::DramAddress& a) const override {
    return fn(a);
  }
  std::function<std::optional<std::uint32_t>(const dram::DramAddress&)> fn;
};

TableEntry entry(std::uint32_t stream, std::uint32_t bank, std::uint32_t row) {
  TableEntry e;
  e.request.stream_id = stream;
  e.dram_addr = dram::DramAddress{bank, row, 0};
  return e;
}

/// Banks fake with exactly `row` open in `bank` (everything else closed).
AddrBanks open_row_banks(std::uint32_t bank, std::uint32_t row) {
  return AddrBanks(
      [bank, row](const dram::DramAddress& a) -> std::optional<std::uint32_t> {
        if (a.bank == bank) return row;
        return std::nullopt;
      });
}

// --------------------------------------------------------------------------
// StreamTable
// --------------------------------------------------------------------------

TEST(StreamTableTest, GrowsOnDemandAndAccumulates) {
  StreamTable st;
  EXPECT_EQ(st.attained_service(7), 0u);  // Unknown streams read as zero.
  st.note_service(2);
  st.note_service(2, 3);
  EXPECT_EQ(st.attained_service(2), 4u);
  EXPECT_EQ(st.attained_service(0), 0u);  // Grown past, never served.
  EXPECT_EQ(st.attained_service(7), 0u);
}

// --------------------------------------------------------------------------
// ATLAS: least attained service outranks row hits.
// --------------------------------------------------------------------------

TEST(QosSchedulerTest, AtlasRankInvertsAfterServiceImbalance) {
  RequestTable t(8);
  t.insert(entry(0, 1, 20));  // Older, and a row hit: FR-FCFS's choice.
  t.insert(entry(1, 0, 7));   // Younger row miss from the light stream.
  AddrBanks banks = open_row_banks(1, 20);
  smc::AtlasScheduler atlas;
  std::size_t scanned = 0;

  // Without stream metadata ATLAS degrades to plain FR-FCFS.
  EXPECT_EQ(t.at(atlas.pick({t, banks}, scanned).value()).request.stream_id,
            0u);

  // Stream 0 has attained far more service: the ranking inverts and the
  // light stream's miss beats the heavy stream's row hit.
  StreamTable st;
  st.note_service(0, 100);
  st.note_service(1, 1);
  EXPECT_EQ(
      t.at(atlas.pick({t, banks, &st}, scanned).value()).request.stream_id,
      1u);
}

// --------------------------------------------------------------------------
// The numbers that keep ATLAS and bankpart: each beats its baseline on its
// own scenario (default options, repetition 0).
// --------------------------------------------------------------------------

cli::Json scenario_results(const char* name) {
  const cli::Scenario* s = cli::ScenarioRegistry::instance().find(name);
  EXPECT_NE(s, nullptr) << name;
  if (s == nullptr) return cli::Json::object();
  cli::RunOptions opts;
  opts.verbose = false;
  return cli::run_scenario(*s, opts).at("results");
}

double chase_p95(const cli::Json& row) {
  const cli::Json& chase = row.at("streams").at(0);
  EXPECT_EQ(chase.at("kind").as_string(), "chase");
  return chase.at("p95_cycles").as_double();
}

TEST(QosClaimsTest, AtlasBeatsFrfcfsOnMixedTenants) {
  const cli::Json mixed = scenario_results("qos_mixed_tenants");
  const cli::Json& frfcfs = mixed.at("policies").at(0);
  const cli::Json& atlas = mixed.at("policies").at(1);
  ASSERT_EQ(frfcfs.at("sched").as_string(), "frfcfs");
  ASSERT_EQ(atlas.at("sched").as_string(), "atlas");
  EXPECT_LT(atlas.at("unfairness_max_over_min").as_double(),
            frfcfs.at("unfairness_max_over_min").as_double());
  EXPECT_LT(chase_p95(atlas), chase_p95(frfcfs));
}

TEST(QosClaimsTest, BankPartitionBeatsLineInterleaving) {
  const cli::Json part = scenario_results("qos_bank_partition");
  const cli::Json& line = part.at("points").at(0);
  const cli::Json& bankpart = part.at("points").at(1);
  ASSERT_EQ(line.at("mapping").as_string(), "line");
  ASSERT_EQ(bankpart.at("mapping").as_string(), "bankpart");
  EXPECT_LT(chase_p95(bankpart), chase_p95(line));
}

// --------------------------------------------------------------------------
// Scheduler registry
// --------------------------------------------------------------------------

TEST(SchedulerRegistryTest, TokensRoundTripAndFactoriesMatch) {
  using smc::SchedulerKind;
  for (const SchedulerKind kind :
       {SchedulerKind::kFcfs, SchedulerKind::kFrfcfs, SchedulerKind::kAtlas}) {
    EXPECT_EQ(smc::parse_scheduler(smc::to_string(kind)), kind);
  }
  EXPECT_FALSE(smc::parse_scheduler("nope").has_value());
  EXPECT_FALSE(smc::parse_scheduler("auto").has_value());
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kFcfs)->name(), "FCFS");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kFrfcfs)->name(), "FR-FCFS");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kAtlas)->name(), "ATLAS");
}

// --------------------------------------------------------------------------
// Stream identity round trip: trace record -> request -> response ->
// completion -> per-stream latency sample.
// --------------------------------------------------------------------------

TEST(StreamRoundTripTest, CompletionEchoesStreamAndLatencyIsBucketed) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.track_stream_latency = true;
  sys::EasyDramSystem sysm(cfg);

  sysm.set_stream(2);
  const std::uint64_t id2 = sysm.submit_read(4096, 100);
  sysm.set_stream(5);
  const std::uint64_t id5 = sysm.submit_read(64 * 1024, 200);

  const cpu::Completion c2 = sysm.wait(id2);
  const cpu::Completion c5 = sysm.wait(id5);
  EXPECT_EQ(c2.stream, 2u);
  EXPECT_EQ(c5.stream, 5u);
  EXPECT_TRUE(c2.ok);

  const auto& samples = sysm.stream_latency_samples();
  ASSERT_GE(samples.size(), 6u);
  ASSERT_EQ(samples[2].size(), 1u);
  ASSERT_EQ(samples[5].size(), 1u);
  EXPECT_TRUE(samples[0].empty());
  // Modeled latency = release minus issue cycle: positive, and consistent
  // with the completion tag.
  EXPECT_EQ(samples[2][0], c2.release_cycle - 100);
  EXPECT_GT(samples[2][0], 0);
}

TEST(StreamRoundTripTest, LatencyTrackingIsOffByDefault) {
  sys::EasyDramSystem sysm(sys::jetson_nano_time_scaling());
  sysm.set_stream(3);
  sysm.wait(sysm.submit_read(4096, 0));
  EXPECT_TRUE(sysm.stream_latency_samples().empty());
}

// --------------------------------------------------------------------------
// Static bank partitioning (mapper layer)
// --------------------------------------------------------------------------

TEST(BankPartitionMapperTest, RoundTripsAndConfinesPartitions) {
  dram::Geometry geo;
  const unsigned partitions = 4;
  smc::BankPartitionMapper m(geo, partitions);
  const std::uint32_t banks_per_partition = geo.num_banks() / partitions;

  for (unsigned p = 0; p < partitions; ++p) {
    const std::uint64_t base = m.partition_base(p);
    for (std::uint64_t off = 0; off < 64 * 1024; off += 64 * 7) {
      const std::uint64_t paddr = base + off;
      const dram::DramAddress a = m.to_dram(paddr);
      // Every line of partition p lands in p's own bank slice...
      EXPECT_EQ(a.bank / banks_per_partition, p);
      // ...and the mapping inverts exactly.
      EXPECT_EQ(m.to_physical(a), paddr);
    }
  }
}

TEST(BankPartitionMapperTest, RegistryKnowsBankpart) {
  EXPECT_EQ(smc::parse_mapping("bankpart"), smc::MappingKind::kBankPartition);
  EXPECT_EQ(smc::to_string(smc::MappingKind::kBankPartition), "bankpart");
  dram::Geometry geo;
  const auto m =
      smc::make_mapper(smc::MappingKind::kBankPartition, geo, /*partitions=*/2);
  EXPECT_EQ(m->name(), "bankpart");
  EXPECT_EQ(m->to_physical(m->to_dram(64 * 1234)), 64u * 1234u);
}

// --------------------------------------------------------------------------
// Mixed-tenant trace builder
// --------------------------------------------------------------------------

std::vector<workloads::TenantSpec> three_tenants() {
  using workloads::TenantKind;
  using workloads::TenantSpec;
  TenantSpec chase;
  chase.kind = TenantKind::kPointerChase;
  chase.stream = 0;
  chase.base_addr = 0;
  chase.footprint_bytes = 16 * 1024;
  TenantSpec copy;
  copy.kind = TenantKind::kStreamCopy;
  copy.stream = 1;
  copy.base_addr = 1 * 1024 * 1024;
  copy.footprint_bytes = 16 * 1024;
  copy.passes = 2;
  TenantSpec hammer;
  hammer.kind = TenantKind::kHammer;
  hammer.stream = 2;
  hammer.base_addr = 2 * 1024 * 1024;
  return {chase, copy, hammer};
}

TEST(MixedTraceTest, TagsEveryRecordAndPreservesCounts) {
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  const auto tenants = three_tenants();
  const workloads::MixedTrace mixed =
      workloads::make_mixed_trace(tenants, mapper);

  ASSERT_EQ(mixed.solo.size(), 3u);
  std::size_t total = 0;
  std::vector<std::size_t> per_stream(3, 0);
  for (std::size_t i = 0; i < mixed.solo.size(); ++i) {
    EXPECT_FALSE(mixed.solo[i].empty());
    for (const cpu::TraceRecord& rec : mixed.solo[i]) {
      EXPECT_EQ(rec.stream, tenants[i].stream);
    }
    total += mixed.solo[i].size();
  }
  ASSERT_EQ(mixed.interleaved.size(), total);
  for (const cpu::TraceRecord& rec : mixed.interleaved) {
    ASSERT_LT(rec.stream, 3u);
    ++per_stream[rec.stream];
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(per_stream[i], mixed.solo[i].size());
  }
}

TEST(MixedTraceTest, InterleaveIsProportionalAndDeterministic) {
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  const auto tenants = three_tenants();
  const auto a = workloads::make_mixed_trace(tenants, mapper);
  const auto b = workloads::make_mixed_trace(tenants, mapper);

  // Bit-identical rebuild: pure function of the spec list.
  ASSERT_EQ(a.interleaved.size(), b.interleaved.size());
  for (std::size_t i = 0; i < a.interleaved.size(); ++i) {
    EXPECT_EQ(a.interleaved[i].addr, b.interleaved[i].addr);
    EXPECT_EQ(a.interleaved[i].stream, b.interleaved[i].stream);
    EXPECT_EQ(a.interleaved[i].op, b.interleaved[i].op);
  }

  // Proportional interleave: every tenant shows up early — within any
  // window of ~2x the tenant count the smooth round-robin must have
  // visited all of them at least once near the front.
  std::vector<bool> seen(3, false);
  for (std::size_t i = 0; i < 32 && i < a.interleaved.size(); ++i) {
    seen[a.interleaved[i].stream] = true;
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
}

// TraceRecord::stream is 16 bits wide: the widest id round-trips and the
// first one past it fails loudly instead of silently truncating.
TEST(MixedTraceTest, StreamIdMustFitTheRecord) {
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  workloads::TenantSpec spec;
  spec.kind = workloads::TenantKind::kPointerChase;
  spec.footprint_bytes = 16 * 1024;
  spec.stream = 65535;
  const auto trace = workloads::make_tenant_trace(spec, mapper);
  ASSERT_FALSE(trace.empty());
  for (const cpu::TraceRecord& rec : trace) EXPECT_EQ(rec.stream, 65535u);

  spec.stream = 65536;
  EXPECT_THROW(workloads::make_tenant_trace(spec, mapper), ContractViolation);
}

}  // namespace
}  // namespace easydram
