#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "smc/addr_map.hpp"
#include "smc/bloom.hpp"
#include "smc/controller.hpp"
#include "smc/easyapi.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"

namespace easydram::smc {
namespace {

using namespace easydram::literals;
using timescale::SystemMode;

dram::VariationConfig strong_variation() {
  dram::VariationConfig v;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  v.rowclone_pair_success = 1.0;
  return v;
}

/// Standalone SMC harness: tile + device + mapper + keeper + api.
struct Harness {
  explicit Harness(SystemMode mode = SystemMode::kTimeScaling,
                   dram::VariationConfig var = strong_variation())
      : device(geo, dram::ddr4_1333(), var),
        tile(tile::TileConfig{}),
        mapper(geo),
        keeper(mode,
               timescale::DomainConfig{Frequency::megahertz(100),
                                       Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24}),
        api(tile, device, mapper, keeper) {}

  void push_request(tile::Request r) {
    r.arrival_wall = keeper.wall();
    tile.incoming().push(std::move(r));
  }

  tile::Response run_until_response(Controller& c) {
    for (int i = 0; i < 10000; ++i) {
      c.step(api);
      if (!tile.outgoing().empty()) return tile.outgoing().pop();
    }
    ADD_FAILURE() << "no response produced";
    return {};
  }

  dram::Geometry geo;
  dram::DramDevice device;
  tile::EasyTile tile;
  LinearMapper mapper;
  timescale::TimeKeeper keeper;
  EasyApi api;
};

// --------------------------------------------------------------------------
// Address mappers
// --------------------------------------------------------------------------

template <typename MapperT>
class MapperRoundTrip : public ::testing::Test {};

using MapperTypes = ::testing::Types<LinearMapper, LineInterleavedMapper>;
TYPED_TEST_SUITE(MapperRoundTrip, MapperTypes);

TYPED_TEST(MapperRoundTrip, RoundTripsEveryRegion) {
  dram::Geometry geo;
  TypeParam mapper(geo);
  for (std::uint64_t paddr = 0; paddr < geo.capacity_bytes();
       paddr += 64 * 1237) {  // Prime stride to cover varied coordinates.
    const dram::DramAddress a = mapper.to_dram(paddr);
    EXPECT_TRUE(geo.contains(a));
    EXPECT_EQ(mapper.to_physical(a), paddr);
  }
}

TEST(MapperTest, LinearKeepsRowsContiguous) {
  dram::Geometry geo;
  LinearMapper m(geo);
  const dram::DramAddress first = m.to_dram(0);
  const dram::DramAddress last = m.to_dram(8192 - 64);
  EXPECT_EQ(first.row, last.row);
  EXPECT_EQ(first.bank, last.bank);
  const dram::DramAddress next = m.to_dram(8192);
  EXPECT_EQ(next.row, first.row + 1);
}

TEST(MapperTest, InterleavedStripesAcrossBanks) {
  dram::Geometry geo;
  LineInterleavedMapper m(geo);
  EXPECT_EQ(m.to_dram(0).bank, 0u);
  EXPECT_EQ(m.to_dram(64).bank, 1u);
  EXPECT_EQ(m.to_dram(64 * 15).bank, 15u);
  EXPECT_EQ(m.to_dram(64 * 16).bank, 0u);
}

TEST(MapperTest, MisalignedAddressRejected) {
  dram::Geometry geo;
  LinearMapper m(geo);
  EXPECT_THROW(m.to_dram(63), ContractViolation);
}

// --------------------------------------------------------------------------
// Request table and schedulers
// --------------------------------------------------------------------------

TableEntry entry_at(std::uint32_t bank, std::uint32_t row) {
  TableEntry e;
  e.dram_addr = dram::DramAddress{bank, row, 0};
  return e;
}

/// Test fake for the scheduler-facing bank-state interface: open rows are
/// described by a lambda over the per-rank bank index.
struct LambdaBanks final : BankStateView {
  explicit LambdaBanks(
      std::function<std::optional<std::uint32_t>(std::uint32_t)> f)
      : fn(std::move(f)) {}
  std::optional<std::uint32_t> open_row(const dram::DramAddress& a) const override {
    return fn(a.bank);
  }
  std::function<std::optional<std::uint32_t>(std::uint32_t)> fn;
};

TEST(RequestTableTest, InsertRemoveAndCapacity) {
  RequestTable t(2);
  t.insert(entry_at(0, 1));
  t.insert(entry_at(0, 2));
  EXPECT_TRUE(t.full());
  EXPECT_THROW(t.insert(entry_at(0, 3)), ContractViolation);
  const TableEntry e = t.remove(0);
  EXPECT_EQ(e.dram_addr.row, 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RequestTableTest, ArrivalSequenceIsMonotonic) {
  RequestTable t(4);
  t.insert(entry_at(0, 1));
  t.insert(entry_at(0, 2));
  EXPECT_LT(t.at(0).arrival_seq, t.at(1).arrival_seq);
}

TEST(SchedulerTest, FcfsPicksOldest) {
  RequestTable t(4);
  t.insert(entry_at(3, 10));
  t.insert(entry_at(1, 20));
  LambdaBanks banks([](std::uint32_t) { return std::optional<std::uint32_t>{}; });
  FcfsScheduler fcfs;
  std::size_t scanned = 0;
  EXPECT_EQ(fcfs.pick({t, banks}, scanned).value(), 0u);
  EXPECT_EQ(scanned, 2u);
}

TEST(SchedulerTest, FrfcfsPrefersRowHit) {
  RequestTable t(4);
  t.insert(entry_at(0, 10));  // oldest, row closed
  t.insert(entry_at(1, 20));  // row hit
  LambdaBanks banks([](std::uint32_t bank) -> std::optional<std::uint32_t> {
    if (bank == 1) return 20;
    return std::nullopt;
  });
  FrfcfsScheduler frfcfs;
  std::size_t scanned = 0;
  EXPECT_EQ(frfcfs.pick({t, banks}, scanned).value(), 1u);
}

TEST(SchedulerTest, FrfcfsFallsBackToOldest) {
  RequestTable t(4);
  t.insert(entry_at(0, 10));
  t.insert(entry_at(1, 20));
  LambdaBanks banks([](std::uint32_t) { return std::optional<std::uint32_t>{}; });
  FrfcfsScheduler frfcfs;
  std::size_t scanned = 0;
  EXPECT_EQ(frfcfs.pick({t, banks}, scanned).value(), 0u);
}

TEST(SchedulerTest, EmptyTableYieldsNothing) {
  RequestTable t(4);
  LambdaBanks banks([](std::uint32_t) { return std::optional<std::uint32_t>{}; });
  FcfsScheduler fcfs;
  FrfcfsScheduler frfcfs;
  AtlasScheduler atlas;
  StreamTable streams;
  std::size_t scanned = 0;
  EXPECT_FALSE(fcfs.pick({t, banks}, scanned).has_value());
  EXPECT_FALSE(frfcfs.pick({t, banks}, scanned).has_value());
  EXPECT_FALSE(atlas.pick({t, banks}, scanned).has_value());
  EXPECT_FALSE(atlas.pick({t, banks, &streams}, scanned).has_value());
}

// --------------------------------------------------------------------------
// Bloom filter
// --------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter f(4096, 4);
  for (std::uint64_t k = 0; k < 200; ++k) f.insert(k * 977);
  for (std::uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(f.maybe_contains(k * 977));
}

TEST(BloomTest, FalsePositiveRateIsModest) {
  BloomFilter f(16384, 4);
  for (std::uint64_t k = 0; k < 500; ++k) f.insert(k);
  int fp = 0;
  const int probes = 10000;
  for (int k = 0; k < probes; ++k) {
    if (f.maybe_contains(1'000'000 + static_cast<std::uint64_t>(k))) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomTest, EmptyFilterContainsNothing) {
  BloomFilter f(1024, 3);
  EXPECT_FALSE(f.maybe_contains(42));
}

TEST(BloomTest, MergeUnionsKeysWithoutFalseNegatives) {
  BloomFilter a(4096, 4);
  BloomFilter b(4096, 4);
  for (std::uint64_t k = 0; k < 100; ++k) (k % 2 == 0 ? a : b).insert(k);
  a.merge(b);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(a.maybe_contains(k));
  EXPECT_EQ(a.inserted_keys(), 100u);
  BloomFilter wrong_shape(1024, 4);
  EXPECT_THROW(a.merge(wrong_shape), ContractViolation);
}

// --------------------------------------------------------------------------
// EasyAPI
// --------------------------------------------------------------------------

TEST(EasyApiTest, ReadSequenceLeavesRowOpen) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.flush_commands();
  EXPECT_EQ(h.device.open_row(2).value(), 5u);
  EXPECT_FALSE(h.api.rdback_empty());
}

TEST(EasyApiTest, ReadSequenceRowHitSkipsActivate) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.flush_commands();
  const std::int64_t acts = h.device.commands_issued(dram::Command::kAct);
  h.api.read_sequence(dram::DramAddress{2, 5, 1});
  h.api.flush_commands();
  EXPECT_EQ(h.device.commands_issued(dram::Command::kAct), acts);
}

TEST(EasyApiTest, ReadSequenceConflictPrecharges) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.flush_commands();
  h.api.read_sequence(dram::DramAddress{2, 9, 0});
  h.api.flush_commands();
  EXPECT_EQ(h.device.open_row(2).value(), 9u);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kPre), 1);
}

TEST(EasyApiTest, PendingRowTrackedWithinBatch) {
  Harness h;
  // Two reads to different rows of the same bank in ONE batch: the second
  // must precharge even though the device still shows the bank closed.
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.read_sequence(dram::DramAddress{2, 9, 0});
  const auto r = h.api.flush_commands();
  EXPECT_EQ(r.violations, dram::kNone);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kPre), 1);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kAct), 2);
}

TEST(EasyApiTest, WriteSequenceStoresData) {
  Harness h;
  std::array<std::uint8_t, 64> data{};
  data.fill(0xAB);
  h.api.write_sequence(dram::DramAddress{1, 3, 7}, data);
  h.api.flush_commands();
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read({1, 3, 7}, out);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0);
}

TEST(EasyApiTest, ReducedReadForcesFreshActivation) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{1, 3, 0});
  h.api.flush_commands();
  h.api.read_sequence_reduced(dram::DramAddress{1, 3, 0}, 9_ns);
  const auto r = h.api.flush_commands();
  // Row was already open, so this degenerates to a plain (hit) read.
  EXPECT_EQ(r.violations & dram::kTrcd, 0u);

  h.api.close_row(1);
  h.api.flush_commands();
  h.api.read_sequence_reduced(dram::DramAddress{1, 3, 0}, 9_ns);
  const auto r2 = h.api.flush_commands();
  EXPECT_TRUE(r2.violations & dram::kTrcd);
}

TEST(EasyApiTest, RowCloneHelperTriggersDeviceRowClone) {
  Harness h;
  std::array<std::uint8_t, 64> marker{};
  marker.fill(0x5A);
  h.device.backdoor_write({0, 40, 3}, marker);
  h.api.rowclone(0, 40, 41);
  const auto r = h.api.flush_commands();
  EXPECT_EQ(r.rowclone_attempts, 1);
  EXPECT_EQ(r.rowclone_successes, 1);
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read({0, 41, 3}, out);
  EXPECT_EQ(std::memcmp(out.data(), marker.data(), 64), 0);
}

TEST(EasyApiTest, BatchAccountingAdvancesMc) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{0, 1, 0});
  const auto r = h.api.flush_commands();
  // The emulated MC point covers the batch duration at 1 GHz plus the
  // SMC's own (cycle-counted) batch-building work.
  const std::int64_t dram_cycles = Frequency::gigahertz(1).ps_to_cycles_ceil(r.elapsed);
  EXPECT_GE(h.keeper.counters().mc(), dram_cycles);
  EXPECT_LE(h.keeper.counters().mc(), dram_cycles + 64);
}

TEST(EasyApiTest, SetupModeLeavesTimelinesAlone) {
  Harness h;
  h.api.set_setup_mode(true);
  h.api.read_sequence(dram::DramAddress{0, 1, 0});
  h.api.flush_commands();
  EXPECT_EQ(h.keeper.counters().mc(), 0);
  EXPECT_EQ(h.keeper.wall().count, 0);
  // Device state still changed: the batch really executed.
  EXPECT_TRUE(h.device.open_row(0).has_value());
}

TEST(EasyApiTest, MeterChargesEveryCall) {
  Harness h;
  const Cycles before = h.tile.meter().total_cycles();
  h.api.get_addr_mapping(0);
  h.api.read_sequence(dram::DramAddress{0, 1, 0});
  h.api.flush_commands();
  EXPECT_GT(h.tile.meter().total_cycles(), before);
}

TEST(EasyApiTest, RefreshCatchUpKeepsDeviceFresh) {
  Harness h;
  // Pretend the emulated system ran 100 us: ~12 refreshes are due.
  h.keeper.counters().advance_mc(100'000);  // 100 us at 1 GHz.
  h.api.refresh_if_due();
  EXPECT_EQ(h.device.refreshes_issued(),
            h.device.refreshes_due(h.keeper.emulated_now()));
}

// --------------------------------------------------------------------------
// Controllers
// --------------------------------------------------------------------------

tile::Request read_request(std::uint64_t id, std::uint64_t paddr,
                           std::int64_t tag = 0) {
  tile::Request r;
  r.id = id;
  r.kind = tile::RequestKind::kRead;
  r.paddr = paddr;
  r.issue_proc_cycle = tag;
  return r;
}

TEST(ControllerTest, ServesReadEndToEnd) {
  Harness h;
  std::array<std::uint8_t, 64> data{};
  data.fill(0x3C);
  h.device.backdoor_write(h.mapper.to_dram(4096), data);

  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 4096));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_TRUE(resp.has_data);
  EXPECT_EQ(std::memcmp(resp.data.data(), data.data(), 64), 0);
  EXPECT_GT(resp.release_proc_cycle, 0);
}

TEST(ControllerTest, ReleaseTagCoversSchedulingAndDram) {
  Harness h;
  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 0, /*tag=*/1000));
  const tile::Response resp = h.run_until_response(c);
  // Service starts at the request tag; adds scheduling latency (24) plus
  // the DRAM batch at 1 GHz (ACT+RD+data, tens of cycles).
  EXPECT_GE(resp.release_proc_cycle, 1000 + 24);
  EXPECT_LT(resp.release_proc_cycle, 1000 + 24 + 200);
}

TEST(ControllerTest, WritePersistsToDram) {
  Harness h;
  MemoryController c(ControllerOptions{});
  tile::Request w;
  w.id = 9;
  w.kind = tile::RequestKind::kWrite;
  w.paddr = 8192;
  w.wdata.fill(0x77);
  h.push_request(std::move(w));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_EQ(resp.id, 9u);
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read(h.mapper.to_dram(8192), out);
  EXPECT_EQ(out[0], 0x77);
}

TEST(ControllerTest, CriticalModeEntersAndExits) {
  Harness h;
  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 0));
  h.run_until_response(c);
  // After the table empties, a further step exits critical mode.
  c.step(h.api);
  EXPECT_FALSE(h.keeper.counters().critical());
}

TEST(ControllerTest, RowCloneUnverifiedPairFallsBack) {
  Harness h;
  RowCloneMap map;  // Empty: nothing verified.
  MemoryController c(ControllerOptions{});
  c.set_clonable(&map);

  tile::Request r;
  r.id = 5;
  r.kind = tile::RequestKind::kRowClone;
  r.paddr = 0;
  r.paddr2 = 8192;
  h.push_request(std::move(r));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_FALSE(resp.ok);
}

TEST(ControllerTest, RowCloneVerifiedPairCopies) {
  Harness h;
  RowCloneMap map;
  const dram::DramAddress src = h.mapper.to_dram(0);
  const dram::DramAddress dst = h.mapper.to_dram(8192);
  map.record(src.bank, src.row, dst.row, true);
  MemoryController c(ControllerOptions{});
  c.set_clonable(&map);

  std::array<std::uint8_t, 64> marker{};
  marker.fill(0xE1);
  h.device.backdoor_write({src.bank, src.row, 5}, marker);

  tile::Request r;
  r.id = 6;
  r.kind = tile::RequestKind::kRowClone;
  r.paddr = 0;
  r.paddr2 = 8192;
  h.push_request(std::move(r));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_TRUE(resp.ok);
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read({dst.bank, dst.row, 5}, out);
  EXPECT_EQ(std::memcmp(out.data(), marker.data(), 64), 0);
}

TEST(ControllerTest, ProfilingRequestReportsReliability) {
  dram::VariationConfig weak;
  weak.min_trcd = 9_ns;
  weak.max_trcd = Picoseconds{9001};
  weak.line_jitter = Picoseconds{0};
  Harness h(SystemMode::kTimeScaling, weak);
  MemoryController c(ControllerOptions{});

  tile::Request ok_req;
  ok_req.id = 1;
  ok_req.kind = tile::RequestKind::kProfileTrcd;
  ok_req.paddr = 0;
  ok_req.profile_trcd = Picoseconds{9001};
  h.push_request(std::move(ok_req));
  EXPECT_TRUE(h.run_until_response(c).ok);

  tile::Request bad_req;
  bad_req.id = 2;
  bad_req.kind = tile::RequestKind::kProfileTrcd;
  bad_req.paddr = 0;
  bad_req.profile_trcd = 5_ns;
  h.push_request(std::move(bad_req));
  EXPECT_FALSE(h.run_until_response(c).ok);
}

TEST(ControllerTest, BloomDirectedTrcdReduction) {
  Harness h;
  BloomFilter weak(4096, 4);
  const dram::DramAddress weak_addr = h.mapper.to_dram(0);
  weak.insert((static_cast<std::uint64_t>(weak_addr.bank) << 32) | weak_addr.row);
  ControllerOptions opt;
  opt.reduced_trcd = 9_ns;
  MemoryController c(std::move(opt));
  c.set_weak_rows(&weak);

  // Weak row: nominal access, no tRCD violation.
  h.push_request(read_request(1, 0));
  h.run_until_response(c);
  EXPECT_EQ(h.api.stats().violations_seen & dram::kTrcd, 0u);

  // Strong row (bank 1): reduced access violates nominal tRCD on purpose.
  h.push_request(read_request(2, 8192ull * 32768));  // bank 1 row 0
  h.run_until_response(c);
  EXPECT_TRUE(h.api.stats().violations_seen & dram::kTrcd);
}

TEST(ControllerTest, FootnoteTwoVisibilityDelaysFutureRequests) {
  Harness h;
  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 0, /*tag=*/100));
  // A request tagged far in the future becomes visible only after the MC
  // emulation point reaches it.
  h.push_request(read_request(2, 64, /*tag=*/1'000'000));
  c.step(h.api);  // Serves request 1; request 2 not yet visible.
  EXPECT_EQ(h.tile.outgoing().size(), 1u);
  EXPECT_EQ(h.tile.incoming().size(), 1u);
}

TEST(SimpleReadControllerTest, ListingOneFlow) {
  Harness h;
  std::array<std::uint8_t, 64> data{};
  data.fill(0x42);
  h.device.backdoor_write(h.mapper.to_dram(128), data);
  SimpleReadController c;
  h.push_request(read_request(1, 128));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_EQ(std::memcmp(resp.data.data(), data.data(), 64), 0);
  EXPECT_FALSE(h.keeper.counters().critical());
}

}  // namespace
}  // namespace easydram::smc
