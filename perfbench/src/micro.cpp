// Isolated ns/op of the public entry point of each layer a request crosses.
// Every microbenchmark runs one warmup block and kBlocks measured blocks of a fixed
// operation count and reports the median block's ns/op, so one slow block
// (a page fault, a preempted time slice) does not move the figure. Inputs
// come from the run's seed, so the compiler cannot fold the work away.

#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "bender/interpreter.hpp"
#include "common/rng.hpp"
#include "cpu/cache.hpp"
#include "dram/device.hpp"
#include "smc/addr_map.hpp"
#include "smc/bloom.hpp"
#include "smc/ecc.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"
#include "sys/completion.hpp"
#include "sys/system.hpp"

namespace perfbench {
namespace {

constexpr int kBlocks = 9;

/// Keeps `v` observable so the timed work is not dead code.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Median ns/op over kBlocks blocks of `ops` operations; `block(ops)` runs
/// one block.
template <typename F>
double median_ns_per_op(std::int64_t ops, F&& block) {
  block(ops);  // Warmup: lazy allocation, first-touch pages, branch history.
  std::vector<double> per_op;
  for (int b = 0; b < kBlocks; ++b) {
    const std::int64_t t0 = now_ns();
    block(ops);
    per_op.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(ops));
  }
  std::nth_element(per_op.begin(), per_op.begin() + kBlocks / 2, per_op.end());
  return per_op[kBlocks / 2];
}

/// A device whose reduced-tRCD variation is trivial to evaluate, so the
/// issue figure prices the timing check, not the variation model.
dram::VariationConfig flat_variation(std::uint64_t seed) {
  dram::VariationConfig v;
  v.seed = seed;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  return v;
}

double dram_issue(std::uint64_t seed) {
  dram::DramDevice dev(dram::Geometry{}, dram::ddr4_1333(), flat_variation(seed));
  std::uint32_t row = static_cast<std::uint32_t>(seed % 1024);
  // One op = one ACT/RD/PRE triple; reported per command.
  return median_ns_per_op(20000, [&](std::int64_t n) {
           for (std::int64_t i = 0; i < n; ++i) {
             const dram::DramAddress a{0, row, 0};
             dev.issue(dram::Command::kAct, a,
                       dev.earliest_legal(dram::Command::kAct, a));
             dev.issue(dram::Command::kRead, a,
                       dev.earliest_legal(dram::Command::kRead, a));
             dev.issue(dram::Command::kPre, a,
                       dev.earliest_legal(dram::Command::kPre, a));
             row = (row + 1) % 1024;
           }
         }) /
         3.0;
}

double dram_variation_lookup(std::uint64_t seed) {
  const dram::Geometry geo;
  dram::VariationConfig cfg;
  cfg.seed = seed;
  const dram::VariationModel model(geo, cfg);
  std::uint64_t k = seed;
  return median_ns_per_op(200000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      // Stride through far more rows than the lookup memo holds.
      k += 0x9E3779B1;
      keep(model.row_min_trcd(static_cast<std::uint32_t>(k % geo.num_banks()),
                              static_cast<std::uint32_t>((k >> 8) % geo.rows_per_bank)));
    }
  });
}

double bender_execute(std::uint64_t seed) {
  dram::DramDevice dev(dram::Geometry{}, dram::ddr4_1333(), flat_variation(seed));
  bender::Interpreter interp(dev);
  bender::Program p;
  const auto row = static_cast<std::uint32_t>(seed % 1024);
  p.ddr(dram::Command::kAct, {0, row, 0});
  for (std::uint32_t c = 0; c < 8; ++c) p.ddr(dram::Command::kRead, {0, row, c}, true);
  p.ddr(dram::Command::kPre, {0, 0, 0});
  return median_ns_per_op(4000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) keep(interp.execute(p, dev.now()));
  });
}

/// Half the banks hold row 7 open, half are precharged.
struct AlternatingBanks final : smc::BankStateView {
  std::optional<std::uint32_t> open_row(const dram::DramAddress& a) const override {
    return a.bank % 2 == 0 ? std::optional<std::uint32_t>{7} : std::nullopt;
  }
};

smc::TableEntry entry_for(std::uint64_t key) {
  smc::TableEntry e;
  e.dram_addr = dram::DramAddress{static_cast<std::uint32_t>(key % 16),
                                  static_cast<std::uint32_t>(key * 7 % 1024), 0};
  e.request.paddr = key * 64;
  return e;
}

double smc_pick(std::uint64_t seed) {
  smc::RequestTable table(32);
  for (std::uint64_t i = 0; i < 32; ++i) table.insert(entry_for(seed + i));
  const AlternatingBanks banks;
  smc::FrfcfsScheduler sched;
  std::size_t scanned = 0;
  return median_ns_per_op(100000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) keep(sched.pick({table, banks}, scanned));
  });
}

double smc_table_insert_remove(std::uint64_t seed) {
  smc::RequestTable table(32);
  // Keep the table half full so insert and remove walk a realistic list.
  std::vector<std::size_t> slots;
  for (std::uint64_t i = 0; i < 16; ++i) slots.push_back(table.insert(entry_for(seed + i)));
  std::uint64_t k = seed;
  std::size_t oldest = 0;
  return median_ns_per_op(200000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      keep(table.remove(slots[oldest]));
      slots[oldest] = table.insert(entry_for(++k));
      oldest = (oldest + 1) % slots.size();
    }
  });
}

double smc_to_dram(std::uint64_t seed) {
  dram::Geometry geo;
  geo.channels = 4;
  const auto mapper = smc::make_mapper(smc::MappingKind::kChannelInterleaved, geo);
  std::uint64_t addr = (seed % 4096) * 64;
  return median_ns_per_op(500000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      keep(mapper->to_dram(addr));
      addr = (addr + 64 * 37) & ((std::uint64_t{1} << 32) - 1);
    }
  });
}

double smc_ecc_encode(std::uint64_t seed) {
  std::uint64_t w = seed | 1;
  return median_ns_per_op(500000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      keep(smc::EccCodec::encode(w));
      w = w * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  });
}

double smc_ecc_decode(std::uint64_t seed) {
  std::uint64_t w = seed | 1;
  std::uint8_t check = smc::EccCodec::encode(w);
  return median_ns_per_op(500000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      keep(smc::EccCodec::decode(w, check));
      w = w * 6364136223846793005ULL + 1442695040888963407ULL;
      check = static_cast<std::uint8_t>(check + 1);
    }
  });
}

double smc_bloom_query(std::uint64_t seed) {
  smc::BloomFilter filter(1 << 17, 4);
  for (std::uint64_t k = 0; k < 5000; ++k) filter.insert(hash_mix(seed, k));
  std::uint64_t k = seed;
  return median_ns_per_op(500000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) keep(filter.maybe_contains(k++));
  });
}

/// One EasyApi::flush_commands round trip of an empty batch: the per-batch
/// controller overhead (meter sync, fault clock, Bender kickoff, readback
/// hand-off) without the per-command work bender.execute_ns prices.
double smc_flush_commands(std::uint64_t seed) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  sys::EasyDramSystem sysm(cfg);
  smc::EasyApi& api = sysm.api();
  return median_ns_per_op(100000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) keep(api.flush_commands());
  });
}

double sys_ring_put_consume(std::uint64_t seed) {
  sys::CompletionRing ring;
  std::uint64_t id = 1;
  // Eight requests in flight, completed and consumed in order.
  for (int i = 0; i < 8; ++i) ring.note_pending(id + static_cast<std::uint64_t>(i), 0);
  const auto release = static_cast<std::int64_t>(seed % 1000);
  return median_ns_per_op(500000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      ring.put(id, release + i, true);
      ring.consume(id);
      ring.note_pending(id + 8, 0);
      ++id;
    }
  });
}

double cpu_cache_access(std::uint64_t seed) {
  cpu::Cache cache(cpu::CacheConfig{512 * 1024, 8, 64});
  for (std::uint64_t i = 0; i < 512; ++i) cache.fill(i * 64);
  std::uint64_t i = seed;
  return median_ns_per_op(500000, [&](std::int64_t n) {
    for (std::int64_t j = 0; j < n; ++j) keep(cache.access((i++ % 512) * 64));
  });
}

}  // namespace

std::vector<MicroResult> run_microbenchmarks(std::uint64_t seed) {
  return {
      {"dram.issue_ns", dram_issue(seed)},
      {"dram.variation_lookup_ns", dram_variation_lookup(seed)},
      {"bender.execute_ns", bender_execute(seed)},
      {"smc.pick_ns", smc_pick(seed)},
      {"smc.table_insert_remove_ns", smc_table_insert_remove(seed)},
      {"smc.to_dram_ns", smc_to_dram(seed)},
      {"smc.ecc_encode_ns", smc_ecc_encode(seed)},
      {"smc.ecc_decode_ns", smc_ecc_decode(seed)},
      {"smc.bloom_query_ns", smc_bloom_query(seed)},
      {"smc.flush_commands_ns", smc_flush_commands(seed)},
      {"sys.ring_put_consume_ns", sys_ring_put_consume(seed)},
      {"cpu.cache_access_ns", cpu_cache_access(seed)},
  };
}

}  // namespace perfbench
