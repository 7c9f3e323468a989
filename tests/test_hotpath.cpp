// Property tests for the host-performance hot-path structures: the
// slot-based RequestTable must preserve FCFS/FR-FCFS pick order against a
// reference vector implementation (the pre-overhaul design), the
// ring-buffer BoundedFifo must match std::deque semantics under randomized
// push/pop sequences, the CompletionRing must behave like a map from
// dense ids to completions, and the flat-array cpu::Cache must decide every
// hit, fill and eviction exactly like the array-of-structs cache it
// replaced.

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "cpu/cache.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"
#include "sys/completion.hpp"
#include "tile/fifo.hpp"

namespace easydram {
namespace {

// --------------------------------------------------------------------------
// RequestTable vs the reference vector implementation
// --------------------------------------------------------------------------

/// The pre-overhaul request table: a dense vector with shifting erase.
/// Kept here as the behavioral reference the slot design must match.
class VectorTable {
 public:
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  void insert(smc::TableEntry e) {
    e.arrival_seq = next_seq_++;
    entries_.push_back(std::move(e));
  }

  const smc::TableEntry& at(std::size_t i) const { return entries_[i]; }

  smc::TableEntry remove(std::size_t i) {
    smc::TableEntry e = std::move(entries_[i]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return e;
  }

 private:
  std::uint64_t next_seq_ = 0;
  std::vector<smc::TableEntry> entries_;
};

/// Reference FCFS pick (old implementation): dense index of the oldest.
std::optional<std::size_t> ref_fcfs(const VectorTable& t) {
  if (t.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t.at(i).arrival_seq < t.at(best).arrival_seq) best = i;
  }
  return best;
}

/// Reference FR-FCFS pick (old implementation) over an open-row table.
std::optional<std::size_t> ref_frfcfs(
    const VectorTable& t,
    const std::vector<std::optional<std::uint32_t>>& open_rows) {
  if (t.empty()) return std::nullopt;
  std::optional<std::size_t> oldest_hit;
  std::size_t oldest = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const smc::TableEntry& e = t.at(i);
    if (e.arrival_seq < t.at(oldest).arrival_seq) oldest = i;
    const auto& open = open_rows[e.dram_addr.bank];
    const bool hit = open.has_value() && *open == e.dram_addr.row;
    if (hit && (!oldest_hit ||
                e.arrival_seq < t.at(*oldest_hit).arrival_seq)) {
      oldest_hit = i;
    }
  }
  return oldest_hit ? oldest_hit : oldest;
}

/// BankStateView over a plain open-row vector (per-rank bank index).
struct TableBanks final : smc::BankStateView {
  std::optional<std::uint32_t> open_row(
      const dram::DramAddress& a) const override {
    return rows[a.bank];
  }
  std::vector<std::optional<std::uint32_t>> rows;
};

smc::TableEntry random_entry(SplitMix64& rng) {
  smc::TableEntry e;
  e.dram_addr.bank = static_cast<std::uint32_t>(rng.next() % 4);
  e.dram_addr.row = static_cast<std::uint32_t>(rng.next() % 8);
  e.request.id = rng.next();
  return e;
}

/// Drives the slot table and the vector reference through an identical
/// randomized insert / pick+remove schedule and requires every pick to
/// name the same entry (same arrival_seq → same request), for both
/// schedulers and random bank states.
TEST(HotPathPropertyTest, SlotTablePreservesPickOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SplitMix64 rng(seed);
    smc::RequestTable table(32);
    VectorTable ref;
    TableBanks banks;
    banks.rows.assign(4, std::nullopt);
    smc::FcfsScheduler fcfs;
    smc::FrfcfsScheduler frfcfs;
    const bool frfcfs_policy = seed % 2 == 0;

    for (int step = 0; step < 400; ++step) {
      // Shuffle the open rows now and then.
      if (rng.next() % 8 == 0) {
        for (auto& r : banks.rows) {
          r = rng.next() % 2 ? std::optional<std::uint32_t>(
                                   static_cast<std::uint32_t>(rng.next() % 8))
                             : std::nullopt;
        }
      }

      const bool do_insert =
          !table.full() && (table.empty() || rng.next() % 3 != 0);
      if (do_insert) {
        smc::TableEntry e = random_entry(rng);
        ref.insert(e);  // Stamps its own (identical) arrival_seq.
        table.insert(std::move(e));
        continue;
      }

      std::size_t scanned = 0;
      const auto pick = frfcfs_policy ? frfcfs.pick({table, banks}, scanned)
                                   : fcfs.pick({table, banks}, scanned);
      const auto ref_pick =
          frfcfs_policy ? ref_frfcfs(ref, banks.rows) : ref_fcfs(ref);
      ASSERT_EQ(pick.has_value(), ref_pick.has_value());
      ASSERT_EQ(scanned, table.size());
      if (!pick) continue;
      const smc::TableEntry got = table.remove(*pick);
      const smc::TableEntry want = ref.remove(*ref_pick);
      ASSERT_EQ(got.arrival_seq, want.arrival_seq);
      ASSERT_EQ(got.request.id, want.request.id);
    }
  }
}

TEST(HotPathPropertyTest, SlotTableTraversalIsArrivalOrdered) {
  SplitMix64 rng(7);
  smc::RequestTable table(16);
  // Interleave inserts and removals so slots recycle out of order.
  for (int step = 0; step < 200; ++step) {
    if (!table.full() && rng.next() % 3 != 0) {
      table.insert(random_entry(rng));
    } else if (!table.empty()) {
      // Remove a random occupied slot (walk a random number of links).
      std::size_t slot = table.first();
      const std::size_t hops = rng.next() % table.size();
      for (std::size_t i = 0; i < hops; ++i) slot = table.next(slot);
      table.remove(slot);
    }
    std::uint64_t prev_seq = 0;
    bool first = true;
    std::size_t count = 0;
    for (std::size_t s = table.first(); s != smc::RequestTable::kNull;
         s = table.next(s)) {
      if (!first) {
        EXPECT_GT(table.at(s).arrival_seq, prev_seq);
      }
      prev_seq = table.at(s).arrival_seq;
      first = false;
      ++count;
    }
    EXPECT_EQ(count, table.size());
  }
}

// --------------------------------------------------------------------------
// Ring-buffer BoundedFifo vs std::deque
// --------------------------------------------------------------------------

TEST(HotPathPropertyTest, RingFifoMatchesDequeSemantics) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SplitMix64 rng(seed ^ 0xF1F0);
    const std::size_t capacity = 1 + rng.next() % 33;
    tile::BoundedFifo<std::uint64_t> fifo(capacity);
    std::deque<std::uint64_t> ref;

    for (int step = 0; step < 2000; ++step) {
      EXPECT_EQ(fifo.size(), ref.size());
      EXPECT_EQ(fifo.empty(), ref.empty());
      EXPECT_EQ(fifo.full(), ref.size() >= capacity);
      if (!ref.empty()) {
        EXPECT_EQ(fifo.front(), ref.front());
      }

      switch (rng.next() % 3) {
        case 0:
          if (!fifo.full()) {
            const std::uint64_t v = rng.next();
            fifo.push(v);
            ref.push_back(v);
          }
          break;
        case 1:
          if (!fifo.empty()) {
            EXPECT_EQ(fifo.pop(), ref.front());
            ref.pop_front();
          }
          break;
        default:
          if (!fifo.empty()) {
            fifo.drop();
            ref.pop_front();
          }
          break;
      }
    }
  }
}

TEST(HotPathPropertyTest, RingFifoContractsStillEnforced) {
  tile::BoundedFifo<int> f(2);
  EXPECT_THROW(f.pop(), ContractViolation);
  EXPECT_THROW(f.drop(), ContractViolation);
  f.push(1);
  f.push(2);
  EXPECT_THROW(f.push(3), ContractViolation);
}

// --------------------------------------------------------------------------
// Flat-array cpu::Cache vs the array-of-structs reference
// --------------------------------------------------------------------------

/// The pre-flattening cache: one {tag, valid, dirty, lru} struct per way,
/// early-exit way scans, `%` alignment checks. Kept here as the behavioral
/// reference the flat design must match decision for decision.
class RefCache {
 public:
  explicit RefCache(const cpu::CacheConfig& cfg)
      : cfg_(cfg),
        num_sets_(cfg.size_bytes / (std::uint64_t{cfg.ways} * cfg.line_bytes)),
        ways_(num_sets_ * cfg.ways) {}

  bool access(std::uint64_t line) {
    EASYDRAM_EXPECTS(line % cfg_.line_bytes == 0);
    Way* way = find(line);
    if (way == nullptr) {
      ++misses_;
      return false;
    }
    way->lru = ++lru_clock_;
    ++hits_;
    return true;
  }

  /// What a store hit cost before access_dirty: access, then mark_dirty.
  bool access_dirty(std::uint64_t line) {
    if (!access(line)) return false;
    mark_dirty(line);
    return true;
  }

  /// Presence without LRU side effects; picks the lines mark_dirty may take.
  bool contains(std::uint64_t line) {
    EASYDRAM_EXPECTS(line % cfg_.line_bytes == 0);
    return find(line) != nullptr;
  }

  cpu::FillResult fill(std::uint64_t line) {
    EASYDRAM_EXPECTS(line % cfg_.line_bytes == 0);
    const std::size_t set = set_of(line);
    Way* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Way& way = ways_[set * cfg_.ways + w];
      if (way.valid && way.tag == tag_of(line)) {
        way.lru = ++lru_clock_;
        return cpu::FillResult{};
      }
      if (!way.valid) victim = &way;
    }
    cpu::FillResult result;
    if (victim == nullptr) {
      victim = &ways_[set * cfg_.ways];
      for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
        Way& way = ways_[set * cfg_.ways + w];
        if (way.lru < victim->lru) victim = &way;
      }
      result.evicted = true;
      result.evicted_dirty = victim->dirty;
      result.evicted_line = (victim->tag * num_sets_ + set) * cfg_.line_bytes;
    }
    victim->valid = true;
    victim->dirty = false;
    victim->tag = tag_of(line);
    victim->lru = ++lru_clock_;
    return result;
  }

  void mark_dirty(std::uint64_t line) {
    EASYDRAM_EXPECTS(line % cfg_.line_bytes == 0);
    Way* way = find(line);
    EASYDRAM_EXPECTS(way != nullptr);
    way->dirty = true;
  }

  cpu::Cache::FlushResult flush(std::uint64_t line) {
    EASYDRAM_EXPECTS(line % cfg_.line_bytes == 0);
    Way* way = find(line);
    if (way == nullptr) return cpu::Cache::FlushResult{};
    const cpu::Cache::FlushResult r{true, way->dirty};
    way->valid = false;
    way->dirty = false;
    return r;
  }

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  std::size_t set_of(std::uint64_t line) const {
    return static_cast<std::size_t>((line / cfg_.line_bytes) % num_sets_);
  }
  std::uint64_t tag_of(std::uint64_t line) const {
    return line / cfg_.line_bytes / num_sets_;
  }
  Way* find(std::uint64_t line) {
    const std::size_t set = set_of(line);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Way& way = ways_[set * cfg_.ways + w];
      if (way.valid && way.tag == tag_of(line)) return &way;
    }
    return nullptr;
  }

  cpu::CacheConfig cfg_;
  std::uint64_t num_sets_;
  std::vector<Way> ways_;
  std::uint64_t lru_clock_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Drives cpu::Cache and RefCache through identical seeded streams of every
/// operation (access, access_dirty, fill, mark_dirty, flush) at 1, 2, 8 and
/// 16 ways. Lines come from a universe three times
/// the cache's capacity spread over few sets, so sets fill, evict and
/// refill constantly; mark_dirty is only issued on present lines (its
/// precondition). Every return value, FillResult and counter must agree
/// after every operation.
TEST(HotPathPropertyTest, FlatCacheMatchesArrayOfStructsReference) {
  for (const std::uint32_t ways : {1u, 2u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const cpu::CacheConfig cfg{4 * std::uint64_t{ways} * 64, ways, 64};
      cpu::Cache cache(cfg);
      RefCache ref(cfg);
      SplitMix64 rng(seed * 0x9E37 + ways);
      const std::uint64_t universe = 3 * 4 * std::uint64_t{ways};
      for (int step = 0; step < 4000; ++step) {
        const std::uint64_t line = (rng.next() % universe) * 64;
        const std::uint64_t op = rng.next() % 5;
        SCOPED_TRACE(::testing::Message() << "ways " << ways << " seed " << seed
                                          << " step " << step << " op " << op
                                          << " line " << line);
        switch (op) {
          case 0:
            ASSERT_EQ(cache.access(line), ref.access(line));
            break;
          case 1:
            ASSERT_EQ(cache.access_dirty(line), ref.access_dirty(line));
            break;
          case 2: {
            const cpu::FillResult a = cache.fill(line);
            const cpu::FillResult b = ref.fill(line);
            ASSERT_EQ(a.evicted, b.evicted);
            ASSERT_EQ(a.evicted_dirty, b.evicted_dirty);
            ASSERT_EQ(a.evicted_line, b.evicted_line);
            break;
          }
          case 3:
            if (ref.contains(line)) {
              cache.mark_dirty(line);
              ref.mark_dirty(line);
            } else {
              ASSERT_THROW(cache.mark_dirty(line), ContractViolation);
            }
            break;
          default: {
            const cpu::Cache::FlushResult a = cache.flush(line);
            const cpu::Cache::FlushResult b = ref.flush(line);
            ASSERT_EQ(a.was_present, b.was_present);
            ASSERT_EQ(a.was_dirty, b.was_dirty);
            break;
          }
        }
        ASSERT_EQ(cache.hits(), ref.hits());
        ASSERT_EQ(cache.misses(), ref.misses());
      }
      ASSERT_THROW(cache.access(32), ContractViolation);
      ASSERT_THROW(cache.fill(32), ContractViolation);
    }
  }
}

// --------------------------------------------------------------------------
// CompletionRing
// --------------------------------------------------------------------------

TEST(CompletionRingTest, InOrderPutAndConsume) {
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_FALSE(ring.ready(id));
    ring.put(id, static_cast<std::int64_t>(id * 10), id % 2 == 0);
    ASSERT_TRUE(ring.ready(id));
    EXPECT_EQ(ring.release_proc_cycle(id), static_cast<std::int64_t>(id * 10));
    EXPECT_EQ(ring.ok(id), id % 2 == 0);
    ring.consume(id);
    EXPECT_FALSE(ring.ready(id));
  }
  EXPECT_EQ(ring.window(), 0u);  // Fully reclaimed: no growth leak.
}

TEST(CompletionRingTest, OutOfOrderConsumeReclaimsOnCatchUp) {
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 8; ++id) ring.put(id, 0, true);
  // Consume everything but the head: the window cannot shrink yet.
  for (std::uint64_t id = 2; id <= 8; ++id) ring.consume(id);
  EXPECT_EQ(ring.window(), 8u);
  EXPECT_TRUE(ring.ready(1));
  ring.consume(1);  // Head consumed: the whole consumed prefix collapses.
  EXPECT_EQ(ring.window(), 0u);
  ring.put(9, 99, false);
  EXPECT_TRUE(ring.ready(9));
}

TEST(CompletionRingTest, GrowsPastInitialCapacityAndWraps) {
  sys::CompletionRing ring;
  SplitMix64 rng(11);
  std::uint64_t next_put = 1;
  std::uint64_t next_take = 1;
  // Random window churn with a window often larger than the initial
  // capacity, forcing both growth and head wraparound.
  for (int step = 0; step < 5000; ++step) {
    if (next_take == next_put || rng.next() % 2 == 0) {
      ring.put(next_put, static_cast<std::int64_t>(next_put), true);
      ++next_put;
    } else {
      ASSERT_TRUE(ring.ready(next_take));
      EXPECT_EQ(ring.release_proc_cycle(next_take),
                static_cast<std::int64_t>(next_take));
      ring.consume(next_take);
      ++next_take;
    }
  }
}

TEST(CompletionRingTest, ClearDiscardsWindow) {
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 5; ++id) ring.put(id, 7, true);
  ring.consume(2);
  ring.clear();
  EXPECT_EQ(ring.window(), 0u);
  for (std::uint64_t id = 1; id <= 5; ++id) EXPECT_FALSE(ring.ready(id));
  // Ids continue densely after the cleared window.
  ring.put(6, 1, true);
  EXPECT_TRUE(ring.ready(6));
  EXPECT_THROW(ring.put(3, 1, true), ContractViolation);
}

TEST(CompletionRingTest, DoublePutRejected) {
  sys::CompletionRing ring;
  ring.put(1, 0, true);
  EXPECT_THROW(ring.put(1, 0, true), ContractViolation);
}

// --------------------------------------------------------------------------
// CompletionRing error paths (the graceful-degradation contract: typed
// failures travel the same ring as successes, never a silent wrong answer)
// --------------------------------------------------------------------------

TEST(CompletionRingTest, TypedFailuresSurviveTheRing) {
  sys::CompletionRing ring;
  ring.put(1, 10, true);
  ring.put(2, 20, false, RequestError::kUncorrectable);
  ring.put(3, 30, true, RequestError::kNone, /*data_reliable=*/false);

  EXPECT_TRUE(ring.ok(1));
  EXPECT_EQ(ring.error(1), RequestError::kNone);
  EXPECT_TRUE(ring.data_reliable(1));

  EXPECT_FALSE(ring.ok(2));
  EXPECT_EQ(ring.error(2), RequestError::kUncorrectable);

  EXPECT_TRUE(ring.ok(3));
  EXPECT_FALSE(ring.data_reliable(3));

  for (std::uint64_t id = 1; id <= 3; ++id) ring.consume(id);
  EXPECT_EQ(ring.window(), 0u);
}

TEST(CompletionRingTest, RetriedCompletionArrivesOutOfOrder) {
  // A retried UE read completes after younger requests that were served
  // while its re-reads ran: the failing id's slot must keep its typed
  // verdict while the younger ids come and go around it.
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 4; ++id) ring.note_pending(id, 0);
  ring.put(2, 20, true);
  ring.put(3, 30, true);
  ring.put(4, 45, false, RequestError::kUncorrectable);
  EXPECT_FALSE(ring.ready(1));
  EXPECT_TRUE(ring.pending(1));
  ring.consume(3);  // Out-of-order consume leaves a hole at 3.
  ring.put(1, 90, false, RequestError::kUncorrectable);  // Retries exhausted.

  EXPECT_EQ(ring.error(1), RequestError::kUncorrectable);
  EXPECT_EQ(ring.release_proc_cycle(1), 90);
  EXPECT_EQ(ring.error(4), RequestError::kUncorrectable);
  ring.consume(1);
  ring.consume(2);
  ring.consume(4);
  EXPECT_EQ(ring.window(), 0u);
}

TEST(CompletionRingTest, WrapAroundPreservesMixedVerdicts) {
  // Churn the window past the initial capacity with a deterministic mix of
  // ok / typed-failure / unreliable completions and check every verdict
  // survives growth and head wraparound bit-exactly.
  sys::CompletionRing ring;
  std::uint64_t next_put = 1;
  std::uint64_t next_take = 1;
  SplitMix64 rng(0xECC5EED);
  const auto expected_error = [](std::uint64_t id) {
    return id % 5 == 0 ? RequestError::kUncorrectable : RequestError::kNone;
  };
  for (int step = 0; step < 5000; ++step) {
    if (next_take == next_put || rng.next() % 2 == 0) {
      const std::uint64_t id = next_put++;
      ring.put(id, static_cast<std::int64_t>(id), expected_error(id) ==
                                                      RequestError::kNone,
               expected_error(id), /*data_reliable=*/id % 3 != 0);
    } else {
      const std::uint64_t id = next_take++;
      ASSERT_TRUE(ring.ready(id));
      EXPECT_EQ(ring.error(id), expected_error(id)) << id;
      EXPECT_EQ(ring.ok(id), expected_error(id) == RequestError::kNone) << id;
      EXPECT_EQ(ring.data_reliable(id), id % 3 != 0) << id;
      ring.consume(id);
    }
  }
}

}  // namespace
}  // namespace easydram
