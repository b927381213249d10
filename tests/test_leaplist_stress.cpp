// Concurrency stress for all four variants — the test TSan exists for.
//
// Writers churn insert(key, key * 3 + 1) / erase over a small hot key
// range (maximizing node replacement races); readers run lookups and
// range queries. Every range query must be a consistent snapshot of
// complete operations: sorted, duplicate-free, in-bounds keys whose
// values obey the writer invariant. Afterwards the structure must pass
// the full invariant walk and agree with a sequential re-check.
//
// LEAP_STRESS_MS scales the run (default 400 ms per variant; CI TSan
// uses a shorter window).
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "leaplist/leaplist.hpp"
#include "test_common.hpp"
#include "util/ebr.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

using namespace leap::core;

namespace {

constexpr Key kKeyRange = 512;

Value value_for(Key key) { return key * 3 + 1; }

std::chrono::milliseconds stress_duration() {
  return leap::test::stress_duration(std::chrono::milliseconds(400));
}

template <typename ListT>
void stress_variant(const char* name) {
  constexpr unsigned kWriters = 4;
  constexpr unsigned kReaders = 2;
  constexpr unsigned kScanners = 2;
  ListT list(Params{.node_size = 16, .max_level = 6});
  {
    std::vector<KV> pairs;
    for (Key k = 1; k <= kKeyRange; k += 2) {
      pairs.push_back(KV{k, value_for(k)});
    }
    list.bulk_load(pairs);
  }
  std::atomic<bool> stop{false};
  leap::util::SpinBarrier barrier(kWriters + kReaders + kScanners + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(100 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = static_cast<Key>(1 + rng.next_below(kKeyRange));
        if ((rng.next() & 1) != 0) {
          list.insert(key, value_for(key));
        } else {
          list.erase(key);
        }
      }
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(200 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = static_cast<Key>(1 + rng.next_below(kKeyRange));
        const auto value = list.get(key);
        if (value) CHECK_EQ(*value, value_for(key));
      }
    });
  }
  for (unsigned t = 0; t < kScanners; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(300 + t);
      std::vector<KV> out;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key low = static_cast<Key>(1 + rng.next_below(kKeyRange));
        const Key high = low + static_cast<Key>(rng.next_below(64));
        list.range_query(low, high, out);
        Key prev = low - 1;
        for (const KV& kv : out) {
          CHECK(kv.key >= low);
          CHECK(kv.key <= high);
          CHECK(kv.key > prev);  // sorted, no duplicates
          CHECK_EQ(kv.value, value_for(kv.key));
          prev = kv.key;
        }
      }
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(stress_duration());
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  CHECK(list.debug_validate());
  // Sequential agreement: point reads match a full scan.
  std::vector<KV> all;
  list.range_query(1, kKeyRange, all);
  CHECK_EQ(all.size(), list.size_slow());
  for (const KV& kv : all) {
    const auto value = list.get(kv.key);
    CHECK(value.has_value());
    CHECK_EQ(*value, kv.value);
  }
  std::printf("  stress %s ok (%zu keys at rest)\n", name, all.size());
}

/// Recycling churn (PR 4): tiny nodes so nearly every insert splits and
/// every erase shrinks — maximal node replacement through the EBR-fed
/// block pool, with readers racing the recycled blocks. A stale-node
/// resurrection (a reclaimed block reused while a search could still
/// see it) shows up as a value/invariant violation here, as a poison
/// failure in Debug (pool_debug_verify / the abort in pool_alloc), and
/// as a use-after-free under ASan, where the pool is pass-through.
template <typename ListT>
void churn_variant(const char* name) {
  constexpr unsigned kWriters = 4;
  constexpr unsigned kReaders = 2;
  constexpr Key kChurnRange = 2048;
  ListT list(Params{.node_size = 4, .max_level = 6});
  {
    std::vector<KV> pairs;
    for (Key k = 1; k <= kChurnRange; k += 3) {
      pairs.push_back(KV{k, value_for(k)});
    }
    list.bulk_load(pairs);
  }
  std::atomic<bool> stop{false};
  leap::util::SpinBarrier barrier(kWriters + kReaders + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(400 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // Insert bursts drive splits; erase bursts re-feed the pool.
        const Key base = static_cast<Key>(1 + rng.next_below(kChurnRange));
        for (Key k = base; k < base + 6 && k <= kChurnRange; ++k) {
          list.insert(k, value_for(k));
        }
        for (Key k = base; k < base + 6 && k <= kChurnRange; ++k) {
          if ((rng.next() & 1) != 0) list.erase(k);
        }
      }
      // Each writer's own cached blocks must hold their poison — they
      // were filled on reclamation and nothing may touch them since.
      CHECK(leap::util::ebr::pool_debug_verify());
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(500 + t);
      std::vector<KV> out;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = static_cast<Key>(1 + rng.next_below(kChurnRange));
        const auto value = list.get(key);
        if (value) CHECK_EQ(*value, value_for(key));
        const Key low = key;
        const Key high = low + 64;
        list.range_query(low, high, out);
        Key prev = low - 1;
        for (const KV& kv : out) {
          CHECK(kv.key >= low && kv.key <= high && kv.key > prev);
          CHECK_EQ(kv.value, value_for(kv.key));
          prev = kv.key;
        }
      }
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(stress_duration());
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  CHECK(list.debug_validate());
  // Debug builds: every block cached for reuse must still carry its
  // full poison fill — a single overwritten byte means some thread
  // wrote into a node after it was reclaimed.
  CHECK(leap::util::ebr::pool_debug_verify());
  std::printf("  churn %s ok (%zu keys at rest, pool %s)\n", name,
              list.size_slow(),
              leap::util::ebr::pool_enabled() ? "recycling" : "pass-through");
}

/// Bundle reclamation (PR 10): a long-pinned scanner announces the
/// oldest timestamp in the system and holds it across a writer churn —
/// its as-of view must stay frozen (identical on every re-walk) and
/// its walks must never fail (the announced slot blocks pruning of the
/// history it needs). After the pin releases, one reclamation sweep
/// must collapse every bundle back to a single entry — the long
/// scanner caused growth, not a leak — and the recycled entry blocks
/// must hold their poison (pool_debug_verify).
template <typename ListT>
void bundle_reclaim_variant(const char* name) {
  constexpr unsigned kWriters = 4;
  constexpr Key kRange = 256;
  ListT list(Params{.node_size = 8, .max_level = 6});
  {
    std::vector<KV> pairs;
    for (Key k = 1; k <= kRange; k += 2) pairs.push_back(KV{k, value_for(k)});
    list.bulk_load(pairs);
  }
  std::atomic<bool> stop{false};
  leap::util::SpinBarrier barrier(kWriters + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(600 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = static_cast<Key>(1 + rng.next_below(kRange));
        if ((rng.next() & 1) != 0) {
          list.insert(key, value_for(key));
        } else {
          list.erase(key);
        }
      }
    });
  }
  const auto walk_at = [&](std::uint64_t ts, std::vector<KV>& out) {
    out.clear();
    auto sink = [&](Key k, Value v) { out.push_back(KV{k, v}); };
    CHECK_EQ(list.for_range_at(ts, 1, kRange, sink), out.size());
  };
  {
    leap::bundle::ScanPin pin;  // the long-pinned scanner
    std::vector<KV> baseline;
    walk_at(pin.ts(), baseline);
    barrier.arrive_and_wait();
    const auto deadline =
        std::chrono::steady_clock::now() + stress_duration();
    std::vector<KV> again;
    while (std::chrono::steady_clock::now() < deadline) {
      // The pinned view is frozen: same pairs, same order, every time,
      // no matter how much history the writers pile up meanwhile.
      walk_at(pin.ts(), again);
      CHECK_EQ(again.size(), baseline.size());
      for (std::size_t i = 0; i < again.size(); ++i) {
        CHECK_EQ(again[i].key, baseline[i].key);
        CHECK_EQ(again[i].value, baseline[i].value);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }  // pin released: nothing protects the old history anymore
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  CHECK(list.debug_validate());
  const std::size_t held = list.debug_max_bundle();
  // One explicit sweep with no announced scans collapses every bundle
  // to its single newest entry — growth under the pin was retention,
  // not a leak.
  list.bundle_prune_all();
  for (int i = 0; i < 4; ++i) leap::util::ebr::collect();
  CHECK_EQ(list.debug_max_bundle(), std::size_t{1});
  CHECK(leap::util::ebr::pool_debug_verify());
  std::printf("  bundle reclaim %s ok (max held %zu -> 1)\n", name, held);
}

}  // namespace

int main() {
  stress_variant<LeapListLT>("LT");
  stress_variant<LeapListCOP>("COP");
  stress_variant<LeapListTM>("TM");
  stress_variant<LeapListRW>("RW");
  churn_variant<LeapListLT>("LT");
  churn_variant<LeapListCOP>("COP");
  churn_variant<LeapListTM>("TM");
  bundle_reclaim_variant<LeapListLT>("LT");
  bundle_reclaim_variant<LeapListCOP>("COP");
  bundle_reclaim_variant<LeapListTM>("TM");
  bundle_reclaim_variant<LeapListRW>("RW");
  return leap::test::finish("test_leaplist_stress");
}
