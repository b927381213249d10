// Sharded-map battery: OrderedMap conformance for every leap-list policy,
// codec-order routing properties (monotone, clamped, all shards
// reachable), partition-boundary fuzz against std::map (keys adjacent
// to split points, plus keys outside the hint window), stitched range
// semantics (early exit, bounded scans, cursors across boundaries),
// cross-shard composition with plain maps, the abort of a single-op
// stitched scan inside a transaction, and the cross-shard
// linearizability stress: movers rotate keys between slots in different
// shards (half through leap::txn with in-transaction invariant checks,
// half through move_key) while stitched-range readers (one
// transactional, one as-of) and point readers assert exactly-once
// visibility at every instant. LEAP_STRESS_MS scales the stress window;
// the whole file runs in the ASan and TSan CI jobs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/map.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

namespace codec = leap::codec;
namespace policy = leap::policy;
using leap::ShardOptions;
using leap::core::Params;

namespace {

// --- Concept conformance (compile-time) ------------------------------

template <typename P>
using I64Sharded = leap::ShardedMap<std::int64_t, std::int64_t, P>;

static_assert(leap::OrderedMap<I64Sharded<policy::LT>>);
static_assert(leap::OrderedMap<I64Sharded<policy::COP>>);
static_assert(leap::OrderedMap<I64Sharded<policy::TM>>);
static_assert(leap::OrderedMap<I64Sharded<policy::RW>>);
static_assert(
    leap::OrderedMap<leap::ShardedMap<std::uint32_t, double, policy::LT>>);

// Only the TM policy composes; the sharded tag is what the harness and
// db layers key off.
template <typename M>
constexpr bool kHasComposable = requires(M m, leap::stm::Tx& tx) {
  m.insert_in(tx, typename M::key_type{}, typename M::mapped_type{});
  m.move_key(typename M::key_type{}, typename M::key_type{});
};
static_assert(kHasComposable<I64Sharded<policy::TM>>);
static_assert(!kHasComposable<I64Sharded<policy::LT>>);
static_assert(I64Sharded<policy::LT>::kSharded);

// --- Routing properties ----------------------------------------------

void test_routing() {
  using M = I64Sharded<policy::LT>;
  constexpr std::size_t kShards = 8;
  const ShardOptions opts{.shards = kShards,
                          .params = Params{.node_size = 8, .max_level = 4}};
  M map(opts, -1000, 999);
  CHECK_EQ(map.shard_count(), kShards);

  // Monotone over the window and beyond it; every shard reachable.
  std::size_t prev = 0;
  std::size_t jumps = 0;
  for (std::int64_t k = -1300; k <= 1300; ++k) {
    const std::size_t s = map.shard_of(k);
    CHECK(s < kShards);
    CHECK(s >= prev);
    if (s > prev) {
      CHECK_EQ(s, prev + 1);  // consecutive intervals, no skipped shard
      ++jumps;
    }
    prev = s;
  }
  CHECK_EQ(jumps, kShards - 1);

  // Keys outside the hint window clamp onto the edge shards.
  CHECK_EQ(map.shard_of(std::numeric_limits<std::int64_t>::min() + 2), 0u);
  CHECK_EQ(map.shard_of(std::numeric_limits<std::int64_t>::max() - 2),
           kShards - 1);

  // The full-window default stays monotone and in range (a narrow
  // distribution buckets into one shard there — documented behavior).
  M wide(opts);
  prev = 0;
  for (std::int64_t k = -1000000; k <= 1000000; k += 997) {
    const std::size_t s = wide.shard_of(k);
    CHECK(s < kShards);
    CHECK(s >= prev);
    prev = s;
  }

  // One shard degenerates to a plain routed map.
  M single(ShardOptions{.shards = 1, .params = opts.params}, -1000, 999);
  for (std::int64_t k = -5000; k <= 5000; k += 13) {
    CHECK_EQ(single.shard_of(k), 0u);
  }

  // Balance regression: a window span just ABOVE a power of two (the
  // harness window [1, 102001], span 102000 vs 2^17) must still split
  // near-evenly — a power-of-two normalization here starved the top
  // shards (S=8: shard 7 empty; S=64: shards 49..63 empty).
  for (const std::size_t shards : {std::size_t{8}, std::size_t{64}}) {
    M harness_window(ShardOptions{.shards = shards, .params = opts.params},
                     1, 102001);
    CHECK_EQ(harness_window.shard_of(102001), shards - 1);
    std::vector<std::size_t> load(shards, 0);
    for (std::int64_t k = 1; k <= 102001; ++k) {
      ++load[harness_window.shard_of(k)];
    }
    const auto [lo_it, hi_it] = std::minmax_element(load.begin(), load.end());
    CHECK(*lo_it > 0);
    CHECK(*hi_it <= *lo_it + *lo_it / 8);  // within ~12% of even
  }
  std::printf("  routing ok\n");
}

// --- Partition-boundary fuzz vs std::map -----------------------------

template <typename P>
void test_boundary_fuzz(const char* name) {
  using M = leap::ShardedMap<std::int32_t, std::int64_t, P>;
  constexpr std::int32_t kHalf = 500;
  constexpr std::size_t kShards = 8;
  M map(ShardOptions{.shards = kShards,
                     .params = Params{.node_size = 8, .max_level = 6}},
        -kHalf, kHalf);

  // Split-adjacent keys: both sides of every partition boundary.
  std::vector<std::int32_t> edges;
  for (std::int32_t k = -kHalf; k < kHalf; ++k) {
    if (map.shard_of(k) != map.shard_of(k + 1)) {
      edges.push_back(k);
      edges.push_back(k + 1);
    }
  }
  CHECK_EQ(edges.size(), 2 * (kShards - 1));

  std::map<std::int32_t, std::int64_t> reference;
  leap::util::Xoshiro256 rng(5150);
  const auto draw_key = [&]() -> std::int32_t {
    if ((rng.next() & 1) != 0) {
      // Aim at a split point, jittered a couple of keys either side.
      const auto edge = edges[rng.next_below(edges.size())];
      const auto jitter = static_cast<std::int32_t>(rng.next_below(5)) - 2;
      return edge + jitter;
    }
    // Uniform, slightly wider than the hint window so the clamped
    // edge shards see out-of-window traffic too.
    return static_cast<std::int32_t>(rng.next_below(2 * (kHalf + 10) + 1)) -
           (kHalf + 10);
  };
  for (int op = 0; op < 12000; ++op) {
    const std::int32_t key = draw_key();
    const int dial = static_cast<int>(rng.next_below(100));
    if (dial < 40) {
      const auto value = static_cast<std::int64_t>(rng.next());
      CHECK_EQ(map.insert(key, value),
               reference.find(key) == reference.end());
      reference[key] = value;
    } else if (dial < 70) {
      CHECK_EQ(map.erase(key), reference.erase(key) > 0);
    } else if (dial < 80) {
      const auto expected = reference.find(key);
      const auto actual = map.get(key);
      CHECK_EQ(actual.has_value(), expected != reference.end());
      if (actual) CHECK_EQ(*actual, expected->second);
    } else if (dial < 92) {
      // Stitched range crossing one or more boundaries.
      const auto span = static_cast<std::int32_t>(rng.next_below(300));
      const std::int32_t low = key;
      const auto high = static_cast<std::int32_t>(
          std::min<std::int64_t>(kHalf + 10, std::int64_t{low} + span));
      std::vector<std::pair<std::int32_t, std::int64_t>> got;
      const std::size_t visited =
          map.for_range(low, high, leap::append_to(got));
      CHECK_EQ(visited, got.size());
      auto it = reference.lower_bound(low);
      std::size_t n = 0;
      for (; it != reference.end() && it->first <= high; ++it, ++n) {
        CHECK(n < got.size());
        CHECK_EQ(got[n].first, it->first);
        CHECK_EQ(got[n].second, it->second);
      }
      CHECK_EQ(got.size(), n);
    } else {
      // Bounded stitched scan: explicit append, global key order.
      const std::size_t limit = 1 + rng.next_below(48);
      std::vector<std::pair<std::int32_t, std::int64_t>> out = {{-1, -1}};
      const std::size_t appended = map.scan(key, limit, out);
      CHECK(appended <= limit);
      CHECK_EQ(out.size(), 1 + appended);
      CHECK_EQ(out[0].first, -1);
      auto it = reference.lower_bound(key);
      for (std::size_t i = 0; i < appended; ++i, ++it) {
        CHECK(it != reference.end());
        CHECK_EQ(out[1 + i].first, it->first);
        CHECK_EQ(out[1 + i].second, it->second);
      }
      // The scan is exhaustive-or-full: short results mean the
      // reference had nothing more at or above `key` either.
      if (appended < limit) CHECK(it == reference.end());
    }
  }
  CHECK_EQ(map.size_slow(), reference.size());
  CHECK(map.debug_validate());

  // Early exit across a shard boundary: the three smallest keys of a
  // window spanning the whole map, regardless of which shards they
  // live in.
  if (reference.size() >= 3) {
    std::vector<std::int32_t> seen;
    const std::size_t visited = map.for_range(
        -kHalf - 10, kHalf + 10, [&](std::int32_t k, std::int64_t) {
          seen.push_back(k);
          return seen.size() < 3;
        });
    CHECK_EQ(visited, 3u);
    auto it = reference.begin();
    for (std::size_t i = 0; i < 3; ++i, ++it) CHECK_EQ(seen[i], it->first);
  }

  // Snapshot cursor stitched over every shard, stable across updates.
  auto cursor = map.snapshot(-kHalf - 10, kHalf + 10);
  CHECK_EQ(cursor.size(), reference.size());
  map.insert(0, 42);
  auto ref = reference.begin();
  for (; cursor.valid(); cursor.next(), ++ref) {
    CHECK_EQ(cursor.key(), ref->first);
    CHECK_EQ(cursor.value(), ref->second);
  }
  CHECK(ref == reference.end());
  std::printf("  boundary fuzz %s ok\n", name);
}

// --- Cross-shard and cross-map composition (policy::TM) --------------

void test_composition() {
  using SM = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  using M = leap::Map<std::int64_t, std::int64_t, policy::TM>;
  const Params params{.node_size = 8, .max_level = 4};
  SM sharded(ShardOptions{.shards = 4, .params = params}, 1, 400);
  M plain(params);
  for (std::int64_t k = 1; k <= 200; ++k) sharded.insert(k, k * 10);
  CHECK_EQ(sharded.size_slow(), 200u);
  // The preload actually spans shards.
  CHECK(sharded.shard_of(1) != sharded.shard_of(200));

  // move_key across a shard boundary: value travels, source vanishes.
  CHECK(sharded.move_key(1, 399));
  CHECK(!sharded.get(1).has_value());
  CHECK_EQ(*sharded.get(399), 10);
  CHECK(!sharded.move_key(1, 399));  // absent source moves nothing
  CHECK(sharded.move_key(399, 1));   // and back

  // One transaction spanning the sharded map and a plain map: move the
  // odd keys out, take a stitched + plain snapshot at the same instant.
  leap::txn([&](leap::stm::Tx& tx) {
    for (std::int64_t k = 1; k <= 200; k += 2) {
      const auto v = sharded.get_in(tx, k);
      CHECK(v.has_value());
      sharded.erase_in(tx, k);
      plain.insert_in(tx, k, *v);
    }
  });
  CHECK_EQ(sharded.size_slow(), 100u);
  CHECK_EQ(plain.size_slow(), 100u);
  std::vector<std::pair<std::int64_t, std::int64_t>> both;
  leap::txn([&](leap::stm::Tx& tx) {
    both.clear();
    sharded.for_range_in(tx, 1, 400, leap::append_to(both));
    plain.for_range_in(tx, 1, 400, leap::append_to(both));
  });
  CHECK_EQ(both.size(), 200u);
  for (std::size_t i = 0; i < 100; ++i) {
    CHECK_EQ(both[i].first, static_cast<std::int64_t>(2 * (i + 1)));
    CHECK_EQ(both[100 + i].first, static_cast<std::int64_t>(2 * i + 1));
  }

  // Composable bounded scan inside one transaction.
  std::vector<std::pair<std::int64_t, std::int64_t>> first10;
  leap::txn([&](leap::stm::Tx& tx) {
    first10.clear();
    sharded.scan_in(tx, 1, 10, first10);
  });
  CHECK_EQ(first10.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    CHECK_EQ(first10[i].first, static_cast<std::int64_t>(2 * (i + 1)));
  }
  CHECK(sharded.debug_validate());
  std::printf("  composition ok\n");
}

void test_nested_scan_aborts() {
  // A single-op stitched scan walks as of a pinned timestamp, so inside
  // leap::txn it would miss the transaction's own writes; it aborts in
  // every build type instead. for_range_in/scan_in are the nestable
  // forms. Each nested call runs in a child process.
  using SM = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  SM map(ShardOptions{.shards = 4,
                      .params = Params{.node_size = 8, .max_level = 4}},
         1, 400);
  for (std::int64_t k = 10; k <= 400; k += 10) map.insert(k, k);
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  CHECK(leap::test::aborts_in_child([&] {
    leap::txn([&](leap::stm::Tx& tx) {
      map.insert_in(tx, 5, 5);
      map.for_range(1, 400, leap::append_to(out));
    });
  }));
  CHECK(leap::test::aborts_in_child([&] {
    leap::txn([&](leap::stm::Tx& tx) {
      map.insert_in(tx, 5, 5);
      map.scan(1, 100, out);
    });
  }));
  // Outside a transaction both answer.
  CHECK_EQ(map.for_range(1, 400, leap::append_to(out)), std::size_t{40});
  CHECK_EQ(map.scan(1, 100, out), std::size_t{40});
  CHECK_EQ(out.front().first, std::int64_t{10});
  std::printf("  single-op scan inside a transaction aborts ok\n");
}

// --- Batched gets inside composed transactions ------------------------
// get_many_in answers a run of gets as the sequential get_in calls
// would, at its place in the transaction: it sees the transaction's own
// earlier puts and erases (the has_write fallback to the instrumented
// search), keys in every shard and past both window edges, and runs
// longer than one interleaved group, while node_size 4 keeps splitting
// and merging nodes under it. Range reads (for_range_in, and scan_in
// with a limit) ride along: each window starts at or just past a node
// the burst rewrote and runs over further written keys, so the walk's
// start link and links mid-range are the transaction's own writes. Their
// visitors have no on_restart: a composable scan delivers each pair once.

template <typename M>
void run_batched_get_fuzz(M& map, std::int32_t lo, std::int32_t hi,
                          std::uint64_t seed) {
  std::map<std::int32_t, std::int64_t> reference;
  leap::util::Xoshiro256 rng(seed);
  const auto draw_key = [&]() -> std::int32_t {
    return lo - 20 +
           static_cast<std::int32_t>(rng.next_below(
               static_cast<std::uint64_t>(hi - lo) + 41));
  };
  struct Op {
    int kind;            // 0 put, 1 erase, 2 get, 3 range read
    std::int32_t key;    // a range read's low bound
    std::int64_t value;  // a range read's high bound
    std::size_t limit;   // a range read's scan_in limit; 0: for_range_in
  };
  std::vector<Op> ops;
  std::vector<std::int32_t> keys;
  std::vector<std::optional<std::int64_t>> got;
  std::vector<std::pair<std::int32_t, std::int64_t>> seen;
  std::size_t gets = 0;
  std::size_t ranges = 0;
  for (int burst = 0; burst < 1500; ++burst) {
    ops.clear();
    std::vector<std::int32_t> written;
    const int runs = 1 + static_cast<int>(rng.next_below(6));
    for (int r = 0; r < runs; ++r) {
      const int kind = static_cast<int>(rng.next_below(4));
      if (kind == 3) {
        if (written.empty()) continue;
        const std::int32_t a = written[rng.next_below(written.size())];
        const std::int32_t b = written[rng.next_below(written.size())];
        const std::int32_t low =
            std::min(a, b) + static_cast<std::int32_t>(rng.next_below(7)) - 3;
        const std::int32_t high =
            std::max(a, b) + static_cast<std::int32_t>(rng.next_below(8));
        const std::size_t limit =
            (rng.next() & 1) != 0 ? 1 + rng.next_below(40) : 0;
        ops.push_back({3, low, std::max(low, high), limit});
        continue;
      }
      // Write runs stay short; get runs sometimes outgrow one group.
      const std::uint64_t len =
          kind == 2 ? 1 + rng.next_below(rng.next_below(4) == 0 ? 40 : 12)
                    : 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < len; ++i) {
        std::int32_t key = draw_key();
        if (kind == 2 && !written.empty() && (rng.next() & 1) != 0) {
          // A key this burst already wrote, or its neighbour in the
          // same node: the batch must read the transaction's writes.
          key = written[rng.next_below(written.size())] +
                static_cast<std::int32_t>(rng.next_below(3)) - 1;
        }
        if (kind != 2) written.push_back(key);
        ops.push_back({kind, key, static_cast<std::int64_t>(rng.next()), 0});
      }
    }
    std::map<std::int32_t, std::int64_t> after;
    leap::txn([&](leap::stm::Tx& tx) {
      after = reference;  // the closure re-runs from scratch on retry
      for (std::size_t i = 0; i < ops.size();) {
        const Op& op = ops[i];
        if (op.kind == 0) {
          CHECK_EQ(map.insert_in(tx, op.key, op.value),
                   after.find(op.key) == after.end());
          after[op.key] = op.value;
          ++i;
          continue;
        }
        if (op.kind == 1) {
          CHECK_EQ(map.erase_in(tx, op.key), after.erase(op.key) > 0);
          ++i;
          continue;
        }
        if (op.kind == 3) {
          seen.clear();
          if (op.limit == 0) {
            const auto high = static_cast<std::int32_t>(op.value);
            const std::size_t visited = map.for_range_in(
                tx, op.key, high, [&](std::int32_t k, std::int64_t v) {
                  seen.push_back({k, v});
                });
            CHECK_EQ(visited, seen.size());
          } else {
            CHECK_EQ(map.scan_in(tx, op.key, op.limit, seen), seen.size());
          }
          auto it = after.lower_bound(op.key);
          for (const auto& [k, v] : seen) {
            CHECK(it != after.end());
            CHECK_EQ(k, it->first);
            CHECK_EQ(v, it->second);
            ++it;
          }
          if (op.limit == 0) {
            CHECK(it == after.end() || it->first > op.value);
          } else {
            CHECK(seen.size() == op.limit || it == after.end());
          }
          ++i;
          continue;
        }
        keys.clear();
        for (; i < ops.size() && ops[i].kind == 2; ++i) {
          keys.push_back(ops[i].key);
        }
        got.assign(keys.size(), std::optional<std::int64_t>(-1));
        map.get_many_in(tx, keys.data(), keys.size(), got.data());
        for (std::size_t j = 0; j < keys.size(); ++j) {
          const auto it = after.find(keys[j]);
          CHECK_EQ(got[j].has_value(), it != after.end());
          if (got[j]) CHECK_EQ(*got[j], it->second);
          CHECK(got[j] == map.get_in(tx, keys[j]));
        }
      }
    });
    reference = std::move(after);
    gets += std::count_if(ops.begin(), ops.end(),
                          [](const Op& op) { return op.kind == 2; });
    ranges += std::count_if(ops.begin(), ops.end(),
                            [](const Op& op) { return op.kind == 3; });
  }
  CHECK(map.debug_validate());
  CHECK_EQ(map.size_slow(), reference.size());
  // A whole-window batch after the storm: every key, one call.
  keys.clear();
  for (std::int32_t k = lo - 20; k <= hi + 20; ++k) keys.push_back(k);
  got.assign(keys.size(), std::nullopt);
  leap::txn([&](leap::stm::Tx& tx) {
    map.get_many_in(tx, keys.data(), keys.size(), got.data());
  });
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const auto it = reference.find(keys[j]);
    CHECK_EQ(got[j].has_value(), it != reference.end());
    if (got[j]) CHECK_EQ(*got[j], it->second);
  }
  CHECK(gets > 10000);
  CHECK(ranges > 500);
}

void test_batched_get_fuzz() {
  const Params storm{.node_size = 4, .max_level = 6};
  constexpr std::int32_t kHalf = 400;
  leap::ShardedMap<std::int32_t, std::int64_t, policy::TM> sharded(
      ShardOptions{.shards = 8, .params = storm}, -kHalf, kHalf);
  run_batched_get_fuzz(sharded, -kHalf, kHalf, 4711);
  leap::Map<std::int32_t, std::int64_t, policy::TM> plain(storm);
  run_batched_get_fuzz(plain, -kHalf, kHalf, 4712);
  std::printf("  batched get fuzz ok\n");
}

// --- Cross-shard linearizability stress ------------------------------
// Each logical key 1..kLogical lives at exactly one of two slots — k
// (low shards) or k + kOffset (high shards). Movers bounce values
// between the slots; stitched-range readers and transactional point
// readers must observe exactly one slot per key at every instant.

constexpr std::int64_t kLogical = 96;
constexpr std::int64_t kOffset = 10000;

std::int64_t value_for(std::int64_t key) { return key * 7 + 3; }

void test_cross_shard_atomicity_stress() {
  constexpr unsigned kMovers = 4;
  constexpr unsigned kPointReaders = 2;
  constexpr unsigned kSnapshotReaders = 2;
  using M = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  M map(ShardOptions{.shards = 8,
                     .params = Params{.node_size = 16, .max_level = 6}},
        1, kOffset + kLogical);
  // The two slots of a key must straddle shards or the test is vacuous.
  for (std::int64_t k = 1; k <= kLogical; ++k) {
    CHECK(map.shard_of(k) != map.shard_of(k + kOffset));
  }
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    for (std::int64_t k = 1; k <= kLogical; ++k) {
      pairs.push_back({k, value_for(k)});
    }
    map.bulk_load(pairs);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> moves{0};
  leap::util::SpinBarrier barrier(kMovers + kPointReaders +
                                  kSnapshotReaders + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kMovers; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(1700 + t);
      std::uint64_t local = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k =
            static_cast<std::int64_t>(1 + rng.next_below(kLogical));
        if ((rng.next() & 1) != 0) {
          // Explicit transaction with in-transaction invariant checks
          // (opacity makes them safe: an inconsistent read set aborts
          // before values are returned).
          leap::txn([&](leap::stm::Tx& tx) {
            const auto at_low = map.get_in(tx, k);
            const auto at_high = map.get_in(tx, k + kOffset);
            CHECK(at_low.has_value() != at_high.has_value());
            if (at_low) {
              CHECK_EQ(*at_low, value_for(k));
              map.erase_in(tx, k);
              map.insert_in(tx, k + kOffset, *at_low);
            } else {
              CHECK_EQ(*at_high, value_for(k));
              map.erase_in(tx, k + kOffset);
              map.insert_in(tx, k, *at_high);
            }
          });
        } else {
          // The move_key convenience: each call is atomic on its own;
          // whichever direction finds its source occupied wins.
          if (!map.move_key(k, k + kOffset)) {
            (void)map.move_key(k + kOffset, k);
          }
        }
        ++local;
      }
      moves.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (unsigned t = 0; t < kPointReaders; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(1800 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k =
            static_cast<std::int64_t>(1 + rng.next_below(kLogical));
        // Half the readers take both slots in one batched lookup.
        const int holders = leap::txn([&](leap::stm::Tx& tx) {
          const std::int64_t slots[2] = {k, k + kOffset};
          std::optional<std::int64_t> values[2];
          if (t % 2 == 0) {
            for (int i = 0; i < 2; ++i) values[i] = map.get_in(tx, slots[i]);
          } else {
            map.get_many_in(tx, slots, 2, values);
          }
          int count = 0;
          for (const auto& value : values) {
            if (value.has_value()) {
              CHECK_EQ(*value, value_for(k));
              ++count;
            }
          }
          return count;
        });
        CHECK_EQ(holders, 1);  // exactly one slot, never two or none
      }
    });
  }
  for (unsigned t = 0; t < kSnapshotReaders; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<std::int64_t, std::int64_t>> snap;
      std::vector<int> seen(static_cast<std::size_t>(kLogical) + 1, 0);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // Half the readers stitch every shard inside ONE transaction
        // (for_range_in), half as of ONE pinned timestamp (for_range):
        // either multi-shard snapshot must hold each logical key
        // exactly once, in strictly ascending key order.
        if (t % 2 == 0) {
          leap::txn([&](leap::stm::Tx& tx) {
            snap.clear();  // the closure may re-run after a conflict
            map.for_range_in(tx, 1, kOffset + kLogical, leap::append_to(snap));
          });
        } else {
          snap.clear();
          map.for_range(1, kOffset + kLogical, leap::append_to(snap));
        }
        CHECK_EQ(snap.size(), static_cast<std::size_t>(kLogical));
        std::fill(seen.begin(), seen.end(), 0);
        for (std::size_t i = 0; i < snap.size(); ++i) {
          if (i > 0) CHECK(snap[i].first > snap[i - 1].first);
          const std::int64_t logical = snap[i].first > kOffset
                                           ? snap[i].first - kOffset
                                           : snap[i].first;
          CHECK(logical >= 1 && logical <= kLogical);
          CHECK_EQ(snap[i].second, value_for(logical));
          ++seen[static_cast<std::size_t>(logical)];
        }
        for (std::int64_t k = 1; k <= kLogical; ++k) {
          CHECK_EQ(seen[static_cast<std::size_t>(k)], 1);
        }
      }
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(
      leap::test::stress_duration(std::chrono::milliseconds(400)));
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  // Quiescent agreement: partition invariant holds, population
  // conserved, every key at exactly one slot.
  CHECK(map.debug_validate());
  CHECK_EQ(map.size_slow(), static_cast<std::size_t>(kLogical));
  for (std::int64_t k = 1; k <= kLogical; ++k) {
    const auto at_low = map.get(k);
    const auto at_high = map.get(k + kOffset);
    CHECK(at_low.has_value() != at_high.has_value());
    CHECK_EQ(at_low ? *at_low : *at_high, value_for(k));
  }
  std::printf("  cross-shard atomicity ok (%llu moves)\n",
              static_cast<unsigned long long>(moves.load()));
}

}  // namespace

int main() {
  test_routing();
  test_boundary_fuzz<policy::LT>("LT");
  test_boundary_fuzz<policy::COP>("COP");
  test_boundary_fuzz<policy::TM>("TM");
  test_composition();
  test_nested_scan_aborts();
  test_batched_get_fuzz();
  test_cross_shard_atomicity_stress();
  return leap::test::finish("test_sharded");
}
