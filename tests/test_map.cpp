// Typed facade tests: codec round-trip/order-preservation properties,
// OrderedMap concept conformance for every policy, Map functional fuzz
// against std::map (negative keys included), append-vs-replace
// semantics, bounded scans, snapshot cursors, composable typed
// transactions, and early-exit visitor semantics under concurrent
// splits.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/map.hpp"
#include "leaplist/skiplist.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"
#include "util/random.hpp"

namespace codec = leap::codec;
namespace policy = leap::policy;
using leap::core::Params;

namespace {

// --- Concept conformance (compile-time) ------------------------------

template <typename P>
using I64Map = leap::Map<std::int64_t, std::int64_t, P>;

static_assert(leap::OrderedMap<I64Map<policy::LT>>);
static_assert(leap::OrderedMap<I64Map<policy::COP>>);
static_assert(leap::OrderedMap<I64Map<policy::TM>>);
static_assert(leap::OrderedMap<I64Map<policy::RW>>);
static_assert(leap::OrderedMap<I64Map<policy::SkipCAS>>);
static_assert(leap::OrderedMap<I64Map<policy::SkipTM>>);
static_assert(
    leap::OrderedMap<leap::Map<std::uint32_t, double, policy::LT>>);
static_assert(!leap::OrderedMap<int>);
static_assert(!leap::OrderedMap<std::map<int, int>>);

// Only the TM policy composes.
template <typename M>
constexpr bool kHasComposable = requires(M m, leap::stm::Tx& tx) {
  m.insert_in(tx, typename M::key_type{}, typename M::mapped_type{});
};
static_assert(kHasComposable<I64Map<policy::TM>>);
static_assert(!kHasComposable<I64Map<policy::LT>>);
static_assert(!kHasComposable<I64Map<policy::SkipCAS>>);

// Codec trait checks.
static_assert(codec::KeyCodecFor<codec::Default<std::int32_t>, std::int32_t>);
static_assert(
    codec::KeyCodecFor<codec::Default<std::uint64_t>, std::uint64_t>);
static_assert(codec::ValueCodecFor<codec::BitcastValue<double>, double>);
static_assert(codec::ValueCodecFor<codec::BitcastValue<void*>, void*>);

// --- Codec properties ------------------------------------------------

template <typename K>
void check_roundtrip_and_order(const std::vector<K>& keys) {
  using C = codec::Default<K>;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    CHECK(C::decode(C::encode(keys[i])) == keys[i]);
    for (std::size_t j = 0; j < keys.size(); ++j) {
      CHECK_EQ(keys[i] < keys[j], C::encode(keys[i]) < C::encode(keys[j]));
    }
  }
}

void test_codecs() {
  check_roundtrip_and_order<std::int64_t>(
      {std::numeric_limits<std::int64_t>::min() + 1, -1000000, -1, 0, 1,
       42, std::numeric_limits<std::int64_t>::max() - 1});
  check_roundtrip_and_order<std::int32_t>(
      {std::numeric_limits<std::int32_t>::min(), -7, 0, 7,
       std::numeric_limits<std::int32_t>::max()});
  check_roundtrip_and_order<std::uint32_t>(
      {0u, 1u, 1u << 31, std::numeric_limits<std::uint32_t>::max()});
  // uint64: the full word, crossing the signed midpoint (top two values
  // are reserved for the engine sentinels).
  check_roundtrip_and_order<std::uint64_t>(
      {0ull, 1ull, (1ull << 63) - 1, 1ull << 63, (1ull << 63) + 1,
       std::numeric_limits<std::uint64_t>::max() - 2});

  // Packed pairs order by (hi, lo), negative hi included.
  using PK = codec::PackedPair<std::int64_t, std::uint64_t, 24>;
  using PC = codec::Default<PK>;
  const std::vector<PK> pairs = {{-5000, 0}, {-5000, 77},
                                 {-1, (1ull << 24) - 1}, {0, 0}, {0, 1},
                                 {123456, 9}, {123457, 0}};
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PK back = PC::decode(PC::encode(pairs[i]));
    CHECK(back == pairs[i]);
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      CHECK_EQ(pairs[i] < pairs[j],
               PC::encode(pairs[i]) < PC::encode(pairs[j]));
    }
  }

  // Value codecs: bit-exact round trips for word-sized PODs.
  struct Pod {
    std::int32_t a;
    std::uint16_t b;
    bool operator==(const Pod&) const = default;
  };
  const Pod pod{-77, 999};
  CHECK(codec::BitcastValue<Pod>::decode(
            codec::BitcastValue<Pod>::encode(pod)) == pod);
  const double d = -3.75e18;
  CHECK_EQ(codec::BitcastValue<double>::decode(
               codec::BitcastValue<double>::encode(d)),
           d);
  int dummy = 0;
  int* const p = &dummy;
  CHECK(codec::BitcastValue<int*>::decode(
            codec::BitcastValue<int*>::encode(p)) == p);
}

// --- Functional fuzz vs std::map (negative keys) ---------------------

template <typename P>
void test_map_fuzz(const char* name) {
  using M = leap::Map<std::int32_t, std::int64_t, P>;
  M map(Params{.node_size = 8, .max_level = 6});
  std::map<std::int32_t, std::int64_t> reference;
  leap::util::Xoshiro256 rng(2024);
  constexpr std::int32_t kHalf = 500;  // keys in [-kHalf, kHalf]
  for (int op = 0; op < 12000; ++op) {
    const auto key = static_cast<std::int32_t>(
        rng.next_below(2 * kHalf + 1) - kHalf);
    const int dial = static_cast<int>(rng.next_below(100));
    if (dial < 45) {
      const auto value = static_cast<std::int64_t>(rng.next());
      const bool inserted = map.insert(key, value);
      CHECK_EQ(inserted, reference.find(key) == reference.end());
      reference[key] = value;
    } else if (dial < 75) {
      CHECK_EQ(map.erase(key), reference.erase(key) > 0);
    } else if (dial < 85) {
      const auto expected = reference.find(key);
      const auto actual = map.get(key);
      CHECK_EQ(actual.has_value(), expected != reference.end());
      if (actual) CHECK_EQ(*actual, expected->second);
    } else if (dial < 88) {
      // A reversed window (low > high), usually inside one node:
      // empty, on the bulk path too.
      const auto high = static_cast<std::int32_t>(
          key - 2 - static_cast<std::int32_t>(rng.next_below(6)));
      std::vector<std::pair<std::int32_t, std::int64_t>> got;
      CHECK_EQ(map.for_range(key, high, leap::append_to(got)), 0u);
      CHECK(got.empty());
    } else {
      const auto span =
          static_cast<std::int32_t>(rng.next_below(200));
      const std::int32_t low = key;
      const auto high = static_cast<std::int32_t>(
          std::min<std::int64_t>(kHalf, std::int64_t{low} + span));
      std::vector<std::pair<std::int32_t, std::int64_t>> got;
      map.for_range(low, high, leap::append_to(got));
      auto it = reference.lower_bound(low);
      std::size_t n = 0;
      for (; it != reference.end() && it->first <= high; ++it, ++n) {
        CHECK(n < got.size());
        CHECK_EQ(got[n].first, it->first);
        CHECK_EQ(got[n].second, it->second);
      }
      CHECK_EQ(got.size(), n);
    }
  }
  CHECK_EQ(map.size_slow(), reference.size());
  CHECK(map.debug_validate());

  // Bounded scan is explicit APPEND: the prefix survives.
  std::vector<std::pair<std::int32_t, std::int64_t>> out = {{-9999, -9999}};
  const std::size_t appended = map.scan(-kHalf, 10, out);
  CHECK(appended <= 10);
  CHECK_EQ(out.size(), 1 + appended);
  CHECK_EQ(out[0].first, -9999);
  auto it = reference.begin();
  for (std::size_t i = 0; i < appended; ++i, ++it) {
    CHECK_EQ(out[1 + i].first, it->first);
  }

  // Early exit: visit exactly 3 pairs of a wide range.
  if (reference.size() >= 3) {
    std::size_t seen = 0;
    const std::size_t visited =
        map.for_range(-kHalf, kHalf, [&](std::int32_t, std::int64_t) {
          return ++seen < 3;
        });
    CHECK_EQ(seen, 3u);
    CHECK_EQ(visited, 3u);
  }

  // Snapshot cursor: materialized once, stable across later updates.
  auto cursor = map.snapshot(-kHalf, kHalf);
  CHECK_EQ(cursor.size(), reference.size());
  map.insert(kHalf, 1);
  map.erase(reference.begin()->first);
  std::size_t walked = 0;
  for (auto ref = reference.begin(); cursor.valid();
       cursor.next(), ++ref, ++walked) {
    CHECK_EQ(cursor.key(), ref->first);
    CHECK_EQ(cursor.value(), ref->second);
  }
  CHECK_EQ(walked, reference.size());
  std::printf("  fuzz %s ok\n", name);
}

// --- Typed maps compose in leap::txn ---------------------------------

void test_typed_txn() {
  using M = leap::Map<std::uint32_t, std::int64_t, policy::TM>;
  M a(Params{.node_size = 8, .max_level = 6});
  M b(Params{.node_size = 8, .max_level = 6});
  for (std::uint32_t k = 1; k <= 100; ++k) a.insert(k, k);
  // Atomic move of the odd keys from a to b.
  leap::txn([&](leap::stm::Tx& tx) {
    for (std::uint32_t k = 1; k <= 100; k += 2) {
      const auto v = a.get_in(tx, k);
      CHECK(v.has_value());
      a.erase_in(tx, k);
      b.insert_in(tx, k, *v);
    }
  });
  CHECK_EQ(a.size_slow(), 50u);
  CHECK_EQ(b.size_slow(), 50u);
  // One transaction stacks both maps' ranges into one buffer (the
  // append-vs-replace footgun this API retires).
  std::vector<std::pair<std::uint32_t, std::int64_t>> both;
  leap::txn([&](leap::stm::Tx& tx) {
    both.clear();
    a.for_range_in(tx, 1, 100, leap::append_to(both));
    b.for_range_in(tx, 1, 100, leap::append_to(both));
  });
  CHECK_EQ(both.size(), 100u);
  for (std::size_t i = 0; i < 50; ++i) {
    // Evens stayed in a; odds moved to b.
    CHECK_EQ(both[i].first, 2 * (i + 1));
    CHECK_EQ(both[50 + i].first, 2 * i + 1);
  }
  // Read-your-writes through the typed facade: an uncommitted insert is
  // visible to a later range in the same transaction. The counter has
  // no on_restart: a composable scan delivers each pair once, even when
  // its walk starts at a link this transaction wrote.
  leap::txn([&](leap::stm::Tx& tx) {
    b.insert_in(tx, 101, 101);
    struct Counter {
      std::size_t hits = 0;
      void operator()(std::uint32_t k, std::int64_t) {
        CHECK_EQ(k, 101u);
        ++hits;
      }
    } counter;
    b.for_range_in(tx, 101, 200, counter);
    CHECK_EQ(counter.hits, 1u);
    b.erase_in(tx, 101);
  });
  CHECK(!b.contains(101));
}

// --- Early-exit visitation under concurrent splits -------------------

template <typename P>
void test_early_exit_concurrent(const char* name) {
  using M = leap::Map<std::int64_t, std::int64_t, P>;
  // Tiny nodes so inserts split constantly under the readers' feet.
  M map(Params{.node_size = 4, .max_level = 8});
  constexpr std::int64_t kRange = 20000;
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> seed;
    for (std::int64_t k = 2; k <= kRange; k += 2) seed.push_back({k, k});
    map.bulk_load(seed);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    leap::util::Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto key =
          static_cast<std::int64_t>(1 + rng.next_below(kRange));
      if ((rng.next() & 1) != 0) {
        map.insert(key, key);
      } else {
        map.erase(key);
      }
    }
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        leap::test::stress_duration(
                            std::chrono::milliseconds(300));
  leap::util::Xoshiro256 rng(11);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto low = static_cast<std::int64_t>(1 + rng.next_below(kRange));
    const std::size_t limit = 1 + rng.next_below(64);
    std::vector<std::int64_t> keys;
    struct Probe {
      std::vector<std::int64_t>& keys;
      std::size_t limit;
      bool operator()(std::int64_t k, std::int64_t v) {
        CHECK_EQ(k, v);  // values always mirror keys in this workload
        keys.push_back(k);
        return keys.size() < limit;
      }
      void on_restart() { keys.clear(); }
    } probe{keys, limit};
    const std::size_t visited = map.for_range(low, kRange, probe);
    CHECK_EQ(visited, keys.size());
    CHECK(keys.size() <= limit);
    // The committed visitation is a sorted prefix of [low, kRange].
    for (std::size_t i = 0; i < keys.size(); ++i) {
      CHECK(keys[i] >= low && keys[i] <= kRange);
      if (i > 0) CHECK(keys[i] > keys[i - 1]);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  CHECK(map.debug_validate());
  std::printf("  early-exit %s ok\n", name);
}

}  // namespace

int main() {
  test_codecs();
  test_map_fuzz<policy::LT>("LT");
  test_map_fuzz<policy::COP>("COP");
  test_map_fuzz<policy::TM>("TM");
  test_map_fuzz<policy::RW>("RW");
  test_typed_txn();
  test_early_exit_concurrent<policy::LT>("LT");
  test_early_exit_concurrent<policy::TM>("TM");
  return leap::test::finish("test_map");
}
