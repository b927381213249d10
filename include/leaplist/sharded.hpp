// leap::ShardedMap<K, V, Policy> — a range-partitioned array of
// leap::Map shards behind the same OrderedMap surface, the first layer
// where the system scales OUT instead of up.
//
// Partitioning is static and codec-order-aware: the key codec already
// maps K order-preservingly onto the engine's int64 word, so the shard
// of a key is a branchless bucket of that encoded word — flip the sign
// bit (order-preserving int64 -> uint64), clamp into the configured
// window, scale to the full 64-bit range by a fixed-point reciprocal
// of the window span (precomputed once at construction), and take the
// high half of one 128-bit multiply by the shard count:
//
//   idx = ((off * inv) * S) >> 64    // off = clamp(biased - lo),
//                                    // inv = floor(2^64 / (span + 1))
//
// No second comparator, no division, no branches; monotone in the key,
// so shard i's keys all precede shard i+1's keys and a cross-shard
// range query visits shards in key order ("stitching" per-shard sorted
// views instead of merging copies — the REMIX argument).
//
// Point operations route to exactly one shard with zero added
// synchronization. A single-op cross-shard range query (for_range,
// scan, snapshot) is linearizable on EVERY policy by one mechanism,
// bundled references (leaplist/bundle.hpp): it pins ONE global
// timestamp and walks every covered shard as of that instant, with
// zero reliance on the STM. It linearizes at the pin's clock read,
// delivers each pair once and never restarts. Called inside an open
// transaction these forms abort, because an as-of walk cannot see the
// transaction's own writes.
//
// Shards are leap lists. The skip-list baselines keep no bundled
// references and stay unsharded.
//
// For policy::TM the composable `*_in` forms route inside the caller's
// open transaction, so multi-key operations spanning shards — whole
// ShardedMaps alongside other maps, and stitched scans (for_range_in,
// scan_in) alongside writes — compose into one atomic unit:
//
//   leap::ShardedMap<std::uint64_t, Order, leap::policy::TM> book(
//       {.shards = 16, .params = params}, min_id, max_id);
//   book.move_key(from_id, to_id);            // atomic, cross-shard
//   leap::txn([&](leap::stm::Tx& tx) {        // compose anything
//     const auto hit = book.get_in(tx, id);
//     if (hit) book.erase_in(tx, id);
//     audit.insert_in(tx, id, *hit);
//   });
#pragma once

#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/leaplist.hpp"
#include "leaplist/map.hpp"
#include "leaplist/txn.hpp"
#include "stm/stm.hpp"

namespace leap {

/// Construction knobs for ShardedMap: how many shards and the leap-list
/// parameters every shard is built with. The key window (the hint that
/// spreads realistic key distributions across shards instead of
/// bucketing the full 64-bit space) is passed separately, as typed keys.
struct ShardOptions {
  std::size_t shards = 8;
  core::Params params{};
};

template <typename K, typename V, MapPolicy Policy = policy::LT,
          typename KeyCodec = codec::Default<K>,
          typename ValueCodec = codec::BitcastValue<V>>
  requires codec::KeyCodecFor<KeyCodec, K> &&
           codec::ValueCodecFor<ValueCodec, V>
class ShardedMap {
  static_assert(
      std::derived_from<typename Policy::engine, core::LeapListBase>,
      "ShardedMap shards leap lists only: its single-op scans walk "
      "bundled references, which the skip-list baselines do not keep");

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using policy_type = Policy;
  using shard_type = Map<K, V, Policy, KeyCodec, ValueCodec>;
  using key_codec = KeyCodec;
  using value_codec = ValueCodec;

  /// Tag the harness adapters and db layer key off to construct a
  /// sharded instance (shard count + key-window hints) instead of a
  /// single map.
  static constexpr bool kSharded = true;

  /// Sane ceiling: routing is O(1) at any count, but stitched range
  /// queries and debug sweeps walk every shard in the span.
  static constexpr std::size_t kMaxShards = 4096;

  /// Full-window construction: keys may land anywhere in the codec's
  /// encodable range. Fine for correctness at any distribution, but a
  /// workload confined to a narrow key interval will bucket into few
  /// shards — pass window hints for real spread.
  explicit ShardedMap(const ShardOptions& opts = {})
      : ShardedMap(opts,
                   WordWindow{std::numeric_limits<core::Key>::min() + 1,
                              core::kSentinelKey - 1}) {}

  /// Window-hinted construction: split points divide the ENCODED image
  /// of [min_hint, max_hint] evenly across shards. Keys outside the
  /// hint window stay correct — they clamp onto the first/last shard.
  ShardedMap(const ShardOptions& opts, const K& min_hint, const K& max_hint)
      : ShardedMap(opts, WordWindow{KeyCodec::encode(min_hint),
                                    KeyCodec::encode(max_hint)}) {}

  // --- Point operations: route to one shard, no added sync -----------

  bool insert(const K& key, const V& value) {
    return shards_[shard_of(key)]->insert(key, value);
  }

  bool erase(const K& key) { return shards_[shard_of(key)]->erase(key); }

  std::optional<V> get(const K& key) const {
    return shards_[shard_of(key)]->get(key);
  }

  bool contains(const K& key) const {
    return shards_[shard_of(key)]->contains(key);
  }

  // --- Stitched range queries ----------------------------------------

  /// Visit every pair with low <= key <= high in global key order,
  /// stitching the covered shards' as-of walks at one pinned timestamp
  /// into one linearizable multi-shard snapshot, on every policy. Same
  /// visitor contract as leap::Map::for_range; each pair is delivered
  /// once. Returns the number of pairs delivered. Aborts inside an
  /// open transaction: compose with for_range_in instead.
  template <typename F>
  std::size_t for_range(const K& low, const K& high, F&& fn) const {
    core::require_no_open_tx("ShardedMap::for_range");
    const core::Key low_word = KeyCodec::encode(low);
    const core::Key high_word = KeyCodec::encode(high);
    if (low_word > high_word) return 0;
    const std::size_t last = route(high_word);
    bundle::ScanPin pin;
    Relay<F> relay{fn};
    std::size_t delivered = 0;
    for (std::size_t s = route(low_word); s <= last && !relay.stopped; ++s) {
      delivered += shards_[s]->for_range_at(pin.ts(), low, high, relay);
    }
    return delivered;
  }

  /// for_range under its older name, which perfbench's traced replay
  /// (perfbench/trace.cpp) calls.
  template <typename F>
  std::size_t for_range_bundled(const K& low, const K& high, F&& fn) const {
    return for_range(low, high, fn);
  }

  /// Bounded stitched scan: APPEND up to `limit` pairs with key >= low
  /// onto `out`, in global key order, as of one pinned timestamp on
  /// every policy. Aborts inside an open transaction, as for_range does
  /// (scan_in is the composable form).
  std::size_t scan(const K& low, std::size_t limit,
                   std::vector<value_type>& out) const {
    core::require_no_open_tx("ShardedMap::scan");
    if (limit == 0) return 0;
    const std::size_t base = out.size();
    bundle::ScanPin pin;
    for (std::size_t s = route(KeyCodec::encode(low));
         s < shards_.size() && out.size() - base < limit; ++s) {
      shards_[s]->scan_at(pin.ts(), low, limit - (out.size() - base), out);
    }
    return out.size() - base;
  }

  /// A materialized snapshot of [low, high] across all covered shards:
  /// one consistent multi-shard instant on every policy; iterated with
  /// no further synchronization.
  using Cursor = SnapshotCursor<K, V>;

  Cursor snapshot(const K& low, const K& high) const {
    std::vector<value_type> items;
    for_range(low, high, append_to(items));
    return Cursor(std::move(items));
  }

  // --- Composable forms (policy::TM only) ----------------------------
  // Route inside a caller-owned open transaction, so cross-shard
  // multi-key operations — and several ShardedMaps, or a ShardedMap
  // next to plain Maps — commit as one atomic unit.

  bool insert_in(stm::Tx& tx, const K& key, const V& value)
    requires(Policy::kComposable)
  {
    return shards_[shard_of(key)]->insert_in(tx, key, value);
  }

  bool erase_in(stm::Tx& tx, const K& key)
    requires(Policy::kComposable)
  {
    return shards_[shard_of(key)]->erase_in(tx, key);
  }

  std::optional<V> get_in(stm::Tx& tx, const K& key) const
    requires(Policy::kComposable)
  {
    return shards_[shard_of(key)]->get_in(tx, key);
  }

  /// out[j] = get_in(tx, keys[j]) for every j < n: each key routes to
  /// its shard, and the lookups step round-robin across shards so their
  /// cache misses overlap. Same answers, read set and abort conditions
  /// as the n calls in order.
  void get_many_in(stm::Tx& tx, const K* keys, std::size_t n,
                   std::optional<V>* out) const
    requires(Policy::kComposable)
  {
    Policy::engine::batch_get_in(
        tx, n,
        [&](std::size_t j) {
          const core::Key word = KeyCodec::encode(keys[j]);
          return shards_[route(word)]->engine().get_probe(word);
        },
        [&](std::size_t j, std::optional<core::Value> hit) {
          out[j] = shard_type::decode_hit(hit);
        });
  }

  /// The stitched walk inside the caller's open transaction: shards in
  /// key order, each delivering straight into `fn`, ending at the shard
  /// where `fn` stopped. Like every composable form it never calls
  /// on_restart.
  template <typename F>
  std::size_t for_range_in(stm::Tx& tx, const K& low, const K& high,
                           F&& fn) const
    requires(Policy::kComposable)
  {
    const core::Key low_word = KeyCodec::encode(low);
    const core::Key high_word = KeyCodec::encode(high);
    if (low_word > high_word) return 0;
    const std::size_t last = route(high_word);
    Relay<F> relay{fn};
    std::size_t delivered = 0;
    for (std::size_t s = route(low_word); s <= last && !relay.stopped; ++s) {
      delivered += shards_[s]->for_range_in(tx, low, high, relay);
    }
    return delivered;
  }

  std::size_t scan_in(stm::Tx& tx, const K& low, std::size_t limit,
                      std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    const std::size_t base = out.size();
    for (std::size_t s = route(KeyCodec::encode(low));
         s < shards_.size() && out.size() - base < limit; ++s) {
      shards_[s]->scan_in(tx, low, limit - (out.size() - base), out);
    }
    return out.size() - base;
  }

  /// Atomically relocate the value stored at `from` to `to` (its own
  /// transaction; use erase_in + insert_in to compose with more work).
  /// Crossing a shard boundary is the interesting case: no concurrent
  /// stitched reader ever sees the value at both keys or at neither.
  /// Returns false (and moves nothing) when `from` is absent; an
  /// existing value at `to` is overwritten.
  bool move_key(const K& from, const K& to)
    requires(Policy::kComposable)
  {
    return leap::txn([&](stm::Tx& tx) {
      const std::optional<V> value = get_in(tx, from);
      if (!value) return false;
      erase_in(tx, from);
      insert_in(tx, to, *value);
      return true;
    });
  }

  // --- Loading / introspection ---------------------------------------

  /// Single-threaded preload of a quiescent map: pairs partition to
  /// their shards, each shard bulk-loads its slice (sorting and
  /// last-value-wins dedup happen per shard, exactly Map::bulk_load).
  void bulk_load(const std::vector<value_type>& pairs) {
    std::vector<std::vector<value_type>> slices(shards_.size());
    for (const value_type& pair : pairs) {
      slices[shard_of(pair.first)].push_back(pair);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->bulk_load(slices[s]);
    }
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard a key routes to — exposed so tests can probe split
  /// points and movers can aim across boundaries.
  std::size_t shard_of(const K& key) const {
    return route(KeyCodec::encode(key));
  }

  shard_type& shard(std::size_t index) { return *shards_[index]; }
  const shard_type& shard(std::size_t index) const {
    return *shards_[index];
  }

  std::size_t size_slow() const
    requires requires(const shard_type& s) { s.size_slow(); }
  {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->size_slow();
    return total;
  }

  /// Quiescent check: every shard structurally valid AND every stored
  /// key routes back to the shard holding it (the partition invariant).
  bool debug_validate() const
    requires requires(const shard_type& s) { s.debug_validate(); }
  {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]->debug_validate()) return false;
      bool routed = true;
      shards_[s]->engine().for_range(
          std::numeric_limits<core::Key>::min() + 1, core::kSentinelKey - 1,
          [&](core::Key word, core::Value) { routed &= route(word) == s; });
      if (!routed) return false;
    }
    return true;
  }

 private:
  struct WordWindow {
    core::Key lo;
    core::Key hi;
  };

  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

  /// Order-preserving int64 -> uint64: flip the sign bit.
  static std::uint64_t biased(core::Key word) {
    return static_cast<std::uint64_t>(word) ^ kSignBit;
  }

  ShardedMap(const ShardOptions& opts, WordWindow window)
      : lo_(biased(window.lo)), span_(biased(window.hi) - lo_) {
    assert(window.lo <= window.hi);
    assert(opts.shards >= 1 && opts.shards <= kMaxShards);
    // Fixed-point reciprocal of the window size: off * inv_ lands the
    // offset's exact fraction of the window in the full 64-bit range
    // (error < 1 part in 2^64/span — a power-of-two SHIFT here instead
    // would divide by the next power of two and bunch up to half the
    // window into the low shards, starving the top ones). For span 0
    // the quotient 2^64 truncates to 0, and off is always 0 anyway.
    inv_ = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(1) << 64) /
        (static_cast<unsigned __int128>(span_) + 1));
    const std::size_t count = opts.shards < 1 ? 1 : opts.shards;
    shards_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      shards_.push_back(std::make_unique<shard_type>(opts.params));
    }
  }

  /// The branchless bucket: clamp the biased word into [lo, lo + span],
  /// scale the offset to the full 64-bit range via the precomputed
  /// reciprocal (the product is < 2^64 by construction, so the plain
  /// 64-bit multiply is exact), and take the high half of
  /// offset * shard_count. Monotone in `word` (clamp, positive-constant
  /// multiply, and mul-high all preserve order), so shards partition
  /// the key space into consecutive near-equal intervals.
  std::size_t route(core::Key word) const {
    const std::uint64_t b = biased(word);
    const std::uint64_t off = std::min((b < lo_ ? lo_ : b) - lo_, span_);
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(off * inv_) *
         static_cast<unsigned __int128>(shards_.size())) >>
        64);
  }

  /// Forwards a shard's pairs to the caller's visitor and records
  /// whether the visitor stopped the scan, so the stitch ends there.
  template <typename F>
  struct Relay {
    F& fn;
    bool stopped = false;
    bool operator()(const K& key, const V& value) {
      stopped = !core::detail::visit_one(fn, key, value);
      return !stopped;
    }
    bool append_run(const K* keys, const V* values, std::size_t n)
      requires requires(F& f, const K* dk, const V* dv, std::size_t m) {
        f.append_run(dk, dv, m);
      }
    {
      stopped = !core::detail::visit_run(fn, keys, values, n);
      return !stopped;
    }
  };

  std::uint64_t lo_;    // biased image of the window's low edge
  std::uint64_t span_;  // biased(hi) - biased(lo)
  std::uint64_t inv_;   // floor(2^64 / (span_ + 1)), fixed-point scale
  std::vector<std::unique_ptr<shard_type>> shards_;
};

}  // namespace leap
