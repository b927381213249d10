// leap::Map<K, V, Policy> — the typed ordered-map facade over the leap
// list word engine. Keys and values are trivially copyable user types
// mapped through codec traits (leaplist/codec.hpp) with zero runtime
// overhead; the Policy parameter picks the synchronization scheme
// behind one uniform interface:
//
//   policy::LT    raw searches + locked publish (the paper's winner)
//   policy::COP   consistency-oblivious traversal + validating commit
//   policy::TM    fully transactional; the only composable policy —
//                 the `*_in` forms enlist in a caller-owned leap::txn
//   policy::RW    global reader-writer-lock baseline
//   (policy::SkipCAS / policy::SkipTM in leaplist/skiplist.hpp drive
//   the single-pair-per-node baselines through the same facade.)
//
// Range queries are visitation, not bulk copies:
//
//   leap::Map<std::uint32_t, Order> book(params);
//   book.for_range(low, high, leap::append_to(hits));  // accumulate
//   book.scan(low, 32, out);       // bounded, APPENDS to out
//   book.for_range(low, high, [&](std::uint32_t id, const Order& o) {
//     if (o.qty < 1000) return true;
//     first_big = id;              // overwrite, not accumulate
//     return false;                // early exit
//   });
//   for (const auto& [id, o] : book.snapshot(low, high)) ...  // Cursor
//
// Visitor contract: policy::TM's and policy::SkipTM's single-op
// for_range/scan run as one transaction, and a conflicting attempt
// re-visits from `low`, so a visitor that ACCUMULATES must expose
// `on_restart()` to roll its state back — leap::append_to does;
// overwrite-style or stateless visitors (like the early-exit probe
// above) need nothing. Every other scan delivers each pair once: the
// as-of walk of LT/COP/RW never restarts, and the composable `*_in`
// forms never call on_restart (a conflict re-runs the enclosing
// leap::txn closure, which resets what it accumulated). The committed
// visitation is always one consistent snapshot for the leap-list
// policies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/leaplist.hpp"
#include "leaplist/txn.hpp"
#include "stm/stm.hpp"

namespace leap {

namespace policy {
struct LT {
  using engine = core::LeapListLT;
  static constexpr bool kComposable = false;
};
struct COP {
  using engine = core::LeapListCOP;
  static constexpr bool kComposable = false;
};
struct TM {
  using engine = core::LeapListTM;
  static constexpr bool kComposable = true;
};
struct RW {
  using engine = core::LeapListRW;
  static constexpr bool kComposable = false;
};
}  // namespace policy

template <typename P>
concept MapPolicy = requires {
  typename P::engine;
  { P::kComposable } -> std::convertible_to<bool>;
};

/// Appending collector: pairs append to `out` (which is never cleared);
/// an attempt restart truncates back to the size at construction, so
/// stacking several ranges into one buffer — even inside one
/// transaction — composes correctly. Construct it at the point of use
/// (inside the txn closure for composable scans) so the truncation base
/// is per-attempt.
template <typename Vec>
auto append_to(Vec& out) {
  return core::detail::Appender<Vec>(out);
}

/// A materialized range snapshot: captured through one range
/// visitation (with whatever consistency the capturing map's policy
/// provides), then iterated with no further synchronization — safe to
/// hold across later updates. Map and ShardedMap alias this as their
/// Cursor type.
template <typename K, typename V>
class SnapshotCursor {
 public:
  using value_type = std::pair<K, V>;

  SnapshotCursor() = default;
  explicit SnapshotCursor(std::vector<value_type> items)
      : items_(std::move(items)) {}

  bool valid() const { return pos_ < items_.size(); }
  const K& key() const { return items_[pos_].first; }
  const V& value() const { return items_[pos_].second; }
  void next() { ++pos_; }
  void rewind() { pos_ = 0; }
  std::size_t size() const { return items_.size(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::vector<value_type> items_;
  std::size_t pos_ = 0;
};

/// The uniform ordered-map shape the harness and db layers program
/// against: typed point ops, visitor ranges, bounded scans, bulk
/// preload. leap::Map models it for every policy; so does anything
/// else offering the same surface.
template <typename M>
concept OrderedMap =
    requires(M map, const M cmap, const typename M::key_type& key,
             const typename M::mapped_type& value,
             std::vector<typename M::value_type>& out) {
      typename M::key_type;
      typename M::mapped_type;
      typename M::value_type;
      { map.insert(key, value) } -> std::same_as<bool>;
      { map.erase(key) } -> std::same_as<bool>;
      {
        cmap.get(key)
      } -> std::same_as<std::optional<typename M::mapped_type>>;
      {
        cmap.for_range(key, key,
                       [](const typename M::key_type&,
                          const typename M::mapped_type&) {})
      } -> std::convertible_to<std::size_t>;
      {
        cmap.scan(key, std::size_t{1}, out)
      } -> std::convertible_to<std::size_t>;
      map.bulk_load(std::vector<typename M::value_type>{});
    };

template <typename K, typename V, MapPolicy Policy = policy::LT,
          typename KeyCodec = codec::Default<K>,
          typename ValueCodec = codec::BitcastValue<V>>
  requires codec::KeyCodecFor<KeyCodec, K> &&
           codec::ValueCodecFor<ValueCodec, V>
class Map {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using policy_type = Policy;
  using engine_type = typename Policy::engine;
  using key_codec = KeyCodec;
  using value_codec = ValueCodec;

  explicit Map(const core::Params& params = {}) : engine_(params) {}

  // --- Point operations ----------------------------------------------

  /// True when `key` was absent (insert); false overwrites in place.
  bool insert(const K& key, const V& value) {
    return engine_.insert(KeyCodec::encode(key), ValueCodec::encode(value));
  }

  bool erase(const K& key) { return engine_.erase(KeyCodec::encode(key)); }

  std::optional<V> get(const K& key) const {
    return decode_hit(engine_.get(KeyCodec::encode(key)));
  }

  bool contains(const K& key) const {
    return engine_.get(KeyCodec::encode(key)).has_value();
  }

  // --- Range queries as visitation -----------------------------------

  /// Visit every pair with low <= key <= high in key order. The visitor
  /// is fn(const K&, const V&) returning void (visit all) or bool
  /// (false stops the scan). Returns the number of pairs visited. See
  /// the header comment for the restart contract.
  template <typename F>
  std::size_t for_range(const K& low, const K& high, F&& fn) const {
    Decoded<F> visitor{fn};
    return engine_.for_range(KeyCodec::encode(low), KeyCodec::encode(high),
                             visitor);
  }

  /// Bounded scan: APPEND up to `limit` pairs with key >= low onto
  /// `out` (explicitly append — the caller owns clearing). Returns the
  /// number appended.
  std::size_t scan(const K& low, std::size_t limit,
                   std::vector<value_type>& out) const {
    if (limit == 0) return 0;
    BoundedAppend sink{out, out.size(), limit};
    Decoded<BoundedAppend> visitor{sink};
    engine_.for_range(KeyCodec::encode(low), core::kSentinelKey - 1,
                      visitor);
    return out.size() - sink.base;
  }

  // --- As-of building blocks (bundled-reference stitching) -----------
  // ShardedMap pins ONE timestamp and replays it across shards through
  // these, delivering straight into the caller's visitor. The caller
  // holds the bundle::ScanPin that announced `ts`.

  /// Visit [low, high] as of `ts`; returns the number of pairs visited.
  template <typename F>
  std::size_t for_range_at(std::uint64_t ts, const K& low, const K& high,
                           F&& fn) const
    requires requires(const engine_type& e) { e.debug_max_bundle(); }
  {
    Decoded<F> visitor{fn};
    return engine_.for_range_at(ts, KeyCodec::encode(low),
                                KeyCodec::encode(high), visitor);
  }

  /// Append up to `limit` pairs with key >= low as of `ts` onto `out`;
  /// returns the number appended.
  std::size_t scan_at(std::uint64_t ts, const K& low, std::size_t limit,
                      std::vector<value_type>& out) const
    requires requires(const engine_type& e) { e.debug_max_bundle(); }
  {
    if (limit == 0) return 0;
    BoundedAppend sink{out, out.size(), limit};
    Decoded<BoundedAppend> visitor{sink};
    engine_.for_range_at(ts, KeyCodec::encode(low), core::kSentinelKey - 1,
                         visitor);
    return out.size() - sink.base;
  }

  /// A materialized snapshot of [low, high]: captured through one
  /// (policy-consistent) range visitation, then iterated with no
  /// further synchronization — safe to hold across later updates.
  using Cursor = SnapshotCursor<K, V>;

  Cursor snapshot(const K& low, const K& high) const {
    std::vector<value_type> items;
    for_range(low, high, append_to(items));
    return Cursor(std::move(items));
  }

  // --- Composable forms (policy::TM only) ----------------------------
  // Enlist in a caller-owned open transaction (leap::txn), so typed
  // maps participate in multi-map transactions unchanged.

  bool insert_in(stm::Tx& tx, const K& key, const V& value)
    requires(Policy::kComposable)
  {
    return engine_.insert_in(tx, KeyCodec::encode(key),
                             ValueCodec::encode(value));
  }

  bool erase_in(stm::Tx& tx, const K& key)
    requires(Policy::kComposable)
  {
    return engine_.erase_in(tx, KeyCodec::encode(key));
  }

  std::optional<V> get_in(stm::Tx& tx, const K& key) const
    requires(Policy::kComposable)
  {
    return decode_hit(engine_.get_in(tx, KeyCodec::encode(key)));
  }

  /// out[j] = get_in(tx, keys[j]) for every j < n, with the lookups'
  /// descents interleaved (core::walk_interleaved) so their cache
  /// misses overlap. Same answers, read set and abort conditions as
  /// the n calls in order.
  void get_many_in(stm::Tx& tx, const K* keys, std::size_t n,
                   std::optional<V>* out) const
    requires(Policy::kComposable)
  {
    engine_type::batch_get_in(
        tx, n,
        [&](std::size_t j) {
          return engine_.get_probe(KeyCodec::encode(keys[j]));
        },
        [&](std::size_t j, std::optional<core::Value> hit) {
          out[j] = decode_hit(hit);
        });
  }

  /// An engine answer as a typed one.
  static std::optional<V> decode_hit(const std::optional<core::Value>& hit) {
    if (!hit) return std::nullopt;
    return ValueCodec::decode(*hit);
  }

  template <typename F>
  std::size_t for_range_in(stm::Tx& tx, const K& low, const K& high,
                           F&& fn) const
    requires(Policy::kComposable)
  {
    Decoded<F> visitor{fn};
    return engine_.for_range_in(tx, KeyCodec::encode(low),
                                KeyCodec::encode(high), visitor);
  }

  /// Composable bounded scan: like scan, but enlisted in the caller's
  /// open transaction. It appends each pair once and never rolls `out`
  /// back; a whole-transaction retry is the caller's closure contract,
  /// as for every `*_in` form.
  std::size_t scan_in(stm::Tx& tx, const K& low, std::size_t limit,
                      std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    if (limit == 0) return 0;
    BoundedAppend sink{out, out.size(), limit};
    Decoded<BoundedAppend> visitor{sink};
    engine_.for_range_in(tx, KeyCodec::encode(low), core::kSentinelKey - 1,
                         visitor);
    return out.size() - sink.base;
  }

  // --- Loading / introspection ---------------------------------------

  /// Single-threaded preload of a quiescent map; duplicate keys keep
  /// the last value.
  void bulk_load(const std::vector<value_type>& pairs) {
    std::vector<core::KV> encoded;
    encoded.reserve(pairs.size());
    for (const value_type& pair : pairs) {
      encoded.push_back(core::KV{KeyCodec::encode(pair.first),
                                 ValueCodec::encode(pair.second)});
    }
    engine_.bulk_load(encoded);
  }

  bool debug_validate() const
    requires requires(const engine_type& e) { e.debug_validate(); }
  {
    return engine_.debug_validate();
  }

  std::size_t size_slow() const
    requires requires(const engine_type& e) { e.size_slow(); }
  {
    return engine_.size_slow();
  }

  const core::Params& params() const
    requires requires(const engine_type& e) { e.params(); }
  {
    return engine_.params();
  }

  /// Escape hatch to the raw word engine (benches, migration).
  engine_type& engine() { return engine_; }
  const engine_type& engine() const { return engine_; }

 private:
  /// Word-level visitor decoding into the user's typed visitor,
  /// forwarding early exit and restart notifications. When the typed
  /// visitor bulk-ingests (append_run, e.g. leap::append_to), whole
  /// in-range runs flow through in decoded chunks — tight codec loops
  /// over stack arrays instead of a per-pair virtual-ish dispatch —
  /// which keeps the engine's bulk fast path intact across the facade.
  template <typename F>
  struct Decoded {
    F& fn;
    bool operator()(core::Key key, core::Value value) {
      return core::detail::visit_one(fn, KeyCodec::decode(key),
                                     ValueCodec::decode(value));
    }

    bool append_run(const core::Key* keys, const core::Value* values,
                    std::size_t n)
      requires requires(F& f, const K* dk, const V* dv, std::size_t m) {
        f.append_run(dk, dv, m);
      } && std::default_initializable<K> && std::default_initializable<V>
    {
      // Identity codecs (the default int64 -> int64 map) pass the
      // engine's SoA slices straight through.
      if constexpr (std::is_same_v<K, core::Key> &&
                    std::is_same_v<V, core::Value> &&
                    std::is_same_v<KeyCodec, codec::Default<K>> &&
                    std::is_same_v<ValueCodec, codec::BitcastValue<V>>) {
        return core::detail::visit_run(fn, keys, values, n);
      }
      constexpr std::size_t kChunk = 128;
      K dkeys[kChunk];
      V dvalues[kChunk];
      for (std::size_t at = 0; at < n; at += kChunk) {
        const std::size_t len = std::min(kChunk, n - at);
        for (std::size_t i = 0; i < len; ++i) {
          dkeys[i] = KeyCodec::decode(keys[at + i]);
          dvalues[i] = ValueCodec::decode(values[at + i]);
        }
        if (!core::detail::visit_run(fn, dkeys, dvalues, len)) return false;
      }
      return true;
    }

    void on_restart() { core::detail::visit_restart(fn); }
  };

  /// Appends up to `limit` pairs past `base`, then stops the scan. The
  /// pair-at-a-time form serves engines without a bulk path (the
  /// skip-list baselines); leap lists hand it whole runs.
  struct BoundedAppend {
    std::vector<value_type>& out;
    std::size_t base;
    std::size_t limit;
    bool operator()(const K& key, const V& value) {
      out.push_back({key, value});
      return out.size() - base < limit;
    }
    bool append_run(const K* keys, const V* values, std::size_t n) {
      const std::size_t at = out.size();
      const std::size_t take = std::min(n, limit - (at - base));
      out.resize(at + take);
      value_type* dst = out.data() + at;
      for (std::size_t i = 0; i < take; ++i) dst[i] = {keys[i], values[i]};
      return at + take - base < limit;
    }
    void on_restart() { out.resize(base); }
  };

  engine_type engine_;
};

}  // namespace leap
