// Leap list: a skiplist of fat nodes, each holding up to `node_size`
// key/value pairs in the key range (pred.high, high], supporting
// linearizable range queries (Avni, Shavit, Suissa — PODC 2013).
//
// Update model (paper §2): an update never edits a published node's
// content. It builds replacement node(s) — a copy with the pair
// added/removed, or a two-way split when full — and atomically swings
// the predecessor pointers while marking the victim's next pointers.
// Content is therefore immutable after publish, and only the `next`
// words carry synchronization (stm::TxField). Replaced nodes are
// reclaimed through util::ebr once no search can reference them.
//
// Four synchronization schemes over the same structure:
//   LeapListLT   lock the predecessors + victim, validate, then a short
//                transaction swings the pointers; lookups are
//                transaction-free raw searches (marked pointers make
//                stale traversals restart).
//   LeapListCOP  consistency-oblivious: raw (uninstrumented) traversal,
//                then validation + pointer swing inside one commit
//                transaction.
//   LeapListTM   fully transactional: even the traversal is
//                instrumented (search_predecessors_tx). Uniquely among
//                the variants it also composes: the `*_in` forms enlist
//                in a caller-owned transaction (leaplist/txn.hpp), so
//                one transaction can update and range-query several
//                lists as one atomic unit.
//   LeapListRW   global std::shared_mutex baseline.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <optional>
#include <shared_mutex>
#include <type_traits>
#include <vector>

#include "leaplist/bundle.hpp"
#include "leaplist/txn.hpp"
#include "stm/stm.hpp"
#include "util/ebr.hpp"
#include "util/marked_ptr.hpp"
#include "util/random.hpp"

namespace leap::core {

using Key = std::int64_t;
using Value = std::int64_t;

struct KV {
  Key key;
  Value value;
};

namespace detail {

/// Invoke a range visitor on one pair. A visitor returning void scans
/// to the end of the range; a bool-returning visitor stops the scan by
/// returning false.
template <typename F, typename KT, typename VT>
bool visit_one(F& fn, const KT& key, const VT& value) {
  if constexpr (std::is_void_v<decltype(fn(key, value))>) {
    fn(key, value);
    return true;
  } else {
    return static_cast<bool>(fn(key, value));
  }
}

/// A single-op range scan may re-visit from the low bound: TM's scan
/// retries its whole transaction, and the bundled walk re-pins when
/// the history it needs was pruned. A visitor that accumulates state
/// may expose an `on_restart()` member to roll that state back;
/// visitors without one are assumed stateless (count-only, early-exit
/// probes). The composable (in-transaction) forms never restart.
template <typename F>
void visit_restart(F& fn) {
  if constexpr (requires { fn.on_restart(); }) fn.on_restart();
}

/// The canonical accumulating visitor: pairs APPEND to `out` (never
/// cleared), and on_restart truncates back to the size at construction,
/// so several appenders can stack ranges into one buffer inside one
/// transaction. Works for any vector whose value_type brace-constructs
/// from {key, value} (core::KV, std::pair, typed map entries).
template <typename Vec>
class Appender {
 public:
  explicit Appender(Vec& out) : out_(out), base_(out.size()) {}

  template <typename KT, typename VT>
  bool operator()(const KT& key, const VT& value) {
    out_.push_back({key, value});
    return true;
  }

  /// Bulk ingest of a whole in-range run (see visit_node): one resize,
  /// then a tight branch-free fill — no per-pair capacity check.
  template <typename KT, typename VT>
    requires requires(Vec v, const KT& k, const VT& val) {
      v.push_back({k, val});
    }
  void append_run(const KT* keys, const VT* values, std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    auto* dst = out_.data() + at;
    for (std::size_t i = 0; i < n; ++i) dst[i] = {keys[i], values[i]};
  }

  void on_restart() { out_.resize(base_); }

 private:
  Vec& out_;
  std::size_t base_;
};

/// One probe of flat_lower_bound (n > 1): halves the window of `n`
/// candidates starting at `base`. Invariant: base + n == count, or
/// keys[base + n - 1] >= probe — so once n == 1, the answer is base
/// unless keys[base] < probe, and then base + 1 == count.
inline void lower_bound_step(const Key* keys, std::size_t& base,
                             std::size_t& n, Key probe) noexcept {
  const std::size_t half = n / 2;
  base += (keys[base + half - 1] < probe) ? half : 0;
  n -= half;
}

/// First index in [0, n] whose key is >= probe: branchless binary
/// search over the flat key array. The per-step update compiles to a
/// conditional move, so the in-node hot loop carries no unpredictable
/// branch (measured against std::lower_bound in abl_search; an in-node
/// PATRICIA trie lost to it too, see docs/benchmarks.md).
inline std::size_t flat_lower_bound(const Key* keys, std::size_t n,
                                    Key probe) noexcept {
  std::size_t base = 0;
  while (n > 1) lower_bound_step(keys, base, n, probe);
  return base + static_cast<std::size_t>(n == 1 && keys[base] < probe);
}

/// First index in [0, n] whose key is > probe (strict), same branchless
/// shape. Safe for probe == kSentinelKey (no probe + 1 anywhere).
inline std::size_t flat_upper_bound(const Key* keys, std::size_t n,
                                    Key probe) noexcept {
  std::size_t base = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (keys[base + half - 1] <= probe) ? half : 0;
    n -= half;
  }
  return base + static_cast<std::size_t>(n == 1 && keys[base] <= probe);
}

/// A visitor that bulk-ingests whole in-range runs instead of taking
/// pairs one at a time. append_run returning void takes every run
/// (Appender); returning bool, it may take a prefix of the run and
/// return false to stop the scan there (a bounded collector).
template <typename F>
concept BulkVisitor =
    requires(F& fn, const Key* keys, const Value* values, std::size_t n) {
      fn.append_run(keys, values, n);
    };

/// Hand one run to a bulk visitor; false when the visitor stopped.
template <typename F, typename KT, typename VT>
bool visit_run(F& fn, const KT* keys, const VT* values, std::size_t n) {
  if constexpr (std::is_void_v<decltype(fn.append_run(keys, values, n))>) {
    fn.append_run(keys, values, n);
    return true;
  } else {
    return static_cast<bool>(fn.append_run(keys, values, n));
  }
}

}  // namespace detail

/// Hard cap on index height; Params::max_level must stay below it.
inline constexpr int kMaxHeight = 24;

/// Reserved key: the rightmost data node always has high == kSentinelKey
/// so every user key (< kSentinelKey) belongs to exactly one node.
inline constexpr Key kSentinelKey = std::numeric_limits<Key>::max();

struct Params {
  std::size_t node_size = 300;
  int max_level = 10;
};

/// A fat node as ONE flat allocation: a fixed header followed by the
/// node's variable trailing storage, SoA preserved —
///
///   [ header | next: TxField<u64> × level | keys: Key × capacity |
///     values: Value × capacity ]
///
/// The `next` marked-pointer words are the only transactional state;
/// every next(i) access holds i < level by the skiplist invariant (a
/// level-i predecessor is linked at level i). keys/values are sorted
/// and immutable once published (RW, which runs under an exclusive
/// lock, excepted). LT's per-node lock lives in a striped side table
/// (detail::stripe_lock), not in the node, so COP/TM/RW — which never
/// lock — don't carry it. Blocks come from util::ebr's recycling pool
/// (make_node) and return to it once a victim's grace period elapses
/// (recycle_node), so steady-state updates never touch the heap.
/// birth_ts value of a node not yet published: as-of scans reject it as
/// a walk start until the publishing commit stamps the real timestamp.
inline constexpr std::uint64_t kUnbornTs = ~std::uint64_t{0};

struct Node {
  Key high;                      // inclusive upper bound of the key range
  std::uint32_t count;           // live pairs
  const std::uint32_t capacity;  // trailing key/value slots
  const std::int32_t level;      // index levels this node is linked at
  std::atomic<bool> live{true};
  /// Commit timestamp of the swap that published this node (kUnbornTs
  /// until then). A node with birth_ts <= ts that is unmarked — or was
  /// marked only after ts — was on the level-0 chain at instant ts.
  std::atomic<std::uint64_t> birth_ts{kUnbornTs};
  /// Timestamped history of this node's level-0 link (bundled
  /// references): newest entry first, maintained inside the publishing
  /// commit's TL2 publish window, pruned against the oldest announced
  /// scan timestamp.
  std::atomic<bundle::Entry*> bundle0{nullptr};

  Node(std::uint32_t capacity_in, int level_in, Key high_in)
      : high(high_in),
        count(0),
        capacity(capacity_in),
        level(level_in) {}

  Key high_raw() const { return high; }

  // Trailing-array accessors; only the key/value offset depends on
  // runtime state (level), one add on the hot path.
  stm::TxField<std::uint64_t>& next(int i) noexcept;
  const stm::TxField<std::uint64_t>& next(int i) const noexcept;
  Key* keys() noexcept;
  const Key* keys() const noexcept;
  Value* values() noexcept;
  const Value* values() const noexcept;

  /// Append one pair while bulk-building an unpublished node.
  void append(Key key, Value value) noexcept {
    assert(count < capacity);
    keys()[count] = key;
    values()[count] = value;
    ++count;
  }

  static std::size_t bytes_for(std::uint32_t capacity, int level) noexcept;
  std::size_t alloc_bytes() const noexcept {
    return bytes_for(capacity, level);
  }
};

/// Header size rounded up to the trailing arrays' alignment.
inline constexpr std::size_t kNodeHeaderBytes =
    (sizeof(Node) + alignof(stm::TxField<std::uint64_t>) - 1) &
    ~(alignof(stm::TxField<std::uint64_t>) - 1);

inline stm::TxField<std::uint64_t>& Node::next(int i) noexcept {
  assert(i >= 0 && i < level);
  return reinterpret_cast<stm::TxField<std::uint64_t>*>(
      reinterpret_cast<std::byte*>(this) + kNodeHeaderBytes)[i];
}

inline const stm::TxField<std::uint64_t>& Node::next(int i) const noexcept {
  assert(i >= 0 && i < level);
  return reinterpret_cast<const stm::TxField<std::uint64_t>*>(
      reinterpret_cast<const std::byte*>(this) + kNodeHeaderBytes)[i];
}

inline Key* Node::keys() noexcept {
  return reinterpret_cast<Key*>(
      reinterpret_cast<std::byte*>(this) + kNodeHeaderBytes +
      static_cast<std::size_t>(level) * sizeof(stm::TxField<std::uint64_t>));
}

inline const Key* Node::keys() const noexcept {
  return reinterpret_cast<const Key*>(
      reinterpret_cast<const std::byte*>(this) + kNodeHeaderBytes +
      static_cast<std::size_t>(level) * sizeof(stm::TxField<std::uint64_t>));
}

inline Value* Node::values() noexcept {
  return reinterpret_cast<Value*>(
      reinterpret_cast<std::byte*>(keys()) +
      static_cast<std::size_t>(capacity) * sizeof(Key));
}

inline const Value* Node::values() const noexcept {
  return reinterpret_cast<const Value*>(
      reinterpret_cast<const std::byte*>(keys()) +
      static_cast<std::size_t>(capacity) * sizeof(Key));
}

inline std::size_t Node::bytes_for(std::uint32_t capacity,
                                   int level) noexcept {
  return kNodeHeaderBytes +
         static_cast<std::size_t>(level) *
             sizeof(stm::TxField<std::uint64_t>) +
         static_cast<std::size_t>(capacity) * (sizeof(Key) + sizeof(Value));
}

static_assert(std::is_trivially_destructible_v<Node>,
              "flat nodes are reclaimed as raw blocks");
static_assert(alignof(Node) <= alignof(std::max_align_t) &&
                  alignof(stm::TxField<std::uint64_t>) <= alignof(Node),
              "one operator-new block must satisfy every segment");

/// Placement-build a node in one pool block: header and next TxFields
/// are placement-constructed; keys/values are implicit-lifetime arrays
/// inside the same block.
inline Node* make_node(std::uint32_t capacity, int level, Key high) {
  void* raw = util::ebr::pool_alloc(Node::bytes_for(capacity, level));
  Node* node = new (raw) Node(capacity, level, high);
  stm::TxField<std::uint64_t>::construct_array(
      reinterpret_cast<std::byte*>(raw) + kNodeHeaderBytes,
      static_cast<std::size_t>(level));
  return node;
}

/// Tear down an unreachable node — never published, or retired and
/// past its EBR grace period — and hand the block back to the pool.
/// Bundle entries still chained to the node are unreachable with it
/// (pruning detaches through the head), so they free directly.
inline void destroy_node(Node* node) noexcept {
  if (node == nullptr) return;
  bundle::free_all(node->bundle0);
  util::ebr::pool_free(node, node->alloc_bytes());
}

/// ebr::retire deleter: recycle the victim's block.
inline void recycle_node(void* raw) {
  destroy_node(static_cast<Node*>(raw));
}

namespace detail {

/// LT's per-node locks as a striped side table keyed by node address,
/// so the shared node layout carries no mutex. Two nodes may collide on
/// a stripe — that only serializes their publishes, never admits an
/// invalid one — and publish_locked acquires stripes in index order,
/// which keeps locking deadlock-free exactly like the old address
/// order.
inline constexpr std::size_t kLockStripes = 1024;  // power of two

inline std::size_t lock_stripe(const void* node) noexcept {
  auto hash = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(node) >> 6);
  hash *= 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>((hash >> 32) & (kLockStripes - 1));
}

/// Cache-line-aligned so neighboring stripes never false-share.
struct alignas(64) StripeMutex {
  std::mutex mu;
};

inline std::mutex& stripe_lock(std::size_t stripe) noexcept {
  static std::array<StripeMutex, kLockStripes> locks;
  return locks[stripe].mu;
}

inline void prefetch(const void* line) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(line);
#endif
}

/// Prefetch a node's first key cache line; issued during the index
/// descent so the line lands before the in-node search needs it.
inline void prefetch_keys(const Node* node) noexcept {
  prefetch(node->keys());
}

}  // namespace detail

/// User keys live strictly between the head sentinel (Key min) and the
/// rightmost node's kSentinelKey bound.
inline void assert_user_key([[maybe_unused]] Key key) {
  assert(key > std::numeric_limits<Key>::min());
  assert(key < kSentinelKey);
}

/// Always-on nesting guard (NOT an assert: Release builds must fail
/// just as loudly). LT/COP/Skip-tm update paths act on commit success
/// immediately, so enlisting them in an enclosing transaction — which
/// would flat-nest their internal atomically and defer the publish —
/// silently corrupts the structure: locks released and victims retired
/// for an update that may never commit. The composable, nestable API
/// is LeapListTM's `*_in` forms (and its single-op wrappers).
inline void require_no_open_tx(const char* what) {
  if (stm::tls_tx().in_tx()) {
    std::fprintf(stderr,
                 "leaplist: %s cannot enlist in an open transaction; use "
                 "LeapListTM\n",
                 what);
    std::abort();
  }
}

/// Sort by key; duplicate keys keep the last value (the semantics every
/// bulk_load in this repo shares).
inline std::vector<KV> sorted_unique(const std::vector<KV>& pairs) {
  std::vector<KV> sorted = pairs;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const KV& a, const KV& b) { return a.key < b.key; });
  std::vector<KV> unique;
  unique.reserve(sorted.size());
  for (const KV& kv : sorted) {
    if (!unique.empty() && unique.back().key == kv.key) {
      unique.back().value = kv.value;
    } else {
      unique.push_back(kv);
    }
  }
  return unique;
}

struct SearchResult {
  std::array<Node*, kMaxHeight> pa{};  // predecessor per level
  std::array<Node*, kMaxHeight> na{};  // first node with high >= key
};

/// Retired-node restarts after which a checked build (stm::kChecks)
/// calls a search stuck. A correct commit unlinks its victim from every
/// level, so a search meets a retired node only while the commit that
/// retired it finishes; a relinked one would spin it forever.
inline constexpr std::uint32_t kMaxRetiredRestarts = 1u << 16;

/// Where an uninstrumented search stands: on `x` at `level`, holding
/// x's successor there in `succ`, loaded but not yet judged. Loading a
/// link prefetches what judging it reads (succ's header) and the link
/// word a step right reads next, so a caller that interleaves several
/// searches (GetProbe) finds both in cache when it steps this one again.
///
/// Trivial (no member initializers) so that a batch's probe slots cost
/// nothing until search_cursor fills them.
struct SearchCursor {
  Node* head;
  int max_level;
  Key key;
  Node* x;
  Node* succ;
  int level;
  std::uint32_t retired_restarts;
};

namespace detail {

/// Load x's link at the cursor's level into succ; false on a marked
/// link (x was replaced under the search).
inline bool load_link(SearchCursor& c) noexcept {
  const std::uint64_t word = c.x->next(c.level).load_word();
  if (util::is_marked(word)) return false;
  c.succ = util::to_ptr<Node>(word);
  prefetch(c.succ);
  prefetch(&c.succ->next(c.level));
  return true;
}

}  // namespace detail

/// (Re)start a search at the head's top level. The head is never a
/// victim, so its links are never marked.
inline void search_start(SearchCursor& c) noexcept {
  c.x = c.head;
  c.level = c.max_level - 1;
  [[maybe_unused]] const bool loaded = detail::load_link(c);
  assert(loaded);
}

inline SearchCursor search_cursor(Node* head, int max_level, Key key) {
  SearchCursor c;
  c.head = head;
  c.max_level = max_level;
  c.key = key;
  c.retired_restarts = 0;
  search_start(c);
  return c;
}

/// One hop of the uninstrumented search, the only copy of its rules:
/// judge succ — a retired node restarts the search from the head, a
/// node covering the key descends a level (recording the bracket in
/// `record` when given), any other node is stepped onto — then load
/// the next link, restarting on a mark. True once the level-0 bracket
/// (x, succ) is found. Must run under an ebr::Guard.
inline bool search_step(SearchCursor& c, SearchResult* record) {
  Node* succ = c.succ;
  if (!succ->live.load(std::memory_order_acquire)) {
    if constexpr (stm::kChecks) {
      if (++c.retired_restarts == kMaxRetiredRestarts) {
        std::fprintf(stderr,
                     "leaplist: search for key %lld restarted %u times "
                     "on a retired node still linked at level %d\n",
                     static_cast<long long>(c.key), c.retired_restarts,
                     c.level);
        std::abort();
      }
    }
    search_start(c);
    return false;
  }
  if (succ->high_raw() >= c.key) {
    if (record != nullptr) {
      record->pa[c.level] = c.x;
      record->na[c.level] = succ;
    }
    // The cover candidate's keys get searched right after the descent
    // lands; start the line toward L1 while the last levels still hide
    // the latency.
    if (c.level <= 1) detail::prefetch_keys(succ);
    if (c.level == 0) return true;
    --c.level;
  } else {
    c.x = succ;
  }
  if (!detail::load_link(c)) search_start(c);
  return false;
}

/// Uninstrumented predecessor search (the LT/COP fast path): the
/// bracket at every level. Restarts when it steps on a marked pointer
/// or a retired node; must run under an ebr::Guard.
inline SearchResult search_predecessors(Node* head, int max_level, Key key) {
  SearchResult result;
  SearchCursor c = search_cursor(head, max_level, key);
  while (!search_step(c, &result)) {
  }
  return result;
}

/// One point lookup advanced a step at a time: a search hop, one probe
/// of the in-node lower bound, or the value read. Each step prefetches
/// the lines the probe's next step reads, so walk_interleaved can
/// overlap the cache misses of a batch (group prefetching, AMAC).
class GetProbe {
 public:
  /// An unusable slot (trivial, like SearchCursor); assign a real probe
  /// from LeapListBase::get_probe before stepping it.
  GetProbe() = default;
  GetProbe(Node* head, int max_level, Key key)
      : cursor_(search_cursor(head, max_level, key)),
        phase_(Phase::kDescend),
        found_(false) {}

  /// Advance one step; true once the answer is known.
  bool step() {
    switch (phase_) {
      case Phase::kDescend:
        if (!search_step(cursor_, nullptr)) return false;
        keys_ = cursor_.succ->keys();
        base_ = 0;
        len_ = cursor_.succ->count;
        phase_ = Phase::kSearch;
        prefetch_probe();
        return false;
      case Phase::kSearch:
        if (len_ > 1) {
          detail::lower_bound_step(keys_, base_, len_, cursor_.key);
          prefetch_probe();
          return false;
        }
        if (len_ == 1 && keys_[base_] == cursor_.key) {
          detail::prefetch(cursor_.succ->values() + base_);
          phase_ = Phase::kValue;
          return false;
        }
        phase_ = Phase::kDone;
        return true;
      case Phase::kValue:
        value_ = cursor_.succ->values()[base_];
        found_ = true;
        phase_ = Phase::kDone;
        return true;
      case Phase::kDone:
        break;
    }
    return true;
  }

  Key key() const { return cursor_.key; }
  Node* head() const { return cursor_.head; }
  int max_level() const { return cursor_.max_level; }
  /// The level-0 bracket the search landed on: the cover node and its
  /// predecessor.
  Node* pred() const { return cursor_.x; }
  const Node* node() const { return cursor_.succ; }
  std::optional<Value> answer() const {
    if (!found_) return std::nullopt;
    return value_;
  }

 private:
  enum class Phase : std::uint8_t { kDescend, kSearch, kValue, kDone };

  void prefetch_probe() const {
    detail::prefetch(keys_ + (len_ > 1 ? base_ + len_ / 2 - 1 : base_));
  }

  SearchCursor cursor_;
  const Key* keys_;  // the cover node's keys, once landed
  std::size_t base_;  // lower-bound window [base_, base_ + len_]
  std::size_t len_;
  Value value_;
  Phase phase_;
  bool found_;
};

/// Lookups in flight in one interleaved batch. Sixteen is a pipelined
/// burst of point_get, and the gain flattens past it (abl_search).
inline constexpr std::size_t kProbeGroup = 16;

/// Step up to kProbeGroup probes round-robin until every one has
/// answered, so each probe's misses land while the others step. The
/// probes may search different lists. Must run under an ebr::Guard.
inline void walk_interleaved(GetProbe* probes, std::size_t n) {
  assert(n <= kProbeGroup);
  std::array<GetProbe*, kProbeGroup> active;
  for (std::size_t j = 0; j < n; ++j) active[j] = probes + j;
  std::size_t live = n;
  while (live > 0) {
    for (std::size_t j = 0; j < live;) {
      if (active[j]->step()) {
        active[j] = active[--live];
      } else {
        ++j;
      }
    }
  }
}

/// Fully instrumented search (what Leap-tm pays, §2.1): every pointer
/// hop is a transactional read, validated at commit. Aborts on marks.
inline SearchResult search_predecessors_tx(stm::Tx& tx, Node* head,
                                           int max_level, Key key) {
  SearchResult result;
  Node* x = head;
  for (int i = max_level - 1; i >= 0; --i) {
    Node* x_next = nullptr;
    while (true) {
      const std::uint64_t word = x->next(i).tx_read(tx);
      if (util::is_marked(word)) tx.abort();
      x_next = util::to_ptr<Node>(word);
      if (x_next->high_raw() >= key) {
        if (i <= 1) detail::prefetch_keys(x_next);
        break;
      }
      x = x_next;
    }
    result.pa[i] = x;
    result.na[i] = x_next;
  }
  return result;
}

class LeapListBase {
 public:
  explicit LeapListBase(const Params& params) : params_(params) {
    assert(params_.max_level >= 1 && params_.max_level <= kMaxHeight);
    assert(params_.node_size >= 2);
    assert(params_.node_size <= 0xFFFFFFFFull - 1);
    head_ = alloc_node(params_.max_level, std::numeric_limits<Key>::min());
    tail_ = alloc_node(params_.max_level, kSentinelKey);
    Node* first = alloc_node(params_.max_level, kSentinelKey);
    for (int i = 0; i < params_.max_level; ++i) {
      head_->next(i).init(util::to_word(first));
      first->next(i).init(util::to_word(tail_));
      tail_->next(i).init(0);
    }
    head_->birth_ts.store(0, std::memory_order_relaxed);
    first->birth_ts.store(0, std::memory_order_relaxed);
    tail_->birth_ts.store(0, std::memory_order_relaxed);
    bundle::insert(head_->bundle0, 0, first);
    bundle::insert(first->bundle0, 0, tail_);
  }

  ~LeapListBase() {
    Node* cur = head_;
    while (cur != tail_) {
      Node* nxt =
          util::to_ptr<Node>(util::without_mark(cur->next(0).load_word()));
      destroy_node(cur);
      cur = nxt;
    }
    destroy_node(tail_);
    util::ebr::collect();
  }

  LeapListBase(const LeapListBase&) = delete;
  LeapListBase& operator=(const LeapListBase&) = delete;

  const Params& params() const { return params_; }

  /// A raw lookup of `key` on this list, stepped by walk_interleaved.
  GetProbe get_probe(Key key) const {
    return GetProbe(head_, params_.max_level, key);
  }

  /// Single-threaded preload of a quiescent (freshly built) list.
  /// Duplicate keys keep the last value; nodes are filled to half
  /// capacity so early updates have headroom.
  void bulk_load(const std::vector<KV>& pairs) {
    const std::vector<KV> unique = sorted_unique(pairs);
    for (const KV& kv : unique) assert_user_key(kv.key);
    // Drop the existing data chain.
    Node* cur =
        util::to_ptr<Node>(util::without_mark(head_->next(0).load_word()));
    while (cur != tail_) {
      Node* nxt =
          util::to_ptr<Node>(util::without_mark(cur->next(0).load_word()));
      destroy_node(cur);
      cur = nxt;
    }
    const std::size_t fill = std::max<std::size_t>(1, params_.node_size / 2);
    std::array<Node*, kMaxHeight> last;
    last.fill(head_);
    std::size_t offset = 0;
    std::vector<Node*> nodes;
    while (offset < unique.size()) {
      const std::size_t take = std::min(fill, unique.size() - offset);
      Node* node = alloc_node(random_level(), unique[offset + take - 1].key);
      for (std::size_t j = 0; j < take; ++j) {
        node->append(unique[offset + j].key, unique[offset + j].value);
      }
      nodes.push_back(node);
      offset += take;
    }
    if (nodes.empty()) {
      nodes.push_back(alloc_node(params_.max_level, kSentinelKey));
    }
    nodes.back()->high = kSentinelKey;
    for (Node* node : nodes) {
      for (int i = 0; i < node->level; ++i) {
        last[i]->next(i).init(util::to_word(node));
        last[i] = node;
      }
    }
    for (int i = 0; i < params_.max_level; ++i) {
      last[i]->next(i).init(util::to_word(tail_));
    }
    // Rebase the bundle layer on the rebuilt chain. bulk_load's
    // quiescence contract means no scan is pinned at an older
    // timestamp, so the head's previous history (whose targets were
    // just destroyed) is dropped rather than pruned.
    const std::uint64_t ts0 = stm::clock_now();
    bundle::free_all(head_->bundle0);
    head_->birth_ts.store(0, std::memory_order_relaxed);
    bundle::insert(head_->bundle0, ts0, nodes.front());
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      Node* succ = j + 1 < nodes.size() ? nodes[j + 1] : tail_;
      nodes[j]->birth_ts.store(ts0, std::memory_order_relaxed);
      bundle::insert(nodes[j]->bundle0, ts0, succ);
    }
  }

  /// Quiescent structural invariant check (tests / debugging only).
  bool debug_validate() const {
    Key prev_high = std::numeric_limits<Key>::min();
    Node* last_data = nullptr;
    for (Node* n = data_next(head_); n != tail_; n = data_next(n)) {
      if (n->level < 1 || n->level > params_.max_level) return false;
      if (n->high <= prev_high) return false;
      if (n->count > n->capacity) return false;
      const Key* keys = n->keys();
      for (std::size_t j = 0; j < n->count; ++j) {
        if (keys[j] <= prev_high || keys[j] > n->high) return false;
        if (j > 0 && keys[j] <= keys[j - 1]) return false;
      }
      prev_high = n->high;
      last_data = n;
    }
    if (last_data == nullptr || last_data->high != kSentinelKey) return false;
    for (int i = 0; i < params_.max_level; ++i) {
      Key level_prev = std::numeric_limits<Key>::min();
      for (Node* n = data_next(head_, i); n != tail_; n = data_next(n, i)) {
        if (n->level <= i) return false;
        if (n->high <= level_prev) return false;
        level_prev = n->high;
      }
    }
    // Bundle invariants, quiescent: every on-chain node's newest entry
    // matches its current level-0 link (every link change inserts at
    // the same commit), and entry timestamps strictly decrease.
    for (Node* n = head_; n != tail_; n = data_next(n)) {
      const bundle::Entry* e =
          n->bundle0.load(std::memory_order_acquire);
      if (e == nullptr) return false;
      if (e->target != static_cast<void*>(data_next(n))) return false;
      std::uint64_t prev_ts = e->ts;
      for (const bundle::Entry* o = e->older.load(std::memory_order_acquire);
           o != nullptr; o = o->older.load(std::memory_order_acquire)) {
        if (o->ts >= prev_ts) return false;
        prev_ts = o->ts;
      }
    }
    return true;
  }

  /// Quiescent element count (tests only).
  std::size_t size_slow() const {
    std::size_t total = 0;
    for (Node* n = data_next(head_); n != tail_; n = data_next(n)) {
      total += n->count;
    }
    return total;
  }

  // --- Bundled-reference (as-of) range scans -------------------------
  //
  // Timestamped scans work on EVERY variant: updates maintain the
  // level-0 bundles inside their publish commits regardless of policy,
  // so a reader that pins a timestamp walks the chain exactly as it
  // was at that instant — no STM transaction, no validation, no
  // retries against concurrent updaters. This is LT's, COP's and RW's
  // for_range. ShardedMap replays ONE pinned timestamp across all
  // shards, which is what makes stitched scans linearizable on those
  // policies (policy::TM keeps its transactional scan for
  // composability).

  /// One attempt at visiting [low, high] as of `ts`. The caller owns
  /// the pin (bundle::ScanPin) whose announce protocol guarantees the
  /// needed history is retained; returns false on the defensive-restart
  /// path (pruned-past lookup), after which the caller re-pins a fresh
  /// timestamp. `stopped` reports a visitor early exit (scan delivered
  /// a consistent prefix and stopped).
  template <typename F>
  bool try_for_range_asof(std::uint64_t ts, Key low, Key high, F& fn,
                          std::size_t& count, bool& stopped) const {
    const SearchResult sr =
        search_predecessors(head_, params_.max_level, low);
    const Node* x = head_;
    for (int i = 0; i < params_.max_level; ++i) {
      if (asof_start_ok(sr.pa[i], ts)) {
        x = sr.pa[i];
        break;
      }
    }
    while (true) {
      const Node* n = succ_at(x, ts);
      if (n == nullptr) return false;
      if (n == tail_) return true;
      if (n->high_raw() >= low) {
        if (!visit_node(n, low, high, fn, count)) {
          stopped = true;
          return true;
        }
        if (n->high_raw() >= high) return true;
      }
      x = n;
    }
  }

  /// Linearizable range visitation via bundled references: pin a
  /// timestamp and visit [low, high] as of it. No transaction, no
  /// commit validation, and no retries against concurrent updaters —
  /// the scan linearizes at the pin's clock read, and immutable node
  /// content plus the link history makes the visitation one consistent
  /// snapshot. The visitor may stop the scan early (return false); the
  /// visited prefix is itself a snapshot at the pinned instant.
  /// on_restart fires before each attempt: the defensive-restart path
  /// re-pins and re-visits from `low`. LeapListTM hides this with its
  /// transactional scan.
  template <typename F>
  std::size_t for_range(Key low, Key high, F&& fn) const {
    bundle::ScanPin pin;
    while (true) {
      detail::visit_restart(fn);
      std::size_t count = 0;
      bool stopped = false;
      if (try_for_range_asof(pin.ts(), low, high, fn, count, stopped)) {
        return count;
      }
      pin.refresh();
    }
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects). New code
  /// should prefer for_range with leap::append_to for explicit append.
  std::size_t range_query(Key low, Key high, std::vector<KV>& out) const {
    out.clear();
    return for_range(low, high, detail::Appender(out));
  }

  /// Longest level-0 bundle on the current chain (tests/debug).
  std::size_t debug_max_bundle() const {
    std::size_t max = 0;
    for (Node* n = head_; n != tail_; n = data_next(n)) {
      max = std::max(max, bundle::length(n->bundle0));
    }
    return max;
  }

  /// Prune every on-chain bundle against the oldest announced scan
  /// timestamp (tests and maintenance sweeps; the insert path prunes
  /// incrementally on its own).
  void bundle_prune_all() {
    util::ebr::Guard guard;
    const std::uint64_t min = bundle::min_active_ts();
    for (Node* n = head_; n != tail_; n = data_next(n)) {
      bundle::prune(n->bundle0, min);
    }
  }

 protected:
  /// True when `x` is a safe as-of walk start: published at or before
  /// `ts`, and still on the chain at `ts` (unmarked now, or marked only
  /// by a commit newer than ts). head_ always qualifies.
  static bool asof_start_ok(const Node* x, std::uint64_t ts) {
    if (x->birth_ts.load(std::memory_order_acquire) > ts) return false;
    std::uint64_t version = 0;
    const std::uint64_t word = x->next(0).snapshot_word(version);
    return !util::is_marked(word) || version > ts;
  }

  /// `x`'s level-0 successor at instant `ts` (x must have been on the
  /// chain at ts). Current link when its last change is <= ts, bundle
  /// lookup otherwise; nullptr means the needed history is gone and the
  /// scan must restart with a fresh timestamp.
  static const Node* succ_at(const Node* x, std::uint64_t ts) {
    std::uint64_t version = 0;
    const std::uint64_t word = x->next(0).snapshot_word(version);
    if (version <= ts) {
      if (util::is_marked(word)) return nullptr;
      return util::to_ptr<Node>(word);
    }
    return static_cast<const Node*>(bundle::find(x->bundle0, ts));
  }
  /// One update: a put of {key, value}, or an erase of key.
  struct Update {
    Key key;
    Value value;
    bool erase;
  };

  /// Replacement plan for one update: n1 (always) and n2 (splits only),
  /// plus how many index levels the swing must rewrite. Empty (n1 ==
  /// nullptr) for an erase of an absent key. `inserted` is the update's
  /// answer: a put added a new key, or an erase removed one.
  struct Replacement {
    Node* n1 = nullptr;
    Node* n2 = nullptr;
    int link_top = 0;
    bool inserted = false;
  };

  /// THE single source of node capacity: every replacement outcome
  /// fits in `node_size` slots — a non-split replacement holds at most
  /// node_size pairs (plan_insert splits instead of overflowing), and
  /// a split distributes node_size + 1 pairs as ceil/floor halves,
  /// each ≤ node_size for node_size ≥ 2. alloc_node and the split
  /// planner both size through here, so flat-block sizing cannot drift
  /// from the planner (the seed re-derived capacity ad hoc in two
  /// places).
  std::uint32_t node_capacity() const {
    return static_cast<std::uint32_t>(params_.node_size);
  }

  Node* alloc_node(int level, Key high) const {
    return make_node(node_capacity(), level, high);
  }

  int random_level() const {
    return util::random_geometric_level(params_.max_level);
  }

  /// Index of `key` in `n`, or -1.
  static int find_in(const Node* n, Key key) {
    const Key* keys = n->keys();
    const std::size_t idx = detail::flat_lower_bound(keys, n->count, key);
    if (idx == n->count || keys[idx] != key) return -1;
    return static_cast<int>(idx);
  }

  /// Visit `n`'s pairs in [low, high] in key order; returns false when
  /// the visitor stopped the scan early. The engine never materializes
  /// a vector here — accumulation is the visitor's business. The
  /// in-range run [first, end) is resolved by two branchless searches,
  /// so the per-pair loop carries no bound compare; a BulkVisitor
  /// ingests the whole run in one call, and `count` counts the pairs
  /// handed to it.
  template <typename F>
  static bool visit_node(const Node* n, Key low, Key high, F& fn,
                         std::size_t& count) {
    const Key* keys = n->keys();
    const Value* values = n->values();
    const std::size_t first = detail::flat_lower_bound(keys, n->count, low);
    const std::size_t end =
        n->high_raw() <= high ? n->count
                              : detail::flat_upper_bound(keys, n->count, high);
    if constexpr (detail::BulkVisitor<F>) {
      // A reversed range (low > high) can put end below first.
      if (end <= first) return true;
      count += end - first;
      return detail::visit_run(fn, keys + first, values + first, end - first);
    } else {
      for (std::size_t i = first; i < end; ++i) {
        ++count;
        if (!detail::visit_one(fn, keys[i], values[i])) return false;
      }
      return true;
    }
  }

  Replacement plan_insert(Node* n, Key key, Value value) const {
    assert_user_key(key);
    Replacement plan;
    const Key* skeys = n->keys();
    const Value* svalues = n->values();
    const std::uint32_t count = n->count;
    const std::size_t pos = detail::flat_lower_bound(skeys, count, key);
    if (pos < count && skeys[pos] == key) {
      // Same key: replacement with the value swapped.
      Node* n1 = alloc_node(n->level, n->high);
      std::copy(skeys, skeys + count, n1->keys());
      std::copy(svalues, svalues + count, n1->values());
      n1->values()[pos] = value;
      n1->count = count;
      plan.n1 = n1;
      plan.link_top = n->level;
      return plan;
    }
    // Copy the merged sequence — skeys[0, pos) + {key} + skeys[pos,
    // count) — for merged indexes [from, to) into `dst`.
    const auto copy_merged = [&](Node* dst, std::size_t from,
                                 std::size_t to) {
      Key* dkeys = dst->keys();
      Value* dvalues = dst->values();
      std::size_t out = 0;
      if (from < pos) {
        const std::size_t end = std::min(to, pos);
        std::copy(skeys + from, skeys + end, dkeys);
        std::copy(svalues + from, svalues + end, dvalues);
        out = end - from;
      }
      if (pos >= from && pos < to) {
        dkeys[out] = key;
        dvalues[out] = value;
        ++out;
      }
      const std::size_t tail_from = std::max(from, pos + 1);
      if (tail_from < to) {
        std::copy(skeys + (tail_from - 1), skeys + (to - 1), dkeys + out);
        std::copy(svalues + (tail_from - 1), svalues + (to - 1),
                  dvalues + out);
        out += to - tail_from;
      }
      assert(out == to - from && out <= dst->capacity);
      dst->count = static_cast<std::uint32_t>(out);
    };
    if (count < params_.node_size) {
      Node* n1 = alloc_node(n->level, n->high);
      copy_merged(n1, 0, count + 1);
      plan.n1 = n1;
      plan.link_top = n->level;
      plan.inserted = true;
      return plan;
    }
    // Full node: split into n1 (new left, fresh level) and n2 (right,
    // inheriting n's level and high — and with it the sentinel role).
    const std::size_t total = count + 1;
    const std::size_t left = (total + 1) / 2;
    Node* n1 = alloc_node(random_level(), 0);
    Node* n2 = alloc_node(n->level, n->high);
    copy_merged(n1, 0, left);
    copy_merged(n2, left, total);
    n1->high = n1->keys()[n1->count - 1];
    plan.n1 = n1;
    plan.n2 = n2;
    plan.link_top = std::max(n1->level, n->level);
    plan.inserted = true;
    return plan;
  }

  /// Replacement with `key` removed; empty when absent.
  Replacement plan_erase(Node* n, Key key) const {
    Replacement plan;
    const int idx = find_in(n, key);
    if (idx < 0) return plan;
    Node* n1 = alloc_node(n->level, n->high);
    const auto pos = static_cast<std::size_t>(idx);
    const Key* skeys = n->keys();
    const Value* svalues = n->values();
    std::copy(skeys, skeys + pos, n1->keys());
    std::copy(skeys + pos + 1, skeys + n->count, n1->keys() + pos);
    std::copy(svalues, svalues + pos, n1->values());
    std::copy(svalues + pos + 1, svalues + n->count, n1->values() + pos);
    n1->count = n->count - 1;
    plan.n1 = n1;
    plan.link_top = n->level;
    plan.inserted = true;
    return plan;
  }

  Replacement plan_update(Node* n, const Update& u) const {
    return u.erase ? plan_erase(n, u.key) : plan_insert(n, u.key, u.value);
  }

  static void discard(Replacement& plan) {
    destroy_node(plan.n1);
    destroy_node(plan.n2);
    plan.n1 = plan.n2 = nullptr;
  }

  /// Retire a replaced victim: a search that still meets it restarts,
  /// and its block recycles once no search can reference it.
  static void retire_victim(Node* victim) {
    victim->live.store(false, std::memory_order_release);
    util::ebr::retire(victim, &recycle_node);
  }

  /// The update loop of the variants that publish by themselves (LT,
  /// COP, RW): raw search, plan, then the variant's publish step
  /// `publish(sr, n, plan)`, which swings the pointers unless the
  /// searched window moved. Success retires the victim; failure drops
  /// the plan and searches again. An absent erase answers false without
  /// publishing.
  template <typename Publish>
  bool raw_update(const Update& u, const char* what, Publish publish) {
    require_no_open_tx(what);
    util::ebr::Guard guard;
    while (true) {
      const SearchResult sr =
          search_predecessors(head_, params_.max_level, u.key);
      Node* n = sr.na[0];
      Replacement plan = plan_update(n, u);
      if (plan.n1 == nullptr) return false;
      if (publish(sr, n, plan)) {
        retire_victim(n);
        return plan.inserted;
      }
      discard(plan);
    }
  }

  /// A raw lookup of `key` run to its answer. Must run under an
  /// ebr::Guard (or, for RW, under its lock).
  GetProbe run_probe(Key key) const {
    GetProbe probe = get_probe(key);
    while (!probe.step()) {
    }
    return probe;
  }

  /// Fresh-node next word: initialize the memory now — a raw traversal
  /// crossing the node mid-publish must see a valid pointer — AND
  /// enlist the word in the write set so it publishes carrying the
  /// commit version. A fresh field left at version 0 would let a
  /// read-only transaction whose snapshot predates this commit read
  /// post-commit state undetected (TL2 opacity hole: the version check
  /// `0 <= rv_` always passes).
  static void publish_word(stm::Tx& tx, stm::TxField<std::uint64_t>& field,
                           std::uint64_t word) {
    field.init(word);
    field.tx_write_blind(tx, word);  // unpublished: nobody else writes it
  }

  /// What entitles apply_swap to overwrite the predecessor words: this
  /// transaction read them (COP and TM: validate_tx or the instrumented
  /// search), or the caller holds their locks (LT's stripes, RW's
  /// exclusive lock) and writes them blind.
  enum class PredWrites { kRead, kLocked };

  /// Transactional pointer swing: initializes the replacement nodes'
  /// next words from in-transaction reads of the victim's, relinks the
  /// predecessors, and marks the victim. The victim's content must be
  /// protected by locks (LT), validation in the same transaction (COP),
  /// or an instrumented search (TM).
  static void apply_swap(stm::Tx& tx, const SearchResult& sr, Node* n,
                         const Replacement& plan, PredWrites preds) {
    Node* n1 = plan.n1;
    Node* n2 = plan.n2;
    if (n2 != nullptr) {
      for (int i = 0; i < n2->level; ++i) {
        publish_word(tx, n2->next(i), n->next(i).tx_read(tx));
      }
      for (int i = 0; i < n1->level; ++i) {
        publish_word(tx, n1->next(i),
                     i < n2->level ? util::to_word(n2)
                                   : util::to_word(sr.na[i]));
      }
    } else {
      for (int i = 0; i < n1->level; ++i) {
        publish_word(tx, n1->next(i), n->next(i).tx_read(tx));
      }
    }
    for (int i = 0; i < plan.link_top; ++i) {
      Node* target = i < n1->level ? n1 : n2;
      if (preds == PredWrites::kLocked) {
        sr.pa[i]->next(i).tx_write_blind(tx, util::to_word(target));
      } else {
        sr.pa[i]->next(i).tx_write(tx, util::to_word(target));
      }
    }
    for (int i = 0; i < n->level; ++i) {
      n->next(i).tx_write(tx, util::with_mark(n->next(i).tx_read(tx)));
    }
    // Bundle publication: runs in the TL2 publish window (values
    // stored, versioned locks still held), so the entries carry the
    // commit timestamp and are visible before any seqlock reader can
    // observe that version on the links. Targets are read back from
    // the stored words rather than captured — a composed transaction
    // may rewire the same link again at the same timestamp, and only
    // the final state exists at wv (bundle::insert overwrites the
    // equal-ts head entry).
    Node* pred = sr.pa[0];
    tx.defer_on_publish([pred, n1, n2](std::uint64_t wv) {
      const auto stored = [](const Node* node) {
        return util::to_ptr<Node>(
            util::without_mark(node->next(0).load_word()));
      };
      n1->birth_ts.store(wv, std::memory_order_relaxed);
      bundle::insert(n1->bundle0, wv, stored(n1));
      if (n2 != nullptr) {
        n2->birth_ts.store(wv, std::memory_order_relaxed);
        bundle::insert(n2->bundle0, wv, stored(n2));
      }
      bundle::insert(pred->bundle0, wv, stored(pred));
      bundle::maybe_prune(pred->bundle0);
    });
  }

  /// In-transaction validation that the searched window is unchanged:
  /// every predecessor still points at the node the search saw (a
  /// retired predecessor fails this automatically — its word is
  /// marked), and the victim is still the cover node at every level it
  /// occupies.
  static bool validate_tx(stm::Tx& tx, const SearchResult& sr, Node* n,
                          int top) {
    for (int i = 0; i < top; ++i) {
      if (i < n->level && sr.na[i] != n) return false;
      if (sr.pa[i]->next(i).tx_read(tx) != util::to_word(sr.na[i])) {
        return false;
      }
    }
    return true;
  }

  // --- Composable (in-transaction) operation core --------------------
  //
  // The txn_* methods enlist one list operation in a caller-owned open
  // transaction: structural writes buffer in the caller's write set,
  // the victim retires through a deferred commit action, and the
  // speculative replacement nodes are freed by a deferred abort action,
  // so any number of operations over any number of lists commit (or
  // vanish) as one unit. Callers must hold an ebr::Guard for the whole
  // transaction — leap::txn does.
  //
  // kHybrid search safety: the raw traversal records nothing in the
  // read set, so what it saw must be re-read inside the transaction
  // before anything is built on it. Running after the attempt's
  // begin() is NOT enough: a commit whose version wv <= rv_ can still
  // be storing its values when the raw search passes by (commit_locked
  // advances the clock before it stores), so a raw read can return the
  // pre-commit word of a field whose version will read <= rv_ — and
  // commit_locked accepts a write to that field. A predecessor word
  // written on the strength of such a read can relink a node that
  // commit just retired, and every later search then restarts on it
  // forever. So the hybrid path tx_reads its window before it writes
  // or answers: updates run validate_tx over every level the swap
  // rewrites, and get/absent-erase re-read the bottom hop; a mismatch
  // aborts, and the retry's raw search sees the settled window. The
  // raw traversal also cannot see this transaction's OWN buffered
  // writes; window_self_dirty detects that overlap and routes the
  // operation to the instrumented search, which reads its own writes.

  /// How a composable operation locates its window: kHybrid pays a raw
  /// COP-style search when possible; kInstrumented always pays the
  /// fully instrumented search (the paper's Leap-tm discipline).
  enum class TxSearch { kHybrid, kInstrumented };

  /// True when the open transaction already buffered a write to any
  /// word this update's swap would read or overwrite.
  bool window_self_dirty(const stm::Tx& tx, const SearchResult& sr,
                         Node* n) const {
    for (int i = 0; i < n->level; ++i) {
      if (tx.has_write(n->next(i))) return true;
    }
    for (int i = 0; i < params_.max_level; ++i) {
      if (tx.has_write(sr.pa[i]->next(i))) return true;
    }
    return false;
  }

  /// Tie a planned replacement to the transaction outcome. Must run
  /// before apply_swap so an abort inside the swap still reclaims the
  /// plan nodes (nothing has seen them).
  static void enlist_swap(stm::Tx& tx, Node* victim,
                          const Replacement& plan) {
    Node* n1 = plan.n1;
    Node* n2 = plan.n2;
    tx.defer_on_abort([n1, n2] {
      destroy_node(n1);
      destroy_node(n2);
    });
    tx.defer_on_commit([victim] { retire_victim(victim); });
  }

  bool txn_update(stm::Tx& tx, const Update& u, TxSearch mode) {
    assert(tx.in_tx());
    SearchResult sr;
    Node* n = nullptr;
    bool hybrid = false;
    if (mode == TxSearch::kHybrid) {
      sr = search_predecessors(head_, params_.max_level, u.key);
      if (!window_self_dirty(tx, sr, sr.na[0])) {
        n = sr.na[0];
        hybrid = true;
      }
    }
    if (n == nullptr) {
      sr = search_predecessors_tx(tx, head_, params_.max_level, u.key);
      n = sr.na[0];
    }
    const Replacement plan = plan_update(n, u);
    if (plan.n1 == nullptr) {
      // Absent erase. Pin the cover node's identity so the absence is
      // part of the read set (the instrumented search did this
      // implicitly).
      if (hybrid && !validate_tx(tx, sr, n, 1)) tx.abort();
      return false;
    }
    enlist_swap(tx, n, plan);
    if (hybrid && !validate_tx(tx, sr, n, plan.link_top)) tx.abort();
    apply_swap(tx, sr, n, plan, PredWrites::kRead);
    return plan.inserted;
  }

  std::optional<Value> txn_get(stm::Tx& tx, Key key, TxSearch mode) const {
    assert(tx.in_tx());
    if (mode == TxSearch::kHybrid) return finish_get(tx, run_probe(key));
    return get_instrumented(tx, head_, params_.max_level, key);
  }

  /// The fully instrumented get: Leap-tm's single-op discipline, and
  /// the hybrid get's fallback.
  static std::optional<Value> get_instrumented(stm::Tx& tx, Node* head,
                                               int max_level, Key key) {
    const SearchResult sr = search_predecessors_tx(tx, head, max_level, key);
    const Node* n = sr.na[0];
    const int idx = find_in(n, key);
    if (idx < 0) return std::nullopt;
    return n->values()[idx];
  }

  /// True when a finished raw probe's bottom hop, read in `tx`, still
  /// leads to the node it answered from. Replacing the cover node
  /// rewrites its (unique) bottom-level predecessor word, so one clean
  /// hop pins the node's identity, and immutable content makes the
  /// probe's answer valid.
  static bool probe_holds(stm::Tx& tx, const GetProbe& p) {
    return p.pred()->next(0).tx_read(tx) == util::to_word(p.node());
  }

  /// The hybrid get's rule, applied to a finished raw probe: abort when
  /// the probe no longer holds. A hop this transaction wrote falls back
  /// to the instrumented search, which reads its own writes.
  static std::optional<Value> finish_get(stm::Tx& tx, const GetProbe& p) {
    if (tx.has_write(p.pred()->next(0))) {
      return get_instrumented(tx, p.head(), p.max_level(), p.key());
    }
    if (!probe_holds(tx, p)) tx.abort();
    return p.answer();
  }

  /// Visitor-driven in-transaction range scan; returns the number of
  /// pairs visited. The visitor runs during the walk so it can stop the
  /// scan early, and each pair reaches it once: the walk never restarts
  /// (a conflict aborts the whole attempt, which the enclosing closure
  /// owns). A node leaves this transaction's view of the level-0 chain
  /// only by being replaced, and a replacement marks the node's own
  /// level-0 link in the same transaction (apply_swap). So a raw-search
  /// start whose link this transaction has not written is in the view,
  /// and from there tx_read's read-your-writes follows the view,
  /// buffered links included. Only a start whose link this transaction
  /// wrote takes the instrumented search — decided before any pair is
  /// visited.
  template <typename F>
  std::size_t txn_for_range(stm::Tx& tx, Key low, Key high, F&& fn,
                            TxSearch mode) const {
    assert(tx.in_tx());
    Node* x = nullptr;
    if (mode == TxSearch::kHybrid) {
      x = search_predecessors(head_, params_.max_level, low).pa[0];
      if (tx.has_write(x->next(0))) x = nullptr;
    }
    if (x == nullptr) {
      x = search_predecessors_tx(tx, head_, params_.max_level, low).pa[0];
    }
    std::size_t count = 0;
    while (true) {
      const std::uint64_t word = x->next(0).tx_read(tx);
      // Only a raw-search start can be marked here: a commit inside
      // this attempt's snapshot replaced it while the raw search passed
      // by (the kHybrid race above). Abort rather than hop on it; the
      // retry's search sees the settled chain.
      if (util::is_marked(word)) tx.abort();
      Node* n = util::to_ptr<Node>(word);
      if (!visit_node(n, low, high, fn, count)) break;
      if (n->high_raw() >= high) break;
      x = n;
    }
    return count;
  }

  Node* data_next(const Node* n, int level = 0) const {
    return util::to_ptr<Node>(util::without_mark(n->next(level).load_word()));
  }

  Params params_;
  Node* head_;
  Node* tail_;
};

/// Leap-LT (paper §2.1, the winning variant): raw searches; updates
/// lock the unique predecessor set plus the victim (address-ordered),
/// validate, and publish with a short transaction.
class LeapListLT : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  bool insert(Key key, Value value) {
    return raw_update({key, value, false}, "LeapListLT update",
                      publish_locked);
  }

  bool erase(Key key) {
    return raw_update({key, 0, true}, "LeapListLT update", publish_locked);
  }

  /// Transaction-free lookup: the raw search only accepts live,
  /// unmarked hops, and node content is immutable.
  std::optional<Value> get(Key key) const {
    util::ebr::Guard guard;
    return run_probe(key).answer();
  }

 private:
  static bool publish_locked(const SearchResult& sr, Node* n,
                             const Replacement& plan) {
    // Stripe set for the victim + predecessors, deduplicated and taken
    // in ascending index order (the stripe table's global lock order).
    std::array<std::size_t, kMaxHeight + 1> stripes;
    int count = 0;
    stripes[count++] = detail::lock_stripe(n);
    for (int i = 0; i < plan.link_top; ++i) {
      stripes[count++] = detail::lock_stripe(sr.pa[i]);
    }
    std::sort(stripes.begin(), stripes.begin() + count);
    count = static_cast<int>(
        std::unique(stripes.begin(), stripes.begin() + count) -
        stripes.begin());
    for (int i = 0; i < count; ++i) detail::stripe_lock(stripes[i]).lock();
    bool valid = n->live.load(std::memory_order_acquire);
    for (int i = 0; valid && i < plan.link_top; ++i) {
      if (i < n->level && sr.na[i] != n) valid = false;
      if (valid &&
          sr.pa[i]->next(i).load_word() != util::to_word(sr.na[i])) {
        valid = false;
      }
    }
    if (valid) {
      stm::atomically(stm::tls_tx(), [&](stm::Tx& t) {
        apply_swap(t, sr, n, plan, PredWrites::kLocked);
      });
      // Validation reads `live` under the victim's stripe, so it goes
      // false before the stripe is released; the loop then retires n.
      n->live.store(false, std::memory_order_release);
    }
    for (int i = count - 1; i >= 0; --i) {
      detail::stripe_lock(stripes[i]).unlock();
    }
    return valid;
  }
};

/// Leap-COP (paper §2.2): consistency-oblivious — traverse raw, then
/// validate the observed window and swing the pointers inside a single
/// commit transaction; on validation failure, redo the traversal.
class LeapListCOP : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  bool insert(Key key, Value value) {
    return raw_update({key, value, false}, "LeapListCOP update",
                      publish_validated);
  }

  bool erase(Key key) {
    return raw_update({key, 0, true}, "LeapListCOP update",
                      publish_validated);
  }

  /// Raw lookup, then the probe's bottom hop validated in a read-only
  /// transaction (the hybrid get's rule); a moved hop redoes the lookup.
  std::optional<Value> get(Key key) const {
    util::ebr::Guard guard;
    stm::Tx& tx = stm::tls_tx();
    while (true) {
      const GetProbe probe = run_probe(key);
      bool valid = false;
      stm::atomically(tx, [&](stm::Tx& t) { valid = probe_holds(t, probe); });
      if (valid) return probe.answer();
    }
  }

 private:
  static bool publish_validated(const SearchResult& sr, Node* n,
                                const Replacement& plan) {
    bool valid = false;
    stm::atomically(stm::tls_tx(), [&](stm::Tx& t) {
      valid = validate_tx(t, sr, n, plan.link_top);
      if (valid) apply_swap(t, sr, n, plan, PredWrites::kRead);
    });
    return valid;
  }
};

/// Leap-tm (paper §2.3): every operation, traversal included, runs as
/// one fully instrumented transaction. The only variant with a
/// composable surface: the `*_in` forms enlist in a caller-owned open
/// transaction (leap::txn), so one transaction can move keys between
/// lists, update several lists, and take multi-list range snapshots as
/// one atomic unit. Composable forms use the hybrid search (raw
/// COP-style traversal validated against the transaction's write set);
/// single-op forms keep the paper's fully instrumented discipline and
/// flat-nest into an enclosing leap::txn when called from one.
class LeapListTM : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  // Composable forms — require an open transaction.
  bool insert_in(stm::Tx& tx, Key key, Value value) {
    return txn_update(tx, {key, value, false}, TxSearch::kHybrid);
  }

  bool erase_in(stm::Tx& tx, Key key) {
    return txn_update(tx, {key, 0, true}, TxSearch::kHybrid);
  }

  std::optional<Value> get_in(stm::Tx& tx, Key key) const {
    return txn_get(tx, key, TxSearch::kHybrid);
  }

  /// out[j] = get_in(tx, keys[j]) for every j < n, with the raw
  /// descents interleaved. Same answers, read set and abort conditions
  /// as the n calls in order.
  void get_many_in(stm::Tx& tx, const Key* keys, std::size_t n,
                   std::optional<Value>* out) const {
    batch_get_in(
        tx, n, [&](std::size_t j) { return get_probe(keys[j]); },
        [&](std::size_t j, std::optional<Value> hit) { out[j] = hit; });
  }

  /// The batch behind every get_many_in, over any mix of lists: the
  /// j-th lookup is `probe_for(j)` (a get_probe of the list it reads),
  /// and its answer goes to `emit(j, answer)` in j order. Lookups walk
  /// interleaved kProbeGroup at a time, then each group is pinned in
  /// order by the hybrid get's rule (finish_get).
  template <typename ProbeFor, typename Emit>
  static void batch_get_in(stm::Tx& tx, std::size_t n, ProbeFor&& probe_for,
                           Emit&& emit) {
    assert(tx.in_tx());
    std::array<GetProbe, kProbeGroup> probes;
    for (std::size_t at = 0; at < n; at += kProbeGroup) {
      const std::size_t m = std::min(kProbeGroup, n - at);
      for (std::size_t j = 0; j < m; ++j) probes[j] = probe_for(at + j);
      walk_interleaved(probes.data(), m);
      for (std::size_t j = 0; j < m; ++j) {
        emit(at + j, finish_get(tx, probes[j]));
      }
    }
  }

  /// Composable range visitation: enlists in the caller's open
  /// transaction and delivers each pair once, never calling
  /// on_restart. A conflict re-runs the enclosing leap::txn closure,
  /// which owns resetting whatever the visitor accumulated.
  template <typename F>
  std::size_t for_range_in(stm::Tx& tx, Key low, Key high, F&& fn) const {
    return txn_for_range(tx, low, high, fn, TxSearch::kHybrid);
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects).
  std::size_t range_in(stm::Tx& tx, Key low, Key high,
                       std::vector<KV>& out) const {
    out.clear();
    return txn_for_range(tx, low, high, detail::Appender(out),
                         TxSearch::kHybrid);
  }

  // Single-op forms — one transaction per call.
  bool insert(Key key, Value value) {
    return leap::txn([&](stm::Tx& tx) {
      return txn_update(tx, {key, value, false}, TxSearch::kInstrumented);
    });
  }

  bool erase(Key key) {
    return leap::txn([&](stm::Tx& tx) {
      return txn_update(tx, {key, 0, true}, TxSearch::kInstrumented);
    });
  }

  std::optional<Value> get(Key key) const {
    return leap::txn([&](stm::Tx& tx) {
      return txn_get(tx, key, TxSearch::kInstrumented);
    });
  }

  /// The paper's fully instrumented scan as one transaction, which
  /// retries whole: on_restart fires before each attempt.
  template <typename F>
  std::size_t for_range(Key low, Key high, F&& fn) const {
    return leap::txn([&](stm::Tx& tx) {
      detail::visit_restart(fn);
      return txn_for_range(tx, low, high, fn, TxSearch::kInstrumented);
    });
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects).
  std::size_t range_query(Key low, Key high, std::vector<KV>& out) const {
    out.clear();
    return for_range(low, high, detail::Appender(out));
  }
};

/// Global reader-writer-lock baseline (paper's "rwlock" series).
/// Updates serialize on an exclusive lock; point lookups take it
/// shared. Publication is copy-node-and-swap through the same
/// timestamped commit as every other variant (the exclusive lock makes
/// the transaction conflict-free, so it commits first try), which is
/// what lets range scans run as lock-free bundled-reference walks —
/// readers never touch the rwlock, and a stitched multi-shard scan at
/// one timestamp is linearizable even against writers holding other
/// shards' locks. The price of the bundle contract: in-place node
/// edits are gone (content is immutable once published) and victims
/// retire through EBR instead of being freed inline.
class LeapListRW : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  bool insert(Key key, Value value) { return update({key, value, false}); }

  bool erase(Key key) { return update({key, 0, true}); }

  std::optional<Value> get(Key key) const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    return run_probe(key).answer();
  }

 private:
  /// The search, the plan and the publish all run under the exclusive
  /// lock, so the window cannot move and the publish always succeeds.
  bool update(const Update& u) {
    std::unique_lock<std::shared_mutex> lk(mu_);
    return raw_update(u, "LeapListRW update", publish_exclusive);
  }

  /// Timestamped publish under the exclusive lock: no other writer can
  /// exist, so validation is unnecessary and the commit succeeds
  /// without conflicts — but it still stamps the links and bundles
  /// with a commit version, which the lock-free scans rely on.
  static bool publish_exclusive(const SearchResult& sr, Node* n,
                                const Replacement& plan) {
    stm::atomically(stm::tls_tx(), [&](stm::Tx& t) {
      apply_swap(t, sr, n, plan, PredWrites::kLocked);
    });
    return true;
  }

  mutable std::shared_mutex mu_;
};

}  // namespace leap::core
