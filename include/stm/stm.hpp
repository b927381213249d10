// Word-based software transactional memory in the TL2 style
// (Dice/Shalev/Shavit, DISC 2006) — the substrate for the paper's tm,
// COP, and LT leap-list variants.
//
//   * Every TxField carries its own versioned lock word (version<<1 |
//     locked-bit) — per-field orecs, no shared ownership table, so
//     false conflicts between unrelated fields are impossible.
//   * Transactions are lazy: writes buffer in a write set and publish
//     at commit under per-field locks, validated against a global
//     version clock snapshot.
//   * Progress: after a bounded number of aborts, `atomically` falls
//     back to an irrevocable mode serialized by a global rw-mutex that
//     every writer commit briefly shares — opt-in starvation freedom
//     without slowing the optimistic read path.
//   * Composition: atomically flat-nests on re-entry, and Tx carries
//     deferred commit/abort actions so multi-structure operations (one
//     transaction over several leap lists; see leaplist/txn.hpp) can
//     postpone node retirement and speculative-allocation cleanup to
//     the shared outcome.
//
// Concurrency contract: TxField::load/store are safe against concurrent
// transactions (store performs a miniature locked commit). Raw stores
// are NOT serializable against a running irrevocable fallback; restrict
// them to initialization or externally synchronized phases.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

// LEAP_STM_CHECKS turns on stm::kChecks. Debug builds (no NDEBUG) get
// it here, CMake defines it for both sanitizer presets, and Release
// builds compile the checks out.
#if !defined(NDEBUG) && !defined(LEAP_STM_CHECKS)
#define LEAP_STM_CHECKS 1
#endif

namespace leap::stm {

/// Discipline checks that catch a misused transaction on one core,
/// without timing luck: a write to a field the attempt never read
/// (Tx::write_word), and a leap-list search spinning on a relinked
/// retired node.
#ifdef LEAP_STM_CHECKS
inline constexpr bool kChecks = true;
#else
inline constexpr bool kChecks = false;
#endif

class Tx;

namespace detail {

std::atomic<std::uint64_t>& global_clock() noexcept;

}  // namespace detail

/// Current value of the global version clock. Every committed writer
/// transaction advances it, and commit_locked stamps the written
/// fields' versioned locks with the post-advance value — so the clock
/// doubles as the timestamp authority for bundled references: a
/// snapshot reader that picks `ts = clock_now()` observes exactly the
/// writes of transactions with commit version <= ts.
inline std::uint64_t clock_now() noexcept {
  return detail::global_clock().load(std::memory_order_seq_cst);
}

namespace detail {

/// Commit-time gate for the irrevocable fallback. Writer commits hold
/// it shared for the (short) lock/validate/publish window; the fallback
/// holds it exclusive, which quiesces every in-flight commit.
void commit_gate_lock_shared() noexcept;
void commit_gate_unlock_shared() noexcept;
void commit_gate_lock_exclusive() noexcept;
void commit_gate_unlock_exclusive() noexcept;

inline bool vlock_locked(std::uint64_t vlock) { return (vlock & 1) != 0; }
inline std::uint64_t vlock_version(std::uint64_t vlock) { return vlock >> 1; }
inline std::uint64_t make_vlock(std::uint64_t version) { return version << 1; }

}  // namespace detail

/// Thrown (via Tx::abort) to unwind an attempt; handled inside
/// atomically/try_atomically, never escapes to user code.
struct TxAborted {};

/// Untyped transactional word: value + versioned lock.
class TxFieldBase {
 public:
  TxFieldBase() noexcept = default;
  TxFieldBase(const TxFieldBase&) = delete;
  TxFieldBase& operator=(const TxFieldBase&) = delete;

  std::uint64_t load_word(std::memory_order order =
                              std::memory_order_acquire) const noexcept {
    return value_.load(order);
  }

  /// Plain initialization for unpublished objects (no version bump, no
  /// synchronization). Do not use on shared fields.
  void init_word(std::uint64_t word) noexcept {
    value_.store(word, std::memory_order_relaxed);
  }

  /// Seqlock-consistent read of (value, commit version): spins while a
  /// commit holds the field locked, so the returned pair is always a
  /// committed state — and because commit_locked runs its publish
  /// actions BEFORE stamping the version, any side state keyed to this
  /// version (bundled-reference entries) is visible by the time the
  /// version is observable here.
  std::uint64_t snapshot_word(std::uint64_t& version) const noexcept {
    while (true) {
      const std::uint64_t v1 = vlock_.load(std::memory_order_acquire);
      if (detail::vlock_locked(v1)) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t word = value_.load(std::memory_order_acquire);
      const std::uint64_t v2 = vlock_.load(std::memory_order_acquire);
      if (v1 == v2) {
        version = detail::vlock_version(v1);
        return word;
      }
    }
  }

  /// Linearizable single-word store: locks the field, publishes, bumps
  /// the global clock so concurrent readers/transactions revalidate.
  void store_word(std::uint64_t word) noexcept {
    std::uint64_t vlock = vlock_.load(std::memory_order_relaxed);
    while (true) {
      if (!detail::vlock_locked(vlock) &&
          vlock_.compare_exchange_weak(vlock, vlock | 1,
                                       std::memory_order_acq_rel)) {
        break;
      }
      std::this_thread::yield();
      vlock = vlock_.load(std::memory_order_relaxed);
    }
    value_.store(word, std::memory_order_release);
    const std::uint64_t wv =
        detail::global_clock().fetch_add(1, std::memory_order_acq_rel) + 1;
    vlock_.store(detail::make_vlock(wv), std::memory_order_release);
  }

 private:
  friend class Tx;
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> vlock_{0};
};

static_assert(std::is_trivially_destructible_v<TxFieldBase>,
              "flat node layouts reclaim TxField arrays as raw blocks");

/// Fixed-inline-buffer callable for publish-time actions. std::function
/// would heap-allocate for captures past its small-object limit (a
/// three-pointer bundle capture already overflows libstdc++'s), which
/// would put one malloc on every update's commit path — this type keeps
/// the capture inline and trivially copyable instead.
class PublishAction {
 public:
  template <typename F>
  explicit PublishAction(F f) noexcept {
    static_assert(sizeof(F) <= sizeof(buf_), "capture exceeds inline buffer");
    static_assert(alignof(F) <= alignof(std::max_align_t),
                  "over-aligned capture");
    static_assert(std::is_trivially_copyable_v<F> &&
                      std::is_trivially_destructible_v<F>,
                  "publish actions must capture trivially (pointers/ints)");
    std::memcpy(buf_, &f, sizeof(F));
    invoke_ = [](void* raw, std::uint64_t wv) {
      (*static_cast<F*>(raw))(wv);
    };
  }

  void operator()(std::uint64_t wv) { invoke_(buf_, wv); }

 private:
  void (*invoke_)(void*, std::uint64_t) = nullptr;
  alignas(std::max_align_t) unsigned char buf_[40];
};

class Tx {
 public:
  Tx() {
    reads_.reserve(64);
    writes_.reserve(16);
  }
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  [[noreturn]] void abort() const { throw TxAborted{}; }

  std::uint64_t read_word(TxFieldBase& field) {
    // Read-your-writes (O(1) through the write-set index).
    const std::size_t slot = write_slot(&field);
    if (slot != kNoSlot) return writes_[index_[slot].pos].value;
    const std::uint64_t v1 = field.vlock_.load(std::memory_order_acquire);
    if (detail::vlock_locked(v1) || detail::vlock_version(v1) > rv_) {
      abort();
    }
    const std::uint64_t value = field.value_.load(std::memory_order_acquire);
    const std::uint64_t v2 = field.vlock_.load(std::memory_order_acquire);
    if (v1 != v2) abort();
    reads_.push_back({&field, v1});
    return value;
  }

  /// Buffer a write to a field this attempt has read (a field already
  /// in the write set counts). The read is what makes the write safe:
  /// commit_locked only checks that the field's version is <= rv_, and
  /// a value chosen from an uninstrumented look at the field can be
  /// older than that version. Checked builds abort on a write with no
  /// read; see write_word_blind for the declared exemptions.
  void write_word(TxFieldBase& field, std::uint64_t value) {
    if constexpr (kChecks) {
      if (write_slot(&field) == kNoSlot && !has_read(field)) {
        std::fprintf(stderr,
                     "stm: write to field %p that this attempt never "
                     "read; read it first or declare the write blind\n",
                     static_cast<const void*>(&field));
        std::abort();
      }
    }
    write_word_blind(field, value);
  }

  /// Buffer a write with no read behind it. Declared at the call site,
  /// and legal only where no other thread can write the field between
  /// the choice of `value` and the commit: a node not yet published,
  /// a field whose lock the caller holds, or a value that depends on
  /// nothing read.
  void write_word_blind(TxFieldBase& field, std::uint64_t value) {
    const std::size_t slot = write_slot(&field);
    if (slot != kNoSlot) {
      writes_[index_[slot].pos].value = value;
      return;
    }
    index_put(&field, static_cast<std::uint32_t>(writes_.size()));
    writes_.push_back({&field, value, 0});
  }

  /// True when the transaction already buffered a write to `field`.
  /// Composable structure ops use this to detect that their raw
  /// (uninstrumented) traversal walked a window this transaction has
  /// itself reshaped, and fall back to an instrumented search. O(1):
  /// a wide typed-map transaction probes this once per level per op,
  /// so a linear scan over W buffered writes would go quadratic.
  bool has_write(const TxFieldBase& field) const noexcept {
    return write_slot(&field) != kNoSlot;
  }

  /// Deferred side effects for composable ops. A commit action runs
  /// exactly once, after the attempt that registered it commits (victim
  /// retirement); an abort action runs when that attempt aborts for any
  /// reason — conflict, failed commit validation, or user abort —
  /// (freeing speculative replacement nodes). Both lists reset at every
  /// attempt begin, so a retried closure re-registers its actions.
  /// Actions run outside the commit-time locks, in registration order.
  void defer_on_commit(std::function<void()> action) {
    commit_actions_.push_back(std::move(action));
  }
  void defer_on_abort(std::function<void()> action) {
    abort_actions_.push_back(std::move(action));
  }

  /// Publish-time action: runs INSIDE commit_locked, after the write
  /// set's values are stored but before the versioned locks are stamped
  /// with the commit version (which is the argument). The written
  /// fields are still locked at that point, so per-field side state
  /// updated here (bundled-reference entries keyed by commit version)
  /// is serialized in commit order and becomes visible to seqlock
  /// readers no later than the version itself. Actions must be fast and
  /// must not throw, abort, or touch other TxFields. Stored in a fixed
  /// inline buffer (no std::function) so registering one is
  /// allocation-free on the update hot path.
  template <typename F>
  void defer_on_publish(F action) {
    publish_actions_.push_back(PublishAction(std::move(action)));
  }

  bool in_tx() const noexcept { return active_; }
  std::uint64_t commits() const noexcept { return commits_; }
  std::uint64_t aborts() const noexcept { return aborts_; }

 private:
  template <typename Fn>
  friend void atomically(Tx&, Fn&&);
  template <typename Fn>
  friend bool try_atomically(Tx&, Fn&&);

  struct ReadEntry {
    TxFieldBase* field;
    std::uint64_t version;
  };
  struct WriteEntry {
    TxFieldBase* field;
    std::uint64_t value;
    std::uint64_t saved_vlock;  // pre-lock value, for rollback
  };

  void begin(bool irrevocable) {
    reads_.clear();
    writes_.clear();
    ++index_stamp_;  // O(1) write-set-index clear
    index_count_ = 0;
    commit_actions_.clear();
    abort_actions_.clear();
    publish_actions_.clear();
    irrevocable_ = irrevocable;
    active_ = true;
    rv_ = detail::global_clock().load(std::memory_order_acquire);
  }

  void on_abort() {
    active_ = false;
    ++aborts_;
  }

  /// Run (and drop) this attempt's deferred actions. finish_commit must
  /// only run after a successful commit, finish_abort after an abort;
  /// both are called from atomically/try_atomically outside the commit
  /// gate so actions may take arbitrary time (EBR retire, frees).
  void finish_commit() {
    for (auto& action : commit_actions_) action();
    commit_actions_.clear();
    abort_actions_.clear();
    publish_actions_.clear();
  }

  void finish_abort() {
    for (auto& action : abort_actions_) action();
    commit_actions_.clear();
    abort_actions_.clear();
    publish_actions_.clear();
  }

  bool commit() {
    active_ = false;
    if (writes_.empty()) {
      // Read-only: every read was validated against rv_ at read time.
      ++commits_;
      return true;
    }
    if (!irrevocable_) detail::commit_gate_lock_shared();
    const bool ok = commit_locked();
    if (!irrevocable_) detail::commit_gate_unlock_shared();
    if (ok) {
      ++commits_;
    } else {
      ++aborts_;
    }
    return ok;
  }

  bool commit_locked() {
    // Lock the write set in address order (deadlock-free against other
    // committers using the same order).
    std::sort(writes_.begin(), writes_.end(),
              [](const WriteEntry& a, const WriteEntry& b) {
                return a.field < b.field;
              });
    std::size_t locked = 0;
    for (; locked < writes_.size(); ++locked) {
      WriteEntry& w = *(writes_.begin() + locked);
      std::uint64_t vlock = w.field->vlock_.load(std::memory_order_acquire);
      if (detail::vlock_locked(vlock) ||
          detail::vlock_version(vlock) > rv_ ||
          !w.field->vlock_.compare_exchange_strong(
              vlock, vlock | 1, std::memory_order_acq_rel)) {
        break;
      }
      w.saved_vlock = vlock;
    }
    if (locked != writes_.size()) {
      rollback_locks(locked);
      return false;
    }
    const std::uint64_t wv =
        detail::global_clock().fetch_add(1, std::memory_order_acq_rel) + 1;
    if (wv != rv_ + 1 && !validate_reads()) {
      rollback_locks(writes_.size());
      return false;
    }
    for (const WriteEntry& w : writes_) {
      w.field->value_.store(w.value, std::memory_order_release);
    }
    // Publish window: values are in place, versioned locks still held.
    // Side state stamped with wv here is ordered before any reader can
    // observe wv on the written fields (snapshot_word spins on the
    // locks), which is what makes bundle entries race-free without a
    // pending-entry protocol.
    for (auto& action : publish_actions_) action(wv);
    for (const WriteEntry& w : writes_) {
      w.field->vlock_.store(detail::make_vlock(wv), std::memory_order_release);
    }
    return true;
  }

  bool validate_reads() const {
    for (const ReadEntry& r : reads_) {
      const std::uint64_t vlock =
          r.field->vlock_.load(std::memory_order_acquire);
      if (detail::vlock_locked(vlock)) {
        // Locked by us is fine iff the pre-lock version still matches.
        if (!owns(r.field)) return false;
        if (saved_version_of(r.field) != detail::vlock_version(r.version))
          return false;
      } else if (vlock != r.version) {
        return false;
      }
    }
    return true;
  }

  bool owns(const TxFieldBase* field) const { return has_write(*field); }

  /// Checked builds only: linear, newest first (the read that licenses
  /// a write is almost always among the attempt's last few).
  bool has_read(const TxFieldBase& field) const {
    return std::any_of(reads_.rbegin(), reads_.rend(),
                       [&](const ReadEntry& r) { return r.field == &field; });
  }

  /// Linear on purpose: it runs after commit_locked() sorted writes_,
  /// which stales the index's positions (membership stays exact — the
  /// slots key on the field pointer — but `pos` no longer does), and
  /// only for read-set fields found locked at validation, a rare path.
  std::uint64_t saved_version_of(const TxFieldBase* field) const {
    for (const WriteEntry& w : writes_) {
      if (w.field == field) return detail::vlock_version(w.saved_vlock);
    }
    return ~std::uint64_t{0};
  }

  void rollback_locks(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      writes_[i].field->vlock_.store(writes_[i].saved_vlock,
                                     std::memory_order_release);
    }
  }

  // --- Write-set index ------------------------------------------------
  //
  // Open-addressing map from field pointer to position in writes_,
  // stamp-cleared: begin() bumps index_stamp_ and any slot whose stamp
  // disagrees is empty, so clearing is O(1) regardless of the previous
  // attempt's width. Positions are valid until commit_locked() sorts
  // writes_; after that only membership queries (owns) remain correct,
  // which is all the commit path asks.

  struct IndexSlot {
    const TxFieldBase* field = nullptr;
    std::uint64_t stamp = 0;
    std::uint32_t pos = 0;
  };
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  static std::size_t slot_hash(const TxFieldBase* field) noexcept {
    auto h = static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(field) >> 4);
    h *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  std::size_t write_slot(const TxFieldBase* field) const noexcept {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = slot_hash(field) & mask;; i = (i + 1) & mask) {
      const IndexSlot& slot = index_[i];
      if (slot.stamp != index_stamp_) return kNoSlot;
      if (slot.field == field) return i;
    }
  }

  /// Caller guarantees `field` is absent. Grows at 3/4 load so the
  /// probe above always terminates on an empty slot.
  void index_put(const TxFieldBase* field, std::uint32_t pos) {
    if ((index_count_ + 1) * 4 > index_.size() * 3) {
      index_.assign(index_.size() * 2, IndexSlot{});
      index_count_ = 0;
      ++index_stamp_;
      for (std::uint32_t p = 0; p < writes_.size(); ++p) {
        index_put(writes_[p].field, p);
      }
    }
    const std::size_t mask = index_.size() - 1;
    std::size_t i = slot_hash(field) & mask;
    while (index_[i].stamp == index_stamp_) i = (i + 1) & mask;
    index_[i] = IndexSlot{field, index_stamp_, pos};
    ++index_count_;
  }

  std::vector<ReadEntry> reads_;
  std::vector<WriteEntry> writes_;
  std::vector<IndexSlot> index_ = std::vector<IndexSlot>(64);
  std::uint64_t index_stamp_ = 1;
  std::size_t index_count_ = 0;
  std::vector<std::function<void()>> commit_actions_;
  std::vector<std::function<void()>> abort_actions_;
  std::vector<PublishAction> publish_actions_;
  std::uint64_t rv_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  bool irrevocable_ = false;
  bool active_ = false;
};

/// Typed transactional field. T must be trivially copyable and at most
/// word-sized (Key, Value, pointers, packed words).
template <typename T>
class TxField : public TxFieldBase {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "TxField requires a word-sized trivially copyable type");

 public:
  TxField() noexcept = default;
  explicit TxField(T value) noexcept { init_word(encode(value)); }

  /// Placement-construct `count` default fields (unlocked, version 0,
  /// value 0 — the same state vector-backed storage produced) in `raw`,
  /// which must be suitably aligned. Flat node layouts allocate their
  /// next arrays inline in one block this way; TxField is trivially
  /// destructible, so owners may reclaim the block without a teardown
  /// pass.
  static TxField* construct_array(void* raw, std::size_t count) {
    auto* fields = static_cast<TxField*>(raw);
    for (std::size_t i = 0; i < count; ++i) new (fields + i) TxField();
    return fields;
  }

  T load() const noexcept { return decode(load_word()); }
  void store(T value) noexcept { store_word(encode(value)); }
  /// Pre-publication initialization only.
  void init(T value) noexcept { init_word(encode(value)); }

  T tx_read(Tx& tx) { return decode(tx.read_word(*this)); }
  void tx_write(Tx& tx, T value) { tx.write_word(*this, encode(value)); }
  /// See Tx::write_word_blind for when a write may skip the read.
  void tx_write_blind(Tx& tx, T value) {
    tx.write_word_blind(*this, encode(value));
  }

 private:
  static std::uint64_t encode(T value) noexcept {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(T));
    return word;
  }
  static T decode(std::uint64_t word) noexcept {
    T value;
    std::memcpy(&value, &word, sizeof(T));
    return value;
  }
};

/// Per-thread transaction context.
Tx& tls_tx();

namespace detail {

inline void backoff(unsigned attempt) {
  if (attempt < 4) return;
  if (attempt < 10) {
    for (unsigned i = 0; i < (1u << attempt); ++i) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    return;
  }
  std::this_thread::yield();
}

inline constexpr unsigned kMaxOptimisticAttempts = 64;

/// Checked builds abort a transaction whose irrevocable attempt failed
/// this many times in a row: its closure aborts on every attempt, even
/// with all commits quiesced, so retrying can only spin.
inline constexpr unsigned kMaxFailedIrrevocable = 64;

}  // namespace detail

/// Run `fn(tx)` as an atomic transaction, retrying on conflict; after
/// kMaxOptimisticAttempts aborts, runs irrevocably under the global
/// commit gate (guaranteed to commit barring an explicit user abort).
/// A closure that aborts every irrevocable attempt retries forever in
/// Release; checked builds abort after kMaxFailedIrrevocable of them.
///
/// Re-entry is flat-nested: when `tx` is already active (an enclosing
/// atomically owns it), the closure simply enlists in the enclosing
/// transaction — its reads/writes/deferred actions join the outer
/// attempt, aborts unwind to the outer retry loop, and nothing is
/// published until the outer commit. Only closures whose post-commit
/// effects go through Tx::defer_on_commit/defer_on_abort compose this
/// way; code that acts on "atomically returned, so it committed" must
/// not run inside an open transaction.
template <typename Fn>
void atomically(Tx& tx, Fn&& fn) {
  if (tx.in_tx()) {
    fn(tx);
    return;
  }
  for (unsigned failed_irrevocable = 0;; ++failed_irrevocable) {
    if constexpr (kChecks) {
      if (failed_irrevocable == detail::kMaxFailedIrrevocable) {
        std::fprintf(stderr,
                     "stm: transaction failed %u irrevocable attempts in "
                     "a row; its closure aborts on every attempt\n",
                     failed_irrevocable);
        std::abort();
      }
    }
    for (unsigned attempt = 0; attempt < detail::kMaxOptimisticAttempts;
         ++attempt) {
      tx.begin(false);
      try {
        fn(tx);
      } catch (const TxAborted&) {
        tx.on_abort();
        tx.finish_abort();
        detail::backoff(attempt);
        continue;
      } catch (...) {
        // Foreign exception: abort the attempt before propagating, or
        // the still-active Tx would flat-nest (and swallow) every later
        // transaction on this thread.
        tx.on_abort();
        tx.finish_abort();
        throw;
      }
      if (tx.commit()) {
        tx.finish_commit();
        return;
      }
      tx.finish_abort();
      detail::backoff(attempt);
    }
    // Irrevocable fallback: exclusive gate quiesces all commits, so
    // reads cannot be invalidated and the commit cannot fail — unless a
    // raw TxField::store (which bypasses the gate) races the fallback.
    detail::commit_gate_lock_exclusive();
    tx.begin(true);
    bool user_abort = false;
    try {
      fn(tx);
    } catch (const TxAborted&) {
      tx.on_abort();
      user_abort = true;
    } catch (...) {
      tx.on_abort();
      detail::commit_gate_unlock_exclusive();
      tx.finish_abort();  // outside the gate, like every action run
      throw;
    }
    const bool committed = !user_abort && tx.commit();
    detail::commit_gate_unlock_exclusive();
    if (committed) {
      tx.finish_commit();
      return;
    }
    tx.finish_abort();
    // The lambda aborted on data it saw under quiescence (e.g. a marked
    // pointer that needs an out-of-tx restart), or a racing raw store
    // invalidated the attempt: hand control back to the optimistic
    // loop. Commit actions must never run for an unpublished attempt.
  }
}

/// Single attempt; returns true iff the transaction committed. Inside
/// an open transaction it flat-nests like atomically (the enlistment
/// itself always succeeds, so it returns true; the enclosing commit
/// decides the outcome).
template <typename Fn>
bool try_atomically(Tx& tx, Fn&& fn) {
  if (tx.in_tx()) {
    fn(tx);
    return true;
  }
  tx.begin(false);
  try {
    fn(tx);
  } catch (const TxAborted&) {
    tx.on_abort();
    tx.finish_abort();
    return false;
  } catch (...) {
    tx.on_abort();
    tx.finish_abort();
    throw;
  }
  if (tx.commit()) {
    tx.finish_commit();
    return true;
  }
  tx.finish_abort();
  return false;
}

}  // namespace leap::stm
