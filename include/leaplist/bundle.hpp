// Bundled references (Nelson/Hassan/Palmieri): per-link timestamped
// version bundles that make range queries linearizable on ANY of the
// leap-list policies, with zero reliance on the STM for the scan
// itself.
//
// Every level-0 link keeps a bounded history of (commit timestamp,
// successor) entries, newest first. An updater's copy-node-and-swap
// records the new successor into the predecessor's bundle at the swap's
// commit timestamp — inside the TL2 publish window (Tx::defer_on_publish),
// while the link's versioned lock is still held, so bundle inserts on a
// link are serialized in commit order and are visible before any reader
// can observe the new link version. A scan then:
//
//   1. pins the EBR epoch (ScanPin holds a Guard — replaced nodes a
//      pinned scan may still need cannot be reclaimed under it),
//   2. announces a timestamp slot (blocks bundle pruning), and
//   3. picks ts = stm::clock_now(),
//
// and walks each node as of ts: a seqlock read of next(0) yields the
// current successor when the link's version <= ts, and otherwise the
// bundle's newest entry with entry.ts <= ts. One ts replayed across
// every shard of a ShardedMap gives a linearizable stitched scan on
// every policy — the scan linearizes at the instant the clock read ts.
//
// Reclamation contract: an entry may be reclaimed once it is strictly
// older than the newest entry whose timestamp <= the oldest announced
// scan timestamp (that newer entry answers every pinned lookup).
// Pruned entries retire through util::ebr so concurrent bundle walks
// stay safe; the slot-announce handshake (store 0, then read the clock,
// all seq_cst) guarantees a pruner either sees the announcement or
// finished pruning before the scan's clock read, so a pinned scan's
// lookup never fails. A walk never restarts: a failed lookup means a
// timestamp no pin announced, and the walk aborts (leaplist.hpp's
// succ_at).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>

#include "stm/stm.hpp"
#include "util/ebr.hpp"

namespace leap::bundle {

/// One link-history record: the link pointed at `target` from commit
/// timestamp `ts` until the next-newer entry's timestamp. `target` is
/// written before the entry is published (or overwritten only within
/// the same still-locked commit window), `older` is the only field
/// mutated afterwards (pruning detaches tails with an exchange).
struct Entry {
  std::uint64_t ts;
  void* target;
  std::atomic<Entry*> older;
};

/// Prune is considered once a bundle reaches this many entries; below
/// it, inserts are pure prepends (no registry sweep).
inline constexpr std::size_t kPruneThreshold = 8;

namespace detail {

inline constexpr std::size_t kScanSlots = 256;
inline constexpr std::uint64_t kSlotFree = ~std::uint64_t{0};
/// A claimed slot holding 0 means "announcing": the scan has claimed
/// the slot but not yet read the clock, and no entry may be pruned
/// (no commit timestamp is <= 0, so no prune stopper exists).
inline constexpr std::uint64_t kSlotAnnouncing = 0;

struct SlotTable {
  std::array<std::atomic<std::uint64_t>, kScanSlots> slots;
  SlotTable() {
    for (auto& s : slots) s.store(kSlotFree, std::memory_order_relaxed);
  }
};

inline std::array<std::atomic<std::uint64_t>, kScanSlots>& slots() {
  static SlotTable table;
  return table.slots;
}

inline void free_entry(void* raw) {
  util::ebr::pool_free(raw, sizeof(Entry));
}

}  // namespace detail

/// Oldest announced scan timestamp, or kSlotFree when no scan is
/// pinned. A slot mid-announce reads as 0 and blocks pruning entirely.
inline std::uint64_t min_active_ts() noexcept {
  auto& table = detail::slots();
  std::uint64_t min = detail::kSlotFree;
  for (const auto& slot : table) {
    const std::uint64_t ts = slot.load(std::memory_order_seq_cst);
    if (ts < min) min = ts;
  }
  return min;
}

/// RAII scan timestamp pin: EBR guard + announced slot + the picked
/// timestamp. Member order matters — the epoch is pinned before the
/// clock is read, so any node retired before the pin is provably not
/// needed at this ts, and any node retired after it is held by EBR.
class ScanPin {
 public:
  ScanPin() {
    auto& table = detail::slots();
    for (std::size_t probe = 0;; probe = (probe + 1) % detail::kScanSlots) {
      std::uint64_t expect = detail::kSlotFree;
      if (table[probe].compare_exchange_strong(
              expect, detail::kSlotAnnouncing, std::memory_order_seq_cst)) {
        slot_ = probe;
        break;
      }
      if (probe == detail::kScanSlots - 1) std::this_thread::yield();
    }
    ts_ = stm::clock_now();
    detail::slots()[slot_].store(ts_, std::memory_order_seq_cst);
  }

  ~ScanPin() {
    detail::slots()[slot_].store(detail::kSlotFree,
                                 std::memory_order_seq_cst);
  }

  ScanPin(const ScanPin&) = delete;
  ScanPin& operator=(const ScanPin&) = delete;

  std::uint64_t ts() const noexcept { return ts_; }

 private:
  util::ebr::Guard guard_;
  std::size_t slot_ = 0;
  std::uint64_t ts_ = 0;
};

/// Record that `head`'s link switched to `target` at commit timestamp
/// `ts`. Must run serialized per bundle with non-decreasing ts — the
/// TL2 publish window (field lock held) provides exactly that. An
/// equal-ts insert overwrites in place: one composed transaction may
/// rewire the same link more than once, and only the final state exists
/// at that timestamp.
inline void insert(std::atomic<Entry*>& head, std::uint64_t ts,
                   void* target) {
  Entry* newest = head.load(std::memory_order_relaxed);
  if (newest != nullptr && newest->ts == ts) {
    newest->target = target;
    return;
  }
  void* raw = util::ebr::pool_alloc(sizeof(Entry));
  Entry* entry = new (raw) Entry{ts, target, {newest}};
  head.store(entry, std::memory_order_release);
}

/// The link's target as of `ts`: the newest entry with entry.ts <= ts.
/// Returns nullptr when the history needed has been pruned (or the
/// node was born after ts), which no walk at a pinned ts can meet.
inline void* find(const std::atomic<Entry*>& head,
                  std::uint64_t ts) noexcept {
  for (Entry* e = head.load(std::memory_order_acquire); e != nullptr;
       e = e->older.load(std::memory_order_acquire)) {
    if (e->ts <= ts) return e->target;
  }
  return nullptr;
}

/// Entries currently reachable from `head` (tests/debug).
inline std::size_t length(const std::atomic<Entry*>& head) noexcept {
  std::size_t n = 0;
  for (Entry* e = head.load(std::memory_order_acquire); e != nullptr;
       e = e->older.load(std::memory_order_acquire)) {
    ++n;
  }
  return n;
}

namespace detail {

/// Retire a detached chain. Each link is claimed with an exchange so
/// two pruners racing over overlapping tails retire every entry exactly
/// once. Caller must hold an ebr::Guard.
inline void retire_chain(Entry* e) {
  while (e != nullptr) {
    Entry* next = e->older.exchange(nullptr, std::memory_order_acq_rel);
    util::ebr::retire(e, &free_entry);
    e = next;
  }
}

}  // namespace detail

/// Drop every entry strictly older than the newest entry with
/// ts <= `min_ts` (those can no longer answer any announced scan).
/// With no stopper (min_ts predates the whole history, e.g. a slot
/// mid-announce) nothing is pruned. Caller must hold an ebr::Guard.
inline void prune(std::atomic<Entry*>& head, std::uint64_t min_ts) {
  for (Entry* e = head.load(std::memory_order_acquire); e != nullptr;
       e = e->older.load(std::memory_order_acquire)) {
    if (e->ts <= min_ts) {
      detail::retire_chain(e->older.exchange(nullptr,
                                             std::memory_order_acq_rel));
      return;
    }
  }
}

/// Prune iff the bundle has grown past kPruneThreshold (the insert-path
/// amortization: a short walk first, the registry sweep only when long).
/// Caller must hold an ebr::Guard.
inline void maybe_prune(std::atomic<Entry*>& head) {
  std::size_t n = 0;
  for (Entry* e = head.load(std::memory_order_acquire); e != nullptr;
       e = e->older.load(std::memory_order_acquire)) {
    if (++n >= kPruneThreshold) {
      prune(head, min_active_ts());
      return;
    }
  }
}

/// Quiescent teardown: free the whole chain directly (no EBR grace).
inline void free_all(std::atomic<Entry*>& head) noexcept {
  Entry* e = head.exchange(nullptr, std::memory_order_acq_rel);
  while (e != nullptr) {
    Entry* next = e->older.load(std::memory_order_relaxed);
    detail::free_entry(e);
    e = next;
  }
}

}  // namespace leap::bundle
