// leap::store::Store — the durable tier under a ShardedMap memtable.
// Per shard it keeps a write-ahead log (buffered appends + leader-
// follower group commit: the first waiter to take the shard's fsync
// mutex syncs EVERYTHING appended so far, and every batch that queued
// behind it finds its target already durable and skips its own fsync
// entirely), a tombstone set for erases logged since the last flush,
// and a newest-to-oldest list of immutable sorted runs (run.hpp). Checkpoint flushes rotate the WAL,
// freeze the shard's memtable contents + tombstones into a new run,
// retire the old WAL segments, and evict the flushed keys from the
// memtable so the dataset can outgrow RAM.
//
// Ordering contract: log_batch() locks every affected shard's commit
// mutex (ascending shard order), runs the caller's STM apply closure
// while holding them, appends one WAL record per shard, then releases
// the mutexes and waits for durability per FsyncMode. Commit order
// therefore equals log order per shard, and the caller acks the client
// only after log_batch returns — an acked write is durable to the
// chosen mode. (A write can be briefly visible to concurrent readers
// BEFORE it is durable; if the process dies in that window the write
// was never acked and recovery legitimately forgets it.)
//
// Recovery (open()): load every run file whose footer validates
// (delete the rest — partial flushes), drop WAL segments at or below
// the newest run's seq (their effects live in that run), replay the
// remaining segments in seq order over the memtable, tolerate a torn
// final record in each, and start a fresh segment. Replayed shards
// are checkpointed by the background flusher on its first pass so
// repeated crashes cannot grow replay time without bound.
//
// Failure semantics (every syscall goes through store::Io — io.hpp):
// a WAL write or fdatasync failure is FAIL-STOP. The store flips to
// read-only (fail_stop() / StoreStats::fail_stop), log_batch returns
// false for every subsequent mutation without applying it, and reads,
// scans, and close() keep working off what is already durable. The
// failed bytes are quarantined (truncated off the segment) and never
// re-buffered, and fdatasync is never retried after one failure —
// the kernel may have dropped the dirty pages it covered, so a retry
// that "succeeds" proves nothing (fsyncgate). A checkpoint failure is
// NOT fail-stop: the WAL still holds everything, so the partial run
// file is deleted, the failure is counted (checkpoint_retries), and
// the flusher retries on its next pass. A run block whose CRC fails
// mid-life is a counted read error (corrupt_blocks), degrading that
// run to "absent here", never a silent wrong answer. A restart on a
// healthy Io recovers everything acked.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "leaplist/sharded.hpp"
#include "leaplist/store/io.hpp"

namespace leap::store {

enum class FsyncMode {
  kGroup,  // leader-follower: concurrent batches share one fdatasync
  kOff,    // buffered append only; the background flusher writes the
           // bytes out, the OS decides when they reach the disk
};

/// Parse "group" / "off" (leapd's --fsync-mode values).
std::optional<FsyncMode> parse_fsync_mode(const std::string& text);
const char* fsync_mode_name(FsyncMode mode);

struct StoreOptions {
  std::string data_dir;
  FsyncMode fsync_mode = FsyncMode::kGroup;
  /// Rotate + flush a shard once its open WAL segment exceeds this.
  std::size_t checkpoint_bytes = 4u << 20;
  /// Background flusher poll period (0 = no background flusher; tests
  /// then drive checkpoint() explicitly). The flusher also drains
  /// each shard's buffered WAL bytes to the fd — in kOff mode that is
  /// the only thing writing them out between checkpoints.
  std::size_t flush_poll_ms = 50;
  /// Syscall seam (io.hpp). nullptr = the real syscalls; tests and
  /// leapd's --fault-spec plug a FaultIo here. Must outlive the Store.
  Io* io = nullptr;
};

/// One client mutation for log_batch (gets never log).
struct LogOp {
  bool erase = false;
  std::int64_t key = 0;
  std::int64_t value = 0;
};

/// Monotone counters, folded into ServerStats / the Stats opcode.
struct StoreStats {
  std::uint64_t wal_appends = 0;    // WAL records written
  std::uint64_t wal_fsyncs = 0;     // fdatasync calls (all causes)
  std::uint64_t wal_group_ops = 0;  // ops covered by group-mode fsyncs
  std::uint64_t flushes = 0;        // checkpoint flushes completed
  std::uint64_t runs = 0;           // live run files across shards
  std::uint64_t bloom_negatives = 0;  // cold gets a bloom proved absent
  std::uint64_t cold_hits = 0;        // gets answered from a run
  std::uint64_t recovered_ops = 0;    // WAL entries replayed at open()
  std::uint64_t fail_stop = 0;         // 1 once the store is read-only
  std::uint64_t corrupt_blocks = 0;    // run-block CRC/read failures
  std::uint64_t checkpoint_retries = 0;  // failed flush attempts
};

class Store {
 public:
  using MapType = ShardedMap<std::int64_t, std::int64_t, policy::TM>;

  /// Binds to the memtable it persists; `map` must outlive the Store.
  Store(MapType& map, const StoreOptions& opts);
  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Create the data dir if needed, recover (runs + WAL replay into
  /// the memtable), open fresh WAL segments, start the syncer and
  /// flusher threads. False (with *err) on unrecoverable I/O failure.
  bool open(std::string* err);

  /// Quiesce: stop background threads, final-fsync every shard's WAL.
  /// Idempotent; the destructor calls it.
  void close();

  /// Durably log `n` mutations and apply them to the memtable via
  /// `apply` (an STM txn closure), atomically per shard with respect
  /// to log order. Returns true once the batch is durable per
  /// FsyncMode. Returns false — and the caller must answer the client
  /// with an error, never an ack — when the store is (or just went)
  /// fail-stop: either the batch was rejected before `apply` ran, or
  /// its own WAL write/sync failed. In the latter case the mutations
  /// ARE in the memtable (briefly visible, like any pre-durability
  /// window) but are quarantined off the log, so a restart forgets
  /// them — exactly the contract for an un-acked write. A multi-shard
  /// batch that fails may still have logged its spans on healthy
  /// shards; those single-shard records replay after restart (the
  /// per-shard atomicity contract, unchanged). With n == 0 just runs
  /// `apply` and returns true (reads never fail-stop).
  [[nodiscard]] bool log_batch(const LogOp* ops, std::size_t n,
                               const std::function<void()>& apply);

  /// True once the store has entered read-only fail-stop.
  bool fail_stop() const {
    return fail_stop_.load(std::memory_order_acquire);
  }

  /// Human-readable cause of the first I/O failure ("" if none).
  std::string last_error() const;

  /// Cold point lookup for a key the memtable missed: tombstones, then
  /// newest-to-oldest runs (fence + bloom gated). A run hit re-checks
  /// the memtable so a concurrent re-insert is never shadowed by an
  /// older run value.
  std::optional<std::int64_t> get_cold(std::int64_t key);

  /// Merged scan: memtable (stitched ShardedMap scan) merged in key
  /// order with tombstones and every overlapping run, newest source
  /// wins per key. Same contract as ShardedMap::scan — up to `limit`
  /// live pairs from `low` upward, appended to `out`; returns the
  /// count appended. `out` is cleared of any partial round on entry
  /// growth only, never shrunk below its incoming size.
  using ScanPair = std::pair<std::int64_t, std::int64_t>;
  std::size_t scan_merged(std::int64_t low, std::size_t limit,
                          std::vector<ScanPair>& out);

  /// Flush every shard that has unflushed WAL bytes or tombstones.
  /// Serialized store-wide; safe concurrently with traffic.
  void checkpoint();

  StoreStats stats() const;

  std::size_t shard_count() const;

  /// Test hook: tear the final `bytes` off shard `s`'s open WAL
  /// segment on disk, as a crash mid-append would. Call only when
  /// quiesced (no concurrent log_batch on that shard).
  bool tear_wal_tail_for_test(std::size_t s, std::uint64_t bytes);

 private:
  struct ShardState;

  bool recover_shard(std::size_t s, std::string* err);
  bool flush_shard(std::size_t s);
  void flusher_main();
  [[nodiscard]] bool wait_durable(
      const std::vector<std::pair<std::size_t, std::uint64_t>>& targets);
  /// Flip to read-only fail-stop, recording `why` as last_error() if
  /// this call won the transition. Call with the failing shard's
  /// fsync mutex held (or the store quiesced).
  void enter_fail_stop(const std::string& why);
  void set_last_error(const std::string& why);

  MapType& map_;
  StoreOptions opts_;
  Io* io_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  bool open_ = false;

  // background checkpoint flusher (see store.cpp); group-commit fsync
  // work is done by the waiters themselves (leader-follower on each
  // shard's fsync mutex), so there are no dedicated sync threads.
  std::thread flusher_;
  struct SyncShared;
  std::unique_ptr<SyncShared> sync_;

  std::mutex flush_mu_;  // serializes flushes store-wide

  std::atomic<std::uint64_t> wal_appends_{0};
  std::atomic<std::uint64_t> wal_fsyncs_{0};
  std::atomic<std::uint64_t> wal_group_ops_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> bloom_negatives_{0};
  std::atomic<std::uint64_t> cold_hits_{0};
  std::atomic<std::uint64_t> recovered_ops_{0};
  std::atomic<std::uint64_t> corrupt_blocks_{0};
  std::atomic<std::uint64_t> checkpoint_retries_{0};
  std::atomic<bool> fail_stop_{false};
  mutable std::mutex err_mu_;
  std::string last_error_;  // under err_mu_
};

}  // namespace leap::store
