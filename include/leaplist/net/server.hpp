// leap::net::Server — "leapd": a multi-threaded epoll TCP server
// exposing a leap::ShardedMap<int64, int64, policy::TM> over the
// length-prefixed binary protocol in leaplist/net/protocol.hpp.
//
// Threading model: every worker owns an epoll instance; the listening
// socket is registered in all of them with EPOLLEXCLUSIVE, so the
// kernel wakes exactly one worker per pending accept and a connection
// lives on the worker that accepted it for its whole life — no
// cross-thread handoff, no shared connection state, no locks on the
// hot path. The map itself is the concurrency layer (point ops route
// to one shard; transactions are STM).
//
// Request handling (per connection, responses in request order):
//   * a pipelined burst of complete point-op frames (get/put/erase)
//     is decoded straight into `*_in` forms and executed inside ONE
//     leap::txn — one STM commit per burst instead of per op;
//   * a Txn frame's sub-ops run in their own leap::txn (the paper's
//     composable multi-key transaction, across shards, over the wire);
//   * a Scan streams ScanChunk frames of kScanChunkPairs pairs, each
//     chunk one bounded stitched transaction, so a large range is
//     never buffered fully — in memory or in the socket buffer
//     (output backpressure pauses chunk production).
// Malformed input (bad opcode/body, zero or oversized length prefix)
// errors out that connection — an Error frame when the stream is still
// framed, then close — without touching the others.
//
// The server binds 127.0.0.1 only (a benchmarking/test harness, not a
// hardened public endpoint). Wire format and semantics: docs/server.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "leaplist/leaplist.hpp"
#include "leaplist/map.hpp"
#include "leaplist/net/protocol.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/store/store.hpp"

namespace leap::net {

struct ServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via Server::port()
  unsigned workers = 2;    // epoll shards (worker threads)
  std::size_t shards = 8;  // map shards
  std::int64_t key_lo = 0;            // shard-routing window hint
  std::int64_t key_hi = 1'000'000;    // (keys outside stay correct)
  core::Params params{};              // per-shard leap-list parameters
  std::size_t max_batch = 128;        // point ops fused into one txn

  // Admission control. A request whose arrival finds the queue over a
  // cap is answered Err::kOverloaded in its FIFO slot instead of being
  // executed; the connection survives. 0 disables a cap.
  std::size_t max_queue = 0;   // per-worker admitted-request backlog cap
  std::size_t max_global = 0;  // global admitted-request backlog cap
  // Hard cap: a worker whose accept finds the GLOBAL backlog at or
  // above this deregisters its listen interest for accept_backoff_ms
  // (new connections wait in the listen backlog). 0 disables; the
  // same pause also follows EMFILE/ENFILE regardless of this cap.
  std::size_t accept_pause = 0;
  unsigned accept_backoff_ms = 100;

  // Durable tier (leaplist/store/store.hpp). Empty data_dir = today's
  // pure in-memory behavior: no Store is constructed, writes take no
  // extra locks, and the store counters stay zero.
  std::string data_dir;
  store::FsyncMode fsync_mode = store::FsyncMode::kGroup;
  std::size_t checkpoint_bytes = 4u << 20;  // per-shard WAL flush bar
  /// Store syscall seam (store/io.hpp): nullptr = real syscalls;
  /// tests and leapd's --fault-spec plug a FaultIo. Must outlive the
  /// Server. Ignored without a data_dir.
  store::Io* store_io = nullptr;
};

/// Aggregated server counters; also the Stats opcode's wire payload.
/// Workers keep relaxed per-worker counters and stats() sums them, so
/// a snapshot can lag live traffic by an in-flight batch.
using ServerStats = StatsSnapshot;

class Server {
 public:
  using MapType = ShardedMap<std::int64_t, std::int64_t, policy::TM>;

  explicit Server(const ServerOptions& opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the workers. False (with *error set) on any
  /// socket/epoll failure; the server is then inert and stop() is a
  /// no-op.
  bool start(std::string* error = nullptr);

  /// Stop accepting, wake every worker, join them, close all
  /// connections. Idempotent; also run by the destructor.
  void stop();

  /// stop(), but wait at most `bound` for the workers. False when a
  /// worker has not returned by then (stuck in a request): `stuck`
  /// names each such worker and its thread id, and nothing is joined
  /// or closed, so the caller may wait again or exit without closing
  /// the store (recovery then treats the exit as a crash).
  bool stop_within(std::chrono::milliseconds bound,
                   std::string* stuck = nullptr);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (after start(); useful with opts.port = 0).
  std::uint16_t port() const { return port_; }

  ServerStats stats() const;

  /// The served map — for in-process tests to seed or inspect state.
  MapType& map() { return map_; }

  /// The durable tier, or nullptr when running pure in-memory. Valid
  /// between a successful start() and stop(); tests use it to force
  /// checkpoints or tear the WAL tail.
  store::Store* store() { return store_.get(); }

 private:
  struct Worker;
  friend struct Worker;
  struct WorkerCounters;

  ServerOptions opts_;
  MapType map_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> accepted_{0};
  /// Admitted requests buffered across ALL workers, awaiting
  /// execution — the global admission gauge (max_global, accept_pause).
  std::atomic<std::uint64_t> queued_{0};
  // Each worker's counters, owned here rather than by the worker so
  // they outlive it: stats() stays truthful after stop().
  std::vector<std::unique_ptr<WorkerCounters>> counters_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Durable tier; stop() folds its final counters here so stats()
  // stays truthful after shutdown.
  std::unique_ptr<store::Store> store_;
  store::StoreStats store_final_{};
};

}  // namespace leap::net
