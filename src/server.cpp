// leap::net::Server implementation — epoll event loops, connection
// state machines, and the request handlers that decode pipelined
// bursts into composable `*_in` forms. Design notes in
// include/leaplist/net/server.hpp; wire format in
// include/leaplist/net/protocol.hpp and docs/server.md.
#include "leaplist/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "leaplist/net/protocol.hpp"
#include "leaplist/txn.hpp"

namespace leap::net {

namespace {

/// Pause producing responses for a connection once this much output is
/// queued; epoll writability resumes it. Bounds server memory per
/// connection regardless of scan span or pipeline depth.
constexpr std::size_t kOutHighWater = 256 * 1024;

/// Stop reading from a connection whose input backlog this exceeds
/// (the peer outran our processing); draining re-arms EPOLLIN.
constexpr std::size_t kInHighWater = 256 * 1024;

constexpr std::size_t kReadChunk = 64 * 1024;

bool set_nodelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Admission decision recorded per complete frame at ARRIVAL, consumed
/// in FIFO order when the frame is pulled for execution.
enum : std::uint8_t {
  kDecShed = 0,    // over a cap when it arrived: answer kOverloaded
  kDecAdmit = 1,   // admitted and counted in the queue gauges
  kDecExempt = 2,  // admitted without counting (Stats requests)
};

}  // namespace

/// Per-worker observability counters. Written by the owning worker
/// with relaxed ops only; Server::stats() reads them cross-thread.
struct Server::WorkerCounters {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> errored{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> stm_retries{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batch_ops{0};
  std::atomic<std::uint64_t> queue_hwm{0};
  std::atomic<std::uint64_t> accept_pauses{0};
  std::atomic<std::uint64_t> emfile_sheds{0};
  std::atomic<std::uint64_t> batch_hist[kBatchHistBuckets] = {};
};

/// One epoll shard: a thread, its epoll instance, a wake eventfd, and
/// the connections it accepted. All per-connection state is touched by
/// this thread only.
struct Server::Worker {
  /// An in-flight streaming scan; produced chunk-by-chunk so the
  /// response order stays FIFO while memory stays bounded.
  struct ScanState {
    std::int64_t next_low = 0;
    std::int64_t high = 0;
    std::uint64_t remaining = 0;  // pairs still allowed (if bounded)
    bool bounded = false;
  };

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::size_t in_ofs = 0;    // parse cursor into `in`
    std::size_t count_ofs = 0;  // admission-count cursor (>= in_ofs)
    std::vector<std::uint8_t> out;
    std::size_t out_ofs = 0;  // flush cursor into `out`
    std::optional<ScanState> scan;
    /// Per-frame admission decisions (kDec*), FIFO with the frames
    /// between in_ofs and count_ofs.
    std::deque<std::uint8_t> admit;
    std::size_t queued_admitted = 0;  // kDecAdmit entries still queued
    std::uint32_t armed = 0;  // epoll interest currently registered
    bool closing = false;     // flush what is queued, then close
    bool peer_eof = false;    // read side done; serve then close
  };

  Server& server;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::atomic<pid_t> tid{0};  // the thread's kernel id, for stuck reports
  std::atomic<bool> exited{false};  // run() has returned
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  WorkerCounters& counters;  // owned by the Server, outlives the worker
  /// Admitted requests buffered across this worker's connections,
  /// awaiting execution (the per-worker admission gauge).
  std::size_t queued = 0;
  std::size_t queue_hwm = 0;
  /// Reserved fd: on EMFILE/ENFILE it is released so one pending
  /// connection can be accept()ed and immediately closed (the peer
  /// sees EOF, not a hang), then reopened.
  int emergency_fd = -1;
  bool accept_paused = false;
  std::uint64_t accept_resume_ns = 0;
  // Scratch reused across requests (capacity persists).
  std::vector<Request> batch;
  std::vector<TxnResult> results;
  std::vector<std::pair<std::int64_t, std::int64_t>> scan_buf;
  std::vector<std::int64_t> get_keys;
  std::vector<std::optional<std::int64_t>> get_hits;
  std::vector<store::LogOp> log_ops;
  // Distinct addresses tagging the non-connection epoll registrations.
  int listen_tag = 0;
  int wake_tag = 0;

  Worker(Server& owner, WorkerCounters& mine)
      : server(owner), counters(mine) {}

  ~Worker() {
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    if (emergency_fd >= 0) ::close(emergency_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  bool init(std::string* error) {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd < 0 || wake_fd < 0) {
      if (error) *error = "epoll/eventfd creation failed";
      return false;
    }
    emergency_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &wake_tag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
      if (error) *error = "epoll_ctl(wake) failed";
      return false;
    }
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.ptr = &listen_tag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, server.listen_fd_, &ev) != 0) {
      if (error) *error = "epoll_ctl(listen) failed";
      return false;
    }
    return true;
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  void run() {
    epoll_event events[64];
    while (server.running_.load(std::memory_order_acquire)) {
      int timeout_ms = -1;
      if (accept_paused) {
        const std::uint64_t now = now_ns();
        timeout_ms = now >= accept_resume_ns
                         ? 0
                         : static_cast<int>(
                               (accept_resume_ns - now) / 1'000'000 + 1);
      }
      const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (accept_paused && now_ns() >= accept_resume_ns) resume_accept();
      for (int i = 0; i < n; ++i) {
        void* tag = events[i].data.ptr;
        if (tag == &wake_tag) continue;  // stop flag is checked above
        if (tag == &listen_tag) {
          accept_all();
          continue;
        }
        on_conn_event(*static_cast<Conn*>(tag), events[i].events);
      }
    }
  }

  /// Deregister this worker's listen interest and schedule a retry —
  /// the overload hard cap and the EMFILE path both land here. New
  /// connections wait in the kernel listen backlog meanwhile.
  void pause_accept() {
    if (accept_paused) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, server.listen_fd_, nullptr);
    accept_paused = true;
    const unsigned backoff =
        server.opts_.accept_backoff_ms > 0 ? server.opts_.accept_backoff_ms
                                           : 1;
    accept_resume_ns = now_ns() + backoff * 1'000'000ull;
    counters.accept_pauses.fetch_add(1, std::memory_order_relaxed);
  }

  void resume_accept() {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.ptr = &listen_tag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, server.listen_fd_, &ev) == 0) {
      accept_paused = false;  // level-triggered: a waiting backlog fires
    } else {
      accept_resume_ns = now_ns() + 1'000'000ull;  // retry shortly
    }
  }

  /// Out of fds: burn the reserve to accept-then-close ONE pending
  /// connection (its peer sees a clean EOF instead of hanging in the
  /// backlog), then back off the listen fd — level-triggered epoll
  /// would otherwise spin at 100% CPU on the un-acceptable backlog.
  void shed_on_fd_exhaustion() {
    counters.emfile_sheds.fetch_add(1, std::memory_order_relaxed);
    if (emergency_fd >= 0) {
      ::close(emergency_fd);
      emergency_fd = -1;
      const int fd = ::accept4(server.listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) ::close(fd);
      emergency_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    }
  }

  void accept_all() {
    for (;;) {
      if (server.opts_.accept_pause > 0 &&
          server.queued_.load(std::memory_order_relaxed) >=
              server.opts_.accept_pause) {
        pause_accept();  // hard cap: let the listen backlog absorb
        return;
      }
      const int fd = ::accept4(server.listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE) {
          shed_on_fd_exhaustion();
          pause_accept();
          return;
        }
        // EAGAIN/EWOULDBLOCK (another worker won the wakeup) and
        // transient per-connection errors (ECONNABORTED, EPROTO):
        // nothing more to accept right now.
        return;
      }
      set_nodelay(fd);
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->armed = EPOLLIN;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(fd, std::move(conn));
      server.accepted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void close_conn(Conn& c) {
    if (c.queued_admitted > 0) {  // unexecuted admitted requests die too
      queued -= c.queued_admitted;
      server.queued_.fetch_sub(c.queued_admitted, std::memory_order_relaxed);
    }
    ::close(c.fd);  // kernel drops the epoll registration with the fd
    conns.erase(c.fd);
  }

  void on_conn_event(Conn& c, std::uint32_t ev) {
    if (ev & EPOLLERR) {
      close_conn(c);
      return;
    }
    if ((ev & EPOLLHUP) && !(ev & EPOLLIN)) {
      close_conn(c);
      return;
    }
    if (ev & (EPOLLIN | EPOLLHUP)) {
      if (!read_some(c)) {
        close_conn(c);
        return;
      }
    }
    pump(c);
  }

  /// Drain the socket into the connection's input buffer. False means
  /// a hard error — the caller closes. Every return path runs the
  /// admission pass over whatever arrived.
  bool read_some(Conn& c) {
    std::uint8_t chunk[kReadChunk];
    for (;;) {
      if (c.in.size() >= kInHighWater) break;  // backpressure
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) {
        c.peer_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    admit_new_frames(c);
    return true;
  }

  /// The admission pass: walk complete frames between count_ofs and
  /// the buffer end and decide each one's fate AT ARRIVAL — admitted
  /// (counted into the per-worker and global gauges) or shed (answered
  /// kOverloaded when it reaches the front of the FIFO). Stats
  /// requests are exempt so observability survives overload.
  void admit_new_frames(Conn& c) {
    const ServerOptions& opts = server.opts_;
    for (;;) {
      std::size_t len = 0;
      if (split_frame(c.in.data() + c.count_ofs, c.in.size() - c.count_ofs,
                      len) != FrameState::kReady) {
        return;  // kNeedMore: wait; kBad: process() poisons the stream
      }
      const Op op = static_cast<Op>(c.in[c.count_ofs + 4]);
      std::uint8_t decision = kDecAdmit;
      if (op == Op::kStats) {
        decision = kDecExempt;
      } else if ((opts.max_queue > 0 && queued >= opts.max_queue) ||
                 (opts.max_global > 0 &&
                  server.queued_.load(std::memory_order_relaxed) >=
                      opts.max_global)) {
        decision = kDecShed;
      }
      if (decision == kDecAdmit) {
        ++queued;
        ++c.queued_admitted;
        server.queued_.fetch_add(1, std::memory_order_relaxed);
        if (queued > queue_hwm) {
          queue_hwm = queued;
          counters.queue_hwm.store(queue_hwm, std::memory_order_relaxed);
        }
      }
      c.admit.push_back(decision);
      c.count_ofs += 4 + len;
    }
  }

  /// The per-connection engine: alternate producing responses and
  /// flushing until blocked on input, output, or the socket. Ends by
  /// re-arming the epoll interest to whatever unblocks us next.
  void pump(Conn& c) {
    for (;;) {
      process(c);
      if (!flush_some(c)) return;  // closed (error, or drained+closing)
      // More to produce and room to produce it?
      const bool can_produce =
          !c.closing && c.out.size() - c.out_ofs < kOutHighWater &&
          (c.scan.has_value() || has_complete_frame(c));
      if (!can_produce) break;
    }
    if ((c.peer_eof || c.closing) && !c.scan.has_value() &&
        c.out.size() == c.out_ofs) {
      close_conn(c);
      return;
    }
    update_interest(c);
  }

  bool has_complete_frame(const Conn& c) const {
    std::size_t len = 0;
    return split_frame(c.in.data() + c.in_ofs, c.in.size() - c.in_ofs,
                       len) != FrameState::kNeedMore;
  }

  enum class Pull { kNone, kReq, kBadFrame, kBadBody };

  /// Consume one complete frame into `req`, popping its admission
  /// decision into `admitted`. kNone = need more bytes;
  /// kBadFrame/kBadBody poison the stream (caller errors out).
  Pull pull_request(Conn& c, Request& req, bool& admitted) {
    std::size_t len = 0;
    const std::uint8_t* at = c.in.data() + c.in_ofs;
    switch (split_frame(at, c.in.size() - c.in_ofs, len)) {
      case FrameState::kNeedMore:
        return Pull::kNone;
      case FrameState::kBad:
        return Pull::kBadFrame;
      case FrameState::kReady:
        break;
    }
    std::uint8_t decision = kDecExempt;
    if (!c.admit.empty()) {  // every complete frame has a decision
      decision = c.admit.front();
      c.admit.pop_front();
    }
    if (decision == kDecAdmit) {  // leaving the queue: uncount
      --queued;
      --c.queued_admitted;
      server.queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    admitted = decision != kDecShed;
    auto parsed = parse_request(at + 4, len);
    c.in_ofs += 4 + len;
    if (!parsed) return Pull::kBadBody;
    req = std::move(*parsed);
    return Pull::kReq;
  }

  /// True when the next complete frame is an ADMITTED point op (safe
  /// to fuse into the current batch without reordering responses; a
  /// shed frame must answer kOverloaded in its own FIFO slot).
  bool peek_point(const Conn& c) const {
    std::size_t len = 0;
    const std::uint8_t* at = c.in.data() + c.in_ofs;
    if (split_frame(at, c.in.size() - c.in_ofs, len) != FrameState::kReady) {
      return false;
    }
    if (!c.admit.empty() && c.admit.front() == kDecShed) return false;
    return is_point_op(static_cast<Op>(at[4]));
  }

  /// Decode and execute buffered requests until input runs dry, the
  /// output buffer hits its high-water mark, or the stream errors.
  /// A request shed at admission answers Err::kOverloaded in its FIFO
  /// slot — the connection survives and later requests run normally.
  void process(Conn& c) {
    bool poisoned = false;
    Err poison_code = Err::kBadFrame;
    while (!c.closing && c.out.size() - c.out_ofs < kOutHighWater) {
      if (c.scan) {
        emit_scan_chunk(c);
        continue;
      }
      Request req;
      bool admitted = true;
      const Pull pull = pull_request(c, req, admitted);
      if (pull == Pull::kNone) break;
      if (pull == Pull::kBadFrame || pull == Pull::kBadBody) {
        poisoned = true;
        poison_code =
            pull == Pull::kBadFrame ? Err::kBadFrame : Err::kBadBody;
        break;
      }
      if (!admitted) {
        append_error(c.out, Err::kOverloaded);
        counters.shed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (req.op == Op::kStats) {
        append_stats(c.out, server.stats());
        counters.ops.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (req.op == Op::kScan) {
        start_scan(c, req);
        continue;
      }
      if (req.op == Op::kTxn) {
        exec_txn(req, c.out);
        counters.ops.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Point op: fuse the rest of the pipelined burst into one txn.
      batch.clear();
      batch.push_back(std::move(req));
      while (batch.size() < server.opts_.max_batch && peek_point(c)) {
        Request next;
        bool next_admitted = true;
        const Pull more = pull_request(c, next, next_admitted);
        if (more != Pull::kReq) {
          // peek said complete+point, so only a malformed body lands
          // here; answer the sound prefix first, then poison.
          poisoned = true;
          poison_code = Err::kBadBody;
          break;
        }
        batch.push_back(std::move(next));
      }
      exec_point_batch(c.out);
      counters.ops.fetch_add(batch.size(), std::memory_order_relaxed);
      if (poisoned) break;
    }
    if (poisoned) {
      append_error(c.out, poison_code);
      c.closing = true;
      counters.errored.fetch_add(1, std::memory_order_relaxed);
    }
    // Compact the consumed prefix so the buffer never creeps.
    if (c.in_ofs > 0) {
      c.in.erase(c.in.begin(),
                 c.in.begin() + static_cast<std::ptrdiff_t>(c.in_ofs));
      c.count_ofs -= c.in_ofs;  // count_ofs >= in_ofs always
      c.in_ofs = 0;
    }
  }

  /// The thread-local Tx is the one leap::txn uses on this worker, so
  /// its cumulative aborts() sampled before/after a map operation
  /// yields exactly that operation's conflict retries.
  std::uint64_t sample_aborts() const { return stm::tls_tx().aborts(); }

  void charge_retries(std::uint64_t aborts_before) {
    const std::uint64_t retries = sample_aborts() - aborts_before;
    if (retries > 0) {
      counters.stm_retries.fetch_add(retries, std::memory_order_relaxed);
    }
  }

  /// Route a commit through the durable tier when one is configured:
  /// the batch's mutations are WAL-logged under the affected shards'
  /// commit mutexes (log order == commit order) and the call returns
  /// only once they are durable per --fsync-mode — response frames are
  /// built after, so an acked write is a durable write. Pure-read
  /// batches and the in-memory configuration skip the store entirely.
  /// False = the store refused or failed to make the batch durable
  /// (fail-stop); the caller must answer every mutation in the batch
  /// Err::kStoreFailed, never Ok — whatever `apply` did to the
  /// memtable is quarantined off the log and a restart forgets it.
  template <typename Ops, typename Fn>
  [[nodiscard]] bool durable_apply(const Ops& ops, Fn&& apply) {
    store::Store* st = server.store_.get();
    if (st == nullptr) {
      apply();
      return true;
    }
    log_ops.clear();
    for (const auto& op : ops) {
      if (op.op == Op::kPut) {
        log_ops.push_back({false, op.key, op.value});
      } else if (op.op == Op::kErase) {
        log_ops.push_back({true, op.key, 0});
      }
    }
    return st->log_batch(log_ops.data(), log_ops.size(), apply);
  }

  /// After a commit with the store enabled, answer memtable misses
  /// from the cold tier (tombstones, then bloom-gated runs).
  template <typename Ops>
  void patch_cold_gets(const Ops& ops) {
    store::Store* st = server.store_.get();
    if (st == nullptr) return;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].op != Op::kGet || results[i].flag != 0) continue;
      if (const auto cold = st->get_cold(ops[i].key)) {
        results[i].flag = 1;
        results[i].value = *cold;
      }
    }
  }

  /// Answer the run of consecutive Gets that starts at batch[i] with
  /// one interleaved batch lookup, appending a result per Get; returns
  /// the index past the run. The run sits at its place in the
  /// transaction, so it reads the burst's earlier writes.
  std::size_t exec_get_run(stm::Tx& tx, std::size_t i) {
    get_keys.clear();
    for (; i < batch.size() && batch[i].op == Op::kGet; ++i) {
      get_keys.push_back(batch[i].key);
    }
    get_hits.resize(get_keys.size());
    server.map_.get_many_in(tx, get_keys.data(), get_keys.size(),
                            get_hits.data());
    for (const std::optional<std::int64_t>& hit : get_hits) {
      results.push_back({hit.has_value() ? std::uint8_t{1} : std::uint8_t{0},
                         hit.value_or(0)});
    }
    return i;
  }

  /// Execute `batch` (point ops only) as ONE transaction and append
  /// the per-op response frames in order. The closure may re-run on
  /// conflict, so results are (re)collected per attempt and frames are
  /// built only after the commit.
  void exec_point_batch(std::vector<std::uint8_t>& out) {
    counters.batches.fetch_add(1, std::memory_order_relaxed);
    counters.batch_ops.fetch_add(batch.size(), std::memory_order_relaxed);
    counters.batch_hist[batch_hist_bucket(batch.size())].fetch_add(
        1, std::memory_order_relaxed);
    const std::uint64_t aborts_before = sample_aborts();
    Server::MapType& map = server.map_;
    const auto apply = [&] {
      leap::txn([&](stm::Tx& tx) {
        results.clear();
        for (std::size_t i = 0; i < batch.size();) {
          const Request& req = batch[i];
          TxnResult r;
          switch (req.op) {
            case Op::kGet:
              i = exec_get_run(tx, i);
              continue;
            case Op::kPut:
              r.flag = map.insert_in(tx, req.key, req.value) ? 1 : 0;
              break;
            default:  // kErase; parse_request admits nothing else here
              r.flag = map.erase_in(tx, req.key) ? 1 : 0;
              break;
          }
          results.push_back(r);
          ++i;
        }
      });
    };
    const bool durable = durable_apply(batch, apply);
    charge_retries(aborts_before);
    if (!durable) {
      // The store is fail-stop: every mutation in the burst answers
      // Err::kStoreFailed in its FIFO slot (it was never durably
      // logged, so it must never look acked), but the gets still
      // deserve answers — re-read them in a read-only txn so they
      // reflect the current (read-only-from-here) map state.
      leap::txn([&](stm::Tx& tx) {
        results.clear();
        for (std::size_t i = 0; i < batch.size();) {
          if (batch[i].op == Op::kGet) {
            i = exec_get_run(tx, i);
          } else {
            results.push_back({});
            ++i;
          }
        }
      });
      patch_cold_gets(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].op == Op::kGet) {
          if (results[i].flag) {
            append_found(out, results[i].value);
          } else {
            append_miss(out);
          }
        } else {
          append_error(out, Err::kStoreFailed);
        }
      }
      return;
    }
    patch_cold_gets(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      switch (batch[i].op) {
        case Op::kGet:
          if (results[i].flag) {
            append_found(out, results[i].value);
          } else {
            append_miss(out);
          }
          break;
        default:
          append_ok(out, results[i].flag != 0);
          break;
      }
    }
  }

  /// The multi-key transaction opcode: all sub-ops in one leap::txn —
  /// the paper's composable atomicity, across shards, over the wire.
  void exec_txn(const Request& req, std::vector<std::uint8_t>& out) {
    const std::uint64_t aborts_before = sample_aborts();
    Server::MapType& map = server.map_;
    const auto apply = [&] {
      leap::txn([&](stm::Tx& tx) {
        results.clear();
        for (const TxnOp& op : req.txn) {
          TxnResult r;
          switch (op.op) {
            case Op::kGet: {
              const auto hit = map.get_in(tx, op.key);
              r.flag = hit.has_value() ? 1 : 0;
              r.value = hit.value_or(0);
              break;
            }
            case Op::kPut:
              r.flag = map.insert_in(tx, op.key, op.value) ? 1 : 0;
              break;
            default:  // kErase; parse_request rejects the rest
              r.flag = map.erase_in(tx, op.key) ? 1 : 0;
              break;
          }
          results.push_back(r);
        }
      });
    };
    const bool durable = durable_apply(req.txn, apply);
    charge_retries(aborts_before);
    if (!durable) {
      // A transaction is all-or-nothing on the wire too: its writes
      // were never durably logged, so the whole txn answers one
      // Err::kStoreFailed frame. (Pure-read txns log zero ops and
      // never take this path.)
      append_error(out, Err::kStoreFailed);
      return;
    }
    patch_cold_gets(req.txn);
    append_txn_done(out, req.txn, results);
  }

  void start_scan(Conn& c, const Request& req) {
    ScanState s;
    s.next_low = req.low;
    s.high = req.high;
    s.bounded = req.limit != 0;
    s.remaining = req.limit;
    c.scan = s;
  }

  /// Produce the next chunk of an in-flight scan: one bounded stitched
  /// transaction per chunk (kScanChunkPairs caps both the txn's read
  /// span and the buffered pairs). A scan whose whole result fits one
  /// chunk is answered by a single transaction — fully linearizable;
  /// longer streams are consistent per chunk (docs/server.md).
  void emit_scan_chunk(Conn& c) {
    ScanState& s = *c.scan;
    const std::size_t cap =
        s.bounded ? static_cast<std::size_t>(
                        std::min<std::uint64_t>(kScanChunkPairs, s.remaining))
                  : kScanChunkPairs;
    if (cap == 0 || s.next_low > s.high) {
      append_scan_pairs(c.out, nullptr, 0, true);
      finish_scan(c);
      return;
    }
    scan_buf.clear();
    const std::uint64_t aborts_before = sample_aborts();
    if (store::Store* st = server.store_.get()) {
      st->scan_merged(s.next_low, cap, scan_buf);
    } else {
      server.map_.scan(s.next_low, cap, scan_buf);
    }
    charge_retries(aborts_before);
    // scan() is bounded below only; clip the tail past `high`.
    std::size_t n = scan_buf.size();
    while (n > 0 && scan_buf[n - 1].first > s.high) --n;
    bool done = n < scan_buf.size()          // clipped at high
                || scan_buf.size() < cap     // map exhausted
                || scan_buf[n - 1].first >= s.high;
    if (!done && s.bounded) {
      s.remaining -= n;
      done = s.remaining == 0;
    }
    if (!done) s.next_low = scan_buf[n - 1].first + 1;
    append_scan_pairs(c.out, scan_buf.data(), n, done);
    if (done) finish_scan(c);
  }

  void finish_scan(Conn& c) {
    c.scan.reset();
    counters.ops.fetch_add(1, std::memory_order_relaxed);
  }

  /// Write queued output. False = the connection was closed (hard
  /// error, or it was draining toward close and is now drained).
  bool flush_some(Conn& c) {
    while (c.out_ofs < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_ofs,
                               c.out.size() - c.out_ofs, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_ofs += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(c);
      return false;
    }
    if (c.out_ofs == c.out.size()) {
      c.out.clear();
      c.out_ofs = 0;
      if (c.closing && !c.scan.has_value()) {
        close_conn(c);
        return false;
      }
    } else if (c.out_ofs > kOutHighWater) {
      c.out.erase(c.out.begin(),
                  c.out.begin() + static_cast<std::ptrdiff_t>(c.out_ofs));
      c.out_ofs = 0;
    }
    return true;
  }

  void update_interest(Conn& c) {
    std::uint32_t want = 0;
    if (!c.closing && !c.peer_eof && c.in.size() < kInHighWater) {
      want |= EPOLLIN;
    }
    if (c.out_ofs < c.out.size()) want |= EPOLLOUT;
    if (want == c.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = &c;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) != 0) {
      // The kernel rejected the change; caching `want` anyway would
      // desync `armed` from the real registration for good. The
      // connection is unsalvageable without its epoll state.
      close_conn(c);
      return;
    }
    c.armed = want;
  }
};

Server::Server(const ServerOptions& opts)
    : opts_(opts),
      map_({.shards = opts.shards, .params = opts.params}, opts.key_lo,
           opts.key_hi) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (!opts_.data_dir.empty()) {
    // Recovery runs before the socket exists: by the time a client can
    // connect, every acknowledged pre-crash write is back in the map.
    store::StoreOptions sopts;
    sopts.data_dir = opts_.data_dir;
    sopts.fsync_mode = opts_.fsync_mode;
    sopts.checkpoint_bytes = opts_.checkpoint_bytes;
    sopts.io = opts_.store_io;
    store_ = std::make_unique<store::Store>(map_, sopts);
    if (!store_->open(error)) {
      store_.reset();
      return false;
    }
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    if (error) *error = "socket() failed";
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 1024) != 0) {
    if (error) *error = std::string("bind/listen failed: ") + strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  const unsigned workers = opts_.workers < 1 ? 1 : opts_.workers;
  for (unsigned w = 0; w < workers; ++w) {
    counters_.push_back(std::make_unique<WorkerCounters>());
    auto worker = std::make_unique<Worker>(*this, *counters_.back());
    if (!worker->init(error)) {
      running_.store(false, std::memory_order_release);
      stop();
      return false;
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([w = worker.get()] {
      w->tid.store(::gettid(), std::memory_order_relaxed);
      w->run();
      w->exited.store(true, std::memory_order_release);
    });
  }
  return true;
}

bool Server::stop_within(std::chrono::milliseconds bound,
                         std::string* stuck) {
  running_.store(false, std::memory_order_release);
  for (auto& worker : workers_) worker->wake();
  const auto running = [](const std::unique_ptr<Worker>& worker) {
    return worker->thread.joinable() &&
           !worker->exited.load(std::memory_order_acquire);
  };
  const auto deadline = std::chrono::steady_clock::now() + bound;
  while (std::any_of(workers_.begin(), workers_.end(), running)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      if (stuck) {
        stuck->clear();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          if (!running(workers_[w])) continue;
          if (!stuck->empty()) *stuck += ", ";
          *stuck += "worker " + std::to_string(w) + " (tid " +
                    std::to_string(workers_[w]->tid.load(
                        std::memory_order_relaxed)) +
                    ")";
        }
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
  return true;
}

void Server::stop() {
  running_.store(false, std::memory_order_release);
  for (auto& worker : workers_) worker->wake();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();  // Worker dtors close epoll/event/conn fds
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (store_) {
    store_->close();
    store_final_ = store_->stats();
    store_.reset();
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.queued_now = queued_.load(std::memory_order_relaxed);
  for (const auto& worker : counters_) {
    const WorkerCounters& c = *worker;
    s.ops += c.ops.load(std::memory_order_relaxed);
    s.errored += c.errored.load(std::memory_order_relaxed);
    s.shed += c.shed.load(std::memory_order_relaxed);
    s.stm_retries += c.stm_retries.load(std::memory_order_relaxed);
    s.batches += c.batches.load(std::memory_order_relaxed);
    s.batch_ops += c.batch_ops.load(std::memory_order_relaxed);
    s.accept_pauses += c.accept_pauses.load(std::memory_order_relaxed);
    s.emfile_sheds += c.emfile_sheds.load(std::memory_order_relaxed);
    s.queue_hwm =
        std::max(s.queue_hwm, c.queue_hwm.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
      s.batch_hist[i] += c.batch_hist[i].load(std::memory_order_relaxed);
    }
  }
  const store::StoreStats st = store_ ? store_->stats() : store_final_;
  s.wal_appends = st.wal_appends;
  s.wal_fsyncs = st.wal_fsyncs;
  s.wal_group_ops = st.wal_group_ops;
  s.store_flushes = st.flushes;
  s.store_runs = st.runs;
  s.bloom_negatives = st.bloom_negatives;
  s.cold_hits = st.cold_hits;
  s.recovered_ops = st.recovered_ops;
  s.store_fail_stop = st.fail_stop;
  s.corrupt_blocks = st.corrupt_blocks;
  s.checkpoint_retries = st.checkpoint_retries;
  return s;
}

}  // namespace leap::net
