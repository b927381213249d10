// leap-loadgen — the network load generator for leapd (PR 6).
//
// Drives the wire protocol (leaplist/net/protocol.hpp) over loopback
// or a remote host, in two arrival models per connection:
//
//   closed loop   --pipeline D outstanding requests per connection;
//                 D = 1 is classic unpipelined request/response, D > 1
//                 exercises the server's burst batching (a pipelined
//                 burst of point ops commits as ONE server txn).
//   open loop     --rate R total ops/sec scheduled on a clock;
//                 latency is measured from the SCHEDULED send instant,
//                 so queueing delay under overload is charged to the
//                 server (no coordinated omission). The schedule is
//                 monotone even when the outstanding window is full:
//                 an op whose slot can't be sent is counted DROPPED
//                 and the clock still advances — never frozen.
//
// Each thread owns one connection and an event-driven poll() loop;
// latency is recorded per response (a multi-chunk scan counts once, at
// its ScanDone) into the harness log-domain histogram, reported as
// p50/p99/p999 with goodput. A response of Err::kOverloaded counts as
// SHED (the op completed unsuccessfully but honestly), not a failure.
// Exit status is nonzero when any connection failed or no ops
// completed, so CI can gate on it. After the run, the server's own
// counters are fetched via the Stats opcode and printed as one line;
// with LEAP_BENCH_JSON set, the run's numbers are also written there
// as JSON (bench/record_bench.sh's persistence sweep reads it).
// perfbench/ is the end-to-end benchmark; this tool is the smoke
// driver and the crash-recovery oracle.
//
//   leap-loadgen --port P [--host 127.0.0.1] [--threads N] [--seconds S]
//     [--pipeline D] [--rate R] [--keys K] [--preload N]
//     [--mix get:put:erase:scan:txn]
//     [--putrange A:B] [--verifyrange A:B] [--tolerate-storefail]
//     [--timeout-ms MS]
//
// --putrange / --verifyrange are the crash-recovery oracle modes (no
// load phase runs): putrange writes every key in [A, B) with the
// DETERMINISTIC value key*31+7 — each put individually acknowledged —
// and verifyrange asserts every one of those keys reads back exactly
// that value, exiting nonzero on any mismatch. Because the value is a
// pure function of the key, a verifier needs no state from the writer:
// scripts/net_smoke.sh writes, kill -9s leapd, restarts it on the same
// --data-dir, and verifies from a fresh process.
//
// An Err::kStoreFailed response (the store went read-only fail-stop)
// is, like kOverloaded, an honest per-op answer: the load phase counts
// it shed. putrange normally fails hard on it; with
// --tolerate-storefail it counts acked vs store-failed puts and prints
//   leap-loadgen: putrange acked=N storefailed=M
// (how net_smoke's fault-injection phase asserts writes shed while the
// connection and the gets keep working). --timeout-ms (default 10000)
// bounds connect AND every socket read/write on the blocking clients,
// so a wedged server fails the run instead of hanging it.
#include <poll.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fig_common.hpp"
#include "leaplist/net/client.hpp"
#include "leaplist/net/protocol.hpp"

using namespace leap::net;

namespace {

struct MixPct {
  int get = 75;
  int put = 15;
  int erase = 5;
  int scan = 2;
  int txn = 3;
};

struct GenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  unsigned threads = 4;
  double seconds = 5.0;
  std::size_t pipeline = 16;  // closed-loop outstanding cap
  double rate = 0;            // total ops/sec; > 0 switches to open loop
  std::int64_t keys = 1'000'000;
  std::int64_t preload = 100'000;
  MixPct mix;
  int timeout_ms = 10'000;  // connect + socket read/write bound
};

struct GenResult {
  std::uint64_t ops = 0;       // completed responses (goodput)
  std::uint64_t shed = 0;      // Err::kOverloaded responses
  std::uint64_t dropped = 0;   // open-loop slots skipped, window full
  std::uint64_t failures = 0;  // connection-level failures
  double seconds = 0;
  leap::harness::LatencyHistogram hist;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Build one request drawn from the mix; returns how many response
/// frames complete it (scans stream, everything else answers once —
/// tracked via a per-request pending marker instead; so this returns
/// void and pushes the frame).
void build_request(std::vector<std::uint8_t>& out, const GenConfig& cfg,
                   leap::util::Xoshiro256& rng) {
  const int dial = static_cast<int>(rng.next_below(100));
  const MixPct& mix = cfg.mix;
  const std::int64_t key = static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(cfg.keys)));
  if (dial < mix.get) {
    append_get(out, key);
  } else if (dial < mix.get + mix.put) {
    append_put(out, key, static_cast<std::int64_t>(rng.next()));
  } else if (dial < mix.get + mix.put + mix.erase) {
    append_erase(out, key);
  } else if (dial < mix.get + mix.put + mix.erase + mix.scan) {
    append_scan(out, key, key + 256, 128);
  } else {
    // The headline opcode: a 3-key read-modify-move in one server txn.
    const std::int64_t k2 = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(cfg.keys)));
    const std::int64_t k3 = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(cfg.keys)));
    const std::vector<TxnOp> ops = {
        {Op::kGet, key, 0},
        {Op::kPut, k2, static_cast<std::int64_t>(rng.next())},
        {Op::kErase, k3, 0},
    };
    append_txn(out, ops);
  }
}

/// One connection's event loop: nonblocking socket, poll()-driven,
/// shared by both arrival models.
GenResult run_conn(const GenConfig& cfg, unsigned index,
                   std::uint64_t start_ns, std::uint64_t deadline_ns) {
  GenResult result;
  Client client;
  if (!client.connect(cfg.host, cfg.port, cfg.timeout_ms)) {
    result.failures = 1;
    return result;
  }
  const int fd = client.fd();
  leap::util::Xoshiro256 rng(0x10ad0000 + index);
  std::vector<std::uint8_t> out;
  std::size_t out_ofs = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_ofs = 0;
  std::deque<std::uint64_t> pending;  // send (or scheduled) timestamps

  const bool open_loop = cfg.rate > 0;
  const double per_thread_rate =
      open_loop ? cfg.rate / static_cast<double>(cfg.threads) : 0;
  const std::uint64_t interval_ns =
      open_loop ? static_cast<std::uint64_t>(1e9 / per_thread_rate) : 0;
  // Stagger the open-loop clocks so threads don't fire in phase.
  std::uint64_t next_sched =
      start_ns + (open_loop ? interval_ns * index / cfg.threads : 0);
  constexpr std::size_t kMaxOutstanding = 4096;

  bool sending = true;
  std::uint64_t drain_deadline = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (sending && now >= deadline_ns) {
      sending = false;
      drain_deadline = now + 2'000'000'000ull;  // 2 s response grace
    }
    if (!sending && (pending.empty() || now >= drain_deadline)) break;

    // Enqueue new requests per the arrival model.
    if (sending) {
      if (open_loop) {
        // The schedule advances unconditionally — freezing next_sched
        // while the window is full would time later ops from a
        // postponed schedule and under-report latency at exactly the
        // loads where it matters (coordinated omission). A slot that
        // finds the window full is a DROPPED send, counted and
        // reported, and the clock keeps ticking.
        while (next_sched <= now) {
          if (pending.size() >= kMaxOutstanding) {
            result.dropped += 1;
            next_sched += interval_ns;
            continue;
          }
          build_request(out, cfg, rng);
          pending.push_back(next_sched);
          next_sched += interval_ns;
        }
      } else {
        while (pending.size() < cfg.pipeline) {
          build_request(out, cfg, rng);
          pending.push_back(now_ns());
        }
      }
    }

    // Nonblocking flush of whatever is queued.
    while (out_ofs < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_ofs,
                               out.size() - out_ofs,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_ofs += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      result.failures += 1;
      return result;
    }
    if (out_ofs == out.size()) {
      out.clear();
      out_ofs = 0;
    }

    // Wait for readability / writability / the next scheduled send.
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (out_ofs < out.size()) pfd.events |= POLLOUT;
    int timeout_ms = 50;
    if (open_loop && sending) {
      const std::uint64_t gap =
          next_sched > now ? (next_sched - now) / 1'000'000 : 0;
      timeout_ms = static_cast<int>(gap < 50 ? gap : 50);
    }
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno != EINTR) {
      result.failures += 1;
      return result;
    }
    if (ready <= 0 || !(pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      continue;
    }

    // Drain responses; complete one pending op per non-chunk frame.
    std::uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        in.insert(in.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      result.failures += 1;  // EOF or reset with requests outstanding
      return result;
    }
    const std::uint64_t recv_ns = now_ns();
    for (;;) {
      std::size_t len = 0;
      const FrameState state =
          split_frame(in.data() + in_ofs, in.size() - in_ofs, len);
      if (state == FrameState::kBad) {
        result.failures += 1;
        return result;
      }
      if (state == FrameState::kNeedMore) break;
      const Status status = static_cast<Status>(in[in_ofs + 4]);
      const std::uint8_t err_code = len >= 2 ? in[in_ofs + 5] : 0;
      in_ofs += 4 + len;
      if (status == Status::kScanChunk) continue;  // op not complete yet
      if (status == Status::kError &&
          (static_cast<Err>(err_code) == Err::kOverloaded ||
           static_cast<Err>(err_code) == Err::kStoreFailed) &&
          !pending.empty()) {
        // Admission control (kOverloaded) or a fail-stopped store
        // (kStoreFailed) answered this op in its FIFO slot; the
        // connection survives. Count it shed — not goodput, not a
        // failure — and keep going.
        pending.pop_front();
        result.shed += 1;
        continue;
      }
      if (status == Status::kError || pending.empty()) {
        result.failures += 1;
        return result;
      }
      const std::uint64_t sent = pending.front();
      pending.pop_front();
      result.hist.record(recv_ns > sent ? recv_ns - sent : 0);
      result.ops += 1;
    }
    if (in_ofs == in.size()) {
      in.clear();
      in_ofs = 0;
    } else if (in_ofs > sizeof(chunk)) {
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(in_ofs));
      in_ofs = 0;
    }
  }
  result.seconds =
      static_cast<double>(now_ns() - start_ns) / 1e9;
  return result;
}

/// Fill the key space before measuring: pipelined puts on one blocking
/// connection, spread over [0, keys) by stride.
bool preload(const GenConfig& cfg) {
  if (cfg.preload <= 0) return true;
  Client client;
  if (!client.connect(cfg.host, cfg.port, cfg.timeout_ms)) return false;
  const std::int64_t count = std::min(cfg.preload, cfg.keys);
  const std::int64_t stride = std::max<std::int64_t>(1, cfg.keys / count);
  constexpr std::int64_t kBurst = 512;
  std::int64_t done = 0;
  while (done < count) {
    const std::int64_t n = std::min(kBurst, count - done);
    for (std::int64_t i = 0; i < n; ++i) {
      client.queue_put((done + i) * stride, done + i);
    }
    if (!client.flush()) return false;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto resp = client.read_response();
      if (!resp || resp->status != Status::kOk) return false;
    }
    done += n;
  }
  return true;
}

/// The deterministic oracle value for --putrange / --verifyrange
/// (mirrored by tests/test_store.cpp's value_of).
std::int64_t oracle_value(std::int64_t key) { return key * 31 + 7; }

/// Write every key in [lo, hi) with its oracle value, pipelined in
/// bursts, every put acknowledged before the function returns true.
/// With `tolerate_storefail`, an Err::kStoreFailed response is counted
/// (the store went read-only mid-range) instead of failing the run;
/// the acked/storefailed split is printed either way when nonzero.
bool put_range(const GenConfig& cfg, std::int64_t lo, std::int64_t hi,
               bool tolerate_storefail) {
  Client client;
  if (!client.connect(cfg.host, cfg.port, cfg.timeout_ms)) return false;
  constexpr std::int64_t kBurst = 256;
  std::uint64_t acked = 0, storefailed = 0;
  for (std::int64_t at = lo; at < hi;) {
    const std::int64_t n = std::min(kBurst, hi - at);
    for (std::int64_t i = 0; i < n; ++i) {
      client.queue_put(at + i, oracle_value(at + i));
    }
    if (!client.flush()) return false;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto resp = client.read_response();
      if (!resp) return false;
      if (resp->status == Status::kOk) {
        acked += 1;
        continue;
      }
      if (tolerate_storefail && resp->status == Status::kError &&
          static_cast<Err>(resp->error) == Err::kStoreFailed) {
        storefailed += 1;
        continue;
      }
      return false;
    }
    at += n;
  }
  if (storefailed > 0 || tolerate_storefail) {
    std::printf("leap-loadgen: putrange acked=%llu storefailed=%llu\n",
                static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(storefailed));
  }
  return true;
}

/// Assert every key in [lo, hi) reads back its oracle value. Prints
/// the first mismatch; returns false on any.
bool verify_range(const GenConfig& cfg, std::int64_t lo, std::int64_t hi) {
  Client client;
  if (!client.connect(cfg.host, cfg.port, cfg.timeout_ms)) return false;
  constexpr std::int64_t kBurst = 256;
  for (std::int64_t at = lo; at < hi;) {
    const std::int64_t n = std::min(kBurst, hi - at);
    for (std::int64_t i = 0; i < n; ++i) client.queue_get(at + i);
    if (!client.flush()) return false;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto resp = client.read_response();
      const std::int64_t key = at + i;
      if (!resp || resp->status != Status::kFound) {
        std::fprintf(stderr,
                     "leap-loadgen: verifyrange: key %lld missing\n",
                     static_cast<long long>(key));
        return false;
      }
      if (resp->value != oracle_value(key)) {
        std::fprintf(
            stderr,
            "leap-loadgen: verifyrange: key %lld = %lld, want %lld\n",
            static_cast<long long>(key),
            static_cast<long long>(resp->value),
            static_cast<long long>(oracle_value(key)));
        return false;
      }
    }
    at += n;
  }
  return true;
}

GenResult run_config(const GenConfig& cfg) {
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  std::vector<GenResult> per_thread(cfg.threads);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t] = run_conn(cfg, t, start, deadline);
    });
  }
  for (auto& thread : threads) thread.join();
  GenResult merged;
  merged.seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (const GenResult& r : per_thread) {
    merged.ops += r.ops;
    merged.shed += r.shed;
    merged.dropped += r.dropped;
    merged.failures += r.failures;
    merged.hist.merge(r.hist);
  }
  return merged;
}

double value_arg(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

bool flag_arg(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = leap::harness::smoke_mode();
  GenConfig base;
  base.host = [&] {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--host") == 0) return std::string(argv[i + 1]);
    }
    return std::string("127.0.0.1");
  }();
  base.port =
      static_cast<std::uint16_t>(value_arg(argc, argv, "--port", 0));
  base.threads =
      static_cast<unsigned>(value_arg(argc, argv, "--threads", 4));
  base.seconds = value_arg(argc, argv, "--seconds", smoke ? 0.5 : 5.0);
  base.pipeline =
      static_cast<std::size_t>(value_arg(argc, argv, "--pipeline", 16));
  base.rate = value_arg(argc, argv, "--rate", 0);
  base.keys = static_cast<std::int64_t>(
      value_arg(argc, argv, "--keys", smoke ? 65536 : 1'000'000));
  base.preload = static_cast<std::int64_t>(
      value_arg(argc, argv, "--preload", smoke ? 4096 : 100'000));
  base.timeout_ms =
      static_cast<int>(value_arg(argc, argv, "--timeout-ms", 10'000));
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--mix") == 0) {
      MixPct mix;
      if (std::sscanf(argv[i + 1], "%d:%d:%d:%d:%d", &mix.get, &mix.put,
                      &mix.erase, &mix.scan, &mix.txn) == 5) {
        base.mix = mix;
      }
    }
  }
  if (base.port == 0) {
    std::fprintf(stderr, "leap-loadgen: --port is required\n");
    return 1;
  }

  // Oracle modes short-circuit the load phase entirely.
  const bool tolerate_storefail = flag_arg(argc, argv, "--tolerate-storefail");
  for (int i = 1; i + 1 < argc; ++i) {
    const bool is_put = std::strcmp(argv[i], "--putrange") == 0;
    const bool is_verify = std::strcmp(argv[i], "--verifyrange") == 0;
    if (!is_put && !is_verify) continue;
    long long lo = 0, hi = 0;
    if (std::sscanf(argv[i + 1], "%lld:%lld", &lo, &hi) != 2 || hi < lo) {
      std::fprintf(stderr, "leap-loadgen: bad range '%s' (want A:B)\n",
                   argv[i + 1]);
      return 1;
    }
    const bool ok = is_put ? put_range(base, lo, hi, tolerate_storefail)
                           : verify_range(base, lo, hi);
    if (!ok) {
      std::fprintf(stderr, "leap-loadgen: %s [%lld,%lld) FAILED\n",
                   is_put ? "putrange" : "verifyrange", lo, hi);
      return 1;
    }
    std::printf("leap-loadgen: %s [%lld,%lld) ok\n",
                is_put ? "putrange" : "verifyrange", lo, hi);
    return 0;
  }

  if (!preload(base)) {
    std::fprintf(stderr,
                 "leap-loadgen: preload failed (is leapd up on %s:%u?)\n",
                 base.host.c_str(), static_cast<unsigned>(base.port));
    return 1;
  }

  leap::harness::print_figure_header(
      std::cout, "leap-loadgen: leapd throughput + tail latency",
      base.rate > 0 ? "open loop (scheduled arrivals)"
                    : "closed loop (pipelined)",
      "pipelining multiplies throughput per connection (burst batching "
      "commits a whole pipelined window in one server txn); under "
      "overload, shed counts admission-controlled ops and dropped "
      "counts sends the full window forced the schedule to skip");
  char label_buf[48];
  std::snprintf(label_buf, sizeof(label_buf), "t%u_p%zu", base.threads,
                base.pipeline);
  const std::string label = label_buf;
  const GenResult result = run_config(base);
  const double ops_per_sec =
      result.seconds > 0 ? static_cast<double>(result.ops) / result.seconds
                         : 0;
  const auto us = [](std::uint64_t ns) {
    std::ostringstream out;
    out << std::fixed << std::setprecision(1)
        << static_cast<double>(ns) / 1e3;
    return out.str();
  };
  leap::harness::Table table({"label", "offered/s", "goodput/s", "shed",
                              "dropped", "p50 us", "p99 us", "p999 us"});
  table.add_row(
      {label,
       base.rate > 0 ? leap::harness::Table::format_ops(base.rate)
                     : "closed",
       leap::harness::Table::format_ops(ops_per_sec),
       std::to_string(result.shed), std::to_string(result.dropped),
       us(result.hist.percentile(0.50)), us(result.hist.percentile(0.99)),
       us(result.hist.percentile(0.999))});
  table.print(std::cout);
  if (result.failures > 0) {
    std::fprintf(stderr, "leap-loadgen: %llu connection failures\n",
                 static_cast<unsigned long long>(result.failures));
  }

  // Fetch the server's own counters (the Stats opcode) so the run
  // reports both sides of the story; scripts/net_smoke.sh greps this.
  {
    Client probe;
    if (probe.connect(base.host, base.port, base.timeout_ms)) {
      if (const auto s = probe.stats()) {
        std::printf(
            "leap-loadgen: server stats ops=%llu shed=%llu "
            "queue_hwm=%llu stm_retries=%llu accept_pauses=%llu "
            "emfile_sheds=%llu wal_appends=%llu wal_fsyncs=%llu "
            "group_ops=%llu flushes=%llu runs=%llu cold_hits=%llu "
            "recovered=%llu fail_stop=%llu corrupt=%llu "
            "ckpt_retries=%llu\n",
            static_cast<unsigned long long>(s->ops),
            static_cast<unsigned long long>(s->shed),
            static_cast<unsigned long long>(s->queue_hwm),
            static_cast<unsigned long long>(s->stm_retries),
            static_cast<unsigned long long>(s->accept_pauses),
            static_cast<unsigned long long>(s->emfile_sheds),
            static_cast<unsigned long long>(s->wal_appends),
            static_cast<unsigned long long>(s->wal_fsyncs),
            static_cast<unsigned long long>(s->wal_group_ops),
            static_cast<unsigned long long>(s->store_flushes),
            static_cast<unsigned long long>(s->store_runs),
            static_cast<unsigned long long>(s->cold_hits),
            static_cast<unsigned long long>(s->recovered_ops),
            static_cast<unsigned long long>(s->store_fail_stop),
            static_cast<unsigned long long>(s->corrupt_blocks),
            static_cast<unsigned long long>(s->checkpoint_retries));
      }
    }
  }

  if (const char* path = std::getenv("LEAP_BENCH_JSON")) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"bench\": \"net_loadgen\",\n"
        << "  \"keys\": " << base.keys << ",\n"
        << "  \"preload\": " << base.preload << ",\n"
        << "  \"mix_get_put_erase_scan_txn\": \"" << base.mix.get << ":"
        << base.mix.put << ":" << base.mix.erase << ":" << base.mix.scan
        << ":" << base.mix.txn << "\",\n"
        << "  \"seconds_per_point\": " << base.seconds << ",\n";
    out << std::fixed;
    out.precision(1);
    out << "  \"" << label << "_offered_per_sec\": " << base.rate << ",\n"
        << "  \"" << label << "_ops_per_sec\": " << ops_per_sec << ",\n"
        << "  \"" << label << "_shed\": " << result.shed << ",\n"
        << "  \"" << label << "_dropped\": " << result.dropped << ",\n"
        << "  \"" << label << "_p50_ns\": " << result.hist.percentile(0.50)
        << ",\n"
        << "  \"" << label << "_p99_ns\": " << result.hist.percentile(0.99)
        << ",\n"
        << "  \"" << label
        << "_p999_ns\": " << result.hist.percentile(0.999);
    out << "\n}\n";
  }

  if (result.ops == 0 || result.failures > 0) return 1;
  std::printf("leap-loadgen: %llu ops total, clean run\n",
              static_cast<unsigned long long>(result.ops));
  return 0;
}
