// Crash-recovery battery: a REAL kill -9, not a simulation. Each
// scenario forks a child process that runs a full leap::net::Server on
// a scratch --data-dir, drives acknowledged writes into it over
// loopback TCP, SIGKILLs the child mid-life, restarts a server over
// the same directory in-process, and verifies every acknowledged write
// against a client-side std::map oracle — point gets AND a full scan.
// Scenarios cover fsync group at two crash points, a crash with checkpoint
// flushes already on disk (tiny --checkpoint-bytes), and a double
// crash (crash → recover → write more → crash again).
//
// The fork happens while this process is single-threaded (servers
// started by earlier scenarios are stopped and joined first), so the
// battery is safe under ASan and TSan. kOff mode is deliberately NOT
// crash-tested here: its contract allows losing the buffered tail on
// kill -9 (tests/test_store.cpp covers its clean-close durability).
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "leaplist/net/client.hpp"
#include "leaplist/net/server.hpp"
#include "test_common.hpp"

namespace net = leap::net;
namespace store = leap::store;

namespace {

using Oracle = std::map<std::int64_t, std::int64_t>;

std::string make_dir() {
  char buf[] = "/tmp/leap-recovery-XXXXXX";
  CHECK(::mkdtemp(buf) != nullptr);
  return buf;
}

void remove_dir(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

net::ServerOptions server_options(const std::string& dir,
                                  store::FsyncMode mode,
                                  std::size_t checkpoint_bytes) {
  net::ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.shards = 4;
  opts.key_hi = 1'000'000;
  opts.data_dir = dir;
  opts.fsync_mode = mode;
  opts.checkpoint_bytes = checkpoint_bytes;
  return opts;
}

/// Deterministic value oracle: expected value is a pure function of
/// the key and a round tag (same scheme as tests/test_store.cpp and
/// loadgen's verify mode).
std::int64_t value_of(std::int64_t key, std::int64_t round = 0) {
  return key * 31 + 7 + round * 1'000'003;
}

/// Fork a child that serves `opts` until it is SIGKILLed. The child
/// writes its ephemeral port (0 on startup failure) down a pipe and
/// then blocks forever; it never returns. Returns the child pid and
/// sets *port.
pid_t spawn_server(const net::ServerOptions& opts, std::uint16_t* port) {
  int fds[2];
  CHECK(::pipe(fds) == 0);
  std::fflush(stdout);  // don't duplicate buffered output into the child
  std::fflush(stderr);
  const pid_t pid = ::fork();
  CHECK(pid >= 0);
  if (pid == 0) {
    // Child: serve until killed. _exit (not exit) on any failure so no
    // parent-inherited atexit/sanitizer hooks run twice.
    ::close(fds[0]);
    net::Server server(opts);
    std::string err;
    std::uint16_t p = server.start(&err) ? server.port() : 0;
    (void)!::write(fds[1], &p, sizeof(p));
    ::close(fds[1]);
    if (p == 0) _exit(1);
    for (;;) ::pause();
  }
  ::close(fds[1]);
  *port = 0;
  CHECK(::read(fds[0], port, sizeof(*port)) ==
        static_cast<ssize_t>(sizeof(*port)));
  ::close(fds[0]);
  CHECK(*port != 0);
  return pid;
}

void kill9(pid_t pid) {
  CHECK(::kill(pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(pid, &status, 0) == pid);
  CHECK(WIFSIGNALED(status));
}

/// Acknowledged writes: every put/erase here completed its client
/// round trip before the crash, so recovery MUST reproduce it.
void write_round(net::Client& client, Oracle& oracle, std::int64_t lo,
                 std::int64_t hi, std::int64_t round) {
  for (std::int64_t k = lo; k < hi; ++k) {
    (void)client.put(k, value_of(k, round));
    CHECK(!client.failed());
    oracle[k] = value_of(k, round);
  }
  for (std::int64_t k = lo; k < hi; k += 7) {
    (void)client.erase(k);
    CHECK(!client.failed());
    oracle.erase(k);
  }
}

/// Every oracle key readable with the oracle's value, absent keys
/// absent, and one full scan equal to the oracle, via a live server.
void verify_against_oracle(net::Client& client, const Oracle& oracle) {
  for (const auto& [key, value] : oracle) {
    const auto got = client.get(key);
    CHECK(got.has_value());
    CHECK_EQ(*got, value);
  }
  for (std::int64_t k = 900'000; k < 900'020; ++k) {
    CHECK(!client.get(k).has_value());
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  const std::ptrdiff_t n = client.scan(
      0, 1'000'000, static_cast<std::uint32_t>(oracle.size() + 64), pairs);
  CHECK_EQ(n, static_cast<std::ptrdiff_t>(oracle.size()));
  auto it = oracle.begin();
  for (const auto& [key, value] : pairs) {
    CHECK(it != oracle.end());
    CHECK_EQ(key, it->first);
    CHECK_EQ(value, it->second);
    ++it;
  }
}

/// One full crash cycle: child server ← acked writes ← kill -9 →
/// in-process restart on the same dir → verify. `checkpoint_bytes`
/// small enough forces flushes DURING the write phase, so the crash
/// lands on a runs+WAL mix rather than WAL-only.
void run_crash_cycle(store::FsyncMode mode, std::size_t checkpoint_bytes,
                     std::int64_t nkeys, const char* name) {
  const std::string dir = make_dir();
  Oracle oracle;
  {
    std::uint16_t port = 0;
    const pid_t pid =
        spawn_server(server_options(dir, mode, checkpoint_bytes), &port);
    net::Client client;
    CHECK(client.connect("127.0.0.1", port));
    write_round(client, oracle, 0, nkeys, 0);
    kill9(pid);  // no shutdown, no final fsync — the WAL is all there is
  }
  {
    net::Server server(server_options(dir, mode, checkpoint_bytes));
    std::string err;
    CHECK(server.start(&err));
    const auto stats = server.stats();
    // Something was actually recovered (WAL replay and/or run load).
    CHECK(stats.recovered_ops + stats.store_runs > 0);
    net::Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    verify_against_oracle(client, oracle);
    server.stop();
  }
  remove_dir(dir);
  leap::test::finish(name);
}

/// Crash, recover, keep writing through the recovered server, crash
/// AGAIN (kill -9 on the second server too), recover once more: the
/// replay-over-runs-then-crash-again composition.
void test_double_crash() {
  const std::string dir = make_dir();
  const auto mode = store::FsyncMode::kGroup;
  constexpr std::size_t kCheckpoint = 8u << 10;  // force mid-run flushes
  Oracle oracle;
  for (std::int64_t round = 0; round < 2; ++round) {
    std::uint16_t port = 0;
    const pid_t pid =
        spawn_server(server_options(dir, mode, kCheckpoint), &port);
    net::Client client;
    CHECK(client.connect("127.0.0.1", port));
    if (round > 0) {
      // The recovered child must already serve the previous rounds.
      verify_against_oracle(client, oracle);
    }
    write_round(client, oracle, round * 150, round * 150 + 300, round);
    kill9(pid);
  }
  {
    net::Server server(server_options(dir, mode, kCheckpoint));
    std::string err;
    CHECK(server.start(&err));
    net::Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    verify_against_oracle(client, oracle);
    server.stop();
  }
  remove_dir(dir);
  leap::test::finish("recovery double crash");
}

}  // namespace

int main() {
  // WAL-only crashes (checkpoint threshold never reached) at two
  // points, in the acking fsync mode.
  run_crash_cycle(store::FsyncMode::kGroup, 4u << 20, 200,
                  "recovery kill9 fsync=group, 200 writes");
  run_crash_cycle(store::FsyncMode::kGroup, 4u << 20, 400,
                  "recovery kill9 fsync=group");
  // Tiny checkpoint bar: the crash lands on run files + a live WAL.
  run_crash_cycle(store::FsyncMode::kGroup, 8u << 10, 600,
                  "recovery kill9 with checkpoints");
  test_double_crash();
  return leap::test::failure_count() == 0 ? 0 : 1;
}
