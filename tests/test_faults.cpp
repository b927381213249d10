// Crash-point torture battery for the durable tier's failure
// semantics (leaplist/store/io.hpp + store.hpp). Everything here runs
// the store over a FaultIo so the disk fails deterministically at the
// N-th syscall, then recovers on the real Io and checks the acked-
// durable contract from both sides:
//
//   * the fsync-never-acks regression: one failed fdatasync means the
//     batch answers false, the store fail-stops read-only, the sync is
//     NEVER retried (fsyncgate), and a restart forgets the batch;
//   * the battery proper: a fixed scripted workload is dry-run once to
//     count its matching syscalls (N), then re-run once per fault
//     index k = 1..N with a sticky fault armed at call k — after every
//     single run, recovery on the real Io must show every acked write
//     present (group), every failed write absent, and no torn state,
//     across both fsync modes and two fault kinds;
//   * mid-life run corruption: a bit flipped inside a checkpointed
//     run's first block is a counted read error (corrupt_blocks) that
//     degrades the block to "absent here" — never a wrong answer, and
//     never fail-stop;
//   * the wire: a leapd server whose store fail-stops answers writes
//     Err::kStoreFailed on the SAME connection while gets, scans, and
//     Stats keep serving, and a restart on a healthy Io recovers.
//
// Every test runs in a fresh mkdtemp directory and removes it; the
// file is in the ASan and TSan CI jobs.
#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "leaplist/net/client.hpp"
#include "leaplist/net/server.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/store/io.hpp"
#include "leaplist/store/store.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"

namespace store = leap::store;
namespace net = leap::net;

namespace {

using MapType = store::Store::MapType;

std::string make_dir() {
  char buf[] = "/tmp/leapfault-test-XXXXXX";
  CHECK(::mkdtemp(buf) != nullptr);
  return buf;
}

void remove_dir(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

/// Deterministic value oracle; the round tag makes every (key, round)
/// value distinct, so an un-acked overwrite can never masquerade as an
/// acked one.
std::int64_t value_of(std::int64_t key, std::int64_t round = 0) {
  return key * 31 + 7 + round * 1'000'003;
}

/// One batch through log_batch with the server's STM closure shape.
/// Returns log_batch's verdict — the ack decision under test.
[[nodiscard]] bool apply_batch(store::Store& st, MapType& map,
                               const std::vector<store::LogOp>& ops) {
  return st.log_batch(ops.data(), ops.size(), [&] {
    leap::txn([&](leap::stm::Tx& tx) {
      for (const auto& op : ops) {
        if (op.erase) {
          map.erase_in(tx, op.key);
        } else {
          map.insert_in(tx, op.key, op.value);
        }
      }
    });
  });
}

std::optional<std::int64_t> lookup(store::Store& st, MapType& map,
                                   std::int64_t key) {
  if (auto hot = map.get(key)) return hot;
  return st.get_cold(key);
}

// --- regression: a failed fdatasync never acks, and is never retried --

void test_fsync_failure_never_acks() {
  const std::string dir = make_dir();
  store::FaultIo fio(store::real_io());  // unarmed: pass-through
  MapType map({.shards = 1});
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.fsync_mode = store::FsyncMode::kGroup;
  opts.flush_poll_ms = 0;
  opts.io = &fio;
  {
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));

    // Healthy batch: acked.
    CHECK(apply_batch(st, map, {{false, 1, value_of(1)}}));
    CHECK(!st.fail_stop());

    // One-shot sync failure: if the store EVER retried the fdatasync,
    // the retry would succeed and this batch would (wrongly) ack —
    // the CHECKs below pin both the verdict and the call count.
    fio.arm(*store::parse_fault_spec("sync:1:syncfail"));
    CHECK(!apply_batch(st, map, {{false, 2, value_of(2)}}));
    CHECK(st.fail_stop());
    CHECK_EQ(st.stats().fail_stop, std::uint64_t{1});
    CHECK(!st.last_error().empty());

    // Subsequent mutations are rejected BEFORE apply: the memtable
    // never sees key 3.
    CHECK(!apply_batch(st, map, {{false, 3, value_of(3)}}));
    CHECK(!map.get(3).has_value());

    // Reads keep serving off the read-only store.
    const auto got = lookup(st, map, 1);
    CHECK(got.has_value());
    CHECK_EQ(*got, value_of(1));
    std::vector<store::Store::ScanPair> out;
    CHECK(st.scan_merged(-1, 100, out) >= 1);

    st.close();
    // Exactly ONE sync-point call matched since arming: the failed
    // fdatasync. No retry, no close-time sync on the unhealthy shard.
    CHECK_EQ(fio.matched_calls(), std::uint64_t{1});
  }

  // Restart on the real Io: the acked write is back, the failed and
  // the rejected ones are forgotten — exactly the un-acked contract.
  {
    MapType map2({.shards = 1});
    store::StoreOptions ropts = opts;
    ropts.io = nullptr;
    store::Store st(map2, ropts);
    std::string err;
    CHECK(st.open(&err));
    CHECK(!st.fail_stop());
    const auto got = lookup(st, map2, 1);
    CHECK(got.has_value());
    CHECK_EQ(*got, value_of(1));
    CHECK(!lookup(st, map2, 2).has_value());
    CHECK(!lookup(st, map2, 3).has_value());
    st.close();
  }
  remove_dir(dir);
  leap::test::finish("faults fsync never acks");
}

// --- the torture battery ----------------------------------------------

struct BatteryLog {
  std::map<std::int64_t, std::int64_t> oracle;  // acked state, exact
  std::set<std::pair<std::int64_t, std::int64_t>> acked_values;
  std::set<std::pair<std::int64_t, std::int64_t>> unacked_puts;
  std::set<std::int64_t> touched;
};

/// The scripted workload: 8 put batches, an erase batch, a checkpoint,
/// 4 more put batches, one overwrite batch, close. Single shard and no
/// background flusher, so the syscall sequence is a pure function of
/// the workload — armed at the k-th matching call, the fault fires at
/// the same place every time.
void run_workload(store::Store& st, MapType& map, BatteryLog& log) {
  auto run_batch = [&](const std::vector<store::LogOp>& ops) {
    const bool ok = apply_batch(st, map, ops);
    if (!ok) CHECK(st.fail_stop());  // false only ever means fail-stop
    for (const auto& op : ops) {
      log.touched.insert(op.key);
      if (ok) {
        if (op.erase) {
          log.oracle.erase(op.key);
        } else {
          log.oracle[op.key] = op.value;
          log.acked_values.insert({op.key, op.value});
        }
      } else if (!op.erase) {
        log.unacked_puts.insert({op.key, op.value});
      }
    }
  };
  for (std::int64_t b = 0; b < 8; ++b) {
    std::vector<store::LogOp> ops;
    for (std::int64_t i = 0; i < 3; ++i) {
      const std::int64_t key = b * 3 + i;
      ops.push_back({false, key, value_of(key, b)});
    }
    run_batch(ops);
  }
  run_batch({{true, 0, 0}, {true, 1, 0}, {true, 2, 0}});
  st.checkpoint();
  for (std::int64_t b = 8; b < 12; ++b) {
    std::vector<store::LogOp> ops;
    for (std::int64_t i = 0; i < 3; ++i) {
      const std::int64_t key = b * 3 + i;
      ops.push_back({false, key, value_of(key, b)});
    }
    run_batch(ops);
  }
  run_batch({{false, 3, value_of(3, 99)},
             {false, 4, value_of(4, 99)},
             {false, 5, value_of(5, 99)}});
  st.close();
}

/// Recover `dir` on the real Io and hold the recovered state against
/// the battery log. group: exact oracle equality — every acked
/// write present with its acked value, everything else absent. kOff
/// acks on append (durability is best-effort by contract), so the
/// strong direction is weakened to: nothing un-acked ever surfaces,
/// and every surfaced value was once acked.
void check_recovery(const std::string& dir, store::FsyncMode mode,
                    const BatteryLog& log) {
  MapType map({.shards = 1});
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.fsync_mode = mode;
  opts.flush_poll_ms = 0;
  store::Store st(map, opts);
  std::string err;
  CHECK(st.open(&err));
  CHECK(!st.fail_stop());
  for (const std::int64_t key : log.touched) {
    const auto got = lookup(st, map, key);
    if (mode != store::FsyncMode::kOff) {
      const auto want = log.oracle.find(key);
      if (want != log.oracle.end()) {
        CHECK(got.has_value());
        CHECK_EQ(*got, want->second);
      } else {
        CHECK(!got.has_value());
      }
    } else if (got.has_value()) {
      CHECK(log.acked_values.count({key, *got}) == 1);
      CHECK(log.unacked_puts.count({key, *got}) == 0);
    }
  }
  st.close();
}

void test_torture_battery() {
  const struct {
    const char* name;
    store::FsyncMode mode;
  } modes[] = {
      {"group", store::FsyncMode::kGroup},
      {"off", store::FsyncMode::kOff},
  };
  const char* kinds[] = {"any:1:eio:sticky", "sync:1:syncfail:sticky"};

  for (const auto& m : modes) {
    for (const char* kind : kinds) {
      store::FaultSpec spec = *store::parse_fault_spec(kind);

      // Dry run: arm as a pure counter (nth = UINT64_MAX never fires)
      // and learn N, the number of matching syscalls the workload
      // makes in this mode.
      std::uint64_t total = 0;
      {
        const std::string dir = make_dir();
        store::FaultIo fio(store::real_io());
        MapType map({.shards = 1});
        store::StoreOptions opts;
        opts.data_dir = dir;
        opts.fsync_mode = m.mode;
        opts.flush_poll_ms = 0;
        opts.io = &fio;
        store::Store st(map, opts);
        std::string err;
        CHECK(st.open(&err));
        store::FaultSpec counter = spec;
        counter.nth = std::numeric_limits<std::uint64_t>::max();
        fio.arm(counter);
        BatteryLog log;
        run_workload(st, map, log);
        total = fio.matched_calls();
        CHECK_EQ(fio.faults_injected(), std::uint64_t{0});
        check_recovery(dir, m.mode, log);  // clean run sanity
        remove_dir(dir);
      }
      CHECK(total > 0);

      // The battery: one full run per fault index.
      for (std::uint64_t k = 1; k <= total; ++k) {
        const std::string dir = make_dir();
        store::FaultIo fio(store::real_io());
        MapType map({.shards = 1});
        store::StoreOptions opts;
        opts.data_dir = dir;
        opts.fsync_mode = m.mode;
        opts.flush_poll_ms = 0;
        opts.io = &fio;
        store::Store st(map, opts);
        std::string err;
        CHECK(st.open(&err));
        store::FaultSpec armed = spec;
        armed.nth = k;
        fio.arm(armed);
        BatteryLog log;
        run_workload(st, map, log);
        CHECK(fio.faults_injected() >= 1);  // every k <= N fires
        check_recovery(dir, m.mode, log);
        remove_dir(dir);
      }
      std::printf("  battery %s/%s: %llu fault points\n", m.name, kind,
                  static_cast<unsigned long long>(total));
    }
  }
  leap::test::finish("faults torture battery");
}

// --- mid-life run corruption is a counted read error ------------------

void test_run_bitflip_corrupt_block() {
  const std::string dir = make_dir();
  store::FaultIo fio(store::real_io());
  MapType map({.shards = 1});
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.fsync_mode = store::FsyncMode::kGroup;
  opts.flush_poll_ms = 0;
  opts.io = &fio;
  store::Store st(map, opts);
  std::string err;
  CHECK(st.open(&err));

  // Ack ~600 keys (3 run blocks at 256 entries/block), then arm a
  // one-shot bit flip on the NEXT write: each batch's group commit
  // drained the WAL buffer, so checkpoint's first write-point call is
  // the run's block 0 — the flip corrupts stored entries while the
  // footer (whose CRC covers only index+bloom+footer) stays valid and
  // the run still loads.
  constexpr std::int64_t kKeys = 600;
  for (std::int64_t at = 0; at < kKeys; at += 50) {
    std::vector<store::LogOp> ops;
    for (std::int64_t k = at; k < at + 50; ++k) {
      ops.push_back({false, k, value_of(k)});
    }
    CHECK(apply_batch(st, map, ops));
  }
  fio.arm(*store::parse_fault_spec("write:1:bitflip"));
  st.checkpoint();
  CHECK_EQ(fio.faults_injected(), std::uint64_t{1});
  CHECK(st.stats().runs >= 1);
  CHECK(!st.fail_stop());  // corruption at rest is NOT a write failure

  // A block-0 key: the CRC check catches the flip, the store counts it
  // and degrades the block to "absent here" — never a wrong value.
  const auto bad = lookup(st, map, 0);
  CHECK(!bad.has_value());
  CHECK(st.stats().corrupt_blocks >= 1);
  CHECK(!st.fail_stop());

  // A key in a later, untouched block still reads back exactly.
  const auto good = lookup(st, map, 599);
  CHECK(good.has_value());
  CHECK_EQ(*good, value_of(599));

  st.close();
  remove_dir(dir);
  leap::test::finish("faults run bitflip");
}

// --- the wire: fail-stop over a live connection -----------------------

void test_wire_store_failed() {
  const std::string dir = make_dir();
  store::FaultIo fio(store::real_io());
  {
    net::ServerOptions sopts;
    sopts.port = 0;
    sopts.workers = 1;
    sopts.shards = 1;
    sopts.data_dir = dir;
    sopts.fsync_mode = store::FsyncMode::kGroup;
    sopts.store_io = &fio;
    net::Server server(sopts);
    std::string err;
    CHECK(server.start(&err));

    net::Client c;
    CHECK(c.connect("127.0.0.1", server.port(), 5000));
    CHECK(c.put(10, 111));  // healthy: acked

    // Kill the disk under the store (sticky: every sync from here on
    // fails). The next write must answer kStoreFailed — same
    // connection, which must survive.
    fio.arm(*store::parse_fault_spec("sync:1:syncfail:sticky"));
    c.queue_put(20, 222);
    CHECK(c.flush());
    auto resp = c.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == net::Status::kError);
    CHECK(static_cast<net::Err>(resp->error) == net::Err::kStoreFailed);
    CHECK(!c.failed());

    // Reads and scans still serve on the same connection.
    const auto got = c.get(10);
    CHECK(got.has_value());
    CHECK_EQ(*got, std::int64_t{111});
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    CHECK(c.scan(0, 1'000, 0, pairs) >= 1);

    // An erase is a write too.
    c.queue_erase(10);
    CHECK(c.flush());
    resp = c.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == net::Status::kError);
    CHECK(static_cast<net::Err>(resp->error) == net::Err::kStoreFailed);

    // The Stats opcode reports the condition.
    const auto stats = c.stats();
    CHECK(stats.has_value());
    CHECK_EQ(stats->store_fail_stop, std::uint64_t{1});

    server.stop();
  }

  // Restart on the healthy real Io over the same directory: the acked
  // write recovered, the store-failed one correctly forgotten.
  {
    net::ServerOptions sopts;
    sopts.port = 0;
    sopts.workers = 1;
    sopts.shards = 1;
    sopts.data_dir = dir;
    sopts.fsync_mode = store::FsyncMode::kGroup;
    net::Server server(sopts);
    std::string err;
    CHECK(server.start(&err));
    net::Client c;
    CHECK(c.connect("127.0.0.1", server.port(), 5000));
    const auto got = c.get(10);
    CHECK(got.has_value());
    CHECK_EQ(*got, std::int64_t{111});
    CHECK(!c.get(20).has_value());
    CHECK(c.put(30, 333));  // healthy again: writes ack
    const auto stats = c.stats();
    CHECK(stats.has_value());
    CHECK_EQ(stats->store_fail_stop, std::uint64_t{0});
    server.stop();
  }
  remove_dir(dir);
  leap::test::finish("faults wire store failed");
}

}  // namespace

int main() {
  test_fsync_failure_never_acks();
  test_torture_battery();
  test_run_bitflip_corrupt_block();
  test_wire_store_failed();
  return leap::test::failure_count() == 0 ? 0 : 1;
}
