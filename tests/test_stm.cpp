// STM unit + concurrency tests: read-your-writes, isolation/abort on
// conflicting commits, raw vs transactional interplay, the 8-thread
// counter-increment linearizability check, and the checked-build guard
// against writes to fields the attempt never read.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "stm/stm.hpp"
#include "test_common.hpp"
#include "util/random.hpp"

using namespace leap::stm;

namespace {

void test_basic_commit() {
  TxField<std::uint64_t> field;
  CHECK_EQ(field.load(), 0u);
  Tx& tx = tls_tx();
  atomically(tx, [&](Tx& t) { field.tx_write_blind(t, 41u); });
  CHECK_EQ(field.load(), 41u);
  field.store(7u);
  CHECK_EQ(field.load(), 7u);
}

void test_read_your_writes() {
  TxField<std::uint64_t> a;
  TxField<std::uint64_t> b;
  Tx& tx = tls_tx();
  atomically(tx, [&](Tx& t) {
    a.tx_write_blind(t, 10u);
    CHECK_EQ(a.tx_read(t), 10u);  // uncommitted write visible to self
    a.tx_write(t, 20u);
    CHECK_EQ(a.tx_read(t), 20u);  // last write wins
    b.tx_write_blind(t, a.tx_read(t) + 1);
  });
  CHECK_EQ(a.load(), 20u);
  CHECK_EQ(b.load(), 21u);
}

void test_explicit_abort() {
  TxField<std::uint64_t> field;
  Tx& tx = tls_tx();
  const bool committed = try_atomically(tx, [&](Tx& t) {
    field.tx_write_blind(t, 99u);
    t.abort();
  });
  CHECK(!committed);
  CHECK_EQ(field.load(), 0u);  // aborted writes never publish
}

void test_conflict_abort_and_retry() {
  // 8 threads × N increments of one counter: every successful commit
  // must see the latest value, so lost updates mean a broken STM.
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kIncrements = 5000;
  TxField<std::uint64_t> counter;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> total_aborts{0};
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Tx& tx = tls_tx();
      const std::uint64_t aborts_before = tx.aborts();
      for (std::uint64_t n = 0; n < kIncrements; ++n) {
        atomically(tx, [&](Tx& t) {
          counter.tx_write(t, counter.tx_read(t) + 1);
        });
      }
      total_aborts.fetch_add(tx.aborts() - aborts_before);
    });
  }
  for (auto& thread : threads) thread.join();
  CHECK_EQ(counter.load(), kThreads * kIncrements);
}

void test_isolation_invariant() {
  // Writers keep a + b constant; transactional readers must never
  // observe a torn pair (TL2 opacity).
  TxField<std::uint64_t> a(1000u);
  TxField<std::uint64_t> b(0u);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Tx& tx = tls_tx();
    leap::util::Xoshiro256 rng(3);
    while (!stop.load()) {
      const std::uint64_t delta = rng.next_below(10);
      atomically(tx, [&](Tx& t) {
        const std::uint64_t va = a.tx_read(t);
        const std::uint64_t vb = b.tx_read(t);
        a.tx_write(t, va - delta);
        b.tx_write(t, vb + delta);
      });
    }
  });
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      Tx& tx = tls_tx();
      for (int n = 0; n < 20000; ++n) {
        std::uint64_t sum = 0;
        atomically(tx, [&](Tx& t) {
          sum = a.tx_read(t) + b.tx_read(t);
        });
        CHECK_EQ(sum, 1000u);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  CHECK_EQ(a.load() + b.load(), 1000u);
}

void test_typed_fields() {
  TxField<std::int64_t> signed_field(-5);
  CHECK_EQ(signed_field.load(), -5);
  Tx& tx = tls_tx();
  atomically(tx, [&](Tx& t) {
    signed_field.tx_write(t, signed_field.tx_read(t) - 10);
  });
  CHECK_EQ(signed_field.load(), -15);
}

void test_deferred_actions() {
  // Commit actions run exactly once after the committing attempt; abort
  // actions run per aborted attempt. Force one abort by raw-storing to
  // a field after the transaction read it (the raw store bumps the
  // clock, so the next in-tx read sees a too-new version).
  TxField<std::uint64_t> a;
  TxField<std::uint64_t> b;
  Tx& tx = tls_tx();
  int commits = 0;
  int aborts = 0;
  int attempts = 0;
  atomically(tx, [&](Tx& t) {
    t.defer_on_commit([&] { ++commits; });
    t.defer_on_abort([&] { ++aborts; });
    (void)a.tx_read(t);
    if (attempts++ == 0) b.store(1u);
    (void)b.tx_read(t);  // first attempt: version > rv_, aborts
    a.tx_write(t, 7u);
  });
  CHECK_EQ(attempts, 2);
  CHECK_EQ(commits, 1);
  CHECK_EQ(aborts, 1);
  CHECK_EQ(a.load(), 7u);
  // A failed try_atomically runs abort actions, not commit actions.
  commits = 0;
  aborts = 0;
  const bool committed = try_atomically(tx, [&](Tx& t) {
    t.defer_on_commit([&] { ++commits; });
    t.defer_on_abort([&] { ++aborts; });
    t.abort();
  });
  CHECK(!committed);
  CHECK_EQ(commits, 0);
  CHECK_EQ(aborts, 1);
}

void test_flat_nesting() {
  // atomically on an already-active Tx enlists in the enclosing
  // transaction: one commit publishes both closures' writes, and inner
  // deferred actions run at the outer outcome.
  TxField<std::uint64_t> a;
  TxField<std::uint64_t> b;
  Tx& tx = tls_tx();
  int inner_commits = 0;
  const std::uint64_t commits_before = tx.commits();
  atomically(tx, [&](Tx& t) {
    a.tx_write_blind(t, 1u);
    atomically(t, [&](Tx& inner) {
      CHECK(&inner == &t);
      CHECK(inner.in_tx());
      inner.defer_on_commit([&] { ++inner_commits; });
      b.tx_write_blind(inner, a.tx_read(inner) + 1);
    });
    CHECK(try_atomically(t, [&](Tx& inner) { a.tx_write(inner, 5u); }));
  });
  CHECK_EQ(tx.commits(), commits_before + 1);  // one flat transaction
  CHECK_EQ(inner_commits, 1);
  CHECK_EQ(a.load(), 5u);
  CHECK_EQ(b.load(), 2u);
  // has_write exposes the buffered write set to composable ops.
  atomically(tx, [&](Tx& t) {
    CHECK(!t.has_write(a));
    a.tx_write_blind(t, 9u);
    CHECK(t.has_write(a));
    CHECK(!t.has_write(b));
  });
}

void test_unread_write_guard() {
  // A write licensed by a read, and a declared blind write, commit in
  // every build. Checked builds reject a plain write to a field the
  // attempt never read: a child process makes one and must abort.
  TxField<std::uint64_t> field;
  Tx& tx = tls_tx();
  atomically(tx, [&](Tx& t) { field.tx_write(t, field.tx_read(t) + 1); });
  CHECK_EQ(field.load(), 1u);
  atomically(tx, [&](Tx& t) { field.tx_write_blind(t, 5u); });
  CHECK_EQ(field.load(), 5u);
  if constexpr (kChecks) {
    const pid_t child = ::fork();
    CHECK(child >= 0);
    if (child == 0) {
      (void)std::freopen("/dev/null", "w", stderr);
      atomically(tls_tx(), [&](Tx& t) { field.tx_write(t, 6u); });
      std::_Exit(0);
    }
    int status = 0;
    CHECK_EQ(::waitpid(child, &status, 0), child);
    CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
    CHECK_EQ(field.load(), 5u);
  }
}

void test_endless_abort_guard() {
  // A closure that aborts on every attempt, the irrevocable ones
  // included, would retry forever; checked builds bound the irrevocable
  // attempts and abort instead. A child process runs one.
  if constexpr (kChecks) {
    const pid_t child = ::fork();
    CHECK(child >= 0);
    if (child == 0) {
      (void)std::freopen("/dev/null", "w", stderr);
      atomically(tls_tx(), [](Tx& t) { t.abort(); });
      std::_Exit(0);
    }
    int status = 0;
    CHECK_EQ(::waitpid(child, &status, 0), child);
    CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
  }
}

}  // namespace

int main() {
  test_basic_commit();
  test_read_your_writes();
  test_explicit_abort();
  test_conflict_abort_and_retry();
  test_isolation_invariant();
  test_typed_fields();
  test_deferred_actions();
  test_flat_nesting();
  test_unread_write_guard();
  test_endless_abort_guard();
  return leap::test::finish("test_stm");
}
