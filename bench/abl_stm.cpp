// Ablation: the per-access cost of STM instrumentation — the number that
// motivates the whole COP/LT design (§1.2, §2.1).
//
// Compares, per shared word accessed:
//   * raw atomic read (what LT's search pays),
//   * an instrumented tx read amortized inside one long transaction
//     (what COP/tm traversals pay),
//   * a single-location read transaction (the rejected alternative of
//     §2.1: "proved to have a larger negative impact on performance"),
//   * tx writes + commit (the write-set cost COP pays for node content),
//   * write-set membership probes at growing widths,
//   * raw atomic write.
//
// Each case calls its body in a timed loop for the measurement window
// and reports ns per call and shared-word accesses per second.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "stm/stm.hpp"

namespace {

using namespace leap::stm;
using leap::harness::Table;

constexpr std::size_t kWords = 1024;

std::vector<TxField<std::uint64_t>>& shared_words() {
  static std::vector<TxField<std::uint64_t>> words(kWords);
  return words;
}

/// Keeps a computed value alive without a store the compiler could drop.
void keep(std::uint64_t value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Calls `body` in batches until `window` elapses; each call makes
/// `items` shared-word accesses. One table row: ns per call, items/s.
template <typename Body>
void time_case(Table& table, const std::string& name,
               std::chrono::milliseconds window, std::size_t items,
               Body&& body) {
  std::uint64_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  auto now = start;
  do {
    for (int i = 0; i < 64; ++i) body();
    calls += 64;
    now = std::chrono::steady_clock::now();
  } while (now < start + window);
  const double seconds = std::chrono::duration<double>(now - start).count();
  char ns[32];
  std::snprintf(ns, sizeof(ns), "%.1f",
                seconds * 1e9 / static_cast<double>(calls));
  table.add_row({name, ns,
                 Table::format_ops(static_cast<double>(calls * items) /
                                   seconds)});
}

}  // namespace

int main() {
  const auto window =
      leap::harness::bench_duration(std::chrono::milliseconds(200));
  leap::harness::print_figure_header(
      std::cout, "Ablation: STM instrumentation cost",
      "single thread, 1024 shared words; items = shared-word accesses",
      "a raw read is several times cheaper than even an amortized tx "
      "read; a one-word read transaction per access costs the most per "
      "read; write-set probes stay flat as the width grows");
  auto& words = shared_words();
  Tx& tx = tls_tx();
  std::size_t i = 0;
  Table table({"case", "ns/call", "items/s"});

  time_case(table, "raw read", window, 1,
            [&] { keep(words[i++ & (kWords - 1)].load()); });

  time_case(table, "tx read, 256 per txn", window, 256, [&] {
    atomically(tx, [&](Tx& t) {
      for (std::size_t k = 0; k < 256; ++k) {
        keep(words[i++ & (kWords - 1)].tx_read(t));
      }
    });
  });

  time_case(table, "single-location read txn", window, 1, [&] {
    atomically(tx,
               [&](Tx& t) { keep(words[i++ & (kWords - 1)].tx_read(t)); });
  });

  // 16 ~ an LT locking transaction; 600 ~ a COP 300-pair node
  // construction.
  for (const std::size_t batch : {16u, 600u}) {
    time_case(table, "tx write+commit/" + std::to_string(batch), window,
              batch, [&] {
                atomically(tx, [&](Tx& t) {
                  for (std::size_t k = 0; k < batch; ++k, ++i) {
                    words[i & (kWords - 1)].tx_write_blind(t, i);
                  }
                });
              });
  }

  // Write-set membership and read-your-writes at width W: the
  // open-addressing stamp/index behind Tx::has_write, which composable
  // typed-map ops probe once per level per operation — a linear scan
  // here goes quadratic for wide multi-op transactions. The loop checks
  // membership (present hits, absent misses) so an index regression
  // fails the smoke run loudly instead of just slowly.
  // 16 ~ one leap-list update's swing; 512 ~ a wide typed-map
  // transaction.
  std::uint64_t bad = 0;
  for (const std::size_t width : {16u, 128u, 512u}) {
    time_case(table, "write-set probe/" + std::to_string(width), window,
              2 * width, [&] {
                atomically(tx, [&](Tx& t) {
                  for (std::size_t k = 0; k < width; ++k) {
                    words[k].tx_write_blind(t, k);
                  }
                  for (std::size_t k = 0; k < width; ++k) {
                    if (!t.has_write(words[k])) ++bad;
                    keep(words[k].tx_read(t));  // read-your-writes
                  }
                  if (t.has_write(words[width])) ++bad;  // never written
                });
              });
  }
  if (bad != 0) {
    std::fprintf(stderr, "abl_stm: %llu write-set membership errors\n",
                 static_cast<unsigned long long>(bad));
    std::abort();
  }

  time_case(table, "raw write", window, 1, [&] {
    words[i & (kWords - 1)].store(i);
    ++i;
  });

  table.print(std::cout);
  return 0;
}
