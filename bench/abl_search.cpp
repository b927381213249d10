// Ablation: predecessor-search synchronization modes (§2.1).
//
// The paper considered three ways to make the uninstrumented traversal
// safe and picked marked pointers:
//   * marked pointers + raw reads      (shipped: Leap-LT's search)
//   * single-location read transaction per pointer hop — "this
//     alternative proved to have a larger negative impact on performance
//     with the current GCC-TM implementation. Nevertheless, we expect it
//     will exhibit the best performance with HTM support."
//   * the fully instrumented search    (what Leap-tm pays)
//
// This bench measures all three against the same preloaded list.
//
// The second table sweeps node_size for in-node key resolution:
// std::lower_bound vs the shipped branchless flat_lower_bound. (An
// in-node PATRICIA trie loses to the branchless search 2.9-3.7x;
// docs/benchmarks.md records that negative result.)
//
// The third table times a pipelined burst of Gets the way leapd serves
// it: n sequential get_in calls against one get_many_in, whose lookups
// step round-robin so their cache misses overlap, inside one leap::txn
// on leapd's map shape. Warm bursts run back to back; cold ones follow
// a sweep that evicts L2. Before timing, every burst size checks that
// the two paths give identical answers, and the bench exits non-zero
// when they differ (the smoke_abl_search ctest).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "leaplist/leaplist.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/txn.hpp"
#include "util/random.hpp"

using namespace leap::core;
using leap::harness::Table;

namespace {

/// Test-only head access (searches need the head sentinel).
struct ProbeList : LeapListLT {
  using LeapListLT::LeapListLT;
  Node* head() { return head_; }
};

/// The §2.1 alternative: every pointer hop is its own tiny transaction
/// (begin; read one word; commit). With lazy TL2 this is a begin +
/// orec-validated read per hop.
SearchResult search_predecessors_slrt(Node* head, int max_level, Key key) {
  SearchResult result;
  leap::stm::Tx& tx = leap::stm::tls_tx();
  while (true) {
    bool restart = false;
    Node* x = head;
    for (int i = max_level - 1; i >= 0 && !restart; --i) {
      Node* x_next = nullptr;
      while (true) {
        std::uint64_t word = 0;
        const bool committed =
            leap::stm::try_atomically(tx, [&](leap::stm::Tx& t) {
              word = x->next(i).tx_read(t);
            });
        if (!committed || leap::util::is_marked(word)) {
          restart = true;
          break;
        }
        x_next = leap::util::to_ptr<Node>(word);
        if (!x_next->live.load()) {
          restart = true;
          break;
        }
        if (x_next->high_raw() >= key) break;
        x = x_next;
      }
      result.pa[i] = x;
      result.na[i] = x_next;
    }
    if (!restart) return result;
  }
}

template <typename SearchFn>
double measure_searches(ProbeList& list, SearchFn&& search, int seconds_ms) {
  leap::util::Xoshiro256 rng(4242);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(seconds_ms);
  std::uint64_t count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 512; ++i) {
      const Key key = static_cast<Key>(1 + rng.next_below(100000));
      const SearchResult sr = search(key);
      asm volatile("" : : "g"(&sr) : "memory");
      ++count;
    }
  }
  return static_cast<double>(count) /
         (static_cast<double>(seconds_ms) / 1000.0);
}

/// leapd's map: 8 TM shards over the [0, keys) window, node size 300,
/// every even key preloaded (perfbench's point_get shape).
using BurstMap = leap::ShardedMap<std::int64_t, std::int64_t, leap::policy::TM>;

using Hits = std::vector<std::optional<std::int64_t>>;

void get_sequential(const BurstMap& map, const std::vector<std::int64_t>& keys,
                    Hits& out) {
  leap::txn([&](leap::stm::Tx& tx) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      out[j] = map.get_in(tx, keys[j]);
    }
  });
}

void get_batched(const BurstMap& map, const std::vector<std::int64_t>& keys,
                 Hits& out) {
  leap::txn([&](leap::stm::Tx& tx) {
    map.get_many_in(tx, keys.data(), keys.size(), out.data());
  });
}

/// Reads a buffer four times this core's L2 (2 MiB on the recorded
/// host), so the next burst starts with the map out of L2 but in L3.
class L2Evictor {
 public:
  void sweep() {
    for (std::size_t i = 0; i < buf_.size(); i += 64) sum_ += buf_[i];
    asm volatile("" : : "g"(&sum_) : "memory");
  }

 private:
  std::vector<unsigned char> buf_ = std::vector<unsigned char>(8u << 20, 1);
  unsigned sum_ = 0;
};

/// Per-Get ns of one path at one burst size. Warm: bursts back to back
/// for the window. Cold: each burst timed alone after an L2 sweep.
template <typename Path>
double per_get_ns(const BurstMap& map, std::int64_t keys_span,
                  std::size_t burst, bool cold, int window_ms, Path&& path,
                  L2Evictor& evictor) {
  leap::util::Xoshiro256 rng(31 + burst);
  std::vector<std::int64_t> keys(burst);
  Hits out(burst);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(window_ms);
  std::chrono::nanoseconds timed{0};
  std::uint64_t gets = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (std::int64_t& key : keys) {
      key = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(keys_span)));
    }
    if (cold) evictor.sweep();
    const auto start = std::chrono::steady_clock::now();
    path(map, keys, out);
    timed += std::chrono::steady_clock::now() - start;
    gets += burst;
  }
  return static_cast<double>(timed.count()) / static_cast<double>(gets);
}

/// True when get_many_in answers every burst exactly as the sequential
/// get_in calls do (and as the preload says).
bool burst_paths_agree(const BurstMap& map, std::int64_t keys_span,
                       std::size_t burst, int bursts) {
  leap::util::Xoshiro256 rng(77 + burst);
  std::vector<std::int64_t> keys(burst);
  Hits seq(burst);
  Hits batched(burst);
  for (int b = 0; b < bursts; ++b) {
    for (std::int64_t& key : keys) {
      // Mostly inside the window, some past both of its edges.
      key = static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(keys_span + 64))) -
            32;
    }
    get_sequential(map, keys, seq);
    get_batched(map, keys, batched);
    for (std::size_t j = 0; j < burst; ++j) {
      const bool present = keys[j] >= 0 && keys[j] < keys_span &&
                           keys[j] % 2 == 0;
      if (seq[j] != batched[j] || seq[j].has_value() != present ||
          (present && *seq[j] != keys[j] * 3 + 1)) {
        std::fprintf(stderr,
                     "abl_search: burst %zu key %lld: sequential and "
                     "batched gets disagree\n",
                     burst, static_cast<long long>(keys[j]));
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  const auto duration = leap::harness::bench_duration(
      std::chrono::milliseconds(200));
  const int window = static_cast<int>(duration.count());

  leap::harness::print_figure_header(
      std::cout, "Ablation: search synchronization mode",
      "predecessor searches/sec, 100K elements, single thread",
      "raw+marks fastest; per-hop single-location txns notably slower "
      "(the paper's rejected alternative); full instrumentation slowest");

  ProbeList list(Params{.node_size = 300, .max_level = 10});
  {
    std::vector<KV> pairs;
    for (Key k = 1; k <= 100000; ++k) pairs.push_back(KV{k, Value(k)});
    list.bulk_load(pairs);
  }
  Node* head = list.head();
  const int max_level = list.params().max_level;

  const double raw = measure_searches(
      list,
      [&](Key k) { return search_predecessors(head, max_level, k); },
      window);
  const double slrt = measure_searches(
      list,
      [&](Key k) { return search_predecessors_slrt(head, max_level, k); },
      window);
  const double instrumented = measure_searches(
      list,
      [&](Key k) {
        leap::stm::Tx& tx = leap::stm::tls_tx();
        SearchResult sr;
        leap::stm::atomically(tx, [&](leap::stm::Tx& t) {
          sr = search_predecessors_tx(t, head, max_level, k);
        });
        return sr;
      },
      window);

  Table table({"mode", "searches/s", "vs raw"});
  table.add_row({"raw + marks (LT)", Table::format_ops(raw),
                 Table::format_ratio(1.0)});
  table.add_row({"single-location txn/hop", Table::format_ops(slrt),
                 Table::format_ratio(slrt / raw)});
  table.add_row({"fully instrumented (tm)", Table::format_ops(instrumented),
                 Table::format_ratio(instrumented / raw)});
  table.print(std::cout);

  leap::harness::print_figure_header(
      std::cout, "Ablation: in-node key search across node_size",
      "probes/sec on node-resident key arrays",
      "the branchless lower bound beats std::lower_bound's unpredictable "
      "branch at every node size");
  {
    Table innode({"node_size", "std::lower_bound", "branchless",
                  "branchless/std"});
    leap::util::Xoshiro256 gen(99);
    for (const std::size_t k : {16u, 64u, 300u, 1000u, 4096u}) {
      // Keys the way nodes see them: a dense range slice.
      std::vector<Key> keys;
      Key next = static_cast<Key>(gen.next_below(1000));
      for (std::size_t i = 0; i < k; ++i) {
        next += 1 + static_cast<Key>(gen.next_below(5));
        keys.push_back(next);
      }
      const auto measure = [&](auto&& probe) {
        leap::util::Xoshiro256 rng(7);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(window);
        std::uint64_t count = 0;
        long sink = 0;
        while (std::chrono::steady_clock::now() < deadline) {
          for (int i = 0; i < 512; ++i) {
            sink += probe(keys[rng.next_below(keys.size())]);
            ++count;
          }
        }
        asm volatile("" : : "g"(&sink) : "memory");
        return static_cast<double>(count) /
               (static_cast<double>(window) / 1000.0);
      };
      const double std_lb = measure([&](Key probe) {
        const auto it = std::lower_bound(keys.begin(), keys.end(), probe);
        return static_cast<long>(it - keys.begin());
      });
      const double branchless = measure([&](Key probe) {
        return static_cast<long>(leap::core::detail::flat_lower_bound(
            keys.data(), keys.size(), probe));
      });
      innode.add_row({std::to_string(k), Table::format_ops(std_lb),
                      Table::format_ops(branchless),
                      Table::format_ratio(branchless /
                                          std::max(std_lb, 1.0))});
    }
    innode.print(std::cout);
  }

  const bool smoke = leap::harness::smoke_mode();
  const std::int64_t keys_span = smoke ? 200'000 : 2'000'000;
  leap::harness::print_figure_header(
      std::cout, "Ablation: pipelined Get bursts, sequential vs interleaved",
      "ns per Get inside one leap::txn; ShardedMap<int64, int64, TM>, 8 "
      "shards, node size 300, the even keys of [0, " +
          std::to_string(keys_span) + ") preloaded, uniform Gets",
      "equal at burst 1; the interleaved batch pulls ahead as the burst "
      "grows, most with L2 evicted between bursts");
  BurstMap burst_map(leap::ShardOptions{.shards = 8,
                                        .params = Params{.node_size = 300}},
                     0, keys_span);
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    pairs.reserve(static_cast<std::size_t>(keys_span / 2));
    for (std::int64_t k = 0; k < keys_span; k += 2) {
      pairs.push_back({k, k * 3 + 1});
    }
    burst_map.bulk_load(pairs);
  }
  L2Evictor evictor;
  Table bursts({"burst", "warm seq ns", "warm batch ns", "warm ratio",
                "cold seq ns", "cold batch ns", "cold ratio"});
  for (const std::size_t burst : {1u, 4u, 16u, 64u}) {
    if (!burst_paths_agree(burst_map, keys_span, burst, smoke ? 200 : 2000)) {
      return 1;
    }
    double ns[4];
    for (int cold = 0; cold < 2; ++cold) {
      ns[2 * cold] = per_get_ns(burst_map, keys_span, burst, cold != 0,
                                window, get_sequential, evictor);
      ns[2 * cold + 1] = per_get_ns(burst_map, keys_span, burst, cold != 0,
                                    window, get_batched, evictor);
    }
    const auto cell = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", v);
      return std::string(buf);
    };
    bursts.add_row({std::to_string(burst), cell(ns[0]), cell(ns[1]),
                    Table::format_ratio(ns[0] / ns[1]), cell(ns[2]),
                    cell(ns[3]), Table::format_ratio(ns[2] / ns[3])});
  }
  bursts.print(std::cout);
  return 0;
}
