// Single-threaded functional tests for all four leap-list variants,
// checked against a std::map reference model, plus two death tests:
// the checked-build bound on a search stuck on a retired node, and the
// always-on guard against enlisting an LT/COP/RW update in an open
// transaction.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "leaplist/leaplist.hpp"
#include "test_common.hpp"
#include "util/random.hpp"

using namespace leap::core;

namespace {

template <typename ListT>
void check_against_reference(const ListT& list,
                             const std::map<Key, Value>& reference,
                             Key key_range) {
  for (Key k = 1; k <= key_range; ++k) {
    const auto expected = reference.find(k);
    const auto actual = list.get(k);
    if (expected == reference.end()) {
      CHECK(!actual.has_value());
    } else {
      CHECK(actual.has_value());
      CHECK_EQ(*actual, expected->second);
    }
  }
}

template <typename ListT>
void check_range(const ListT& list, const std::map<Key, Value>& reference,
                 Key low, Key high) {
  std::vector<KV> out;
  list.range_query(low, high, out);
  auto it = reference.lower_bound(low);
  std::size_t n = 0;
  for (; it != reference.end() && it->first <= high; ++it, ++n) {
    CHECK(n < out.size());
    CHECK_EQ(out[n].key, it->first);
    CHECK_EQ(out[n].value, it->second);
  }
  CHECK_EQ(out.size(), n);
}

template <typename ListT>
void test_variant(const char* name, Params params) {
  // Empty list behavior.
  {
    ListT list(params);
    CHECK(!list.get(10).has_value());
    CHECK(!list.erase(10));
    std::vector<KV> out;
    CHECK_EQ(list.range_query(1, 1000, out), 0u);
    CHECK(list.debug_validate());
  }
  // Random op fuzz vs reference model. Small node_size forces splits.
  {
    constexpr Key kRange = 2000;
    ListT list(params);
    std::map<Key, Value> reference;
    leap::util::Xoshiro256 rng(1234);
    for (int op = 0; op < 20000; ++op) {
      const Key key = static_cast<Key>(1 + rng.next_below(kRange));
      const int dial = static_cast<int>(rng.next_below(100));
      if (dial < 50) {
        const Value value = static_cast<Value>(rng.next());
        const bool inserted = list.insert(key, value);
        CHECK_EQ(inserted, reference.find(key) == reference.end());
        reference[key] = value;
      } else if (dial < 80) {
        const bool erased = list.erase(key);
        CHECK_EQ(erased, reference.erase(key) > 0);
      } else if (dial < 90) {
        const auto expected = reference.find(key);
        const auto actual = list.get(key);
        CHECK_EQ(actual.has_value(), expected != reference.end());
        if (actual) CHECK_EQ(*actual, expected->second);
        if constexpr (requires { &ListT::get_many_in; }) {
          // The batched composable get answers a burst around the key.
          Key keys[5];
          std::optional<Value> got[5];
          for (Key j = 0; j < 5; ++j) keys[j] = key + 3 * j - 6;
          leap::txn([&](leap::stm::Tx& tx) {
            list.get_many_in(tx, keys, 5, got);
          });
          for (int j = 0; j < 5; ++j) {
            const auto it = reference.find(keys[j]);
            CHECK_EQ(got[j].has_value(), it != reference.end());
            if (got[j]) CHECK_EQ(*got[j], it->second);
          }
        }
      } else {
        const Key span = static_cast<Key>(rng.next_below(200));
        check_range(list, reference, key, key + span);
      }
    }
    CHECK(list.debug_validate());
    CHECK_EQ(list.size_slow(), reference.size());
    check_against_reference(list, reference, kRange);
    check_range(list, reference, 1, kRange);
  }
  // bulk_load then point/range reads.
  {
    ListT list(params);
    std::vector<KV> pairs;
    std::map<Key, Value> reference;
    for (Key k = 2; k <= 3000; k += 3) {
      pairs.push_back(KV{k, k * 7});
      reference[k] = k * 7;
    }
    list.bulk_load(pairs);
    CHECK(list.debug_validate());
    CHECK_EQ(list.size_slow(), reference.size());
    check_against_reference(list, reference, 3000);
    check_range(list, reference, 500, 1500);
    // Updates over a preloaded list.
    CHECK(!list.insert(2, 99));  // overwrite
    CHECK_EQ(*list.get(2), 99);
    CHECK(list.insert(3, 33));   // fresh key
    CHECK(list.erase(5));
    CHECK(!list.get(5).has_value());
    CHECK(list.debug_validate());
  }
  std::printf("  variant %s ok\n", name);
}

/// Runs `fn` in a child process; true when the child died of SIGABRT.
bool aborts_in_child(const std::function<void()>& fn) {
  const pid_t child = ::fork();
  CHECK(child >= 0);
  if (child == 0) {
    (void)std::freopen("/dev/null", "w", stderr);
    fn();
    std::_Exit(0);
  }
  int status = 0;
  CHECK_EQ(::waitpid(child, &status, 0), child);
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
}

void test_stuck_search_aborts() {
  // A retired node left linked (what a write built on an unread word
  // did) makes every search restart on it. Checked builds bound that:
  // the search aborts instead of spinning — the plain search and the
  // interleaved batch walk alike, since both take the same step. Each
  // runs in a child process.
  if constexpr (!leap::stm::kChecks) return;
  Node* head = make_node(1, 1, std::numeric_limits<Key>::min());
  Node* retired = make_node(1, 1, 100);
  Node* tail = make_node(1, 1, kSentinelKey);
  retired->next(0).init(leap::util::to_word(tail));
  head->next(0).init(leap::util::to_word(retired));
  retired->live.store(false);
  const auto search_plain = [&] { (void)search_predecessors(head, 1, 50); };
  const auto search_batched = [&] {
    GetProbe probes[2] = {GetProbe(head, 1, 50), GetProbe(head, 1, 150)};
    walk_interleaved(probes, 2);
  };
  CHECK(aborts_in_child(search_plain));
  CHECK(aborts_in_child(search_batched));
  destroy_node(head);
  destroy_node(retired);
  destroy_node(tail);
}

template <typename ListT>
void test_update_refuses_open_tx(const char* name) {
  // LT, COP and RW publish, unlock and retire as soon as their own
  // commit succeeds, so an update flat-nested into an enclosing
  // transaction would act on a commit that may never happen. The
  // shared update loop's nesting guard aborts instead, in every build
  // type.
  ListT list(Params{.node_size = 8, .max_level = 6});
  CHECK(list.insert(1, 1));
  CHECK(aborts_in_child([&] {
    leap::txn([&](leap::stm::Tx&) { list.insert(2, 2); });
  }));
  CHECK(aborts_in_child([&] {
    leap::txn([&](leap::stm::Tx&) { list.erase(1); });
  }));
  CHECK_EQ(*list.get(1), 1);
  std::printf("  %s update inside a transaction aborts ok\n", name);
}

}  // namespace

int main() {
  const Params small{.node_size = 8, .max_level = 6};
  test_variant<LeapListLT>("LT", small);
  test_variant<LeapListCOP>("COP", small);
  test_variant<LeapListTM>("TM", small);
  test_variant<LeapListRW>("RW", small);
  // A paper-sized configuration, lighter op count.
  const Params paper{.node_size = 300, .max_level = 10};
  test_variant<LeapListLT>("LT/300", paper);
  test_stuck_search_aborts();
  test_update_refuses_open_tx<LeapListLT>("LT");
  test_update_refuses_open_tx<LeapListCOP>("COP");
  test_update_refuses_open_tx<LeapListRW>("RW");
  return leap::test::finish("test_leaplist");
}
