// leap::txn — one STM transaction spanning any number of leap lists
// (the paper's headline API: TM support makes range queries and updates
// over several lists composable into a single atomic unit).
//
//   leap::txn([&](leap::stm::Tx& tx) {
//     const auto value = orders.get_in(tx, key);
//     if (value) {
//       orders.erase_in(tx, key);
//       archive.insert_in(tx, key, *value);
//     }
//   });
//
// The closure runs under the optimistic-retry/irrevocable-fallback
// policy of stm::atomically and must therefore be idempotent up to its
// `*_in` calls: it may re-run after a conflict, and nothing it did
// through the composable API is visible until the one commit at the
// end. An EBR guard is held for the whole transaction so composable ops
// may traverse unlocked and defer victim retirement to commit.
//
// Nesting: txn inside txn (or a single-op LeapListTM call inside txn)
// flat-nests into the enclosing transaction. Only LeapListTM exposes
// composable/nestable operations. LT, COP and RW updates abort inside
// an open transaction because their publish path acts on commit
// success immediately, and so do ShardedMap's single-op scans
// (for_range, scan, snapshot), whose as-of walk cannot see the
// transaction's own writes; ShardedMap::for_range_in/scan_in nest.
#pragma once

#include <optional>
#include <type_traits>
#include <utility>

#include "stm/stm.hpp"
#include "util/ebr.hpp"

namespace leap {

/// Run `fn` (callable as fn(stm::Tx&)) as one atomic transaction and
/// return the result of its committed run.
template <typename Fn>
auto txn(Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, stm::Tx&>;
  util::ebr::Guard guard;
  stm::Tx& tx = stm::tls_tx();
  if constexpr (std::is_void_v<Result>) {
    stm::atomically(tx, fn);
  } else {
    std::optional<Result> result;
    stm::atomically(tx, [&](stm::Tx& t) { result.emplace(fn(t)); });
    return std::move(*result);
  }
}

}  // namespace leap
