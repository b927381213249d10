// LeapTable: an in-memory table whose primary and secondary indexes are
// composable typed maps (leap::Map over the TM leap-list policy) — the
// paper's §4 pitch realized with its headline API. Row storage is
// immutable: every insert allocates a fresh row on an allocation
// registry (freed at table destruction), so concurrent scans can
// dereference index values without any per-row reclamation protocol.
//
// Secondary index keys are codec::PackedPair<ColumnValue, RowId>, the
// (column value, row id) packing expressed as an order-preserving key
// codec, so duplicate column values stay distinct; index values are
// typed row pointers, and scans decode rows straight from the index
// visitation. Index maintenance is ONE transaction per row operation
// (leap::txn over the primary plus every secondary), so no concurrent
// reader can observe a row through a stale or phantom secondary entry:
// a multi-index read transaction (get_in/scan_in under leap::txn) sees
// either all of a row's index entries or none of them.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "db/schema.hpp"
#include "leaplist/codec.hpp"
#include "leaplist/map.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/txn.hpp"

namespace leap::db {

class LeapTable {
  struct Stored {
    Row row;
    Stored* alloc_next;
  };

 public:
  /// Row ids must fit kIdBits so (value, id) packs into a signed word.
  static constexpr int kIdBits = 24;

  using IndexKey = codec::PackedPair<ColumnValue, RowId, kIdBits>;
  /// The primary is a sharded composable map: every row operation still
  /// commits primary + secondaries in ONE transaction, but primary
  /// point traffic spreads over `primary_shards` partitions of the row
  /// id space — index maintenance composes across shards for free
  /// because ShardedMap's `*_in` forms just route within the caller's
  /// transaction.
  using PrimaryIndex = leap::ShardedMap<RowId, const Stored*, policy::TM>;
  using SecondaryIndex = leap::Map<IndexKey, const Stored*, policy::TM>;

  explicit LeapTable(Schema schema, std::size_t primary_shards = 1)
      : schema_(std::move(schema)),
        primary_(std::make_unique<PrimaryIndex>(
            ShardOptions{.shards = primary_shards, .params = index_params()},
            RowId{0}, (RowId{1} << kIdBits) - 1)) {
    for (std::size_t c : schema_.indexed_columns) {
      (void)c;
      secondary_.push_back(
          std::make_unique<SecondaryIndex>(index_params()));
    }
  }

  ~LeapTable() {
    Stored* cur = all_rows_.load(std::memory_order_acquire);
    while (cur != nullptr) {
      Stored* nxt = cur->alloc_next;
      delete cur;
      cur = nxt;
    }
  }

  LeapTable(const LeapTable&) = delete;
  LeapTable& operator=(const LeapTable&) = delete;

  /// Insert or replace: one transaction removes any previous version of
  /// the row and installs the new one across the primary and every
  /// secondary index.
  bool insert(const Row& row) {
    assert(row.values.size() == schema_.columns.size());
    assert(row.id < (RowId{1} << kIdBits));
    Stored* stored = new Stored{row, nullptr};
    Stored* head = all_rows_.load(std::memory_order_relaxed);
    do {
      stored->alloc_next = head;
    } while (!all_rows_.compare_exchange_weak(head, stored,
                                              std::memory_order_acq_rel));
    leap::txn([&](stm::Tx& tx) {
      erase_in(tx, row.id);
      primary_->insert_in(tx, row.id, stored);
      for (std::size_t i = 0; i < schema_.indexed_columns.size(); ++i) {
        const ColumnValue value = row.values[schema_.indexed_columns[i]];
        secondary_[i]->insert_in(tx, IndexKey{value, row.id}, stored);
      }
    });
    return true;
  }

  bool erase(RowId id) {
    return leap::txn([&](stm::Tx& tx) { return erase_in(tx, id); });
  }

  std::optional<Row> get(RowId id) const {
    const auto stored = primary_->get(id);
    if (!stored) return std::nullopt;
    return (*stored)->row;
  }

  /// All rows whose `column` value lies in [low, high]. `column` is an
  /// ordinal into Schema::indexed_columns. REPLACES `out`.
  void scan(std::size_t column, ColumnValue low, ColumnValue high,
            std::vector<Row>& out) const {
    leap::txn([&](stm::Tx& tx) { scan_in(tx, column, low, high, out); });
  }

  // --- Composable forms: enlist in a caller-owned transaction --------
  // (leap::txn), so callers can erase + read + scan several indexes —
  // or several tables — as one atomic unit.

  bool erase_in(stm::Tx& tx, RowId id) {
    const auto stored = primary_->get_in(tx, id);
    if (!stored) return false;
    primary_->erase_in(tx, id);
    for (std::size_t i = 0; i < schema_.indexed_columns.size(); ++i) {
      const ColumnValue value =
          (*stored)->row.values[schema_.indexed_columns[i]];
      secondary_[i]->erase_in(tx, IndexKey{value, id});
    }
    return true;
  }

  std::optional<Row> get_in(stm::Tx& tx, RowId id) const {
    const auto stored = primary_->get_in(tx, id);
    if (!stored) return std::nullopt;
    return (*stored)->row;
  }

  /// Rows decode straight off the index visitation — no intermediate
  /// KV buffer. REPLACES `out`, so a retried closure starts clean.
  void scan_in(stm::Tx& tx, std::size_t column, ColumnValue low,
               ColumnValue high, std::vector<Row>& out) const {
    out.clear();
    secondary_[column]->for_range_in(
        tx, IndexKey{low, 0}, IndexKey{high, (RowId{1} << kIdBits) - 1},
        [&](const IndexKey&, const Stored* stored) {
          out.push_back(stored->row);
        });
  }

 private:
  static core::Params index_params() {
    // Smaller nodes than the paper's K=300: table updates copy nodes on
    // every index maintenance op, so cheaper copies win here.
    return core::Params{.node_size = 64, .max_level = 12};
  }

  Schema schema_;
  std::unique_ptr<PrimaryIndex> primary_;
  std::vector<std::unique_ptr<SecondaryIndex>> secondary_;
  std::atomic<Stored*> all_rows_{nullptr};
};

}  // namespace leap::db
