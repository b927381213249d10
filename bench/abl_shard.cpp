// Ablation: shard-count sweep for leap::ShardedMap (PR 5).
//
// One structure, 100K preloaded keys, 8 threads regardless of core
// count, partitioned over S = 1..64 shards. Two workloads:
//
//   read-mostly   90% lookup / 10% modify — point ops route to one
//                 shard with no added synchronization, so throughput
//                 should rise with S while any shared hot spot
//                 (structure head, lock, STM clock) dilutes.
//   mixed         40% lookup / 30% range / 30% modify — stitched range
//                 queries pay a per-shard segment cost (each one as-of
//                 walk at one pinned bundle timestamp, on every
//                 series), so this bounds the sharding win under range
//                 pressure.
//
// Series: sharded LT (locked publish), sharded tm (composable updates;
// its stitched scans are as-of walks, like every series'), and sharded
// rwlock (the global reader-writer lock splits S ways — the dramatic
// case). S = 1 is the routed baseline, so ratios isolate partitioning
// from routing cost.
//
// bench/record_bench.sh wraps this bench's JSON (LEAP_BENCH_JSON) into
// BENCH_PR5.json; the S-scaling ratios are the PR's acceptance signal.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fig_common.hpp"

using namespace leap::bench;

namespace {

struct Series {
  const char* key;  // JSON prefix
  const char* name;
  Mix mix;
};

template <typename MapT>
double measure(WorkloadConfig cfg, const Mix& mix, int shards,
               int repeats) {
  cfg.mix = mix;
  cfg.shards = shards;
  return harness::run_workload<MapAdapter<MapT>>(cfg, repeats).ops_per_sec;
}

}  // namespace

int main() {
  const bool smoke = leap::harness::smoke_mode();
  const auto duration =
      leap::harness::bench_duration(std::chrono::milliseconds(400));
  const int repeats = leap::harness::bench_repeats(2);
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 4}
            : std::vector<int>{1, 2, 4, 8, 16, 32, 64};

  WorkloadConfig base = paper_config();
  base.lists = 1;  // one structure, scaled out instead of replicated
  base.threads = 8;
  base.duration = duration;

  const Series series[] = {
      {"read", "read-mostly: 90% lookup / 10% modify", Mix{90, 0, 0}},
      {"mixed", "mixed: 40% lookup / 30% range / 30% modify",
       Mix{40, 30, 0}},
  };

  // results[prefix][S] = ops/sec, e.g. results["lt_read"][8].
  std::map<std::string, std::map<int, double>> results;

  for (const Series& s : series) {
    print_figure_header(
        std::cout, "Ablation: shard sweep",
        std::string(s.name) + ", 100K keys, 8 threads, S = routed shards",
        "read-mostly throughput rises with S > 1; rwlock gains most "
        "(the global lock splits S ways); ranges bound the win");
    Table table({"S", "Shard-LT", "Shard-tm", "Shard-rwl", "LT S/S1",
                 "tm S/S1", "rwl S/S1"});
    for (const int shards : shard_counts) {
      const double lt =
          measure<ShardedLTMap>(base, s.mix, shards, repeats);
      const double tm =
          measure<ShardedTMMap>(base, s.mix, shards, repeats);
      const double rw =
          measure<ShardedRWMap>(base, s.mix, shards, repeats);
      results[std::string("lt_") + s.key][shards] = lt;
      results[std::string("tm_") + s.key][shards] = tm;
      results[std::string("rw_") + s.key][shards] = rw;
      const double lt1 = results[std::string("lt_") + s.key][shard_counts[0]];
      const double tm1 = results[std::string("tm_") + s.key][shard_counts[0]];
      const double rw1 = results[std::string("rw_") + s.key][shard_counts[0]];
      table.add_row({std::to_string(shards), Table::format_ops(lt),
                     Table::format_ops(tm), Table::format_ops(rw),
                     Table::format_ratio(lt / std::max(lt1, 1.0)),
                     Table::format_ratio(tm / std::max(tm1, 1.0)),
                     Table::format_ratio(rw / std::max(rw1, 1.0))});
    }
    table.print(std::cout);
  }

  if (const char* path = std::getenv("LEAP_BENCH_JSON")) {
    const int s_lo = shard_counts.front();
    const int s_hi = shard_counts.back();
    std::ofstream out(path);
    out.setf(std::ios::fixed);
    out.precision(1);
    out << "{\n"
        << "  \"bench\": \"abl_shard\",\n"
        << "  \"threads\": 8,\n"
        << "  \"key_range\": 100000,\n"
        << "  \"scaling_shards\": " << s_hi << ",\n";
    for (const auto& [prefix, by_shards] : results) {
      for (const auto& [shards, ops] : by_shards) {
        out << "  \"" << prefix << "_s" << shards << "\": " << ops
            << ",\n";
      }
    }
    out.precision(3);
    bool first = true;
    for (const auto& [prefix, by_shards] : results) {
      const double lo = by_shards.at(s_lo);
      const double hi = by_shards.at(s_hi);
      out << (first ? "" : ",\n") << "  \"" << prefix
          << "_scaling\": " << (lo > 0 ? hi / lo : 0);
      first = false;
    }
    out << "\n}\n";
  }
  return 0;
}
