// Ablation: range-query cost versus span width.
//
// Sweep 1 (the paper's claim): the LT range query pays one instrumented
// access per node, i.e. per ~K/2 keys; the Skip-cas scan pays one
// (unsynchronized) hop per key but returns a possibly-inconsistent
// result. The crossover as spans grow is the "K times faster" claim of
// the abstract.
//
// Sweep 2 (PR 10): the bundled-reference crossover. One ShardedMap
// under a mixed scan/update workload, with the SAME linearizable
// guarantee delivered two ways: a transactional stitch (leap::txn
// around policy::TM's composable for_range_in — instrumented reads
// across all covered shards, conflict aborts against the updaters)
// versus the map's own for_range on the same map (pin one timestamp,
// walk as-of it, zero STM involvement in the traversal). Sharded LT
// rides along as the bundled-native series. Narrow spans keep the two
// close (fixed per-op cost dominates); wide spans under update
// pressure are where the transactional scan pays for its read-set and
// retries while the as-of walk never aborts.
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "fig_common.hpp"

using namespace leap::bench;

namespace {

/// MapAdapter clone whose range op runs the transactional stitch:
/// leap::txn around the composable for_range_in. On a sharded TM map
/// that is the one difference between the two sides of the crossover;
/// the plain MapAdapter's for_range is the as-of walk. Everything else
/// delegates.
template <typename MapT>
class StitchedRangeAdapter {
 public:
  explicit StitchedRangeAdapter(const WorkloadConfig& cfg) : inner_(cfg) {}

  void op_lookup(leap::util::Xoshiro256& rng) { inner_.op_lookup(rng); }
  void op_modify(leap::util::Xoshiro256& rng) { inner_.op_modify(rng); }
  void op_txn(leap::util::Xoshiro256& rng) { inner_.op_txn(rng); }

  void op_range(leap::util::Xoshiro256& rng) {
    const WorkloadConfig& cfg = inner_.config();
    const std::uint64_t span =
        cfg.rq_span_min +
        rng.next_below(cfg.rq_span_max - cfg.rq_span_min + 1);
    const auto low =
        static_cast<std::int64_t>(1 + rng.next_below(cfg.key_range));
    const auto high = static_cast<std::int64_t>(low + span);
    auto& buf = scratch();
    leap::txn([&](leap::stm::Tx& tx) {
      buf.clear();  // the closure may re-run after a conflict
      inner_.map(0).for_range_in(tx, low, high, leap::append_to(buf));
    });
  }

 private:
  static std::vector<typename MapT::value_type>& scratch() {
    static thread_local std::vector<typename MapT::value_type> buf;
    return buf;
  }

  harness::MapAdapter<MapT> inner_;
};

}  // namespace

int main() {
  const bool smoke = leap::harness::smoke_mode();
  const auto duration = leap::harness::bench_duration(
      std::chrono::milliseconds(200));
  const int repeats = leap::harness::bench_repeats(1);
  const unsigned threads = leap::harness::thread_sweep().back();
  const std::vector<std::uint64_t> spans =
      smoke ? std::vector<std::uint64_t>{10, 1000, 10000}
            : std::vector<std::uint64_t>{10, 100, 500, 1000, 2000, 10000};

  // results["lt"][span] = ops/sec, one inner map per series.
  std::map<std::string, std::map<std::uint64_t, double>> results;

  print_figure_header(
      std::cout, "Ablation: range-query span",
      "100% range queries, 100K elements, 1 list, max threads",
      "Leap-LT advantage grows with the span (one instrumented access per "
      "K-key node vs per-key hops)");

  Table table({"span", "Leap-LT", "Skip-cas", "Skip-tm", "LT/cas", "LT/tm"});
  for (const std::uint64_t span : spans) {
    WorkloadConfig cfg = paper_config();
    cfg.mix = Mix::range_only();
    cfg.lists = 1;
    cfg.threads = threads;
    cfg.duration = duration;
    cfg.rq_span_min = span;
    cfg.rq_span_max = span;
    WorkloadConfig skip_cfg = cfg;
    skip_cfg.params.max_level = 20;

    const double lt =
        harness::run_workload<MapAdapter<LTMap>>(cfg, repeats).ops_per_sec;
    const double cas =
        harness::run_workload<MapAdapter<SkipCASMap>>(skip_cfg, repeats)
            .ops_per_sec;
    const double tm =
        harness::run_workload<MapAdapter<SkipTMMap>>(skip_cfg, repeats)
            .ops_per_sec;
    results["lt"][span] = lt;
    results["skipcas"][span] = cas;
    results["skiptm"][span] = tm;
    table.add_row({std::to_string(span), Table::format_ops(lt),
                   Table::format_ops(cas), Table::format_ops(tm),
                   Table::format_ratio(lt / std::max(cas, 1.0)),
                   Table::format_ratio(lt / std::max(tm, 1.0))});
  }
  table.print(std::cout);

  // --- Sweep 2: bundled vs TM-stitched cross-shard scans --------------
  constexpr int kXoverShards = 8;
  print_figure_header(
      std::cout, "Crossover: bundled vs TM-stitched scans (PR 10)",
      "50% range / 50% modify, 100K elements, 8 shards, max threads; "
      "same ShardedMap<TM>, scans stitched as one transaction "
      "(leap::txn + for_range_in) vs walked as-of one pinned bundle "
      "timestamp (for_range)",
      "both sides are linearizable; the bundled walk never aborts, so "
      "its edge grows with span width and update pressure");

  Table xover({"span", "TM-stitch", "TM-bundle", "LT-bundle",
               "bundle/stitch"});
  for (const std::uint64_t span : spans) {
    WorkloadConfig cfg = paper_config();
    cfg.mix = Mix::range_modify(50);
    cfg.lists = 1;
    cfg.shards = kXoverShards;
    cfg.threads = threads;
    cfg.duration = duration;
    cfg.rq_span_min = span;
    cfg.rq_span_max = span;

    const double stitched =
        harness::run_workload<StitchedRangeAdapter<ShardedTMMap>>(cfg,
                                                                  repeats)
            .ops_per_sec;
    const double bundled =
        harness::run_workload<MapAdapter<ShardedTMMap>>(cfg, repeats)
            .ops_per_sec;
    const double lt_bundled =
        harness::run_workload<MapAdapter<ShardedLTMap>>(cfg, repeats)
            .ops_per_sec;
    results["xover_tm_stitched"][span] = stitched;
    results["xover_tm_bundled"][span] = bundled;
    results["xover_lt_bundled"][span] = lt_bundled;
    xover.add_row({std::to_string(span), Table::format_ops(stitched),
                   Table::format_ops(bundled),
                   Table::format_ops(lt_bundled),
                   Table::format_ratio(bundled / std::max(stitched, 1.0))});
  }
  xover.print(std::cout);

  if (const char* path = std::getenv("LEAP_BENCH_JSON")) {
    std::ofstream out(path);
    out.setf(std::ios::fixed);
    out << "{\n"
        << "  \"bench\": \"abl_rqspan\",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"key_range\": 100000,\n"
        << "  \"xover_shards\": " << kXoverShards << ",\n";
    out.precision(1);
    for (const auto& [prefix, by_span] : results) {
      for (const auto& [span, ops] : by_span) {
        out << "  \"" << prefix << "_span" << span << "\": " << ops
            << ",\n";
      }
    }
    out.precision(3);
    bool first = true;
    for (const auto& [span, stitched] : results["xover_tm_stitched"]) {
      const double bundled = results["xover_tm_bundled"][span];
      out << (first ? "" : ",\n") << "  \"bundled_over_stitched_span"
          << span << "\": " << (stitched > 0 ? bundled / stitched : 0);
      first = false;
    }
    out << "\n}\n";
  }
  return 0;
}
