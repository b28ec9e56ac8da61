// Exp-4: KV-workload support — read/write throughput (Tpms: values processed
// per millisecond, the paper's metric) under TaaV vs BaaV, and horizontal
// scalability: throughput as storage nodes grow 4..12 with fixed data per
// node.
//
// Paper shape: BaaV improves read throughput (one get fetches a whole keyed
// block) by ~1.1-1.5x; write throughput is somewhat lower (read-modify-write
// of blocks) but comparable; both layouts scale ~linearly with nodes.
//
// --serve adds the concurrent-serving arm (src/serve/): N sessions sharing
// one Cluster/BlockCache behind a bounded admission queue, swept over
// sessions x offered load, reporting measured throughput next to
// p50/p95/p99/p999 wall latency from the LatencyRecorder. --serve --smoke
// is the CI gate: saturation throughput at 4 sessions must be >= 1.5x the
// single-session figure on the cached read mix, and >= 2.5x with 10%
// served updates beside the reads, with no failed op in any leg (exit 1
// otherwise). The speedup comes from overlapping the NetworkModel's real
// per-request stalls, so it holds on a single-core runner too; with
// writes it also needs commits that do not wait for reads' stalls (a
// commit that waited for every in-flight read read about 1.7x).
#include "bench/bench_util.h"

#include <array>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "ra/taav.h"
#include "serve/server.h"

using namespace zidian;
using namespace zidian::bench;

namespace {

struct Tpms {
  double read_taav = 0, read_baav = 0, write_taav = 0, write_baav = 0;
};

/// Simulated Tpms using the SoH cost model: values per simulated ms.
Tpms Measure(int storage_nodes, double scale) {
  Instance inst = Load(MakeMot(scale, 42), storage_nodes);
  const TableSchema& tests = *inst.workload.catalog.Find("mot_test");
  const Relation& data = inst.workload.data.at("mot_test");
  const KvSchema* by_vehicle = nullptr;
  for (const auto& kv : inst.workload.baav.all()) {
    if (kv.relation == "mot_test" && kv.key_attrs ==
        std::vector<std::string>{"vehicle_id"}) {
      by_vehicle = inst.workload.baav.Find(kv.name);
    }
  }
  if (by_vehicle == nullptr) {
    std::fprintf(stderr, "no mot_test@vehicle_id instance\n");
    std::abort();
  }
  int vid_col = data.ColumnIndex("vehicle_id");
  int tid_col = data.ColumnIndex("test_id");
  int64_t n_vehicles = 0;
  for (const auto& row : data.rows()) {
    n_vehicles = std::max(n_vehicles, row[vid_col].AsInt());
  }

  Tpms out;
  const BackendProfile& p = SoH();
  // Bulk reads: fetch every vehicle's test history.
  {
    QueryMetrics taav_m, baav_m;
    uint64_t taav_vals = 0, baav_vals = 0;
    for (const auto& row : data.rows()) {  // TaaV: one get per tuple
      auto t = TaavGetTuple(*inst.cluster, tests, {row[tid_col]}, &taav_m);
      if (t.ok()) taav_vals += t->size();
    }
    for (int64_t v = 1; v <= n_vehicles; ++v) {  // BaaV: one get per block
      const Tuple key{Value(v)};
      auto blocks = inst.zidian->store().MultiGetBlocks(
          {{by_vehicle, &key}}, &baav_m, FanoutMode::kOverlapped, nullptr);
      if (blocks.ok()) {
        for (const auto& r : (*blocks)[0].rows) baav_vals += r.size() + 1;
      }
    }
    // Nodes serve gets in parallel: total throughput is the per-node rate
    // times the node count (the paper's horizontal-scalability metric).
    double taav_ms =
        (double(taav_m.get_calls) * p.get_us +
         double(taav_m.bytes_from_storage) * p.byte_us) / 1e3 / storage_nodes;
    double baav_ms =
        (double(baav_m.get_calls) * p.get_us +
         double(baav_m.bytes_from_storage) * p.byte_us) / 1e3 / storage_nodes;
    out.read_taav = double(taav_vals) / taav_ms;
    out.read_baav = double(baav_vals) / baav_ms;
  }
  // Bulk writes: insert fresh tests for every vehicle.
  {
    QueryMetrics taav_m, baav_m;
    uint64_t written = 0;
    Rng rng(7);
    for (int64_t v = 1; v <= n_vehicles; ++v) {
      Tuple t{Value(int64_t{1000000 + v}), Value(v), Value(int64_t{15000}),
              Value("PASS"), Value(int64_t{rng.Uniform(1000, 99999)}),
              Value(int64_t{rng.Uniform(1, 80)}), Value(int64_t{4}), Value("NORMAL"),
              Value(54.85), Value(int64_t{45}), Value(int64_t{rng.Uniform(1, 400)}),
              Value(int64_t{0}), Value(int64_t{1}), Value(int64_t{0})};
      written += t.size();
      // One insert writes the TaaV tuple and read-modify-writes the
      // vehicle's block; each layout's write is counted by hand below.
      ZIDIAN_CHECK_OK(inst.zidian->Insert("mot_test", t));
      taav_m.put_calls += 1;
      taav_m.bytes_from_storage += TupleByteSize(t);
      // BaaV write = read-modify-write of the vehicle's block.
      baav_m.get_calls += 1;  // block read
      baav_m.put_calls += 1;  // block write
      baav_m.bytes_from_storage += TupleByteSize(t) * 6;  // block rewrite
    }
    double taav_ms = (double(taav_m.put_calls) * p.get_us +
                      double(taav_m.bytes_from_storage) * p.byte_us) / 1e3 /
                     storage_nodes;
    double baav_ms = (double(baav_m.get_calls + baav_m.put_calls) * p.get_us +
                      double(baav_m.bytes_from_storage) * p.byte_us) / 1e3 /
                     storage_nodes;
    out.write_taav = double(written) / taav_ms;
    out.write_baav = double(written) / baav_ms;
  }
  return out;
}

// ------------------------------------------------------- concurrent serving ---

/// The cached read mix: Zipf-skewed point lookups (3x) and per-vehicle
/// aggregates (1x) over the MOT join, rank r = vehicle_id r.
std::vector<serve::ServeTemplate> ReadMix() {
  serve::ServeTemplate point;
  point.name = "point";
  point.weight = 3;
  point.sql = [](uint64_t key) {
    return "SELECT v.make, v.model, t.test_date, t.test_result, "
           "t.test_mileage FROM vehicle v, mot_test t "
           "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " +
           std::to_string(key);
  };
  serve::ServeTemplate agg;
  agg.name = "agg";
  agg.weight = 1;
  agg.sql = [](uint64_t key) {
    return "SELECT t.test_result, COUNT(*), MAX(t.test_mileage) "
           "FROM vehicle v, mot_test t "
           "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " +
           std::to_string(key) + " GROUP BY t.test_result";
  };
  return {point, agg};
}

/// Every vehicle's mot_test rows as stored, indexed by vehicle id: the
/// state the served update template edits.
using StoredTests = std::vector<std::vector<Tuple>>;

StoredTests TestsByVehicle(const Workload& w) {
  const Relation& tests = w.data.at("mot_test");
  const size_t vid = static_cast<size_t>(tests.ColumnIndex("vehicle_id"));
  StoredTests out(w.data.at("vehicle").size() + 1);
  for (const Tuple& t : tests.rows()) {
    out[static_cast<size_t>(t[vid].AsInt())].push_back(t);
  }
  return out;
}

/// The benchmark's update shape: a Delete of one of the vehicle's
/// mot_test rows as stored, then an Insert of a copy with the low bit of
/// its mileage flipped. Write templates run one at a time, so `stored` has
/// one writer at a time.
serve::ServeTemplate UpdateTemplate(double weight, size_t mileage_col,
                                    StoredTests* stored) {
  serve::ServeTemplate update;
  update.name = "update";
  update.weight = weight;
  update.write = [stored, mileage_col](Zidian& z, const serve::ServeOp& op) {
    std::vector<Tuple>& rows = (*stored)[op.key];
    if (rows.empty()) return Status::OK();
    Tuple& row = rows[op.seq % rows.size()];
    Tuple changed = row;
    changed[mileage_col] = Value(int64_t{row[mileage_col].AsInt() ^ 1});
    ZIDIAN_RETURN_NOT_OK(z.Delete("mot_test", row));
    ZIDIAN_RETURN_NOT_OK(z.Insert("mot_test", changed));
    row = std::move(changed);
    return Status::OK();
  };
  return update;
}

/// A serving instance whose latency is dominated by network stalls: every
/// node get pays a real 500us RTT, and the BlockCache is sized to hold
/// only the hot head of the Zipf distribution — tail queries keep
/// stalling, which is exactly what concurrent sessions overlap.
Instance ServeInstance() {
  ClusterOptions options{.num_storage_nodes = 4};
  options.cache.capacity_bytes = 4096;
  options.network.link.rtt_us = 500;
  return Load(MakeMot(0.3, 42), std::move(options));
}

serve::ServeResult RunServe(Instance& inst, int sessions, double offered_load,
                            uint64_t ops_per_stream,
                            std::vector<serve::ServeTemplate> mix = ReadMix()) {
  serve::ServeOptions options;
  options.sessions = sessions;
  options.queue_depth = 32;
  options.load.ops_per_stream = ops_per_stream;
  options.load.offered_load = offered_load;
  options.load.seed = 42;
  options.load.zipf_keys =
      static_cast<uint64_t>(inst.workload.data.at("vehicle").size());
  options.load.zipf_s = 0.9;
  options.load.mix = std::move(mix);
  serve::Server server(inst.zidian.get(), options);
  auto result = server.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "serve run failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

void PrintServeHeader() {
  std::printf("%-9s %-9s %9s %7s %7s %7s %7s %8s %8s %8s %8s\n", "sessions",
              "offered", "ops/s", "done", "rej", "fail", "avail%", "p50ms",
              "p95ms", "p99ms", "p999ms");
}

void PrintServeRow(const char* offered, int sessions,
                   const serve::ServeResult& r) {
  double answered = double(r.completed + r.failed);
  double avail =
      answered > 0 ? 100.0 * double(r.completed) / answered : 100.0;
  std::printf("%-9d %-9s %9.0f %7llu %7llu %7llu %7.2f %8.2f %8.2f %8.2f "
              "%8.2f\n",
              sessions, offered, r.Throughput(),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.failed), avail,
              double(r.latency.Quantile(0.50)) / 1e6,
              double(r.latency.Quantile(0.95)) / 1e6,
              double(r.latency.Quantile(0.99)) / 1e6,
              double(r.latency.Quantile(0.999)) / 1e6);
}

int ServeSmoke(Instance& inst) {
  std::printf("Exp-4 serving smoke: saturation capacity, 1 vs 4 sessions "
              "(cached read mix, 500us RTT)\n");
  PrintRule();
  PrintServeHeader();
  PrintRule();
  (void)RunServe(inst, 2, 0, 30);  // warm the cache's hot head
  serve::ServeResult one = RunServe(inst, 1, 0, 240);
  PrintServeRow("sat", 1, one);
  serve::ServeResult four = RunServe(inst, 4, 0, 60);
  PrintServeRow("sat", 4, four);
  // Served writes beside the reads: the read mix plus 10% updates.
  StoredTests stored = TestsByVehicle(inst.workload);
  std::vector<serve::ServeTemplate> mix = ReadMix();
  mix.push_back(UpdateTemplate(
      4.0 / 9,
      static_cast<size_t>(
          inst.workload.data.at("mot_test").ColumnIndex("test_mileage")),
      &stored));
  serve::ServeResult one_w = RunServe(inst, 1, 0, 240, mix);
  PrintServeRow("sat+w", 1, one_w);
  serve::ServeResult four_w = RunServe(inst, 4, 0, 60, mix);
  PrintServeRow("sat+w", 4, four_w);
  PrintRule();
  double speedup = four.Throughput() / one.Throughput();
  double write_speedup = four_w.Throughput() / one_w.Throughput();
  bool reads_pass = speedup >= 1.5 && one.failed == 0 && four.failed == 0;
  bool writes_pass =
      write_speedup >= 2.5 && one_w.failed == 0 && four_w.failed == 0;
  std::printf("smoke: 4-session throughput = %.2fx single-session "
              "(gate: >= 1.5x), p99 = %.2f ms -> %s\n", speedup,
              double(four.latency.Quantile(0.99)) / 1e6,
              reads_pass ? "PASS" : "FAIL");
  std::printf("smoke: with 10%% served updates = %.2fx single-session "
              "(gate: >= 2.5x), p99 = %.2f ms -> %s\n", write_speedup,
              double(four_w.latency.Quantile(0.99)) / 1e6,
              writes_pass ? "PASS" : "FAIL");
  return reads_pass && writes_pass ? 0 : 1;
}

int ServeSweep(Instance& inst) {
  std::printf("Exp-4 serving sweep: sessions x offered load "
              "(cached read mix, 500us RTT, queue depth 32)\n");
  PrintRule();
  PrintServeHeader();
  PrintRule();
  (void)RunServe(inst, 2, 0, 30);  // warm the cache's hot head
  for (int sessions : {1, 2, 4, 8, 16}) {
    // Open loop below and above a single session's capacity, then the
    // saturation (capacity) row: offered load the generator never paces.
    for (double offered : {1000.0, 4000.0}) {
      serve::ServeResult r = RunServe(inst, sessions, offered, 50);
      char label[32];
      std::snprintf(label, sizeof label, "%.0f/s", offered);
      PrintServeRow(label, sessions, r);
    }
    serve::ServeResult sat = RunServe(inst, sessions, 0, 50);
    PrintServeRow("sat", sessions, sat);
  }
  PrintRule();
  std::printf("open-loop latency counts time from the SCHEDULED arrival "
              "(queueing included); rejections are offered load the bounded "
              "admission queue refused\n");
  return 0;
}

// ------------------------------------------------------------- chaos arm ---
//
// The availability-vs-tail-latency smoke: the same read mix served while
// one storage node is degraded 30x, with and without hedged reads, plus a
// partition leg where a key's whole replica chain is down. Gates:
//  * zero wrong rows: every completed query's rows are byte-identical to
//    the fault-free run (checked through ServeOptions::on_result);
//  * hedging recovers at least half of the p99 regression the degraded
//    node causes (degraded-minus-clean >= 2x hedged-minus-clean);
//  * the fault counters are bit-identical across two fresh hedged runs
//    (the deterministic fault schedule, end to end through the server);
//  * exhausted retries fail cleanly: the partition leg loses queries but
//    completes the rest, and every failure is counted in failed_queries.

/// The chaos cluster: node-side work is visible (per-key / per-byte cost),
/// because degradation multiplies the BUSY cost, not the wire rtt — a
/// degraded node on a free link would be invisible. No BlockCache (unless
/// the cached CI configuration forces one): every read exercises the
/// recovery machine.
ClusterOptions ChaosOptions() {
  ClusterOptions options{.num_storage_nodes = 4};
  options.network.link =
      NetworkLinkOptions{.rtt_us = 200, .per_key_us = 5, .per_byte_us = 0.3};
  options.recovery.replication_factor = 2;
  options.recovery.max_attempts = 3;
  return options;
}

Instance ChaosInstance(bool degrade_node0, bool hedged) {
  ClusterOptions options = ChaosOptions();
  if (degrade_node0) {
    options.network.faults.seed = 20260808;
    NodeFaultOptions slow;
    slow.degraded_from = 0;
    slow.degraded_until = 1;
    slow.degrade_factor = 30;
    options.network.faults.node_faults = {slow};
  }
  if (hedged) options.recovery.hedge_after_us = 250;
  return Load(MakeMot(0.3, 42), std::move(options));
}

/// Completed-query row log, filled from the session threads via
/// ServeOptions::on_result and keyed by (template, key rank) — two ops on
/// the same key must answer identically, and every faulted run must answer
/// exactly like the clean one.
struct RowLog {
  Mutex mu;
  std::map<std::pair<uint32_t, uint64_t>, std::string> rows GUARDED_BY(mu);
  bool self_mismatch GUARDED_BY(mu) = false;
};

serve::ServeResult RunChaos(Instance& inst, RowLog* log) {
  serve::ServeOptions options;
  options.sessions = 4;
  options.queue_depth = 32;
  options.load.ops_per_stream = 60;
  options.load.seed = 42;
  options.load.zipf_keys =
      static_cast<uint64_t>(inst.workload.data.at("vehicle").size());
  options.load.zipf_s = 0.9;
  options.load.mix = ReadMix();
  options.on_result = [log](const serve::ServeOp& op, const Relation& rows,
                            const AnswerInfo&) {
    Relation sorted = rows;
    sorted.SortRows();
    std::string repr = sorted.ToString(rows.size() + 1);
    MutexLock lock(log->mu);
    auto [it, inserted] = log->rows.emplace(
        std::make_pair(op.template_idx, op.key), std::move(repr));
    if (!inserted && it->second != repr) log->self_mismatch = true;
  };
  serve::Server server(inst.zidian.get(), options);
  auto result = server.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "chaos run failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// Does `got` answer exactly like `want`? kExact additionally demands the
/// same completed set (no query may go missing in a run that should
/// complete everything); kSubset allows `got` to have completed fewer
/// (the partition leg) but every row it DID serve must still match.
enum class LogMatch { kExact, kSubset };

bool RowsMatch(RowLog& got, RowLog& want, LogMatch mode) {
  MutexLock got_lock(got.mu);
  MutexLock want_lock(want.mu);
  if (got.self_mismatch || want.self_mismatch) return false;
  if (mode == LogMatch::kExact && got.rows.size() != want.rows.size()) {
    return false;
  }
  for (const auto& [key, repr] : got.rows) {
    auto it = want.rows.find(key);
    if (it == want.rows.end() || it->second != repr) return false;
  }
  return true;
}

std::array<uint64_t, 6> FaultCounters(const QueryMetrics& m) {
  return {m.net_faults_injected, m.net_retries, m.net_timeouts,
          m.net_hedges,          m.net_hedge_wins, m.failed_queries};
}

int ServeChaos() {
  std::printf("Exp-4 chaos smoke: read mix under a 30x-degraded node, "
              "without / with hedged reads, plus a downed replica chain\n");
  PrintRule();
  PrintServeHeader();
  PrintRule();

  Instance clean = ChaosInstance(false, false);
  RowLog clean_log;
  serve::ServeResult r_clean = RunChaos(clean, &clean_log);
  PrintServeRow("clean", 4, r_clean);

  Instance degraded = ChaosInstance(true, false);
  RowLog degraded_log;
  serve::ServeResult r_degraded = RunChaos(degraded, &degraded_log);
  PrintServeRow("degraded", 4, r_degraded);

  // Two fresh hedged instances: the second exists only to prove the fault
  // schedule meters bit-identically end to end through the server.
  Instance hedged = ChaosInstance(true, true);
  RowLog hedged_log;
  serve::ServeResult r_hedged = RunChaos(hedged, &hedged_log);
  PrintServeRow("hedged", 4, r_hedged);
  Instance hedged_b = ChaosInstance(true, true);
  RowLog hedged_b_log;
  serve::ServeResult r_hedged_b = RunChaos(hedged_b, &hedged_b_log);
  PrintServeRow("hedged-b", 4, r_hedged_b);

  // The partition leg: nodes 0 and 1 down for every key, so a key whose
  // replica chain is [0, 1] is unreachable while every other key's chain
  // has a live node. Built storage cannot be re-created against downed
  // nodes (block writes probe-read their segments), so the clean
  // instance's bytes are restored into the faulted cluster — the storage
  // is intact, the network just cannot prove it for a quarter of the keys.
  std::string snapshot =
      (std::filesystem::temp_directory_path() / "zidian_exp4_chaos").string();
  std::filesystem::create_directories(snapshot);
  if (auto s = clean.cluster->SaveToDir(snapshot); !s.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ClusterOptions down_options = ChaosOptions();
  down_options.network.faults.seed = 20260808;
  NodeFaultOptions dead;
  dead.down_from = 0;
  dead.down_until = 1;
  down_options.network.faults.node_faults = {dead, dead};
  Instance down;
  down.workload = std::move(clean.workload);
  down.cluster = std::make_unique<Cluster>(std::move(down_options));
  if (auto s = down.cluster->LoadFromDir(snapshot); !s.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
    return 1;
  }
  down.zidian = std::make_unique<Zidian>(&down.workload.catalog,
                                         down.cluster.get(),
                                         down.workload.baav);
  RowLog down_log;
  serve::ServeResult r_down = RunChaos(down, &down_log);
  PrintServeRow("down[0,1]", 4, r_down);
  PrintRule();

  double p99_clean = double(r_clean.latency.Quantile(0.99)) / 1e6;
  double p99_degraded = double(r_degraded.latency.Quantile(0.99)) / 1e6;
  double p99_hedged = double(r_hedged.latency.Quantile(0.99)) / 1e6;
  double regression = p99_degraded - p99_clean;
  double residual = p99_hedged - p99_clean;

  bool all_served = r_clean.failed == 0 && r_degraded.failed == 0 &&
                    r_hedged.failed == 0 && r_hedged_b.failed == 0;
  bool rows_ok = RowsMatch(degraded_log, clean_log, LogMatch::kExact) &&
                 RowsMatch(hedged_log, clean_log, LogMatch::kExact) &&
                 RowsMatch(down_log, clean_log, LogMatch::kSubset);
  bool hedges_fired = r_hedged.metrics.net_hedges > 0 &&
                      r_hedged.metrics.net_hedge_wins > 0;
  bool p99_recovered = regression >= 2.0 * residual;
  // A warm forced cache (the *_cached CI configuration) legitimately
  // absorbs reads before they reach the fault machine, so exact counter
  // equality across fresh instances is only claimed cache-less.
  bool deterministic =
      clean.cluster->cache_enabled() ||
      FaultCounters(r_hedged.metrics) == FaultCounters(r_hedged_b.metrics);
  bool down_clean_failures =
      r_down.failed > 0 && r_down.completed > 0 &&
      r_down.metrics.failed_queries == r_down.failed &&
      r_down.metrics.net_retries > 0;

  std::printf("rows: every completed query byte-identical to the fault-free "
              "run -> %s\n", rows_ok ? "yes" : "NO");
  std::printf("p99: clean %.2f ms, degraded %.2f ms, hedged %.2f ms -> "
              "hedging recovered %.0f%% of the regression (gate: >= 50%%, "
              "%llu hedges, %llu wins)\n",
              p99_clean, p99_degraded, p99_hedged,
              regression > 0 ? 100.0 * (regression - residual) / regression
                             : 0.0,
              static_cast<unsigned long long>(r_hedged.metrics.net_hedges),
              static_cast<unsigned long long>(
                  r_hedged.metrics.net_hedge_wins));
  std::printf("determinism: fault counters across two fresh hedged runs -> "
              "%s\n", deterministic ? "identical" : "DIVERGED");
  std::printf("partition: %llu unreachable queries failed cleanly, %llu "
              "completed\n",
              static_cast<unsigned long long>(r_down.failed),
              static_cast<unsigned long long>(r_down.completed));

  bool pass = all_served && rows_ok && hedges_fired && p99_recovered &&
              deterministic && down_clean_failures;
  std::printf("chaos smoke -> %s\n", pass ? "PASS" : "FAIL");
  if (!pass) {
    std::printf("  all_served=%d rows_ok=%d hedges_fired=%d "
                "p99_recovered=%d deterministic=%d down_clean=%d\n",
                all_served, rows_ok, hedges_fired, p99_recovered,
                deterministic, down_clean_failures);
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve_mode = false, smoke = false, chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve_mode = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else {
      std::fprintf(stderr, "usage: %s [--serve [--smoke|--chaos]]\n", argv[0]);
      return 2;
    }
  }
  if (serve_mode && chaos) return ServeChaos();
  if (serve_mode) {
    Instance inst = ServeInstance();
    return smoke ? ServeSmoke(inst) : ServeSweep(inst);
  }

  std::printf("Exp-4: KV workload throughput (Tpms, values per ms)\n");
  PrintRule();
  std::printf("%-6s %12s %12s %12s %12s\n", "nodes", "read TaaV",
              "read BaaV", "write TaaV", "write BaaV");
  PrintRule();
  double first_read_baav = 0, last_read_baav = 0;
  for (int nodes : {4, 6, 8, 10, 12}) {
    // Fixed data per node: scale grows with the node count.
    Tpms t = Measure(nodes, 0.5 * nodes);
    if (nodes == 4) first_read_baav = t.read_baav;
    last_read_baav = t.read_baav;
    std::printf("%-6d %12s %12s %12s %12s\n", nodes, Num(t.read_taav).c_str(),
                Num(t.read_baav).c_str(), Num(t.write_taav).c_str(),
                Num(t.write_baav).c_str());
  }
  PrintRule();
  std::printf(
      "paper-shape: BaaV read Tpms > TaaV read Tpms (block gets amortize); "
      "BaaV write Tpms lower but comparable; throughput is flat per node "
      "(horizontal scalability: total grows ~linearly; ratio last/first "
      "read = %.2f with 3x data+nodes)\n",
      last_read_baav / first_read_baav);
  return 0;
}
