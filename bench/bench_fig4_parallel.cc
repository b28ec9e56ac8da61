// Figure 4 (Exp-3): parallel scalability and communication cost.
//  4a/4b (MOT) and 4c/4d (TPC-H): vary the number of workers p = 4..12 at a
//  fixed scale; report average time and total communication.
//  4e/4f (MOT) and 4g/4h (TPC-H): fix p = 8, vary dataset scale x1..x16;
//  report time and communication.
//
// Paper shape: (1) all systems speed up as p grows (parallel scalability,
// Thm 8) and Zidian stays 1-3 orders of magnitude ahead; (2) Zidian ships a
// tiny fraction of the baseline's bytes; (3) at p = 8 the communication of
// bounded MOT queries stays ~constant as |D| grows (Prop 7b).
//
// The parallel-mode sweep additionally validates the makespan model
// against the clock: ExecOptions::parallel_mode × workers ∈ {1,2,4,8} on
// an extend-heavy plan, over a uniform NetworkModel link that prices only
// the round trip (NetworkLinkOptions::rtt_us), standing in for the
// network RTT a remote store would charge. The sweep measures worker
// scaling, so each worker runs the serial stall schedule
// (FanoutMode::kSerial, the control arm): under the default overlapped
// schedule one worker already overlaps its per-node batches, leaving
// nothing for more workers to win. kThreads overlaps its per-worker
// MultiGets where kSimulated pays them back-to-back, so measured
// wall-clock falls with p as makespan_get predicts. Each cell also splits
// its wall time into the fetch region (the per-worker MultiGets, block
// decode and emit) and the SQL-layer compute. Counters must be identical
// between the modes on every cell.
//
// A second sweep runs the same contract over the TaaV baseline, also on
// the serial schedule: the threaded per-tuple get scan overlaps its
// per-get round-trip stalls where the sequential scan pays them
// back-to-back, so the baseline leg must show the same
// wall-clock-falls-with-p shape with identical counters — treatment and
// control on one substrate.
//
// A third sweep exercises the NetworkModel (storage/network_model.h):
// node counts × batching on/off under one priced network. A batched
// MultiGet pays one round trip per touched node where per-key gets pay
// one per key, so batching must win by ~K/nodes — in modeled seconds
// (makespan_net + queue delay) and on the measured clock.
//
// A fourth sweep gates the stall schedule of Cluster::MultiGet
// (FanoutMode): with one of 8 storage nodes 10x slower, the serial
// fan-out pays the sum of its per-node stalls (~17 RTTs) while the
// overlapped one pays ~the bottleneck node alone (~10 RTTs) — a ~0.59x
// ratio, gated at <= 0.6x on the wall clock AND the modeled network leg,
// with identical counters.
//
// Usage: bench_fig4_parallel [--smoke | --skew]
//   --smoke: CI-sized sweeps only; exits non-zero unless (a) counters
//   match across modes, (b) threads at 4 workers beat threads at 1
//   worker by >= 2x wall-clock on both the extend-heavy KBA plan and
//   the TaaV baseline leg, and (c) batched MultiGets beat per-key gets
//   by >= 2x at 8 storage nodes, modeled AND wall.
//   --skew: the skewed-node async leg only; exits non-zero unless the
//   overlapped fan-out costs <= 0.6x the serial one, wall AND modeled.
#include <chrono>
#include <cstring>
#include <memory>

#include "bench/bench_util.h"
#include "kba/kba_executor.h"
#include "kba/kba_plan.h"
#include "kba/makespan.h"

using namespace zidian;
using namespace zidian::bench;

namespace {

struct Cell {
  double base_s = 0, zid_s = 0;
  double base_comm = 0, zid_comm = 0;  // MB
};

Cell Average(Instance& inst, int workers) {
  Cell c;
  for (const auto& q : inst.workload.queries) {
    RunStats s = RunBoth(inst, q.sql, SoH(), workers);
    c.base_s += s.baseline_s;
    c.zid_s += s.zidian_s;
    c.base_comm += double(s.baseline_m.CommBytes()) / (1 << 20);
    c.zid_comm += double(s.zidian_m.CommBytes()) / (1 << 20);
  }
  double n = double(inst.workload.queries.size());
  c.base_s /= n;
  c.zid_s /= n;
  return c;
}

void VaryWorkers(const char* name, bool tpch) {
  std::printf("\nFig 4%s (%s): vary workers p, fixed scale\n",
              tpch ? "c/4d" : "a/4b", name);
  PrintRule();
  std::printf("%-4s %12s %12s %14s %14s\n", "p", "base time", "Zidian time",
              "base comm MB", "Zidian comm MB");
  PrintRule();
  Instance inst = tpch ? Load(MakeTpch(1.0, 42), 12)
                       : Load(MakeMot(2.0, 42), 12);
  for (int p : {4, 6, 8, 10, 12}) {
    Cell c = Average(inst, p);
    std::printf("%-4d %12s %12s %14s %14s\n", p, Num(c.base_s).c_str(),
                Num(c.zid_s).c_str(), Num(c.base_comm).c_str(),
                Num(c.zid_comm).c_str());
  }
  PrintRule();
}

void VaryScale(const char* name, bool tpch) {
  std::printf("\nFig 4%s (%s): vary dataset scale, p = 8\n",
              tpch ? "g/4h" : "e/4f", name);
  PrintRule();
  std::printf("%-6s %12s %12s %14s %14s\n", "scale", "base time",
              "Zidian time", "base comm MB", "Zidian comm MB");
  PrintRule();
  for (int scale : {1, 2, 4, 8, 16}) {
    Instance inst = tpch ? Load(MakeTpch(0.25 * scale, 42), 12)
                         : Load(MakeMot(0.5 * scale, 42), 12);
    Cell c = Average(inst, 8);
    std::printf("x%-5d %12s %12s %14s %14s\n", scale, Num(c.base_s).c_str(),
                Num(c.zid_s).c_str(), Num(c.base_comm).c_str(),
                Num(c.zid_comm).c_str());
  }
  PrintRule();
}

// ------------------------------------------------- parallel-mode sweep ---

struct SweepCell {
  double wall_s = 0;  // min over repeats: the least-noise estimate
  double sim_s = 0;
  QueryMetrics m;
};

/// The extension fan-out plan of §7.2 at its purest: a constant keyed
/// block of every vehicle id, extended (∝) into mot_test@vehicle_id —
/// one batched MultiGet per worker over the keys it owns, thousands of
/// distinct blocks. This is the shape the SQL planner produces for every
/// scan-free point join; driving the executor directly lets the sweep
/// scale the fan-out without depending on a seed constant.
KbaPlanPtr ExtendHeavyPlan(int64_t n_vehicles) {
  KvInst seeds;
  seeds.key_cols = {"d"};
  seeds.rel = Relation(seeds.key_cols);
  for (int64_t v = 1; v <= n_vehicles; ++v) {
    seeds.rel.Add({Value(v)});
  }
  return KbaPlan::Extend(KbaPlan::Const(std::move(seeds)),
                         "mot_test@vehicle_id", "t", {{"d", "vehicle_id"}});
}

/// 8 storage nodes behind a uniform link that prices only the round trip.
ClusterOptions UniformRtt(int rtt_us) {
  ClusterOptions co{.num_storage_nodes = 8};
  co.network.link.rtt_us = rtt_us;
  return co;
}

SweepCell RunCell(Instance& inst, const KbaPlan& plan, ParallelMode mode,
                  int workers, int repeats) {
  SweepCell cell;
  KbaExecutor exec(&inst.zidian->store());
  for (int r = 0; r < repeats; ++r) {
    QueryMetrics m;
    auto start = std::chrono::steady_clock::now();
    // The threaded cell builds and joins a fresh pool inside the timed
    // call, so the wall includes the thread spin-up a one-shot run pays.
    std::unique_ptr<ThreadPool> pool;
    if (mode == ParallelMode::kThreads && workers > 1) {
      pool = std::make_unique<ThreadPool>(workers - 1);
    }
    auto res = exec.Execute(plan,
                            KbaExecOptions{.workers = workers,
                                           .pool = pool.get(),
                                           .fanout = FanoutMode::kSerial},
                            &m);
    pool.reset();
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!res.ok()) {
      std::fprintf(stderr, "execute failed: %s\n",
                   res.status().ToString().c_str());
      std::abort();
    }
    if (r == 0 || wall < cell.wall_s) {
      cell.wall_s = wall;
      cell.m = m;  // the fastest repeat's wall split
    }
    cell.sim_s = SimSeconds(m, SoH());
  }
  return cell;
}

/// The sweep satellite: wall-clock alongside simulated makespan for
/// parallel_mode × workers on the extend-heavy plan. Returns false if
/// the determinism or speedup contract is violated (checked in --smoke).
bool ModeSweep(double scale, int latency_us, int repeats, bool assert_smoke) {
  Instance inst = Load(MakeMot(scale, 42), UniformRtt(latency_us));
  int64_t n_vehicles = std::max<int64_t>(20, static_cast<int64_t>(500 * scale));
  KbaPlanPtr plan = ExtendHeavyPlan(n_vehicles);

  std::printf(
      "\nParallel-mode sweep (extend of %lld vehicle blocks into "
      "mot_test@vehicle_id, 8 storage nodes, %dus round-trip latency)\n",
      static_cast<long long>(n_vehicles), latency_us);
  PrintRule();
  std::printf("%-4s %-10s %10s %10s %10s %10s %8s %9s\n", "p", "mode",
              "sim s", "wall ms", "fetch ms", "compute ms", "trips",
              "speedup");
  PrintRule();

  bool ok = true;
  double threads_wall_at_1 = 0;
  double threads_wall_at_4 = 0;
  for (int p : {1, 2, 4, 8}) {
    SweepCell sim = RunCell(inst, *plan, ParallelMode::kSimulated, p, repeats);
    SweepCell thr = RunCell(inst, *plan, ParallelMode::kThreads, p, repeats);
    if (!CountersEqual(sim.m, thr.m)) {
      std::fprintf(stderr,
                   "FAIL: counters diverge between modes at p=%d\n  sim: "
                   "%s\n  thr: %s\n",
                   p, sim.m.ToString().c_str(), thr.m.ToString().c_str());
      ok = false;
    }
    if (p == 1) threads_wall_at_1 = thr.wall_s;
    if (p == 4) threads_wall_at_4 = thr.wall_s;
    std::printf("%-4d %-10s %10s %10.2f %10.2f %10.2f %8llu %9s\n", p,
                "simulated", Num(sim.sim_s).c_str(), sim.wall_s * 1e3,
                sim.m.wall_fetch_seconds * 1e3,
                sim.m.wall_compute_seconds * 1e3,
                static_cast<unsigned long long>(sim.m.get_round_trips), "-");
    double speedup = thr.wall_s > 0 ? sim.wall_s / thr.wall_s : 0;
    std::printf("%-4d %-10s %10s %10.2f %10.2f %10.2f %8llu %8.2fx\n", p,
                "threads", Num(thr.sim_s).c_str(), thr.wall_s * 1e3,
                thr.m.wall_fetch_seconds * 1e3,
                thr.m.wall_compute_seconds * 1e3,
                static_cast<unsigned long long>(thr.m.get_round_trips),
                speedup);
  }
  PrintRule();
  double scaling = threads_wall_at_4 > 0 ? threads_wall_at_1 / threads_wall_at_4
                                         : 0;
  std::printf(
      "threads scaling: wall(p=1) / wall(p=4) = %.2fx (makespan model "
      "predicts ~4x when round trips dominate)\n",
      scaling);
  if (assert_smoke && scaling < 2.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 2x wall-clock speedup at 4 workers, "
                 "measured %.2fx\n",
                 scaling);
    ok = false;
  }
  return ok;
}

/// The TaaV leg: the baseline's blind scan pays one (simulated) get per
/// tuple; with a per-get round-trip stall, the threaded scan's chunk-per-
/// worker fan-out must compress wall-clock by ~p while counters stay
/// identical to kSimulated. mot-q9 (single-table filter + GROUP BY)
/// drives the full threaded baseline pipeline through the facade —
/// shared Connection pool included.
bool TaavSweep(double scale, int latency_us, int repeats, bool assert_smoke) {
  Instance inst = Load(MakeMot(scale, 42), UniformRtt(latency_us));
  const auto& query = inst.workload.queries[8];  // mot-q9
  Connection conn = inst.zidian->Connect();
  auto prepared = conn.Prepare(query.sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    std::abort();
  }

  std::printf(
      "\nTaaV baseline sweep (%s via ForceBaseline, %dus per-get "
      "round-trip latency)\n",
      query.name.c_str(), latency_us);
  PrintRule();
  std::printf("%-4s %-10s %12s %12s %12s %10s\n", "p", "mode", "gets",
              "wall ms", "makespan_get", "speedup");
  PrintRule();

  bool ok = true;
  double threads_wall_at_1 = 0;
  double threads_wall_at_4 = 0;
  for (int p : {1, 2, 4, 8}) {
    QueryMetrics sim_m, thr_m;
    double sim_wall = 0, thr_wall = 0;
    for (int r = 0; r < repeats; ++r) {
      for (ParallelMode mode :
           {ParallelMode::kSimulated, ParallelMode::kThreads}) {
        AnswerInfo info;
        auto start = std::chrono::steady_clock::now();
        auto res = prepared->Execute(
            ExecOptions{.workers = p,
                        .route_policy = RoutePolicy::kForceBaseline,
                        .parallel_mode = mode,
                        .fanout = FanoutMode::kSerial},
            &info);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        if (!res.ok()) {
          std::fprintf(stderr, "baseline execute failed: %s\n",
                       res.status().ToString().c_str());
          std::abort();
        }
        if (mode == ParallelMode::kSimulated) {
          sim_m = info.metrics;
          if (r == 0 || wall < sim_wall) sim_wall = wall;
        } else {
          thr_m = info.metrics;
          if (r == 0 || wall < thr_wall) thr_wall = wall;
        }
      }
    }
    if (!CountersEqual(sim_m, thr_m)) {
      std::fprintf(stderr,
                   "FAIL: baseline counters diverge between modes at p=%d\n"
                   "  sim: %s\n  thr: %s\n",
                   p, sim_m.ToString().c_str(), thr_m.ToString().c_str());
      ok = false;
    }
    if (p == 1) threads_wall_at_1 = thr_wall;
    if (p == 4) threads_wall_at_4 = thr_wall;
    std::printf("%-4d %-10s %12llu %12.2f %12.1f %10s\n", p, "simulated",
                static_cast<unsigned long long>(sim_m.get_calls),
                sim_wall * 1e3, sim_m.makespan_get, "-");
    double speedup = thr_wall > 0 ? sim_wall / thr_wall : 0;
    std::printf("%-4d %-10s %12llu %12.2f %12.1f %9.2fx\n", p, "threads",
                static_cast<unsigned long long>(thr_m.get_calls),
                thr_wall * 1e3, thr_m.makespan_get, speedup);
  }
  PrintRule();
  double scaling =
      threads_wall_at_4 > 0 ? threads_wall_at_1 / threads_wall_at_4 : 0;
  std::printf(
      "baseline threads scaling: wall(p=1) / wall(p=4) = %.2fx (makespan "
      "model predicts ~4x when per-tuple gets dominate)\n",
      scaling);
  if (assert_smoke && scaling < 2.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 2x baseline wall-clock speedup at 4 "
                 "workers, measured %.2fx\n",
                 scaling);
    ok = false;
  }
  return ok;
}

// --------------------------------------------------- network-model leg ---

/// One cell of the network sweep: `total_keys` point lookups against a
/// cluster whose NetworkModel prices every round trip, issued either as
/// per-worker batched MultiGets (one round trip per touched node) or as
/// per-key one-key MultiGets. Keys are partitioned by owning node modulo
/// workers — the extension executor's routing — so under kThreads no two
/// workers contend for a node and the wall-clock isolates the batching
/// economics the model prices.
struct NetCell {
  double sim_s = 0;    // makespan_net + modeled queue delay
  double queue_s = 0;  // the modeled queue-delay component alone
  double wall_s = 0;   // measured, min over repeats
  uint64_t trips = 0;
};

NetCell RunNetCell(Cluster& cluster, const std::vector<std::string>& keys,
                   bool batched, int workers, bool threads, int repeats) {
  NetCell cell;
  std::vector<std::vector<std::string>> per_worker(
      static_cast<size_t>(workers));
  for (const auto& k : keys) {
    per_worker[static_cast<size_t>(cluster.NodeFor(k) % workers)].push_back(k);
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads && workers > 1) pool = std::make_unique<ThreadPool>(workers - 1);

  for (int r = 0; r < repeats; ++r) {
    std::vector<QueryMetrics> deltas(static_cast<size_t>(workers));
    auto run_worker = [&](size_t w) {
      QueryMetrics* wm = &deltas[w];
      if (batched) {
        if (!cluster.MultiGet(per_worker[w], wm, CacheFill::kFill,
                              FanoutMode::kSerial).ok()) std::abort();
      } else {
        for (const auto& k : per_worker[w]) {
          if (!cluster.MultiGet({k}, wm, CacheFill::kFill, FanoutMode::kSerial)
                   .ok()) {
            std::abort();
          }
        }
      }
    };
    auto start = std::chrono::steady_clock::now();
    ParallelFor(pool.get(), static_cast<size_t>(workers), run_worker);
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (r == 0 || wall < cell.wall_s) cell.wall_s = wall;

    QueryMetrics total;
    for (const auto& d : deltas) total += d;
    total.makespan_net_seconds = MaxWorkerNetSeconds(deltas);
    FinalizeNetworkQueue(&total);
    cell.sim_s = total.makespan_net_seconds + total.net_queue_seconds;
    cell.queue_s = total.net_queue_seconds;
    cell.trips = 0;
    for (uint64_t t : total.net_node_round_trips) cell.trips += t;
  }
  return cell;
}

/// The network leg: node counts × batching on/off under one NetworkModel
/// (rtt + per-key marginal cost + per-byte transfer + a service-rate
/// slot). The same K keys are fetched batched and per-key, sequentially
/// and at 4 threaded workers. Paper shape: a batched MultiGet pays one
/// round trip per touched node where per-key gets pay one per key, so
/// batching wins by ~K/nodes at every node count — in modeled seconds
/// AND on the clock.
bool NetworkSweep(int total_keys, int repeats, bool assert_smoke) {
  std::printf(
      "\nNetwork-model sweep (%d keys, rtt=400us per_key=5us "
      "per_byte=0.002us service_rate=10000/s; batched vs per-key)\n",
      total_keys);
  PrintRule();
  std::printf("%-6s %-9s %-8s %10s %12s %12s %12s\n", "nodes", "batching",
              "mode", "trips", "sim s", "wall ms", "queue ms");
  PrintRule();

  bool ok = true;
  for (int nodes : {2, 4, 8}) {
    ClusterOptions co{.num_storage_nodes = nodes,
                      .backend = BackendKind::kMem};
    co.network.link = NetworkLinkOptions{.rtt_us = 400,
                                         .per_key_us = 5,
                                         .per_byte_us = 0.002,
                                         .service_rate = 10000};
    Cluster cluster(co);
    cluster.SetCacheBypass(true);  // round-trip economics, not cache wins
    std::vector<std::string> keys;
    for (int i = 0; i < total_keys; ++i) {
      keys.push_back("net-key-" + std::to_string(i));
      if (!cluster.Put(keys.back(), std::string(40, 'v')).ok()) std::abort();
    }

    NetCell batched_thr, per_key_thr;
    for (bool batched : {true, false}) {
      NetCell seq = RunNetCell(cluster, keys, batched, 1, false, repeats);
      NetCell thr = RunNetCell(cluster, keys, batched, 4, true, repeats);
      std::printf("%-6d %-9s %-8s %10llu %12s %12.2f %12.2f\n", nodes,
                  batched ? "on" : "off", "seq",
                  static_cast<unsigned long long>(seq.trips),
                  Num(seq.sim_s).c_str(), seq.wall_s * 1e3, seq.queue_s * 1e3);
      std::printf("%-6d %-9s %-8s %10llu %12s %12.2f %12.2f\n", nodes,
                  batched ? "on" : "off", "threads",
                  static_cast<unsigned long long>(thr.trips),
                  Num(thr.sim_s).c_str(), thr.wall_s * 1e3, thr.queue_s * 1e3);
      (batched ? batched_thr : per_key_thr) = thr;
    }
    double sim_ratio =
        batched_thr.sim_s > 0 ? per_key_thr.sim_s / batched_thr.sim_s : 0;
    double wall_ratio =
        batched_thr.wall_s > 0 ? per_key_thr.wall_s / batched_thr.wall_s : 0;
    std::printf(
        "nodes=%d: per-key / batched = %.2fx modeled, %.2fx wall under "
        "threads\n",
        nodes, sim_ratio, wall_ratio);
    if (assert_smoke && nodes == 8) {
      if (sim_ratio < 2.0 || wall_ratio < 2.0) {
        std::fprintf(stderr,
                     "FAIL: batched MultiGet should beat per-key gets by >= "
                     "2x at 8 nodes (modeled %.2fx, wall %.2fx)\n",
                     sim_ratio, wall_ratio);
        ok = false;
      }
    }
  }
  PrintRule();
  return ok;
}

// ---------------------------------------------------- skewed-node leg ---

/// The modeled network leg of SimSeconds (storage/backend.cc), alone: the
/// serial stall schedule pays makespan + queue delay; an overlapped
/// fan-out shrinks the makespan by net_overlap_ns but can never finish
/// before the busiest node drains.
double NetLegSeconds(const QueryMetrics& m) {
  double net_s = m.makespan_net_seconds + m.net_queue_seconds;
  if (m.net_overlap_ns > 0) {
    uint64_t busiest = 0;
    for (uint64_t b : m.net_node_busy_ns) busiest = std::max(busiest, b);
    double shrunk = std::max(
        0.0, m.makespan_net_seconds -
                 static_cast<double>(m.net_overlap_ns) / 1e9);
    net_s = std::max(shrunk, static_cast<double>(busiest) / 1e9);
  }
  return net_s;
}

/// The skewed-node leg: 8 storage nodes, node 0 with a 10x slower link
/// (NetworkOptions::node_links). A serial fan-out over all 8 nodes pays
/// the SUM of its per-node batch stalls — 7 healthy RTTs plus the slow
/// one, ~17R — while the overlapped fan-out (FanoutMode::kOverlapped,
/// Cluster::MultiGet) keeps every batch in flight together and pays
/// ~the bottleneck node alone, ~10R. Expected ratio 10/17 ~ 0.59; gated
/// at <= 0.6 on the measured wall clock AND on the modeled network leg.
bool SkewedNodeSweep(int repeats, bool assert_gate) {
  ClusterOptions co{.num_storage_nodes = 8};
  co.network.link = NetworkLinkOptions{.rtt_us = 5000, .per_key_us = 1};
  NetworkLinkOptions slow = co.network.link;  // override replaces the link
  slow.rtt_us = co.network.link.rtt_us * 10;  // node 0: 10x degraded
  co.network.node_links = {slow};
  Instance inst = Load(MakeMot(0.2, 42), co);
  KbaPlanPtr plan = ExtendHeavyPlan(64);
  KbaExecutor exec(&inst.zidian->store());

  struct Arm {
    double wall_s = 0;  // min over repeats
    QueryMetrics m;
  };
  auto run_arm = [&](FanoutMode fanout) {
    Arm arm;
    for (int r = 0; r < repeats; ++r) {
      QueryMetrics m;
      auto start = std::chrono::steady_clock::now();
      auto res = exec.Execute(
          *plan, KbaExecOptions{.workers = 1, .fanout = fanout}, &m);
      double wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      if (!res.ok()) {
        std::fprintf(stderr, "execute failed: %s\n",
                     res.status().ToString().c_str());
        std::abort();
      }
      if (r == 0 || wall < arm.wall_s) arm.wall_s = wall;
      arm.m = m;
    }
    return arm;
  };

  Arm serial = run_arm(FanoutMode::kSerial);
  Arm overlapped = run_arm(FanoutMode::kOverlapped);

  std::printf(
      "\nSkewed-node fan-out (extend over 8 nodes, node 0 rtt %.0fus vs "
      "%.0fus):\n",
      slow.rtt_us, co.network.link.rtt_us);
  PrintRule();
  std::printf("%-12s %12s %12s %12s %12s\n", "fanout", "wall ms", "net ms",
              "overlap ms", "inflight");
  PrintRule();
  for (const auto* arm : {&serial, &overlapped}) {
    std::printf("%-12s %12.2f %12.2f %12.2f %12llu\n",
                arm == &serial ? "serial" : "overlapped", arm->wall_s * 1e3,
                NetLegSeconds(arm->m) * 1e3,
                static_cast<double>(arm->m.net_overlap_ns) / 1e6,
                static_cast<unsigned long long>(arm->m.net_inflight_max));
  }
  PrintRule();

  bool ok = true;
  if (!CountersEqual(serial.m, overlapped.m)) {
    std::fprintf(stderr,
                 "FAIL: counters diverge between fan-out modes\n  serial: "
                 "%s\n  overlapped: %s\n",
                 serial.m.ToString().c_str(),
                 overlapped.m.ToString().c_str());
    ok = false;
  }
  double wall_ratio =
      serial.wall_s > 0 ? overlapped.wall_s / serial.wall_s : 1.0;
  double net_ratio = NetLegSeconds(serial.m) > 0
                         ? NetLegSeconds(overlapped.m) / NetLegSeconds(serial.m)
                         : 1.0;
  std::printf(
      "overlapped / serial: wall %.2fx, modeled net leg %.2fx (bottleneck "
      "node / serial sum ~ 0.59x)\n",
      wall_ratio, net_ratio);
  if (assert_gate && wall_ratio > 0.6) {
    std::fprintf(stderr,
                 "FAIL: overlapped fan-out should cost <= 0.6x the serial "
                 "wall clock, measured %.2fx\n",
                 wall_ratio);
    ok = false;
  }
  if (assert_gate && net_ratio > 0.6) {
    std::fprintf(stderr,
                 "FAIL: overlapped fan-out should cost <= 0.6x the serial "
                 "modeled net leg, measured %.2fx\n",
                 net_ratio);
    ok = false;
  }
  return ok;
}

/// The pool-reuse leg: repeated threaded Executes of one PreparedQuery
/// through the Connection-shared pool vs a freshly spun-up pool per call
/// (what a one-shot threaded run without a shared pool pays). High-QPS
/// serving is the workload: per-query thread startup must lose to the
/// amortized pool.
bool PoolReuseSweep(int repeats, int workers, bool assert_smoke) {
  Instance inst = Load(MakeMot(0.5, 42), 8);
  const auto& query = inst.workload.queries[0];  // mot-q1: scan-free, cheap
  Connection conn = inst.zidian->Connect();
  auto prepared = conn.Prepare(query.sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    std::abort();
  }
  ExecOptions shared_opts{.workers = workers,
                          .parallel_mode = ParallelMode::kThreads};
  // One warm-up Execute creates the shared pool and warms the plan/cache
  // state both arms then see identically.
  AnswerInfo warm;
  if (!prepared->Execute(shared_opts, &warm).ok() || !warm.used_shared_pool) {
    std::fprintf(stderr, "warm-up did not engage the shared pool\n");
    std::abort();
  }

  auto timed = [&](bool per_call) {
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      Result<Relation> res = Relation();
      if (per_call) {
        ThreadPool fresh(workers - 1);  // the spin-up the shared pool saves
        ExecOptions opts = shared_opts;
        opts.pool = &fresh;
        res = prepared->Execute(opts);
      } else {
        res = prepared->Execute(shared_opts);
      }
      if (!res.ok()) {
        std::fprintf(stderr, "execute failed: %s\n",
                     res.status().ToString().c_str());
        std::abort();
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  double shared_s = timed(/*per_call=*/false);
  double per_call_s = timed(/*per_call=*/true);
  std::printf(
      "\nPool reuse (%d threaded Executes of %s at p=%d):\n"
      "  Connection-shared pool: %8.2f ms total (%6.1f us/exec)\n"
      "  per-call pool spin-up:  %8.2f ms total (%6.1f us/exec)  -> %.2fx\n",
      repeats, query.name.c_str(), workers, shared_s * 1e3,
      shared_s * 1e6 / repeats, per_call_s * 1e3, per_call_s * 1e6 / repeats,
      shared_s > 0 ? per_call_s / shared_s : 0);
  if (assert_smoke && shared_s >= per_call_s) {
    std::fprintf(stderr,
                 "FAIL: shared pool (%.2f ms) should beat per-call pool "
                 "spin-up (%.2f ms)\n",
                 shared_s * 1e3, per_call_s * 1e3);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc > 1 && std::strcmp(argv[1], "--skew") == 0) {
    // CI gate for the overlapped fan-out: with 1 of 8 nodes 10x slower,
    // async must cost ~the bottleneck node while sync costs ~the sum.
    bool ok = SkewedNodeSweep(/*repeats=*/3, /*assert_gate=*/true);
    std::printf(ok ? "\nskew: OK\n" : "\nskew: FAILED\n");
    return ok ? 0 : 1;
  }
  if (smoke) {
    // CI-sized: the sweeps only, with enough round-trip latency that round
    // trips dominate the clock even on a loaded single-core runner.
    bool ok = ModeSweep(/*scale=*/2.0, /*latency_us=*/1000, /*repeats=*/5,
                        /*assert_smoke=*/true);
    ok = TaavSweep(/*scale=*/0.2, /*latency_us=*/300, /*repeats=*/3,
                   /*assert_smoke=*/true) &&
         ok;
    ok = PoolReuseSweep(/*repeats=*/300, /*workers=*/8,
                        /*assert_smoke=*/true) &&
         ok;
    ok = NetworkSweep(/*total_keys=*/96, /*repeats=*/3,
                      /*assert_smoke=*/true) &&
         ok;
    std::printf(ok ? "\nsmoke: OK\n" : "\nsmoke: FAILED\n");
    return ok ? 0 : 1;
  }
  VaryWorkers("MOT", false);
  VaryWorkers("TPC-H", true);
  VaryScale("MOT", false);
  VaryScale("TPC-H", true);
  ModeSweep(/*scale=*/2.0, /*latency_us=*/200, /*repeats=*/3,
            /*assert_smoke=*/false);
  TaavSweep(/*scale=*/0.2, /*latency_us=*/100, /*repeats=*/3,
            /*assert_smoke=*/false);
  PoolReuseSweep(/*repeats=*/300, /*workers=*/8, /*assert_smoke=*/false);
  NetworkSweep(/*total_keys=*/96, /*repeats=*/3, /*assert_smoke=*/false);
  SkewedNodeSweep(/*repeats=*/3, /*assert_gate=*/false);
  std::printf(
      "\npaper-shape: times fall as p grows for both systems; Zidian's comm "
      "is a small fraction of the baseline's; both scale with |D| with "
      "Zidian far below; threaded wall-clock falls with p as makespan_get "
      "predicts on the KBA route AND the TaaV baseline; batched MultiGets "
      "beat per-key gets by ~K/nodes under the NetworkModel at every node "
      "count, in modeled seconds and on the clock\n");
  return 0;
}
