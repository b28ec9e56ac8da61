// The Zidian middleware facade (§5.1, Fig. 1b): the public entry point a
// downstream user programs against.
//
//   Catalog + Cluster  ->  Zidian(catalog, cluster, baav_schema)
//     LoadTaav(db)          store the relations under TaaV (the existing
//                           SQL-over-NoSQL layout)
//     BuildBaav(db)         map the database onto the BaaV schema (M4)
//     Insert(...)/Delete(...)  keep both layouts in sync (§8.2); inside a
//                           WriteBatch they stage, and Commit() writes
//     Connect()             open a Connection, the one query API (see
//                           zidian/connection.h): Prepare(sql) runs module
//                           M1's routing decision (answerable on the BaaV
//                           store, Condition II?) and M2's plan generation
//                           once; Execute(...) runs M3 any number of times,
//                           with the interleaved parallel strategy, or the
//                           TaaV baseline when the query is not result
//                           preserving or RoutePolicy::kForceBaseline asks
//                           for the "without Zidian" arm.
#ifndef ZIDIAN_ZIDIAN_ZIDIAN_H_
#define ZIDIAN_ZIDIAN_ZIDIAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baav/baav_store.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "ra/taav.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "sql/binder.h"
#include "storage/backend.h"
#include "storage/cluster.h"
#include "zidian/planner.h"
#include "zidian/preservation.h"

namespace zidian {

class Connection;

struct ZidianOptions {
  BaavStoreOptions store;
  PlannerOptions planner;
};

struct AnswerInfo {
  enum class Route {
    kKbaScanFree,   ///< scan-free KBA plan (no table touched by scans)
    kKbaWithScans,  ///< KBA plan with instance-scan fallbacks
    kTaavFallback,  ///< not result preserving: baseline execution
  };
  Route route = Route::kTaavFallback;
  bool result_preserving = false;
  bool scan_free = false;
  bool bounded = false;
  bool stats_pushdown = false;
  /// BlockCache configuration the run (or Prepare) saw: whether a cache
  /// is attached to the cluster, its byte budget, and whether this
  /// execution bypassed it (ExecOptions::bypass_cache).
  bool cache_enabled = false;
  uint64_t cache_capacity_bytes = 0;
  bool cache_bypassed = false;
  /// NetworkModel configuration the run (or Prepare) saw — whether
  /// ClusterOptions::network attached a network, and its one-line summary
  /// (node count, uniform or not, link costs). The traffic itself lands
  /// in metrics.net_*.
  bool network_enabled = false;
  std::string network_text;
  /// Fault-injection schedule summary ("off" when no faults are
  /// scheduled; empty when no network is attached at all) and the
  /// cluster's replication/recovery policy — the availability
  /// configuration a run saw, next to network_text. When a query fails
  /// with exhausted retries, the structured error lands in `detail` and
  /// metrics.failed_queries counts it.
  std::string fault_text;
  std::string replication_text;
  /// How `workers` *effectively* executed this run: simulated cost
  /// accounting or real threads. A kThreads request with workers <= 1
  /// runs (and reports) kSimulated — one worker on the calling thread IS
  /// the simulated path. Under kThreads, metrics.wall_seconds carries
  /// the measured time next to the modeled makespans.
  ParallelMode parallel_mode = ParallelMode::kSimulated;
  /// Whether this run's threads came from the Connection-shared pool
  /// (amortized across executions) rather than an ExecOptions::pool
  /// override. Always false under kSimulated.
  bool used_shared_pool = false;
  QueryMetrics metrics;
  std::string plan_text;
  std::string detail;
};

class Zidian {
 public:
  Zidian(const Catalog* catalog, Cluster* cluster, BaavSchema baav_schema,
         ZidianOptions options = {});

  const Catalog& catalog() const { return *catalog_; }
  const ZidianOptions& options() const { return options_; }
  BaavStore& store() { return store_; }
  const BaavStore& store() const { return store_; }
  Cluster& cluster() { return *cluster_; }

  /// Opens a session: Prepare(sql) once, Execute(...) many times.
  Connection Connect();

  /// Loads every relation of `db` into the cluster under TaaV.
  Status LoadTaav(const std::map<std::string, Relation>& db);

  /// Maps `db` onto the BaaV schema (module M4's data plane).
  Status BuildBaav(const std::map<std::string, Relation>& db);

  /// A staged write batch, open for its scope. While it is open, Insert
  /// and Delete stage their mutation instead of writing it: each runs
  /// BaaV maintenance's read phase at once, for the blocks the batch does
  /// not hold yet, and applies its edit to the staged blocks, so a later
  /// mutation sees the earlier ones (a Delete then an Insert of one row
  /// reads each block once). Commit() writes both layouts: the TaaV puts
  /// and deletes in staging order, then every staged block once. A batch
  /// one of whose mutations failed, or that is destroyed without a
  /// commit, writes nothing. One batch is open per Zidian at a time (a
  /// second one fails with InvalidArgument), and a write batch is a
  /// writer: writers must not overlap each other (the serving layer
  /// serialises them). The read phase only reads, so it may overlap read
  /// queries. Commit() is one Cluster::Write: it holds the storage gate
  /// exclusive while it writes, so it waits only for storage accesses in
  /// flight, and a query whose reads straddle it runs again.
  class WriteBatch {
   public:
    explicit WriteBatch(Zidian* zidian);
    ~WriteBatch();
    WriteBatch(const WriteBatch&) = delete;
    WriteBatch& operator=(const WriteBatch&) = delete;

    /// Writes every staged mutation and closes the batch: Insert and
    /// Delete in its scope afterwards write at once. Returns the first
    /// failed mutation's error instead, writing nothing.
    Status Commit();

   private:
    friend class Zidian;
    /// Stages one mutation; the first failure fails the batch.
    Status Stage(const std::string& relation, const Tuple& tuple,
                 bool insert);
    Status StageOne(const std::string& relation, const Tuple& tuple,
                    bool insert);
    void Close();

    Zidian* zidian_;
    Status status_;
    BaavStore::Maintenance baav_;
    /// A staged TaaV write: put the tuple's pair, or delete its key.
    struct TaavWrite {
      TaavEntry entry;
      bool put;
    };
    /// TaaV writes in staging order.
    std::vector<TaavWrite> taav_;
  };

  /// Keeps both layouts in sync with one tuple-level update (§8.2). Inside
  /// an open WriteBatch the mutation is staged (its BaaV reads run now,
  /// its writes at Commit); otherwise it runs as a batch of one, read
  /// phase first, so a failed read changes neither layout.
  Status Insert(const std::string& relation, const Tuple& tuple);
  Status Delete(const std::string& relation, const Tuple& tuple);

 private:
  Status Mutate(const std::string& relation, const Tuple& tuple, bool insert);

  const Catalog* catalog_;
  Cluster* cluster_;
  BaavStore store_;
  ZidianOptions options_;
  /// The open WriteBatch, if any; touched only by the writer.
  WriteBatch* batch_ = nullptr;
};

}  // namespace zidian

#endif  // ZIDIAN_ZIDIAN_ZIDIAN_H_
