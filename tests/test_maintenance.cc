// Incremental BaaV maintenance (§8.2) against a fresh rebuild, and its
// round-trip budget:
//  * seeded random batches of 1-3 Insert/Delete mutations on MOT, TPC-H
//    and AIRCA leave every instance's blocks and Degree equal to a fresh
//    BuildAll on a separate cluster — one case with a tiny split
//    threshold, so blocks grow and shrink across segment boundaries;
//  * Degree stays exact when blocks shrink or vanish, and when the store
//    never measured the instance (a restored cluster);
//  * a failed maintenance read, a failed mutation in a WriteBatch, or an
//    uncommitted batch changes neither layout;
//  * BuildAll reads nothing, one mutation reads in one MultiGet per node
//    per round, and a Delete + Insert of one row in one WriteBatch reads
//    its blocks in one round and writes each segment once, counted at the
//    KvBackend seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/rng.h"
#include "ra/taav.h"
#include "storage/cluster.h"
#include "storage/mem_backend.h"
#include "test_support.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tpch") return MakeTpch(0.1, seed);
  if (name == "airca") return MakeAirca(0.1, seed);
  return MakeMot(0.1, seed);
}

/// Every instance's blocks as key -> sorted rows (a block is a bag). The
/// scan decodes every segment stored under the instance, so a stale
/// segment left by a shrinking block shows up as extra rows.
using InstanceBlocks = std::map<std::string, std::vector<std::string>>;

InstanceBlocks ReadInstance(const BaavStore& store, const KvSchema& kv) {
  InstanceBlocks blocks;
  Status st = store.ScanInstance(
      kv, nullptr, [&](const Tuple& key, const std::vector<Tuple>& rows) {
        auto& out = blocks[TupleToString(key)];
        for (const auto& r : rows) out.push_back(TupleToString(r));
        std::sort(out.begin(), out.end());
      });
  EXPECT_TRUE(st.ok()) << kv.name << ": " << st.ToString();
  return blocks;
}

/// Gives `row` a primary key no row of `relation` has: the last key column
/// moves to a value far outside the generated ranges.
Tuple WithFreshKey(const TableSchema& schema, Tuple row, int64_t serial) {
  const std::string& col = schema.primary_key().back();
  Value& v = row[static_cast<size_t>(schema.ColumnIndex(col))];
  if (v.type() == ValueType::kString) {
    v = Value(v.AsString() + "#" + std::to_string(serial));
  } else {
    v = Value(int64_t{900000000} + serial);
  }
  return row;
}

struct MaintenanceCase {
  std::string workload;
  uint64_t seed;
  size_t split_threshold;  // 0 = the store default
};

void PrintTo(const MaintenanceCase& c, std::ostream* os) {
  *os << c.workload << " seed " << c.seed << " split " << c.split_threshold;
}

class MaintenanceProperty : public ::testing::TestWithParam<MaintenanceCase> {
};

TEST_P(MaintenanceProperty, RandomUpdatesEqualFreshBuild) {
  const MaintenanceCase& c = GetParam();
  auto w = MakeWorkload(c.workload, 5);
  ASSERT_TRUE(w.ok());
  ZidianOptions options;
  if (c.split_threshold > 0) {
    options.store.block_split_threshold_bytes = c.split_threshold;
  }
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3,
                                 .backend = BackendKind::kMem});
  Zidian z(&w->catalog, &cluster, w->baav, options);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  // Only relations that feed an instance exercise maintenance.
  std::vector<std::string> relations;
  for (const auto& [name, rel] : w->data) {
    if (!w->baav.ForRelation(name).empty() && !rel.empty()) {
      relations.push_back(name);
    }
  }
  ASSERT_FALSE(relations.empty());

  // Random inserts (copies of existing rows under a fresh key, so they join
  // existing blocks) and deletes, mirrored on a shadow database, in
  // batches of 1-3 mutations: a later mutation of a batch may edit a block
  // an earlier one staged, or delete a row it inserted. A lone mutation
  // runs without a WriteBatch half of the time.
  std::map<std::string, Relation> shadow = w->data;
  Rng rng(c.seed);
  for (int op = 0; op < 120;) {
    const int mutations = 1 + int(rng.Next() % 3);
    std::optional<Zidian::WriteBatch> batch;
    if (mutations > 1 || rng.Chance(0.5)) batch.emplace(&z);
    for (int i = 0; i < mutations; ++i, ++op) {
      const std::string& name = relations[rng.Next() % relations.size()];
      auto schema = w->catalog.Get(name);
      ASSERT_TRUE(schema.ok());
      auto& rows = shadow.at(name).rows();
      size_t pick = size_t(rng.Next() % rows.size());
      if (rows.size() <= 1 || rng.Chance(0.5)) {
        Tuple t = WithFreshKey(*schema, rows[pick], op);
        ASSERT_TRUE(z.Insert(name, t).ok()) << name << " op " << op;
        rows.push_back(std::move(t));
      } else {
        Tuple t = rows[pick];
        ASSERT_TRUE(z.Delete(name, t).ok()) << name << " op " << op;
        rows.erase(rows.begin() + long(pick));
      }
    }
    if (batch) {
      ASSERT_TRUE(batch->Commit().ok()) << "op " << op;
    }
  }

  Cluster fresh_cluster(ClusterOptions{.num_storage_nodes = 3,
                                       .backend = BackendKind::kMem});
  Zidian fresh(&w->catalog, &fresh_cluster, w->baav, options);
  ASSERT_TRUE(fresh.BuildBaav(shadow).ok());
  // A third store over the maintained cluster measures Degree by a scan.
  BaavStore rescan(&cluster, w->baav, &w->catalog, options.store);
  for (const auto& kv : w->baav.all()) {
    EXPECT_EQ(ReadInstance(z.store(), kv), ReadInstance(fresh.store(), kv))
        << kv.name;
    auto maintained = z.store().Degree(kv);
    auto rebuilt = fresh.store().Degree(kv);
    auto scanned = rescan.Degree(kv);
    ASSERT_TRUE(maintained.ok() && rebuilt.ok() && scanned.ok()) << kv.name;
    EXPECT_EQ(*maintained, *rebuilt) << kv.name;
    EXPECT_EQ(*scanned, *rebuilt) << kv.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MaintenanceProperty,
    ::testing::Values(MaintenanceCase{"mot", 11, 0},
                      MaintenanceCase{"tpch", 12, 0},
                      MaintenanceCase{"airca", 13, 0},
                      MaintenanceCase{"mot", 14, 160}),
    [](const auto& info) {
      return info.param.workload +
             (info.param.split_threshold > 0 ? "_split" : "");
    });

// ------------------------------------------------------- exact Degree ---

const KvSchema* InstanceKeyedBy(const BaavSchema& baav,
                                const std::string& relation,
                                const std::string& key) {
  for (const auto* kv : baav.ForRelation(relation)) {
    if (kv->key_attrs == std::vector<std::string>{key}) return kv;
  }
  return nullptr;
}

TEST(MaintenanceDegree, DeletingEveryRowLeavesDegreeZero) {
  auto w = MakeMot(0.05, 3);
  ASSERT_TRUE(w.ok());
  const KvSchema* kv = InstanceKeyedBy(w->baav, "mot_test", "vehicle_id");
  ASSERT_NE(kv, nullptr);
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  auto before = z.store().Degree(*kv);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(*before, 1u);

  for (const auto& row : w->data.at("mot_test").rows()) {
    ASSERT_TRUE(z.Delete("mot_test", row).ok());
  }
  // A running max would still answer the old block size here.
  auto after = z.store().Degree(*kv);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 0u);
  BaavStore rescan(&cluster, w->baav, &w->catalog);
  auto scanned = rescan.Degree(*kv);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*scanned, 0u);
}

TEST(MaintenanceDegree, InsertOnARestoredClusterKeepsTheScannedDegree) {
  auto w = MakeMot(0.05, 3);
  ASSERT_TRUE(w.ok());
  const KvSchema* kv = InstanceKeyedBy(w->baav, "mot_test", "vehicle_id");
  ASSERT_NE(kv, nullptr);
  ScopedDir dir("maintenance-restored");
  {
    Cluster built(ClusterOptions{.num_storage_nodes = 3});
    Zidian z(&w->catalog, &built, w->baav);
    ASSERT_TRUE(z.LoadTaav(w->data).ok());
    ASSERT_TRUE(z.BuildBaav(w->data).ok());
    ASSERT_TRUE(built.SaveToDir(dir.path()).ok());
  }
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
  ASSERT_TRUE(cluster.LoadFromDir(dir.path()).ok());
  Zidian restored(&w->catalog, &cluster, w->baav);  // no rebuild

  // One new vehicle's first test: a one-row block in an instance whose
  // largest block the store has never measured.
  auto schema = w->catalog.Get("mot_test");
  ASSERT_TRUE(schema.ok());
  Tuple t = WithFreshKey(*schema, w->data.at("mot_test").rows()[0], 1);
  t[static_cast<size_t>(schema->ColumnIndex("vehicle_id"))] =
      Value(int64_t{777777});
  ASSERT_TRUE(restored.Insert("mot_test", t).ok());

  BaavStore rescan(&cluster, w->baav, &w->catalog);
  auto scanned = rescan.Degree(*kv);
  auto maintained = restored.store().Degree(*kv);
  ASSERT_TRUE(scanned.ok() && maintained.ok());
  EXPECT_GT(*scanned, 1u);
  EXPECT_EQ(*maintained, *scanned);
}

// ------------------------------------------- a failed read writes nothing ---

TEST(MaintenanceFaults, FailedReadPhaseChangesNeitherLayout) {
  auto w = MakeMot(0.05, 17);
  ASSERT_TRUE(w.ok());
  ScopedDir dir("maintenance-faults");
  {
    Cluster healthy(ClusterOptions{.num_storage_nodes = 4,
                                   .backend = BackendKind::kMem});
    Zidian z(&w->catalog, &healthy, w->baav);
    ASSERT_TRUE(z.LoadTaav(w->data).ok());
    ASSERT_TRUE(z.BuildBaav(w->data).ok());
    ASSERT_TRUE(healthy.SaveToDir(dir.path()).ok());
  }
  // Every node down for every key: no read can succeed, writes still land.
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.faults.seed = 1;
  co.network.faults.fault.down_until = 1;
  Cluster cluster(co);
  ASSERT_TRUE(cluster.LoadFromDir(dir.path()).ok());
  ASSERT_TRUE(cluster.network()->faults_enabled());
  Zidian zidian(&w->catalog, &cluster, w->baav);

  const std::vector<Pairs> before = NodePairs(cluster);
  auto schema = w->catalog.Get("mot_test");
  ASSERT_TRUE(schema.ok());
  const Tuple& existing = w->data.at("mot_test").rows()[0];
  Status ins = zidian.Insert("mot_test", WithFreshKey(*schema, existing, 1));
  EXPECT_TRUE(ins.IsUnavailable()) << ins.ToString();
  Status del = zidian.Delete("mot_test", existing);
  EXPECT_TRUE(del.IsUnavailable()) << del.ToString();
  EXPECT_TRUE(NodePairs(cluster) == before);
}

// ------------------------------------------------- the batch contract ---

/// COUNT(*) of `vehicle`'s mot_test rows on the KBA route and on the TaaV
/// baseline.
std::pair<int64_t, int64_t> CountTests(Zidian* z, int64_t vehicle) {
  const std::string sql =
      "SELECT COUNT(*) FROM mot_test t WHERE t.vehicle_id = " +
      std::to_string(vehicle);
  Connection conn = z->Connect();
  auto kba = conn.Execute(sql, ExecOptions{});
  auto base = conn.Execute(
      sql, ExecOptions{.route_policy = RoutePolicy::kForceBaseline});
  EXPECT_TRUE(kba.ok() && base.ok()) << sql;
  if (!kba.ok() || !base.ok() || kba->size() != 1 || base->size() != 1) {
    return {-1, -1};
  }
  return {int64_t(kba->rows()[0][0].Numeric()),
          int64_t(base->rows()[0][0].Numeric())};
}

TEST(MaintenanceBatch, FailedOrUncommittedBatchesWriteNothing) {
  auto w = MakeMot(0.05, 3);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3,
                                 .backend = BackendKind::kMem});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  const std::vector<Pairs> before = NodePairs(cluster);
  const Relation& tests = w->data.at("mot_test");
  const Tuple row = tests.rows()[0];
  Tuple longer = row;
  longer.push_back(Value(int64_t{1}));
  const std::string taav_key = TaavKey(
      "mot_test", {row[static_cast<size_t>(tests.ColumnIndex("test_id"))]});
  auto loaded_value = GetOne(cluster, taav_key, nullptr);
  ASSERT_TRUE(loaded_value.ok()) << loaded_value.status().ToString();
  const std::string taav_value = *loaded_value;
  const int64_t vehicle =
      row[static_cast<size_t>(tests.ColumnIndex("vehicle_id"))].AsInt();
  const auto [loaded, loaded_base] = CountTests(&z, vehicle);
  ASSERT_GT(loaded, 1);
  ASSERT_EQ(loaded, loaded_base);

  {
    Zidian::WriteBatch batch(&z);
    ASSERT_TRUE(z.Delete("mot_test", row).ok());
  }  // destroyed without a commit
  EXPECT_TRUE(NodePairs(cluster) == before);
  {
    Zidian::WriteBatch batch(&z);
    ASSERT_TRUE(z.Delete("mot_test", row).ok());
    EXPECT_TRUE(z.Insert("mot_test", longer).IsInvalidArgument());
    Zidian::WriteBatch second(&z);  // one batch at a time
    EXPECT_TRUE(second.Commit().IsInvalidArgument());
    // The failed mutation fails the batch: its Delete is not written.
    EXPECT_TRUE(batch.Commit().IsInvalidArgument());
  }
  EXPECT_TRUE(NodePairs(cluster) == before);
  // A tuple that does not fit the relation writes neither layout.
  EXPECT_TRUE(z.Insert("mot_test", longer).IsInvalidArgument());
  EXPECT_TRUE(NodePairs(cluster) == before);

  {
    Zidian::WriteBatch batch(&z);
    ASSERT_TRUE(z.Delete("mot_test", row).ok());
    ASSERT_TRUE(batch.Commit().ok());
    EXPECT_TRUE(batch.Commit().IsInvalidArgument());  // closed
  }
  // The committed Delete removed the row from both layouts: its TaaV key
  // is gone, and both routes count one test fewer for its vehicle.
  const std::vector<Pairs> committed = NodePairs(cluster);
  EXPECT_FALSE(committed == before);
  EXPECT_TRUE(GetOne(cluster, taav_key, nullptr).status().IsNotFound());
  EXPECT_EQ(CountTests(&z, vehicle), std::make_pair(loaded - 1, loaded - 1));

  ASSERT_TRUE(z.Insert("mot_test", row).ok());  // no batch open: at once
  EXPECT_FALSE(NodePairs(cluster) == committed);
  auto stored = GetOne(cluster, taav_key, nullptr);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(*stored, taav_value);
  EXPECT_EQ(CountTests(&z, vehicle), std::make_pair(loaded, loaded));
}

TEST(MaintenanceBatch, DeletingARowThatIsNotStoredWritesNothing) {
  // TaaV deletes by primary key, BaaV blocks by value: a Delete whose
  // tuple differs from the stored row in one attribute would drop the row
  // from TaaV and from no block. It must fail and write nothing instead.
  auto w = MakeMot(0.05, 3);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3,
                                 .backend = BackendKind::kMem});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  const std::vector<Pairs> before = NodePairs(cluster);
  const Relation& tests = w->data.at("mot_test");
  const size_t vehicle_col = size_t(tests.ColumnIndex("vehicle_id"));
  const size_t mileage_col = size_t(tests.ColumnIndex("test_mileage"));
  auto first = std::find_if(
      tests.rows().begin(), tests.rows().end(),
      [&](const Tuple& t) { return t[vehicle_col].AsInt() == 1; });
  ASSERT_NE(first, tests.rows().end());
  const Tuple row = *first;
  Tuple altered = row;
  altered[mileage_col] = Value(row[mileage_col].AsInt() + 1);
  const auto [loaded, loaded_base] = CountTests(&z, 1);
  ASSERT_EQ(loaded, 5);
  ASSERT_EQ(loaded_base, 5);

  EXPECT_TRUE(z.Delete("mot_test", altered).IsNotFound());
  EXPECT_TRUE(NodePairs(cluster) == before);
  EXPECT_EQ(CountTests(&z, 1), std::make_pair(loaded, loaded));

  // Within a batch the staged blocks count: deleting the row a second
  // time finds nothing, and the failed mutation fails the batch.
  {
    Zidian::WriteBatch batch(&z);
    ASSERT_TRUE(z.Delete("mot_test", row).ok());
    EXPECT_TRUE(z.Delete("mot_test", row).IsNotFound());
    EXPECT_TRUE(batch.Commit().IsNotFound());
  }
  EXPECT_TRUE(NodePairs(cluster) == before);
  EXPECT_EQ(CountTests(&z, 1), std::make_pair(loaded, loaded));
}

// --------------------------------------------- round trips, by count ---

/// Reads one node served, and its BaaV segment writes. A block read's
/// first round asks for segment 0 of every block, its overflow round for
/// segments 1 and up, so each batch is classified by the segment numbers
/// it carries.
struct NodeReads {
  uint64_t gets = 0;
  uint64_t first_rounds = 0;     // batches of segment-0 keys only
  uint64_t overflow_rounds = 0;  // batches of overflow-segment keys only
  uint64_t mixed = 0;            // anything else
  std::map<std::string, uint64_t> segment_writes;  // BaaV key -> Put/Delete
};

class CountingBackend : public MemBackend {
 public:
  explicit CountingBackend(NodeReads* reads) : reads_(reads) {}
  Result<std::string> Get(std::string_view key) const override {
    ++reads_->gets;
    return MemBackend::Get(key);
  }
  Status Put(std::string_view key, std::string_view value) override {
    CountWrite(key);
    return MemBackend::Put(key, value);
  }
  Status Delete(std::string_view key) override {
    CountWrite(key);
    return MemBackend::Delete(key);
  }
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override {
    size_t first = 0;
    for (const auto& k : keys) {
      // BaaV keys end in the ordered int64 segment number.
      std::string_view seg = k.key.substr(k.key.size() - 8);
      int64_t n = -1;
      if (k.key.front() == 'B' && DecodeOrderedInt64(&seg, &n) && n == 0) {
        ++first;
      }
    }
    if (first == keys.size()) {
      ++reads_->first_rounds;
    } else if (first == 0) {
      ++reads_->overflow_rounds;
    } else {
      ++reads_->mixed;
    }
    MemBackend::MultiGet(keys, out);
  }

 private:
  void CountWrite(std::string_view key) {
    if (key.front() == 'B') ++reads_->segment_writes[std::string(key)];
  }

  NodeReads* reads_;
};

class MaintenanceRoundTrips : public ::testing::Test {
 protected:
  static constexpr int kNodes = 4;

  void Build(size_t split_threshold) {
    auto w = MakeMot(0.1, 9);
    ASSERT_TRUE(w.ok());
    w_ = std::make_unique<Workload>(std::move(*w));
    reads_.assign(kNodes, NodeReads{});
    ClusterOptions co{.num_storage_nodes = kNodes};
    co.backend_factory = [this] {
      return std::make_unique<CountingBackend>(&reads_[made_++]);
    };
    cluster_ = std::make_unique<Cluster>(co);
    ZidianOptions options;
    options.store.block_split_threshold_bytes = split_threshold;
    zidian_ = std::make_unique<Zidian>(&w_->catalog, cluster_.get(),
                                       w_->baav, options);
    ASSERT_TRUE(zidian_->LoadTaav(w_->data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(w_->data).ok());
  }

  /// Checks the reads since the last call: no single-key Get, and at most
  /// one batch per node per round. Returns the batches of each round
  /// summed over the nodes, and resets the read counts.
  std::pair<uint64_t, uint64_t> TakeRounds() {
    std::pair<uint64_t, uint64_t> total{0, 0};
    for (auto& r : reads_) {
      EXPECT_EQ(r.gets, 0u);
      EXPECT_EQ(r.mixed, 0u);
      EXPECT_LE(r.first_rounds, 1u);
      EXPECT_LE(r.overflow_rounds, 1u);
      total.first += r.first_rounds;
      total.second += r.overflow_rounds;
      r.gets = r.first_rounds = r.overflow_rounds = r.mixed = 0;
    }
    return total;
  }

  /// Writes per BaaV segment key (node-qualified) since the last call.
  std::map<std::string, uint64_t> TakeSegmentWrites() {
    std::map<std::string, uint64_t> writes;
    for (size_t n = 0; n < reads_.size(); ++n) {
      for (const auto& [key, count] : reads_[n].segment_writes) {
        writes[std::to_string(n) + ":" + key] = count;
      }
      reads_[n].segment_writes.clear();
    }
    return writes;
  }

  /// Runs the benchmark's update shape — a row's Delete, then an Insert of
  /// a copy with one non-key integer's low bit flipped — first in one
  /// WriteBatch, then back as two separate mutations, and checks each
  /// one's traffic.
  void CheckBatchedUpdate(bool split) {
    TakeRounds();
    TakeSegmentWrites();
    const Tuple row = Row(0);
    Tuple changed = row;
    const int col = w_->data.at("mot_test").ColumnIndex("test_mileage");
    changed[col] = Value(int64_t{row[col].AsInt() ^ 1});
    const std::pair<uint64_t, uint64_t> none{0, 0};
    {
      Zidian::WriteBatch batch(zidian_.get());
      ASSERT_TRUE(zidian_->Delete("mot_test", row).ok());
      // One round over every block (at most one batch per node), plus the
      // overflow round only when a block is split.
      auto rounds = TakeRounds();
      EXPECT_GE(rounds.first, 1u);
      if (split) {
        EXPECT_GE(rounds.second, 1u);
      } else {
        EXPECT_EQ(rounds.second, 0u);
      }
      // The Insert edits the blocks the Delete staged: no read at all.
      ASSERT_TRUE(zidian_->Insert("mot_test", changed).ok());
      EXPECT_EQ(TakeRounds(), none);
      EXPECT_TRUE(TakeSegmentWrites().empty()) << "staging wrote";
      ASSERT_TRUE(batch.Commit().ok());
    }
    EXPECT_EQ(TakeRounds(), none);  // the commit only writes
    const auto batched = TakeSegmentWrites();
    ASSERT_FALSE(batched.empty());
    for (const auto& [key, count] : batched) EXPECT_EQ(count, 1u) << key;

    // The same update as two mutations writes every segment twice.
    ASSERT_TRUE(zidian_->Delete("mot_test", changed).ok());
    TakeRounds();
    ASSERT_TRUE(zidian_->Insert("mot_test", row).ok());
    TakeRounds();
    const auto separate = TakeSegmentWrites();
    ASSERT_EQ(separate.size(), batched.size());
    for (const auto& [key, count] : separate) {
      EXPECT_EQ(batched.count(key), 1u) << key;
      EXPECT_EQ(count, 2u) << key;
    }
  }

  Tuple Row(size_t i) const { return w_->data.at("mot_test").rows()[i]; }

  /// One mutation of the BaaV store alone: its read phase, then the
  /// install.
  Status Maintain(const Tuple& row, bool insert) {
    BaavStore& store = zidian_->store();
    BaavStore::Maintenance update;
    ZIDIAN_RETURN_NOT_OK(insert
                             ? store.ReadForInsert("mot_test", row, &update)
                             : store.ReadForDelete("mot_test", row, &update));
    return InstallCommit(cluster_.get(), &store, update);
  }

  std::unique_ptr<Workload> w_;
  std::vector<NodeReads> reads_;
  size_t made_ = 0;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_F(MaintenanceRoundTrips, BuildReadsNothingAndUpdatesReadOnce) {
  Build(256 << 10);
  // Load and build only write and scan.
  EXPECT_EQ(TakeRounds(), std::make_pair(uint64_t{0}, uint64_t{0}));

  ASSERT_GE(w_->baav.ForRelation("mot_test").size(), 2u);
  // The first update after a build finds every block cold, cache or not.
  ASSERT_TRUE(Maintain(Row(0), /*insert=*/false).ok());
  auto rounds = TakeRounds();
  EXPECT_GE(rounds.first, 1u);
  EXPECT_EQ(rounds.second, 0u);
  ASSERT_TRUE(Maintain(Row(0), /*insert=*/true).ok());
  EXPECT_EQ(TakeRounds().second, 0u);
  ASSERT_TRUE(zidian_->Delete("mot_test", Row(1)).ok());
  EXPECT_EQ(TakeRounds().second, 0u);
  ASSERT_TRUE(zidian_->Insert("mot_test", Row(1)).ok());
  EXPECT_EQ(TakeRounds().second, 0u);
}

TEST_F(MaintenanceRoundTrips, SplitBlocksAddOneOverflowRound) {
  Build(96);  // every multi-row block spans several segments
  EXPECT_EQ(TakeRounds(), std::make_pair(uint64_t{0}, uint64_t{0}));

  ASSERT_TRUE(Maintain(Row(0), /*insert=*/false).ok());
  auto rounds = TakeRounds();
  EXPECT_GE(rounds.first, 1u);
  EXPECT_GE(rounds.second, 1u);
  ASSERT_TRUE(Maintain(Row(0), /*insert=*/true).ok());
  TakeRounds();
}

TEST_F(MaintenanceRoundTrips, BatchedUpdateReadsOnceAndWritesEachSegmentOnce) {
  Build(256 << 10);
  CheckBatchedUpdate(/*split=*/false);
}

TEST_F(MaintenanceRoundTrips, BatchedSplitUpdateAddsOnlyTheOverflowRound) {
  Build(96);  // every multi-row block spans several segments
  CheckBatchedUpdate(/*split=*/true);
}

}  // namespace
}  // namespace zidian
