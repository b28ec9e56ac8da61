// BaaV model + KBA algebra tests: block codec (compression, statistics,
// splitting), BaaV store build/get/scan/degree, incremental maintenance
// (differential against a rebuild), and the KBA operators including the
// extension/join equivalence the paper's ∝ semantics requires.
#include <gtest/gtest.h>

#include "baav/baav_store.h"
#include "baav/block.h"
#include "common/coding.h"
#include "common/rng.h"
#include "kba/kba_executor.h"
#include "kba/kba_plan.h"
#include "ra/eval.h"
#include "storage/cluster.h"
#include "test_support.h"

namespace zidian {
namespace {

std::vector<Tuple> MakeRows(int n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(rng.Uniform(0, 3)), Value(rng.NextString(4)),
                    Value(rng.NextDouble() * 100)});
  }
  return rows;
}

TEST(BlockCodec, RoundTripUncompressed) {
  auto rows = MakeRows(50);
  std::string data = EncodeBlock(rows, 3, {.compress = false, .stats = false});
  std::vector<Tuple> back;
  ASSERT_TRUE(DecodeBlock(data, 3, &back).ok());
  EXPECT_EQ(back, rows);
}

TEST(BlockCodec, CompressionPreservesBagSemantics) {
  std::vector<Tuple> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({Value(int64_t{i % 3})});  // heavy duplication
  }
  std::string comp = EncodeBlock(rows, 1, {.compress = true, .stats = false});
  std::string plain =
      EncodeBlock(rows, 1, {.compress = false, .stats = false});
  EXPECT_LT(comp.size(), plain.size());
  std::vector<Tuple> back;
  ASSERT_TRUE(DecodeBlock(comp, 1, &back).ok());
  // Same multiset.
  std::multiset<int64_t> want, got;
  for (const auto& r : rows) want.insert(r[0].AsInt());
  for (const auto& r : back) got.insert(r[0].AsInt());
  EXPECT_EQ(got, want);
}

TEST(BlockCodec, StatsMatchRows) {
  auto rows = MakeRows(100, 7);
  std::string data = EncodeBlock(rows, 3, {.compress = true, .stats = true});
  BlockStats stats;
  ASSERT_TRUE(DecodeBlockStats(data, 3, &stats).ok());
  EXPECT_EQ(stats.row_count, 100u);
  ASSERT_EQ(stats.columns.size(), 3u);
  EXPECT_TRUE(stats.columns[0].numeric);
  EXPECT_FALSE(stats.columns[1].numeric);  // strings carry no stats
  double sum = 0, mn = 1e18, mx = -1e18;
  for (const auto& r : rows) {
    sum += r[2].Numeric();
    mn = std::min(mn, r[2].Numeric());
    mx = std::max(mx, r[2].Numeric());
  }
  EXPECT_NEAR(stats.columns[2].sum, sum, 1e-9);
  EXPECT_NEAR(stats.columns[2].min, mn, 1e-9);
  EXPECT_NEAR(stats.columns[2].max, mx, 1e-9);
  EXPECT_EQ(stats.columns[2].count, 100u);
  auto count = BlockRowCount(data);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 100u);
}

TEST(BlockCodec, RejectsCorruptData) {
  auto rows = MakeRows(10);
  std::string data = EncodeBlock(rows, 3, {});
  std::vector<Tuple> back;
  EXPECT_FALSE(DecodeBlock(data.substr(0, data.size() / 2), 3, &back).ok());
  EXPECT_FALSE(DecodeBlock("", 3, &back).ok());
}

TEST(BlockCodec, RejectsCorruptRowCountWithoutHugeAllocation) {
  // A corrupt header claiming ~2^60 rows must fail cleanly — the decoder
  // may not trust row_count for its up-front reservation (the reserve alone
  // would be an exabyte-scale allocation).
  std::string data;
  PutVarint64(&data, 0);          // flags: plain
  PutVarint64(&data, 1ull << 60); // row_count: absurd
  PutVarint64(&data, 1);          // entry_count
  EncodeTuplePayload({Value(int64_t{7})}, &data);
  std::vector<Tuple> back;
  EXPECT_FALSE(DecodeBlock(data, 1, &back).ok());
}

TEST(BlockCodec, RejectsCorruptMultiplicityBeforeReplicating) {
  // Compressed entries carry a multiplicity. A corrupt count of ~2^60 must
  // be rejected before the replication loop, not after materializing the
  // copies; zero is equally impossible (the encoder never writes it).
  auto encode_with_mult = [](uint64_t mult) {
    std::string data;
    PutVarint64(&data, 1);  // flags: kFlagCompressed
    PutVarint64(&data, 2);  // row_count
    PutVarint64(&data, 1);  // entry_count
    EncodeTuplePayload({Value(int64_t{7})}, &data);
    PutVarint64(&data, mult);
    return data;
  };
  std::vector<Tuple> back;
  EXPECT_FALSE(DecodeBlock(encode_with_mult(1ull << 60), 1, &back).ok());
  EXPECT_FALSE(DecodeBlock(encode_with_mult(0), 1, &back).ok());
  // The honest multiplicity still decodes.
  ASSERT_TRUE(DecodeBlock(encode_with_mult(2), 1, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0][0].AsInt(), 7);
  EXPECT_EQ(back[1][0].AsInt(), 7);
}

class BaavStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("emp",
                                          {{"dept", ValueType::kInt},
                                           {"id", ValueType::kInt},
                                           {"salary", ValueType::kDouble}},
                                          {"id"}))
                    .ok());
    KvSchema kv = MakeKvSchema("emp", {"dept"}, {"id", "salary"});
    kv.primary_key = {"id"};
    ASSERT_TRUE(schema_.Add(kv).ok());

    data_ = Relation({"dept", "id", "salary"});
    for (int64_t i = 1; i <= 40; ++i) {
      data_.Add({Value(i % 4), Value(i), Value(100.0 * double(i))});
    }
    store_ = std::make_unique<BaavStore>(&cluster_, schema_, &catalog_);
    ASSERT_TRUE(store_->BuildInstance(*schema_.Find("emp@dept"), data_).ok());
  }

  const KvSchema& kv() const { return *schema_.Find("emp@dept"); }

  Catalog catalog_;
  BaavSchema schema_;
  Cluster cluster_{ClusterOptions{.num_storage_nodes = 3}};
  Relation data_;
  std::unique_ptr<BaavStore> store_;
};

TEST_F(BaavStoreFixture, ReadBlockFetchesGroup) {
  QueryMetrics m;
  auto rows = ReadBlock(*store_, kv(), {Value(int64_t{2})}, &m);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);  // ids 2, 6, ..., 38
  for (const auto& r : *rows) EXPECT_EQ(r[0].AsInt() % 4, 2);
  EXPECT_EQ(m.get_calls, 1u);  // one get per (unsplit) block
  EXPECT_GT(m.values_accessed, 0u);
}

TEST_F(BaavStoreFixture, MissingKeyIsEmptyBlockButCountsTheGet) {
  QueryMetrics m;
  auto rows = ReadBlock(*store_, kv(), {Value(int64_t{99})}, &m);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(m.get_calls, 1u);
}

TEST_F(BaavStoreFixture, DegreeIsMaxBlockSize) {
  auto deg = store_->Degree(kv());
  ASSERT_TRUE(deg.ok());
  EXPECT_EQ(*deg, 10u);
}

// Regression for the discarded-Status harvest (PR 9): Degree() used to
// drop the Status of its instance scan and cache whatever partial max the
// failed scan reached — one corrupt segment turned into a permanently
// cached degree of 0, silently flipping the planner's §6.1 boundedness
// verdict. The error must propagate, and the failed scan must not poison
// the degree cache: after the segment is repaired, Degree must answer
// correctly instead of replaying the cached garbage.
TEST_F(BaavStoreFixture, DegreeScanFailureDoesNotPoisonCache) {
  // Grab one stored BaaV segment and smash its value. Twelve 0xff bytes
  // cannot decode: the segment-count varint alone overflows.
  std::string victim_key, victim_value;
  cluster_.ScanPrefix("B", nullptr,
                      [&](std::string_view k, std::string_view v) {
                        if (victim_key.empty()) {
                          victim_key = std::string(k);
                          victim_value = std::string(v);
                        }
                      });
  ASSERT_FALSE(victim_key.empty());
  ASSERT_TRUE(cluster_.Put(victim_key, std::string(12, '\xff')).ok());

  // A store that has not measured the instance yet (BuildInstance seeds
  // the builder's own cache) must hit the corrupt segment.
  BaavStore probe(&cluster_, schema_, &catalog_);
  auto broken = probe.Degree(kv());
  ASSERT_FALSE(broken.ok());
  EXPECT_TRUE(broken.status().IsCorruption()) << broken.status().ToString();

  // Repair the segment: the same store must now answer with the true
  // degree — proof the failed scan above cached nothing.
  ASSERT_TRUE(cluster_.Put(victim_key, victim_value).ok());
  auto healed = probe.Degree(kv());
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*healed, 10u);
}

TEST_F(BaavStoreFixture, ScanVisitsEveryBlockOnce) {
  QueryMetrics m;
  size_t blocks = 0, tuples = 0;
  ASSERT_TRUE(store_
                  ->ScanInstance(kv(), &m,
                                 [&](const Tuple& key,
                                     const std::vector<Tuple>& rows) {
                                   ++blocks;
                                   tuples += rows.size();
                                   EXPECT_EQ(key.size(), 1u);
                                 })
                  .ok());
  EXPECT_EQ(blocks, 4u);
  EXPECT_EQ(tuples, 40u);
  EXPECT_GT(m.next_calls, 0u);
}

TEST_F(BaavStoreFixture, BlockStatsAvoidTupleBytes) {
  QueryMetrics full_m, stats_m;
  ASSERT_TRUE(ReadBlock(*store_, kv(), {Value(int64_t{1})}, &full_m).ok());
  auto stats = store_->MultiGetBlockStats(kv(), {{Value(int64_t{1})}},
                                          &stats_m, FanoutMode::kSerial,
                                          nullptr);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 1u);
  EXPECT_EQ((*stats)[0].row_count, 10u);
  EXPECT_TRUE((*stats)[0].columns[1].numeric);  // salary
  double sum = 0;
  for (int64_t i = 1; i <= 40; ++i) {
    if (i % 4 == 1) sum += 100.0 * double(i);
  }
  EXPECT_NEAR((*stats)[0].columns[1].sum, sum, 1e-9);
  EXPECT_LT(stats_m.bytes_from_storage, full_m.bytes_from_storage);
}

TEST_F(BaavStoreFixture, BlockSplittingKeepsLogicalBlock) {
  BaavStoreOptions opts;
  opts.block_split_threshold_bytes = 64;  // force many segments
  BaavStore small(&cluster_, schema_, &catalog_, opts);
  // Use a distinct schema name to avoid clashing with the fixture store.
  KvSchema kv2 = MakeKvSchema("emp", {"dept"}, {"id", "salary"});
  kv2.name = "emp@dept/split";
  ASSERT_TRUE(small.BuildInstance(kv2, data_).ok());
  QueryMetrics m;
  auto rows = ReadBlock(small, kv2, {Value(int64_t{3})}, &m);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  EXPECT_GT(m.get_calls, 1u);  // one get per segment
}

// A block's segment count is estimated from its byte size, then rows are
// dealt out evenly. Rounding the rows per segment up can fill fewer
// segments than estimated (5 rows over an estimated 4 segments fill 3),
// and the segment-0 header must count the segments actually written, or
// every read of the block fails on a missing segment.
TEST(BaavStoreSplit, HeaderCountsWrittenSegments) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("pad",
                                        {{"k", ValueType::kInt},
                                         {"id", ValueType::kInt},
                                         {"s", ValueType::kString}},
                                        {"id"}))
                  .ok());
  BaavSchema schema;
  ASSERT_TRUE(schema.Add(MakeKvSchema("pad", {"k"}, {"id", "s"})).ok());
  const KvSchema& kv = schema.all().front();
  for (size_t threshold : {64u, 100u, 150u, 250u}) {
    for (int64_t n = 1; n <= 12; ++n) {
      Cluster cluster(ClusterOptions{.num_storage_nodes = 2,
                                     .backend = BackendKind::kMem});
      BaavStoreOptions opts;
      opts.block_split_threshold_bytes = threshold;
      BaavStore store(&cluster, schema, &catalog, opts);
      Relation data({"k", "id", "s"});
      for (int64_t i = 0; i < n; ++i) {
        data.Add({Value(int64_t{1}), Value(i), Value(std::string(40, 'x'))});
      }
      ASSERT_TRUE(store.BuildInstance(kv, data).ok());
      auto rows = ReadBlock(store, kv, {Value(int64_t{1})}, nullptr);
      ASSERT_TRUE(rows.ok()) << "threshold " << threshold << " rows " << n
                             << ": " << rows.status().ToString();
      EXPECT_EQ(rows->size(), static_cast<size_t>(n));
    }
  }
}

TEST_F(BaavStoreFixture, IncrementalInsertMatchesRebuild) {
  // Differential: apply N random inserts incrementally, compare with a
  // store rebuilt from scratch.
  Rng rng(3);
  Relation grown = data_;
  for (int i = 0; i < 15; ++i) {
    Tuple t{Value(rng.Uniform(0, 5)), Value(int64_t{100 + i}),
            Value(rng.NextDouble() * 50)};
    grown.Add(t);
    BaavStore::Maintenance update;
    ASSERT_TRUE(store_->ReadForInsert("emp", t, &update).ok());
    ASSERT_TRUE(InstallCommit(&cluster_, store_.get(), update).ok());
  }
  Cluster fresh_cluster(ClusterOptions{.num_storage_nodes = 3});
  BaavStore fresh(&fresh_cluster, schema_, &catalog_);
  ASSERT_TRUE(fresh.BuildInstance(kv(), grown).ok());
  for (int64_t dept = 0; dept < 6; ++dept) {
    auto a = ReadBlock(*store_, kv(), {Value(dept)}, nullptr);
    auto b = ReadBlock(fresh, kv(), {Value(dept)}, nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::multiset<std::string> sa, sb;
    for (const auto& r : *a) sa.insert(TupleToString(r));
    for (const auto& r : *b) sb.insert(TupleToString(r));
    EXPECT_EQ(sa, sb) << "dept " << dept;
  }
  auto inc_deg = store_->Degree(kv());
  auto fresh_deg = fresh.Degree(kv());
  ASSERT_TRUE(inc_deg.ok());
  ASSERT_TRUE(fresh_deg.ok());
  EXPECT_EQ(*inc_deg, *fresh_deg);
}

TEST_F(BaavStoreFixture, IncrementalDeleteRemovesOneOccurrence) {
  Tuple victim{Value(int64_t{1}), Value(int64_t{5}), Value(500.0)};
  BaavStore::Maintenance update;
  ASSERT_TRUE(store_->ReadForDelete("emp", victim, &update).ok());
  ASSERT_TRUE(InstallCommit(&cluster_, store_.get(), update).ok());
  auto rows = ReadBlock(*store_, kv(), {Value(int64_t{1})}, nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  for (const auto& r : *rows) EXPECT_NE(r[0].AsInt(), 5);
}

// -------------------------------------------------------------- KBA ops ---
class KbaFixture : public BaavStoreFixture {
 protected:
  KvInst ConstInst(std::vector<std::string> cols, std::vector<Tuple> rows) {
    KvInst inst;
    inst.key_cols = std::move(cols);
    inst.rel = Relation(inst.key_cols);
    for (auto& r : rows) inst.rel.Add(std::move(r));
    return inst;
  }
};

TEST_F(KbaFixture, ExtendFetchesBlocksByChildValues) {
  auto plan = KbaPlan::Extend(
      KbaPlan::Const(ConstInst({"d"}, {{Value(int64_t{0})},
                                       {Value(int64_t{2})}})),
      "emp@dept", "e", {{"d", "dept"}});
  KbaExecutor exec(store_.get());
  QueryMetrics m;
  auto out = exec.Execute(*plan, KbaExecOptions{}, &m);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rel.size(), 20u);  // two blocks of 10
  EXPECT_EQ(m.get_calls, 2u);      // one get per distinct key
  EXPECT_EQ(m.next_calls, 0u);     // extension never scans
  EXPECT_GE(out->rel.ColumnIndex("e.salary"), 0);
  EXPECT_GE(out->rel.ColumnIndex("e.dept"), 0);
}

TEST_F(KbaFixture, ExtendEqualsJoinOnRelationalVersion) {
  // ∝ is a join that does not scan its right argument (§4.2): same rows as
  // scanning the instance and hash-joining.
  auto left = ConstInst({"d"}, {{Value(int64_t{1})}, {Value(int64_t{3})}});
  auto extend_plan = KbaPlan::Extend(KbaPlan::Const(left), "emp@dept", "e",
                                     {{"d", "dept"}});
  auto join_plan =
      KbaPlan::Join(KbaPlan::Const(left), KbaPlan::InstanceScan("emp@dept", "e"),
                    {{"d", "e.dept"}});
  KbaExecutor exec(store_.get());
  QueryMetrics m1, m2;
  auto via_extend = exec.Execute(*extend_plan, KbaExecOptions{}, &m1);
  auto via_join = exec.Execute(*join_plan, KbaExecOptions{}, &m2);
  ASSERT_TRUE(via_extend.ok());
  ASSERT_TRUE(via_join.ok());
  Relation a = via_extend->rel.Project({"d", "e.id", "e.salary"});
  Relation b = via_join->rel.Project({"d", "e.id", "e.salary"});
  a.SortRows();
  b.SortRows();
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(m1.next_calls, 0u);  // extension: no scan
  EXPECT_GT(m2.next_calls, 0u);  // join over scan: scans
}

TEST_F(KbaFixture, ShiftPreservesRelationalVersion) {
  auto plan = KbaPlan::Shift(KbaPlan::InstanceScan("emp@dept", "e"),
                             {"e.id"});
  KbaExecutor exec(store_.get());
  QueryMetrics m;
  auto out = exec.Execute(*plan, KbaExecOptions{}, &m);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->key_cols, (std::vector<std::string>{"e.id"}));
  EXPECT_EQ(out->rel.size(), 40u);
  EXPECT_EQ(out->rel.columns()[0], "e.id");
}

TEST_F(KbaFixture, UnionAndDiffUseSetSemantics) {
  auto a = ConstInst({"x"}, {{Value(int64_t{1})}, {Value(int64_t{2})}});
  auto b = ConstInst({"x"}, {{Value(int64_t{2})}, {Value(int64_t{3})}});
  KbaExecutor exec(store_.get());
  QueryMetrics m;
  auto u = exec.Execute(*KbaPlan::Union(KbaPlan::Const(a), KbaPlan::Const(b)),
                        KbaExecOptions{}, &m);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->rel.size(), 3u);
  auto d = exec.Execute(*KbaPlan::Diff(KbaPlan::Const(a), KbaPlan::Const(b)),
                        KbaExecOptions{}, &m);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->rel.size(), 1u);
  EXPECT_EQ(d->rel.rows()[0][0].AsInt(), 1);
}

TEST_F(KbaFixture, StatsOnlyExtendMatchesFullAggregation) {
  // SUM/COUNT per dept via block statistics == via full tuples.
  auto mk = [&](bool stats_only) {
    auto child = KbaPlan::Extend(
        KbaPlan::Const(ConstInst(
            {"d"}, {{Value(int64_t{0})}, {Value(int64_t{1})},
                    {Value(int64_t{2})}, {Value(int64_t{3})}})),
        "emp@dept", "e", {{"d", "dept"}}, stats_only);
    std::vector<SelectItem> items;
    items.push_back({AggFn::kNone, Expr::Column("e", "dept"), "e.dept"});
    items.push_back({AggFn::kSum, Expr::Column("e", "salary"), "s"});
    items.push_back({AggFn::kCount, nullptr, "c"});
    items.push_back({AggFn::kMin, Expr::Column("e", "salary"), "mn"});
    items.push_back({AggFn::kMax, Expr::Column("e", "salary"), "mx"});
    items.push_back({AggFn::kAvg, Expr::Column("e", "salary"), "avg"});
    return KbaPlan::GroupAgg(std::move(child), {{"e", "dept"}}, items,
                             stats_only);
  };
  KbaExecutor exec(store_.get());
  QueryMetrics stats_m, full_m;
  auto via_stats = exec.Execute(*mk(true), KbaExecOptions{}, &stats_m);
  auto via_full = exec.Execute(*mk(false), KbaExecOptions{}, &full_m);
  ASSERT_TRUE(via_stats.ok()) << via_stats.status().ToString();
  ASSERT_TRUE(via_full.ok());
  Relation a = via_stats->rel, b = via_full->rel;
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.rows()[i].size(); ++j) {
      EXPECT_NEAR(a.rows()[i][j].Numeric(), b.rows()[i][j].Numeric(), 1e-6)
          << i << "," << j;
    }
  }
  // The stats path ships only headers.
  EXPECT_LT(stats_m.bytes_from_storage, full_m.bytes_from_storage);
  EXPECT_LT(stats_m.values_accessed, full_m.values_accessed);
}

TEST_F(KbaFixture, ScanFreePredicate) {
  auto scan_free = KbaPlan::Extend(
      KbaPlan::Const(ConstInst({"d"}, {{Value(int64_t{0})}})), "emp@dept",
      "e", {{"d", "dept"}});
  EXPECT_TRUE(scan_free->IsScanFree());
  auto with_scan = KbaPlan::Join(scan_free,
                                 KbaPlan::InstanceScan("emp@dept", "x"), {});
  EXPECT_FALSE(with_scan->IsScanFree());
}

}  // namespace
}  // namespace zidian
