// RA layer tests: SPC tableau minimization (core computation), the shared
// in-memory operators, and the TaaV baseline executor's semantics + metering.
#include <gtest/gtest.h>

#include "ra/eval.h"
#include "ra/spc.h"
#include "ra/taav.h"
#include "sql/binder.h"
#include "storage/cluster.h"
#include "test_support.h"

namespace zidian {
namespace {

class RaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("r",
                                          {{"a", ValueType::kInt},
                                           {"b", ValueType::kInt}},
                                          {"a"}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("s",
                                          {{"b", ValueType::kInt},
                                           {"c", ValueType::kInt}},
                                          {"b"}))
                    .ok());
  }
  Catalog catalog_;
};

TEST_F(RaFixture, MinimizerFoldsRedundantSelfJoin) {
  // πA(R1(A,B) ⋈ R2(A,B)) where both rename R: one atom folds (§5.2).
  auto spec = ParseAndBind(
      "SELECT r1.a FROM r r1, r r2 WHERE r1.a = r2.a AND r1.b = r2.b",
      catalog_);
  ASSERT_TRUE(spec.ok());
  auto min = MinimizeSPC(*spec, catalog_);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->tables.size(), 1u);
}

TEST_F(RaFixture, MinimizerKeepsConstrainedAtoms) {
  // Different constants on the two copies: both atoms must stay.
  auto spec = ParseAndBind(
      "SELECT r1.a FROM r r1, r r2 WHERE r1.b = r2.a AND r1.a = 1 "
      "AND r2.b = 2",
      catalog_);
  ASSERT_TRUE(spec.ok());
  auto min = MinimizeSPC(*spec, catalog_);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->tables.size(), 2u);
}

TEST_F(RaFixture, MinimizerFoldsThroughSharedDistinguishedVariable) {
  // π_{r1.a, r2.b}(r1 ⋈_a r2) minimizes to π_{a,b}(R): folding r1 onto r2
  // is a valid homomorphism because r1.b is not distinguished.
  auto spec = ParseAndBind(
      "SELECT r1.a, r2.b FROM r r1, r r2 WHERE r1.a = r2.a", catalog_);
  ASSERT_TRUE(spec.ok());
  auto min = MinimizeSPC(*spec, catalog_);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->tables.size(), 1u);
}

TEST_F(RaFixture, MinimizerRespectsDistinguishedVariables) {
  // Both b's are projected through *different* variables: no homomorphism
  // can fold either atom (it would have to move a distinguished variable).
  auto spec = ParseAndBind(
      "SELECT r1.b, r2.b FROM r r1, r r2 WHERE r1.a = r2.a", catalog_);
  ASSERT_TRUE(spec.ok());
  auto min = MinimizeSPC(*spec, catalog_);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->tables.size(), 2u);
}

TEST_F(RaFixture, MinimizedNeededAttrsShrink) {
  // Example 5 shape: the removable copy adds availqty-style attributes that
  // disappear from X^min_R after minimization.
  auto with_copy = ParseAndBind(
      "SELECT r1.a FROM r r1, r r2 WHERE r1.a = r2.a AND r1.b = r2.b",
      catalog_);
  ASSERT_TRUE(with_copy.ok());
  auto min = MinimizeSPC(*with_copy, catalog_);
  ASSERT_TRUE(min.ok());
  ASSERT_EQ(min->tables.size(), 1u);
  auto needed = min->NeededAttrs(min->tables[0].alias);
  // Only the projected attribute remains needed (b's equation was folded).
  EXPECT_EQ(needed.size(), 1u);
  EXPECT_EQ(needed.begin()->column, "a");
}

TEST(Eval, HashJoinInnerSemantics) {
  Relation l({"l.k", "l.v"});
  l.Add({Value(int64_t{1}), Value("a")});
  l.Add({Value(int64_t{2}), Value("b")});
  l.Add({Value(int64_t{2}), Value("b2")});
  Relation r({"r.k", "r.w"});
  r.Add({Value(int64_t{2}), Value("x")});
  r.Add({Value(int64_t{3}), Value("y")});
  QueryMetrics m;
  auto joined = HashJoin(l, r, {{"l.k", "r.k"}}, &m);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 2u);  // both l-rows with k=2
  EXPECT_EQ(joined->columns().size(), 4u);
  EXPECT_GT(m.compute_values, 0u);
}

TEST(Eval, HashJoinEmptyKeysIsCartesian) {
  Relation l({"l.a"});
  l.Add({Value(int64_t{1})});
  l.Add({Value(int64_t{2})});
  Relation r({"r.b"});
  r.Add({Value(int64_t{10})});
  auto joined = HashJoin(l, r, {}, nullptr);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 2u);
}

TEST(Eval, GroupAggregateAllFunctions) {
  Relation in({"t.g", "t.v"});
  in.Add({Value("a"), Value(int64_t{1})});
  in.Add({Value("a"), Value(int64_t{3})});
  in.Add({Value("b"), Value(int64_t{5})});
  std::vector<SelectItem> items;
  items.push_back({AggFn::kNone, Expr::Column("t", "g"), "t.g"});
  items.push_back({AggFn::kSum, Expr::Column("t", "v"), "s"});
  items.push_back({AggFn::kCount, nullptr, "c"});
  items.push_back({AggFn::kAvg, Expr::Column("t", "v"), "avg"});
  items.push_back({AggFn::kMin, Expr::Column("t", "v"), "mn"});
  items.push_back({AggFn::kMax, Expr::Column("t", "v"), "mx"});
  auto out = GroupAggregate(in, {{"t", "g"}}, items, nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  out->SortRows();
  ASSERT_EQ(out->size(), 2u);
  const auto& a = out->rows()[0];
  EXPECT_EQ(a[0], Value("a"));
  EXPECT_DOUBLE_EQ(a[1].Numeric(), 4.0);   // sum
  EXPECT_EQ(a[2].AsInt(), 2);              // count(*)
  EXPECT_DOUBLE_EQ(a[3].Numeric(), 2.0);   // avg
  EXPECT_DOUBLE_EQ(a[4].Numeric(), 1.0);   // min
  EXPECT_DOUBLE_EQ(a[5].Numeric(), 3.0);   // max
}

TEST(Eval, GlobalAggregateOnEmptyInputYieldsOneRow) {
  Relation in({"t.v"});
  std::vector<SelectItem> items;
  items.push_back({AggFn::kCount, nullptr, "c"});
  items.push_back({AggFn::kSum, Expr::Column("t", "v"), "s"});
  auto out = GroupAggregate(in, {}, items, nullptr);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->rows()[0][0].AsInt(), 0);
  EXPECT_TRUE(out->rows()[0][1].is_null());
}

TEST(Eval, OrderAndLimit) {
  Relation r({"x"});
  for (int64_t i : {3, 1, 2}) r.Add({Value(i)});
  ASSERT_TRUE(OrderAndLimit({{"x", false}}, 2, &r).ok());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows()[1][0].AsInt(), 2);
}

TEST(Eval, FiltersDropNonMatchingRowsOnly) {
  Relation r({"t.x"});
  for (int64_t i = 0; i < 10; ++i) r.Add({Value(i)});
  auto pred = Expr::Compare(CmpOp::kGe, Expr::Column("t", "x"),
                            Expr::Literal(Value(int64_t{5})));
  QueryMetrics m;
  ASSERT_TRUE(ApplyFilters({pred}, &r, &m).ok());
  EXPECT_EQ(r.size(), 5u);
  for (const auto& row : r.rows()) {
    ASSERT_EQ(row.size(), 1u);  // no self-move corruption
    EXPECT_GE(row[0].AsInt(), 5);
  }
}

class TaavFixture : public RaFixture {
 protected:
  void SetUp() override {
    RaFixture::SetUp();
    Relation rdata({"a", "b"});
    for (int64_t i = 1; i <= 20; ++i) rdata.Add({Value(i), Value(i % 5)});
    Relation sdata({"b", "c"});
    for (int64_t i = 0; i < 5; ++i) sdata.Add({Value(i), Value(i * 100)});
    ASSERT_TRUE(
        TaavLoadRelation(&cluster_, *catalog_.Find("r"), rdata).ok());
    ASSERT_TRUE(
        TaavLoadRelation(&cluster_, *catalog_.Find("s"), sdata).ok());
  }
  Cluster cluster_{ClusterOptions{.num_storage_nodes = 3}};
};

TEST_F(TaavFixture, ScanChargesOneGetPerTuple) {
  QueryMetrics m;
  auto rel = TaavScanTable(cluster_, *catalog_.Find("r"), "r", &m,
                           nullptr, 1, FanoutMode::kSerial);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 20u);
  EXPECT_EQ(m.get_calls, 20u);   // §3: one get per tuple
  EXPECT_EQ(m.next_calls, 20u);  // one next per key
  EXPECT_EQ(m.values_accessed, 40u);
  EXPECT_EQ(rel->columns()[0], "r.a");
}

TEST_F(TaavFixture, PointGetByPrimaryKey) {
  QueryMetrics m;
  auto t = TaavGetTuple(cluster_, *catalog_.Find("r"), {Value(int64_t{7})},
                        &m);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[0].AsInt(), 7);
  EXPECT_EQ(m.get_calls, 1u);
  auto missing = TaavGetTuple(cluster_, *catalog_.Find("r"),
                              {Value(int64_t{999})}, &m);
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(TaavFixture, BaselineExecutesJoinAggregate) {
  TaavExecutor exec(&catalog_, &cluster_);
  auto spec = ParseAndBind(
      "SELECT s.c, COUNT(*) FROM r, s WHERE r.b = s.b GROUP BY s.c",
      catalog_);
  ASSERT_TRUE(spec.ok());
  QueryMetrics m;
  auto out = exec.Execute(*spec, TaavExecOptions{.workers = 2}, &m);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 5u);
  int64_t total = 0;
  for (const auto& row : out->rows()) total += row[1].AsInt();
  EXPECT_EQ(total, 20);
  // Baseline always scans both relations fully.
  EXPECT_EQ(m.next_calls, 25u);
  EXPECT_GT(m.shuffle_bytes, 0u);  // repartition for the join
  EXPECT_GT(m.makespan_get, 0.0);
}

TEST_F(TaavFixture, DeleteRemovesTuple) {
  const TableSchema& r = *catalog_.Find("r");
  TaavEntry entry = EncodeTaavEntry(r, {Value(int64_t{7}), Value(int64_t{2})});
  EXPECT_EQ(entry.key, TaavKey("r", {Value(int64_t{7})}));
  auto stored = GetOne(cluster_, entry.key, nullptr);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(*stored, entry.value);  // the loaded pair, byte for byte

  ASSERT_TRUE(cluster_.Delete(entry.key).ok());
  QueryMetrics m;
  auto rel = TaavScanTable(cluster_, r, "r", &m, nullptr, 1,
                           FanoutMode::kSerial);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 19u);
  for (const auto& row : rel->rows()) EXPECT_NE(row[0].AsInt(), 7);
}

}  // namespace
}  // namespace zidian
