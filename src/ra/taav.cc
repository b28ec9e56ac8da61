#include "ra/taav.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "common/coding.h"
#include "kba/makespan.h"
#include "ra/eval.h"
#include "ra/spc.h"

namespace zidian {

std::string TaavPrefix(const std::string& table) {
  std::string key = "T";
  EncodeOrderedString(&key, table);
  return key;
}

std::string TaavKey(const std::string& table, const Tuple& pk_values) {
  std::string key = TaavPrefix(table);
  key += EncodeKeyTuple(pk_values);
  return key;
}

TaavEntry EncodeTaavEntry(const TableSchema& schema, const Tuple& tuple) {
  Tuple pk;
  pk.reserve(schema.primary_key().size());
  for (const auto& k : schema.primary_key()) {
    pk.push_back(tuple[static_cast<size_t>(schema.ColumnIndex(k))]);
  }
  TaavEntry entry{TaavKey(schema.name(), pk), {}};
  EncodeTuplePayload(tuple, &entry.value);
  return entry;
}

Status TaavLoadRelation(Cluster* cluster, const TableSchema& schema,
                        const Relation& data) {
  if (data.columns() != schema.AttributeNames()) {
    return Status::InvalidArgument("columns do not match table " +
                                   schema.name());
  }
  for (const auto& row : data.rows()) {
    TaavEntry entry = EncodeTaavEntry(schema, row);
    ZIDIAN_RETURN_NOT_OK(cluster->Put(entry.key, entry.value, nullptr));
  }
  return Status::OK();
}

Result<Relation> TaavScanTable(const Cluster& cluster,
                               const TableSchema& schema,
                               const std::string& alias, QueryMetrics* m,
                               ThreadPool* pool, int workers,
                               FanoutMode fanout) {
  std::vector<std::string> cols;
  for (const auto& c : schema.columns()) cols.push_back(alias + "." + c.name);
  Relation out(std::move(cols));
  auto start = std::chrono::steady_clock::now();

  // One chunk of the per-tuple get+decode stage: its rows, its metric
  // delta and, under kOverlapped, one request chain per node anchored at
  // the chunk's start (chain heads and per-node latency sums). The
  // schedule only picks a stall after every get or per-node chains.
  const NetworkModel* net = cluster.network();
  const bool chains = net != nullptr && fanout == FanoutMode::kOverlapped;
  struct Chunk {
    std::vector<Tuple> rows;
    QueryMetrics m;
    Status status;
    FanoutStats fanout;
    std::vector<int64_t> node_next;
    std::vector<uint64_t> node_ns;
  };
  auto begin_chunk = [&](Chunk* c) {
    if (!chains) return;
    c->node_next.assign(static_cast<size_t>(cluster.num_nodes()),
                        net->NowNs());
    c->node_ns.assign(c->node_next.size(), 0);
  };
  // The network half of one per-tuple get, and its decode.
  auto price = [&](Chunk* c, int node, uint64_t bytes) {
    c->m.get_calls += 1;
    c->m.values_accessed += schema.arity();
    if (chains) {
      const size_t n = static_cast<size_t>(node);
      NetworkModel::AsyncCost ac =
          net->OnGetAt(node, 1, bytes, &c->m, c->node_next[n]);
      c->node_next[n] = ac.wake_ns;  // same-node requests stay serial
      c->node_ns[n] += static_cast<uint64_t>(ac.latency_ns);
    } else if (net != nullptr) {
      net->SleepUntil(
          net->OnGetAt(node, 1, bytes, &c->m, net->NowNs()).wake_ns);
    }
  };
  auto decode = [&](Chunk* c, std::string_view payload) {
    Tuple t;
    if (!DecodeTuplePayload(&payload, schema.arity(), &t)) {
      c->status = Status::Corruption("bad tuple in " + schema.name());
      return;
    }
    c->rows.push_back(std::move(t));
  };
  auto end_chunk = [&](Chunk* c) {
    if (!chains) return;
    // The payloads were decoded while the chains were in flight.
    net->SleepUntil(*std::max_element(c->node_next.begin(),
                                      c->node_next.end()));
    uint64_t total = 0;
    uint64_t busiest = 0;
    for (uint64_t ns : c->node_ns) {
      total += ns;
      busiest = std::max(busiest, ns);
      if (ns > 0) ++c->fanout.inflight_max;
    }
    c->fanout.overlap_ns = total - busiest;
  };

  const size_t p = static_cast<size_t>(std::max(1, workers));
  std::vector<Chunk> chunks(p);
  const std::string prefix = TaavPrefix(schema.name());
  if (p == 1) {
    // One chunk: decode straight off the scan iterator, never holding the
    // encoded table a second time. The scan holds the cluster's storage
    // gate, and no stall may run under it, so each get's owning node and
    // bytes are noted here and its network half plays after the scan.
    Chunk& c = chunks[0];
    begin_chunk(&c);
    std::vector<std::pair<int, uint64_t>> gets;  // (owning node, pair bytes)
    cluster.ScanPrefix(prefix, m,
                       [&](std::string_view key, std::string_view value) {
                         if (!c.status.ok()) return;
                         gets.emplace_back(cluster.NodeFor(key),
                                           key.size() + value.size());
                         decode(&c, value);
                       });
    for (const auto& [node, bytes] : gets) price(&c, node, bytes);
    end_chunk(&c);
  } else {
    // Enumerate once on this thread (the ScanPrefix meters the next()s
    // and the shipped pair bytes, and fixes the row order), then run the
    // chunks: on the pool's threads, or looped here without one.
    std::vector<std::string> payloads;
    std::vector<std::pair<int, uint32_t>> origins;  // (owning node, key bytes)
    cluster.ScanPrefix(
        prefix, m, [&](std::string_view key, std::string_view value) {
          origins.emplace_back(cluster.NodeFor(key),
                               static_cast<uint32_t>(key.size()));
          payloads.emplace_back(value);
        });
    auto run_chunk = [&](size_t w) {
      Chunk& c = chunks[w];
      auto [begin, end] = ChunkRange(payloads.size(), w, p);
      begin_chunk(&c);
      for (size_t i = begin; i < end && c.status.ok(); ++i) {
        price(&c, origins[i].first, origins[i].second + payloads[i].size());
        decode(&c, payloads[i]);
      }
      end_chunk(&c);
    };
    ParallelFor(pool, p, run_chunk);
  }

  std::vector<QueryMetrics> deltas;
  std::vector<FanoutStats> fanouts;
  deltas.reserve(p);
  fanouts.reserve(p);
  std::vector<Tuple>& rows = out.rows();
  for (auto& c : chunks) {
    ZIDIAN_RETURN_NOT_OK(c.status);
    if (m != nullptr) *m += c.m;
    deltas.push_back(c.m);
    fanouts.push_back(c.fanout);
    if (rows.empty()) {
      rows = std::move(c.rows);
    } else {
      rows.insert(rows.end(), std::make_move_iterator(c.rows.begin()),
                  std::make_move_iterator(c.rows.end()));
    }
  }
  if (m != nullptr) {
    // The slowest chunk's network time under the serial schedule anchors
    // makespan_net under both schedules; the cross-node time the chains
    // hid lands in the schedule-shape fields only.
    if (net != nullptr) m->makespan_net_seconds += MaxWorkerNetSeconds(deltas);
    ChargeFanoutOverlap(deltas, fanouts, m);
    m->wall_fetch_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return out;
}

Result<Tuple> TaavGetTuple(const Cluster& cluster, const TableSchema& schema,
                           const Tuple& pk_values, QueryMetrics* m) {
  MultiGetResult got = cluster.MultiGet({TaavKey(schema.name(), pk_values)},
                                        m, CacheFill::kFill,
                                        FanoutMode::kOverlapped);
  ZIDIAN_RETURN_NOT_OK(got.status);
  if (!got[0].has_value()) return Status::NotFound();
  Tuple t;
  std::string_view sv = *got[0];
  if (!DecodeTuplePayload(&sv, schema.arity(), &t)) {
    return Status::Corruption("bad tuple in " + schema.name());
  }
  if (m != nullptr) m->values_accessed += schema.arity();
  return t;
}

namespace {

/// The join pairs between qualified column lists: the equality classes
/// of the query's eq_joins, looked up by "alias.column".
class EqClasses {
 public:
  explicit EqClasses(const QuerySpec& spec) {
    for (const auto& [a, b] : spec.eq_joins) {
      int ia = uf_.Id(a), ib = uf_.Id(b);
      uf_.Union(ia, ib);
    }
    for (const auto& [attr, id] : uf_.ids()) ids_.emplace(attr.Qualified(), id);
  }

  /// Join pairs (left col, right col) between two qualified column lists.
  std::vector<std::pair<std::string, std::string>> PairsBetween(
      const std::vector<std::string>& left,
      const std::vector<std::string>& right) const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& l : left) {
      auto il = ids_.find(l);
      if (il == ids_.end()) continue;
      for (const auto& r : right) {
        auto ir = ids_.find(r);
        if (ir == ids_.end()) continue;
        if (uf_.Find(il->second) == uf_.Find(ir->second)) {
          out.emplace_back(l, r);
        }
      }
    }
    return out;
  }

 private:
  AttrUnionFind uf_;
  std::map<std::string, int> ids_;  ///< qualified name -> union-find id
};

/// Joins all aliases of `spec` greedily along equality classes, starting
/// from per-alias base relations. `per_alias` must contain one filtered
/// relation per alias, with qualified column names. Shuffle bytes for
/// each join are charged to `m` assuming hash repartitioning over
/// `workers` nodes. Every hash-join probe runs its chunks on `pool` when
/// set.
Result<Relation> JoinAll(const QuerySpec& spec,
                         std::vector<Relation> per_alias, int workers,
                         QueryMetrics* m, ThreadPool* pool) {
  EqClasses eq(spec);
  std::vector<Relation> pending = std::move(per_alias);
  if (pending.empty()) return Status::InvalidArgument("no tables");

  // Start from the smallest input for a better build side.
  size_t start = 0;
  for (size_t i = 1; i < pending.size(); ++i) {
    if (pending[i].size() < pending[start].size()) start = i;
  }
  Relation acc = std::move(pending[start]);
  pending.erase(pending.begin() + static_cast<long>(start));

  while (!pending.empty()) {
    // Prefer a relation connected to acc by at least one equality.
    size_t pick = pending.size();
    std::vector<std::pair<std::string, std::string>> pairs;
    for (size_t i = 0; i < pending.size(); ++i) {
      auto p = eq.PairsBetween(acc.columns(), pending[i].columns());
      if (!p.empty()) {
        pick = i;
        pairs = std::move(p);
        break;
      }
    }
    if (pick == pending.size()) {
      pick = 0;  // disconnected: cartesian product
      pairs.clear();
    }
    ChargeShuffleBytes(acc.ByteSize(), workers, m);
    ChargeShuffleBytes(pending[pick].ByteSize(), workers, m);
    ZIDIAN_ASSIGN_OR_RETURN(
        acc, HashJoin(acc, pending[pick], pairs, m, pool, workers));
    pending.erase(pending.begin() + static_cast<long>(pick));
  }
  return acc;
}

}  // namespace

Result<Relation> TaavExecutor::Execute(const QuerySpec& spec,
                                       const TaavExecOptions& opts,
                                       QueryMetrics* m) const {
  const int workers = std::max(1, opts.workers);
  ThreadPool* pool = opts.pool;

  // (a) Retrieve all involved relations from storage (§7.1) — no pushdown.
  std::vector<Relation> per_alias;
  for (const auto& t : spec.tables) {
    ZIDIAN_ASSIGN_OR_RETURN(TableSchema schema, catalog_->Get(t.table));
    ZIDIAN_ASSIGN_OR_RETURN(
        Relation rel, TaavScanTable(*cluster_, schema, t.alias, m, pool,
                                    workers, opts.fanout));
    // (b) Selections evaluated in the SQL layer, after the data movement.
    std::vector<ExprPtr> filters;
    for (const auto& [attr, value] : spec.const_eqs) {
      if (attr.alias != t.alias) continue;
      filters.push_back(Expr::Compare(CmpOp::kEq,
                                      Expr::Column(attr.alias, attr.column),
                                      Expr::Literal(value)));
    }
    for (const auto& f : spec.residual_filters) {
      // Apply single-alias residual filters at the base; multi-alias ones
      // run after the joins.
      std::vector<const Expr*> cols;
      f->CollectColumns(&cols);
      bool single = !cols.empty();
      for (const auto* c : cols) single &= (c->alias == t.alias);
      if (single) filters.push_back(f);
    }
    auto compute_start = std::chrono::steady_clock::now();
    ZIDIAN_RETURN_NOT_OK(ApplyFilters(filters, &rel, m, pool, workers));
    if (m != nullptr) {
      m->wall_compute_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        compute_start)
              .count();
    }
    per_alias.push_back(std::move(rel));
  }

  // (c) Parallel hash joins with shuffle accounting.
  auto compute_start = std::chrono::steady_clock::now();
  ZIDIAN_ASSIGN_OR_RETURN(
      Relation joined,
      JoinAll(spec, std::move(per_alias), workers, m, pool));

  // Multi-alias residual filters.
  std::vector<ExprPtr> late;
  for (const auto& f : spec.residual_filters) {
    std::vector<const Expr*> cols;
    f->CollectColumns(&cols);
    std::set<std::string> aliases;
    for (const auto* c : cols) aliases.insert(c->alias);
    if (aliases.size() != 1) late.push_back(f);
  }
  ZIDIAN_RETURN_NOT_OK(ApplyFilters(late, &joined, m, pool, workers));

  // Group-by repartition shuffle.
  if (spec.HasAggregates() && !spec.group_by.empty()) {
    ChargeShuffleBytes(joined.ByteSize(), workers, m);
  }
  ZIDIAN_ASSIGN_OR_RETURN(Relation out,
                          FinishQuery(joined, spec, m, pool, workers));

  if (m != nullptr) {
    m->wall_compute_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      compute_start)
            .count();
    // Per-worker makespans under the no-skew assumption (§7.2). Only gets
    // that reached storage cost per-get latency; cache hits are local.
    double p = std::max(1, workers);
    m->makespan_get = static_cast<double>(m->get_calls - m->cache_hits) / p;
    m->makespan_next = static_cast<double>(m->next_calls) / p;
    m->makespan_bytes =
        static_cast<double>(m->bytes_from_storage + m->shuffle_bytes) / p;
    m->makespan_compute = static_cast<double>(m->compute_values) / p;
    // makespan_net_seconds was accumulated per scan as the true slowest
    // worker's chunk (TaavScanTable) — not overwritten by an even spread
    // that would hide slow-node skew; only the queueing delay is
    // recomputed from the final per-node busy totals, the same
    // arithmetic the KBA route uses.
    FinalizeNetworkQueue(m);
  }
  return out;
}

}  // namespace zidian
