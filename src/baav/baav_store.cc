#include "baav/baav_store.h"

#include <algorithm>
#include <unordered_map>

#include "common/coding.h"

namespace zidian {

BaavStore::BaavStore(Cluster* cluster, BaavSchema schema,
                     const Catalog* catalog, BaavStoreOptions options)
    : cluster_(cluster),
      schema_(std::move(schema)),
      catalog_(catalog),
      options_(options) {}

std::string BaavStore::InstancePrefix(const KvSchema& kv) const {
  std::string key = "B";
  EncodeOrderedString(&key, kv.name);
  return key;
}

std::string BaavStore::SegmentKey(const KvSchema& kv, const Tuple& key,
                                  uint64_t segment) const {
  std::string k = InstancePrefix(kv);
  k += EncodeKeyTuple(key);
  EncodeOrderedInt64(&k, static_cast<int64_t>(segment));
  return k;
}

Result<Tuple> BaavStore::ProjectTuple(
    const KvSchema& kv, const Tuple& tuple,
    const std::vector<std::string>& attrs) const {
  ZIDIAN_ASSIGN_OR_RETURN(TableSchema rel, catalog_->Get(kv.relation));
  Tuple out;
  out.reserve(attrs.size());
  for (const auto& a : attrs) {
    int i = rel.ColumnIndex(a);
    if (i < 0) {
      return Status::InvalidArgument("attribute " + a + " not in " +
                                     kv.relation);
    }
    if (static_cast<size_t>(i) >= tuple.size()) {
      return Status::InvalidArgument("tuple arity mismatch for " +
                                     kv.relation);
    }
    out.push_back(tuple[static_cast<size_t>(i)]);
  }
  return out;
}

namespace {

/// Splits the part of a BaaV key after the instance prefix into the
/// encoded X values and the trailing 8-byte ordered segment number.
bool SplitSegmentKey(std::string_view rest, std::string_view* xpart,
                     int64_t* segment) {
  if (rest.size() < 8) return false;
  std::string_view seg_view = rest.substr(rest.size() - 8);
  *xpart = rest.substr(0, rest.size() - 8);
  return DecodeOrderedInt64(&seg_view, segment) && *segment >= 0;
}

}  // namespace

Status BaavStore::WriteBlock(const KvSchema& kv, const Tuple& key,
                             const std::vector<Tuple>& rows,
                             uint64_t old_segments,
                             Cluster::Writer& writer) const {
  if (rows.empty()) {
    for (uint64_t s = 0; s < old_segments; ++s) {
      ZIDIAN_RETURN_NOT_OK(writer.Delete(SegmentKey(kv, key, s)));
    }
    return Status::OK();
  }

  // Split rows into segments so each encoded segment stays under the
  // threshold. Estimate rows per segment from average tuple size.
  size_t arity = kv.value_attrs.size();
  size_t total_bytes = 0;
  for (const auto& r : rows) total_bytes += TupleByteSize(r) + 2;
  size_t threshold = std::max<size_t>(options_.block_split_threshold_bytes, 64);
  size_t num_segments = (total_bytes + threshold - 1) / threshold;
  num_segments = std::max<size_t>(num_segments, 1);
  size_t per_segment = (rows.size() + num_segments - 1) / num_segments;
  // Rounding per_segment up can fill fewer segments than estimated (5 rows
  // over 4 segments fill 3); the header counts the segments written.
  num_segments = (rows.size() + per_segment - 1) / per_segment;

  uint64_t seg = 0;
  for (size_t start = 0; start < rows.size(); start += per_segment, ++seg) {
    size_t end = std::min(rows.size(), start + per_segment);
    std::vector<Tuple> part(rows.begin() + static_cast<long>(start),
                            rows.begin() + static_cast<long>(end));
    std::string value;
    if (seg == 0) PutVarint64(&value, num_segments);
    value += EncodeBlock(part, arity, options_.block);
    ZIDIAN_RETURN_NOT_OK(writer.Put(SegmentKey(kv, key, seg), value));
  }
  for (uint64_t s = seg; s < old_segments; ++s) {
    ZIDIAN_RETURN_NOT_OK(writer.Delete(SegmentKey(kv, key, s)));
  }
  return Status::OK();
}

Status BaavStore::BuildInstance(const KvSchema& kv, const Relation& data) {
  ZIDIAN_ASSIGN_OR_RETURN(TableSchema rel, catalog_->Get(kv.relation));
  // Column indexes of X and Y in the relation layout.
  std::vector<int> xidx, yidx;
  for (const auto& a : kv.key_attrs) {
    int i = data.ColumnIndex(a);
    if (i < 0) return Status::InvalidArgument("missing key attr " + a);
    xidx.push_back(i);
  }
  for (const auto& a : kv.value_attrs) {
    int i = data.ColumnIndex(a);
    if (i < 0) return Status::InvalidArgument("missing value attr " + a);
    yidx.push_back(i);
  }
  // Segment counts of the blocks the instance already holds, by encoded X:
  // one unmetered scan (scans never stall), empty on a fresh build.
  const std::string prefix = InstancePrefix(kv);
  std::map<std::string, uint64_t> stored;
  Status st = Status::OK();
  cluster_->ScanPrefix(prefix, nullptr,
                       [&](std::string_view key, std::string_view) {
                         std::string_view xpart;
                         int64_t seg;
                         if (!SplitSegmentKey(key.substr(prefix.size()),
                                              &xpart, &seg)) {
                           st = Status::Corruption("bad BaaV key in " +
                                                   kv.name);
                           return;
                         }
                         uint64_t& n = stored[std::string(xpart)];
                         n = std::max(n, static_cast<uint64_t>(seg) + 1);
                       });
  ZIDIAN_RETURN_NOT_OK(st);
  {
    // The counts are re-seeded below; until then they would be stale.
    MutexLock lock(sizes_mu_);
    block_sizes_.erase(kv.name);
  }

  // Group by X (the mapping of §4.1: project on XY, group by X). Bag
  // semantics are preserved; the block codec compresses duplicates.
  std::unordered_map<Tuple, std::vector<Tuple>, TupleHasher> groups;
  for (const auto& row : data.rows()) {
    Tuple x, y;
    x.reserve(xidx.size());
    y.reserve(yidx.size());
    for (int i : xidx) x.push_back(row[static_cast<size_t>(i)]);
    for (int i : yidx) y.push_back(row[static_cast<size_t>(i)]);
    groups[std::move(x)].push_back(std::move(y));
  }
  // The whole instance lands as one commit.
  std::map<uint64_t, uint64_t> sizes;
  ZIDIAN_RETURN_NOT_OK(cluster_->Write([&](Cluster::Writer& w) -> Status {
    for (auto& [key, rows] : groups) {
      ++sizes[rows.size()];
      uint64_t old_segments = 0;
      if (!stored.empty()) {
        auto it = stored.find(EncodeKeyTuple(key));
        if (it != stored.end()) {
          old_segments = it->second;
          stored.erase(it);
        }
      }
      ZIDIAN_RETURN_NOT_OK(WriteBlock(kv, key, rows, old_segments, w));
    }
    // Blocks whose key no longer occurs in `data` go too.
    for (const auto& [xpart, segments] : stored) {
      for (uint64_t s = 0; s < segments; ++s) {
        std::string k = prefix + xpart;
        EncodeOrderedInt64(&k, static_cast<int64_t>(s));
        ZIDIAN_RETURN_NOT_OK(w.Delete(k));
      }
    }
    return Status::OK();
  }));
  MutexLock lock(sizes_mu_);
  block_sizes_[kv.name] = std::move(sizes);
  return Status::OK();
}

Status BaavStore::BuildAll(const std::map<std::string, Relation>& db) {
  for (const auto& kv : schema_.all()) {
    auto it = db.find(kv.relation);
    if (it == db.end()) {
      return Status::InvalidArgument("no data for relation " + kv.relation);
    }
    ZIDIAN_RETURN_NOT_OK(BuildInstance(kv, it->second));
  }
  return Status::OK();
}

namespace {

/// Combines one segment's statistics into the block total.
void MergeBlockStats(BlockStats* total, const BlockStats& part, size_t arity) {
  total->row_count += part.row_count;
  for (size_t c = 0; c < arity; ++c) {
    const auto& s = part.columns[c];
    if (!s.numeric) continue;
    auto& t = total->columns[c];
    if (t.count == 0) {
      t = s;
    } else {
      t.min = std::min(t.min, s.min);
      t.max = std::max(t.max, s.max);
      t.sum += s.sum;
      t.count += s.count;
    }
    t.numeric = true;
  }
}

/// Transfers a stats fetch's scratch meter into the caller's metrics. A
/// stats read ships only header-sized payloads, so the four header-charged
/// fields are replaced: one get and `arity` values per fetched segment,
/// and `header_bytes` per segment — from the cache for the segments that
/// hit (no comm), from storage for the rest. Every other counter the
/// fetch recorded (round trips, cache traffic, network and fault
/// metering) carries over unchanged.
void ChargeStatsFetch(const QueryMetrics& scratch, uint64_t segments_fetched,
                      size_t arity, QueryMetrics* m) {
  if (m == nullptr) return;
  uint64_t header_bytes = 16 + arity * 26;
  uint64_t hit_segments = std::min<uint64_t>(scratch.cache_hits,
                                             segments_fetched);
  QueryMetrics charged = scratch;
  charged.get_calls = segments_fetched;
  charged.values_accessed = segments_fetched * arity;
  charged.bytes_from_storage = (segments_fetched - hit_segments) * header_bytes;
  charged.bytes_from_cache = hit_segments * header_bytes;
  *m += charged;
}

}  // namespace

Result<std::vector<uint64_t>> BaavStore::FetchSegments(
    const std::vector<BlockRef>& refs, QueryMetrics* m, CacheFill fill,
    FanoutMode fanout, FanoutStats* fanout_stats,
    const std::function<Status(size_t, std::string_view)>& decode,
    std::vector<Status>* lost) const {
  std::vector<uint64_t> segments(refs.size(), 0);
  if (refs.empty()) return segments;
  if (lost != nullptr) lost->assign(refs.size(), Status::OK());
  // An unreachable key fails the fetch, or with `lost` only its block.
  auto settle = [&](const MultiGetResult& got,
                    const std::vector<size_t>* owner) -> Status {
    if (got.ok()) return Status::OK();
    if (lost == nullptr) return got.status;
    for (size_t j = 0; j < got.size(); ++j) {
      if (!got.Failed(j)) continue;
      (*lost)[owner != nullptr ? (*owner)[j] : j] = got.status;
    }
    return Status::OK();
  };

  std::vector<std::string> seg0;
  seg0.reserve(refs.size());
  for (const auto& r : refs) seg0.push_back(SegmentKey(*r.kv, *r.key, 0));
  auto first = cluster_->MultiGet(seg0, m, fill, fanout, fanout_stats);
  ZIDIAN_RETURN_NOT_OK(settle(first, nullptr));

  // Blocks split across segments need a second round for the overflow
  // keys, collected in slot order so the request — and every counter —
  // is the same whatever schedule ran the first round.
  std::vector<std::string> extra_keys;
  std::vector<size_t> extra_owner;
  for (size_t i = 0; i < refs.size(); ++i) {
    // Absent (an empty block) or unreachable.
    if (!first[i].has_value()) continue;
    std::string_view sv = *first[i];
    if (!GetVarint64(&sv, &segments[i]) || segments[i] == 0) {
      return Status::Corruption("bad segment header in " + refs[i].kv->name);
    }
    ZIDIAN_RETURN_NOT_OK(decode(i, sv));
    for (uint64_t s = 1; s < segments[i]; ++s) {
      extra_keys.push_back(SegmentKey(*refs[i].kv, *refs[i].key, s));
      extra_owner.push_back(i);
    }
  }
  if (extra_keys.empty()) return segments;
  auto rest = cluster_->MultiGet(extra_keys, m, fill, fanout, fanout_stats);
  ZIDIAN_RETURN_NOT_OK(settle(rest, &extra_owner));
  for (size_t j = 0; j < extra_keys.size(); ++j) {
    if (rest.Failed(j)) continue;
    if (!rest[j].has_value()) {
      return Status::Corruption("missing segment in " +
                                refs[extra_owner[j]].kv->name);
    }
    ZIDIAN_RETURN_NOT_OK(decode(extra_owner[j], *rest[j]));
  }
  return segments;
}

Result<std::vector<BaavStore::FetchedBlock>> BaavStore::MultiGetBlocks(
    const std::vector<BlockRef>& refs, QueryMetrics* m, FanoutMode fanout,
    FanoutStats* fanout_stats) const {
  std::vector<FetchedBlock> out(refs.size());
  std::vector<Status> lost;
  ZIDIAN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> segments,
      FetchSegments(refs, m, CacheFill::kFill, fanout, fanout_stats,
                    [&](size_t i, std::string_view body) -> Status {
                      std::vector<Tuple> part;
                      ZIDIAN_RETURN_NOT_OK(DecodeBlock(
                          body, refs[i].kv->value_attrs.size(), &part));
                      auto& rows = out[i].rows;
                      if (rows.empty()) {
                        rows = std::move(part);
                      } else {
                        rows.insert(rows.end(),
                                    std::make_move_iterator(part.begin()),
                                    std::make_move_iterator(part.end()));
                      }
                      return Status::OK();
                    },
                    &lost));
  for (size_t i = 0; i < refs.size(); ++i) {
    if (!lost[i].ok()) {
      // A lost block keeps no rows: part of it may have arrived.
      out[i].rows.clear();
      out[i].status = std::move(lost[i]);
      continue;
    }
    out[i].segments = segments[i];
    if (m != nullptr && segments[i] > 0) {
      m->values_accessed +=
          out[i].rows.size() * refs[i].kv->value_attrs.size() +
          refs[i].key->size();
    }
  }
  return out;
}

Result<std::vector<BlockStats>> BaavStore::MultiGetBlockStats(
    const KvSchema& kv, const std::vector<Tuple>& keys, QueryMetrics* m,
    FanoutMode fanout, FanoutStats* fanout_stats) const {
  size_t arity = kv.value_attrs.size();
  std::vector<BlockStats> out(keys.size());
  for (auto& st : out) st.columns.assign(arity, BlockColumnStats{});
  std::vector<BlockRef> refs;
  refs.reserve(keys.size());
  for (const auto& key : keys) refs.push_back({&kv, &key});

  // Fetch through a scratch meter: a stats read ships only header-sized
  // payloads, so the cluster-level byte charge must not be recorded — and
  // (kNoFill) its misses must not plant full blocks in the cache either.
  // Segments merge in slot then segment order, so the float sums in
  // MergeBlockStats associate the same way under either schedule.
  QueryMetrics scratch;
  uint64_t segments_fetched = 0;
  Status st =
      FetchSegments(refs, &scratch, CacheFill::kNoFill, fanout, fanout_stats,
                    [&](size_t i, std::string_view body) -> Status {
                      BlockStats part;
                      ZIDIAN_RETURN_NOT_OK(
                          DecodeBlockStats(body, arity, &part));
                      MergeBlockStats(&out[i], part, arity);
                      ++segments_fetched;
                      return Status::OK();
                    },
                    /*lost=*/nullptr)
          .status();
  // One get per fetched segment (absent keys charge nothing), header-sized
  // payloads only — from the cache for segments that hit. Round trips come
  // from the batched fetches that went out. A failed fetch is charged
  // too: its retry traffic and read epochs belong to the query.
  ChargeStatsFetch(scratch, segments_fetched, arity, m);
  ZIDIAN_RETURN_NOT_OK(st);
  return out;
}

Status BaavStore::ScanInstance(
    const KvSchema& kv, QueryMetrics* m,
    const std::function<void(const Tuple&, const std::vector<Tuple>&)>& fn,
    ThreadPool* pool, int workers) const {
  std::string prefix = InstancePrefix(kv);
  Status st = Status::OK();
  // Collect per-key segments: hash partitioning scatters segments across
  // nodes, so group by X first, then decode in segment order. The ordered
  // map fixes the block order every chunking below must reproduce.
  std::map<std::string, std::map<int64_t, std::string>> by_key;
  cluster_->ScanPrefix(prefix, m,
                       [&](std::string_view key, std::string_view value) {
                         std::string_view xpart;
                         int64_t seg;
                         if (!SplitSegmentKey(key.substr(prefix.size()),
                                              &xpart, &seg)) {
                           st = Status::Corruption("bad BaaV key in " +
                                                   kv.name);
                           return;
                         }
                         by_key[std::string(xpart)][seg] = std::string(value);
                       });
  ZIDIAN_RETURN_NOT_OK(st);

  // Decode chunk-per-worker: each worker owns a contiguous range of
  // blocks, decodes into its own slot and meters its own delta; the merge
  // walks the slots in worker order and hands every block to `fn` on the
  // calling thread — same block order, same counters as the sequential
  // scan, whatever the scheduler did.
  std::vector<const std::pair<const std::string,
                              std::map<int64_t, std::string>>*> blocks;
  blocks.reserve(by_key.size());
  for (const auto& entry : by_key) blocks.push_back(&entry);

  struct Decoded {
    Tuple key;
    std::vector<Tuple> rows;
  };
  struct WorkerSlot {
    std::vector<Decoded> decoded;
    QueryMetrics m;
    Status status;
  };
  size_t p = static_cast<size_t>(std::max(1, workers));
  std::vector<WorkerSlot> slots(p);
  auto run_worker = [&](size_t w) {
    WorkerSlot& slot = slots[w];
    auto [begin, end] = ChunkRange(blocks.size(), w, p);
    for (size_t i = begin; i < end; ++i) {
      const auto& [xpart, segments] = *blocks[i];
      Decoded d;
      if (!DecodeKeyTuple(xpart, kv.key_attrs.size(), &d.key)) {
        slot.status = Status::Corruption("bad BaaV key for " + kv.name);
        return;
      }
      for (const auto& [seg_no, data] : segments) {
        std::string_view sv = data;
        if (seg_no == 0) {
          uint64_t n;
          if (!GetVarint64(&sv, &n)) {
            slot.status = Status::Corruption("bad segment header");
            return;
          }
        }
        std::vector<Tuple> part;
        slot.status = DecodeBlock(sv, kv.value_attrs.size(), &part);
        if (!slot.status.ok()) return;
        d.rows.insert(d.rows.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
      }
      slot.m.values_accessed +=
          d.rows.size() * kv.value_attrs.size() + d.key.size();
      slot.decoded.push_back(std::move(d));
    }
  };
  ParallelFor(pool, p, run_worker);
  for (auto& slot : slots) {
    ZIDIAN_RETURN_NOT_OK(slot.status);
    if (m != nullptr) *m += slot.m;
    for (const auto& d : slot.decoded) fn(d.key, d.rows);
  }
  return Status::OK();
}

Result<uint64_t> BaavStore::Degree(const KvSchema& kv) const {
  auto max_size = [](const std::map<uint64_t, uint64_t>& sizes) {
    return sizes.empty() ? uint64_t{0} : sizes.rbegin()->first;
  };
  uint64_t installs = 0;
  {
    MutexLock lock(sizes_mu_);
    auto it = block_sizes_.find(kv.name);
    if (it != block_sizes_.end()) return max_size(it->second);
    installs = installs_;
  }
  // Unmeasured: scan without the lock, so concurrent callers do not queue
  // behind a full instance scan. The scan runs under one commit epoch, so
  // it counts one state of the instance; two racing scans of that state
  // count the same blocks and the first to finish seeds.
  std::map<uint64_t, uint64_t> sizes;
  QueryMetrics scratch;
  Status st = ScanInstance(
      kv, &scratch, [&](const Tuple&, const std::vector<Tuple>& rows) {
        if (!rows.empty()) ++sizes[rows.size()];
      });
  // A failed scan proves nothing about the degree: propagate and leave
  // the counts unseeded so a later healthy scan can still answer.
  if (!st.ok()) return st;
  MutexLock lock(sizes_mu_);
  // An Install since the scan began skipped these then-unmeasured counts,
  // so seeding them would lose its change: answer from the scan (a plan
  // built on it is still correct) and let the next call rescan.
  if (installs_ != installs) return max_size(sizes);
  return max_size(block_sizes_.try_emplace(kv.name, std::move(sizes))
                      .first->second);
}

Status BaavStore::ReadAffected(const std::string& relation,
                               const Tuple& tuple, bool insert,
                               Maintenance* pending) const {
  // Locate (or queue for fetching) every affected block before touching
  // `pending`, so a failed projection or read leaves it as it was.
  Maintenance fetch;
  std::vector<std::pair<size_t, Tuple>> edits;  // staged slot, Y-projection
  for (const auto* kv : schema_.ForRelation(relation)) {
    ZIDIAN_ASSIGN_OR_RETURN(Tuple key,
                            ProjectTuple(*kv, tuple, kv->key_attrs));
    ZIDIAN_ASSIGN_OR_RETURN(Tuple y,
                            ProjectTuple(*kv, tuple, kv->value_attrs));
    auto staged = std::find_if(
        pending->begin(), pending->end(), [&](const BlockUpdate& b) {
          return b.kv == kv && b.key == key;
        });
    size_t slot = size_t(staged - pending->begin());
    if (staged == pending->end()) {
      slot = pending->size() + fetch.size();
      BlockUpdate block;
      block.kv = kv;
      block.key = std::move(key);
      fetch.push_back(std::move(block));
    }
    edits.emplace_back(slot, std::move(y));
  }
  std::vector<BlockRef> refs;
  refs.reserve(fetch.size());
  for (const auto& block : fetch) refs.push_back({block.kv, &block.key});
  // Unmetered, like every maintenance access; kFill, so the cache ends up
  // holding what a full read of these blocks would have left behind. An
  // unreachable block fails the read: its rows are unknown.
  ZIDIAN_ASSIGN_OR_RETURN(
      std::vector<FetchedBlock> fetched,
      MultiGetBlocks(refs, nullptr, FanoutMode::kOverlapped, nullptr));
  for (const FetchedBlock& block : fetched) {
    ZIDIAN_RETURN_NOT_OK(block.status);
  }
  for (size_t i = 0; i < fetch.size(); ++i) {
    fetch[i].rows = std::move(fetched[i].rows);
    fetch[i].old_size = fetch[i].rows.size();
    fetch[i].old_segments = fetched[i].segments;
  }
  auto rows_of = [&](size_t slot) -> std::vector<Tuple>& {
    return slot < pending->size() ? (*pending)[slot].rows
                                  : fetch[slot - pending->size()].rows;
  };
  // A delete must find its row in every affected block before any block
  // changes: the edits target distinct blocks, so checking them all first
  // keeps a NotFound from staging half of the mutation.
  if (!insert) {
    for (const auto& [slot, y] : edits) {
      const auto& rows = rows_of(slot);
      if (std::find(rows.begin(), rows.end(), y) == rows.end()) {
        return Status::NotFound("deleted " + relation + " tuple is not stored");
      }
    }
  }
  for (auto& [slot, y] : edits) {
    auto& rows = rows_of(slot);
    if (insert) {
      rows.push_back(std::move(y));
    } else {
      rows.erase(std::find(rows.begin(), rows.end(), y));
    }
  }
  for (auto& block : fetch) pending->push_back(std::move(block));
  return Status::OK();
}

Status BaavStore::ReadForInsert(const std::string& relation,
                                const Tuple& tuple,
                                Maintenance* pending) const {
  return ReadAffected(relation, tuple, /*insert=*/true, pending);
}

Status BaavStore::ReadForDelete(const std::string& relation,
                                const Tuple& tuple,
                                Maintenance* pending) const {
  return ReadAffected(relation, tuple, /*insert=*/false, pending);
}

Status BaavStore::Install(const Maintenance& update,
                          Cluster::Writer& writer) {
  {
    MutexLock lock(sizes_mu_);
    ++installs_;
  }
  for (const auto& block : update) {
    Status st = WriteBlock(*block.kv, block.key, block.rows,
                           block.old_segments, writer);
    MutexLock lock(sizes_mu_);
    if (!st.ok()) {
      // The block's state is uncertain now: let the next Degree rescan.
      block_sizes_.erase(block.kv->name);
      return st;
    }
    auto it = block_sizes_.find(block.kv->name);
    // Unmeasured instances stay so: the first Degree scan sees this write.
    if (it == block_sizes_.end()) continue;
    auto& sizes = it->second;
    if (block.old_size > 0) {
      auto old = sizes.find(block.old_size);
      if (old == sizes.end()) {
        // The counts missed a block (someone else wrote the instance):
        // drop them and let the next Degree rescan.
        block_sizes_.erase(it);
        continue;
      }
      if (--old->second == 0) sizes.erase(old);
    }
    if (!block.rows.empty()) ++sizes[block.rows.size()];
  }
  return Status::OK();
}

int BaavStore::NodeForBlock(const KvSchema& kv, const Tuple& key) const {
  return cluster_->NodeFor(SegmentKey(kv, key, 0));
}

uint64_t BaavStore::InstanceBytes(const KvSchema& kv) const {
  std::string prefix = InstancePrefix(kv);
  uint64_t bytes = 0;
  QueryMetrics scratch;
  cluster_->ScanPrefix(prefix, &scratch,
                       [&](std::string_view key, std::string_view value) {
                         bytes += key.size() + value.size();
                       });
  return bytes;
}

}  // namespace zidian
