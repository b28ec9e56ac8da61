#include "storage/cluster.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "storage/mem_backend.h"

namespace zidian {

namespace {
bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Resolves the effective cache budget: the explicit option wins; when it
/// is 0, ZIDIAN_BLOCK_CACHE_BYTES (if set and positive) turns the cache
/// on fleet-wide — the hook the cache-enabled CI configuration uses.
size_t EffectiveCacheCapacity(const BlockCacheOptions& cache) {
  if (cache.capacity_bytes > 0) return cache.capacity_bytes;
  const char* env = std::getenv("ZIDIAN_BLOCK_CACHE_BYTES");
  if (env == nullptr) return 0;
  // Strict parse: plain decimal digits only. strtoull would silently
  // negate "-1" and saturate overflows to ULLONG_MAX — either typo must
  // read as "disabled", not as an unbounded cache.
  for (const char* c = env; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE) return 0;
  return static_cast<size_t>(parsed);
}

std::unique_ptr<KvBackend> MakeBackend(const ClusterOptions& options) {
  if (options.backend_factory) return options.backend_factory();
  switch (options.backend) {
    case BackendKind::kMem:
      return std::make_unique<MemBackend>();
    case BackendKind::kLsm:
      break;
  }
  return std::make_unique<LsmStore>(options.lsm);
}
}  // namespace

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kLsm:
      return "lsm";
    case BackendKind::kMem:
      return "mem";
  }
  return "unknown";
}

Cluster::Cluster(ClusterOptions options) {
  nodes_.reserve(options.num_storage_nodes);
  for (int i = 0; i < options.num_storage_nodes; ++i) {
    nodes_.push_back(MakeBackend(options));
  }
  BlockCacheOptions cache = options.cache;
  cache.capacity_bytes = EffectiveCacheCapacity(cache);
  if (cache.capacity_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(cache);
  }
  if (options.network.Enabled()) {
    network_ = std::make_unique<NetworkModel>(std::move(options.network),
                                              options.num_storage_nodes);
  }
  recovery_ = options.recovery;
  replication_ = std::min(std::max(1, recovery_.replication_factor),
                          static_cast<int>(nodes_.size()));
  recovery_.replication_factor = replication_;
  replica_chains_.resize(nodes_.size());
  for (size_t p = 0; p < nodes_.size(); ++p) {
    replica_chains_[p].reserve(static_cast<size_t>(replication_));
    for (int r = 0; r < replication_; ++r) {
      replica_chains_[p].push_back(
          static_cast<int>((p + static_cast<size_t>(r)) % nodes_.size()));
    }
  }
}

Status Cluster::Put(std::string_view key, std::string_view value,
                    QueryMetrics* m) {
  return Write([&](Writer& w) { return w.Put(key, value, m); });
}

Status Cluster::Delete(std::string_view key, QueryMetrics* m) {
  return Write([&](Writer& w) { return w.Delete(key, m); });
}

// A Writer exists only inside Write, so its writes run under the gate's
// exclusive side.
Status Cluster::Writer::Put(std::string_view key, std::string_view value,
                            QueryMetrics* m) {
  Cluster& c = *cluster_;
  if (m != nullptr) {
    m->put_calls += 1;  // one logical write, whatever the replication
    m->bytes_to_storage +=
        static_cast<uint64_t>(c.replication_) * (key.size() + value.size());
  }
  // Invalidation is unconditional — coherence is not optional. The write
  // holds the storage gate exclusive, so no read probes or fills the
  // cache until the commit is done: ordering the cache update after the
  // backend write is not observable — and it keeps a FAILED write from
  // installing a value the backend never stored: only a successful Put
  // upgrades a negative entry to the new value in place (the write proved
  // the key exists; a read-back must hit). A failed or bypassed write
  // merely erases (backend state is uncertain / the install would be a
  // fill).
  // Write-all replication: every node in the key's chain stores the pair
  // (one logical put, one backend write + metered network write per
  // replica), so any replica can serve reads and hedges coherently. The
  // first backend failure is reported — state across replicas is then
  // uncertain, which is exactly why a failed write erases instead of
  // installing below. At replication=1 this is the historical single
  // write, byte for byte.
  Status st;
  for (int node : c.ReplicaChain(c.NodeFor(key))) {
    Status s = c.nodes_[node]->Put(key, value);
    if (!s.ok() && st.ok()) st = s;
    // Writes are metered into the network (per-node trip, transfer bytes)
    // but never stalled; bulk loads pass m = nullptr and the model stays
    // untouched entirely.
    if (c.network_ != nullptr && m != nullptr) {
      c.network_->OnWrite(node, 1, key.size() + value.size(), m);
    }
  }
  if (c.cache_ != nullptr) {
    if (st.ok() && c.CacheActive()) {
      size_t evicted = c.cache_->OnPut(key, value);
      if (m != nullptr) m->cache_evictions += evicted;
    } else {
      c.cache_->Erase(key);
    }
  }
  return st;
}

Status Cluster::Writer::Delete(std::string_view key, QueryMetrics* m) {
  Cluster& c = *cluster_;
  if (m != nullptr) {
    m->delete_calls += 1;
    m->bytes_to_storage += static_cast<uint64_t>(c.replication_) * key.size();
  }
  if (c.cache_ != nullptr) c.cache_->Erase(key);
  // Delete-all mirrors write-all: every replica drops the key, and the
  // first backend failure is reported rather than swallowed.
  Status st;
  for (int node : c.ReplicaChain(c.NodeFor(key))) {
    if (c.network_ != nullptr && m != nullptr) {
      c.network_->OnWrite(node, 1, key.size(), m);
    }
    Status s = c.nodes_[node]->Delete(key);
    if (!s.ok() && st.ok()) st = s;
  }
  return st;
}

void Cluster::RecordEpoch(QueryMetrics* m) const {
  if (m == nullptr) return;
  if (m->read_epoch_lo == 0 || epoch_ < m->read_epoch_lo) {
    m->read_epoch_lo = epoch_;
  }
  m->read_epoch_hi = std::max(m->read_epoch_hi, epoch_);
}

void Cluster::Stall(int64_t wake_ns) const {
  if (network_ != nullptr) network_->SleepUntil(wake_ns);
}

bool Cluster::PrepareMultiGet(const std::vector<std::string>& keys,
                              QueryMetrics* m, MultiGetResult* result,
                              std::vector<KvBackend::BatchedKey>* batch,
                              std::vector<uint32_t>* offsets) const {
  std::vector<std::optional<std::string>>& out = result->values;
  out.resize(keys.size());

  if (m != nullptr) {
    m->multiget_calls += 1;
    m->get_calls += keys.size();
  }

  // Serve cache hits first — positive and negative — so only genuinely
  // unknown keys go to the nodes; a fully cached batch performs zero
  // round trips.
  std::vector<uint32_t> pending;  // slots still needing a backend fetch
  if (CacheActive()) {
    pending.reserve(keys.size());
    std::string cached;
    for (size_t i = 0; i < keys.size(); ++i) {
      switch (cache_->Probe(keys[i], &cached)) {
        case CacheLookup::kHit:
          if (m != nullptr) {
            m->cache_hits += 1;
            m->bytes_from_cache += keys[i].size() + cached.size();
          }
          out[i] = std::move(cached);
          cached = std::string();
          break;
        case CacheLookup::kNegativeHit:
          // Cached-absent: the slot stays nullopt and skips the backend.
          if (m != nullptr) m->cache_negative_hits += 1;
          break;
        case CacheLookup::kMiss:
          if (m != nullptr) m->cache_misses += 1;
          pending.push_back(static_cast<uint32_t>(i));
          break;
      }
    }
    if (pending.empty()) return false;
  } else {
    pending.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      pending[i] = static_cast<uint32_t>(i);
    }
  }

  // Group the slot-tagged requests by owning node with one counting-sort
  // pass (no per-node vectors). Each node writes its values straight into
  // the final slots, so nothing is copied or reordered afterwards.
  size_t num_nodes = nodes_.size();
  std::vector<uint32_t> node_of(pending.size());
  offsets->assign(num_nodes + 1, 0);
  for (size_t i = 0; i < pending.size(); ++i) {
    node_of[i] = static_cast<uint32_t>(NodeFor(keys[pending[i]]));
    ++(*offsets)[node_of[i] + 1];
  }
  for (size_t n = 1; n <= num_nodes; ++n) (*offsets)[n] += (*offsets)[n - 1];
  batch->resize(pending.size());
  {
    std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
    for (size_t i = 0; i < pending.size(); ++i) {
      (*batch)[cursor[node_of[i]]++] = {keys[pending[i]], pending[i]};
    }
  }
  return true;
}

void Cluster::SettleNodeBatch(const std::vector<KvBackend::BatchedKey>& batch,
                              size_t begin, size_t end,
                              const std::vector<uint8_t>& reachable,
                              CacheFill fill, QueryMetrics* m,
                              MultiGetResult* result,
                              uint64_t* unreachable) const {
  std::vector<std::optional<std::string>>& out = result->values;
  for (size_t j = begin; j < end; ++j) {
    uint32_t slot = batch[j].slot;
    if (!reachable.empty() && reachable[j - begin] == 0) {
      // Unreachable keys give their backend value back and are neither
      // metered as fetched nor cached — in either polarity — because
      // unreachable is not absent.
      out[slot].reset();
      if (result->failed.empty()) result->failed.assign(out.size(), 0);
      result->failed[slot] = 1;
      ++*unreachable;
      continue;
    }
    const auto& value = out[slot];
    if (!value.has_value()) {
      // The node confirmed the key absent: remember that, so the next
      // batch over the same keys skips this round trip.
      if (CacheActive() && fill == CacheFill::kFill) {
        m->cache_evictions += cache_->InsertNegative(batch[j].key);
      }
      continue;
    }
    m->bytes_from_storage += batch[j].key.size() + value->size();
    if (CacheActive() && fill == CacheFill::kFill) {
      m->cache_evictions += cache_->Insert(batch[j].key, *value);
    }
  }
}

MultiGetResult Cluster::MultiGet(const std::vector<std::string>& keys,
                                 QueryMetrics* m, CacheFill fill,
                                 FanoutMode fanout, FanoutStats* stats) const {
  MultiGetResult result;
  if (keys.empty()) return result;
  std::vector<KvBackend::BatchedKey> batch;
  std::vector<uint32_t> offsets;
  std::vector<size_t> touched;  // nodes with a batch, in node order
  std::vector<std::optional<std::string>>& out = result.values;

  // One issue-then-stall loop over the touched nodes, in node order. Each
  // pass holds the storage gate shared while it touches storage — the
  // first pass also probes the cache — and stalls after releasing it.
  // kOverlapped issues every batch in one pass at one instant t0 and
  // stalls once, to the latest completion. kSerial issues one batch per
  // pass at the current instant and stalls on it before the next one
  // leaves, so a node's clock is claimed only when its batch is sent.
  // Each batch meters into its own delta, so its modeled service time is
  // known for the overlap accounting and the merge into `m` is a pure
  // sum. Fault verdicts and every counter are pure functions of the
  // batch, so both schedules meter the same totals; queue waits come from
  // the shared node clocks and feed only the wake instants.
  const bool overlapped = fanout == FanoutMode::kOverlapped;
  int64_t t0 = 0;
  uint64_t total_service = 0;
  uint64_t max_service = 0;
  uint64_t unreachable = 0;
  size_t issued = 0;
  do {
    int64_t wake = t0;
    {
      ReaderMutexLock gate(gate_);
      RecordEpoch(m);
      if (issued == 0) {
        if (!PrepareMultiGet(keys, m, &result, &batch, &offsets)) {
          return result;
        }
        for (size_t n = 0; n + 1 < offsets.size(); ++n) {
          if (offsets[n] != offsets[n + 1]) touched.push_back(n);
        }
        t0 = network_ != nullptr ? network_->NowNs() : 0;
        wake = t0;
      }
      const size_t until = overlapped ? touched.size() : issued + 1;
      for (; issued < until; ++issued) {
        const size_t n = touched[issued];
        const size_t begin = offsets[n], end = offsets[n + 1];
        nodes_[n]->MultiGet(
            std::span<const KvBackend::BatchedKey>(batch.data() + begin,
                                                   end - begin),
            &out);
        QueryMetrics delta;
        delta.get_round_trips += 1;
        std::vector<uint8_t> reachable;  // stays empty without a network
        if (network_ != nullptr) {
          // Keys out + found values back, per key.
          std::vector<NetworkModel::BatchItem> items;
          items.reserve(end - begin);
          for (size_t j = begin; j < end; ++j) {
            const auto& value = out[batch[j].slot];
            const uint64_t bytes =
                batch[j].key.size() + (value.has_value() ? value->size() : 0);
            items.push_back({batch[j].key, bytes});
          }
          const int64_t issue = overlapped ? t0 : network_->NowNs();
          // The batching economics in one line: this whole per-node batch
          // pays ONE round trip (rtt once) plus a marginal per-key cost —
          // where the same keys one at a time would pay the rtt per key.
          // The recovery machine decides, per key, whether any replica
          // answered within the attempt budget (retries / backoff /
          // timeouts / hedges, all metered); with the default policy and
          // a quiet fault schedule it plays one round, priced at exactly
          // the link's RequestCost.
          wake = std::max(wake, network_->FetchWithRecoveryAt(
                                    ReplicaChain(static_cast<int>(n)), items,
                                    recovery_, &delta, &reachable, issue));
        }
        SettleNodeBatch(batch, begin, end, reachable, fill, &delta, &result,
                        &unreachable);
        total_service += delta.net_service_ns;
        max_service = std::max(max_service, delta.net_service_ns);
        if (m != nullptr) *m += delta;
      }
    }
    Stall(wake);
  } while (issued < touched.size());
  // The hidden time is what the serial schedule would have added on top
  // of the slowest batch.
  if (overlapped && stats != nullptr) {
    stats->Merge({total_service - max_service, touched.size()});
  }
  if (unreachable > 0) {
    result.status = Status::Unavailable(
        std::to_string(unreachable) + " of " + std::to_string(keys.size()) +
        " keys unreachable after " + std::to_string(recovery_.max_attempts) +
        " attempts");
  }
  return result;
}

void Cluster::ScanPrefix(
    std::string_view prefix, QueryMetrics* m,
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  ReaderMutexLock gate(gate_);
  RecordEpoch(m);
  for (size_t ni = 0; ni < nodes_.size(); ++ni) {
    auto it = nodes_[ni]->NewIterator();
    it->Seek(prefix);
    while (it->Valid() && HasPrefix(it->key(), prefix)) {
      // Under replication every pair exists on `replication_` nodes; a
      // scan must see it exactly once — emit only the primary copy.
      if (replication_ > 1 &&
          NodeFor(it->key()) != static_cast<int>(ni)) {
        it->Next();
        continue;
      }
      if (m != nullptr) {
        m->next_calls += 1;
        m->bytes_from_storage += it->key().size() + it->value().size();
      }
      fn(it->key(), it->value());
      it->Next();
    }
  }
}

void Cluster::FlushAll() {
  WriterMutexLock gate(gate_);
  for (auto& node : nodes_) node->Flush();
}

Status Cluster::SaveToDir(const std::string& dir) const {
  ReaderMutexLock gate(gate_);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ZIDIAN_RETURN_NOT_OK(
        nodes_[i]->SaveToFile(dir + "/node-" + std::to_string(i) + ".kv"));
  }
  return Status::OK();
}

Status Cluster::LoadFromDir(const std::string& dir) {
  WriterMutexLock gate(gate_);
  ++epoch_;
  // Bulk replacement of every node's contents: per-key invalidation is
  // pointless, drop the whole cache.
  if (cache_ != nullptr) cache_->Clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ZIDIAN_RETURN_NOT_OK(
        nodes_[i]->LoadFromFile(dir + "/node-" + std::to_string(i) + ".kv"));
  }
  return Status::OK();
}

size_t Cluster::TotalBytes() const {
  ReaderMutexLock gate(gate_);
  size_t total = 0;
  for (const auto& node : nodes_) total += node->ApproximateBytes();
  return total;
}

}  // namespace zidian
