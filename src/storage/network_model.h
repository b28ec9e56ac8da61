// Simulated network substrate between the SQL layer and the storage
// nodes. The paper's cost model is phrased in communication rounds; this
// subsystem gives each round a price and each storage node a queue, so
// the KBA-vs-TaaV round-trip advantage can be studied under realistic
// load:
//
//  * Per-request fixed latency (`rtt_us`): wire propagation — paid once
//    per request, overlaps freely across concurrent requests.
//  * Marginal per-key cost (`per_key_us`): node-side work per key in a
//    batch. A MultiGet of k keys to one node pays ONE round trip plus
//    k marginal key costs, where k one-key reads pay k round trips — the
//    batching economics the MultiGet seam exists to exploit.
//  * Per-byte transfer cost (`per_byte_us`): payload serialization /
//    bandwidth, charged on the shipped bytes.
//  * Service rate (`service_rate`): requests/second one node can admit.
//    Each request occupies the node for a fixed slot (1e6/service_rate
//    microseconds) plus its per-key and per-byte processing; concurrent
//    requests to the same node queue behind each other on a per-node
//    next-free-time clock. Propagation (rtt) never serializes.
//
// Links may differ per node (`NetworkOptions::node_links`) — a
// non-uniform network where one slow or overloaded node becomes the
// bottleneck the makespan model must expose.
//
// Determinism contract: every *metered* quantity (per-node round-trip
// histogram, transfer bytes, service nanoseconds, per-node busy
// nanoseconds) is a pure function of the request stream — integer
// nanoseconds, so sums are associative and ParallelMode::kSimulated and
// kThreads meter bit-identical values no matter how the scheduler
// interleaves workers. Only the *stalls* (real sleeps) and the measured
// wall clock depend on scheduling; the modeled queueing delay that feeds
// SimSeconds is recomputed deterministically from the metered totals
// (kba/makespan.h: FinalizeNetworkQueue).
//
// Thread safety: every request (OnGetAt, FetchWithRecoveryAt, OnWrite) is
// safe from any number of concurrent threads; the per-node next-free
// clocks are lock-free atomics (CAS loops), so no GUARDED_BY contract
// applies — the net_node_* accumulators live in the caller's per-worker
// QueryMetrics, never in shared state
// (docs/ARCHITECTURE.md "Concurrency contract"; TSan CI covers this
// path via test_network_model).
#ifndef ZIDIAN_STORAGE_NETWORK_MODEL_H_
#define ZIDIAN_STORAGE_NETWORK_MODEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace zidian {

/// Cost parameters of the link between the query node and ONE storage
/// node. All costs default to zero (a free, infinitely parallel network).
struct NetworkLinkOptions {
  double rtt_us = 0;       ///< fixed round-trip latency per request
  double per_key_us = 0;   ///< marginal node-side cost per key in a batch
  double per_byte_us = 0;  ///< transfer cost per payload byte
  /// Requests/second the node admits; > 0 gives every request a fixed
  /// service slot of 1e6/service_rate us that serializes at the node.
  /// 0 = infinitely parallel node (no slot, no queue from the slot).
  double service_rate = 0;

  bool Free() const {
    return rtt_us <= 0 && per_key_us <= 0 && per_byte_us <= 0 &&
           service_rate <= 0;
  }
};

/// Fault behavior of ONE storage node. Faults are evaluated per key, on a
/// deterministic "phase" axis: every key hashes (with the schedule seed)
/// to a phase in [0,1), and a window [from, until) on that axis curses the
/// keys whose phase falls inside it on this node. Windows are therefore
/// sticky — retrying the same key on the same node never escapes a window
/// (only a replica on a healthy node can) — while `fail_probability` is
/// rolled per attempt, so those losses ARE retryable. Everything is a pure
/// function of (seed, key, node, attempt): verdicts, and every counter
/// derived from them, are bit-identical across ParallelMode::kSimulated /
/// kThreads and across worker counts.
struct NodeFaultOptions {
  /// Probability in [0,1] that one attempt (request + response) is lost.
  /// Rolled per (seed, key, node, attempt): a retry re-rolls.
  double fail_probability = 0;
  /// Unavailability window on the key-phase axis: keys with phase in
  /// [down_from, down_until) fail every attempt on this node.
  double down_from = 0;
  double down_until = 0;
  /// Degraded-service window: keys with phase in [degraded_from,
  /// degraded_until) pay `degrade_factor` times the node-side busy cost
  /// (slot + per-key + per-byte; rtt is wire propagation and unaffected).
  /// [0, 1) degrades the node for every key — the chaos-bench setting.
  double degraded_from = 0;
  double degraded_until = 0;
  double degrade_factor = 1;

  bool Quiet() const {
    return fail_probability <= 0 && down_until <= down_from &&
           (degraded_until <= degraded_from || degrade_factor == 1);
  }
};

/// A deterministic, seedable per-node fault schedule
/// (NetworkOptions::faults). Disabled by default. Every Cluster read batch
/// runs the retry/hedge recovery machine (FetchWithRecoveryAt); under a
/// quiet schedule and the default RecoveryOptions it resolves every key in
/// one round, priced as a plain request.
struct FaultScheduleOptions {
  /// Seed for every fault hash. Two runs with the same seed (and the same
  /// request stream) inject byte-identical faults.
  uint64_t seed = 0;
  /// The default fault behavior, applied to every node without an
  /// override. Quiet by default.
  NodeFaultOptions fault;
  /// Per-node overrides, indexed by storage-node id; nodes beyond the
  /// vector use `fault`. An override REPLACES the whole entry (same
  /// convention as NetworkOptions::node_links).
  std::vector<NodeFaultOptions> node_faults;

  bool Enabled() const {
    if (!fault.Quiet()) return true;
    for (const auto& f : node_faults) {
      if (!f.Quiet()) return true;
    }
    return false;
  }
};

/// How the Cluster recovers from injected faults (ClusterOptions::
/// recovery): replica placement, bounded retries with exponential backoff,
/// per-request timeouts and hedged reads. All-default means one copy, no
/// backoff, timeout or hedge: with a quiet fault schedule every key
/// resolves in the first round, which meters exactly the link's
/// RequestCost.
struct RecoveryOptions {
  /// Copies of every key: replica r lives on node (primary + r) % N.
  /// Writes go to every replica; reads try the primary first and fall
  /// over to replicas on retry rounds (and on hedges).
  int replication_factor = 1;
  /// Attempt budget per key (first try + retries), round-robined across
  /// the replica chain. Exhausting it fails the read with kUnavailable.
  int max_attempts = 3;
  /// Backoff before retry round r (1-based): backoff_base_us * 2^(r-1),
  /// priced through the network model as a real modeled wait. 0 = none.
  double backoff_base_us = 0;
  /// Per-attempt timeout: an attempt whose modeled per-key latency
  /// exceeds this is abandoned (net_timeouts) and the key retries.
  /// Also bounds failure detection: a lost attempt is detected after
  /// timeout_us instead of after the round trip. 0 = no timeout.
  double timeout_us = 0;
  /// Hedged reads: when a key's modeled primary latency estimate exceeds
  /// this delay, race the first replica after hedge_after_us and take
  /// whichever answers first (net_hedges / net_hedge_wins). Requires
  /// replication_factor >= 2. 0 = no hedging.
  double hedge_after_us = 0;

  /// True when every knob is at its default (max_attempts only matters
  /// once a fault loses an attempt); ToString() tags it "(default)".
  bool Default() const {
    return replication_factor <= 1 && backoff_base_us <= 0 &&
           timeout_us <= 0 && hedge_after_us <= 0;
  }

  /// One-line summary for Explain()/AnswerInfo::replication_text.
  std::string ToString() const;
};

struct NetworkOptions {
  /// The default link, applied to every node without an override.
  NetworkLinkOptions link;
  /// Per-node overrides, indexed by storage-node id; nodes beyond the
  /// vector use `link`. This is how a non-uniform network is configured.
  /// An override REPLACES the whole link for that node — it does not
  /// overlay onto `link` — so start from a copy of the default when only
  /// one parameter should differ:
  ///   NetworkLinkOptions slow = options.link; slow.rtt_us = 2000;
  ///   options.node_links = {slow};
  std::vector<NetworkLinkOptions> node_links;

  /// The fault schedule (off by default). A schedule with zero link costs
  /// still instantiates the model: verdicts need the per-node fault
  /// tables even when every request is otherwise free.
  FaultScheduleOptions faults;

  /// Whether any link carries a cost or any fault is scheduled. A
  /// disabled network is never instantiated — the read path stays exactly
  /// as fast as before.
  bool Enabled() const {
    if (!link.Free()) return true;
    for (const auto& l : node_links) {
      if (!l.Free()) return true;
    }
    return faults.Enabled();
  }
};

class NetworkModel {
 public:
  NetworkModel(NetworkOptions options, int num_nodes);

  int num_nodes() const { return static_cast<int>(links_.size()); }
  const NetworkLinkOptions& link(int node) const {
    return links_[static_cast<size_t>(node)];
  }

  /// The deterministic price of one request, in integer nanoseconds.
  struct Cost {
    int64_t latency_ns = 0;  ///< rtt + busy: the request's own response
                             ///< time with an idle node (no queueing)
    int64_t busy_ns = 0;     ///< the node-serialized part (slot + per-key
                             ///< + per-byte); excludes propagation
  };
  /// Pure math, no side effects: `keys` keys and `bytes` payload bytes to
  /// `node`. latency = rtt + busy; busy = slot + keys*per_key +
  /// bytes*per_byte. One batched request of k keys is cheaper than k
  /// single requests by (k-1) round trips — the batching economics.
  Cost RequestCost(int node, uint64_t keys, uint64_t bytes) const;

  // --- issue / wait halves (the fan-out's stall schedule) --------------
  //
  // A read is two halves. The issue half (OnGetAt, FetchWithRecoveryAt)
  // meters the request into `m` (per-node round trip, transfer bytes,
  // service ns, per-node busy ns; no-op when m is null) and claims the
  // node's next-free-time clock at a caller-supplied modeled instant; it
  // never sleeps. The wait half is the caller's SleepUntil of the
  // returned completion, which covers the modeled latency PLUS any
  // queueing at the node. The stall is real in both parallel modes, so
  // measured wall clock can validate what the makespan model predicts.
  // A fan-out picks its schedule: issue each batch when the previous one
  // completed (serial, the SUM of per-node latencies), or issue EVERY
  // touched node's batch at one common instant and stall once
  // (overlapped, about the max). The metering is byte-identical either
  // way (same Cost, same counters, same fault verdicts): only the stall
  // schedule differs, which is why both schedules satisfy CountersEqual.

  /// The modeled completion of one issued request.
  struct AsyncCost {
    int64_t wake_ns = 0;     ///< absolute modeled completion instant
    int64_t latency_ns = 0;  ///< the request's own latency (no queueing)
  };

  /// One plain read request of `keys` keys and `bytes` payload bytes to
  /// `node`, issued at modeled instant `now_ns` (stamp NowNs() once per
  /// fan-out and pass it to every issue so the batches depart together).
  /// Fault-exempt: the TaaV scan's simulated per-tuple gets use it.
  AsyncCost OnGetAt(int node, uint64_t keys, uint64_t bytes, QueryMetrics* m,
                    int64_t now_ns) const;

  /// Nanoseconds since the model's epoch on the monotonic clock — the
  /// common issue instant of one overlapped fan-out.
  int64_t NowNs() const;

  /// Stalls the calling thread until modeled instant `wake_ns` has
  /// passed (no-op when it already has) — the wait half of a read.
  void SleepUntil(int64_t wake_ns) const;

  /// One write: metered identically to OnGetAt but never stalled — bulk
  /// loads and maintenance writes must not crawl. The write still
  /// occupies the node's clock, so an in-flight write delays subsequent
  /// reads.
  void OnWrite(int node, uint64_t keys, uint64_t bytes, QueryMetrics* m) const;

  /// One-line configuration summary for Explain()/AnswerInfo.
  std::string ToString() const;

  // --- fault schedule --------------------------------------------------

  /// Whether any node carries a non-quiet fault.
  bool faults_enabled() const { return faults_enabled_; }
  const NodeFaultOptions& fault(int node) const {
    return faults_[static_cast<size_t>(node)];
  }
  uint64_t fault_seed() const { return fault_seed_; }

  /// The key's position on the fault-window axis: a seeded hash of the
  /// key bytes mapped to [0,1). Pure — identical in both parallel modes
  /// and under any batch partitioning.
  double KeyPhase(std::string_view key) const;
  /// Sticky verdict: is `node` down for `key` (phase inside the node's
  /// down window)? Retries on this node never succeed; replicas can.
  bool NodeDownForKey(int node, std::string_view key) const;
  /// Transient verdict: is attempt number `attempt` (1-based, hedges
  /// salted) of `key` on `node` lost? Re-rolled per attempt.
  bool AttemptLost(int node, std::string_view key, uint32_t attempt) const;
  /// Busy-cost multiplier for `key` on `node` (1 outside any degraded
  /// window; never below 1).
  double KeyDegradeFactor(int node, std::string_view key) const;
  /// Modeled response time of fetching `key` (shipping `bytes`) alone
  /// from an idle `node`: rtt + degrade * (slot + per_key + bytes *
  /// per_byte), integer ns. This is the estimate the timeout and hedge
  /// policies decide on — pure, so those decisions are deterministic.
  int64_t KeyLatencyEstimateNs(int node, std::string_view key,
                               uint64_t bytes) const;

  /// One-line fault-schedule summary ("off" when quiet) for Explain().
  std::string FaultText() const;

  // --- recovery machine ------------------------------------------------

  /// One key of a batch entering the recovery machine: the key bytes and
  /// the payload it ships (key + found value).
  struct BatchItem {
    std::string_view key;
    uint64_t bytes = 0;
  };

  /// The per-key retry/hedge recovery machine for one batch addressed to
  /// `replicas` (the primary first — every item must hash to that
  /// primary), issued at modeled instant `call_now_ns`. Plays attempt
  /// rounds against the fault schedule: round 0 sends the whole batch to
  /// the primary (hedging stragglers against replicas[1] when
  /// configured), every later round re-sends only the still-failed keys to
  /// the next replica in the chain after the exponential backoff. Each
  /// round's wire request is metered into `m` (one per-node round trip,
  /// degrade-weighted busy, shipped bytes) and claims the target node's
  /// clock. Returns the absolute modeled instant the last key resolves
  /// (first success per key, timed-out / lost attempts detected at the
  /// timeout or the round trip); the caller SleepUntil()s it. (*ok)[i] is
  /// 1 when item i was served by some replica within the attempt budget,
  /// 0 when the key is unreachable. Fault counters (net_faults_injected /
  /// net_retries / net_timeouts / net_hedges / net_hedge_wins) are
  /// counted per key and never read the clock, so their totals are
  /// invariant under batch partitioning and completion interleaving — the
  /// cross-worker determinism contract. Under a quiet schedule and the
  /// default RecoveryOptions it plays one round, metered and clocked
  /// exactly as OnGetAt(replicas[0], items.size(), the items' summed
  /// bytes, m, call_now_ns).
  int64_t FetchWithRecoveryAt(const std::vector<int>& replicas,
                              const std::vector<BatchItem>& items,
                              const RecoveryOptions& recovery, QueryMetrics* m,
                              std::vector<uint8_t>* ok,
                              int64_t call_now_ns) const;

 private:
  /// Advances `node`'s next-free-time clock by `busy_ns` and returns the
  /// instant the node starts serving this request (>= now).
  int64_t ClaimNode(int node, int64_t busy_ns, int64_t now_ns) const;
  void Meter(int node, const Cost& cost, uint64_t bytes,
             QueryMetrics* m) const;

  std::vector<NetworkLinkOptions> links_;    // resolved per node
  std::vector<NodeFaultOptions> faults_;     // resolved per node
  uint64_t fault_seed_ = 0;
  bool faults_enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  /// Per-node next-free-time (ns since epoch_). Unique_ptr because
  /// atomics are not movable; one cache line each would be overkill for
  /// a simulator.
  std::unique_ptr<std::atomic<int64_t>[]> free_at_ns_;
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_NETWORK_MODEL_H_
