#include "storage/network_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/hash.h"

namespace zidian {

namespace {

/// Rounds a microsecond cost to integer nanoseconds. Integer metering is
/// load-bearing: sums of int64 are associative, so per-worker deltas
/// merged in any chunking produce bit-identical totals — the determinism
/// contract between ParallelMode::kSimulated and kThreads.
int64_t UsToNs(double us) {
  if (us <= 0) return 0;
  return static_cast<int64_t>(std::llround(us * 1000.0));
}

/// Maps a 64-bit hash to [0,1) with full double precision — the standard
/// 53-bit mantissa trick.
double UnitHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Domain-separation salts so phase, loss and (node, attempt) hashes never
// collide on the same input bytes.
constexpr uint64_t kPhaseSalt = 0xA5F152ED01C0FFEEull;
constexpr uint64_t kLossSalt = 0xD15EA5EDBADC0DE5ull;

}  // namespace

std::string RecoveryOptions::ToString() const {
  std::ostringstream os;
  os << "replication=" << std::max(1, replication_factor)
     << " max_attempts=" << std::max(1, max_attempts);
  if (backoff_base_us > 0) os << " backoff=" << backoff_base_us << "us";
  if (timeout_us > 0) os << " timeout=" << timeout_us << "us";
  if (hedge_after_us > 0) os << " hedge=" << hedge_after_us << "us";
  if (Default()) os << " (default)";
  return os.str();
}

NetworkModel::NetworkModel(NetworkOptions options, int num_nodes)
    : epoch_(std::chrono::steady_clock::now()) {
  links_.resize(static_cast<size_t>(std::max(1, num_nodes)), options.link);
  for (size_t i = 0; i < options.node_links.size() && i < links_.size(); ++i) {
    links_[i] = options.node_links[i];
  }
  faults_.resize(links_.size(), options.faults.fault);
  for (size_t i = 0;
       i < options.faults.node_faults.size() && i < faults_.size(); ++i) {
    faults_[i] = options.faults.node_faults[i];
  }
  fault_seed_ = options.faults.seed;
  for (const auto& f : faults_) faults_enabled_ |= !f.Quiet();
  free_at_ns_ =
      std::make_unique<std::atomic<int64_t>[]>(links_.size());
  for (size_t i = 0; i < links_.size(); ++i) free_at_ns_[i] = 0;
}

NetworkModel::Cost NetworkModel::RequestCost(int node, uint64_t keys,
                                             uint64_t bytes) const {
  const NetworkLinkOptions& l = links_[static_cast<size_t>(node)];
  double slot_us = l.service_rate > 0 ? 1e6 / l.service_rate : 0;
  double busy_us = slot_us + static_cast<double>(keys) * l.per_key_us +
                   static_cast<double>(bytes) * l.per_byte_us;
  Cost c;
  c.busy_ns = UsToNs(busy_us);
  c.latency_ns = UsToNs(l.rtt_us) + c.busy_ns;
  return c;
}

int64_t NetworkModel::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t NetworkModel::ClaimNode(int node, int64_t busy_ns,
                                int64_t now_ns) const {
  if (busy_ns <= 0) return now_ns;
  std::atomic<int64_t>& clock = free_at_ns_[static_cast<size_t>(node)];
  int64_t cur = clock.load(std::memory_order_relaxed);
  int64_t start, next;
  do {
    start = std::max(now_ns, cur);
    next = start + busy_ns;
  } while (!clock.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  return start;
}

void NetworkModel::Meter(int node, const Cost& cost, uint64_t bytes,
                         QueryMetrics* m) const {
  if (m == nullptr) return;
  size_t n = static_cast<size_t>(node);
  if (m->net_node_round_trips.size() < links_.size()) {
    m->net_node_round_trips.resize(links_.size(), 0);
    m->net_node_busy_ns.resize(links_.size(), 0);
  }
  m->net_node_round_trips[n] += 1;
  m->net_node_busy_ns[n] += static_cast<uint64_t>(cost.busy_ns);
  m->net_transfer_bytes += bytes;
  m->net_service_ns += static_cast<uint64_t>(cost.latency_ns);
}

void NetworkModel::SleepUntil(int64_t wake_ns) const {
  int64_t now = NowNs();
  if (wake_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake_ns - now));
  }
}

NetworkModel::AsyncCost NetworkModel::OnGetAt(int node, uint64_t keys,
                                              uint64_t bytes, QueryMetrics* m,
                                              int64_t now_ns) const {
  Cost cost = RequestCost(node, keys, bytes);
  Meter(node, cost, bytes, m);
  int64_t start = ClaimNode(node, cost.busy_ns, now_ns);
  return {start + cost.latency_ns, cost.latency_ns};
}

void NetworkModel::OnWrite(int node, uint64_t keys, uint64_t bytes,
                           QueryMetrics* m) const {
  Cost cost = RequestCost(node, keys, bytes);
  Meter(node, cost, bytes, m);
  // No stall — bulk loads must not crawl — but the node clock advances:
  // a write burst still delays the reads racing it.
  ClaimNode(node, cost.busy_ns, NowNs());
}

double NetworkModel::KeyPhase(std::string_view key) const {
  return UnitHash(Hash64(key, Mix64(fault_seed_ ^ kPhaseSalt)));
}

bool NetworkModel::NodeDownForKey(int node, std::string_view key) const {
  const NodeFaultOptions& f = faults_[static_cast<size_t>(node)];
  if (f.down_until <= f.down_from) return false;
  double phase = KeyPhase(key);
  return phase >= f.down_from && phase < f.down_until;
}

bool NetworkModel::AttemptLost(int node, std::string_view key,
                               uint32_t attempt) const {
  const NodeFaultOptions& f = faults_[static_cast<size_t>(node)];
  if (f.fail_probability <= 0) return false;
  uint64_t salt = Mix64(fault_seed_ ^ kLossSalt ^
                        (static_cast<uint64_t>(node) << 32) ^ attempt);
  return UnitHash(Hash64(key, salt)) < f.fail_probability;
}

double NetworkModel::KeyDegradeFactor(int node, std::string_view key) const {
  const NodeFaultOptions& f = faults_[static_cast<size_t>(node)];
  if (f.degraded_until <= f.degraded_from || f.degrade_factor <= 1) return 1;
  double phase = KeyPhase(key);
  if (phase >= f.degraded_from && phase < f.degraded_until) {
    return f.degrade_factor;
  }
  return 1;
}

int64_t NetworkModel::KeyLatencyEstimateNs(int node, std::string_view key,
                                           uint64_t bytes) const {
  const NetworkLinkOptions& l = links_[static_cast<size_t>(node)];
  double slot_us = l.service_rate > 0 ? 1e6 / l.service_rate : 0;
  double busy_us = KeyDegradeFactor(node, key) *
                   (slot_us + l.per_key_us +
                    static_cast<double>(bytes) * l.per_byte_us);
  return UsToNs(l.rtt_us) + UsToNs(busy_us);
}

int64_t NetworkModel::FetchWithRecoveryAt(const std::vector<int>& replicas,
                                          const std::vector<BatchItem>& items,
                                          const RecoveryOptions& recovery,
                                          QueryMetrics* m,
                                          std::vector<uint8_t>* ok,
                                          int64_t call_now_ns) const {
  ok->assign(items.size(), 0);
  if (items.empty() || replicas.empty()) return call_now_ns;
  const size_t chain = replicas.size();
  const int max_rounds = std::max(1, recovery.max_attempts);
  const int64_t timeout_ns = UsToNs(recovery.timeout_us);
  const int64_t hedge_ns = UsToNs(recovery.hedge_after_us);

  // Prices one wire request carrying `group` to `node`. A group with no
  // degraded key is RequestCost of its totals — OnGetAt's own arithmetic,
  // so a quiet schedule meters exactly what a plain get would. Otherwise
  // the slot is paid once (at the worst degrade factor in the group — a
  // degraded node serves its slot slower), each key its marginal
  // degrade-weighted cost.
  auto group_cost = [&](int node, const std::vector<uint32_t>& group,
                        uint64_t* group_bytes) {
    double max_factor = 1;
    uint64_t bytes = 0;
    for (uint32_t idx : group) {
      max_factor = std::max(max_factor, KeyDegradeFactor(node, items[idx].key));
      bytes += items[idx].bytes;
    }
    *group_bytes = bytes;
    if (max_factor == 1) return RequestCost(node, group.size(), bytes);
    const NetworkLinkOptions& l = links_[static_cast<size_t>(node)];
    double busy_us = 0;
    for (uint32_t idx : group) {
      const BatchItem& it = items[idx];
      busy_us += KeyDegradeFactor(node, it.key) *
                 (l.per_key_us + static_cast<double>(it.bytes) * l.per_byte_us);
    }
    busy_us += max_factor * (l.service_rate > 0 ? 1e6 / l.service_rate : 0);
    Cost c;
    c.busy_ns = UsToNs(busy_us);
    c.latency_ns = UsToNs(l.rtt_us) + c.busy_ns;
    return c;
  };

  // Sends `group` to `node` as one wire request: meter, claim the node's
  // clock, and report the modeled queue wait + completion (relative to
  // `start_ns` since the call began). Queue waits come from the shared
  // atomic node clocks, so they are scheduling-dependent — they feed ONLY
  // the final stall, never a counter or a verdict.
  auto send_request = [&](int node, const std::vector<uint32_t>& group,
                          int64_t call_now, int64_t start_ns,
                          int64_t* queue_wait) {
    uint64_t bytes = 0;
    Cost cost = group_cost(node, group, &bytes);
    Meter(node, cost, bytes, m);
    int64_t start = ClaimNode(node, cost.busy_ns, call_now + start_ns);
    *queue_wait = std::max<int64_t>(0, start - (call_now + start_ns));
    return start_ns + *queue_wait + cost.latency_ns;  // request completion
  };

  const int64_t call_now = call_now_ns;
  std::vector<uint32_t> pending(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    pending[i] = static_cast<uint32_t>(i);
  }

  int64_t round_start = 0;  // modeled ns since call start
  int64_t resolve_ns = 0;   // when the last key settles (the final stall)

  for (int round = 0; round < max_rounds && !pending.empty(); ++round) {
    const int node = replicas[static_cast<size_t>(round) % chain];
    if (round > 0) {
      // Exponential backoff before every retry round — a real modeled
      // wait, priced into net_service_ns like any other network time.
      int64_t backoff = UsToNs(recovery.backoff_base_us *
                               static_cast<double>(int64_t{1} << (round - 1)));
      round_start += backoff;
      if (m != nullptr) m->net_service_ns += static_cast<uint64_t>(backoff);
    }

    int64_t queue_wait = 0;
    int64_t req_done =
        send_request(node, pending, call_now, round_start, &queue_wait);

    // Per-key verdicts for this round. Hedge candidates are collected
    // first (the decision is pure: primary estimate above the hedge
    // delay), then priced as one wire request to the first replica.
    const bool hedge_round = round == 0 && hedge_ns > 0 && chain > 1;
    const uint32_t attempt = static_cast<uint32_t>(round) + 1;
    std::vector<uint32_t> still;     // unresolved after this round
    std::vector<uint32_t> hedged;    // racing the replica
    int64_t detect_ns = 0;           // when this round's failures surface
    for (uint32_t idx : pending) {
      const BatchItem& it = items[idx];
      if (m != nullptr && round > 0) m->net_retries += 1;
      const bool down = NodeDownForKey(node, it.key);
      const bool lost = !down && AttemptLost(node, it.key, attempt);
      const int64_t est = KeyLatencyEstimateNs(node, it.key, it.bytes);
      const bool slow = timeout_ns > 0 && est > timeout_ns;
      if (m != nullptr && (down || lost)) m->net_faults_injected += 1;
      if (m != nullptr && slow && !down && !lost) m->net_timeouts += 1;
      const bool failed = down || lost || slow;
      if (hedge_round && est > hedge_ns) {
        if (m != nullptr) m->net_hedges += 1;
        hedged.push_back(idx);
        continue;  // settled against the hedge request below
      }
      if (!failed) {
        (*ok)[idx] = 1;
        resolve_ns = std::max(resolve_ns, req_done);
        continue;
      }
      // Failure detection: a timed-out or lost attempt surfaces at the
      // timeout when one is configured, otherwise after the round trip
      // (an error response still crosses the wire).
      int64_t detect =
          timeout_ns > 0
              ? round_start + timeout_ns
              : round_start + queue_wait + UsToNs(link(node).rtt_us);
      detect_ns = std::max(detect_ns, detect);
      still.push_back(idx);
    }

    if (!hedged.empty()) {
      const int hedge_node = replicas[1];
      int64_t hedge_queue = 0;
      int64_t hedge_req_done = send_request(hedge_node, hedged, call_now,
                                            round_start + hedge_ns,
                                            &hedge_queue);
      for (uint32_t idx : hedged) {
        const BatchItem& it = items[idx];
        // The primary attempt's verdict, re-derived (pure, same inputs).
        const bool p_down = NodeDownForKey(node, it.key);
        const bool p_lost = !p_down && AttemptLost(node, it.key, attempt);
        const int64_t p_est = KeyLatencyEstimateNs(node, it.key, it.bytes);
        const bool p_ok =
            !p_down && !p_lost && !(timeout_ns > 0 && p_est > timeout_ns);
        // The hedge attempt rolls its own loss (salted attempt id so it
        // never mirrors a retry round on the same replica).
        const bool h_down = NodeDownForKey(hedge_node, it.key);
        const bool h_lost =
            !h_down && AttemptLost(hedge_node, it.key, attempt | 0x40000000u);
        const int64_t h_est =
            KeyLatencyEstimateNs(hedge_node, it.key, it.bytes);
        const bool h_ok =
            !h_down && !h_lost && !(timeout_ns > 0 && h_est > timeout_ns);
        if (m != nullptr && (h_down || h_lost)) m->net_faults_injected += 1;
        if (m != nullptr && timeout_ns > 0 && h_est > timeout_ns && !h_down &&
            !h_lost) {
          m->net_timeouts += 1;
        }
        // First success wins. The comparison uses the pure estimates
        // (never queue waits), so net_hedge_wins is deterministic.
        if (h_ok && (!p_ok || hedge_ns + h_est < p_est)) {
          if (m != nullptr) m->net_hedge_wins += 1;
          (*ok)[idx] = 1;
          resolve_ns = std::max(resolve_ns, hedge_req_done);
        } else if (p_ok) {
          (*ok)[idx] = 1;
          resolve_ns = std::max(resolve_ns, req_done);
        } else {
          // Both raced attempts failed: the key joins the retry rounds.
          int64_t detect =
              timeout_ns > 0
                  ? round_start + timeout_ns
                  : std::max(req_done, hedge_req_done);
          detect_ns = std::max(detect_ns, detect);
          still.push_back(idx);
        }
      }
    }

    pending = std::move(still);
    if (!pending.empty()) round_start = std::max(round_start, detect_ns);
  }

  // Exhausted keys settle when their last failure was detected.
  if (!pending.empty()) resolve_ns = std::max(resolve_ns, round_start);

  return call_now + resolve_ns;
}

std::string NetworkModel::FaultText() const {
  if (!faults_enabled_) return "off";
  std::ostringstream os;
  os << "seed=" << fault_seed_;
  auto describe = [&](const NodeFaultOptions& f) {
    if (f.fail_probability > 0) os << " p=" << f.fail_probability;
    if (f.down_until > f.down_from) {
      os << " down=[" << f.down_from << "," << f.down_until << ")";
    }
    if (f.degraded_until > f.degraded_from && f.degrade_factor > 1) {
      os << " degrade=" << f.degrade_factor << "x[" << f.degraded_from << ","
         << f.degraded_until << ")";
    }
  };
  bool uniform = true;
  for (const auto& f : faults_) {
    uniform &= f.fail_probability == faults_[0].fail_probability &&
               f.down_from == faults_[0].down_from &&
               f.down_until == faults_[0].down_until &&
               f.degraded_from == faults_[0].degraded_from &&
               f.degraded_until == faults_[0].degraded_until &&
               f.degrade_factor == faults_[0].degrade_factor;
  }
  if (uniform) {
    os << "; all nodes:";
    describe(faults_[0]);
  } else {
    for (size_t i = 0; i < faults_.size(); ++i) {
      if (faults_[i].Quiet()) continue;
      os << "; node" << i << ":";
      describe(faults_[i]);
    }
  }
  return os.str();
}

std::string NetworkModel::ToString() const {
  std::ostringstream os;
  const NetworkLinkOptions& d = links_[0];
  bool uniform = true;
  for (const auto& l : links_) {
    uniform &= l.rtt_us == d.rtt_us && l.per_key_us == d.per_key_us &&
               l.per_byte_us == d.per_byte_us &&
               l.service_rate == d.service_rate;
  }
  os << links_.size() << " nodes, "
     << (uniform ? "uniform" : "non-uniform");
  os << "; link[0]: rtt=" << d.rtt_us << "us per_key=" << d.per_key_us
     << "us per_byte=" << d.per_byte_us << "us";
  if (d.service_rate > 0) os << " service_rate=" << d.service_rate << "/s";
  if (!uniform) {
    double lo = links_[0].rtt_us, hi = links_[0].rtt_us;
    for (const auto& l : links_) {
      lo = std::min(lo, l.rtt_us);
      hi = std::max(hi, l.rtt_us);
    }
    os << "; rtt range [" << lo << ", " << hi << "]us";
  }
  return os.str();
}

}  // namespace zidian
