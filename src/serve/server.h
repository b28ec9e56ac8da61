// The multi-session serving front end: N session threads, each holding
// its own Connection (with a prepared-statement cache) against ONE shared
// Zidian/Cluster/BlockCache, fed by an open-loop load generator through a
// bounded admission queue. This is the "millions of users" harness: it
// turns the single-query facade into a server and reports throughput next
// to p50/p95/p99/p999 wall latency as offered load rises.
//
// Shape of one run (Server::Run):
//
//   GenerateFeed(load)         deterministic per-stream schedules
//        |                     (serve/load_generator.h)
//        v
//   [admission queue]          bounded; open-loop arrivals that find it
//        |                     full are REJECTED and counted — offered
//        |                     load the server did not absorb. Saturation
//        |                     mode: a ClosedLoopFeed the sessions take
//        |                     ops from directly, queue_depth ahead
//        v
//   session 0..N-1             one thread + Connection + statement cache
//        |                     + LatencyRecorder + QueryMetrics each
//        v
//   ServeResult                merged after the join: throughput,
//                              rejected/failed counts, latency
//                              percentiles, summed QueryMetrics
//
// Concurrency contract (docs/ARCHITECTURE.md "Serving layer"):
//  * Read queries run concurrently and take no server lock: each Prepare
//    and Execute meters into its own AnswerInfo, so per-query
//    QueryMetrics stay isolated however sessions interleave on the
//    shared BlockCache. The Cluster's storage gate is the only lock a
//    read takes, and only while it touches storage, never across a
//    modeled stall.
//  * Write templates run one at a time, serialised on `writer_mu_`, each
//    inside a Zidian::WriteBatch: the template only stages its mutations,
//    and their maintenance reads run alongside read queries. The batch's
//    Commit() is one Cluster::Write under the storage gate's exclusive
//    side, so it waits only for storage accesses in flight. A read whose
//    storage accesses straddle a commit runs again (PreparedQuery::
//    Execute), so a reader sees every template wholly applied or not at
//    all; one that straddles commits on every attempt fails after
//    PreparedQuery::kMaxReadRestarts restarts and counts as failed. A
//    plan prepared before a commit that moved a degree is still a
//    correct plan.
//  * Latency is recorded per session and merged after the session
//    threads join; nothing is shared while hot (latency_recorder.h).
#ifndef ZIDIAN_SERVE_SERVER_H_
#define ZIDIAN_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "relational/relation.h"
#include "serve/latency_recorder.h"
#include "serve/load_generator.h"
#include "zidian/connection.h"

namespace zidian {
namespace serve {

/// An admitted operation: the scheduled op plus its effective arrival
/// instant (ns from the run epoch) — the latency baseline, which
/// deliberately includes any time spent waiting in the admission queue.
struct AdmittedOp {
  ServeOp op;
  int64_t arrival_ns = 0;
};

/// Bounded MPMC admission queue between the open-loop load generator and
/// the session threads: a full queue rejects the arrival (the caller
/// counts it and drops the op).
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t depth);

  /// Enqueues unless the queue is at depth or closed; returns whether
  /// the op was admitted.
  bool TryPush(const AdmittedOp& item) EXCLUDES(mu_);
  /// Blocks for the next op; returns false once the queue is closed AND
  /// drained (the session-thread exit signal).
  bool Pop(AdmittedOp* out) EXCLUDES(mu_);
  /// No further pushes; pending ops still drain.
  void Close() EXCLUDES(mu_);

 private:
  const size_t depth_;
  Mutex mu_;
  CondVar can_pop_;
  std::deque<AdmittedOp> queue_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

/// The saturation (closed-loop) feed: sessions take the schedule's ops in
/// order straight from the schedule, each stamped with the instant a
/// bounded queue of `depth` would have admitted it — when the op `depth`
/// places ahead of it was taken (run start for the first `depth` ops).
/// No generator thread stands between one op and the next, so its
/// wake-up latency never idles a session.
class ClosedLoopFeed {
 public:
  ClosedLoopFeed(const std::vector<ServeOp>& feed, size_t depth,
                 int64_t epoch_ns);

  /// The next op and its admission instant (ns from `epoch_ns`); false
  /// once every op was taken.
  bool Pop(AdmittedOp* out) EXCLUDES(mu_);

 private:
  const std::vector<ServeOp>& feed_;
  const size_t depth_;
  const int64_t epoch_ns_;
  Mutex mu_;
  size_t next_ GUARDED_BY(mu_) = 0;
  /// Admission instant of each op, written when the op `depth_` places
  /// ahead of it is taken.
  std::vector<int64_t> admitted_ GUARDED_BY(mu_);
};

struct ServeOptions {
  /// Session (executor) threads, each with its own Connection.
  int sessions = 4;
  /// Admission-queue depth: how much backlog the server absorbs before
  /// rejecting open-loop arrivals. In saturation mode, the backlog the
  /// closed loop keeps in front of the sessions (ClosedLoopFeed).
  size_t queue_depth = 64;
  LoadOptions load;
  /// Execution options applied to every read query (workers,
  /// parallel_mode, pool, ...). bypass_cache must stay false — it
  /// toggles cluster-global state and is rejected by Run().
  ExecOptions exec;
  /// Optional per-result hook, called from session threads (synchronize
  /// anything it touches): the concurrency test battery uses it to check
  /// every query's rows and counters against a serial baseline.
  std::function<void(const ServeOp& op, const Relation& rows,
                     const AnswerInfo& info)>
      on_result;
};

/// Per-session tallies, merged into ServeResult after the join.
struct SessionStats {
  uint64_t completed = 0;
  uint64_t failed = 0;
  LatencyRecorder latency;  ///< completed ops only
  QueryMetrics metrics;     ///< summed over completed read queries
};

struct ServeResult {
  uint64_t offered = 0;   ///< ops the generator scheduled
  uint64_t rejected = 0;  ///< open-loop arrivals that found the queue full
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t writes_admitted = 0;  ///< write templates run
  double wall_seconds = 0;       ///< generator start -> last session joined
  LatencyRecorder latency;       ///< merged across sessions
  QueryMetrics metrics;          ///< merged across sessions
  std::vector<SessionStats> per_session;

  double Throughput() const {
    return wall_seconds > 0 ? double(completed) / wall_seconds : 0;
  }
};

class Server {
 public:
  /// The Zidian (and the Cluster behind it) must outlive the Server and
  /// is shared by every session — that sharing is the point.
  Server(Zidian* zidian, ServeOptions options);

  /// Runs one complete serving experiment: spawns the session threads,
  /// feeds them the generated schedule (paced through the admission
  /// queue in open-loop mode, through a ClosedLoopFeed in saturation
  /// mode), joins, and merges the per-session tallies. Synchronous; safe
  /// to call repeatedly (each run is independent, though the shared
  /// BlockCache stays warm across runs — warm-up runs exploit exactly
  /// that).
  Result<ServeResult> Run() EXCLUDES(writer_mu_);

 private:
  /// Serves ops from `next` until it returns false.
  void SessionLoop(const std::function<bool(AdmittedOp*)>& next,
                   int64_t epoch_ns, SessionStats* stats)
      EXCLUDES(writer_mu_);

  Zidian* zidian_;
  ServeOptions options_;
  /// Serialises write templates: held across a template and its commit,
  /// so one write batch is open at a time and no other write can land
  /// between a batch's reads and its commit. Reads never take it.
  Mutex writer_mu_;
  uint64_t writes_admitted_ GUARDED_BY(writer_mu_) = 0;
};

}  // namespace serve
}  // namespace zidian

#endif  // ZIDIAN_SERVE_SERVER_H_
