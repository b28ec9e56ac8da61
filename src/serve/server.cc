// The serving layer is one of the sanctioned wall-clock sites
// (tools/lint_invariants.py): arrival pacing and wall latency are what a
// server measures, by design. Nothing read from the clock here feeds any
// QueryMetrics counter — latency lands in LatencyRecorder, throughput in
// ServeResult::wall_seconds, both documented as nondeterministic.
#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "zidian/zidian.h"

namespace zidian {
namespace serve {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  int64_t delta = deadline_ns - NowNs();
  if (delta > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(delta));
}

}  // namespace

AdmissionQueue::AdmissionQueue(size_t depth) : depth_(std::max<size_t>(1, depth)) {}

bool AdmissionQueue::TryPush(const AdmittedOp& item) {
  {
    MutexLock lock(mu_);
    if (closed_ || queue_.size() >= depth_) return false;
    queue_.push_back(item);
  }
  can_pop_.NotifyOne();
  return true;
}

bool AdmissionQueue::Pop(AdmittedOp* out) {
  MutexLock lock(mu_);
  while (!closed_ && queue_.empty()) can_pop_.Wait(mu_);
  if (queue_.empty()) return false;  // closed and drained
  *out = queue_.front();
  queue_.pop_front();
  return true;
}

void AdmissionQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  can_pop_.NotifyAll();
}

ClosedLoopFeed::ClosedLoopFeed(const std::vector<ServeOp>& feed, size_t depth,
                               int64_t epoch_ns)
    : feed_(feed),
      depth_(std::max<size_t>(1, depth)),
      epoch_ns_(epoch_ns),
      admitted_(feed.size(), 0) {}

bool ClosedLoopFeed::Pop(AdmittedOp* out) {
  MutexLock lock(mu_);
  if (next_ == feed_.size()) return false;
  const size_t i = next_++;
  *out = AdmittedOp{feed_[i], admitted_[i]};
  // Taking op i frees the queue slot op i + depth would have entered.
  if (i + depth_ < feed_.size()) admitted_[i + depth_] = NowNs() - epoch_ns_;
  return true;
}

Server::Server(Zidian* zidian, ServeOptions options)
    : zidian_(zidian), options_(std::move(options)) {}

void Server::SessionLoop(const std::function<bool(AdmittedOp*)>& next,
                         int64_t epoch_ns, SessionStats* stats) {
  // One Connection per session, with a prepared-statement cache keyed by
  // rendered SQL: under Zipfian skew the hot keys' statements prepare
  // once and execute many times, exactly the Prepare-once contract the
  // Connection API exists for.
  Connection conn = zidian_->Connect();
  std::unordered_map<std::string, PreparedQuery> statements;

  AdmittedOp item;
  while (next(&item)) {
    const ServeTemplate& t =
        options_.load.mix[static_cast<size_t>(item.op.template_idx)];
    bool ok = false;
    if (t.is_write()) {
      // The template stages its mutations: their reads may overlap read
      // queries, and no write is in flight, since only the holder of
      // writer_mu_ commits. The commit takes the Cluster's storage gate
      // exclusive for its writes alone. A failed template commits
      // nothing.
      MutexLock writer(writer_mu_);
      ++writes_admitted_;
      Zidian::WriteBatch batch(zidian_);
      Status write_status = t.write(*zidian_, item.op);
      if (write_status.ok()) write_status = batch.Commit();
      ok = write_status.ok();
      // A failed maintenance write is a failed query, not a silent no-op:
      // the backend Status now propagates here (through Cluster::Put /
      // Delete and the BaaV paths) and lands in the availability columns.
      if (!ok) stats->metrics.failed_queries += 1;
    } else {
      std::string sql = t.sql(item.op.key);
      auto found = statements.find(sql);
      if (found == statements.end()) {
        // Planning reads the store's degree statistics under their own
        // lock; a commit that moves one later leaves a correct plan.
        auto prepared = conn.Prepare(sql);
        if (prepared.ok()) {
          found = statements.emplace(sql, std::move(*prepared)).first;
        }
      }
      if (found != statements.end()) {
        AnswerInfo info;
        auto rows = found->second.Execute(options_.exec, &info);
        // Merged for failures too: a query that exhausted its retries
        // carries the retry/hedge/timeout traffic it paid plus the
        // failed_queries count — exactly what the availability columns
        // report. (No partial rows escape: on_result fires only on ok.)
        stats->metrics += info.metrics;
        if (rows.ok()) {
          ok = true;
          if (options_.on_result) options_.on_result(item.op, *rows, info);
        }
      } else {
        // The statement never prepared (planning failed): count it.
        stats->metrics.failed_queries += 1;
      }
    }
    if (ok) {
      // Open-loop latency: completion minus *scheduled* arrival, so time
      // spent queued (or waiting behind a backlog) counts — the tail a
      // closed-loop harness would silently omit.
      stats->latency.Record(NowNs() - epoch_ns - item.arrival_ns);
      stats->completed++;
    } else {
      stats->failed++;
    }
  }
}

Result<ServeResult> Server::Run() {
  if (options_.load.mix.empty()) {
    return Status::InvalidArgument("serve: empty query mix");
  }
  if (options_.exec.bypass_cache) {
    return Status::InvalidArgument(
        "serve: bypass_cache toggles cluster-global state and is not "
        "multi-session safe");
  }
  int sessions = std::max(1, options_.sessions);
  if (options_.load.streams <= 0) options_.load.streams = sessions;
  std::vector<ServeOp> feed = GenerateFeed(options_.load);
  if (feed.empty()) {
    return Status::InvalidArgument("serve: the load generator produced no "
                                   "ops (zero weights or ops_per_stream?)");
  }
  const bool open_loop = options_.load.offered_load > 0;

  ServeResult result;
  result.offered = feed.size();
  result.per_session.resize(static_cast<size_t>(sessions));

  AdmissionQueue queue(options_.queue_depth);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(sessions));
  const int64_t epoch_ns = NowNs();
  ClosedLoopFeed closed_loop(feed, options_.queue_depth, epoch_ns);
  std::function<bool(AdmittedOp*)> next;
  if (open_loop) {
    next = [&queue](AdmittedOp* out) { return queue.Pop(out); };
  } else {
    next = [&closed_loop](AdmittedOp* out) { return closed_loop.Pop(out); };
  }
  for (int s = 0; s < sessions; ++s) {
    SessionStats* stats = &result.per_session[static_cast<size_t>(s)];
    threads.emplace_back(
        [this, &next, epoch_ns, stats] { SessionLoop(next, epoch_ns, stats); });
  }

  // Open loop: the generator runs on the calling thread, releases each op
  // at its scheduled arrival and counts a rejection when the bounded
  // queue is full — offered load the server did not absorb. Saturation:
  // the sessions drain the ClosedLoopFeed by themselves.
  if (open_loop) {
    for (const ServeOp& op : feed) {
      SleepUntilNs(epoch_ns + op.arrival_ns);
      if (!queue.TryPush(AdmittedOp{op, op.arrival_ns})) result.rejected++;
    }
  }
  queue.Close();
  for (auto& t : threads) t.join();
  result.wall_seconds = double(NowNs() - epoch_ns) / 1e9;

  for (const SessionStats& s : result.per_session) {
    result.completed += s.completed;
    result.failed += s.failed;
    result.latency.Merge(s.latency);
    result.metrics += s.metrics;
  }
  // The session threads have joined; the lock is for the capability
  // contract, not for contention.
  MutexLock writer(writer_mu_);
  result.writes_admitted = writes_admitted_;
  return result;
}

}  // namespace serve
}  // namespace zidian
