// In-memory span tracing for the benchmark's traced runs, plus the timing
// KvBackend decorator that puts the storage layer on the same timeline.
//
// Spans are recorded only around calls the benchmark itself makes into a
// layer (and around backend calls, through the decorator the benchmark
// installs with ClusterOptions::backend_factory); the program is not
// instrumented. Every span carries the op it belongs to and its parent.
// Each thread appends to its own buffer, so recording takes no lock; the
// buffers are read once the run is quiescent. Every workload executes a
// query on the thread that opened its op span (default ExecOptions), so
// each backend call finds its parent on its own thread.
//
// Iterator work is too fine-grained for one span per call: its time is
// charged to the enclosing span as unspanned child time and reported as
// its own row of the layer table.
#ifndef ZIDIAN_PERF_TRACE_H_
#define ZIDIAN_PERF_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/kv_backend.h"

namespace perf {

int64_t NowNs();

enum class SpanKind : uint8_t {
  kOp,         ///< one benchmark op, from its first call to its result
  kParseBind,  ///< sql: ParseAndBind
  kPrepare,    ///< zidian: Connection::PrepareSpec (M1 + M2)
  kExecute,    ///< kba: PreparedQuery::Execute
  kUpdate,     ///< baav: Zidian::Delete + Zidian::Insert
  kGet,        ///< storage: KvBackend::Get
  kMultiGet,   ///< storage: KvBackend::MultiGet
  kPut,        ///< storage: KvBackend::Put
  kDelete,     ///< storage: KvBackend::Delete
  kDecode,     ///< baav: DecodeBlock in the codec replay
  kEncode,     ///< baav: EncodeBlock in the codec replay
  kCount,
};
const char* SpanName(SpanKind kind);
const char* SpanLayer(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = a root span
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t unspanned_child_ns = 0;  ///< iterator time charged to this span
  uint32_t tid = 0;
  SpanKind kind = SpanKind::kOp;
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static uint64_t NewOpId();
  /// Opens a span on the calling thread; the parent is the thread's
  /// innermost open span, else none. `op` 0 inherits the parent's op.
  /// No-op (returns 0) while tracing is off.
  static uint64_t Begin(SpanKind kind, uint64_t op = 0);
  /// Closes the calling thread's innermost open span.
  static void End();
  /// Drops any spans the calling thread left open (an op that failed
  /// between its Begin and End).
  static void ResetThread();
  /// Charges unspanned backend time to the innermost open span.
  static void ChargeUnspanned(int64_t ns);
  /// Every recorded span of every thread. Call only while quiescent.
  static std::vector<Span> Collect();

 private:
  static std::atomic<bool> enabled_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t op = 0)
      : open_(Tracer::Begin(kind, op) != 0) {}
  ~ScopedSpan() {
    if (open_) Tracer::End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool open_;
};

/// Whole-run backend tallies, summed across nodes and threads.
struct BackendCounters {
  std::atomic<uint64_t> calls{0};       ///< Get/MultiGet/Put/Delete/Seek
  std::atomic<uint64_t> busy_ns{0};     ///< time inside the backend
  std::atomic<uint64_t> scan_pairs{0};  ///< iterator advances
  std::atomic<uint64_t> scan_ns{0};     ///< part of busy_ns spent iterating
  void Reset() {
    calls = 0;
    busy_ns = 0;
    scan_pairs = 0;
    scan_ns = 0;
  }
};

/// A KvBackend decorator: forwards every call to `inner`; while tracing is
/// on it also times the call, records a span and updates `counters`.
std::unique_ptr<zidian::KvBackend> MakeTimedBackend(
    std::unique_ptr<zidian::KvBackend> inner, BackendCounters* counters);

/// Per span kind: how many, total duration and self time (duration minus
/// child spans and unspanned child time, floored at zero per span).
struct LayerRow {
  uint64_t count = 0;
  double busy_ms = 0;
  double self_ms = 0;
};
std::vector<LayerRow> LayerTable(const std::vector<Span>& spans);

/// Spans whose parent is missing or whose interval is not inside the
/// parent's interval.
uint64_t NestingViolations(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (at most `max_events`).
bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_events,
                      const std::string& path);

}  // namespace perf

#endif  // ZIDIAN_PERF_TRACE_H_
