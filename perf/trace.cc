#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perf {

namespace {

struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<Span> spans;
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;
std::atomic<uint32_t> g_next_tid{1};
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_op{1};

struct ThreadState {
  ThreadState() : buffer(std::make_shared<ThreadBuffer>()) {
    buffer->tid = g_next_tid.fetch_add(1);
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(buffer);
  }
  std::shared_ptr<ThreadBuffer> buffer;
  std::vector<Span> open;  // innermost last
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

constexpr const char* kNames[] = {
    "op",         "sql.parse_bind", "zidian.prepare", "kba.execute",
    "baav.update", "storage.get",   "storage.multiget", "storage.put",
    "storage.delete", "baav.decode", "baav.encode"};
constexpr const char* kLayers[] = {"op",      "sql",     "zidian",  "kba",
                                   "baav",    "storage", "storage", "storage",
                                   "storage", "baav",    "baav"};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<size_t>(SpanKind::kCount));
static_assert(sizeof(kLayers) / sizeof(kLayers[0]) ==
              static_cast<size_t>(SpanKind::kCount));

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) { return kNames[static_cast<int>(kind)]; }
const char* SpanLayer(SpanKind kind) { return kLayers[static_cast<int>(kind)]; }

void Tracer::Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

uint64_t Tracer::NewOpId() { return g_next_op.fetch_add(1); }

uint64_t Tracer::Begin(SpanKind kind, uint64_t op) {
  if (!enabled()) return 0;
  ThreadState& st = State();
  Span s;
  s.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  s.kind = kind;
  s.tid = st.buffer->tid;
  if (!st.open.empty()) {
    s.parent = st.open.back().id;
    s.op = st.open.back().op;
  }
  if (op != 0) s.op = op;
  s.start_ns = NowNs();
  st.open.push_back(s);
  return s.id;
}

void Tracer::End() {
  ThreadState& st = State();
  if (st.open.empty()) return;
  Span s = st.open.back();
  st.open.pop_back();
  s.end_ns = NowNs();
  st.buffer->spans.push_back(s);
}

void Tracer::ResetThread() { State().open.clear(); }

void Tracer::ChargeUnspanned(int64_t ns) {
  ThreadState& st = State();
  if (!st.open.empty()) st.open.back().unspanned_child_ns += ns;
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

// ------------------------------------------------------- timed backend ---

namespace {

using zidian::KvBackend;
using zidian::KvIterator;
using zidian::Result;
using zidian::Status;

class TimedIterator : public KvIterator {
 public:
  TimedIterator(std::unique_ptr<KvIterator> inner, BackendCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void Seek(std::string_view target) override {
    Timed(false, [&] { inner_->Seek(target); });
  }
  void SeekToFirst() override {
    Timed(false, [&] { inner_->SeekToFirst(); });
  }
  bool Valid() const override { return inner_->Valid(); }
  void Next() override {
    Timed(true, [&] { inner_->Next(); });
  }
  std::string_view key() const override { return inner_->key(); }
  std::string_view value() const override { return inner_->value(); }

 private:
  template <typename Fn>
  void Timed(bool advance, Fn&& fn) {
    if (!Tracer::enabled()) {
      fn();
      return;
    }
    int64_t start = NowNs();
    fn();
    int64_t ns = NowNs() - start;
    if (advance) {
      counters_->scan_pairs.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_->calls.fetch_add(1, std::memory_order_relaxed);
    }
    counters_->busy_ns.fetch_add(static_cast<uint64_t>(ns),
                                 std::memory_order_relaxed);
    counters_->scan_ns.fetch_add(static_cast<uint64_t>(ns),
                                 std::memory_order_relaxed);
    Tracer::ChargeUnspanned(ns);
  }

  std::unique_ptr<KvIterator> inner_;
  BackendCounters* counters_;
};

class TimedBackend : public KvBackend {
 private:
  // Defined before its callers: they deduce its return type.
  template <typename Fn>
  auto Timed(SpanKind kind, Fn&& fn) const {
    if (!Tracer::enabled()) return fn();
    ScopedSpan span(kind);
    int64_t start = NowNs();
    auto result = fn();
    int64_t ns = NowNs() - start;
    counters_->calls.fetch_add(1, std::memory_order_relaxed);
    counters_->busy_ns.fetch_add(static_cast<uint64_t>(ns),
                                 std::memory_order_relaxed);
    return result;
  }

 public:
  TimedBackend(std::unique_ptr<KvBackend> inner, BackendCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  std::string_view name() const override { return inner_->name(); }
  Status Put(std::string_view key, std::string_view value) override {
    return Timed(SpanKind::kPut, [&] { return inner_->Put(key, value); });
  }
  Status Delete(std::string_view key) override {
    return Timed(SpanKind::kDelete, [&] { return inner_->Delete(key); });
  }
  Result<std::string> Get(std::string_view key) const override {
    return Timed(SpanKind::kGet, [&] { return inner_->Get(key); });
  }
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override {
    Timed(SpanKind::kMultiGet, [&] {
      inner_->MultiGet(keys, out);
      return 0;
    });
  }
  std::unique_ptr<KvIterator> NewIterator() const override {
    return std::make_unique<TimedIterator>(inner_->NewIterator(), counters_);
  }
  void Flush() override { inner_->Flush(); }
  void Compact() override { inner_->Compact(); }
  void Clear() override { inner_->Clear(); }
  Status SaveToFile(const std::string& path) const override {
    return inner_->SaveToFile(path);
  }
  Status LoadFromFile(const std::string& path) override {
    return inner_->LoadFromFile(path);
  }
  size_t ApproximateBytes() const override {
    return inner_->ApproximateBytes();
  }
  size_t NumLiveEntries() const override { return inner_->NumLiveEntries(); }

 private:
  std::unique_ptr<KvBackend> inner_;
  BackendCounters* counters_;
};

}  // namespace

std::unique_ptr<KvBackend> MakeTimedBackend(std::unique_ptr<KvBackend> inner,
                                            BackendCounters* counters) {
  return std::make_unique<TimedBackend>(std::move(inner), counters);
}

// ------------------------------------------------------------ analysis ---

std::vector<LayerRow> LayerTable(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  child_ns.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<LayerRow> rows(static_cast<size_t>(SpanKind::kCount));
  for (const Span& s : spans) {
    int64_t dur = s.end_ns - s.start_ns;
    auto found = child_ns.find(s.id);
    int64_t children = found == child_ns.end() ? 0 : found->second;
    int64_t self = std::max<int64_t>(0, dur - children - s.unspanned_child_ns);
    LayerRow& row = rows[static_cast<size_t>(s.kind)];
    row.count += 1;
    row.busy_ms += double(dur) / 1e6;
    row.self_ms += double(self) / 1e6;
  }
  return rows;
}

uint64_t NestingViolations(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id[s.id] = &s;
  uint64_t bad = 0;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) ++bad;
    if (s.parent == 0) continue;
    auto found = by_id.find(s.parent);
    if (found == by_id.end()) {
      ++bad;
      continue;
    }
    const Span& p = *found->second;
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op) ++bad;
  }
  return bad;
}

bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_events,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) epoch = std::min(epoch, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  size_t n = std::min(max_events, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}%s\n",
                 SpanName(s.kind), SpanLayer(s.kind), s.tid,
                 double(s.start_ns - epoch) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perf
