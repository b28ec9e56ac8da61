#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "baav/block.h"
#include "common/rng.h"
#include "serve/server.h"
#include "sql/binder.h"
#include "storage/backend.h"
#include "storage/lsm_store.h"
#include "trace.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace perf {

namespace {

using zidian::AnswerInfo;
using zidian::Cluster;
using zidian::ClusterOptions;
using zidian::Connection;
using zidian::ExecOptions;
using zidian::QueryMetrics;
using zidian::Relation;
using zidian::Result;
using zidian::Status;
using zidian::Tuple;
using zidian::Value;
using zidian::Workload;
using zidian::Zidian;

// ---------------------------------------------------------------- stats ---

/// Linear interpolation between order statistics (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ms(int64_t ns) { return double(ns) / 1e6; }

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return double(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         double(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return double(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return zidian::Rng(seed * 0x9E3779B97F4A7C15ull + salt).Next();
}

/// Per-class latency samples (ms).
struct Latencies {
  std::vector<std::vector<double>> ms;

  explicit Latencies(size_t classes = 0) : ms(classes) {}
  void Add(size_t cls, double v) { ms[cls].push_back(v); }
  double Mean() const {
    double sum = 0;
    size_t n = 0;
    for (const auto& c : ms) {
      for (double v : c) sum += v;
      n += c.size();
    }
    return n == 0 ? 0 : sum / double(n);
  }
  /// Geometric mean over the classes of each class's median (or mean).
  double Geomean(bool of_means) const {
    double log_sum = 0;
    int n = 0;
    for (const auto& c : ms) {
      if (c.empty()) continue;
      double typical = Median(c);
      if (of_means) {
        double sum = 0;
        for (double v : c) sum += v;
        typical = sum / double(c.size());
      }
      log_sum += std::log(typical);
      ++n;
    }
    return n == 0 ? 0 : std::exp(log_sum / n);
  }
};

/// Sums over completed reads.
struct ReadTotals {
  uint64_t reads = 0;
  uint64_t kba = 0;  ///< reads answered on a KBA route
  double sim_s = 0;  ///< SimSeconds under SoH(), summed per query
  QueryMetrics m;

  void Add(const AnswerInfo& info) {
    reads += 1;
    if (info.route != AnswerInfo::Route::kTaavFallback) kba += 1;
    sim_s += zidian::SimSeconds(info.metrics, zidian::SoH());
    m += info.metrics;
  }
  double PerRead(double total) const {
    return reads == 0 ? 0 : total / double(reads);
  }
};

/// Completion instant (ns since the phase began) and latency of every op
/// of a single-client phase.
struct Timeline {
  std::vector<int64_t> end_ns;
  std::vector<double> ms;
  void Add(int64_t end, double latency_ms) {
    end_ns.push_back(end);
    ms.push_back(latency_ms);
  }
};

/// One measured phase.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  /// Per-class time from the op's first call into the program to its
  /// result. On the single-client workload this is the op's latency.
  Latencies service;
  /// End-to-end latency percentiles over all completed ops.
  double p50_ms = 0, p99_ms = 0, mean_ms = 0;
  ReadTotals reads;
  uint64_t writes = 0;
  double update_s = 0;   ///< Zidian::Delete + Insert, summed
  double parse_s = 0;    ///< ParseAndBind, summed
  double prepare_s = 0;  ///< Connection::PrepareSpec, summed
  uint64_t prepares = 0;
  /// Served reads: seconds from template render to the start of Execute,
  /// summed, and the number of reads, split by whether the session's
  /// statement cache held the statement ([0]) or the read paid a Prepare
  /// ([1]). Both wait for the shared side of the server's write gate.
  double before_execute_s[2] = {0, 0};
  uint64_t before_execute_n[2] = {0, 0};
  Timeline timeline;
  /// Completed ops per second of each whole window of a fixed op count.
  std::vector<double> window_ops_s;

  double Completed() const { return double(attempted - failed); }
  /// The median window's rate: a burst of interference from outside the
  /// process that covers less than half the phase does not move it.
  double Throughput() const {
    if (!window_ops_s.empty()) return Median(window_ops_s);
    return wall_s > 0 ? Completed() / wall_s : 0;
  }
  /// Single client: throughput and p50 are the medians over `windows`
  /// equal runs of consecutive ops of each one's rate and p50, so a burst
  /// of outside interference covering less than half the phase does not
  /// move them. p99 is over the whole phase, the only span with ten
  /// samples beyond it.
  void SummarizeTimeline(size_t windows) {
    const std::vector<int64_t>& end = timeline.end_ns;
    size_t per = end.size() / windows;
    std::vector<double> p50s;
    int64_t prev = 0;
    for (size_t n = per; per > 0 && n <= per * windows; n += per) {
      window_ops_s.push_back(double(per) * 1e9 / double(end[n - 1] - prev));
      prev = end[n - 1];
      auto first = timeline.ms.begin() + static_cast<ptrdiff_t>(n - per);
      p50s.push_back(Quantile({first, first + static_cast<ptrdiff_t>(per)},
                              0.50));
    }
    p50_ms = p50s.empty() ? Quantile(timeline.ms, 0.50) : Median(p50s);
    p99_ms = Quantile(timeline.ms, 0.99);
  }
};

// ---------------------------------------------------------------- checks ---

bool SameRows(Relation a, Relation b, std::string* why) {
  a.SortRows();
  b.SortRows();
  if (a.size() != b.size()) {
    *why = "row counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const Tuple& ra = a.rows()[i];
    const Tuple& rb = b.rows()[i];
    if (ra.size() != rb.size()) {
      *why = "arity differs in row " + std::to_string(i);
      return false;
    }
    for (size_t j = 0; j < ra.size(); ++j) {
      bool same;
      if (ra[j].IsNumeric() && rb[j].IsNumeric()) {
        double denom = std::max(1.0, std::abs(rb[j].Numeric()));
        same = std::abs(ra[j].Numeric() - rb[j].Numeric()) / denom <= 1e-9;
      } else {
        same = ra[j] == rb[j];
      }
      if (!same) {
        *why = "row " + std::to_string(i) + ": " + zidian::TupleToString(ra) +
               " vs " + zidian::TupleToString(rb);
        return false;
      }
    }
  }
  return true;
}

/// Every statement must run on a KBA route and return the rows the TaaV
/// baseline returns.
Status CompareRoutes(Zidian* z, const std::vector<std::string>& sqls,
                     const ExecOptions& exec) {
  Connection conn = z->Connect();
  ExecOptions baseline = exec;
  baseline.route_policy = zidian::RoutePolicy::kForceBaseline;
  for (const std::string& sql : sqls) {
    auto q = conn.Prepare(sql);
    if (!q.ok()) return q.status();
    AnswerInfo info;
    auto kba = q->Execute(exec, &info);
    if (!kba.ok()) return kba.status();
    if (info.route == AnswerInfo::Route::kTaavFallback) {
      return Status::Internal("not answered on a KBA route: " + sql);
    }
    auto taav = q->Execute(baseline);
    if (!taav.ok()) return taav.status();
    std::string why;
    if (!SameRows(*kba, *taav, &why)) {
      return Status::Internal("KBA and TaaV answers differ (" + why +
                              "): " + sql);
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------------ MOT ---

/// The OLTP read templates (MOT q1, q2, q3, q6) for one vehicle id.
constexpr int kMotReads = 4;
constexpr int kMotUpdate = kMotReads;  ///< op class of updates

std::string MotRead(int t, uint64_t vehicle) {
  std::string id = std::to_string(vehicle);
  switch (t) {
    case 0:
      return "SELECT v.make, v.model, t.test_date, t.test_result, "
             "t.test_mileage FROM vehicle v, mot_test t "
             "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " + id;
    case 1:
      return "SELECT v.make, o.obs_date, o.speed_mph, o.road_id "
             "FROM vehicle v, observation o "
             "WHERE v.vehicle_id = o.vehicle_id AND v.vehicle_id = " + id;
    case 2:
      return "SELECT t.test_result, COUNT(*), MAX(t.test_mileage) "
             "FROM vehicle v, mot_test t WHERE v.vehicle_id = t.vehicle_id "
             "AND v.vehicle_id = " + id + " GROUP BY t.test_result";
    default:
      return "SELECT v.model, SUM(t.cost), COUNT(o.obs_id) "
             "FROM vehicle v, mot_test t, observation o "
             "WHERE v.vehicle_id = t.vehicle_id "
             "AND v.vehicle_id = o.vehicle_id AND v.vehicle_id = " + id +
             " GROUP BY v.model";
  }
}

/// Each read template over every vehicle (the key projected, no key
/// predicate): one statement per template re-checks every block the
/// updates could have touched, where point statements would pay a full
/// TaaV baseline scan per key.
std::string MotReadAll(int t) {
  switch (t) {
    case 0:
      return "SELECT v.vehicle_id, v.make, v.model, t.test_date, "
             "t.test_result, t.test_mileage FROM vehicle v, mot_test t "
             "WHERE v.vehicle_id = t.vehicle_id";
    case 1:
      return "SELECT v.vehicle_id, v.make, o.obs_date, o.speed_mph, o.road_id "
             "FROM vehicle v, observation o "
             "WHERE v.vehicle_id = o.vehicle_id";
    case 2:
      return "SELECT v.vehicle_id, t.test_result, COUNT(*), "
             "MAX(t.test_mileage) FROM vehicle v, mot_test t "
             "WHERE v.vehicle_id = t.vehicle_id "
             "GROUP BY v.vehicle_id, t.test_result";
    default:
      return "SELECT v.vehicle_id, v.model, SUM(t.cost), COUNT(o.obs_id) "
             "FROM vehicle v, mot_test t, observation o "
             "WHERE v.vehicle_id = t.vehicle_id "
             "AND v.vehicle_id = o.vehicle_id GROUP BY v.vehicle_id, v.model";
  }
}

/// Touched keys whose point statements are re-checked as well: the first
/// ones the updates touched (the hottest vehicles come first under Zipf).
constexpr size_t kRecheckKeys = 8;

/// The current version of every mot_test / observation row, per vehicle:
/// an update deletes a row's current version and inserts a copy with one
/// integer column's low bit flipped (test_mileage or speed_mph), so block
/// sizes stay stationary however long the run.
class MotShadow {
 public:
  MotShadow() = default;
  explicit MotShadow(const Workload& w) {
    const char* names[2] = {"mot_test", "observation"};
    const char* cols[2] = {"test_mileage", "speed_mph"};
    size_t vehicles = w.data.at("vehicle").size();
    for (int i = 0; i < 2; ++i) {
      const Relation& rel = w.data.at(names[i]);
      tables_[i].name = names[i];
      tables_[i].col = rel.ColumnIndex(cols[i]);
      tables_[i].rows.resize(vehicles + 1);
      int vid = rel.ColumnIndex("vehicle_id");
      for (const Tuple& row : rel.rows()) {
        tables_[i].rows[static_cast<size_t>(row[vid].AsInt())].push_back(row);
      }
    }
    seen_.assign(vehicles + 1, 0);
  }

  /// Writers are serialized by the caller (the server's write gate, or the
  /// single client).
  Status Update(Zidian* z, uint64_t vehicle, uint64_t selector) {
    Table& t = tables_[selector % 2];
    std::vector<Tuple>& rows = t.rows[vehicle];
    Tuple& row = rows[(selector / 2) % rows.size()];
    Tuple changed = row;
    changed[t.col] = Value(int64_t{row[t.col].AsInt() ^ 1});
    ZIDIAN_RETURN_NOT_OK(z->Delete(t.name, row));
    ZIDIAN_RETURN_NOT_OK(z->Insert(t.name, changed));
    row = std::move(changed);
    if (!seen_[vehicle]) {
      seen_[vehicle] = 1;
      touched_.push_back(vehicle);
    }
    return Status::OK();
  }

  /// Every template over all vehicles, then the point statements of the
  /// first kRecheckKeys touched vehicles.
  std::vector<std::string> RecheckStatements() const {
    std::vector<std::string> sqls;
    for (int t = 0; t < kMotReads; ++t) sqls.push_back(MotReadAll(t));
    for (size_t i = 0; i < touched_.size() && i < kRecheckKeys; ++i) {
      for (int t = 0; t < kMotReads; ++t) {
        sqls.push_back(MotRead(t, touched_[i]));
      }
    }
    return sqls;
  }
  void ForgetTouched() {
    for (uint64_t v : touched_) seen_[v] = 0;
    touched_.clear();
  }

 private:
  struct Table {
    std::string name;
    int col = 0;
    std::vector<std::vector<Tuple>> rows;  // by vehicle id
  };
  Table tables_[2];
  std::vector<uint8_t> seen_;
  std::vector<uint64_t> touched_;
};

// --------------------------------------------------------------- benches ---

struct SetupTimes {
  double load_taav_s = 0;
  double build_baav_s = 0;
  double total_s = 0;  ///< load + build + warm-up
  double taav_bytes = 0;    ///< Cluster::TotalBytes() after LoadTaav
  double stored_bytes = 0;  ///< ... after the warm-up
};

/// What both workloads share: MOT data, Zipf s = 0.9 over all vehicles,
/// the priced network link, updates instead of inserts, the answer checks,
/// one live instance, and the timing backend decorator of traced runs.
class Bench {
 public:
  Bench(const Options& o, Workload w, double read_share)
      : o_(o),
        w_(std::move(w)),
        vehicles_(w_.data.at("vehicle").size()),
        read_share_(read_share) {}
  virtual ~Bench() = default;

  /// Set-ups per run; setup_s is their median. Each takes ~9 s, nearly
  /// all of it modeled stalls: BuildBaav pays one on every segment peek.
  static constexpr int kSetupsPerRun = 3;

  /// Builds a fresh instance (dropping the previous one): TaaV load, BaaV
  /// build and warm-up — everything before the first timed op.
  Status Setup(SetupTimes* t) {
    zidian_.reset();
    cluster_.reset();
    int64_t start = NowNs();
    ClusterOptions co = Layout();
    if (o_.trace) {
      co.backend_factory = [this] {
        return MakeTimedBackend(
            std::make_unique<zidian::LsmStore>(zidian::LsmOptions{}),
            &counters_);
      };
    }
    cluster_ = std::make_unique<Cluster>(std::move(co));
    zidian_ = std::make_unique<Zidian>(&w_.catalog, cluster_.get(), w_.baav);
    ZIDIAN_RETURN_NOT_OK(zidian_->LoadTaav(w_.data));
    int64_t loaded = NowNs();
    taav_bytes_ = cluster_->TotalBytes();
    ZIDIAN_RETURN_NOT_OK(zidian_->BuildBaav(w_.data));
    int64_t built = NowNs();
    ZIDIAN_RETURN_NOT_OK(Warm());
    int64_t warm = NowNs();
    t->load_taav_s = double(loaded - start) / 1e9;
    t->build_baav_s = double(built - loaded) / 1e9;
    t->total_s = double(warm - start) / 1e9;
    t->taav_bytes = double(taav_bytes_);
    t->stored_bytes = double(cluster_->TotalBytes());
    return Status::OK();
  }

  /// query_geomean_ms: the geometric mean over op classes of each class's
  /// median latency, or of its mean where a class's latencies split into
  /// two modes and the median would flip between them.
  virtual double QueryGeomeanMs(const Phase& p) const {
    return p.service.Geomean(false);
  }
  /// Both routes must agree on the fixed key sample before timing ...
  Status CheckBefore() { return CheckOnRestore(SampleStatements()); }
  /// ... and on everything the updates could have touched after it.
  Status CheckAfter() { return CheckOnRestore(shadow_.RecheckStatements()); }
  /// Runs the workload's nominal ops per second times `seconds` ops, so
  /// the op feed is a function of the seed alone.
  virtual Result<Phase> Measure(double seconds) = 0;

  double SpaceAmp() const {
    return double(cluster_->TotalBytes()) / double(taav_bytes_);
  }
  BackendCounters& counters() { return counters_; }
  Zidian& zidian() { return *zidian_; }

 protected:
  static constexpr double kZipfS = 0.9;
  static constexpr size_t kCheckSample = 8;

  /// `nodes` LSM nodes behind a priced link: every block fetch that misses
  /// the BlockCache (if there is one) pays modeled round trips.
  static ClusterOptions PricedNetwork(int nodes, double rtt_us) {
    ClusterOptions co{.num_storage_nodes = nodes};
    co.network.link = zidian::NetworkLinkOptions{
        .rtt_us = rtt_us, .per_key_us = 2, .per_byte_us = 0.01};
    return co;
  }
  virtual ClusterOptions Layout() const = 0;
  virtual Status Warm() = 0;

  /// The hottest four vehicles plus four seeded draws, each on every read
  /// template.
  std::vector<std::string> SampleStatements() const {
    std::vector<uint64_t> keys;
    for (uint64_t v = 1; v <= kCheckSample / 2; ++v) keys.push_back(v);
    zidian::Rng rng(MixSeed(o_.seed, 0xC4EC));
    while (keys.size() < kCheckSample) {
      keys.push_back(static_cast<uint64_t>(
          rng.Uniform(1, static_cast<int64_t>(vehicles_))));
    }
    std::vector<std::string> sqls;
    for (uint64_t v : keys) {
      for (int t = 0; t < kMotReads; ++t) sqls.push_back(MotRead(t, v));
    }
    return sqls;
  }

  /// Runs the checks on a network-free copy of the current store: on the
  /// priced link the baseline route would pay a round trip per tuple.
  Status CheckOnRestore(const std::vector<std::string>& sqls) {
    namespace fs = std::filesystem;
    fs::path dir = fs::path(o_.out_dir) /
                   ("restore-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return Status::Internal("cannot create " + dir.string());
    Status saved = cluster_->SaveToDir(dir.string());
    Cluster restored(
        ClusterOptions{.num_storage_nodes = cluster_->num_nodes()});
    Status loaded = saved.ok() ? restored.LoadFromDir(dir.string()) : saved;
    fs::remove_all(dir, ec);
    ZIDIAN_RETURN_NOT_OK(loaded);
    Zidian copy(&w_.catalog, &restored, w_.baav);
    return CompareRoutes(&copy, sqls, ExecOptions{});
  }

  const Options& o_;
  Workload w_;
  BackendCounters counters_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
  size_t taav_bytes_ = 1;
  uint64_t phases_ = 0;  ///< measured phases so far (seeds their op feeds)
  const uint64_t vehicles_;
  const double read_share_;
  MotShadow shadow_;
};

// ------------------------------------------------------------- oltp-net ---

class OltpNet : public Bench {
 public:
  OltpNet(const Options& o, Workload w) : Bench(o, std::move(w), 0.9) {}

  /// A read's service time is either a cache hit or a modeled round trip
  /// (~50% hits): each class's median sits on the cliff between the two.
  double QueryGeomeanMs(const Phase& p) const override {
    return p.service.Geomean(true);
  }
  /// kChunks server runs of equal size: throughput and p50 are the median
  /// chunk's, so a burst of outside interference covering less than half
  /// the phase does not move them; p99 is over every op of every chunk.
  Result<Phase> Measure(double seconds) override {
    shadow_.ForgetTouched();
    double total = kNominalOpsPerSecond * seconds;
    auto per_stream = static_cast<uint64_t>(
        std::max(1.0, std::ceil(total / (kSessions * kChunks))));
    Phase phase;
    phase.service = Latencies(kMotReads + 1);
    zidian::serve::LatencyRecorder latency;
    std::vector<double> p50s;
    for (int c = 0; c < kChunks; ++c) {
      auto chunk = Serve(per_stream, MixSeed(o_.seed, 100 + phases_++), &phase);
      if (!chunk.ok()) return chunk.status();
      phase.window_ops_s.push_back(chunk->Throughput());
      p50s.push_back(Ms(chunk->latency.Quantile(0.50)));
      latency.Merge(chunk->latency);
    }
    phase.p50_ms = Median(p50s);
    phase.p99_ms = Ms(latency.Quantile(0.99));
    phase.mean_ms = latency.MeanNs() / 1e6;
    return phase;
  }

 protected:
  static constexpr int kSessions = 3;
  static constexpr int kChunks = 5;
  static constexpr uint64_t kWarmOpsPerStream = 150;
  /// A measured phase of --seconds runs this many ops per second of it,
  /// whatever the host's speed, so its op feed (and which reads miss the
  /// sessions' statement caches) is a function of the seed alone. It is
  /// about the rate sustained on a 4-vCPU x86 host, so the phase lasts
  /// about --seconds there.
  static constexpr double kNominalOpsPerSecond = 440;

  /// A 2 ms round trip: the host's late wake-ups from the modeled stalls
  /// (every stall is a real sleep) stay a small share of each op.
  ClusterOptions Layout() const override {
    ClusterOptions co = PricedNetwork(8, 2000);
    co.cache.capacity_bytes = 16 << 10;
    return co;
  }

  Status Warm() override {
    shadow_ = MotShadow(w_);
    Phase phase;
    phase.service = Latencies(kMotReads + 1);
    auto warm = Serve(kWarmOpsPerStream, MixSeed(o_.seed, 99), &phase);
    if (!warm.ok()) return warm.status();
    if (phase.failed != 0) return Status::Internal("warm-up ops failed");
    return Status::OK();
  }

 private:
  /// Per-session op start, set when the server renders a read template.
  static thread_local int64_t op_start_ns_;
  /// The statements the session thread has rendered: a copy of the keys of
  /// its statement cache, which is empty when a Server::Run starts its
  /// sessions. A statement rendered for the first time pays a Prepare.
  static thread_local std::unordered_set<std::string> rendered_;
  static thread_local bool op_prepares_;

  /// One Server::Run; its ops are added to `phase`.
  Result<zidian::serve::ServeResult> Serve(uint64_t ops_per_stream,
                                           uint64_t seed, Phase* phase) {
    std::mutex mu;

    zidian::serve::ServeOptions so;
    so.sessions = kSessions;
    so.queue_depth = kSessions;
    so.load.streams = kSessions;
    so.load.ops_per_stream = ops_per_stream;
    so.load.offered_load = 0;  // saturation: a closed loop
    so.load.seed = seed;
    so.load.zipf_keys = vehicles_;
    so.load.zipf_s = kZipfS;
    for (int t = 0; t < kMotReads; ++t) {
      zidian::serve::ServeTemplate read;
      read.name = "q" + std::to_string(t);
      read.weight = read_share_ / kMotReads;
      read.sql = [t](uint64_t key) {
        op_start_ns_ = NowNs();
        if (Tracer::enabled()) {
          Tracer::ResetThread();
          Tracer::Begin(SpanKind::kOp, Tracer::NewOpId());
        }
        std::string sql = MotRead(t, key);
        op_prepares_ = rendered_.insert(sql).second;
        return sql;
      };
      so.load.mix.push_back(std::move(read));
    }
    zidian::serve::ServeTemplate update;
    update.name = "update";
    update.weight = 1 - read_share_;
    update.write = [this, phase, &mu](Zidian& z,
                                      const zidian::serve::ServeOp& op) {
      int64_t start = NowNs();
      Status s;
      {
        Tracer::ResetThread();
        ScopedSpan root(SpanKind::kOp, Tracer::NewOpId());
        ScopedSpan span(SpanKind::kUpdate);
        s = shadow_.Update(&z, op.key, op.seq * kSessions + op.stream);
      }
      int64_t ns = NowNs() - start;
      std::lock_guard<std::mutex> lock(mu);
      phase->service.Add(kMotUpdate, Ms(ns));
      phase->writes += 1;
      phase->update_s += double(ns) / 1e9;
      return s;
    };
    so.load.mix.push_back(std::move(update));
    so.on_result = [phase, &mu](const zidian::serve::ServeOp& op,
                                const Relation&, const AnswerInfo& info) {
      int64_t ns = NowNs() - op_start_ns_;
      if (Tracer::enabled()) Tracer::End();
      int cold = op_prepares_ ? 1 : 0;
      std::lock_guard<std::mutex> lock(mu);
      phase->service.Add(op.template_idx, Ms(ns));
      phase->reads.Add(info);
      phase->before_execute_s[cold] +=
          double(ns) / 1e9 - info.metrics.wall_seconds;
      phase->before_execute_n[cold] += 1;
    };

    zidian::serve::Server server(zidian_.get(), std::move(so));
    double cpu = CpuSeconds();
    auto result = server.Run();
    if (!result.ok()) return result.status();
    phase->cpu_s += CpuSeconds() - cpu;
    phase->attempted += result->completed + result->failed + result->rejected;
    phase->failed += result->failed + result->rejected;
    phase->wall_s += result->wall_seconds;
    return result;
  }
};

thread_local int64_t OltpNet::op_start_ns_ = 0;
thread_local std::unordered_set<std::string> OltpNet::rendered_;
thread_local bool OltpNet::op_prepares_ = false;

// ------------------------------------------------------------ adhoc-net ---

/// One client sending ad-hoc statements over the priced link, with no
/// BlockCache: every read parses, binds, prepares and executes its own
/// statement (the dialect has no bind parameters), every block fetch pays
/// modeled round trips, and every update is a Delete + Insert through
/// Zidian.
///
/// 95% reads. An update (~8 stalls, ~33 ms) is the slowest op, so the p99
/// of all ops falls at about the 80th percentile of updates. Every modeled
/// stall is a real sleep, and a busy host now and then wakes a sleeper
/// late by a few ms; with 20% updates the p99 would sit at the updates'
/// 95th percentile, where one late wake-up in any of an update's stalls
/// moves it by ~15%.
class AdhocNet : public Bench {
 public:
  AdhocNet(const Options& o, Workload w) : Bench(o, std::move(w), 0.95) {}

  Result<Phase> Measure(double seconds) override {
    shadow_.ForgetTouched();
    auto ops = std::max<uint64_t>(
        1, static_cast<uint64_t>(kNominalOpsPerSecond * seconds));
    return Run(ops, MixSeed(o_.seed, 100 + phases_++));
  }

 protected:
  static constexpr uint64_t kWarmOps = 100;
  static constexpr size_t kWindows = 5;
  /// As on oltp-net: about the rate sustained on a 4-vCPU x86 host.
  static constexpr double kNominalOpsPerSecond = 88;

  /// A 4 ms round trip: the host's late wake-ups (at worst a few ms) stay
  /// a small share of each op, and parse/bind and planning (~0.5 ms of CPU
  /// per read) a minor one, so the host's CPU drift barely moves the
  /// end-to-end metrics either.
  ClusterOptions Layout() const override { return PricedNetwork(4, 4000); }

  Status Warm() override {
    shadow_ = MotShadow(w_);
    auto warm = Run(kWarmOps, MixSeed(o_.seed, 99));
    if (!warm.ok()) return warm.status();
    return warm->failed == 0 ? Status::OK()
                             : Status::Internal("warm-up ops failed");
  }

 private:
  Result<Phase> Run(uint64_t ops, uint64_t seed) {
    Phase phase;
    phase.service = Latencies(kMotReads + 1);
    zidian::Rng rng(seed);
    zidian::Zipf zipf(vehicles_, kZipfS);
    Connection conn = zidian_->Connect();
    const double cpu = CpuSeconds();
    const int64_t begin = NowNs();
    for (uint64_t n = 0; n < ops; ++n) {
      bool read = rng.NextDouble() < read_share_;
      int t = static_cast<int>(rng.Uniform(0, kMotReads - 1));
      uint64_t key = zipf.Sample(&rng);
      phase.attempted += 1;
      int64_t start = NowNs();
      Tracer::ResetThread();
      ScopedSpan root(SpanKind::kOp, Tracer::NewOpId());
      if (!read) {
        Status s;
        {
          ScopedSpan span(SpanKind::kUpdate);
          s = shadow_.Update(zidian_.get(), key, n);
        }
        int64_t ns = NowNs() - start;
        if (!s.ok()) {
          phase.failed += 1;
          continue;
        }
        phase.service.Add(kMotUpdate, Ms(ns));
        phase.writes += 1;
        phase.update_s += double(ns) / 1e9;
        phase.timeline.Add(start + ns - begin, Ms(ns));
        continue;
      }
      std::string sql = MotRead(t, key);
      auto spec = [&] {
        ScopedSpan span(SpanKind::kParseBind);
        return zidian::ParseAndBind(sql, w_.catalog);
      }();
      int64_t parsed = NowNs();
      if (!spec.ok()) {
        phase.failed += 1;
        continue;
      }
      auto q = [&] {
        ScopedSpan span(SpanKind::kPrepare);
        return conn.PrepareSpec(*spec);
      }();
      int64_t prepared = NowNs();
      if (!q.ok()) {
        phase.failed += 1;
        continue;
      }
      AnswerInfo info;
      bool ok;
      {
        ScopedSpan span(SpanKind::kExecute);
        ok = q->Execute(ExecOptions{}, &info).ok();
      }
      int64_t done = NowNs();
      if (!ok) {
        phase.failed += 1;
        continue;
      }
      phase.service.Add(static_cast<size_t>(t), Ms(done - start));
      phase.parse_s += double(parsed - start) / 1e9;
      phase.prepare_s += double(prepared - parsed) / 1e9;
      phase.prepares += 1;
      phase.reads.Add(info);
      phase.timeline.Add(done - begin, Ms(done - start));
    }
    phase.wall_s = double(NowNs() - begin) / 1e9;
    phase.cpu_s = CpuSeconds() - cpu;
    phase.SummarizeTimeline(kWindows);
    return phase;
  }
};

// -------------------------------------------------------- codec replay ---

struct CodecReplay {
  double encode_ns_per_value = 0;
  double decode_ns_per_value = 0;
};

/// Re-encodes and decodes the store's blocks (at most kMaxValues values)
/// with the store's block options, one span per call.
Result<CodecReplay> ReplayCodec(Zidian* z) {
  constexpr uint64_t kMaxValues = 2'000'000;
  struct Block {
    size_t arity;
    std::vector<Tuple> rows;
  };
  std::vector<Block> blocks;
  uint64_t gathered = 0;
  bool tracing = Tracer::enabled();
  Tracer::Enable(false);  // the scan feeding the replay is not part of it
  for (const auto& kv : z->store().schema().all()) {
    size_t arity = kv.value_attrs.size();
    Status s = z->store().ScanInstance(
        kv, nullptr, [&](const Tuple&, const std::vector<Tuple>& rows) {
          if (gathered >= kMaxValues || arity == 0) return;
          gathered += rows.size() * arity;
          blocks.push_back({arity, rows});
        });
    if (!s.ok()) return s;
  }
  Tracer::Enable(tracing);
  const zidian::BlockOptions& options = z->store().options().block;
  uint64_t op = Tracer::NewOpId();
  int64_t encode_ns = 0, decode_ns = 0;
  uint64_t values = 0;
  for (const Block& b : blocks) {
    int64_t start = NowNs();
    std::string bytes;
    {
      ScopedSpan span(SpanKind::kEncode, op);
      bytes = zidian::EncodeBlock(b.rows, b.arity, options);
    }
    int64_t encoded = NowNs();
    std::vector<Tuple> back;
    Status s;
    {
      ScopedSpan span(SpanKind::kDecode, op);
      s = zidian::DecodeBlock(bytes, b.arity, &back);
    }
    int64_t decoded = NowNs();
    if (!s.ok()) return s;
    if (back.size() != b.rows.size()) {
      return Status::Internal("codec replay: decoded row count differs");
    }
    encode_ns += encoded - start;
    decode_ns += decoded - encoded;
    values += back.size() * b.arity;
  }
  CodecReplay out;
  if (values > 0) {
    out.encode_ns_per_value = double(encode_ns) / double(values);
    out.decode_ns_per_value = double(decode_ns) / double(values);
  }
  return out;
}

// -------------------------------------------------------------- reports ---

Result<Workload> Generate(const Options& o) {
  // MOT scale s holds 500 * s vehicles: 250 for oltp-net (far more than
  // its 16 KiB cache holds) and 125 for adhoc-net, whose link is twice as
  // slow. Set-up stalls once per segment peek, so these sizes keep each
  // set-up near 9 s.
  if (o.workload == "oltp-net") return zidian::MakeMot(0.5, o.seed);
  if (o.workload == "adhoc-net") return zidian::MakeMot(0.25, o.seed);
  return Status::InvalidArgument("unknown workload " + o.workload);
}

std::unique_ptr<Bench> MakeBench(const Options& o, std::string* error) {
  Result<Workload> w = Generate(o);
  if (!w.ok()) {
    *error = w.status().ToString();
    return nullptr;
  }
  if (o.workload == "oltp-net") {
    return std::make_unique<OltpNet>(o, std::move(*w));
  }
  return std::make_unique<AdhocNet>(o, std::move(*w));
}

void Add(Report* r, const char* name, double value, const char* unit) {
  r->metrics.push_back({name, value, unit});
}

/// Writes the layer table next to the trace and returns the per-op self
/// times of each layer.
struct LayerSelf {
  double op_us = 0, sql_us = 0, zidian_us = 0, kba_us = 0, baav_us = 0,
         storage_us = 0;
};

LayerSelf WriteLayerFiles(const Options& o, const std::vector<Span>& spans,
                          const BackendCounters& c, double ops,
                          double untraced_tput, double traced_tput,
                          std::string* note) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(o.out_dir, ec);
  std::string stem = o.workload + "-seed" + std::to_string(o.seed);
  std::string trace_path = (fs::path(o.out_dir) / ("trace-" + stem + ".json"))
                               .string();
  std::string table_path = (fs::path(o.out_dir) / ("layers-" + stem + ".txt"))
                               .string();
  if (!WriteChromeTrace(spans, 200000, trace_path)) {
    *note = "cannot write " + trace_path;
  }
  std::vector<LayerRow> rows = LayerTable(spans);
  std::FILE* f = std::fopen(table_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "workload %s, seed %llu, traced phase: %.0f ops\n"
                 "tracing overhead: %.2f%% of throughput (untraced %.1f "
                 "ops/s, traced %.1f ops/s)\n\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 ops,
                 untraced_tput > 0
                     ? 100 * (untraced_tput - traced_tput) / untraced_tput
                     : 0,
                 untraced_tput, traced_tput);
    std::fprintf(f, "%-18s %-8s %10s %12s %12s\n", "span", "layer", "count",
                 "busy_ms", "self_ms");
    for (size_t k = 0; k < rows.size(); ++k) {
      auto kind = static_cast<SpanKind>(k);
      std::fprintf(f, "%-18s %-8s %10llu %12.3f %12.3f\n", SpanName(kind),
                   SpanLayer(kind),
                   static_cast<unsigned long long>(rows[k].count),
                   rows[k].busy_ms, rows[k].self_ms);
    }
    std::fprintf(f, "%-18s %-8s %10llu %12.3f %12.3f   (iterator advances; "
                    "no span, charged to the enclosing span)\n",
                 "storage.scan", "storage",
                 static_cast<unsigned long long>(c.scan_pairs.load()),
                 double(c.scan_ns.load()) / 1e6,
                 double(c.scan_ns.load()) / 1e6);
    std::fclose(f);
  } else {
    *note = "cannot write " + table_path;
  }
  auto self_us = [&](std::initializer_list<SpanKind> kinds) {
    double ms = 0;
    for (SpanKind k : kinds) ms += rows[static_cast<size_t>(k)].self_ms;
    return ops > 0 ? ms * 1e3 / ops : 0;
  };
  LayerSelf out;
  out.op_us = self_us({SpanKind::kOp});
  out.sql_us = self_us({SpanKind::kParseBind});
  out.zidian_us = self_us({SpanKind::kPrepare});
  out.kba_us = self_us({SpanKind::kExecute});
  out.baav_us = self_us({SpanKind::kUpdate});
  out.storage_us = self_us({SpanKind::kGet, SpanKind::kMultiGet,
                            SpanKind::kPut, SpanKind::kDelete}) +
                   (ops > 0 ? double(c.scan_ns.load()) / 1e3 / ops : 0);
  return out;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"oltp-net", "adhoc-net"};
}

Report RunWorkload(const Options& o) {
  Report report;
  const int64_t t0 = NowNs();
  auto log = [t0](const char* fmt, auto... args) {
    std::fprintf(stderr, "[%7.2fs] ", double(NowNs() - t0) / 1e9);
    std::fprintf(stderr, fmt, args...);
    std::fputc('\n', stderr);
  };
  std::unique_ptr<Bench> bench = MakeBench(o, &report.error);
  if (bench == nullptr) return report;
  log("%s seed %llu: data generated", o.workload.c_str(),
      static_cast<unsigned long long>(o.seed));

  std::vector<double> setup_s, load_s, build_s;
  for (int i = 0; i < Bench::kSetupsPerRun; ++i) {
    SetupTimes t;
    Status s = bench->Setup(&t);
    if (!s.ok()) {
      report.error = "set-up failed: " + s.ToString();
      return report;
    }
    setup_s.push_back(t.total_s);
    load_s.push_back(t.load_taav_s);
    build_s.push_back(t.build_baav_s);
    log("set-up %d: %.3f s (TaaV load %.3f s, BaaV build %.3f s); "
        "%.2f MiB stored, %.2f MiB of it TaaV", i + 1, t.total_s,
        t.load_taav_s, t.build_baav_s, t.stored_bytes / 1048576.0,
        t.taav_bytes / 1048576.0);
  }
  if (Status s = bench->CheckBefore(); !s.ok()) {
    report.error = "answer check before the run: " + s.ToString();
    return report;
  }
  log("answer check before the run passed");

  Phase untraced, traced;
  CodecReplay codec;
  std::vector<Span> spans;
  auto measure = [&](double seconds, Phase* out) {
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    auto phase = bench->Measure(seconds);
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    if (!phase.ok()) {
      report.error = "measured phase failed: " + phase.status().ToString();
      return false;
    }
    *out = std::move(*phase);
    std::string classes;
    for (const auto& c : out->service.ms) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %.3f(%zu)", Median(c), c.size());
      classes += buf;
    }
    std::string windows;
    for (double w : out->window_ops_s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.0f", w);
      windows += buf;
    }
    log("measured %.1f ops/s over %.2f s, p50 %.3f ms, p99 %.3f ms, "
        "%ld minor faults, %ld context switches; class medians ms (n):%s; "
        "window rates ops/s:%s",
        out->Throughput(), out->wall_s, out->p50_ms, out->p99_ms,
        after.ru_minflt - before.ru_minflt,
        (after.ru_nvcsw + after.ru_nivcsw) -
            (before.ru_nvcsw + before.ru_nivcsw),
        classes.c_str(), windows.c_str());
    return true;
  };
  if (!o.trace) {
    if (!measure(o.seconds, &untraced)) return report;
  } else {
    // Half the run untraced, half traced, on the same instance.
    if (!measure(o.seconds / 2, &untraced)) return report;
    bench->counters().Reset();
    Tracer::Enable(true);
    bool ok = measure(o.seconds / 2, &traced);
    Tracer::Enable(false);
    if (!ok) return report;
    Tracer::Enable(true);
    auto replay = ReplayCodec(&bench->zidian());
    Tracer::Enable(false);
    if (!replay.ok()) {
      report.error = "codec replay failed: " + replay.status().ToString();
      return report;
    }
    codec = *replay;
    spans = Tracer::Collect();
  }
  const Phase& main = o.trace ? traced : untraced;
  double space_amp = bench->SpaceAmp();
  // Read before the re-check: its all-vehicles joins on the TaaV baseline
  // take more memory than the workload itself does.
  double rss_peak_mb = PeakRssMb();

  if (Status s = bench->CheckAfter(); !s.ok()) {
    report.error = "answer re-check after the run: " + s.ToString();
    return report;
  }
  log("answer re-check after the run passed");
  report.correct = true;
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;

  const ReadTotals& r = main.reads;
  if (!o.trace) {
    Add(&report, "setup_s", Median(setup_s), "s");
    Add(&report, "throughput_ops_s", main.Throughput(), "ops/s");
    Add(&report, "p50_ms", main.p50_ms, "ms");
    Add(&report, "p99_ms", main.p99_ms, "ms");
    Add(&report, "query_geomean_ms", bench->QueryGeomeanMs(main), "ms");
    Add(&report, "rss_peak_mb", rss_peak_mb, "MiB");
    Add(&report, "space_amp", space_amp, "ratio");
    Add(&report, "sim_ms_per_op", r.PerRead(r.sim_s) * 1e3, "ms");
    return report;
  }

  const BackendCounters& c = bench->counters();
  double ops = main.Completed();
  double per_op = ops > 0 ? 1 / ops : 0;
  std::string note;
  LayerSelf self = WriteLayerFiles(o, spans, c, ops, untraced.Throughput(),
                                   traced.Throughput(), &note);
  if (!note.empty()) std::fprintf(stderr, "zbench: %s\n", note.c_str());

  bool served = o.workload == "oltp-net";
  double service_ms = main.service.Mean();
  auto per_prepare_us = [&](double s) {
    return main.prepares > 0 ? s * 1e6 / double(main.prepares) : 0;
  };
  // A served read waits for the write gate, prepares on a statement-cache
  // miss, then executes. Reads that hit the cache measure the gate wait;
  // what misses take beyond that, spread over all reads, is the Prepare.
  auto before_execute_ms = [&](int cold) {
    uint64_t n = main.before_execute_n[cold];
    return n > 0 ? main.before_execute_s[cold] * 1e3 / double(n) : 0;
  };
  const uint64_t* split = main.before_execute_n;
  double served_reads = double(split[0] + split[1]);
  double miss_share = served_reads > 0 ? double(split[1]) / served_reads : 0;
  uint64_t lookups = r.m.cache_hits + r.m.cache_misses;

  Add(&report, "serve.service_ms", served ? service_ms : 0, "ms");
  Add(&report, "serve.wait_ms",
      served ? std::max(0.0, main.mean_ms - service_ms) : 0, "ms");
  Add(&report, "serve.gate_wait_ms", before_execute_ms(0), "ms");
  Add(&report, "serve.prepare_ms",
      split[0] > 0 && split[1] > 0
          ? std::max(0.0, before_execute_ms(1) - before_execute_ms(0)) *
                miss_share
          : 0,
      "ms");
  Add(&report, "serve.statement_hit_ratio",
      served_reads > 0 ? 1 - miss_share : 0, "ratio");
  Add(&report, "sql.parse_bind_us", per_prepare_us(main.parse_s), "us");
  Add(&report, "zidian.prepare_us", per_prepare_us(main.prepare_s), "us");
  Add(&report, "zidian.kba_route_ratio",
      r.reads > 0 ? double(r.kba) / double(r.reads) : 0, "ratio");
  Add(&report, "kba.execute_ms", r.PerRead(r.m.wall_seconds) * 1e3, "ms");
  Add(&report, "kba.fetch_ms", r.PerRead(r.m.wall_fetch_seconds) * 1e3, "ms");
  Add(&report, "kba.round_trips_per_op",
      r.PerRead(double(r.m.get_round_trips)), "count");
  Add(&report, "kba.net_overlap_ms",
      r.PerRead(double(r.m.net_overlap_ns)) / 1e6, "ms");
  Add(&report, "baav.decode_ns_per_value", codec.decode_ns_per_value, "ns");
  Add(&report, "baav.encode_ns_per_value", codec.encode_ns_per_value, "ns");
  Add(&report, "baav.build_s", Median(build_s), "s");
  Add(&report, "baav.update_us",
      main.writes > 0 ? main.update_s * 1e6 / double(main.writes) : 0, "us");
  Add(&report, "baav.values_per_op", r.PerRead(double(r.m.values_accessed)),
      "count");
  Add(&report, "ra.operators_ms", r.PerRead(r.m.wall_compute_seconds) * 1e3,
      "ms");
  Add(&report, "ra.compute_values_per_op",
      r.PerRead(double(r.m.compute_values)), "count");
  Add(&report, "storage.load_taav_s", Median(load_s), "s");
  Add(&report, "storage.backend_us_per_op",
      double(c.busy_ns.load()) / 1e3 * per_op, "us");
  Add(&report, "storage.backend_calls_per_op", double(c.calls.load()) * per_op,
      "count");
  Add(&report, "storage.scan_pairs_per_op",
      double(c.scan_pairs.load()) * per_op, "count");
  Add(&report, "storage.gets_per_op", r.PerRead(double(r.m.get_calls)),
      "count");
  Add(&report, "storage.comm_kb_per_op",
      r.PerRead(double(r.m.CommBytes())) / 1024, "KiB");
  Add(&report, "storage.cache_hit_ratio",
      lookups > 0 ? double(r.m.cache_hits) / double(lookups) : 0, "ratio");
  Add(&report, "storage.net_modeled_ms",
      r.PerRead(double(r.m.net_service_ns)) / 1e6, "ms");
  Add(&report, "storage.net_queue_ms", r.PerRead(r.m.net_queue_seconds) * 1e3,
      "ms");
  Add(&report, "process.cpu_ms_per_op",
      untraced.Completed() > 0 ? untraced.cpu_s * 1e3 / untraced.Completed()
                               : 0,
      "ms");
  Add(&report, "op.self_us_per_op", self.op_us, "us");
  Add(&report, "sql.self_us_per_op", self.sql_us, "us");
  Add(&report, "zidian.self_us_per_op", self.zidian_us, "us");
  Add(&report, "kba.self_us_per_op", self.kba_us, "us");
  Add(&report, "baav.self_us_per_op", self.baav_us, "us");
  Add(&report, "storage.self_us_per_op", self.storage_us, "us");
  double untraced_tput = untraced.Throughput();
  Add(&report, "trace.overhead_pct",
      untraced_tput > 0
          ? 100 * (untraced_tput - traced.Throughput()) / untraced_tput
          : 0,
      "%");
  Add(&report, "trace.nesting_violations", double(NestingViolations(spans)),
      "count");
  return report;
}

}  // namespace perf
