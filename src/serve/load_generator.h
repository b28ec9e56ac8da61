// Open-loop load generation for the serving layer: deterministic
// per-stream request schedules over a query-template mix with Zipfian
// key skew.
//
// A *stream* is one simulated client: its operations — template choice,
// key rank, inter-arrival gap — are drawn from an Rng seeded by
// (seed, stream) alone, so a schedule is a pure function of LoadOptions
// and can be regenerated, replayed against a serial baseline, or sharded
// across machines without coordination. Arrival times are OPEN-LOOP:
// sampled from an exponential inter-arrival distribution at the stream's
// share of the offered load, fixed before the run starts, and never
// stretched by slow completions — the generator models users who do not
// politely wait for the previous query to finish (the coordinated-
// omission trap a closed-loop harness falls into).
//
// Key skew: ranks are drawn from Zipf(zipf_keys, zipf_s) (common/rng.h),
// rank 1 hottest. Templates map a rank to a concrete key — for the MOT
// serving mixes rank r simply addresses vehicle_id r, so the hottest
// block is vehicle 1's.
#ifndef ZIDIAN_SERVE_LOAD_GENERATOR_H_
#define ZIDIAN_SERVE_LOAD_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace zidian {

class Zidian;

namespace serve {

struct ServeOp;

/// One entry of the query mix. Exactly one of `sql` / `write` is set:
/// a read template renders SQL for a sampled key (executed through the
/// session's prepared-statement cache), a write template applies
/// mutations through the Zidian maintenance API (staged in a write batch
/// the server commits atomically).
struct ServeTemplate {
  std::string name;
  /// Relative sampling weight within the mix (need not sum to 1).
  double weight = 1;
  /// Read op: renders the SQL for a Zipf-sampled key rank (1-based,
  /// rank 1 hottest). Must be a pure function — it is called once per
  /// occurrence, possibly from several session threads.
  std::function<std::string(uint64_t key)> sql;
  /// Write op: applies the mutations for this op (the ServeOp carries the
  /// sampled key and a per-stream sequence number for unique-id
  /// construction). Executed one write op at a time, inside a
  /// Zidian::WriteBatch: Insert / Delete stage, and their maintenance
  /// reads may overlap read queries. The server commits the batch when
  /// the call returns OK — one Cluster::Write, under the exclusive side
  /// of the Cluster's storage gate — and writes nothing when it fails; a
  /// read that straddles the commit runs again, so readers see all of
  /// the op's mutations or none.
  std::function<Status(Zidian& zidian, const ServeOp& op)> write;

  bool is_write() const { return static_cast<bool>(write); }
};

struct LoadOptions {
  /// Number of independent client streams. The server defaults this to
  /// its session count when left at 0.
  int streams = 0;
  /// Operations per stream (the schedule length).
  uint64_t ops_per_stream = 100;
  /// Total offered load in ops/second across all streams; each stream
  /// generates at offered_load / streams. <= 0 selects saturation mode:
  /// no arrival pacing, the admission queue is fed as fast as it drains
  /// (the capacity-measurement mode the throughput smoke uses).
  double offered_load = 0;
  uint64_t seed = 42;
  /// Zipf key-skew parameters: ranks 1..zipf_keys, exponent zipf_s.
  uint64_t zipf_keys = 100;
  double zipf_s = 0.8;
  std::vector<ServeTemplate> mix;
};

/// One scheduled operation of one stream.
struct ServeOp {
  uint32_t stream = 0;
  uint32_t template_idx = 0;  ///< index into LoadOptions::mix
  uint64_t seq = 0;           ///< position within the stream's schedule
  uint64_t key = 0;           ///< Zipf-sampled key rank (1-based)
  /// Scheduled arrival, nanoseconds from run start. All zero in
  /// saturation mode (arrival is then stamped at admission time).
  int64_t arrival_ns = 0;
};

/// The full schedule of one stream: ops_per_stream operations with
/// template choices, key ranks and (open-loop) arrival offsets, a pure
/// function of (options, stream). Returns an empty schedule when the mix
/// is empty or every weight is <= 0.
std::vector<ServeOp> GenerateStream(const LoadOptions& options,
                                    uint32_t stream);

/// All streams' schedules merged into one admission-ordered feed:
/// by arrival time in open-loop mode, round-robin across streams in
/// saturation mode (fair interleaving when there is no clock to order
/// by). Ties break deterministically on (arrival, stream, seq).
std::vector<ServeOp> GenerateFeed(const LoadOptions& options);

}  // namespace serve
}  // namespace zidian

#endif  // ZIDIAN_SERVE_LOAD_GENERATOR_H_
