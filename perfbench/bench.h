// Shared pieces of the `arcbench` end-to-end benchmark: run configuration,
// in-memory span tracing around calls into the engine's layers, EvalStats
// accumulation, and the Workload interface each traffic mix implements.
//
// Spans are recorded only by the benchmark's own code, around calls into
// the engine's public functions (sql::ParseSelect, translate::SqlToArc,
// eval::Prepare / PlanCache::GetOrPrepare / eval::Execute, Database
// mutation and Snapshot, text::ParseProgram, arc::Lint,
// verify::CheckEquivalent); the engine itself is not instrumented.
#ifndef ARC_PERFBENCH_BENCH_H_
#define ARC_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "data/relation.h"
#include "eval/evaluator.h"
#include "eval/plan_cache.h"

namespace arcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test (perfbench/selftest.py).
  bool toy = false;
};

/// The layer a span belongs to. kOp is the root span of one operation
/// (request, query, write+read, or pair check); spans outside any kOp are
/// set-up work.
enum class Layer : uint8_t {
  kOp,
  kSqlParse,
  kTranslate,
  kPlanCacheLookup,  // GetOrPrepare that found the plan cached
  kPrepare,          // Prepare, direct or inside a GetOrPrepare miss
  kExecute,
  kDataGenerate,
  kDataSnapshot,
  kDataAppend,
  kArcParse,
  kArcLint,
  kVerifyCheck,
  kCount,
};
const char* LayerName(Layer layer);

struct Span {
  Layer layer;
  int32_t parent;  // index into the same buffer, -1 for a root
  int64_t op;      // operation number within the buffer, -1 for set-up
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans of one thread, kept in memory until the run ends.
class TraceBuffer {
 public:
  int32_t Open(Layer layer);
  void Close(int32_t index);
  /// Changes the layer of a span, e.g. a GetOrPrepare that turned out to
  /// be a miss is re-labelled kPrepare.
  void Relabel(int32_t index, Layer layer) { spans_[index].layer = layer; }
  /// Starts a new operation; spans opened until the next call belong to it.
  void BeginOp() { ++op_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t op_ = -1;
};

/// RAII span; a no-op when `buffer` is null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, Layer layer)
      : buffer_(buffer), index_(buffer ? buffer->Open(layer) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Relabel(Layer layer) {
    if (buffer_ != nullptr) buffer_->Relabel(index_, layer);
  }

 private:
  TraceBuffer* buffer_;
  int32_t index_;
};

/// A named number with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Sums of the EvalStats counters over many Execute() calls.
struct EvalTotals {
  int64_t executes = 0;
  int64_t rows_scanned = 0;
  int64_t index_probes = 0;
  int64_t index_hits = 0;
  int64_t batches = 0;
  int64_t batch_rows = 0;
  int64_t scope_evaluations = 0;
  int64_t fixpoint_iterations = 0;
  int64_t dedup_hits = 0;

  void Add(const arc::eval::EvalStats& stats);
  void Merge(const EvalTotals& other);
  /// eval.rows_scanned, eval.index_hit_ratio, eval.rows_per_batch,
  /// eval.scope_evaluations, eval.fixpoint_iterations, eval.dedup_hits
  /// (counts are per Execute()).
  void AppendMetrics(std::vector<Metric>* out) const;
};

/// What one measured pass of a workload produced.
struct Measurement {
  double elapsed_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The three end-to-end figures every workload reports (their meaning per
  /// workload is documented in perfbench/NOTES.md).
  double ops_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  /// Mean wall time of one operation, for the tracing-overhead figure.
  double mean_op_ms = 0;
  /// The same figures under the workload-specific names of the design
  /// (served.qps_3c, append.visible_p90_ms, ...), printed for people.
  std::vector<Metric> report;
  /// Per-layer numbers the workload measures itself (counters, shapes).
  std::vector<Metric> layer;
  /// One buffer per client thread; empty when the pass was not traced.
  std::vector<std::unique_ptr<TraceBuffer>> traces;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up: data generation, seal, warm-up. Called several
  /// times per run (set-up time is the median); the last one is measured.
  virtual void Setup(TraceBuffer* trace) = 0;
  /// Closed-loop measurement for about `seconds`.
  virtual Measurement Measure(double seconds, bool traced) = 0;
  /// Oracle checks that must stay outside the timed region; returns the
  /// number of operations found wrong (added to `failed`).
  virtual int64_t CheckAfterMeasure() { return 0; }
};

/// Concurrent clients of the multi-client workloads: one fewer than the
/// nproc of the 4-core machine the benchmark was sized on. Several clients
/// average out how fast each core happens to be (on a shared virtual machine
/// one core can run 30% slower than another for tens of seconds, which a
/// single thread cannot average away within a run), and the spare core
/// keeps any other runnable thread from preempting a client: with one busy
/// background thread and a client on every core, served_sql's p99 went from
/// 2 ms to 5 ms.
constexpr int kClients = 3;

/// Runs `body(client, trace)` on `clients` threads and joins them. When
/// `traced`, each thread records into its own buffer, kept in `m->traces`.
void RunClients(int clients, bool traced, Measurement* m,
                const std::function<void(int, TraceBuffer*)>& body);

std::unique_ptr<Workload> MakeServed(const Config& config);
std::unique_ptr<Workload> MakeAnalytic(const Config& config);
std::unique_ptr<Workload> MakeAppend(const Config& config);
std::unique_ptr<Workload> MakeVerify(const Config& config);

/// Fills order[0, n) with a seeded permutation of 0..n-1: the order in which
/// a client visits every shape or pair once per round.
void ShuffledRound(size_t* order, size_t n, arc::data::Rng* rng);

/// Plan-cache hits over lookups between two readings of its counters.
double HitRatio(const arc::eval::PlanCache::Stats& before,
                const arc::eval::PlanCache::Stats& after);

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// One operation of a closed loop: when it completed and how long it took.
struct TimedOp {
  int64_t done_ns;
  double ms;
};

/// Throughput and latency of a closed-loop phase's faster windows.
struct WindowFigures {
  double ops_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
};

/// Splits `ops` into the whole windows of `window_ns` that fit in the
/// `seconds` after `start_ns`, and returns the upper quartile of the
/// windows' throughput and the lower quartile of their p50 and `tail_q`
/// latency. Other work on a shared machine only ever slows a window down,
/// so the faster windows show the speed the engine sustains when it has its
/// cores; on a 4-vCPU virtual machine served_sql's figures taken this way
/// varied about half as much from run to run as the windows' medians.
WindowFigures FasterWindows(const std::vector<TimedOp>& ops, int64_t start_ns,
                            double seconds, int64_t window_ns, double tail_q);

/// Order-independent checksum of a relation's rows (row count is checked
/// separately). Integer-valued doubles hash like the integer.
uint64_t RowChecksum(const std::vector<arc::data::Value>& row);
uint64_t RelationChecksum(const arc::data::Relation& relation);

/// Per-layer figures derived from spans: mean call time per layer, each
/// layer's share of the operations' blocking time, and set-up layers.
void AppendSpanMetrics(const std::vector<const TraceBuffer*>& buffers,
                       std::vector<Metric>* out);
/// Writes every span as CSV (thread,op,index,parent,layer,start_ns,end_ns).
bool WriteSpans(const std::vector<const TraceBuffer*>& buffers,
                const std::string& path);

}  // namespace arcbench

#endif  // ARC_PERFBENCH_BENCH_H_
