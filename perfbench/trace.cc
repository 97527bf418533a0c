#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.h"

namespace arcbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kSqlParse: return "sql.parse";
    case Layer::kTranslate: return "translate.sql_to_arc";
    case Layer::kPlanCacheLookup: return "eval.plan_cache.lookup";
    case Layer::kPrepare: return "eval.prepare";
    case Layer::kExecute: return "eval.execute";
    case Layer::kDataGenerate: return "data.generate";
    case Layer::kDataSnapshot: return "data.snapshot";
    case Layer::kDataAppend: return "data.append";
    case Layer::kArcParse: return "arc.parse";
    case Layer::kArcLint: return "arc.lint";
    case Layer::kVerifyCheck: return "verify.check";
    case Layer::kCount: break;
  }
  return "?";
}

int32_t TraceBuffer::Open(Layer layer) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{layer, parent, op_, NowNs(), 0});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void TraceBuffer::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

void EvalTotals::Add(const arc::eval::EvalStats& s) {
  ++executes;
  rows_scanned += s.rows_scanned;
  index_probes += s.index_probes;
  index_hits += s.index_hits;
  batches += s.batches_evaluated;
  batch_rows += s.batch_rows_total;
  scope_evaluations += s.scope_evaluations;
  fixpoint_iterations += s.fixpoint_iterations;
  dedup_hits += s.dedup_hits;
}

void EvalTotals::Merge(const EvalTotals& o) {
  executes += o.executes;
  rows_scanned += o.rows_scanned;
  index_probes += o.index_probes;
  index_hits += o.index_hits;
  batches += o.batches;
  batch_rows += o.batch_rows;
  scope_evaluations += o.scope_evaluations;
  fixpoint_iterations += o.fixpoint_iterations;
  dedup_hits += o.dedup_hits;
}

namespace {

double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void EvalTotals::AppendMetrics(std::vector<Metric>* out) const {
  out->push_back({"eval.rows_scanned", Ratio(rows_scanned, executes), "count"});
  out->push_back(
      {"eval.index_hit_ratio", Ratio(index_hits, index_probes), "ratio"});
  out->push_back({"eval.rows_per_batch", Ratio(batch_rows, batches), "count"});
  out->push_back({"eval.scope_evaluations",
                  Ratio(scope_evaluations, executes), "count"});
  out->push_back({"eval.fixpoint_iterations",
                  Ratio(fixpoint_iterations, executes), "count"});
  out->push_back({"eval.dedup_hits", Ratio(dedup_hits, executes), "count"});
}

void ShuffledRound(size_t* order, size_t n, arc::data::Rng* rng) {
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<size_t>(rng->Below(static_cast<int64_t>(i + 1)))]);
  }
}

double HitRatio(const arc::eval::PlanCache::Stats& before,
                const arc::eval::PlanCache::Stats& after) {
  const int64_t hits = after.hits - before.hits;
  return Ratio(hits, hits + after.misses - before.misses);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

WindowFigures FasterWindows(const std::vector<TimedOp>& ops, int64_t start_ns,
                            double seconds, int64_t window_ns, double tail_q) {
  const auto windows = static_cast<size_t>(
      std::max<int64_t>(1, static_cast<int64_t>(seconds * 1e9) / window_ns));
  std::vector<std::vector<double>> by_window(windows);
  for (const TimedOp& op : ops) {
    const auto w = static_cast<size_t>((op.done_ns - start_ns) / window_ns);
    if (w < windows) by_window[w].push_back(op.ms);
  }
  std::vector<double> rate, p50, tail;
  for (const std::vector<double>& w : by_window) {
    rate.push_back(static_cast<double>(w.size()) * 1e9 / static_cast<double>(window_ns));
    p50.push_back(Percentile(w, 0.5));
    tail.push_back(Percentile(w, tail_q));
  }
  constexpr double kFastQuartile = 0.25;
  WindowFigures f;
  f.ops_per_s = Percentile(rate, 1 - kFastQuartile);
  f.p50_ms = Percentile(p50, kFastQuartile);
  f.tail_ms = Percentile(tail, kFastQuartile);
  return f;
}

void RunClients(int clients, bool traced, Measurement* m,
                const std::function<void(int, TraceBuffer*)>& body) {
  std::vector<TraceBuffer*> buffers(static_cast<size_t>(clients), nullptr);
  for (TraceBuffer*& b : buffers) {
    if (!traced) break;
    m->traces.push_back(std::make_unique<TraceBuffer>());
    b = m->traces.back().get();
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(body, c, buffers[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ValueKey(const arc::data::Value& v) {
  using arc::data::ValueKind;
  switch (v.kind()) {
    case ValueKind::kNull: return 0x6e756c6cULL;
    case ValueKind::kBool: return v.as_bool() ? 0xb1 : 0xb0;
    case ValueKind::kInt: return static_cast<uint64_t>(v.as_int());
    case ValueKind::kDouble: {
      const double d = v.as_double();
      if (d == std::floor(d) && std::fabs(d) < 9e15) {
        return static_cast<uint64_t>(static_cast<int64_t>(d));
      }
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(d));
      std::copy_n(reinterpret_cast<const unsigned char*>(&d), sizeof(d),
                  reinterpret_cast<unsigned char*>(&bits));
      return bits;
    }
    case ValueKind::kString: return std::hash<std::string>{}(v.ToString());
  }
  return 0;
}

}  // namespace

uint64_t RowChecksum(const std::vector<arc::data::Value>& row) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const auto& v : row) h = Mix(h ^ ValueKey(v));
  return h;
}

uint64_t RelationChecksum(const arc::data::Relation& relation) {
  uint64_t sum = 0;
  for (const auto& t : relation.rows()) sum += RowChecksum(t.values());
  return sum;
}

namespace {

constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

struct LayerTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;  // summed span durations
  int64_t self_ns = 0;   // minus the time covered by child spans
};

// How each layer's mean call time is printed.
struct TimeMetric {
  Layer layer;
  const char* name;
  const char* unit;
  double ns_per_unit;
};
constexpr TimeMetric kTimeMetrics[] = {
    {Layer::kSqlParse, "sql.parse_us", "us", 1e3},
    {Layer::kTranslate, "translate.sql_to_arc_us", "us", 1e3},
    {Layer::kPlanCacheLookup, "eval.plan_cache.lookup_us", "us", 1e3},
    {Layer::kPrepare, "eval.prepare_ms", "ms", 1e6},
    {Layer::kExecute, "eval.execute_ms", "ms", 1e6},
    {Layer::kDataGenerate, "data.generate_s", "s", 1e9},
    {Layer::kDataSnapshot, "data.snapshot_ms", "ms", 1e6},
    {Layer::kDataAppend, "data.append_ms", "ms", 1e6},
    {Layer::kArcParse, "arc.parse_us", "us", 1e3},
    {Layer::kArcLint, "arc.lint_us", "us", 1e3},
    {Layer::kVerifyCheck, "verify.check_ms", "ms", 1e6},
};

// Blocking-time shares are reported per module.
struct ShareGroup {
  const char* name;
  std::vector<Layer> layers;
};
const std::vector<ShareGroup>& ShareGroups() {
  static const std::vector<ShareGroup> groups = {
      {"share.sql", {Layer::kSqlParse}},
      {"share.translate", {Layer::kTranslate}},
      {"share.plan_cache", {Layer::kPlanCacheLookup}},
      {"share.prepare", {Layer::kPrepare}},
      {"share.execute", {Layer::kExecute}},
      {"share.data",
       {Layer::kDataGenerate, Layer::kDataSnapshot, Layer::kDataAppend}},
      {"share.arc", {Layer::kArcParse, Layer::kArcLint}},
      {"share.verify", {Layer::kVerifyCheck}},
      {"share.bench", {Layer::kOp}},
  };
  return groups;
}

}  // namespace

void AppendSpanMetrics(const std::vector<const TraceBuffer*>& buffers,
                       std::vector<Metric>* out) {
  std::array<LayerTotals, kLayers> in_ops{};
  std::array<LayerTotals, kLayers> in_setup{};
  std::vector<double> first_prepare_ms;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    bool after_seal = false;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t dur = s.end_ns - s.start_ns;
      LayerTotals& t = (s.op >= 0 ? in_ops : in_setup)[static_cast<size_t>(s.layer)];
      ++t.calls;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      if (s.op < 0 && s.layer == Layer::kDataSnapshot) after_seal = true;
      if (s.op < 0 && s.layer == Layer::kPrepare && after_seal) {
        first_prepare_ms.push_back(static_cast<double>(dur) / 1e6);
        after_seal = false;
      }
    }
  }
  for (const TimeMetric& m : kTimeMetrics) {
    const size_t i = static_cast<size_t>(m.layer);
    // Per-operation cost where the layer runs inside operations, otherwise
    // its set-up cost (e.g. sealing the snapshot once).
    const LayerTotals& t = in_ops[i].calls > 0 ? in_ops[i] : in_setup[i];
    out->push_back({m.name,
                    t.calls == 0 ? 0.0
                                 : static_cast<double>(t.total_ns) /
                                       static_cast<double>(t.calls) /
                                       m.ns_per_unit,
                    m.unit});
  }
  double first = 0;
  for (double ms : first_prepare_ms) first += ms;
  if (!first_prepare_ms.empty()) first /= static_cast<double>(first_prepare_ms.size());
  out->push_back({"eval.prepare_first_ms", first, "ms"});

  const int64_t blocking_ns = in_ops[static_cast<size_t>(Layer::kOp)].total_ns;
  for (const ShareGroup& g : ShareGroups()) {
    int64_t self = 0;
    for (Layer l : g.layers) self += in_ops[static_cast<size_t>(l)].self_ns;
    out->push_back({g.name, 100.0 * Ratio(self, blocking_ns), "%"});
  }
}

bool WriteSpans(const std::vector<const TraceBuffer*>& buffers,
                const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "thread,op,index,parent,layer,start_ns,end_ns\n";
  for (size_t th = 0; th < buffers.size(); ++th) {
    const std::vector<Span>& spans = buffers[th]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << th << ',' << s.op << ',' << i << ',' << s.parent << ','
        << LayerName(s.layer) << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(f);
}

}  // namespace arcbench
