// append_reseal: writes beside reads. kClients tenants each own a
// TrcScaleInstance(100) database (10^5 rows in R) and run one closed-loop
// writer. Each operation appends a small seeded batch to the tenant's R
// (Database::GetMutable + Relation::Add) while readers still hold the
// previous snapshot, takes a new Snapshot(), then runs a selective point
// query for the batch's fresh key through the PlanCache all tenants share.
// The catalog version changed, so every query is a plan-cache miss and a
// re-Prepare. The time from the start of the write to the rows being
// returned is the visibility latency.
//
// Oracle: the query must return exactly the appended batch.
#include <cstdio>
#include <string>

#include "bench.h"
#include "sql/parser.h"
#include "translate/sql_to_arc.h"

namespace arcbench {
namespace {

using arc::data::Database;
using arc::data::Relation;
using arc::data::Schema;
using arc::data::Value;

// Fresh keys lie above the generated domain, so a point query on one
// returns exactly the batch that introduced it.
constexpr int64_t kKeyBase = 1'000'000'000;
// Plans for superseded catalog versions are never hit again, and each one
// keeps memory alive (resident memory grew by ~2.5 MB per cached plan with
// the default capacity of 128), so the cache is kept small.
constexpr size_t kPlanCacheCapacity = 8 * kClients;
// The end-to-end figures are those of the faster 5-s windows
// (FasterWindows); a window holds ~120 operations, so its p90 has about a
// dozen beyond it.
constexpr int64_t kWindowNs = 5'000'000'000;

struct Tenant {
  Database db;
  Database snapshot;  // what readers currently see
  int64_t next_key = 0;
};

class Append : public Workload {
 public:
  explicit Append(const Config& config) : config_(config) {}

  void Setup(TraceBuffer* trace) override {
    tenants_.clear();
    tenants_.resize(kClients);
    cache_ = std::make_unique<arc::eval::PlanCache>(kPlanCacheCapacity);
    arc::data::Rng rng(config_.seed + 99);
    for (size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      {
        ScopedSpan span(trace, Layer::kDataGenerate);
        t.db = arc::data::TrcScaleInstance(config_.toy ? 2 : 100, config_.seed + i);
      }
      {
        ScopedSpan span(trace, Layer::kDataSnapshot);
        t.snapshot = t.db.Snapshot();
      }
      arc::eval::EvalStats stats;
      Operation(&t, &rng, trace, &stats);  // warm-up
    }
  }

  Measurement Measure(double seconds, bool traced) override {
    struct Writer {
      std::vector<TimedOp> visible;
      EvalTotals totals;
      int64_t failed = 0;
    };
    std::vector<Writer> writers(kClients);
    Measurement m;
    ++pass_;
    const arc::eval::PlanCache::Stats before = cache_->stats();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    RunClients(kClients, traced, &m, [&](int c, TraceBuffer* trace) {
      Writer& w = writers[static_cast<size_t>(c)];
      arc::data::Rng rng(config_.seed * 7 + static_cast<uint64_t>(pass_) * 7919 +
                         static_cast<uint64_t>(c));
      while (NowNs() < deadline) {
        if (trace != nullptr) trace->BeginOp();
        arc::eval::EvalStats stats;
        const int64_t t0 = NowNs();
        if (!Operation(&tenants_[static_cast<size_t>(c)], &rng, trace, &stats)) {
          ++w.failed;
        }
        const int64_t done = NowNs();
        w.visible.push_back({done, static_cast<double>(done - t0) / 1e6});
        w.totals.Add(stats);
      }
    });
    m.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

    std::vector<TimedOp> visible;
    EvalTotals totals;
    for (const Writer& w : writers) {
      visible.insert(visible.end(), w.visible.begin(), w.visible.end());
      totals.Merge(w.totals);
      m.failed += w.failed;
    }
    m.attempted = static_cast<int64_t>(visible.size());
    for (const TimedOp& op : visible) m.mean_op_ms += op.ms;
    m.mean_op_ms /= static_cast<double>(m.attempted);
    const WindowFigures f = FasterWindows(visible, start, seconds, kWindowNs, 0.9);
    m.ops_per_s = f.ops_per_s;
    m.p50_ms = f.p50_ms;
    m.tail_ms = f.tail_ms;
    m.report = {
        {"append.visible_p50_ms", m.p50_ms, "ms"},
        {"append.visible_p90_ms", m.tail_ms, "ms"},
        {"append.ops", static_cast<double>(m.attempted), "count"},
        {"append.rows_in_R", static_cast<double>(tenants_[0].db.GetPtr("R")->size()),
         "count"},
    };
    m.layer.push_back(
        {"eval.plan_cache.hit_ratio", HitRatio(before, cache_->stats()), "ratio"});
    totals.AppendMetrics(&m.layer);
    return m;
  }

 private:
  // One write-then-read. Returns false on an error or a wrong answer.
  bool Operation(Tenant* t, arc::data::Rng* rng, TraceBuffer* trace,
                 arc::eval::EvalStats* stats) {
    ScopedSpan op(trace, Layer::kOp);
    const int64_t key = kKeyBase + t->next_key++;
    Relation batch(Schema{"A", "B"});
    const int64_t n = 1 + rng->Below(4);
    for (int64_t i = 0; i < n; ++i) {
      batch.Add({Value::Int(key), Value::Int(rng->Below(1000))});
    }
    {
      ScopedSpan span(trace, Layer::kDataAppend);
      Relation* r = t->db.GetMutable("R");
      for (const auto& row : batch.rows()) r->Add(row);
    }
    {
      ScopedSpan span(trace, Layer::kDataSnapshot);
      t->snapshot = t->db.Snapshot();
    }
    const std::string text =
        "select R.A, R.B from R where R.A = " + std::to_string(key);
    auto stmt = [&] {
      ScopedSpan span(trace, Layer::kSqlParse);
      return arc::sql::ParseSelect(text);
    }();
    if (!stmt.ok()) return false;
    auto program = [&] {
      ScopedSpan span(trace, Layer::kTranslate);
      arc::translate::SqlToArcOptions topts;
      topts.database = &t->snapshot;
      return arc::translate::SqlToArc(**stmt, topts);
    }();
    if (!program.ok()) return false;
    arc::eval::EvalOptions opts;
    opts.conventions = arc::Conventions::Sql();
    auto prepared = [&] {
      // Always a miss here (the catalog version moved with the write).
      ScopedSpan span(trace, Layer::kPrepare);
      return cache_->GetOrPrepare(*program, t->snapshot, opts);
    }();
    if (!prepared.ok()) return false;
    auto rows = [&] {
      ScopedSpan span(trace, Layer::kExecute);
      return arc::eval::Execute(**prepared, t->snapshot, stats);
    }();
    if (!rows.ok() || !rows->EqualsBag(batch)) {
      std::fprintf(stderr, "append: key %lld not visible as written\n",
                   static_cast<long long>(key));
      return false;
    }
    return true;
  }

  const Config config_;
  int pass_ = 0;
  std::vector<Tenant> tenants_;
  std::unique_ptr<arc::eval::PlanCache> cache_;
};

}  // namespace

std::unique_ptr<Workload> MakeAppend(const Config& config) {
  return std::make_unique<Append>(config);
}

}  // namespace arcbench
