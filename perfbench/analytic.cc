// analytic_200k: kClients analysts issue one-off SQL queries (no plan
// cache) over TrcScaleInstance(200) — 2*10^5 rows in each of R(A,B) and
// S(B,C) — plus WITH RECURSIVE transitive closure over a 450-node chain P
// (101,025 tuples). Each query is text → parse → translate → Prepare →
// Execute; Execute dominates. Each client runs every shape once per round,
// in its own seeded order. At 10^6 rows one round takes ~10 s: one sample
// per shape per run, too few to be steady on a shared machine.
//
// Oracle: row counts and an order-independent checksum computed by a plain
// hash join / aggregate over the generated rows, in this file.
#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "sql/parser.h"
#include "translate/sql_to_arc.h"

namespace arcbench {
namespace {

using arc::data::Database;
using arc::data::Relation;
using arc::data::Value;

struct Shape {
  const char* name;
  const char* sql;
};

constexpr Shape kShapes[] = {
    {"join", "select distinct R.A from R, S where R.B = S.B and S.C = 0"},
    {"groupby", "select R.A, sum(R.B) sm from R group by R.A"},
    {"antijoin",
     "select R.A from R where not exists (select 1 from S where S.B = R.B)"},
    {"closure",
     "with recursive A as (select P.s, P.t from P union select P.s, A.t "
     "from P, A where P.t = A.s) select A.s, A.t from A"},
};
constexpr size_t kShapeCount = std::size(kShapes);

struct Expected {
  int64_t rows = 0;
  uint64_t checksum = 0;
};

class Analytic : public Workload {
 public:
  explicit Analytic(const Config& config) : config_(config) {}

  void Setup(TraceBuffer* trace) override {
    snapshot_ = Database();  // one large catalog alive at a time
    Database db;
    {
      ScopedSpan span(trace, Layer::kDataGenerate);
      db = arc::data::TrcScaleInstance(config_.toy ? 2 : 200, config_.seed);
      db.Put("P", *arc::data::ParentChain(chain_nodes()).Get("P"));
    }
    {
      ScopedSpan span(trace, Layer::kDataSnapshot);
      snapshot_ = db.Snapshot();
    }
    // Warm-up: prepare every shape once (no execution).
    for (const Shape& shape : kShapes) {
      auto program = Translate(shape.sql, trace);
      if (!program.ok()) continue;
      ScopedSpan span(trace, Layer::kPrepare);
      auto prepared = arc::eval::Prepare(*program, snapshot_, Options());
      (void)prepared;
    }
  }

  Measurement Measure(double seconds, bool traced) override {
    if (!expected_computed_) ComputeExpected();
    struct Client {
      std::vector<double> shape_s[kShapeCount];
      std::vector<double> execute_ms[kShapeCount];
      EvalTotals totals[kShapeCount];
      int64_t failed = 0;
    };
    std::vector<Client> clients(kClients);
    Measurement m;
    ++pass_;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    RunClients(kClients, traced, &m, [&](int c, TraceBuffer* trace) {
      Client& cl = clients[static_cast<size_t>(c)];
      arc::data::Rng rng(config_.seed * 31 + static_cast<uint64_t>(pass_) * 7919 +
                         static_cast<uint64_t>(c));
      size_t order[kShapeCount];
      size_t next = kShapeCount;
      while (NowNs() < deadline) {
        if (next == kShapeCount) {
          ShuffledRound(order, kShapeCount, &rng);
          next = 0;
        }
        const size_t k = order[next++];
        if (trace != nullptr) trace->BeginOp();
        arc::eval::EvalStats stats;
        Relation rows;
        int64_t exec_ns = 0;
        const int64_t t0 = NowNs();
        const bool ok = RunQuery(kShapes[k].sql, trace, &stats, &rows, &exec_ns);
        cl.shape_s[k].push_back(static_cast<double>(NowNs() - t0) / 1e9);
        cl.execute_ms[k].push_back(static_cast<double>(exec_ns) / 1e6);
        cl.totals[k].Add(stats);
        if (!ok || rows.size() != expected_[k].rows ||
            RelationChecksum(rows) != expected_[k].checksum) {
          std::fprintf(stderr, "analytic: %s returned %lld rows (want %lld)%s\n",
                       kShapes[k].name, static_cast<long long>(rows.size()),
                       static_cast<long long>(expected_[k].rows),
                       ok ? "" : " after an error");
          ++cl.failed;
        }
      }
    });
    m.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

    // Each shape at its median; p50 and tail over the shapes.
    std::vector<double> shape_ms;
    EvalTotals totals;
    for (size_t k = 0; k < kShapeCount; ++k) {
      std::vector<double> secs;
      std::vector<double> exec;
      EvalTotals t;
      for (const Client& cl : clients) {
        secs.insert(secs.end(), cl.shape_s[k].begin(), cl.shape_s[k].end());
        exec.insert(exec.end(), cl.execute_ms[k].begin(), cl.execute_ms[k].end());
        t.Merge(cl.totals[k]);
      }
      m.attempted += static_cast<int64_t>(secs.size());
      for (double x : secs) m.mean_op_ms += x * 1e3;
      const std::string name = kShapes[k].name;
      const double median_s = Median(secs);
      shape_ms.push_back(median_s * 1e3);
      const auto per = [&](int64_t v) {
        return t.executes == 0 ? 0.0
                               : static_cast<double>(v) / static_cast<double>(t.executes);
      };
      m.report.push_back({"analytic." + name + "_s", median_s, "s"});
      m.report.push_back({"analytic." + name + ".execute_ms", Median(exec), "ms"});
      m.report.push_back({"analytic." + name + ".rows_scanned", per(t.rows_scanned), "count"});
      m.report.push_back({"analytic." + name + ".rows_per_batch",
                          t.batches == 0 ? 0.0
                                         : static_cast<double>(t.batch_rows) /
                                               static_cast<double>(t.batches),
                          "count"});
      m.report.push_back({"analytic." + name + ".fixpoint_iterations",
                          per(t.fixpoint_iterations), "count"});
      m.layer.push_back({"analytic." + name + "_s", median_s, "s"});
      totals.Merge(t);
    }
    for (const Client& cl : clients) m.failed += cl.failed;
    m.mean_op_ms /= static_cast<double>(m.attempted);
    m.ops_per_s = static_cast<double>(m.attempted) / m.elapsed_s;
    m.p50_ms = Median(shape_ms);
    m.tail_ms = *std::max_element(shape_ms.begin(), shape_ms.end());
    m.report.push_back({"analytic.queries", static_cast<double>(m.attempted), "count"});
    totals.AppendMetrics(&m.layer);
    return m;
  }

 private:
  int64_t chain_nodes() const { return config_.toy ? 50 : 450; }

  static arc::eval::EvalOptions Options() {
    arc::eval::EvalOptions opts;
    opts.conventions = arc::Conventions::Sql();
    return opts;
  }

  arc::Result<arc::Program> Translate(const char* sql, TraceBuffer* trace) {
    auto stmt = [&] {
      ScopedSpan span(trace, Layer::kSqlParse);
      return arc::sql::ParseSelect(sql);
    }();
    if (!stmt.ok()) return stmt.status();
    ScopedSpan span(trace, Layer::kTranslate);
    arc::translate::SqlToArcOptions topts;
    topts.database = &snapshot_;
    return arc::translate::SqlToArc(**stmt, topts);
  }

  bool RunQuery(const char* sql, TraceBuffer* trace, arc::eval::EvalStats* stats,
                Relation* out, int64_t* exec_ns) {
    ScopedSpan op(trace, Layer::kOp);
    auto program = Translate(sql, trace);
    if (!program.ok()) return false;
    auto prepared = [&] {
      ScopedSpan span(trace, Layer::kPrepare);
      return arc::eval::Prepare(*program, snapshot_, Options());
    }();
    if (!prepared.ok()) return false;
    const int64_t t0 = NowNs();
    auto rows = [&] {
      ScopedSpan span(trace, Layer::kExecute);
      return arc::eval::Execute(**prepared, snapshot_, stats);
    }();
    *exec_ns = NowNs() - t0;
    if (!rows.ok()) return false;
    *out = std::move(rows).value();
    return true;
  }

  static uint64_t Row(std::initializer_list<int64_t> values) {
    std::vector<Value> row;
    for (int64_t v : values) row.push_back(Value::Int(v));
    return RowChecksum(row);
  }

  // Plain C++ over the generated rows: the reference answers.
  void ComputeExpected() {
    const Relation& r = *snapshot_.GetPtr("R");
    const Relation& s = *snapshot_.GetPtr("S");
    std::unordered_set<int64_t> s_b_c0;
    std::unordered_set<int64_t> s_b;
    for (const auto& t : s.rows()) {
      s_b.insert(t.values()[0].as_int());
      if (t.values()[1].as_int() == 0) s_b_c0.insert(t.values()[0].as_int());
    }
    std::unordered_set<int64_t> join;
    std::unordered_map<int64_t, int64_t> sums;
    Expected anti;
    for (const auto& t : r.rows()) {
      const int64_t a = t.values()[0].as_int();
      const int64_t b = t.values()[1].as_int();
      if (s_b_c0.contains(b)) join.insert(a);
      sums[a] += b;
      if (!s_b.contains(b)) {
        ++anti.rows;
        anti.checksum += Row({a});
      }
    }
    Expected j{static_cast<int64_t>(join.size()), 0};
    for (int64_t a : join) j.checksum += Row({a});
    Expected g{static_cast<int64_t>(sums.size()), 0};
    for (const auto& [a, sum] : sums) g.checksum += Row({a, sum});
    // Closure of the chain 0 -> 1 -> ... -> n-1: every pair s < t.
    Expected c;
    const int64_t n = chain_nodes();
    for (int64_t from = 0; from < n; ++from) {
      for (int64_t to = from + 1; to < n; ++to) {
        ++c.rows;
        c.checksum += Row({from, to});
      }
    }
    expected_[0] = j;
    expected_[1] = g;
    expected_[2] = anti;
    expected_[3] = c;
    expected_computed_ = true;
    std::printf("oracle: join %lld rows, groupby %lld, antijoin %lld, closure %lld\n",
                static_cast<long long>(j.rows), static_cast<long long>(g.rows),
                static_cast<long long>(anti.rows), static_cast<long long>(c.rows));
  }

  const Config config_;
  int pass_ = 0;
  Database snapshot_;
  bool expected_computed_ = false;
  Expected expected_[kShapeCount];
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytic(const Config& config) {
  return std::make_unique<Analytic>(config);
}

}  // namespace arcbench
