// served_sql: closed-loop SQL serving, first with one client, then with
// kClients. Each client thread sends its next request when the previous
// one returns. A request is SQL text → sql::ParseSelect →
// translate::SqlToArc → PlanCache::GetOrPrepare → eval::Execute, against
// one shared sealed snapshot and one shared plan cache. Texts come from the
// paper's SQL shapes with a seeded literal: most draws come from a small hot
// pool (plan-cache hits), the rest from a larger cold pool that the LRU
// keeps evicting (misses and re-Prepare).
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "translate/sql_to_arc.h"

namespace arcbench {
namespace {

using arc::data::Database;
using arc::data::Relation;
using arc::data::Rng;
using arc::data::Schema;
using arc::data::Value;

// One SQL shape; every "%lld" is replaced by the same literal, drawn from
// [lo, hi). The four O(N^2) shapes (NOT IN, LEFT JOIN, correlated scalar
// subqueries, grouped join) run over the ~10^2-row tables T, U, Emp, Sal,
// CR, CS so that no single template dominates the mix. The NOT IN literal
// keeps its subquery non-empty: sql::SqlEvaluator answers NULL NOT IN (empty
// set) with unknown where SQL (and the ARC translation) give true.
struct Template {
  const char* tag;
  const char* sql;
  int64_t lo;
  int64_t hi;
};

// Catalog: R(A,B), S(B,C) with ~10^3 rows (Fig. 2 substrate), P a chain,
// T(A,B) with NULLs in B, U(B,C), Emp(empl,dept)/Sal(empl,sal) (§2.5) and
// CR(id,q)/CS(id,d) (the count-bug instance of Fig. 21).
constexpr Template kTemplates[] = {
    {"corpus_filter", "select R.A from R where R.B > %lld", 380, 500},
    {"corpus_groupby",
     "select R.A, sum(R.B) sm from R where R.A < %lld group by R.A", 40, 500},
    {"fig2_join",
     "select R.A from R, S where R.B = S.B and S.C = 0 and R.A < %lld", 40,
     500},
    {"corpus_not_exists",
     "select distinct R.A from R where R.A < %lld and not exists "
     "(select 1 from S where S.B = R.B)",
     40, 500},
    {"e10_not_in",
     "select T.A from T where T.B not in (select U.B from U where U.C < %lld)",
     18, 50},
    {"e10_null_safe_not_exists",
     "select T.A from T where T.A < %lld and not exists (select 1 from U "
     "where U.B = T.B or U.B is null or T.B is null)",
     1, 50},
    {"corpus_scalar_count",
     "select T.A, (select count(U.C) from U where U.B = T.B) c from T "
     "where T.A < %lld",
     1, 50},
    {"e11_left_join",
     "select T.A, U.C from T left join U on T.B = U.B where T.A < %lld", 1,
     50},
    {"corpus_union",
     "select R.A from R where R.B = %lld union select S.C from S where "
     "S.B = %lld",
     0, 496},
    {"corpus_recursive",
     "with recursive A as (select P.s, P.t from P union select P.s, A.t "
     "from P, A where P.t = A.s) select A.s, A.t from A where A.s < %lld",
     2, 18},
    {"corpus_derived_having",
     "select R.dept2, avg(R.B) av from (select R.A dept2, R.B from R) R "
     "group by R.dept2 having sum(R.B) > %lld",
     0, 1000},
    {"e3_e5_group_having",
     "select Emp.dept, avg(Sal.sal) av from Emp, Sal where Emp.empl = "
     "Sal.empl group by Emp.dept having sum(Sal.sal) > %lld",
     0, 1000},
    {"e12_scalar_subquery",
     "select T.A, (select sum(U.C) from U where U.B < T.A) sm from T "
     "where T.A < %lld",
     1, 50},
    {"e18_count_bug",
     "select CR.id from CR where CR.id < %lld and CR.q = "
     "(select count(CS.d) from CS where CS.id = CR.id)",
     4, 100},
};
constexpr int kTemplateCount = static_cast<int>(std::size(kTemplates));
// Literal pools: 90% of draws from 2 hot literals per template, the rest
// from 6 cold ones. The plan cache holds 48 plans: all 28 hot texts stay
// cached while the 84 cold texts keep getting evicted, so cold draws are
// misses. Few literals keep the post-run oracle (one SqlEvaluator call per
// distinct text) short.
constexpr int kHotLiterals = 2;
constexpr int kColdLiterals = 6;
constexpr int kLiterals = kHotLiterals + kColdLiterals;
constexpr double kHotFraction = 0.9;
constexpr size_t kPlanCacheCapacity = 48;
constexpr int kStrata[kLiterals] = {2, 5, 0, 1, 3, 4, 6, 7};
// A phase reports its faster one-second windows (FasterWindows); a window
// holds thousands of requests at either client count, so its p99 has tens of
// samples beyond it.
constexpr int64_t kWindowNs = 1'000'000'000;

Database BuildCatalog(uint64_t seed, bool toy) {
  const int64_t big = toy ? 100 : 1000;
  const int64_t small = toy ? 20 : 100;
  Database db = arc::data::TrcInstance(big, big / 2, 0.3, seed);
  db.Put("P", *arc::data::ParentChain(toy ? 10 : 20).Get("P"));
  Relation t = arc::data::RandomBinary(small, 50, 0.1, 0.05, seed + 1);
  db.Put("T", Relation(Schema{"A", "B"}, t.rows()));
  Relation u = arc::data::RandomBinary(small, 50, 0.0, 0.0, seed + 2);
  db.Put("U", Relation(Schema{"B", "C"}, u.rows()));
  Database emp = arc::data::EmployeeInstance(small, 8, 10, 99, seed + 3);
  db.Put("Emp", *emp.Get("R"));
  db.Put("Sal", *emp.Get("S"));
  Rng rng(seed + 4);
  Relation cr(Schema{"id", "q"});
  Relation cs(Schema{"id", "d"});
  for (int64_t id = 0; id < small; ++id) {
    cr.Add({Value::Int(id), Value::Int(rng.Below(3))});
    const int64_t n = rng.Below(3);
    for (int64_t i = 0; i < n; ++i) {
      cs.Add({Value::Int(id), Value::Int(rng.Below(6))});
    }
  }
  db.Put("CR", std::move(cr));
  db.Put("CS", std::move(cs));
  return db;
}

std::string Render(const Template& t, int64_t literal) {
  char buf[512];
  const auto v = static_cast<long long>(literal);
  std::snprintf(buf, sizeof(buf), t.sql, v, v);
  return buf;
}

// The first response seen for one text; later responses must match it, and
// after the run it is compared against the independent SQL evaluator.
struct Entry {
  std::string text;
  std::mutex mu;
  bool seen = false;
  Relation first;
  uint64_t checksum = 0;
  int64_t rows = 0;
  int64_t requests = 0;
};

class Served : public Workload {
 public:
  explicit Served(const Config& config) : config_(config) {
    // Literal i lies at a seeded point of the i-th of kLiterals equal
    // strata of the template's range, so every seed draws a different but
    // equally costly mix (hot literals are always strata 2 and 5).
    Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
    for (int t = 0; t < kTemplateCount; ++t) {
      const Template& tpl = kTemplates[t];
      const int64_t width = (tpl.hi - tpl.lo) / kLiterals;
      for (int i = 0; i < kLiterals; ++i) {
        const int stratum = kStrata[i];
        const int64_t v = tpl.lo + stratum * width + rng.Below(width);
        entries_[t * kLiterals + i].text = Render(tpl, v);
      }
    }
  }

  void Setup(TraceBuffer* trace) override {
    cache_.reset();
    snapshot_ = Database();
    Database db;
    {
      ScopedSpan span(trace, Layer::kDataGenerate);
      db = BuildCatalog(config_.seed, config_.toy);
    }
    {
      ScopedSpan span(trace, Layer::kDataSnapshot);
      snapshot_ = db.Snapshot();
    }
    cache_ = std::make_unique<arc::eval::PlanCache>(kPlanCacheCapacity);
    // Warm-up: every template once, with its first hot literal.
    for (int t = 0; t < kTemplateCount; ++t) {
      ClientState warm;
      warm.trace = trace;
      Relation out;
      Serve(entries_[t * kLiterals].text, &warm, &out);
    }
  }

  // A quarter of the time with one client, then the rest with kClients;
  // the end-to-end figures are those of the kClients phase.
  Measurement Measure(double seconds, bool traced) override {
    const arc::eval::PlanCache::Stats before = cache_->stats();
    Measurement m;
    EvalTotals totals;
    const Phase one = RunPhase(1, seconds / 4, traced, &m, &totals);
    const Phase many = RunPhase(kClients, seconds * 3 / 4, traced, &m, &totals);
    m.elapsed_s = one.elapsed_s + many.elapsed_s;
    m.mean_op_ms /= static_cast<double>(m.attempted);
    m.ops_per_s = many.windows.ops_per_s;
    m.p50_ms = many.windows.p50_ms;
    m.tail_ms = many.windows.tail_ms;
    m.report = {
        {"served.qps_1c", one.windows.ops_per_s, "1/s"},
        {"served.p50_ms_1c", one.windows.p50_ms, "ms"},
        {"served.p99_ms_1c", one.windows.tail_ms, "ms"},
        {"served.qps_" + std::to_string(kClients) + "c", m.ops_per_s, "1/s"},
        {"served.p50_ms", m.p50_ms, "ms"},
        {"served.p99_ms", m.tail_ms, "ms"},
        {"served.requests", static_cast<double>(m.attempted), "count"},
    };
    m.layer.push_back(
        {"eval.plan_cache.hit_ratio", HitRatio(before, cache_->stats()), "ratio"});
    totals.AppendMetrics(&m.layer);
    return m;
  }

  // The SQL evaluator only reads the sealed snapshot's rows, so the texts
  // are checked on several threads.
  int64_t CheckAfterMeasure() override {
    std::atomic<size_t> next{0};
    std::atomic<int64_t> wrong{0};
    const auto check = [&] {
      arc::sql::SqlEvaluator direct(snapshot_);
      for (size_t i = next++; i < std::size(entries_); i = next++) {
        Entry& e = entries_[i];
        if (!e.seen) continue;
        auto expected = direct.EvalQuery(e.text);
        if (!expected.ok() || !expected->EqualsBag(e.first)) {
          std::fprintf(stderr, "served: %s differs from SqlEvaluator: %s\n",
                       kTemplates[i / kLiterals].tag, e.text.c_str());
          wrong += e.requests;
        }
      }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) threads.emplace_back(check);
    for (std::thread& t : threads) t.join();
    return wrong;
  }

 private:
  struct ClientState {
    TraceBuffer* trace = nullptr;
    uint64_t rng_seed = 0;
    std::vector<TimedOp> ops;
    EvalTotals totals;
    int64_t failed = 0;
  };

  struct Phase {
    double elapsed_s = 0;
    WindowFigures windows;  // tail_ms is the p99
  };

  Phase RunPhase(int clients, double seconds, bool traced, Measurement* m,
                 EvalTotals* totals) {
    std::vector<ClientState> states(static_cast<size_t>(clients));
    ++pass_;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    RunClients(clients, traced, m, [&](int c, TraceBuffer* trace) {
      ClientState& st = states[static_cast<size_t>(c)];
      st.trace = trace;
      st.rng_seed = config_.seed * 1000003ULL + static_cast<uint64_t>(c) * 7919ULL +
                    static_cast<uint64_t>(pass_) * 104729ULL;
      ClientLoop(&st, deadline);
    });
    Phase phase;
    phase.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    std::vector<TimedOp> ops;
    for (const ClientState& st : states) {
      ops.insert(ops.end(), st.ops.begin(), st.ops.end());
      for (const TimedOp& op : st.ops) m->mean_op_ms += op.ms;
      m->attempted += static_cast<int64_t>(st.ops.size());
      m->failed += st.failed;
      totals->Merge(st.totals);
    }
    phase.windows = FasterWindows(ops, start, seconds, kWindowNs, 0.99);
    return phase;
  }

  // Text to rows. Returns false (and leaves `out` empty) on any error.
  bool Serve(const std::string& text, ClientState* st, Relation* out) {
    auto stmt = [&] {
      ScopedSpan span(st->trace, Layer::kSqlParse);
      return arc::sql::ParseSelect(text);
    }();
    if (!stmt.ok()) return false;
    auto program = [&] {
      ScopedSpan span(st->trace, Layer::kTranslate);
      arc::translate::SqlToArcOptions topts;
      topts.database = &snapshot_;
      return arc::translate::SqlToArc(**stmt, topts);
    }();
    if (!program.ok()) return false;
    auto prepared = [&] {
      ScopedSpan span(st->trace, Layer::kPlanCacheLookup);
      arc::eval::EvalOptions opts;
      opts.conventions = arc::Conventions::Sql();
      auto p = cache_->GetOrPrepare(*program, snapshot_, opts);
      if (st->trace != nullptr && p.ok() && FirstSight(*p)) {
        span.Relabel(Layer::kPrepare);
      }
      return p;
    }();
    if (!prepared.ok()) return false;
    arc::eval::EvalStats stats;
    auto rows = [&] {
      ScopedSpan span(st->trace, Layer::kExecute);
      return arc::eval::Execute(**prepared, snapshot_, &stats);
    }();
    if (!rows.ok()) return false;
    st->totals.Add(stats);
    *out = std::move(rows).value();
    return true;
  }

  // Traced runs only: true when this GetOrPrepare returned a plan no
  // earlier call returned, i.e. it was prepared (a miss). Plans are kept
  // alive here so an evicted plan's address cannot be reused by a new one.
  bool FirstSight(const std::shared_ptr<const arc::eval::PreparedQuery>& p) {
    std::lock_guard<std::mutex> lock(seen_mu_);
    return seen_plans_.insert(p).second;
  }

  void ClientLoop(ClientState* st, int64_t deadline) {
    Rng rng(st->rng_seed);
    while (NowNs() < deadline) {
      const int t = static_cast<int>(rng.Below(kTemplateCount));
      const int li = rng.NextDouble() < kHotFraction
                         ? static_cast<int>(rng.Below(kHotLiterals))
                         : kHotLiterals + static_cast<int>(rng.Below(kColdLiterals));
      Entry& e = entries_[t * kLiterals + li];
      if (st->trace != nullptr) st->trace->BeginOp();
      Relation result;
      const int64_t t0 = NowNs();
      bool ok = false;
      {
        ScopedSpan op(st->trace, Layer::kOp);
        ok = Serve(e.text, st, &result);
      }
      const int64_t done = NowNs();
      st->ops.push_back({done, static_cast<double>(done - t0) / 1e6});
      if (!ok) {
        ++st->failed;
        continue;
      }
      const uint64_t sum = RelationChecksum(result);
      std::lock_guard<std::mutex> lock(e.mu);
      ++e.requests;
      if (!e.seen) {
        e.seen = true;
        e.checksum = sum;
        e.rows = result.size();
        e.first = std::move(result);
      } else if (e.checksum != sum || e.rows != result.size()) {
        ++st->failed;
      }
    }
  }

  const Config config_;
  int pass_ = 0;
  Entry entries_[kTemplateCount * kLiterals];
  Database snapshot_;
  std::unique_ptr<arc::eval::PlanCache> cache_;
  std::mutex seen_mu_;
  std::unordered_set<std::shared_ptr<const arc::eval::PreparedQuery>> seen_plans_;
};

}  // namespace

std::unique_ptr<Workload> MakeServed(const Config& config) {
  return std::make_unique<Served>(config);
}

}  // namespace arcbench
