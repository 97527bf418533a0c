// verify_rewrites: the paper's validation loop, as a service with kClients
// workers. Each request takes one rewrite pair as ARC or SQL text, parses
// (and translates) both programs, lints both (arc::Lint), and runs
// verify::CheckEquivalent under the set (Arc) and bag (Sql) conventions at
// k = 3 with NULL in the domain. Each worker visits every pair once per
// round, in its own seeded order.
//
// Oracle: each verdict must match the known verdict, and each refutation's
// counterexample must have the known (minimal) row count.
#include <algorithm>
#include <cstdio>
#include <string>

#include "arc/lint.h"
#include "bench.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "text/parser.h"
#include "text/printer.h"
#include "translate/sql_to_arc.h"
#include "verify/bounded_eq.h"

namespace arcbench {
namespace {

enum class Source { kArc, kSql, kDecorrelated };

struct PairSpec {
  const char* name;
  Source source;
  const char* lhs;
  const char* rhs;  // unused for kDecorrelated (rhs = rewrite of lhs)
  int domain_size;
  int max_rows;
  bool holds;
  int64_t counterexample_rows;  // refuted pairs only
};

constexpr PairSpec kPairs[] = {
    {"predicate_order", Source::kArc,
     "{Q(A) | exists r in R, s in S [Q.A = r.A and r.B = s.B]}",
     "{Q(A) | exists r in R, s in S [r.B = s.B and Q.A = r.A]}", 3, 3, true, 0},
    {"alias_renaming", Source::kArc,
     "{Q(A) | exists r in R, s in S [Q.A = r.A and r.B = s.B]}",
     "{Q(A) | exists x in R, y in S [Q.A = x.A and x.B = y.B]}", 3, 3, true, 0},
    // Fig. 13: scalar subquery vs its lateral-join form.
    {"fig13_scalar_vs_lateral", Source::kSql,
     "select R.A, (select sum(S.B) from S where S.A < R.A) sm from R",
     "select R.A, X.sm from R join lateral (select sum(S.B) sm from S "
     "where S.A < R.A) X on true",
     3, 2, true, 0},
    // Eq. 17: NOT IN vs the null-safe NOT EXISTS.
    {"eq17_not_in_vs_not_exists", Source::kSql,
     "select R.A from R where R.A not in (select S.A from S)",
     "select R.A from R where not exists (select 1 from S where S.A = R.A "
     "or S.A is null or R.A is null)",
     3, 3, true, 0},
    // Eq. 27 (the count-bug query of Fig. 21a) vs its DecorrelateAggregation
    // output, the Eq. 29 left-join form. At k = 2: at k = 3 this one pair
    // takes ~3 s, longer than all the others together.
    {"eq27_decorrelated", Source::kDecorrelated,
     "{Q(id) | exists r in R [Q.id = r.id and exists s in S, gamma() "
     "[r.id = s.id and r.q = count(s.d)]]}",
     nullptr, 2, 2, true, 0},
    // Fig. 21a vs 21b: naive decorrelation drops ids with no S rows (the
    // count bug); the witness is one R row over an empty S.
    {"fig21a_vs_21b_count_bug", Source::kArc,
     "{Q(id) | exists r in R [Q.id = r.id and exists s in S, gamma() "
     "[r.id = s.id and r.q = count(s.d)]]}",
     "{Q(id) | exists r in R, x in {X(id, ct) | exists s in S, gamma(s.id) "
     "[X.id = s.id and X.ct = count(s.d)]} [Q.id = r.id and r.id = x.id and "
     "r.q = x.ct]}",
     3, 2, false, 1},
    // §2.7: unnesting an existential is a set-semantics rewrite; under bag
    // semantics one R row and two matching S rows tell the forms apart.
    {"set_bag_unnest", Source::kArc,
     "{Q(A) | exists r in R [exists s in S [Q.A = r.A and r.B = s.B]]}",
     "{Q(A) | exists r in R, s in S [Q.A = r.A and r.B = s.B]}", 3, 3, false, 3},
};
constexpr size_t kPairCount = std::size(kPairs);

class Verify : public Workload {
 public:
  explicit Verify(const Config& config) : config_(config) {}

  // Builds the request texts (the Eq. 27 pair's right side is the
  // DecorrelateAggregation rewrite of its left side, printed as ARC text),
  // then warms up.
  void Setup(TraceBuffer* trace) override {
    {
      ScopedSpan span(trace, Layer::kDataGenerate);
      rhs_texts_.clear();
      for (const PairSpec& p : kPairs) {
        std::string rhs = p.rhs == nullptr ? "" : p.rhs;
        if (p.source == Source::kDecorrelated) {
          auto parsed = arc::text::ParseProgram(p.lhs);
          if (parsed.ok()) {
            rhs = arc::text::PrintProgram(
                arc::rewrite::DecorrelateAggregation(*parsed).program);
          }
        }
        rhs_texts_.push_back(rhs);
      }
    }
    // Warm-up: every pair once at the smallest bound (k = 1, one row).
    for (size_t k = 0; k < kPairCount; ++k) {
      arc::verify::BoundedEqReport report;
      double check_s = 0;
      (void)Check(k, trace, /*domain_size=*/1, /*max_rows=*/1, &report, &check_s);
    }
  }

  Measurement Measure(double seconds, bool traced) override {
    struct Worker {
      std::vector<std::pair<size_t, double>> checks;  // (pair, ms)
      int64_t checked = 0;
      int64_t enumerated = 0;
      int64_t skipped = 0;
      int64_t failed = 0;
      double check_s = 0;
    };
    std::vector<Worker> workers(kClients);
    Measurement m;
    ++pass_;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    RunClients(kClients, traced, &m, [&](int c, TraceBuffer* trace) {
      Worker& w = workers[static_cast<size_t>(c)];
      arc::data::Rng rng(config_.seed * 13 + static_cast<uint64_t>(pass_) * 7919 +
                         static_cast<uint64_t>(c));
      size_t order[kPairCount];
      size_t next = kPairCount;
      while (NowNs() < deadline) {
        if (next == kPairCount) {
          ShuffledRound(order, kPairCount, &rng);
          next = 0;
        }
        const size_t k = order[next++];
        if (trace != nullptr) trace->BeginOp();
        arc::verify::BoundedEqReport report;
        const int64_t t0 = NowNs();
        const arc::Status status = Check(k, trace, kPairs[k].domain_size,
                                         kPairs[k].max_rows, &report, &w.check_s);
        w.checks.push_back({k, static_cast<double>(NowNs() - t0) / 1e6});
        w.checked += report.instances_checked;
        w.enumerated += report.instances_enumerated;
        w.skipped += report.instances_skipped_symmetry;
        if (!Matches(kPairs[k], status, report)) ++w.failed;
      }
    });
    m.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

    std::vector<double> all_ms;
    std::vector<double> holding_ms;
    std::vector<std::vector<double>> pair_ms(kPairCount);
    int64_t checked = 0;
    int64_t enumerated = 0;
    int64_t skipped = 0;
    double check_s = 0;
    for (const Worker& w : workers) {
      for (const auto& [k, ms] : w.checks) {
        all_ms.push_back(ms);
        pair_ms[k].push_back(ms);
        if (kPairs[k].holds) holding_ms.push_back(ms);
        m.mean_op_ms += ms;
      }
      checked += w.checked;
      enumerated += w.enumerated;
      skipped += w.skipped;
      check_s += w.check_s;
      m.failed += w.failed;
    }
    const double requests = static_cast<double>(all_ms.size());
    m.attempted = static_cast<int64_t>(all_ms.size());
    m.mean_op_ms /= requests;
    m.ops_per_s = static_cast<double>(checked) / m.elapsed_s;
    m.p50_ms = Median(holding_ms);
    m.tail_ms = Percentile(all_ms, 0.9);
    m.report = {
        {"verify.instances_per_s", m.ops_per_s, "1/s"},
        {"verify.equiv_check_ms_p50", m.p50_ms, "ms"},
        {"verify.check_ms_p90", m.tail_ms, "ms"},
        {"verify.requests", requests, "count"},
    };
    for (size_t k = 0; k < kPairCount; ++k) {
      m.report.push_back({std::string("verify.") + kPairs[k].name + ".check_ms",
                          Median(pair_ms[k]), "ms"});
    }
    m.layer = {
        {"verify.instances_checked", static_cast<double>(checked) / requests, "count"},
        {"verify.symmetry_skip_ratio",
         enumerated == 0 ? 0.0
                         : static_cast<double>(skipped) / static_cast<double>(enumerated),
         "ratio"},
        {"verify.us_per_instance",
         checked == 0 ? 0.0 : check_s * 1e6 / static_cast<double>(checked), "us"},
    };
    return m;
  }

 private:
  arc::Status Check(size_t k, TraceBuffer* trace, int domain_size,
                    int max_rows, arc::verify::BoundedEqReport* out,
                    double* check_s) {
    ScopedSpan op(trace, Layer::kOp);
    // SQL pairs go through the SQL front end, the others are ARC text.
    const auto parse = [&](const std::string& text) -> arc::Result<arc::Program> {
      if (kPairs[k].source != Source::kSql) {
        ScopedSpan span(trace, Layer::kArcParse);
        return arc::text::ParseProgram(text);
      }
      auto stmt = [&] {
        ScopedSpan span(trace, Layer::kSqlParse);
        return arc::sql::ParseSelect(text);
      }();
      if (!stmt.ok()) return stmt.status();
      ScopedSpan span(trace, Layer::kTranslate);
      return arc::translate::SqlToArc(**stmt);
    };
    auto lhs = parse(kPairs[k].lhs);
    if (!lhs.ok()) return lhs.status();
    auto rhs = parse(rhs_texts_[k]);
    if (!rhs.ok()) return rhs.status();
    for (const arc::Program* p : {&*lhs, &*rhs}) {
      ScopedSpan span(trace, Layer::kArcLint);
      arc::LintResult lint = arc::Lint(*p);
      (void)lint;
    }
    ScopedSpan span(trace, Layer::kVerifyCheck);
    const int64_t t0 = NowNs();
    auto signature = arc::verify::InferSignature(*lhs, *rhs, nullptr);
    if (!signature.ok()) return signature.status();
    arc::verify::BoundedEqOptions opts;
    opts.domain_size = domain_size;
    opts.max_rows = max_rows;
    opts.include_null = true;
    opts.conventions = {arc::Conventions::Arc(), arc::Conventions::Sql()};
    auto report = arc::verify::CheckEquivalent(*lhs, *rhs, *signature, opts);
    *check_s += static_cast<double>(NowNs() - t0) / 1e9;
    if (!report.ok()) return report.status();
    *out = std::move(report).value();
    return arc::Status::Ok();
  }

  static bool Matches(const PairSpec& p, const arc::Status& status,
                      const arc::verify::BoundedEqReport& report) {
    bool ok = status.ok() && report.holds == p.holds && report.eval_failures == 0;
    if (ok && !p.holds) {
      ok = report.counterexample.has_value() &&
           report.counterexample->total_rows == p.counterexample_rows;
    }
    if (!ok) {
      std::fprintf(stderr, "verify: %s: %s\n", p.name,
                   status.ok() ? report.ToString().c_str()
                               : status.ToString().c_str());
    }
    return ok;
  }

  const Config config_;
  int pass_ = 0;
  std::vector<std::string> rhs_texts_;
};

}  // namespace

std::unique_ptr<Workload> MakeVerify(const Config& config) {
  return std::make_unique<Verify>(config);
}

}  // namespace arcbench
