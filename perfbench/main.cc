// arcbench: one workload of the ARC end-to-end benchmark per invocation.
//
//   arcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--toy] [--out-dir DIR]
//
// Sets the workload up several times (set-up time is the median), measures
// it closed-loop for S seconds, runs its correctness oracle, and prints one
// JSON line last: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end figures; with --trace 1 the
// run is split into an untraced and a traced pass and the metrics are the
// per-layer figures derived from spans plus the tracing overhead. Details
// (the workload's figures under their design names, set-up samples) go to
// DIR/<workload>-seed<N>-trace<T>.json, spans to DIR/...-spans.csv.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace arcbench {
namespace {

// Every per-layer metric, printed by every workload (0 where the workload
// does not exercise that layer). Must match BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"sql.parse_us", "us"},
      {"translate.sql_to_arc_us", "us"},
      {"eval.plan_cache.lookup_us", "us"},
      {"eval.plan_cache.hit_ratio", "ratio"},
      {"eval.prepare_ms", "ms"},
      {"eval.prepare_first_ms", "ms"},
      {"eval.execute_ms", "ms"},
      {"eval.rows_scanned", "count"},
      {"eval.index_hit_ratio", "ratio"},
      {"eval.rows_per_batch", "count"},
      {"eval.scope_evaluations", "count"},
      {"eval.fixpoint_iterations", "count"},
      {"eval.dedup_hits", "count"},
      {"data.generate_s", "s"},
      {"data.snapshot_ms", "ms"},
      {"data.append_ms", "ms"},
      {"arc.parse_us", "us"},
      {"arc.lint_us", "us"},
      {"verify.check_ms", "ms"},
      {"verify.instances_checked", "count"},
      {"verify.symmetry_skip_ratio", "ratio"},
      {"verify.us_per_instance", "us"},
      {"analytic.join_s", "s"},
      {"analytic.groupby_s", "s"},
      {"analytic.antijoin_s", "s"},
      {"analytic.closure_s", "s"},
      {"share.sql", "%"},
      {"share.translate", "%"},
      {"share.plan_cache", "%"},
      {"share.prepare", "%"},
      {"share.execute", "%"},
      {"share.data", "%"},
      {"share.arc", "%"},
      {"share.verify", "%"},
      {"share.bench", "%"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

struct Args {
  Config config;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      args->config.toy = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->config.workload = value;
    } else if (flag == "--seed") {
      args->config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->config.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->config.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->config.workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Config& c) {
  if (c.workload == "served_sql") return MakeServed(c);
  if (c.workload == "analytic_200k") return MakeAnalytic(c);
  if (c.workload == "append_reseal") return MakeAppend(c);
  if (c.workload == "verify_rewrites") return MakeVerify(c);
  return nullptr;
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Runs one set-up on a thread pinned to `cpu` (-1: unpinned); returns its
// wall time in seconds.
double TimedSetup(Workload* workload, TraceBuffer* trace, int cpu) {
  double seconds = 0;
  std::thread thread([&] {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
    const int64_t t0 = NowNs();
    workload->Setup(trace);
    seconds = static_cast<double>(NowNs() - t0) / 1e9;
  });
  thread.join();
  return seconds;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Every digit of the measured value, so equal readings are genuine.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace
}  // namespace arcbench

int main(int argc, char** argv) {
  using namespace arcbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: arcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--toy] [--out-dir DIR]\n");
    return 2;
  }
  if (std::strcmp(ARCBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "arcbench: refusing to measure a %s build\n",
                 ARCBENCH_BUILD_TYPE[0] ? ARCBENCH_BUILD_TYPE : "(untyped)");
    return 2;
  }
  const Config& config = args.config;
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) {
    std::fprintf(stderr, "arcbench: unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }

  // Set up several times and report the median: at least five times, and
  // while less than half a second has gone into it, up to 101 (an odd
  // count).
  // Set-up is single-threaded, and on a shared virtual machine one core can
  // run 30% slower than another for tens of seconds, so each repetition
  // runs on the next CPU the process may use.
  const std::vector<int> cpus = AllowedCpus();
  TraceBuffer setup_trace;
  std::vector<double> setup_samples;
  double setup_total_s = 0;
  while (setup_samples.size() < 5 ||
         (setup_total_s < 0.5 && setup_samples.size() < 101) ||
         setup_samples.size() % 2 == 0) {
    const int cpu = cpus.empty() ? -1 : cpus[setup_samples.size() % cpus.size()];
    setup_samples.push_back(TimedSetup(workload.get(),
                                       config.trace ? &setup_trace : nullptr, cpu));
    setup_total_s += setup_samples.back();
  }

  Measurement m;
  double overhead_pct = 0;
  int64_t untraced_attempted = 0;
  int64_t untraced_failed = 0;
  if (!config.trace) {
    m = workload->Measure(config.seconds, false);
  } else {
    Measurement plain = workload->Measure(config.seconds * 0.3, false);
    m = workload->Measure(config.seconds * 0.7, true);
    overhead_pct = 100.0 * (m.mean_op_ms / plain.mean_op_ms - 1.0);
    untraced_attempted = plain.attempted;
    untraced_failed = plain.failed;
  }
  // Read before the oracle runs: the independent engine's memory is not the
  // system under test's.
  const double peak_rss_mb = PeakRssMb();
  const int64_t oracle_start = NowNs();
  const int64_t late_failed = workload->CheckAfterMeasure();
  const double oracle_s = static_cast<double>(NowNs() - oracle_start) / 1e9;
  const int64_t attempted = m.attempted + untraced_attempted;
  const int64_t failed = m.failed + untraced_failed + late_failed;
  const double setup_s = Median(setup_samples);

  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ops_per_s", m.ops_per_s, "1/s"},
        {"p50_ms", m.p50_ms, "ms"},
        {"tail_ms", m.tail_ms, "ms"},
    };
  } else {
    std::vector<const TraceBuffer*> buffers = {&setup_trace};
    for (const auto& b : m.traces) buffers.push_back(b.get());
    std::vector<Metric> measured = m.layer;
    AppendSpanMetrics(buffers, &measured);
    measured.push_back({"trace.overhead_pct", overhead_pct, "%"});
    std::map<std::string, double> by_name;
    for (const Metric& x : measured) by_name[x.name] = x.value;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = by_name.find(name);
      metrics.push_back({name, it == by_name.end() ? 0.0 : it->second, unit});
      if (it != by_name.end()) by_name.erase(it);
    }
    if (!by_name.empty()) {
      std::fprintf(stderr, "arcbench: metric %s is not declared\n",
                   by_name.begin()->first.c_str());
      return 3;
    }
    const std::string spans_path = args.out_dir + "/" + config.workload + "-seed" +
                                   std::to_string(config.seed) + "-spans.csv";
    if (!WriteSpans(buffers, spans_path)) {
      std::fprintf(stderr, "arcbench: cannot write %s\n", spans_path.c_str());
      return 3;
    }
  }

  // Human-readable report under the design's names.
  std::vector<Metric> report = m.report;
  report.push_back({"setup_s", setup_s, "s"});
  report.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  report.push_back({"oracle_s", oracle_s, "s"});
  report.push_back({"error_rate",
                    attempted == 0 ? 1.0
                                   : static_cast<double>(failed) /
                                         static_cast<double>(attempted),
                    "ratio"});
  for (const Metric& r : report) {
    std::printf("%s %s = %s %s\n", config.workload.c_str(), r.name.c_str(),
                Number(r.value).c_str(), r.unit.c_str());
  }

  const std::string detail_path = args.out_dir + "/" + config.workload + "-seed" +
                                  std::to_string(config.seed) + "-trace" +
                                  (config.trace ? "1" : "0") + ".json";
  std::vector<Metric> samples;
  for (size_t i = 0; i < setup_samples.size(); ++i) {
    samples.push_back({"setup_" + std::to_string(i), setup_samples[i], "s"});
  }
  std::ofstream detail(detail_path);
  detail << "{\"workload\": \"" << config.workload << "\", \"seed\": " << config.seed
         << ", \"seconds\": " << Number(config.seconds)
         << ", \"trace\": " << (config.trace ? 1 : 0)
         << ", \"toy\": " << (config.toy ? "true" : "false")
         << ", \"build_type\": \"" << ARCBENCH_BUILD_TYPE << "\""
         << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ", \"elapsed_s\": " << Number(m.elapsed_s)
         << ", \"report\": " << MetricsJson(report)
         << ", \"layer\": " << MetricsJson(m.layer)
         << ", \"setup_samples\": " << MetricsJson(samples)
         << ", \"metrics\": " << MetricsJson(metrics) << "}\n";
  detail.close();
  if (!detail) {
    std::fprintf(stderr, "arcbench: cannot write %s\n", detail_path.c_str());
    return 3;
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  return 0;
}
