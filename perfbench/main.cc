// ytbench — the repository benchmark binary.
//
//   ytbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <path>] [--source <id>]
//   ytbench --selftest
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics,
// their times at the nominal host speed (see ReferenceKernelMs in common.h).
// --trace 1 runs it untraced for half the time and traced for the other
// half, writes the traced half's spans as Chrome trace-event JSON to
// --trace-out, and reports the per-layer metrics (obs.trace_overhead
// compares the two halves). The last line of standard output is the result
// object; the line before it carries the run's provenance.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"

#ifndef YTBENCH_BUILD_TYPE
#define YTBENCH_BUILD_TYPE "unknown"
#endif

namespace ytbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"committed_per_s", "1/s"},
    {"batch_p50_ms", "ms"},
    {"batch_p99_ms", "ms"},
    {"update_p50_us", "us"},
    {"update_p99_us", "us"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

// Every workload reports every per-layer metric; a layer that does no work
// on a workload reports 0 there.
constexpr Metric kPerLayer[] = {
    {"parallel.submit_mean_us", "us"},
    {"parallel.flush_mean_ms", "ms"},
    {"parallel.producer_stall_s", "s"},
    {"parallel.inbox_wait_mean_us", "us"},
    {"parallel.chase_busy_s", "s"},
    {"parallel.worker_utilisation", "share"},
    {"parallel.shard_busy_imbalance", "max/mean"},
    {"parallel.cross_shard_ops", "count"},
    {"parallel.escaped_ops", "count"},
    {"parallel.cross_batches", "count"},
    {"parallel.cross_batch_mean_us", "us"},
    {"parallel.admission_mean_us", "us"},
    {"ccontrol.aborts_per_commit", "count/commit"},
    {"ccontrol.direct_aborts_per_commit", "count/commit"},
    {"ccontrol.cascade_requests_per_commit", "count/commit"},
    {"ccontrol.doom_violation", "count/commit"},
    {"ccontrol.doom_more_specific", "count/commit"},
    {"ccontrol.doom_null_occurrence", "count/commit"},
    {"ccontrol.doom_cascade", "count/commit"},
    {"ccontrol.read_queries_per_commit", "count/commit"},
    {"ccontrol.wasted_step_share", "share"},
    {"ccontrol.overhead_share", "share"},
    {"core.steps_per_commit", "count/commit"},
    {"core.step_mean_us", "us"},
    {"core.step_p99_us", "us"},
    {"core.frontier_ops_per_commit", "count/commit"},
    {"core.top_component_share", "share"},
    {"query.rows_examined_per_step", "count/step"},
    {"query.eval_mean_us", "us"},
    {"query.eval_p99_us", "us"},
    {"query.answers_per_query", "count/query"},
    {"tgd.parse_mean_us", "us"},
    {"relational.physical_writes_per_commit", "count/commit"},
    {"relational.visible_tuples_end", "count"},
    {"relational.scan_ns_per_tuple", "ns"},
    {"obs.trace_overhead", "share"},
};

RunResult RunWorkload(const std::string& workload, const RunOptions& opt) {
  if (workload == "ingest-islands") return RunIngestIslands(opt);
  if (workload == "serial-dense") return RunSerialDense(opt);
  return RunInteractiveMixed(opt);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The tail quantile a sample set supports: 0.99 when at least ten samples
// lie beyond it, else the highest quantile that leaves ten beyond it.
double TailQuantile(const TimeSamples& s) {
  const double n = static_cast<double>(s.size());
  return n >= 1000 ? 0.99 : std::max(0.5, 1.0 - 10.0 / std::max(n, 1.0));
}

double CommittedPerS(const RunResult& r) {
  return r.round_rate.nominal.Quantile(0.5);
}

// How much slower than nominal the host ran: the run's median
// reference-kernel time over kReferenceNominalMs (provenance only; every
// sample was scaled by the kernel run just before it).
double HostSlowdown(const RunResult& r) {
  const double ref = r.reference_ms.Quantile(0.5);
  return ref > 0 ? ref / kReferenceNominalMs : 1.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ytbench --workload <ingest-islands|serial-dense|"
               "interactive-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--source <id>]\n"
               "       ytbench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out = "trace.json", source = "unknown";
  RunOptions opt;
  int trace = -1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--source" && has_value) {
      source = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selftest) {
    const bool ok = SelfTestIngestIslands() & SelfTestSerialDense() &
                    SelfTestInteractiveMixed();
    std::printf("selftest: %s\n", ok ? "every check rejected its corruption"
                                     : "FAILED");
    return ok ? 0 : 1;
  }
  if ((workload != "ingest-islands" && workload != "serial-dense" &&
       workload != "interactive-mixed") ||
      (trace != 0 && trace != 1) || !(opt.seconds > 0)) {
    return Usage();
  }

  RunResult res;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<const Metric*> units;
  std::string measured_json;  // the end-to-end values as measured
  if (trace == 0) {
    res = RunWorkload(workload, opt);
    // Each time metric at the nominal host speed, and as measured.
    auto values = [&](bool nominal) {
      auto pick = [nominal](const TimeSamples& t) -> const Samples& {
        return nominal ? t.nominal : t.measured;
      };
      return std::vector<double>{
          pick(res.setup_s).Quantile(0.5),
          pick(res.round_rate).Quantile(0.5),
          pick(res.batch_ms).Quantile(0.5),
          pick(res.batch_ms).Quantile(TailQuantile(res.batch_ms)),
          pick(res.update_us).Quantile(0.5),
          pick(res.update_us).Quantile(TailQuantile(res.update_us)),
          pick(res.query_us).Quantile(0.5),
          pick(res.query_us).Quantile(TailQuantile(res.query_us)),
          PeakRssMb(),
      };
    };
    const std::vector<double> nominal = values(true), measured = values(false);
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i].name, nominal[i]);
      units.push_back(&kEndToEnd[i]);
      measured_json += (i ? ", \"" : "{\"") + std::string(kEndToEnd[i].name) +
                       "\": " + Num(measured[i]);
    }
    measured_json += "}";
  } else {
    RunOptions half = opt;
    half.seconds = opt.seconds / 2;
    const RunResult untraced = RunWorkload(workload, half);
    half.traced = true;
    SpanRecorder::Get().SetEnabled(true);
    res = RunWorkload(workload, half);
    SpanRecorder::Get().SetEnabled(false);
    if (!SpanRecorder::Get().WriteChromeJson(trace_out)) {
      res.Fail("cannot write the trace to " + trace_out);
    }
    // Both halves' rates are at the nominal host speed, so host drift
    // between the halves does not show as tracing cost.
    const double base = CommittedPerS(untraced);
    res.layer["obs.trace_overhead"] =
        base > 0 ? 1.0 - CommittedPerS(res) / base : 0;
    res.attempted += untraced.attempted;
    res.failed += untraced.failed;
    for (const std::string& e : untraced.errors) res.Fail("untraced: " + e);
    res.Note("spans", static_cast<double>(SpanRecorder::Get().size()));
    res.Note("spans_dropped",
             static_cast<double>(SpanRecorder::Get().dropped()));
    res.Note("trace_file", "\"" + trace_out + "\"");
    for (const Metric& m : kPerLayer) {
      auto it = res.layer.find(m.name);
      metrics.emplace_back(m.name, it == res.layer.end() ? 0.0 : it->second);
      units.push_back(&m);
    }
  }

  // Human-readable table, provenance, then the result object.
  for (const std::string& e : res.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%-40s %16.6f %s\n", metrics[i].first.c_str(),
                metrics[i].second, units[i]->unit);
  }
  std::string prov = "{\"workload\": \"" + workload + "\", \"seed\": " +
                     Num(static_cast<double>(opt.seed)) +
                     ", \"seconds\": " + Num(opt.seconds) +
                     ", \"trace\": " + std::to_string(trace) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" YTBENCH_BUILD_TYPE
                     "\", \"source\": \"" + source + "\"" +
                     ", \"attempted\": " + Num(static_cast<double>(res.attempted)) +
                     ", \"committed\": " + Num(static_cast<double>(res.committed)) +
                     ", \"measured_s\": " + Num(res.measured_s) +
                     ", \"rate_samples\": " + std::to_string(res.round_rate.size()) +
                     ", \"setup_samples\": " + std::to_string(res.setup_s.size()) +
                     ", \"batch_samples\": " + std::to_string(res.batch_ms.size()) +
                     ", \"update_samples\": " + std::to_string(res.update_us.size()) +
                     ", \"query_samples\": " + std::to_string(res.query_us.size()) +
                     ", \"batch_tail_quantile\": " + Num(TailQuantile(res.batch_ms)) +
                     ", \"update_tail_quantile\": " + Num(TailQuantile(res.update_us)) +
                     ", \"query_tail_quantile\": " + Num(TailQuantile(res.query_us)) +
                     ", \"reference_ms_p50\": " + Num(res.reference_ms.Quantile(0.5)) +
                     ", \"reference_samples\": " + std::to_string(res.reference_ms.size()) +
                     ", \"host_slowdown\": " + Num(HostSlowdown(res));
  if (!measured_json.empty()) prov += ", \"measured_metrics\": " + measured_json;
  for (const auto& [key, value] : res.provenance) {
    prov += ", \"" + key + "\": " + value;
  }
  std::printf("provenance: %s}\n", prov.c_str());

  std::string out = "{\"correct\": " + std::string(res.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
           Num(metrics[i].second) + ", \"unit\": \"" + units[i]->unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ytbench

int main(int argc, char** argv) { return ytbench::Main(argc, argv); }
