// The repository benchmark program (perfbench/run.py builds and runs it):
//
//   aplus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>]
//
// Workloads: wire_point, fraud_tuned, seg_recs (see
// perfbench/METRICS.md). The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics the workload exercises with
// --trace 1 (run.py adds the rest as 0 from BENCHMARK.json). The line
// before it is the run's determinism record. Exit code 0 only when every
// answer check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "common.h"
#include "query/intersect_kernels.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload wire_point|fraud_tuned|seg_recs --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || options.seconds <= 0.0 || argc % 2 != 1) return Usage(argv[0]);
  ::mkdir(options.work_dir.c_str(), 0755);

  Report report;
  double ref_ms = perfbench::RefLoopMs();
  report.Record("workload", "\"" + options.workload + "\"");
  report.Record("seed", static_cast<double>(options.seed));
  report.Record("trace", options.trace ? 1.0 : 0.0);
  report.Record("seconds", options.seconds);
  report.Record("host_ref_loop_ms", ref_ms);
  report.Record("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Record("simd_level",
                std::string("\"") + aplus::simd::ToString(aplus::simd::ActiveLevel()) + "\"");
  report.Record("l3_bytes", 105.0 * 1024 * 1024);

  if (options.workload == "wire_point") {
    perfbench::RunWirePoint(options, &report);
  } else if (options.workload == "fraud_tuned") {
    perfbench::RunFraudTuned(options, &report);
  } else if (options.workload == "seg_recs") {
    perfbench::RunSegRecs(options, &report);
  } else {
    return Usage(argv[0]);
  }

  if (options.trace) {
    report.Metric("host.ref_loop_ms", ref_ms, "ms");
    std::string csv = options.work_dir + "/spans-" + options.workload + "-" +
                      std::to_string(options.seed) + ".csv";
    uint64_t written = perfbench::trace::WriteCsv(csv, 200000);
    report.Record("spans_recorded", static_cast<double>(perfbench::trace::SpanCount()));
    report.Record("spans_written", static_cast<double>(written));
  }
  report.Record("answer_checks", static_cast<double>(report.checks()));
  report.WriteRecord(options);
  report.Print();
  return report.correct() ? 0 : 1;
}
