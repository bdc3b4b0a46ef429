// stepbench: real-stack step benchmark of the in-process data-parallel
// trainer (tensor -> compress -> comm::ThreadComm -> train).
//
//   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Runs one workload, so every process-wide figure (peak_rss_mb) belongs to
// that workload alone; stepbench/run.py starts one process per workload.
// --trace 0 runs the untraced closed loop and reports the end-to-end
// metrics; --trace 1 runs the traced replica and the probes and reports the
// per-layer metrics. Each metric is printed as "<workload> <name> <value>
// <unit>"; the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exits 1 when any check failed, 2 on
// bad or missing arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "core/parallel.hpp"
#include "runs.hpp"
#include "workload.hpp"

namespace {

// Every option but --trace-dir is required: the defaults live in run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "stepbench: " << problem
            << "\nusage: stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\nworkloads:";
  for (const auto& w : stepbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value, &used);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value, &used);
        if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        opt.trace = value == "1" ? 1 : 0;
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
      if (used != 0 && used != value.size()) usage("malformed value for " + arg);
    } catch (const std::logic_error&) {
      usage("malformed value for " + arg);
    }
  }
  if (opt.workload.empty() || !have_seed || opt.seconds == 0.0 || opt.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  try {
    (void)stepbench::find_workload(opt.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  return opt;
}

void print_json_number(double value) {
  if (std::isfinite(value))
    std::printf("%.17g", value);
  else
    std::printf("null");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // p rank threads per step; the kernel pool runs inline on each of them.
  gradcomp::core::set_global_pool_threads(1);

  const stepbench::Workload& w = stepbench::find_workload(opt.workload);
  stepbench::Report report;
  try {
    report = opt.trace == 1 ? stepbench::run_traced(w, opt.seed, opt.seconds, opt.trace_dir)
                            : stepbench::run_e2e(w, opt.seed, opt.seconds);
  } catch (const std::exception& e) {
    ++report.attempted;
    report.fail(std::string("run threw: ") + e.what());
  }
  for (const auto& m : report.metrics)
    std::printf("%-22s %-30s %14.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%-22s %-30s %14.6g (%lld failed of %lld attempted)\n", w.name.c_str(), "error_frac",
              static_cast<double>(report.failed) / static_cast<double>(report.attempted),
              static_cast<long long>(report.failed), static_cast<long long>(report.attempted));
  for (const auto& note : report.notes) std::printf("%-22s   %s\n", w.name.c_str(), note.c_str());
  for (const auto& error : report.errors)
    std::printf("%-22s   FAILED: %s\n", w.name.c_str(), error.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.failed == 0 ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    print_json_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return report.failed == 0 ? 0 : 1;
}
