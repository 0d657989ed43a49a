// pss_bench: one workload per process, one JSON result line on stdout.
//
//   pss_bench <workload> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--trace-out FILE]
//
// Workloads: cycle-hot, cycle-cold, event, loopback, figure, udp-open.
// benchmark/run.py builds this binary, runs it and checks its output; see
// benchmark/README.md for what each workload and metric means.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using pss::bench::Options;
using pss::bench::Report;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"cycle-hot", pss::bench::run_cycle_hot},
    {"cycle-cold", pss::bench::run_cycle_cold},
    {"event", pss::bench::run_event},
    {"loopback", pss::bench::run_loopback},
    {"figure", pss::bench::run_figure},
    {"udp-open", pss::bench::run_udp_open},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pss_bench: %s\nusage: pss_bench <workload> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-out FILE]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing workload");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = value() != "0";
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
  o.lanes = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + o.workload).c_str());

  Report report;
  try {
    workload->run(o, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pss_bench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json(o).c_str());
  return 0;
}
