// Protocol explorer: a small CLI over the whole framework. Pick any of the
// 27 design-space points (or "newscast"/"lpbcast"), a bootstrap scenario
// and a scale; get the convergence series and converged overlay summary —
// a miniature PeerSim.
//
//   $ ./examples/protocol_explorer rand,head,pushpull random 2000 100
//   $ ./examples/protocol_explorer tail,rand,push lattice
//   $ ./examples/protocol_explorer --list
#include <charconv>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "pss/experiments/reporting.hpp"
#include "pss/experiments/scenario.hpp"
#include "pss/graph/random_graph.hpp"

namespace {

void print_usage() {
  std::cout <<
      "usage: protocol_explorer <protocol> [scenario] [N] [cycles]\n"
      "  protocol: ps,vs,vp with ps in {rand,head,tail}, vs in\n"
      "            {rand,head,tail}, vp in {push,pull,pushpull};\n"
      "            or 'newscast' / 'lpbcast'\n"
      "  scenario: random | lattice | growing   (default random)\n"
      "  N:        network size                 (default 2000)\n"
      "  cycles:   cycles to run                (default 100)\n"
      "  --list    print all 27 protocol names and exit\n";
}

/// Reports a bad argument with the usage; returns the exit status.
int bad_argument(const std::string& message) {
  std::cerr << message << "\n";
  print_usage();
  return 1;
}

/// A whole decimal count: digits only (no sign, no spaces), in range.
std::optional<unsigned long> parse_count(std::string_view text) {
  unsigned long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pss;
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string arg1 = argv[1];
  if (arg1 == "--list") {
    std::cout << "evaluated in the paper (Section 4.3):\n";
    for (const auto& spec : ProtocolSpec::evaluated())
      std::cout << "  " << spec.name() << "\n";
    std::cout << "excluded as degenerate (Section 4.3):\n";
    for (const auto& spec : ProtocolSpec::excluded())
      std::cout << "  " << spec.name() << "\n";
    return 0;
  }
  const auto spec = ProtocolSpec::parse(arg1);
  if (!spec) return bad_argument("unrecognized protocol: " + arg1);
  const std::string scenario = argc > 2 ? argv[2] : "random";
  if (scenario != "random" && scenario != "lattice" && scenario != "growing") {
    return bad_argument("unknown scenario: " + scenario);
  }
  const auto n = argc > 3 ? parse_count(argv[3]) : 2000;
  if (!n || *n < 2) {
    return bad_argument(std::string("N must be a whole number >= 2: ") +
                        argv[3]);
  }
  const auto cycles = argc > 4 ? parse_count(argv[4]) : 100;
  if (!cycles || *cycles > std::numeric_limits<Cycle>::max()) {
    return bad_argument(std::string("cycles must be a whole number: ") +
                        argv[4]);
  }
  experiments::ScenarioParams params;
  params.n = *n;
  params.cycles = static_cast<Cycle>(*cycles);
  params.sample_interval = std::max<Cycle>(1, params.cycles / 20);
  params.growth_per_cycle = std::max<std::size_t>(1, params.n / 100);

  experiments::print_banner(std::cout, "protocol explorer",
                            "framework of Section 3", params,
                            "scenario=" + scenario);

  experiments::ScenarioResult result = [&] {
    if (scenario == "lattice")
      return experiments::run_lattice_scenario(*spec, params);
    if (scenario == "growing")
      return experiments::run_growing_scenario(*spec, params);
    return experiments::run_random_scenario(*spec, params);
  }();

  experiments::print_series(std::cout, spec->name(), result.series, nullptr);

  const auto baseline = experiments::measure_random_baseline(params);
  const auto& fin = result.final_sample();
  std::cout << "converged vs uniform random baseline:\n";
  TextTable table;
  table.row().cell("metric").cell(spec->name()).cell("random baseline");
  table.row().cell("avg degree").cell(fin.avg_degree, 2).cell(baseline.avg_degree, 2);
  table.row().cell("clustering").cell(fin.clustering, 4).cell(baseline.clustering, 4);
  table.row().cell("path length").cell(fin.path_length, 3).cell(baseline.path_length, 3);
  table.print(std::cout);
  if (fin.components > 1) {
    std::cout << "WARNING: overlay is partitioned (" << fin.components
              << " components, largest " << fin.largest_component << ")\n";
  }
  return 0;
}
