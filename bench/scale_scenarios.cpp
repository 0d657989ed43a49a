// Scenario sweep driver: every registered adversarial / trace-driven
// scenario, at scale, with the differential contract checked in-run.
//
// Phase 1 — differential gate (the scenario subsystem's reason to exist):
// for each engine (CycleEngine and EventEngine, each on one lane and on
// two) a run with a zero-byzantine AdversaryModel attached must be
// bit-identical to the unhooked run: state digest everywhere, census
// digest on the one-lane CycleEngine. Both engines on one lane are checked
// with both adversary kinds; the 2-lane EventEngine is hooked with a hub
// adversary and compared against the unhooked one-lane EventEngine. A
// CycleEngine run under uniform-mode TraceChurn must be bit-identical to
// the same run under plain ChurnModel. Any divergence is
// a hard failure (exit 1), in the style of BENCH_parallel.json's
// deterministic-vs-sequential gate: the equivalence contract is enforced
// on every bench run, not just in the test suite.
//
// Phase 2 — scenario scan: each registry entry runs on a fresh
// identically-seeded network per size, adversary and churn attached as the
// spec demands, and the paper's observables stream out of one GraphCensus
// rebuild per run: degree stats (Figure 4 / Table 2), nodes outside the
// largest component (Figure 6), dead links (Figure 7), cross-partition
// links, plus the attack-facing extras (max byzantine in-degree — the hub
// formation signal — and forged message count).
//
// Results append to BENCH_scenarios.json. Knobs:
//   PSS_SCEN_NS     comma-separated network sizes   (default 10000)
//   PSS_SCEN_CYCLES cycles per run                  (default 30)
//   PSS_C           view size c                     (default 30)
//   PSS_SEED        master seed                     (default 42)
//   PSS_SCEN_JSON   output path          (default BENCH_scenarios.json)
//   PSS_SCEN_LIST   comma-separated scenario names  (default: all)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/scenarios/adversary.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/scenarios/scenario_spec.hpp"
#include "pss/scenarios/trace_churn.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/churn.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<std::size_t> parse_sizes(const std::string& text,
                                     const char* knob) {
  std::vector<std::size_t> out;
  for (const std::string& token : split_list(text)) {
    std::size_t consumed = 0;
    unsigned long long value = 0;
    const bool digits_only =
        token.find_first_not_of("0123456789") == std::string::npos;
    try {
      if (digits_only) value = std::stoull(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != token.size() || value == 0) {
      std::fprintf(stderr,
                   "%s: bad entry '%s' (want a comma-separated list of "
                   "positive integers)\n",
                   knob, token.c_str());
      std::exit(1);
    }
    out.push_back(static_cast<std::size_t>(value));
  }
  return out;
}

struct DiffCheck {
  std::string check;
  std::uint64_t plain_digest = 0;
  std::uint64_t hooked_digest = 0;
  bool matches = false;
};

struct ScanResult {
  std::string scenario;
  std::size_t n = 0;
  double run_seconds = 0;
  std::uint64_t exchanges = 0;
  std::size_t live = 0;
  std::size_t joined = 0;
  std::size_t left = 0;
  double mean_degree = 0;
  std::size_t max_degree = 0;
  std::size_t components = 0;
  std::size_t outside_largest = 0;
  std::uint64_t dead_links = 0;
  std::uint64_t cross_links = 0;
  std::uint32_t max_byzantine_in_degree = 0;
  std::uint32_t max_honest_in_degree = 0;
  std::uint64_t forged_messages = 0;
  std::uint64_t state_digest = 0;
  std::uint64_t census_digest = 0;
};

}  // namespace

int main() {
  using namespace pss;

  const auto sizes = parse_sizes(
      env::get("PSS_SCEN_NS").value_or("10000"), "PSS_SCEN_NS");
  const auto cycles =
      static_cast<Cycle>(env::get_int("PSS_SCEN_CYCLES", 30));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 30));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const std::string out_path =
      env::get("PSS_SCEN_JSON").value_or("BENCH_scenarios.json");
  const auto wanted = split_list(env::get("PSS_SCEN_LIST").value_or(""));

  const ProtocolSpec spec = ProtocolSpec::newscast();
  std::printf("scale_scenarios: spec=%s c=%zu cycles=%u seed=%llu\n",
              spec.name().c_str(), c, cycles,
              static_cast<unsigned long long>(seed));

  auto make_net = [&](std::size_t n) {
    sim::Network net(spec, ProtocolOptions{c, false}, seed);
    net.reserve_nodes(n);
    net.add_nodes(n);
    sim::bootstrap::init_random(net);
    return net;
  };

  // ---- Phase 1: differential gate ----------------------------------------
  // A zero-byzantine adversary must be invisible; uniform-mode TraceChurn
  // must be ChurnModel. Checked at the smallest requested size.
  const std::size_t dn = *std::min_element(sizes.begin(), sizes.end());
  std::vector<DiffCheck> diffs;
  auto gate = [&](std::string check, std::uint64_t plain,
                  std::uint64_t hooked) {
    const bool ok = plain == hooked;
    std::printf("  differential %-28s %s\n", check.c_str(),
                ok ? "ok" : "DIVERGED");
    diffs.push_back({std::move(check), plain, hooked, ok});
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: differential check '%s' diverged "
                   "(plain=%llu hooked=%llu)\n",
                   diffs.back().check.c_str(),
                   static_cast<unsigned long long>(plain),
                   static_cast<unsigned long long>(hooked));
      std::exit(1);
    }
  };

  // Zero-byzantine tampers of both kinds; kHubPoison needs no range config.
  scenarios::AdversaryConfig none_hub;
  none_hub.kind = scenarios::AdversaryKind::kHubPoison;
  none_hub.byzantine_count = 0;
  scenarios::AdversaryConfig none_forge = none_hub;
  none_forge.kind = scenarios::AdversaryKind::kForgery;
  none_forge.fabricated_base = static_cast<NodeId>(4 * dn);
  none_forge.fabricated_range = dn;

  obs::GraphCensus census;
  {
    auto run_cycle_engine = [&](sim::ExchangeTamper* tamper) {
      sim::Network net = make_net(dn);
      sim::CycleEngine engine(net);
      if (tamper) engine.attach_adversary(*tamper);
      engine.run(cycles);
      census.rebuild(net);
      return std::pair{scenarios::state_digest(net),
                       scenarios::census_digest(census)};
    };
    const auto plain = run_cycle_engine(nullptr);
    scenarios::AdversaryModel hub(none_hub);
    const auto hooked_hub = run_cycle_engine(&hub);
    gate("cycle/state", plain.first, hooked_hub.first);
    gate("cycle/census", plain.second, hooked_hub.second);
    scenarios::AdversaryModel forge(none_forge);
    const auto hooked_forge = run_cycle_engine(&forge);
    gate("cycle/state-forgery", plain.first, hooked_forge.first);
  }
  {
    auto run_parallel = [&](sim::ExchangeTamper* tamper) {
      sim::Network net = make_net(dn);
      sim::CycleEngine engine(net, {2});
      if (tamper) engine.attach_adversary(*tamper);
      engine.run(cycles);
      return scenarios::state_digest(net);
    };
    const std::uint64_t plain = run_parallel(nullptr);
    scenarios::AdversaryModel hub(none_hub);
    gate("parallel-det/state", plain, run_parallel(&hub));
  }
  {
    auto run_event = [&](sim::ExchangeTamper* tamper) {
      sim::Network net = make_net(dn);
      sim::EventEngine engine(net, sim::EventEngineConfig{});
      if (tamper) engine.attach_adversary(*tamper);
      engine.run_cycles(cycles);
      return scenarios::state_digest(net);
    };
    const std::uint64_t plain = run_event(nullptr);
    scenarios::AdversaryModel hub(none_hub);
    gate("event/state", plain, run_event(&hub));
    scenarios::AdversaryModel forge(none_forge);
    gate("event/state-forgery", plain, run_event(&forge));
    sim::Network net = make_net(dn);
    sim::EventEngine engine(net, sim::EventEngineConfig{}, 2);
    scenarios::AdversaryModel par_hub(none_hub);
    engine.attach_adversary(par_hub);
    engine.run_cycles(cycles);
    gate("parallel-event/state", plain, scenarios::state_digest(net));
  }
  {
    sim::ChurnConfig churn_cfg{dn / 100, dn / 100, 3};
    auto run_churned = [&](bool trace) {
      sim::Network net = make_net(dn);
      sim::CycleEngine engine(net);
      sim::ChurnModel plain_churn(churn_cfg, Rng(seed ^ 0xC0FFEEULL));
      scenarios::TraceChurn trace_churn({churn_cfg, {}, {}, {}},
                                        Rng(seed ^ 0xC0FFEEULL));
      for (Cycle t = 0; t < cycles; ++t) {
        engine.run_cycle();
        if (trace) {
          trace_churn.apply(net);
        } else {
          plain_churn.apply(net);
        }
      }
      return scenarios::state_digest(net);
    };
    gate("trace-churn-uniform/state", run_churned(false), run_churned(true));
  }

  // ---- Phase 2: scenario scan --------------------------------------------
  std::vector<ScanResult> results;
  for (const std::size_t n : sizes) {
    for (const scenarios::ScenarioSpec& scen : scenarios::scenario_registry()) {
      if (!wanted.empty() &&
          std::find(wanted.begin(), wanted.end(), scen.name) == wanted.end()) {
        continue;
      }
      ScanResult r;
      r.scenario = scen.name;
      r.n = n;
      sim::Network net = make_net(n);
      sim::CycleEngine engine(net);
      scenarios::AdversaryModel adversary(
          scen.adversary_for(n, c, seed ^ 0xAD5ULL));
      if (scen.has_adversary()) engine.attach_adversary(adversary);
      scenarios::TraceChurn churn(scen.churn_for(n, seed ^ 0x5E55ULL),
                                  Rng(seed ^ 0xC0FFEEULL));
      const auto t0 = Clock::now();
      for (Cycle t = 0; t < cycles; ++t) {
        engine.run_cycle();
        if (scen.has_churn()) churn.apply(net);
      }
      r.run_seconds = seconds_since(t0);
      r.exchanges = engine.stats().exchanges;
      r.live = net.live_count();
      r.joined = churn.stats().joined;
      r.left = churn.stats().left;
      census.rebuild(net);
      r.mean_degree = census.degree_stats().mean;
      r.max_degree = census.degree_stats().max;
      r.components = census.components().count;
      r.outside_largest = census.components().outside_largest;
      r.dead_links = census.dead_link_count();
      r.cross_links = census.cross_partition_link_count();
      if (scen.has_adversary()) {
        const std::size_t byz = adversary.config().byzantine_count;
        for (NodeId id = 0; id < net.size(); ++id) {
          if (!net.is_live(id)) continue;
          auto& slot = id < byz ? r.max_byzantine_in_degree
                                : r.max_honest_in_degree;
          slot = std::max(slot, census.in_degree(id));
        }
        r.forged_messages = adversary.forged_messages();
      }
      r.state_digest = scenarios::state_digest(net);
      r.census_digest = scenarios::census_digest(census);
      std::printf(
          "  n=%-8zu %-16s %6.2fs live=%-8zu deg=%6.2f comp=%zu "
          "outside=%zu dead=%llu byz_in=%u\n",
          n, r.scenario.c_str(), r.run_seconds, r.live, r.mean_degree,
          r.components, r.outside_largest,
          static_cast<unsigned long long>(r.dead_links),
          r.max_byzantine_in_degree);
      results.push_back(std::move(r));
    }
  }

  // ---- JSON ---------------------------------------------------------------
  const std::string spec_name = spec.name();
  obs::RunRecorder rec(
      "scale_scenarios", 1,
      bench::make_run_metadata("scale_scenarios", "cycle", spec_name,
                               bench::protocol_wire_id(spec), sizes.back(), c,
                               cycles, seed));
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("differential_n", static_cast<std::uint64_t>(dn));
  rec.json().end_object();
  rec.json().key("differential");
  rec.json().begin_array();
  bool differential_ok = true;
  for (const DiffCheck& d : diffs) {
    rec.json().begin_object();
    rec.json().field("check", d.check);
    rec.json().field("plain_digest", obs::to_hex16(d.plain_digest));
    rec.json().field("hooked_digest", obs::to_hex16(d.hooked_digest));
    rec.json().field("matches", d.matches);
    rec.json().end_object();
    differential_ok = differential_ok && d.matches;
  }
  rec.json().end_array();
  rec.json().key("runs");
  rec.json().begin_array();
  for (const ScanResult& r : results) {
    rec.json().begin_object();
    rec.json().field("scenario", r.scenario);
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("run_seconds", r.run_seconds);
    rec.json().field("exchanges", r.exchanges);
    rec.json().field("live", static_cast<std::uint64_t>(r.live));
    rec.json().field("joined", static_cast<std::uint64_t>(r.joined));
    rec.json().field("left", static_cast<std::uint64_t>(r.left));
    rec.json().field("mean_degree", r.mean_degree);
    rec.json().field("max_degree", static_cast<std::uint64_t>(r.max_degree));
    rec.json().field("components", static_cast<std::uint64_t>(r.components));
    rec.json().field("outside_largest",
                     static_cast<std::uint64_t>(r.outside_largest));
    rec.json().field("dead_links", r.dead_links);
    rec.json().field("cross_partition_links", r.cross_links);
    rec.json().field("max_byzantine_in_degree", r.max_byzantine_in_degree);
    rec.json().field("max_honest_in_degree", r.max_honest_in_degree);
    rec.json().field("forged_messages", r.forged_messages);
    rec.json().field("state_digest", obs::to_hex16(r.state_digest));
    rec.json().field("census_digest", obs::to_hex16(r.census_digest));
    rec.json().end_object();
  }
  rec.json().end_array();
  rec.gate("differential", differential_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rec.gates_ok() ? 0 : 1;
}
