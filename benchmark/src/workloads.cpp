// RunState and the overlay every workload starts from.
#include <algorithm>

#include "probes.hpp"
#include "pss/service/peer_sampling_service.hpp"
#include "pss/sim/bootstrap.hpp"
#include "workloads.hpp"

namespace pss::bench {

RunState::RunState(const Options& o, Report& r) : options(o), report(r) {
  span_window = tracer_.name("phase.window");
  span_chunk = tracer_.name("engine.chunk");
  span_check = tracer_.name("check.outputs");
  span_getpeer = tracer_.name("probe.getpeer");
  // Sample vectors are filled inside measured windows; reserving here
  // keeps the operator-new count of those windows at the engines' own.
  rates.reserve(1 << 14);
  traced_rates.reserve(1 << 14);
}

void RunState::record_setup(Clock::time_point start, double bootstrap_s) {
  const double total = seconds_since(start);
  setups.push_back(total);
  bootstraps.push_back(bootstrap_s);
  warmups.push_back(total - bootstrap_s);
}

void RunState::add_getpeer_burst(std::vector<double>& first,
                                 std::vector<double>& second) {
  if (first.empty()) return;
  getpeer_bursts.push_back(median(first));
  getpeer_cached_bursts.push_back(median(second));
  first.clear();
  second.clear();
}

void RunState::check_steady_allocs() {
  // A pool reaching a new high-water mark still allocates (the event
  // engine's slab pool grows by 4 KiB chunks a few times per run after a
  // short warm-up); an allocation per exchange, per node or per cycle
  // cannot hide under this bound.
  report.check("no_per_exchange_allocs",
               steady_allocs * 100'000 < report.attempted);
}

void RunState::finish() {
  Report& r = report;
  r.metric("exch_per_s", chunk_rate(rates), "exchanges/s");
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  // A getPeer burst takes a fraction of a millisecond, so it sees one host
  // state; the fast tail of the bursts is what repeats (see chunk_rate).
  r.metric("getpeer_p50_ns", percentile(getpeer_bursts, 0.1), "ns");
  r.check("views_valid", views_ok);
  r.check("getpeer_valid", getpeer_ok);
  if (!options.trace) return;
  r.metric("protocol.select_ns", probe.mean_ns(sim::TracePhase::kSelect), "ns");
  r.metric("protocol.merge_apply_ns",
           probe.mean_ns(sim::TracePhase::kMergeApply), "ns");
  r.metric("sim.bootstrap_s", median(bootstraps), "s");
  r.metric("sim.warmup_s", median(warmups), "s");
  r.metric("sim.steady_allocs", static_cast<double>(steady_allocs), "count");
  r.metric("sim.arena_bytes_per_node", arena_bytes_per_node, "bytes");
  r.metric("sim.failed_contacts", static_cast<double>(counters.failed_contacts),
           "count");
  r.metric("sim.queue_population",
           static_cast<double>(counters.queue_population), "count");
  r.metric("sim.slab_high_water", static_cast<double>(counters.slab_high_water),
           "count");
  r.metric("transport.frames_rejected",
           static_cast<double>(counters.frames_rejected), "count");
  r.metric("transport.replies_stale",
           static_cast<double>(counters.replies_stale), "count");
  r.metric("transport.udp_send_failures",
           static_cast<double>(counters.udp_send_failures), "count");
  r.metric("service.getpeer_cached_ns", percentile(getpeer_cached_bursts, 0.1),
           "ns");
  r.metric("bench.trace_overhead", chunk_rate(rates) / chunk_rate(traced_rates),
           "ratio");
  if (!options.trace_out.empty()) {
    r.check("trace_file_written", tracer_.write_chrome(options.trace_out));
    r.info("trace_file", options.trace_out);
  }
}

namespace {
constexpr std::size_t kAppNodes = 128;
}  // namespace

AppProbe::AppProbe(RunState& state, sim::Network& net)
    : state_(&state), net_(&net) {
  const auto live = net.live_ids();
  Rng rng(state.options.seed ^ 0xA99ULL);
  for (const std::size_t i :
       rng.sample_indices(live.size(), std::min(kAppNodes, live.size()))) {
    nodes_.push_back(live[i]);
  }
  first_.reserve(nodes_.size());
  second_.reserve(nodes_.size());
  for (const NodeId id : nodes_) {
    PeerSamplingService(net.node(id), Rng(id)).get_peer();  // builds the cache
  }
}

void AppProbe::burst() {
  Tracer::Scope span(state_->tracer(), state_->span_getpeer);
  const std::uint64_t allocs = alloc_count();
  for (const NodeId id : nodes_) {
    state_->getpeer_ok = time_getpeer(net_->node(id), state_->options.seed,
                                      first_, second_) &&
                         state_->getpeer_ok;
  }
  state_->add_getpeer_burst(first_, second_);
  state_->excluded_allocs += alloc_count() - allocs;
}

sim::Network make_network(std::size_t n, std::uint64_t seed) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{kViewSize, false},
                   seed);
  net.reserve_nodes(n);
  net.add_nodes(n);
  sim::bootstrap::init_random(net);
  return net;
}

}  // namespace pss::bench
