// Measurement scaffolding shared by every pss_bench workload.
//
// Everything here observes the library from outside: wall-clock timers
// around public calls, a whole-process operator-new counter, the kernel's
// peak-RSS mark, a span tracer owned by the benchmark, and a TraceProbe that
// sums the engines' own per-phase durations. No library code is edited.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pss/sim/trace_probe.hpp"

namespace pss::bench {

/// One invocation's parameters (see main.cpp for the command line).
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;   ///< measured time the run spends, split over phases
  bool trace = false;    ///< per-layer run: spans, probes, layer timings
  bool smoke = false;    ///< tiny sizes, every check still on
  std::string trace_out; ///< Chrome trace-event file written by trace runs
  unsigned lanes = 1;    ///< parallel-engine lanes: min(4, nproc)
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Heap allocations made by the whole process so far (operator new count).
std::uint64_t alloc_count();

/// Peak resident set of this process image, MiB.
double peak_rss_mib();

/// Median and percentiles of a sample (copies; callers keep their order).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// The run's result: metrics with units, named output checks and the
/// attempted/failed exchange counts. Serialized as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok);
  void info(const std::string& name, const std::string& value);
  bool all_checks_ok() const;
  std::string to_json(const Options& options) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Benchmark-side span recorder for the driving thread. Spans nest through
/// RAII scopes; every span's duration is summed exactly per name (with the
/// time covered by its direct children, so self time = total - children),
/// while the fixed preallocated buffer keeps every span of a cold name and
/// one in 64 of a hot one. write_chrome() emits the buffer as Chrome
/// trace-event JSON with parent ids, plus the exact per-name sums.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16);

  /// Registers a span name once (hot = sampled 1/64 into the buffer).
  int name(const char* label, bool hot = false);

  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, int name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
  };

  /// Mean self time per span of `name`, ns (0 when it never ran).
  double mean_self_ns(int name) const;

  bool write_chrome(const std::string& path) const;

 private:
  struct Name {
    const char* label = "";
    bool hot = false;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
  };
  struct Open {
    int name = 0;
    Clock::time_point start;
    std::int64_t record = -1;  ///< buffer index, -1 when not sampled
  };
  struct Span {
    int name = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::int64_t parent = -1;
  };

  void open(int name);
  void close();

  Clock::time_point origin_;
  std::vector<Name> names_;
  std::array<Open, 16> stack_{};
  std::size_t depth_ = 0;
  std::vector<Span> spans_;  ///< reserved up front; never grows past it
  std::uint64_t dropped_ = 0;
};

/// Scope over an optional tracer: a null tracer records nothing.
inline Tracer::Scope::Scope(Tracer* tracer, int name) : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(name);
}
inline Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

/// Moves the thread that constructed it round-robin over the CPUs it may
/// run on, one every 50 ms, until destroyed. On a shared host a co-tenant
/// can slow one CPU for tens of seconds; sampling every CPU keeps one busy
/// neighbour from deciding a whole run (chunk_rate then keeps the fast
/// chunks). Pause lifts the pinning, e.g. while a parallel engine starts
/// its thread pool, whose workers inherit the creator's CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  class Pause {
   public:
    explicit Pause(CpuRotation& rotation);
    ~Pause();
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    CpuRotation* rotation_;
  };

 private:
  void loop();

  int tid_ = 0;
  std::vector<int> cpus_;
  std::mutex mu_;  ///< guards stop_, paused_ and the thread's CPU mask
  std::condition_variable cv_;
  bool stop_ = false;
  int paused_ = 0;
  std::thread helper_;  ///< last: starts after the members it reads
};

/// TraceProbe that sums exact per-phase durations (relaxed atomics, so the
/// parallel engines may record from worker lanes). The engines' own log2
/// profiler is too coarse to show a 20% change; a plain sum is not.
class PhaseProbe final : public sim::TraceProbe {
 public:
  bool armed() const override { return true; }
  void record(const sim::TraceSpan& span) override;
  /// Mean duration of `phase` spans, ns (0 when none were recorded).
  double mean_ns(sim::TracePhase phase) const;

 private:
  struct Sum {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
  };
  std::array<Sum, sim::kTracePhaseCount> sums_;
};

}  // namespace pss::bench
