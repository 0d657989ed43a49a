#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>

#include "pss/membership/simd.hpp"
#include "pss/obs/json_writer.hpp"

// --- Whole-process allocation counter --------------------------------------
// Replacing the global allocation functions counts every heap allocation the
// process makes, library containers included — the strongest form of the
// engines' "zero steady-state allocation" claim (the same device as
// bench/scale_async.cpp).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pss::bench {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

double peak_rss_mib() {
  // VmHWM is this process image's own high-water mark; getrusage's max RSS
  // also carries the pre-exec image of the parent that launched us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, q * static_cast<double>(v.size()) + 0.5));
  return v[std::min(rank, v.size()) - 1];
}

// --- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
  if (!ok) std::fprintf(stderr, "pss_bench: check failed: %s\n", name.c_str());
}

void Report::info(const std::string& name, const std::string& value) {
  info_.emplace_back(name, value);
}

bool Report::all_checks_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

namespace {
const char* simd_name(simd::Level level) {
  switch (level) {
    case simd::Level::kScalar: return "scalar";
    case simd::Level::kSSE2: return "sse2";
    case simd::Level::kAVX2: return "avx2";
  }
  return "unknown";
}
}  // namespace

std::string Report::to_json(const Options& o) const {
  std::string out;
  obs::JsonWriter w(out, /*pretty=*/false);
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("seconds", o.seconds);
  w.field("trace", o.trace);
  w.field("smoke", o.smoke);
  w.field("correct", all_checks_ok());
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("checks");
  w.begin_object();
  for (const auto& [name, ok] : checks_) w.field(name, ok);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("info");
  w.begin_object();
  for (const auto& [name, value] : info_) w.field(name, value);
  w.end_object();
  w.key("host");
  w.begin_object();
  w.field("simd", simd_name(simd::detected_level()));
  w.field("compiler", std::string_view(__VERSION__));
  w.field("build_type", PSS_BENCH_BUILD_TYPE);
  w.field("lanes", static_cast<std::uint64_t>(o.lanes));
  w.end_object();
  w.end_object();
  return out;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity) : origin_(Clock::now()) {
  spans_.reserve(capacity);
  names_.reserve(32);
}

int Tracer::name(const char* label, bool hot) {
  names_.push_back({label, hot});
  return static_cast<int>(names_.size() - 1);
}

void Tracer::open(int name) {
  if (depth_ == stack_.size()) throw std::logic_error("span nesting too deep");
  Name& n = names_[name];
  Open& o = stack_[depth_++];
  o.name = name;
  o.record = -1;
  if (!n.hot || n.count % 64 == 0) {
    if (spans_.size() < spans_.capacity()) {
      std::int64_t parent = -1;
      for (std::size_t i = depth_ - 1; i-- > 0;) {
        if (stack_[i].record >= 0) {
          parent = stack_[i].record;
          break;
        }
      }
      o.record = static_cast<std::int64_t>(spans_.size());
      spans_.push_back({name, 0, 0, parent});
    } else {
      ++dropped_;
    }
  }
  o.start = Clock::now();
  if (o.record >= 0) spans_[o.record].start_ns = ns_between(origin_, o.start);
}

void Tracer::close() {
  const auto end = Clock::now();
  const Open& o = stack_[--depth_];
  const std::uint64_t dur = ns_between(o.start, end);
  Name& n = names_[o.name];
  ++n.count;
  n.total_ns += dur;
  if (depth_ > 0) names_[stack_[depth_ - 1].name].child_ns += dur;
  if (o.record >= 0) spans_[o.record].dur_ns = dur;
}

double Tracer::mean_self_ns(int name) const {
  const Name& n = names_[name];
  return n.count == 0 ? 0
                      : static_cast<double>(n.total_ns - n.child_ns) /
                            static_cast<double>(n.count);
}

bool Tracer::write_chrome(const std::string& path) const {
  std::string out;
  obs::JsonWriter w(out, /*pretty=*/false);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("name", names_[s.name].label);
    w.field("ph", "X");
    w.field("pid", std::uint64_t{1});
    w.field("tid", std::uint64_t{1});
    w.field("ts", static_cast<double>(s.start_ns) / 1e3);
    w.field("dur", static_cast<double>(s.dur_ns) / 1e3);
    w.key("args");
    w.begin_object();
    w.field("id", static_cast<std::int64_t>(i));
    w.field("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ns");
  w.key("otherData");
  w.begin_object();
  w.field("dropped_spans", dropped_);
  w.key("names");
  w.begin_object();
  for (const Name& n : names_) {
    w.key(n.label);
    w.begin_object();
    w.field("hot", n.hot);
    w.field("count", n.count);
    w.field("total_ns", n.total_ns);
    w.field("self_ns", n.total_ns - n.child_ns);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.end_object();
  std::ofstream file(path, std::ios::binary);
  file << out << '\n';
  return static_cast<bool>(file);
}

// --- CpuRotation -------------------------------------------------------------

namespace {

void set_cpus(int tid, const int* cpus, std::size_t count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < count; ++i) CPU_SET(cpus[i], &set);
  sched_setaffinity(tid, sizeof set, &set);  // best effort: a refusal is fine
}

}  // namespace

CpuRotation::CpuRotation() : tid_(static_cast<int>(syscall(SYS_gettid))) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.size() > 1) helper_ = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (helper_.joinable()) helper_.join();
  if (cpus_.size() > 1) set_cpus(tid_, cpus_.data(), cpus_.size());
}

void CpuRotation::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::size_t next = 0;
  while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                       [this] { return stop_; })) {
    if (paused_ == 0) set_cpus(tid_, &cpus_[next++ % cpus_.size()], 1);
  }
}

CpuRotation::Pause::Pause(CpuRotation& rotation) : rotation_(&rotation) {
  std::lock_guard<std::mutex> lock(rotation.mu_);
  ++rotation.paused_;
  if (rotation.cpus_.size() > 1) {
    set_cpus(rotation.tid_, rotation.cpus_.data(), rotation.cpus_.size());
  }
}

CpuRotation::Pause::~Pause() {
  std::lock_guard<std::mutex> lock(rotation_->mu_);
  --rotation_->paused_;
}

// --- PhaseProbe --------------------------------------------------------------

void PhaseProbe::record(const sim::TraceSpan& span) {
  Sum& s = sums_[static_cast<std::size_t>(span.phase)];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(span.end_ns - span.start_ns, std::memory_order_relaxed);
}

double PhaseProbe::mean_ns(sim::TracePhase phase) const {
  const Sum& s = sums_[static_cast<std::size_t>(phase)];
  const std::uint64_t count = s.count.load(std::memory_order_relaxed);
  return count == 0 ? 0
                    : static_cast<double>(
                          s.total_ns.load(std::memory_order_relaxed)) /
                          static_cast<double>(count);
}

}  // namespace pss::bench
