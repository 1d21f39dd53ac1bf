// Shared plumbing for the repository benchmark: run options, the result
// document, quantiles, process resource usage, and the bench-side tracer.
//
// The tracer records spans only from the benchmark's own code, around its
// calls into the program's public APIs (stage calls, the ChainVerifier and
// StorageEnv decorators, device reads). Spans live in per-thread buffers in
// memory and are written out once, when the run ends. Nothing under src/
// is instrumented for the benchmark.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the trace file and the attest workloads' store files.
  std::string work_dir = ".bench_build/work";
  std::string git_revision = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. BENCHMARK.json gates `end_to_end` (measured
/// with tracing off) and reads `per_layer` from traced runs; `extra` holds
/// the workload's own metric names, sample counts and accounting checks;
/// `info` holds the host and build description.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> extra;
  std::map<std::string, std::string> info;
  std::vector<std::string> violations;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  /// Records a correctness violation; the run then exits non-zero.
  void violate(const std::string& what);
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Per-round samples of one run, reduced to run-level figures that a burst
/// of outside load during a few rounds cannot move much: each figure is the
/// median over rounds (or over windows of consecutive rounds) of that
/// round's or window's own value.
struct RoundSeries {
  std::vector<double> rate;     // completed ops per wall second
  std::vector<double> cpu_ms;   // process CPU ms per completed op
  std::vector<std::vector<double>> latency_ms;  // each op's latency

  void add(double ops, double wall_s, double cpu_s,
           std::vector<double> latencies);
  double median_rate() const;
  double median_cpu_ms() const;
  /// Median over windows of the windows' q-quantile latency. A window is
  /// the fewest consecutive rounds holding `min_samples` latencies (the
  /// last window absorbs the remainder), so every window's p99 has at
  /// least ten samples beyond it when min_samples = 1000.
  double windowed_latency(double q, std::size_t min_samples) const;
  std::size_t samples() const;
};

/// Process user+system CPU seconds so far (getrusage RUSAGE_SELF).
double process_cpu_seconds();
/// CPU milliseconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_ms();
/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Host and build facts every result records: core count, the ISA paths
/// the crypto dispatch selected, compiler and build type.
void describe_host(RunResult& result);

// ---------------------------------------------------------------------------
// Bench-side tracing

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same thread's buffer, -1 = root
  std::uint64_t session = 0;
  std::uint32_t batch = 0;   // members of a batched call (0 = not batched)
};

/// True while the traced phase of a run is recording.
bool tracing();
void set_tracing(bool on);

/// Session id meaning "same as the enclosing span on this thread".
inline constexpr std::uint64_t kInheritSession = ~std::uint64_t{0};

/// RAII span: a no-op unless tracing() is on. Nested spans on one thread
/// link to their parent, so decorator spans (chain verify, store sync)
/// hang under the stage call that caused them.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t session, std::uint32_t batch = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<SpanRecord>* buffer_ = nullptr;
  std::int32_t index_ = -1;
  std::int32_t saved_parent_ = -1;
};

/// Durations in microseconds of every recorded span named `name`. This and
/// write_trace read every thread's buffer: call them only when no traced
/// work is in flight.
std::vector<double> span_durations_us(const std::string& name);
/// Writes the spans as a Chrome trace-event JSON file: each thread's first
/// `max_per_thread` spans (metrics are computed from all of them).
bool write_trace(const std::string& path, std::size_t max_per_thread);

// ---------------------------------------------------------------------------
// Workloads

RunResult run_attest_warm(const Options& options);
RunResult run_attest_cold(const Options& options);
RunResult run_vm_storage(const Options& options);

/// Per-layer crypto probes: public crypto functions on fixed inputs.
void probe_crypto(RunResult& result);

/// Metric names BENCHMARK.json allows: [A-Za-z0-9_.-]+, starting with a
/// letter or digit, at most 64 characters.
bool valid_metric_name(const std::string& name);
/// Units: [A-Za-z0-9_/%.-]+, at most 16 characters.
bool valid_unit(const std::string& unit);
/// Records a violation for every metric with a malformed name or unit.
void check_metric_names(RunResult& result);

/// The full result document: host, build, run options, counts, every
/// metric measured (end-to-end, per-layer, workload extras) and any
/// correctness violations. run.py turns it into the result line.
std::string result_document(const Options& options, const RunResult& result);

}  // namespace perfbench
