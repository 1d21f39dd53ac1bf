#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "crypto/cpu_features.hpp"

namespace perfbench {

void RunResult::violate(const std::string& what) {
  correct = false;
  if (violations.size() < 32) violations.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void RoundSeries::add(double ops, double wall_s, double cpu_s,
                      std::vector<double> latencies) {
  if (ops <= 0.0 || wall_s <= 0.0) return;
  rate.push_back(ops / wall_s);
  cpu_ms.push_back(cpu_s * 1e3 / ops);
  latency_ms.push_back(std::move(latencies));
}

double RoundSeries::median_rate() const { return median(rate); }

double RoundSeries::median_cpu_ms() const { return median(cpu_ms); }

double RoundSeries::windowed_latency(double q, std::size_t min_samples) const {
  std::vector<std::vector<double>> windows(1);
  for (const auto& round : latency_ms) {
    if (windows.back().size() >= min_samples) windows.emplace_back();
    windows.back().insert(windows.back().end(), round.begin(), round.end());
  }
  // A short last window joins the one before it.
  if (windows.size() > 1 && windows.back().size() < min_samples) {
    std::vector<double> tail = std::move(windows.back());
    windows.pop_back();
    windows.back().insert(windows.back().end(), tail.begin(), tail.end());
  }
  std::vector<double> per_window;
  for (auto& w : windows) per_window.push_back(quantile(std::move(w), q));
  return median(per_window);
}

std::size_t RoundSeries::samples() const {
  std::size_t n = 0;
  for (const auto& l : latency_ms) n += l.size();
  return n;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void describe_host(RunResult& result) {
  using revelio::crypto::cpu_has_aes_ni;
  using revelio::crypto::cpu_has_avx2;
  using revelio::crypto::cpu_has_sha_ni;
  result.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.info["isa.sha256"] = cpu_has_sha_ni() ? "sha-ni" : "scalar";
  result.info["isa.aes"] = cpu_has_aes_ni() ? "aes-ni" : "scalar";
  result.info["isa.sha256x8"] = cpu_has_avx2() ? "avx2" : "scalar";
  result.info["compiler"] = PERFBENCH_COMPILER;
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
}

// ---------------------------------------------------------------------------
// Tracing

namespace {

std::atomic<bool> g_tracing{false};
const Clock::time_point g_epoch = Clock::now();

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};

TraceRegistry& registry() {
  static TraceRegistry* r = new TraceRegistry();  // outlives worker threads
  return *r;
}

/// This thread's buffer, registered on first use. Buffers are owned by the
/// registry, so spans survive the worker threads that recorded them.
std::vector<SpanRecord>& thread_buffer() {
  thread_local std::vector<SpanRecord>* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<std::vector<SpanRecord>>();
    owned->reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(registry().mu);
    registry().buffers.push_back(std::move(owned));
  }
  return *buffer;
}

thread_local std::int32_t t_current = -1;

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

std::vector<const std::vector<SpanRecord>*> trace_buffers() {
  std::lock_guard<std::mutex> lock(registry().mu);
  std::vector<const std::vector<SpanRecord>*> out;
  for (const auto& b : registry().buffers) out.push_back(b.get());
  return out;
}

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on); }

ScopedSpan::ScopedSpan(const char* name, std::uint64_t session,
                       std::uint32_t batch) {
  if (!tracing()) return;
  buffer_ = &thread_buffer();
  index_ = static_cast<std::int32_t>(buffer_->size());
  saved_parent_ = t_current;
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_current;
  rec.session = session == kInheritSession && t_current >= 0
                    ? (*buffer_)[static_cast<std::size_t>(t_current)].session
                    : session;
  rec.batch = batch;
  rec.start_ns = trace_now_ns();
  buffer_->push_back(rec);
  t_current = index_;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  (*buffer_)[static_cast<std::size_t>(index_)].end_ns = trace_now_ns();
  t_current = saved_parent_;
}

std::vector<double> span_durations_us(const std::string& name) {
  std::vector<double> out;
  for (const auto* buffer : trace_buffers()) {
    for (const auto& span : *buffer) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool write_trace(const std::string& path, std::size_t max_per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::size_t tid = 0;
  for (const auto* buffer : trace_buffers()) {
    ++tid;
    // A prefix keeps every parent link valid: parents precede children.
    const std::size_t n = std::min(buffer->size(), max_per_thread);
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& s = (*buffer)[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"session\":%llu,\"batch\":%u}}",
                   first ? "" : ",\n", s.name, tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.session),
                   s.batch);
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Output

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(
          static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void check_metric_names(RunResult& result) {
  std::vector<std::string> bad;
  for (const auto* set :
       {&result.end_to_end, &result.per_layer, &result.extra}) {
    for (const auto& m : *set) {
      if (!valid_metric_name(m.name) || !valid_unit(m.unit)) {
        bad.push_back("'" + m.name + "' [" + m.unit + "]");
      }
    }
  }
  for (const auto& b : bad) {
    result.violate("malformed metric name or unit: " + b);
  }
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision JSON number; non-finite values (a bug) become null so the
/// document fails validation instead of carrying a made-up figure.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_map(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(metrics[i].name) + ":{\"value\":" +
           number(metrics[i].value) +
           ",\"unit\":" + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string result_document(const Options& options, const RunResult& result) {
  std::string out = "{\"workload\":" + quoted(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "true" : "false") +
                    ",\"correct\":" + (result.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"succeeded\":" + std::to_string(result.succeeded) +
                    ",\"failed\":" + std::to_string(result.failed);
  out += ",\"host\":{";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    out += (first ? "" : ",") + quoted(key) + ":" + quoted(value);
    first = false;
  }
  out += (first ? "" : ",") + std::string("\"git_revision\":") +
         quoted(options.git_revision) +
         ",\"source_digest\":" + quoted(options.source_digest) + "}";
  out += ",\"end_to_end\":" + metric_map(result.end_to_end);
  out += ",\"per_layer\":" + metric_map(result.per_layer);
  out += ",\"extra\":" + metric_map(result.extra);
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    out += (i > 0 ? "," : "") + quoted(result.violations[i]);
  }
  return out + "]}";
}

}  // namespace perfbench
