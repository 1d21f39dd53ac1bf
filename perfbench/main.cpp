// The benchmark binary. run.py builds and invokes it:
//
//   perfbench --workload attest_warm|attest_cold|vm_storage --seed N
//             --seconds S --trace 0|1 --out FILE [--work-dir DIR]
//             [--git-revision REV] [--source-digest HEX]
//
// Writes the full result document to FILE, prints a one-line summary on
// stderr, and exits 1 on any correctness violation (2 on bad arguments).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload attest_warm|attest_cold|vm_storage"
               " --seed N --seconds S --trace 0|1 --out FILE"
               " [--work-dir DIR] [--git-revision REV]"
               " [--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-revision") {
      options.git_revision = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || out_path.empty() || !(options.seconds > 0.0)) {
    return usage();
  }

  perfbench::RunResult result;
  if (options.workload == "attest_warm") {
    result = perfbench::run_attest_warm(options);
  } else if (options.workload == "attest_cold") {
    result = perfbench::run_attest_cold(options);
  } else if (options.workload == "vm_storage") {
    result = perfbench::run_vm_storage(options);
  } else {
    return usage();
  }
  if (options.trace) {
    perfbench::probe_crypto(result);
    std::filesystem::create_directories(options.work_dir);
    const std::string trace_path = options.work_dir + "/trace-" +
                                   options.workload + "-" +
                                   std::to_string(options.seed) + ".json";
    if (perfbench::write_trace(trace_path, /*max_per_thread=*/100000)) {
      result.info["trace_file"] = trace_path;
    }
  }
  perfbench::check_metric_names(result);

  const std::string doc = perfbench::result_document(options, result);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %s, %llu attempted, %llu failed\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               result.correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  for (const auto& v : result.violations) {
    std::fprintf(stderr, "  violation: %s\n", v.c_str());
  }
  return result.correct ? 0 : 1;
}
