// The benchmark's own tests (run with `python3 perfbench/run.py --selftest`):
//
//  - a world whose browser pins a measurement the VM does not run is
//    rejected, counted failed, and audited — never accepted;
//  - a byte flipped on the dm-verity data disk fails the read of that block;
//  - every metric a workload reports has a well-formed name and a unit.
#include <cstdio>
#include <string>
#include <vector>

#include "attest.hpp"
#include "harness.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void unregistered_measurement_is_rejected() {
  std::printf("unregistered measurement\n");
  std::vector<perfbench::WorldPtr> worlds;
  worlds.push_back(perfbench::make_world({.seed = "selftest-good"}));
  worlds.push_back(perfbench::make_world(
      {.seed = "selftest-bad", .register_measurement = false}));
  const std::vector<perfbench::World*> ptrs = {worlds[0].get(),
                                               worlds[1].get()};
  for (const bool batch : {false, true}) {
    auto gateway = perfbench::Gateway::open(
        {.workers = 2, .batch_verify = batch});
    check(gateway.ok(), "gateway opens");
    if (!gateway.ok()) return;
    const auto round = (*gateway)->run_round(ptrs);
    const std::string mode =
        batch ? " (batched verify)" : " (per-session verify)";
    check(round.attempted == 2 && round.succeeded == 1 && round.failed == 1,
          "one session accepted, one counted failed" + mode);
    check(round.unverified == 0 && round.body_mismatch == 0,
          "no unverified accept" + mode);
    const auto audit = (*gateway)->verify_persisted_audit();
    check(audit.ok() && audit->records == 2 && audit->rejected == 1,
          "both verdicts persisted, the rejection audited" + mode);
  }
}

void flipped_verity_byte_fails_read() {
  std::printf("dm-verity tamper\n");
  using revelio::storage::MemDisk;
  using revelio::storage::Verity;
  auto data = std::make_shared<MemDisk>(4096, 64);
  auto hash = std::make_shared<MemDisk>(4096, 16);
  revelio::Bytes block(4096);
  for (std::uint64_t b = 0; b < 64; ++b) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<std::uint8_t>(b * 31 + i);
    }
    (void)data->write_block(b, block);
  }
  const auto meta = Verity::format(*data, *hash);
  check(meta.ok(), "format");
  if (!meta.ok()) return;
  data->raw_tamper(17 * 4096 + 123, 0x01);
  auto dev = Verity::open(data, hash, meta->root_hash);
  check(dev.ok(), "open succeeds (the tree itself is intact)");
  if (!dev.ok()) return;
  check(!(*dev)->read_block(17, block).ok(),
        "read of the flipped block fails");
  check((*dev)->read_block(16, block).ok(),
        "neighbouring block still reads");
}

void metric_names_are_well_formed() {
  std::printf("metric names\n");
  check(perfbench::valid_metric_name("revelio.stage.verify.ms_p99"),
        "dotted name accepted");
  check(!perfbench::valid_metric_name("bad name") &&
            !perfbench::valid_metric_name(".leading") &&
            !perfbench::valid_metric_name(std::string(65, 'a')),
        "space, leading dot and 65 characters rejected");
  check(perfbench::valid_unit("1/s") && !perfbench::valid_unit(""),
        "unit required");

  perfbench::Options options;
  options.seconds = 0.2;
  options.trace = true;
  const struct {
    const char* name;
    perfbench::RunResult (*run)(const perfbench::Options&);
  } workloads[] = {{"attest_warm", perfbench::run_attest_warm},
                   {"attest_cold", perfbench::run_attest_cold},
                   {"vm_storage", perfbench::run_vm_storage}};
  perfbench::RunResult result;
  for (const auto& w : workloads) {
    options.workload = w.name;
    perfbench::RunResult r = w.run(options);
    check(r.correct && r.failed == 0 && !r.end_to_end.empty() &&
              !r.per_layer.empty(),
          std::string("short traced ") + w.name + " run is correct");
    for (auto* set : {&r.end_to_end, &r.per_layer, &r.extra}) {
      result.extra.insert(result.extra.end(), set->begin(), set->end());
    }
  }
  perfbench::probe_crypto(result);
  perfbench::check_metric_names(result);
  for (const auto& v : result.violations) std::printf("    %s\n", v.c_str());
  check(result.correct, "every reported metric has a valid name and a unit");
}

}  // namespace

int main() {
  unregistered_measurement_is_rejected();
  flipped_verity_byte_fails_read();
  metric_names_are_well_formed();
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
