// vm_storage: the service VM's data path on MemDisk, one I/O thread.
//
// A dm-verity rootfs image is read sequentially right after a fresh
// Verity::open (every first touch climbs the hash tree), then at random
// 4 KiB offsets; a dm-crypt data volume takes random 4 KiB writes, each
// read back at once. Only SHA-256, AES-XTS and src/storage run here: no EC
// and no session engine, so an EC or engine change must read as no change.
#include <cstring>
#include <optional>
#include <random>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"

namespace perfbench {

using namespace revelio;

namespace {

constexpr std::size_t kBlock = 4096;
constexpr std::uint64_t kImageBlocks = 8192;  // 32 MiB rootfs
constexpr std::uint64_t kDataBlocks = 4096;   // 16 MiB data volume payload
constexpr std::uint64_t kSeqBlocks = 2048;    // sequential window per round
constexpr std::uint64_t kRandReads = 2048;
constexpr std::uint64_t kRandWrites = 1024;
constexpr int kSetupReps = 3;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The devices one VM sees, plus the image it was built from.
struct Volumes {
  Bytes image;  // what the rootfs must read back, block for block
  std::shared_ptr<storage::MemDisk> data_disk;
  std::shared_ptr<storage::MemDisk> hash_disk;
  crypto::Digest32 root;
  std::shared_ptr<storage::DmCryptDevice> crypt;
};

/// Builds the rootfs image and its hash tree, and formats and opens the
/// encrypted data volume. Everything derives from `seed`.
Result<Volumes> set_up(std::uint64_t seed) {
  Volumes v;
  std::mt19937_64 rng(seed);
  v.image.resize(kImageBlocks * kBlock);
  for (std::size_t i = 0; i < v.image.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(v.image.data() + i, &word, 8);
  }
  v.data_disk = std::make_shared<storage::MemDisk>(kBlock, kImageBlocks);
  for (std::uint64_t b = 0; b < kImageBlocks; ++b) {
    auto st = v.data_disk->write_block(
        b, ByteView(v.image.data() + b * kBlock, kBlock));
    if (!st.ok()) return st.error();
  }
  v.hash_disk = std::make_shared<storage::MemDisk>(
      kBlock, kImageBlocks * 64 / kBlock + 16);
  auto meta = storage::Verity::format(*v.data_disk, *v.hash_disk);
  if (!meta.ok()) return meta.error();
  v.root = meta->root_hash;
  auto opened = storage::Verity::open(v.data_disk, v.hash_disk, v.root);
  if (!opened.ok()) return opened.error();

  Bytes volume_key(32), salt(32);
  for (auto& b : volume_key) b = static_cast<std::uint8_t>(rng());
  for (auto& b : salt) b = static_cast<std::uint8_t>(rng());
  auto crypt_disk = std::make_shared<storage::MemDisk>(kBlock, kDataBlocks + 8);
  auto formatted = storage::CryptVolume::format(crypt_disk, volume_key, salt);
  if (!formatted.ok()) return formatted.error();
  auto crypt = storage::CryptVolume::open(crypt_disk, volume_key);
  if (!crypt.ok()) return crypt.error();
  v.crypt = std::move(*crypt);
  return v;
}

enum OpKind { kVerityRead = 0, kCryptWrite, kCryptRead, kOpKinds };
const char* const kOpSpan[kOpKinds] = {
    "storage.verity_read", "storage.crypt_write", "storage.crypt_read"};

struct IoPhase {
  std::uint64_t rounds = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> op_us[kOpKinds];
  std::vector<double> open_ms;
  RoundSeries series;  // op latencies in ms, one entry per round

  double ops_per_s() const { return series.median_rate(); }
};

/// One round of the op stream. Every read is compared with the bytes that
/// were imaged or written; a mismatch is a correctness violation.
void run_round(Volumes& v, std::mt19937_64& rng, IoPhase& phase,
               RunResult& result) {
  const auto round_start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t round = phase.rounds++;
  Bytes buf(kBlock);

  std::vector<double> round_ms;
  round_ms.reserve(kSeqBlocks + kRandReads + 2 * kRandWrites);
  std::uint64_t round_failed = 0;

  const auto io = [&](OpKind kind, auto&& call) {
    ScopedSpan span(kOpSpan[kind], round);
    const auto t0 = Clock::now();
    const Status st = call();
    const double us = us_between(t0, Clock::now());
    phase.op_us[kind].push_back(us);
    round_ms.push_back(us / 1e3);
    ++phase.ops;
    if (!st.ok()) {
      ++round_failed;
      ++phase.failed;
      result.violate(std::string(kOpSpan[kind]) + " failed: " +
                     st.error().to_string());
    }
    return st.ok();
  };
  const auto verity_read = [&](storage::VerityDevice& dev, std::uint64_t b) {
    if (io(kVerityRead, [&] { return dev.read_block(b, buf); }) &&
        std::memcmp(buf.data(), v.image.data() + b * kBlock, kBlock) != 0) {
      result.violate("verity block " + std::to_string(b) +
                     " differs from the image");
    }
  };

  const auto t_open = Clock::now();
  auto opened = storage::Verity::open(v.data_disk, v.hash_disk, v.root);
  phase.open_ms.push_back(us_between(t_open, Clock::now()) / 1e3);
  if (!opened.ok()) {
    result.violate("verity open failed: " + opened.error().to_string());
    return;
  }
  storage::VerityDevice& verity = **opened;

  const std::uint64_t seq_start = rng() % (kImageBlocks - kSeqBlocks);
  for (std::uint64_t b = seq_start; b < seq_start + kSeqBlocks; ++b) {
    verity_read(verity, b);
  }
  for (std::uint64_t k = 0; k < kRandReads; ++k) {
    verity_read(verity, rng() % kImageBlocks);
  }

  Bytes payload(kBlock);
  for (std::uint64_t k = 0; k < kRandWrites; ++k) {
    const std::uint64_t b = rng() % kDataBlocks;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(payload.data() + i, &word, 8);
    }
    if (!io(kCryptWrite, [&] { return v.crypt->write_block(b, payload); })) {
      continue;
    }
    if (io(kCryptRead, [&] { return v.crypt->read_block(b, buf); }) &&
        buf != payload) {
      result.violate("crypt block " + std::to_string(b) +
                     " does not read back what was written");
    }
  }
  const double cpu_s = process_cpu_seconds() - cpu0;
  const double wall_s = seconds_between(round_start, Clock::now());
  phase.wall_s += wall_s;
  const auto ok_ops = static_cast<double>(round_ms.size() - round_failed);
  phase.series.add(ok_ops, wall_s, cpu_s, std::move(round_ms));
}

void run_io_phase(double seconds, Volumes& v, std::mt19937_64& rng,
                  IoPhase& phase, RunResult& result) {
  const auto start = Clock::now();
  do {
    run_round(v, rng, phase, result);
  } while (seconds_between(start, Clock::now()) < seconds);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// MiB moved per second spent inside the given ops.
double mb_per_s(std::initializer_list<const std::vector<double>*> ops) {
  double blocks = 0.0;
  double total_us = 0.0;
  for (const auto* op_us : ops) {
    blocks += static_cast<double>(op_us->size());
    for (const double us : *op_us) total_us += us;
  }
  return ratio(blocks * kBlock / (1 << 20), total_us / 1e6);
}

/// Verified (verity) plus decrypted (crypt) bytes read per second.
double read_mb_s(const IoPhase& p) {
  return mb_per_s({&p.op_us[kVerityRead], &p.op_us[kCryptRead]});
}

/// Encrypted bytes written per second.
double write_mb_s(const IoPhase& p) {
  return mb_per_s({&p.op_us[kCryptWrite]});
}

std::uint64_t ancestor_counter(const char* which) {
  return obs::metrics().counter_value(
      std::string("storage.verity_read.ancestor_cache.") + which + ".count");
}

}  // namespace

RunResult run_vm_storage(const Options& options) {
  RunResult result;
  describe_host(result);
  result.info["workers"] = "1";
  result.info["store_backend"] = "memdisk";

  std::vector<double> setup_times;
  std::optional<Volumes> volumes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    volumes.reset();
    const auto t0 = Clock::now();
    auto built = set_up(options.seed);
    setup_times.push_back(seconds_between(t0, Clock::now()));
    if (!built.ok()) {
      result.violate("set-up failed: " + built.error().to_string());
      return result;
    }
    volumes = std::move(*built);
  }
  std::mt19937_64 rng(options.seed ^ 0x5DEECE66Dull);

  // Untimed round, as on the attest workloads; peak RSS is read after it
  // because the timed phase only adds latency samples that grow with the
  // run's length.
  IoPhase warmup;
  run_round(*volumes, rng, warmup, result);
  const double rss_mb = peak_rss_mb();

  IoPhase untraced;
  run_io_phase(options.trace ? options.seconds / 2 : options.seconds, *volumes,
               rng, untraced, result);
  // Every round holds 6144 ops: each round is its own window.
  const double p50_ms = untraced.series.windowed_latency(0.50, 1);
  const double p90_ms = untraced.series.windowed_latency(0.90, 1);
  const double p99_ms = untraced.series.windowed_latency(0.99, 1);
  result.e2e("ops_per_s", untraced.ops_per_s(), "1/s");
  result.e2e("op_ms_p50", p50_ms, "ms");
  result.e2e("op_ms_p90", p90_ms, "ms");
  result.e2e("cpu_ms_per_op", untraced.series.median_cpu_ms(), "ms");
  result.e2e("setup_s", median(setup_times), "s");
  result.e2e("peak_rss_mb", rss_mb, "MiB");
  // The same figures under the storage workload's own names.
  result.note("read_mb_s", read_mb_s(untraced), "MB/s");
  result.note("write_mb_s", write_mb_s(untraced), "MB/s");
  result.note("io_us_p50", p50_ms * 1e3, "us");
  result.note("io_us_p90", p90_ms * 1e3, "us");
  result.note("io_us_p99", p99_ms * 1e3, "us");
  result.note("io_samples", static_cast<double>(untraced.series.samples()),
              "count");
  result.note("timed_rounds", static_cast<double>(untraced.rounds), "count");
  result.note("timed_wall_s", untraced.wall_s, "s");

  IoPhase traced;
  if (options.trace) {
    const std::uint64_t hits0 = ancestor_counter("hit");
    const std::uint64_t walks0 = ancestor_counter("full_walk");
    set_tracing(true);
    run_io_phase(options.seconds / 2, *volumes, rng, traced, result);
    set_tracing(false);
    const double hits = static_cast<double>(ancestor_counter("hit") - hits0);
    const double walks =
        static_cast<double>(ancestor_counter("full_walk") - walks0);
    const auto span_q = [](OpKind kind, double q) {
      return quantile(span_durations_us(kOpSpan[kind]), q);
    };
    result.layer("storage.verity_read.us_p50", span_q(kVerityRead, 0.50), "us");
    result.layer("storage.verity_read.us_p99", span_q(kVerityRead, 0.99), "us");
    result.layer("storage.verity_ancestor_hit_ratio",
                 ratio(hits, hits + walks), "ratio");
    result.layer("storage.crypt_read.us_p50", span_q(kCryptRead, 0.50), "us");
    result.layer("storage.crypt_write.us_p50", span_q(kCryptWrite, 0.50), "us");
    result.layer("storage.read_mb_s", read_mb_s(traced), "MB/s");
    result.layer("storage.write_mb_s", write_mb_s(traced), "MB/s");
    result.layer("storage.verity_open.ms_p50", median(traced.open_ms), "ms");
    result.layer("bench.latency_samples",
                 static_cast<double>(traced.series.samples()), "count");
    result.layer("trace.untraced_ops_per_s", untraced.ops_per_s(), "1/s");
    result.layer("trace.traced_ops_per_s", traced.ops_per_s(), "1/s");
    result.layer("trace.overhead_ratio",
                 ratio(traced.ops_per_s(), untraced.ops_per_s()), "ratio");
  }
  for (const IoPhase* p : {&untraced, &traced}) {
    result.attempted += p->ops;
    result.failed += p->failed;
    result.succeeded += p->ops - p->failed;
  }
  return result;
}

}  // namespace perfbench
