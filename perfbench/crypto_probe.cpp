// Per-layer crypto probes: the crypto module's public functions on fixed
// inputs, timed one call (or one group of small calls) at a time. They
// give the field/curve/hash cost beneath every workload's stages without
// instrumenting src/crypto.
#include <functional>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/modes.hpp"
#include "crypto/sha2.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace revelio;

namespace {

/// Median time of one call of `fn` in microseconds. Calls are grouped
/// `group` at a time so sub-microsecond work stays above clock resolution;
/// runs at least `min_reps` groups and for at least `budget_s`.
double median_us(const std::function<void()>& fn, int group = 1,
                 int min_reps = 5, double budget_s = 0.05) {
  fn();  // first call builds lazy tables
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    const auto t0 = Clock::now();
    for (int i = 0; i < group; ++i) fn();
    samples.push_back(seconds_between(t0, Clock::now()) * 1e6 / group);
  }
  return median(samples);
}

}  // namespace

void probe_crypto(RunResult& result) {
  crypto::HmacDrbg drbg(to_bytes(std::string_view("perfbench-crypto-probe")));
  const crypto::Curve& p256 = crypto::p256();
  const crypto::Curve& p384 = crypto::p384();
  const auto k256 = crypto::ec_generate(p256, drbg);
  const auto peer256 = crypto::ec_generate(p256, drbg);
  const auto k384 = crypto::ec_generate(p384, drbg);
  const crypto::Digest32 h256 = crypto::sha256(drbg.generate(64));
  const crypto::Digest48 h384 = crypto::sha384(drbg.generate(64));
  const auto sig256 = crypto::ecdsa_sign(p256, k256.d, h256);
  const auto sig384 = crypto::ecdsa_sign(p384, k384.d, h384);

  // 64 signatures by 64 distinct keys, as one batch of cold-gateway VCEKs.
  std::vector<crypto::EcdsaBatchItem> batch;
  for (int i = 0; i < 64; ++i) {
    const auto key = crypto::ec_generate(p384, drbg);
    const crypto::Digest48 h = crypto::sha384(drbg.generate(32));
    batch.push_back({key.q, Bytes(h.begin(), h.end()),
                     crypto::ecdsa_sign(p384, key.d, h)});
  }
  const Bytes block = drbg.generate(4096);
  const crypto::AesXts xts(drbg.generate(64));
  Bytes sector = block;

  bool all_ok = true;
  result.layer("crypto.p256_ecdh_us", median_us([&] {
                 all_ok &=
                     crypto::ecdh_shared_secret(p256, k256.d, peer256.q).ok();
               }),
               "us");
  result.layer("crypto.p256_sign_us",
               median_us([&] { (void)crypto::ecdsa_sign(p256, k256.d, h256); }),
               "us");
  result.layer("crypto.p256_verify_us", median_us([&] {
                 all_ok &= crypto::ecdsa_verify(p256, k256.q, h256, sig256);
               }),
               "us");
  result.layer("crypto.p384_verify_us", median_us([&] {
                 all_ok &= crypto::ecdsa_verify(p384, k384.q, h384, sig384);
               }),
               "us");
  result.layer("crypto.p384_verify_batch64_us_per_sig",
               median_us([&] {
                 for (const bool ok : crypto::ecdsa_verify_batch(p384, batch)) {
                   all_ok &= ok;
                 }
               }, 1, 3) / 64.0,
               "us");
  result.layer("crypto.sha256_4k_us",
               median_us([&] { (void)crypto::sha256(block); }, 64), "us");
  result.layer("crypto.aes_xts_4k_us",
               median_us([&] { xts.encrypt_sector(7, sector); }, 64), "us");
  if (!all_ok) result.violate("crypto probe: a valid signature or ECDH failed");
}

}  // namespace perfbench
