// The attestation gateway as the benchmark drives it: world replicas, the
// durable tier, and one closed-loop round of staged sessions.
//
// Only APIs the ROADMAP keeps are used: SessionEngine::run_staged,
// WebExtension::begin_session and its StagedAttestation stages,
// batch_verify_sessions, the pki::ChainVerifier interface, the store
// (StorageEnv, KvStore), obs::open_durable_audit / load_audit_stream and
// RevocationSet.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/audit_log.hpp"

namespace perfbench {

/// One world replica: KDS, attested Revelio VM, SP node, ACME CA and the
/// browser that visits it.
struct WorldSpec {
  /// Seeds every key in the world; equal seeds give byte-identical AMD
  /// chips and certificate chains.
  std::string seed;
  /// One-way browser <-> service latency (virtual ms).
  double client_latency_ms = 2.6;
  /// One-way browser <-> KDS latency (virtual ms); 0 keeps the default.
  double kds_latency_ms = 0.0;
  /// When false the browser pins a measurement the VM does not run, so
  /// every session against this world must be rejected.
  bool register_measurement = true;
};

class World;
void destroy_world(World* world);

struct WorldDeleter {
  void operator()(World* world) const { destroy_world(world); }
};
using WorldPtr = std::unique_ptr<World, WorldDeleter>;
WorldPtr make_world(const WorldSpec& spec);

struct GatewayOptions {
  unsigned workers = 1;
  /// Batched verify stage (batch_verify_sessions over each wavefront).
  bool batch_verify = false;
};

/// What one round of sessions produced.
struct RoundResult {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  /// Accepted sessions whose checks were not all ok, or whose page body
  /// differed: correctness violations.
  std::uint64_t unverified = 0;
  std::uint64_t body_mismatch = 0;
  std::string first_failure;

  double wall_s = 0.0;        // the run_staged call
  double cpu_s = 0.0;         // process CPU across the run_staged call
  double stage_call_s = 0.0;  // sum of the program calls inside its stages
  /// Per succeeded session: real time inside its stage calls, the thread
  /// CPU time those calls ran (the compute the browser waits for, without
  /// the time a preempted thread sat descheduled), and its virtual
  /// duration; all in ms.
  std::vector<double> session_ms;
  std::vector<double> session_cpu_ms;
  std::vector<double> virt_ms;
  /// Per succeeded session, per stage call (ms): ext setup, handshake,
  /// evidence_fetch, kds_fetch, verify, page_fetch.
  std::vector<double> stage_ms[6];

  std::uint64_t engine_batches = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batched_verifies = 0;

  // Deltas across the round of the engine's VCEK cache stats and of the
  // bytes the store appended.
  std::uint64_t vcek_hits = 0;
  std::uint64_t vcek_lookups = 0;
  std::uint64_t vcek_fetches = 0;
  std::uint64_t store_append_bytes = 0;
};

/// The gateway: one SessionEngine plus its durable tier (KV store on
/// MemStorageEnv, durable audit chain, store-backed RevocationSet) with the
/// engine's chain and VCEK caches attached to the store. The ChainVerifier
/// and StorageEnv it hands to the program are timing decorators, which
/// record spans while tracing is on and only forward otherwise.
class Gateway {
 public:
  static revelio::Result<std::unique_ptr<Gateway>> open(
      const GatewayOptions& options);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// One session per world, closed loop, all started together.
  RoundResult run_round(const std::vector<World*>& worlds);

  /// Re-reads the persisted audit chain from the store (load_audit_stream)
  /// and replays it; fails if any frame was lost or does not verify.
  revelio::Result<revelio::obs::AuditLog::VerifySummary>
  verify_persisted_audit();

 private:
  Gateway() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
