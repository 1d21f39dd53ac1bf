// The one attestation verifier every relying party runs: the browser
// extension (§5.3.2), the SP node before it issues a certificate (§5.3.1),
// both VMs of the leader key handoff (Fig 4) and the VM-to-VM secure
// channel (§5.2.2). Steps, in order, named by their failure_step:
//
//   binding                          check_binding(), before the VCEK fetch
//   revocation, tcb_horizon, chain   prepare(), up to the ECDSA equation
//   report_verify (signature, minimum_tcb), measurement      finish()
//
// verify() is all of it but the binding, for one report. A rejection's
// Error detail starts with its step ("revocation: chip is revoked"); its
// code is the raw snp.* code for chain and report_verify, else
// "attest.<step>". Each party keeps its transport, VCEK fetch, extra
// checks and error codes (RefusalCodes).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "revelio/evidence.hpp"

namespace revelio {
class RevocationSet;  // revelio/revocation.hpp
}  // namespace revelio

namespace revelio::fleet {
class TcbHorizon;  // fleet/tcb_horizon.hpp
}  // namespace revelio::fleet

namespace revelio::core {

class TrustedRegistry;  // revelio/trusted_registry.hpp

/// Outcome of one attestation pass — what the extension's UI would render.
struct AttestationChecks {
  bool evidence_fetched = false;
  bool binding_ok = false;       // REPORT_DATA covers the served key
  bool chain_ok = false;         // VCEK chains to the AMD root
  bool signature_ok = false;     // report signed by that VCEK
  bool measurement_ok = false;   // measurement is a known-good image
  bool tls_binding_ok = false;   // session terminates at the attested key
  std::string failure;
  /// Machine-readable step id of the first failed check ("" when all pass):
  /// evidence_fetch | evidence_parse | binding | kds_fetch | revocation |
  /// tcb_horizon | chain | report_verify | measurement | tls_binding.
  /// Mirrors the `result` label
  /// on the ext.attest.result.count metric and the ext.attest span.
  std::string failure_step;

  bool all_ok() const {
    return evidence_fetched && binding_ok && chain_ok && signature_ok &&
           measurement_ok && tls_binding_ok;
  }
};

/// A relying party's policy and the sequence that applies it. A view: what
/// it points at must outlive it. Unset gates are off.
struct AttestationVerifier {
  const char* party;  // string literal; prefixes the gate counters
  /// Any listed measurement, or failing that any the registry accepts.
  std::span<const sevsnp::Measurement> measurements{};
  const TrustedRegistry* registry = nullptr;
  std::string_view registry_service{};
  std::optional<sevsnp::TcbVersion> minimum_tcb{};
  const RevocationSet* revocation_set = nullptr;
  const fleet::TcbHorizon* tcb_horizon = nullptr;
  pki::ChainVerifier* chain_cache = nullptr;  // null: walk every time

  static Status check_binding(const EvidenceBundle& bundle,
                              AttestationChecks& checks);
  /// Returns the ECDSA inputs; the caller checks them (typically batched)
  /// and hands the verdict to finish().
  Result<sevsnp::PreparedReportVerify> prepare(
      const EvidenceBundle& bundle, const KdsService::VcekResponse& kds,
      std::uint64_t now_us, AttestationChecks& checks) const;
  Status finish(const EvidenceBundle& bundle, bool signature_ok,
                AttestationChecks& checks) const;
  /// The gates, sevsnp::verify_report (in its sevsnp.report_verify span),
  /// then the measurement.
  Status verify(const EvidenceBundle& bundle,
                const KdsService::VcekResponse& kds, std::uint64_t now_us,
                AttestationChecks& checks) const;
};

/// A party's codes for the verifier's rejections, detail kept. An empty
/// entry, and the revocation and tcb_horizon steps, keep the verifier's.
struct RefusalCodes {
  std::string_view binding{};
  std::string_view report{};  // chain and report_verify
  std::string_view measurement{};

  Error refuse(const Error& verdict) const;
};

}  // namespace revelio::core
