#include "revelio/attestation_verifier.hpp"

#include <algorithm>

#include "fleet/tcb_horizon.hpp"
#include "obs/metrics.hpp"
#include "revelio/revocation.hpp"
#include "revelio/trusted_registry.hpp"

namespace revelio::core {

namespace {

/// Records a failed step in `checks`; returns it with `code` (default
/// "attest.<step>") and the detail "<step>: <failure>".
Error reject(AttestationChecks& checks, const char* step, std::string failure,
             std::string code = {}) {
  checks.failure = std::move(failure);
  checks.failure_step = step;
  if (code.empty()) code = std::string("attest.") + step;
  return Error::make(std::move(code), std::string(step) + ": " + checks.failure);
}

/// Maps a sevsnp report result onto `checks`: chain vs report_verify.
Status judge_report(const Status& st, AttestationChecks& checks) {
  const bool chain = !st.ok() && st.error().code == "snp.vcek_chain_invalid";
  checks.chain_ok = !chain;
  checks.signature_ok = st.ok();
  if (st.ok()) return st;
  return reject(checks, chain ? "chain" : "report_verify",
                st.error().to_string(), st.error().code);
}

/// Revocation, then the TCB horizon: before any signature work, so
/// condemned evidence never reaches the crypto nor joins a batch.
Status check_gates(const AttestationVerifier& v, const EvidenceBundle& bundle,
                   const KdsService::VcekResponse& kds, std::uint64_t now_us,
                   AttestationChecks& checks) {
  const sevsnp::AttestationReport& report = bundle.report;
  if (const RevocationSet* set = v.revocation_set) {
    const char* what = set->is_measurement_revoked(report.measurement)
                           ? "measurement"
                       : set->is_chip_revoked(report.chip_id) ? "chip"
                       : set->is_vcek_revoked(kds.vcek.fingerprint())
                           ? "VCEK certificate"
                           : nullptr;
    if (what != nullptr) {
      obs::metrics()
          .counter(std::string(v.party) + ".attest.revoked.count",
                   {{"kind", what}})
          .inc();
      return reject(checks, "revocation", std::string(what) + " is revoked");
    }
  }
  if (v.tcb_horizon != nullptr &&
      !v.tcb_horizon->acceptable(report.chip_id, report.reported_tcb,
                                 now_us)) {
    obs::metrics()
        .counter(std::string(v.party) + ".attest.tcb_horizon.count")
        .inc();
    return reject(checks, "tcb_horizon",
                  "report TCB is below the chip's update horizon");
  }
  return Status::success();
}

Status check_measurement(const AttestationVerifier& v,
                         const sevsnp::Measurement& m,
                         AttestationChecks& checks) {
  if (std::find(v.measurements.begin(), v.measurements.end(), m) ==
          v.measurements.end() &&
      (v.registry == nullptr ||
       !v.registry->is_acceptable(std::string(v.registry_service), m))) {
    return reject(checks, "measurement", "measurement not in the accepted set");
  }
  checks.measurement_ok = true;
  return Status::success();
}

}  // namespace

Status AttestationVerifier::check_binding(const EvidenceBundle& bundle,
                                          AttestationChecks& checks) {
  if (!bundle.binding_ok()) {
    return reject(checks, "binding", "REPORT_DATA does not cover the payload");
  }
  checks.binding_ok = true;
  return Status::success();
}

Result<sevsnp::PreparedReportVerify> AttestationVerifier::prepare(
    const EvidenceBundle& bundle, const KdsService::VcekResponse& kds,
    std::uint64_t now_us, AttestationChecks& checks) const {
  if (auto st = check_gates(*this, bundle, kds, now_us, checks); !st.ok()) {
    return st.error();
  }
  auto prepared = sevsnp::prepare_report_verify(
      bundle.report, kds.vcek, {kds.ask}, {kds.ark},
      {.now_us = now_us, .chain_cache = chain_cache});
  if (prepared.ok()) return prepared;
  sevsnp::record_report_verify_result(prepared.error());
  return judge_report(prepared.error(), checks).error();
}

Status AttestationVerifier::finish(const EvidenceBundle& bundle,
                                   bool signature_ok,
                                   AttestationChecks& checks) const {
  const Status report = sevsnp::finish_report_verify(
      bundle.report, signature_ok, {.minimum_tcb = minimum_tcb});
  sevsnp::record_report_verify_result(report);
  if (auto st = judge_report(report, checks); !st.ok()) return st;
  return check_measurement(*this, bundle.report.measurement, checks);
}

Status AttestationVerifier::verify(const EvidenceBundle& bundle,
                                   const KdsService::VcekResponse& kds,
                                   std::uint64_t now_us,
                                   AttestationChecks& checks) const {
  if (auto st = check_gates(*this, bundle, kds, now_us, checks); !st.ok()) {
    return st;
  }
  const Status report = sevsnp::verify_report(
      bundle.report, kds.vcek, {kds.ask}, {kds.ark},
      {.now_us = now_us, .minimum_tcb = minimum_tcb, .chain_cache = chain_cache});
  if (auto st = judge_report(report, checks); !st.ok()) return st;
  return check_measurement(*this, bundle.report.measurement, checks);
}

Error RefusalCodes::refuse(const Error& verdict) const {
  const std::string_view code =
      verdict.code == "attest.binding"       ? binding
      : verdict.code == "attest.measurement" ? measurement
      : verdict.code.rfind("snp.", 0) == 0   ? report
                                             : std::string_view();
  return code.empty() ? verdict : Error::make(std::string(code), verdict.detail);
}

}  // namespace revelio::core
