#include "revelio/web_extension.hpp"

#include <algorithm>

#include "crypto/ecdsa.hpp"
#include "crypto/sha2.hpp"
#include "obs/audit_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::core {

Browser::Browser(net::Network& network, std::string client_host,
                 std::vector<pki::Certificate> trust_roots,
                 crypto::HmacDrbg entropy)
    : network_(&network),
      client_host_(std::move(client_host)),
      trust_roots_(std::move(trust_roots)),
      entropy_(std::move(entropy)),
      chain_cache_(std::make_unique<pki::ShardedChainCache>(1, 64)) {}

Result<net::TlsSession*> Browser::session_for(const std::string& domain,
                                              std::uint16_t port,
                                              bool& created) {
  created = false;
  const auto it = sessions_.find(domain);
  if (it != sessions_.end()) return &it->second;

  auto address = network_->resolve(domain, port);
  if (!address.ok()) return address.error();

  net::TlsTrustConfig trust;
  trust.roots = trust_roots_;
  trust.server_name = domain;
  trust.now_us = network_->clock().now_us();
  trust.chain_cache = external_chain_cache_ != nullptr ? external_chain_cache_
                                                       : chain_cache_.get();
  auto session = net::TlsSession::connect(
      *network_, {client_host_, next_port_++}, *address, trust, entropy_);
  if (!session.ok()) return session.error();
  created = true;
  const auto [inserted, is_new] = sessions_.emplace(domain, std::move(*session));
  (void)is_new;
  return &inserted->second;
}

Result<Browser::FetchResult> Browser::fetch(const std::string& domain,
                                            std::uint16_t port,
                                            const net::HttpRequest& request) {
  bool created = false;
  auto session = session_for(domain, port, created);
  if (!session.ok()) return session.error();

  auto raw = (*session)->request(request.serialize());
  if (!raw.ok()) {
    // Session reset or record failure: reconnect once, as browsers do.
    sessions_.erase(domain);
    auto fresh = session_for(domain, port, created);
    if (!fresh.ok()) return fresh.error();
    session = fresh;
    raw = (*session)->request(request.serialize());
    if (!raw.ok()) return raw.error();
  }
  auto response = net::HttpResponse::parse(*raw);
  if (!response.ok()) return response.error();
  return FetchResult{std::move(*response), (*session)->server_public_key(),
                     created};
}

Result<Browser::FetchResult> Browser::get(const std::string& domain,
                                          std::uint16_t port,
                                          const std::string& path) {
  net::HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.host = domain;
  return fetch(domain, port, request);
}

Result<Bytes> Browser::connect(const std::string& domain,
                               std::uint16_t port) {
  bool created = false;
  auto session = session_for(domain, port, created);
  if (!session.ok()) return session.error();
  return (*session)->server_public_key();
}

void Browser::drop_session(const std::string& domain) {
  sessions_.erase(domain);
}

namespace {
std::vector<net::Address> kds_replicas(const WebExtensionConfig& config) {
  std::vector<net::Address> replicas{config.kds_address};
  replicas.insert(replicas.end(), config.kds_mirrors.begin(),
                  config.kds_mirrors.end());
  return replicas;
}
}  // namespace

WebExtension::WebExtension(Browser& browser, WebExtensionConfig config)
    : browser_(&browser),
      config_(std::move(config)),
      kds_failover_(kds_replicas(config_), config_.kds_breaker, "kds"),
      retry_jitter_(to_bytes("ext-retry-jitter"), to_bytes(browser.host())),
      chain_cache_(std::make_unique<pki::ShardedChainCache>(1, 64)),
      chain_verifier_(config_.shared_chain_cache != nullptr
                          ? config_.shared_chain_cache
                          : static_cast<pki::ChainVerifier*>(
                                chain_cache_.get())),
      own_vcek_cache_(config_.shared_vcek_cache != nullptr
                          ? nullptr
                          : std::make_unique<VcekCache>(/*shards=*/1)),
      vcek_cache_(config_.shared_vcek_cache != nullptr
                      ? config_.shared_vcek_cache
                      : own_vcek_cache_.get()) {}

void WebExtension::register_site(const std::string& domain,
                                 SiteRegistration site) {
  sites_[domain] = std::move(site);
  state_.erase(domain);
}

void WebExtension::invalidate(const std::string& domain) {
  state_.erase(domain);
}

const AttestationChecks* WebExtension::last_checks(
    const std::string& domain) const {
  const auto it = state_.find(domain);
  return it == state_.end() ? nullptr : &it->second.checks;
}

Result<bool> WebExtension::discover(const std::string& domain,
                                    std::uint16_t port) {
  auto result = browser_->get(domain, port, "/.well-known/revelio-attestation");
  if (!result.ok()) return result.error();
  if (result->response.status != 200) return false;
  return EvidenceBundle::parse(result->response.body).ok();
}

Result<KdsService::VcekResponse> WebExtension::fetch_vcek(
    const sevsnp::ChipId& chip, sevsnp::TcbVersion tcb,
    const net::Deadline& deadline) {
  // On a miss, this extension's own resilience stack (retry x failover,
  // breakers) becomes the cache's single-flight leader fetch — on a shared
  // gateway cache, concurrent sessions missing on the same (chip, tcb) wait
  // for it instead of stampeding the KDS.
  bool fetched = false;  // did THIS call run the leader fetch?
  auto result = vcek_cache_->get_or_fetch(chip, tcb, [&] {
    fetched = true;
    obs::Span span("ext.kds_fetch");
    ++kds_fetches_;
    obs::metrics().counter("ext.kds_fetch.count").inc();
    SimClock& clock = browser_->network().clock();
    // Retry wraps failover: each attempt sweeps the replica list (skipping
    // open breakers), and the backoff between attempts is what lets an open
    // breaker reach its half-open probe window.
    auto response = net::with_retries(
        clock, retry_jitter_, config_.retry, deadline, "ext.kds_fetch", [&] {
          return kds_failover_.execute(clock, [&](const net::Address& kds) {
            return KdsService::fetch(browser_->network(),
                                     {browser_->host(), 39999}, kds, chip,
                                     tcb);
          });
        });
    span.attr("result", response.ok() ? "ok" : response.error().code);
    return response;
  });
  if (!fetched && result.ok()) ++vcek_cache_hits_;
  // Single-flight followers land on the hit side: they paid a wait, not
  // a fetch — the flight timeline should say so.
  obs::flight_record(fetched ? obs::FlightEventType::kCacheMiss
                             : obs::FlightEventType::kCacheHit,
                     /*arg=*/1);
  return result;
}

void WebExtension::note_verdict(const AttestationChecks& checks,
                                const EvidenceBundle* bundle,
                                const KdsService::VcekResponse* kds,
                                bool accepted,
                                const crypto::Digest32* evidence_digest,
                                const crypto::Digest32* chain_digest) {
  obs::flight_record(obs::FlightEventType::kVerdict, accepted ? 1 : 0);
  if (config_.audit_log == nullptr) return;
  obs::AuditRecord rec;
  rec.session = config_.audit_session_id;
  rec.virt_us = browser_->network().clock().now_us();
  rec.accepted = accepted;
  rec.failure_step = checks.failure_step;
  if (checks.evidence_fetched) rec.checks |= obs::AuditRecord::kEvidenceFetched;
  if (checks.binding_ok) rec.checks |= obs::AuditRecord::kBindingOk;
  if (checks.chain_ok) rec.checks |= obs::AuditRecord::kChainOk;
  if (checks.signature_ok) rec.checks |= obs::AuditRecord::kSignatureOk;
  if (checks.measurement_ok) rec.checks |= obs::AuditRecord::kMeasurementOk;
  if (checks.tls_binding_ok) rec.checks |= obs::AuditRecord::kTlsBindingOk;
  if (bundle != nullptr) {
    // What the verdict was based on: the exact evidence bytes and the
    // claimed launch measurement / TCB inside them.
    rec.measurement = bundle->report.measurement;
    rec.tcb = bundle->report.reported_tcb.encode();
    rec.evidence_digest = evidence_digest != nullptr
                              ? *evidence_digest
                              : crypto::sha256(bundle->serialize());
  }
  if (kds != nullptr) {
    // One digest binding all three certificates the chain walk consumed.
    if (chain_digest != nullptr) {
      rec.vcek_chain = *chain_digest;
    } else {
      Bytes chain_der;
      append(chain_der, kds->vcek.serialize());
      append(chain_der, kds->ask.serialize());
      append(chain_der, kds->ark.serialize());
      rec.vcek_chain = crypto::sha256(chain_der);
    }
  }
  config_.audit_log->append(rec);
}

AttestationVerifier WebExtension::verifier(const std::string& domain) const {
  const SiteRegistration& site = sites_.at(domain);
  return {.party = "ext",
          .measurements = site.expected_measurements,
          .registry = site.registry,
          .registry_service = site.registry_service,
          .minimum_tcb = site.minimum_tcb,
          .revocation_set = config_.revocation_set,
          .tcb_horizon = config_.tcb_horizon,
          .chain_cache = chain_verifier_};
}

Result<WebExtension::Verified> WebExtension::fetch(
    const std::string& domain, std::uint16_t port,
    const net::HttpRequest& request) {
  if (sites_.count(domain) == 0) {
    return Error::make("extension.site_not_registered", domain);
  }
  obs::Span span("ext.session_validate");
  span.attr("domain", domain);
  span.attr("path", request.path);
  SimClock& clock = browser_->network().clock();
  const net::Deadline deadline =
      config_.attest_deadline_ms > 0.0
          ? net::Deadline::after_ms(clock, config_.attest_deadline_ms)
          : net::Deadline::unlimited();
  auto result = net::with_retries(
      clock, retry_jitter_, config_.retry, deadline, "ext.fetch",
      [&] { return browser_->fetch(domain, port, request); });
  if (!result.ok()) {
    span.attr("mode", "fetch");
    span.attr("result", result.error().code);
    return result.error();
  }

  auto state_it = state_.find(domain);
  const bool need_full_attestation =
      state_it == state_.end() || !state_it->second.attested ||
      result->new_session;

  if (need_full_attestation) {
    span.attr("mode", "attest");
    // The staged sequence, entered past its handshake: the page fetch above
    // already holds the session whose key the evidence must cover.
    StagedAttestation pass(*this, domain, port, result->tls_server_key,
                           deadline);
    obs::Span attest_span("ext.attest");
    attest_span.attr("domain", domain);
    Status st = pass.fetch_evidence();
    if (st.ok()) st = pass.fetch_kds();
    if (st.ok()) st = pass.verify();
    attest_span.attr("result", st.ok() ? "ok" : pass.checks().failure_step);
    attest_span.end();
    if (!st.ok()) {
      // Fail closed: the verdict is in last_checks(), the page is dropped.
      span.attr("result", st.error().code);
      return st.error();
    }
    span.attr("result", "ok");
    return Verified{std::move(result->response), pass.checks()};
  }

  // Monitoring path: every request validates that the connection still
  // terminates at the attested key (the redirect defence).
  span.attr("mode", "monitor");
  obs::metrics().counter("ext.monitor.count").inc();
  browser_->network().clock().advance_ms(config_.connection_check_overhead_ms);
  if (!(result->tls_server_key == state_it->second.attested_key)) {
    state_it->second.attested = false;
    state_it->second.checks.tls_binding_ok = false;
    state_it->second.checks.failure =
        "connection re-terminated at a different key";
    state_it->second.checks.failure_step = "tls_binding";
    obs::metrics()
        .counter("ext.monitor.fail.count", {{"reason", "key_changed"}})
        .inc();
    span.attr("result", "extension.connection_hijacked");
    return Error::make("extension.connection_hijacked",
                       "TLS endpoint changed after attestation");
  }
  span.attr("result", "ok");
  return Verified{std::move(result->response), state_it->second.checks};
}

Result<WebExtension::Verified> WebExtension::get(const std::string& domain,
                                                 std::uint16_t port,
                                                 const std::string& path) {
  net::HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.host = domain;
  return fetch(domain, port, request);
}

// --- StagedAttestation ------------------------------------------------------

Status WebExtension::StagedAttestation::wrong_stage(const char* want) const {
  return Error::make("extension.stage_order",
                     std::string("expected stage ") + want);
}

Status WebExtension::StagedAttestation::conclude(bool accepted) {
  ext_->note_verdict(
      checks_, bundle_ ? &*bundle_ : nullptr, kds_ ? &*kds_ : nullptr,
      accepted, audit_evidence_digest_ ? &*audit_evidence_digest_ : nullptr,
      audit_chain_digest_ ? &*audit_chain_digest_ : nullptr);
  obs::metrics()
      .counter("ext.attest.result.count",
               {{"result", accepted ? "ok" : checks_.failure_step}})
      .inc();
  DomainState& state = ext_->state_[domain_];
  state.checks = checks_;
  state.attested = accepted;
  if (!accepted) {
    return Error::make("extension.attestation_failed", checks_.failure);
  }
  state.attested_key = bundle_->payload;
  next_ = Stage::kPage;
  return Status::success();
}

Status WebExtension::StagedAttestation::handshake() {
  if (next_ != Stage::kHandshake) return wrong_stage("handshake");
  if (ext_->sites_.count(domain_) == 0) {
    return Error::make("extension.site_not_registered", domain_);
  }
  SimClock& clock = ext_->browser_->network().clock();
  deadline_ = ext_->config_.attest_deadline_ms > 0.0
                  ? net::Deadline::after_ms(clock,
                                            ext_->config_.attest_deadline_ms)
                  : net::Deadline::unlimited();
  auto key = ext_->browser_->connect(domain_, port_);
  if (!key.ok()) return key.error();
  session_key_ = std::move(*key);
  next_ = Stage::kEvidence;
  return Status::success();
}

Status WebExtension::StagedAttestation::fetch_evidence() {
  if (next_ != Stage::kEvidence) return wrong_stage("fetch_evidence");
  ++ext_->attestations_;
  // The evidence comes from the well-known URL over the same TLS session.
  obs::Span span("ext.evidence_fetch");
  auto response = net::with_retries(
      ext_->browser_->network().clock(), ext_->retry_jitter_,
      ext_->config_.retry, deadline_, "ext.evidence_fetch", [&] {
        return ext_->browser_->get(domain_, port_,
                                   "/.well-known/revelio-attestation");
      });
  if (!response.ok() || response->response.status != 200) {
    span.attr("result", "fetch_failed");
    checks_.failure = "evidence fetch failed";
    checks_.failure_step = "evidence_fetch";
    return conclude(false);
  }
  auto bundle = EvidenceBundle::parse(response->response.body);
  if (!bundle.ok()) {
    span.attr("result", "unparseable");
    checks_.failure = "evidence unparseable";
    checks_.failure_step = "evidence_parse";
    return conclude(false);
  }
  span.attr("result", "ok");
  span.end();
  checks_.evidence_fetched = true;

  // REPORT_DATA must cover the served payload (the VM's identity key).
  if (!AttestationVerifier::check_binding(*bundle, checks_).ok()) {
    return conclude(false);
  }
  bundle_ = std::move(*bundle);
  next_ = Stage::kKds;
  return Status::success();
}

Status WebExtension::StagedAttestation::fetch_kds() {
  if (next_ != Stage::kKds) return wrong_stage("fetch_kds");
  auto kds = ext_->fetch_vcek(bundle_->report.chip_id,
                              bundle_->report.reported_tcb, deadline_);
  if (!kds.ok()) {
    checks_.failure = "VCEK fetch failed: " + kds.error().to_string();
    checks_.failure_step = "kds_fetch";
    return conclude(false);
  }
  kds_ = std::move(*kds);
  next_ = Stage::kVerify;
  return Status::success();
}

bool WebExtension::StagedAttestation::check_tls_binding() {
  // The TLS endpoint must terminate at the attested key (§3.4.5).
  if (!(session_key_ == bundle_->payload)) {
    checks_.failure = "TLS connection does not terminate at the attested key";
    checks_.failure_step = "tls_binding";
    return false;
  }
  checks_.tls_binding_ok = true;
  return true;
}

Status WebExtension::StagedAttestation::verify() {
  if (next_ != Stage::kVerify || prepared_) return wrong_stage("verify");
  const Status report = ext_->verifier(domain_).verify(
      *bundle_, *kds_, ext_->browser_->network().clock().now_us(), checks_);
  return conclude(report.ok() && check_tls_binding());
}

Result<sevsnp::PreparedReportVerify>
WebExtension::StagedAttestation::verify_prepare() {
  if (next_ != Stage::kVerify || prepared_) {
    return wrong_stage("verify").error();
  }
  auto prepared = ext_->verifier(domain_).prepare(
      *bundle_, *kds_, ext_->browser_->network().clock().now_us(), checks_);
  if (!prepared.ok()) return conclude(false).error();
  prepared_ = true;
  return prepared;
}

Status WebExtension::StagedAttestation::verify_finish(bool signature_ok) {
  if (next_ != Stage::kVerify || !prepared_) return wrong_stage("verify");
  prepared_ = false;
  const Status report =
      ext_->verifier(domain_).finish(*bundle_, signature_ok, checks_);
  return conclude(report.ok() && check_tls_binding());
}

Result<net::HttpResponse> WebExtension::StagedAttestation::fetch_page(
    const std::string& path) {
  if (next_ != Stage::kPage) {
    auto err = wrong_stage("fetch_page");
    return err.error();
  }
  // The session is attested now, so this takes fetch()'s monitoring path
  // (connection-context re-check included).
  auto verified = ext_->get(domain_, port_, path);
  if (!verified.ok()) return verified.error();
  next_ = Stage::kDone;
  return std::move(verified->response);
}

std::vector<Status> batch_verify_sessions(
    const std::vector<WebExtension::StagedAttestation*>& sessions) {
  using StagedAttestation = WebExtension::StagedAttestation;
  std::vector<Status> out(sessions.size(), Status::success());

  // Per-session prepare: gates, chain walk, key/signature decode,
  // signed-body digest. A failure is terminal for that slot and bookkept
  // exactly like a failed verify(); the slot simply doesn't join the
  // signature batch.
  std::vector<crypto::EcdsaBatchItem> items;
  std::vector<std::size_t> slots;  // items[j] belongs to sessions[slots[j]]
  std::vector<crypto::Curve::Point> pinned;  // distinct VCEKs pinned so far
  items.reserve(sessions.size());
  slots.reserve(sessions.size());
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    StagedAttestation* session = sessions[k];
    if (session == nullptr) continue;
    auto prep = session->verify_prepare();
    if (!prep.ok()) {
      out[k] = prep.error();
      continue;
    }
    // The VCEK is a well-known base every session of this gateway verifies
    // against — share its precomputed tables process-wide. A wavefront
    // usually carries one or a few chips, so pin each distinct key once.
    const crypto::Curve::Point& vcek = prep->vcek_pub;
    const bool seen =
        std::any_of(pinned.begin(), pinned.end(), [&](const auto& q) {
          return q.infinity == vcek.infinity && q.x == vcek.x && q.y == vcek.y;
        });
    if (!seen) {
      crypto::p384().pin_verify_tables(vcek);
      pinned.push_back(vcek);
    }
    crypto::EcdsaBatchItem item;
    item.pub = prep->vcek_pub;
    append(item.msg_hash, prep->digest.view());
    item.sig = prep->signature;
    items.push_back(std::move(item));
    slots.push_back(k);
  }
  if (items.empty()) return out;

  // Audit digests, eight sessions per multi-buffer SHA-256 pass. The lanes
  // advance in lockstep, so only aligned runs of equal-length encodings
  // batch; every other slot keeps note_verdict's inline hashing, which
  // produces the identical digest.
  std::vector<Bytes> evidence(slots.size());
  std::vector<Bytes> chains(slots.size());
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const StagedAttestation& session = *sessions[slots[j]];
    evidence[j] = session.bundle_->serialize();
    Bytes der;
    append(der, session.kds_->vcek.serialize());
    append(der, session.kds_->ask.serialize());
    append(der, session.kds_->ark.serialize());
    chains[j] = std::move(der);
  }
  const auto hash_runs =
      [&](const std::vector<Bytes>& encodings,
          std::optional<crypto::Digest32> StagedAttestation::*member) {
        constexpr std::size_t kLanes = crypto::Sha256x8::kLanes;
        std::size_t j = 0;
        while (j + kLanes <= encodings.size()) {
          bool uniform = true;
          for (std::size_t l = 1; l < kLanes; ++l) {
            uniform = uniform && encodings[j + l].size() == encodings[j].size();
          }
          if (!uniform) {
            ++j;
            continue;
          }
          ByteView views[kLanes];
          crypto::Digest32 digests[kLanes];
          for (std::size_t l = 0; l < kLanes; ++l) views[l] = encodings[j + l];
          crypto::sha256_x8(views, digests);
          for (std::size_t l = 0; l < kLanes; ++l) {
            sessions[slots[j + l]]->*member = digests[l];
          }
          j += kLanes;
        }
      };
  hash_runs(evidence, &StagedAttestation::audit_evidence_digest_);
  hash_runs(chains, &StagedAttestation::audit_chain_digest_);

  // ONE interleaved multi-scalar pass over every prepared signature; the
  // per-signature offender fallback lives inside ecdsa_verify_batch, so a
  // forged signature fails exactly its own session.
  obs::Span span("sevsnp.batch_signature_verify");
  span.attr("batch", static_cast<std::uint64_t>(items.size()));
  const std::vector<bool> verdicts =
      crypto::ecdsa_verify_batch(crypto::p384(), items);
  std::size_t rejected = 0;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    rejected += verdicts[j] ? 0 : 1;
    out[slots[j]] = sessions[slots[j]]->verify_finish(verdicts[j]);
  }
  span.attr("rejected", static_cast<std::uint64_t>(rejected));
  return out;
}

}  // namespace revelio::core
