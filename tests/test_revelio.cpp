#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>

#include "fleet/tcb_horizon.hpp"
#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "obs/metrics.hpp"
#include "pki/acme.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/secure_channel.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/trusted_registry.hpp"
#include "revelio/web_extension.hpp"

namespace revelio::core {
namespace {

using crypto::HmacDrbg;

constexpr const char* kDomain = "svc.revelio.app";

/// Full deployment fixture: 3 SEV-SNP platforms, KDS, ACME, SP node,
/// 3 Revelio VMs behind one domain, a browser with the extension.
struct RevelioFixture : ::testing::Test {
  RevelioFixture()
      : network(clock),
        fixture_drbg(to_bytes(std::string_view("revelio-e2e"))),
        kds(fixture_drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, fixture_drbg) {
    // Base image + service artefacts.
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {
        {"nginx", "1.18", {{"/usr/sbin/nginx",
                            to_bytes(std::string_view("nginx-binary"))}}}};
    base_digest = registry.publish(base);

    image = build_image("service-binary-v1");
    expected_measurement = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);
  }

  imagebuild::VmImage build_image(std::string_view service_content) {
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = base_digest;
    inputs.service_files["/opt/service/app"] = to_bytes(service_content);
    inputs.initrd.services = {{"nginx", "/usr/sbin/nginx", 120.0},
                              {"app", "/opt/service/app", 300.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    auto built = builder.build(inputs);
    EXPECT_TRUE(built.ok());
    return *built;
  }

  net::HttpRouter app_routes() {
    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view("<html>app</html>")),
                                   "text/html");
    });
    return routes;
  }

  /// Deploys one node on a fresh platform.
  std::unique_ptr<RevelioVm> deploy_node(const std::string& host,
                                         const imagebuild::VmImage& img) {
    auto sp = std::make_unique<sevsnp::AmdSp>(
        to_bytes("platform-" + host), sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*sp);
    RevelioVmConfig config;
    config.domain = kDomain;
    config.host = host;
    config.image = img;
    config.kds_address = {"kds.amd.com", 443};
    config.revocation_set = node_revocation;
    config.tcb_horizon = node_horizon;
    auto node = RevelioVm::deploy(*sp, network, config, app_routes());
    EXPECT_TRUE(node.ok()) << (node.ok() ? "" : node.error().to_string());
    platforms.push_back(std::move(sp));
    return std::move(*node);
  }

  /// Deploys the standard 3-node fleet and provisions certificates.
  void provision_standard_fleet() {
    for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
      nodes.push_back(deploy_node(host, image));
    }
    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected_measurement};
    sp = std::make_unique<SpNode>(network, acme, sp_config);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sp->approve_node(nodes[i]->bootstrap_address(),
                       platforms[i]->chip_id());
    }
    auto outcomes = sp->provision_fleet();
    ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
    fleet_outcomes = *outcomes;
    network.dns_set_a(kDomain, "10.0.0.1");
  }

  Browser make_browser() {
    return Browser(network, "laptop", acme.trusted_roots(),
                   HmacDrbg(to_bytes(std::string_view("browser-entropy"))));
  }

  WebExtension make_extension(Browser& browser) {
    WebExtensionConfig config;
    config.kds_address = {"kds.amd.com", 443};
    return WebExtension(browser, config);
  }

  SiteRegistration manual_registration() {
    SiteRegistration site;
    site.expected_measurements = {expected_measurement};
    return site;
  }

  SimClock clock;
  net::Network network;
  HmacDrbg fixture_drbg;
  sevsnp::KeyDistributionServer kds;
  KdsService kds_service;
  pki::AcmeIssuer acme;
  imagebuild::PackageRegistry registry;
  crypto::Digest32 base_digest;
  imagebuild::VmImage image;
  sevsnp::Measurement expected_measurement;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
  std::vector<std::unique_ptr<RevelioVm>> nodes;
  std::unique_ptr<SpNode> sp;
  std::vector<NodeAttestation> fleet_outcomes;
  /// Key-handoff gates of the nodes deploy_node() builds from now on.
  const RevocationSet* node_revocation = nullptr;
  const fleet::TcbHorizon* node_horizon = nullptr;
};

// ------------------------------------------------------------ provisioning

TEST_F(RevelioFixture, FleetProvisioningSharesOneCertificate) {
  provision_standard_fleet();
  ASSERT_EQ(fleet_outcomes.size(), 3u);
  for (const auto& outcome : fleet_outcomes) {
    EXPECT_TRUE(outcome.attested) << outcome.failure;
  }
  for (const auto& node : nodes) {
    EXPECT_TRUE(node->serving_tls());
  }
  // One ACME issuance for the whole fleet (rate-limit friendly, §3.4.6).
  EXPECT_EQ(acme.issued_in_window("revelio.app"), 1u);
  ASSERT_TRUE(sp->issued_certificate().has_value());
  // The certificate key is the leader's identity key.
  EXPECT_EQ(sp->issued_certificate()->public_key,
            nodes[0]->identity_public_key());
}

TEST_F(RevelioFixture, AcmeOutageRetriedOnBackoffUntilWindowEnds) {
  for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
    nodes.push_back(deploy_node(host, image));
  }
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp_config.retry = {.max_attempts = 6,
                     .initial_backoff_ms = 200.0,
                     .multiplier = 2.0,
                     .max_backoff_ms = 1600.0,
                     .jitter = 0.0};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sp->approve_node(nodes[i]->bootstrap_address(), platforms[i]->chip_id());
  }
  // CA maintenance window opens now and lasts 500ms of virtual time; the
  // SP's backoff schedule (200, 400, ...) carries the clock past it.
  const auto outage_end = clock.now_us() + 500'000;
  acme.set_outage_window(clock.now_us(), outage_end);
  const std::uint64_t attempts_before = obs::metrics().counter_value(
      "retry.attempts", {{"op", "sp.acme_finalize"}});

  auto outcomes = sp->provision_fleet();
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  for (const auto& outcome : *outcomes) {
    EXPECT_TRUE(outcome.attested) << outcome.failure;
  }
  ASSERT_TRUE(sp->issued_certificate().has_value());
  // Issuance only succeeded after the window closed, on a later attempt.
  EXPECT_GE(clock.now_us(), outage_end);
  EXPECT_GE(obs::metrics().counter_value("retry.attempts",
                                         {{"op", "sp.acme_finalize"}}),
            attempts_before + 2);
}

TEST_F(RevelioFixture, AllNodesServeTheSameTlsIdentity) {
  provision_standard_fleet();
  Browser browser = make_browser();
  // Hit every node directly: the served leaf key must be identical.
  Bytes first_key;
  for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
    network.dns_set_a(kDomain, host);
    browser.drop_session(kDomain);
    auto result = browser.get(kDomain, 443, "/");
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    if (first_key.empty()) {
      first_key = result->tls_server_key;
    } else {
      EXPECT_EQ(result->tls_server_key, first_key);
    }
  }
}

TEST_F(RevelioFixture, TamperedNodeFailsSpAttestationOthersProceed) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  // Node 2 runs a backdoored build.
  const imagebuild::VmImage backdoored = build_image("service-backdoored");
  nodes.push_back(deploy_node("10.0.0.2", backdoored));

  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  sp->approve_node(nodes[0]->bootstrap_address(), platforms[0]->chip_id());
  sp->approve_node(nodes[1]->bootstrap_address(), platforms[1]->chip_id());

  auto outcomes = sp->provision_fleet();
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 2u);
  EXPECT_TRUE((*outcomes)[0].attested);
  EXPECT_FALSE((*outcomes)[1].attested);
  EXPECT_NE((*outcomes)[1].failure.find("sp.measurement_mismatch"),
            std::string::npos);
  EXPECT_TRUE(nodes[0]->serving_tls());
  EXPECT_FALSE(nodes[1]->serving_tls());
}

TEST_F(RevelioFixture, WrongChipRejectedDespiteValidReport) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  // Approve the address but bind it to a different chip.
  sevsnp::AmdSp other(to_bytes(std::string_view("unrelated-platform")),
                      sevsnp::TcbVersion{2, 0, 8, 115});
  sp->approve_node(nodes[0]->bootstrap_address(), other.chip_id());
  auto csr = sp->attest_node(nodes[0]->bootstrap_address());
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.error().code, "sp.chip_mismatch");
}

TEST_F(RevelioFixture, UnapprovedNodeRejected) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  auto csr = sp->attest_node(nodes[0]->bootstrap_address());
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.error().code, "sp.node_not_approved");
}

TEST_F(RevelioFixture, TcbFloorBlocksOldFirmware) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp_config.minimum_tcb = sevsnp::TcbVersion{3, 0, 9, 120};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  sp->approve_node(nodes[0]->bootstrap_address(), platforms[0]->chip_id());
  auto csr = sp->attest_node(nodes[0]->bootstrap_address());
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.error().code, "sp.report_invalid");
}

TEST_F(RevelioFixture, KeyRequestFromUntrustedImageRefused) {
  provision_standard_fleet();
  // A backdoored node (valid report, wrong measurement) asks the leader
  // for the shared key.
  const imagebuild::VmImage backdoored = build_image("service-backdoored");
  auto rogue = deploy_node("6.6.6.6", backdoored);
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/revelio/key-request";
  request.host = kDomain;
  request.body = rogue->identity_evidence().serialize();
  auto raw = network.call({"6.6.6.6", 1}, nodes[0]->bootstrap_address(),
                          request.serialize());
  ASSERT_TRUE(raw.ok());
  auto response = net::HttpResponse::parse(*raw);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 403);
}

// --------------------------------------- fail-closed gates, every party

/// One way to condemn evidence that is otherwise valid: the failure step
/// and the text every relying party's refusal must name, and how to arm
/// the gate against a chip or a measurement.
struct Condemnation {
  const char* step;
  const char* detail;  // the refusal text names what was condemned
  std::function<void(RevocationSet&, fleet::TcbHorizon&,
                     const sevsnp::ChipId&, const sevsnp::Measurement&,
                     std::uint64_t now_us)>
      arm;
};

const std::vector<Condemnation>& condemnations() {
  static const std::vector<Condemnation> all = {
      {"revocation", "measurement is revoked",
       [](RevocationSet& r, fleet::TcbHorizon&, const sevsnp::ChipId&,
          const sevsnp::Measurement& m, std::uint64_t) {
         ASSERT_TRUE(r.revoke_measurement(m, "bad image").ok());
       }},
      {"revocation", "chip is revoked",
       [](RevocationSet& r, fleet::TcbHorizon&, const sevsnp::ChipId& chip,
          const sevsnp::Measurement&, std::uint64_t) {
         ASSERT_TRUE(r.revoke_chip(chip, "key leak").ok());
       }},
      {"tcb_horizon", "below the chip's update horizon",
       [](RevocationSet&, fleet::TcbHorizon& h, const sevsnp::ChipId& chip,
          const sevsnp::Measurement&, std::uint64_t now_us) {
         ASSERT_TRUE(
             h.announce(chip, sevsnp::TcbVersion{3, 0, 9, 120}, now_us,
                        "staged update")
                 .ok());
       }},
  };
  return all;
}

TEST_F(RevelioFixture, SpRefusesRevokedAndStaleNodesInAttestNode) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  for (const Condemnation& c : condemnations()) {
    SCOPED_TRACE(c.detail);
    RevocationSet revocation;
    fleet::TcbHorizon horizon;
    c.arm(revocation, horizon, platforms[0]->chip_id(), expected_measurement,
          clock.now_us());
    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected_measurement};
    sp_config.revocation_set = &revocation;
    sp_config.tcb_horizon = &horizon;
    SpNode gated(network, acme, sp_config);
    gated.approve_node(nodes[0]->bootstrap_address(), platforms[0]->chip_id());
    auto csr = gated.attest_node(nodes[0]->bootstrap_address());
    ASSERT_FALSE(csr.ok());
    EXPECT_NE(csr.error().to_string().find(c.step), std::string::npos)
        << csr.error().to_string();
    EXPECT_NE(csr.error().to_string().find(c.detail), std::string::npos)
        << csr.error().to_string();
  }
}

TEST_F(RevelioFixture, SpProvisioningOutcomesNameTheGateThatRefused) {
  // 10.0.0.1 is clean and leads; each other node trips one gate. The
  // revoked-measurement node runs a second, otherwise expected image.
  const imagebuild::VmImage retired = build_image("service-binary-v0");
  const sevsnp::Measurement retired_measurement =
      vm::Hypervisor::expected_measurement(
          retired.kernel_blob, retired.initrd_blob, retired.cmdline);
  nodes.push_back(deploy_node("10.0.0.1", image));
  nodes.push_back(deploy_node("10.0.0.2", retired));
  nodes.push_back(deploy_node("10.0.0.3", image));
  nodes.push_back(deploy_node("10.0.0.4", image));
  RevocationSet revocation;
  fleet::TcbHorizon horizon;
  const std::size_t victims[] = {1, 2, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t n = victims[i];
    condemnations()[i].arm(revocation, horizon, platforms[n]->chip_id(),
                           retired_measurement, clock.now_us());
  }
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement,
                                     retired_measurement};
  sp_config.revocation_set = &revocation;
  sp_config.tcb_horizon = &horizon;
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sp->approve_node(nodes[i]->bootstrap_address(), platforms[i]->chip_id());
  }
  auto outcomes = sp->provision_fleet();
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  ASSERT_EQ(outcomes->size(), 4u);
  EXPECT_TRUE((*outcomes)[0].attested) << (*outcomes)[0].failure;
  EXPECT_TRUE(nodes[0]->serving_tls());
  for (std::size_t i = 0; i < 3; ++i) {
    const NodeAttestation& outcome = (*outcomes)[victims[i]];
    SCOPED_TRACE(outcome.bootstrap_address.to_string());
    EXPECT_FALSE(outcome.attested);
    EXPECT_NE(outcome.failure.find(condemnations()[i].step),
              std::string::npos)
        << outcome.failure;
    EXPECT_NE(outcome.failure.find(condemnations()[i].detail),
              std::string::npos)
        << outcome.failure;
    EXPECT_FALSE(nodes[victims[i]]->serving_tls());
  }
}

TEST_F(RevelioFixture, LeaderRefusesKeyRequestFromRevokedOrStaleFollower) {
  // One set pair per case, alive as long as the nodes holding them.
  RevocationSet revocations[3];
  fleet::TcbHorizon horizons[3];
  for (std::size_t k = 0; k < condemnations().size(); ++k) {
    const Condemnation& c = condemnations()[k];
    SCOPED_TRACE(c.detail);
    // A fresh fleet per case, its nodes gated by this case's sets; the
    // sets stay empty until provisioning is done, so every node first
    // gets the shared key.
    RevocationSet& revocation = revocations[k];
    fleet::TcbHorizon& horizon = horizons[k];
    node_revocation = &revocation;
    node_horizon = &horizon;
    const std::string prefix = "10.1." + std::to_string(k) + ".";
    const std::size_t first = nodes.size();
    for (int i = 1; i <= 2; ++i) {
      nodes.push_back(deploy_node(prefix + std::to_string(i), image));
    }
    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected_measurement};
    SpNode sp_node(network, acme, sp_config);
    for (std::size_t i = first; i < nodes.size(); ++i) {
      sp_node.approve_node(nodes[i]->bootstrap_address(),
                           platforms[i]->chip_id());
    }
    auto outcomes = sp_node.provision_fleet();
    ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
    ASSERT_TRUE((*outcomes)[1].attested) << (*outcomes)[1].failure;

    // Now condemn the follower and have it ask the leader again.
    RevelioVm& leader = *nodes[first];
    RevelioVm& follower = *nodes[first + 1];
    c.arm(revocation, horizon, platforms[first + 1]->chip_id(),
          expected_measurement, clock.now_us());
    net::HttpRequest request;
    request.method = "POST";
    request.path = "/revelio/key-request";
    request.host = kDomain;
    request.body = follower.identity_evidence().serialize();
    auto raw = network.call(follower.https_address(),
                            leader.bootstrap_address(), request.serialize());
    ASSERT_TRUE(raw.ok()) << raw.error().to_string();
    auto response = net::HttpResponse::parse(*raw);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 403);
    const std::string body = to_string(response->body);
    EXPECT_NE(body.find(c.step), std::string::npos) << body;
    EXPECT_NE(body.find(c.detail), std::string::npos) << body;
  }
  node_revocation = nullptr;
  node_horizon = nullptr;
}

TEST_F(RevelioFixture, FollowerRefusesKeyFromRevokedOrStaleLeader) {
  RevocationSet revocations[3];
  fleet::TcbHorizon horizons[3];
  for (std::size_t k = 0; k < condemnations().size(); ++k) {
    const Condemnation& c = condemnations()[k];
    SCOPED_TRACE(c.detail);
    // The leader is ungated (it hands the key to anyone the SP admitted);
    // the follower is gated, and its gate condemns the leader.
    RevocationSet& revocation = revocations[k];
    fleet::TcbHorizon& horizon = horizons[k];
    const std::string prefix = "10.2." + std::to_string(k) + ".";
    const std::size_t first = nodes.size();
    node_revocation = nullptr;
    node_horizon = nullptr;
    nodes.push_back(deploy_node(prefix + "1", image));
    node_revocation = &revocation;
    node_horizon = &horizon;
    nodes.push_back(deploy_node(prefix + "2", image));
    c.arm(revocation, horizon, platforms[first]->chip_id(),
          expected_measurement, clock.now_us());

    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected_measurement};
    SpNode sp_node(network, acme, sp_config);
    for (std::size_t i = first; i < nodes.size(); ++i) {
      sp_node.approve_node(nodes[i]->bootstrap_address(),
                           platforms[i]->chip_id());
    }
    auto outcomes = sp_node.provision_fleet();
    ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
    ASSERT_EQ(outcomes->size(), 2u);
    EXPECT_TRUE((*outcomes)[0].attested) << (*outcomes)[0].failure;
    EXPECT_TRUE(nodes[first]->serving_tls());
    EXPECT_FALSE((*outcomes)[1].attested);
    EXPECT_NE((*outcomes)[1].failure.find(c.step), std::string::npos)
        << (*outcomes)[1].failure;
    EXPECT_NE((*outcomes)[1].failure.find(c.detail), std::string::npos)
        << (*outcomes)[1].failure;
    EXPECT_FALSE(nodes[first + 1]->serving_tls());
  }
  node_revocation = nullptr;
  node_horizon = nullptr;
}

// --------------------------------------------------------------- end-user

TEST_F(RevelioFixture, EndUserAttestationSucceeds) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());

  auto verified = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_TRUE(verified->checks.all_ok());
  EXPECT_EQ(to_string(verified->response.body), "<html>app</html>");
  EXPECT_EQ(extension.attestations_performed(), 1u);
  EXPECT_EQ(extension.kds_fetches(), 1u);
}

TEST_F(RevelioFixture, MonitoringSkipsReattestationWithinSession) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  const double after_attest = clock.now_ms();
  for (int i = 0; i < 5; ++i) {
    auto verified = extension.get(kDomain, 443, "/");
    ASSERT_TRUE(verified.ok());
    EXPECT_TRUE(verified->checks.all_ok());
  }
  EXPECT_EQ(extension.attestations_performed(), 1u);
  // Monitoring costs the connection-context query, not a full attestation.
  const double per_request = (clock.now_ms() - after_attest) / 5.0;
  EXPECT_LT(per_request, 100.0);
  EXPECT_GE(per_request, 14.0);
}

TEST_F(RevelioFixture, VcekCacheEliminatesKdsRoundTrip) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  EXPECT_EQ(extension.kds_fetches(), 1u);
  // Fresh browser session -> full re-attestation, but the VCEK is cached.
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  EXPECT_EQ(extension.attestations_performed(), 2u);
  EXPECT_EQ(extension.kds_fetches(), 1u);
  EXPECT_EQ(extension.vcek_cache_hits(), 1u);
}

TEST_F(RevelioFixture, UnregisteredSiteIsRejected) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "extension.site_not_registered");
}

TEST_F(RevelioFixture, DiscoveryFindsRevelioSites) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  auto discovered = extension.discover(kDomain, 443);
  ASSERT_TRUE(discovered.ok());
  EXPECT_TRUE(*discovered);
}

TEST_F(RevelioFixture, WrongExpectedMeasurementFailsClosed) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  SiteRegistration site;
  sevsnp::Measurement wrong = expected_measurement;
  wrong[0] ^= 1;
  site.expected_measurements = {wrong};
  extension.register_site(kDomain, site);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "extension.attestation_failed");
  const auto* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_TRUE(checks->signature_ok);
  EXPECT_FALSE(checks->measurement_ok);
}

TEST_F(RevelioFixture, RegistryDelegationAndRollbackRevocation) {
  provision_standard_fleet();
  TrustedRegistry trusted;
  trusted.publish(kDomain, expected_measurement);

  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  SiteRegistration site;
  site.registry = &trusted;
  site.registry_service = kDomain;
  extension.register_site(kDomain, site);
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // 6.1.4: the image is found vulnerable and revoked; users must now
  // reject the (otherwise valid) measurement.
  trusted.revoke(kDomain, expected_measurement);
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "extension.attestation_failed");
}

TEST_F(RevelioFixture, RedirectToLookalikeDetectedByKeyMonitoring) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // The malicious provider obtains a *CA-valid* certificate for the domain
  // with a fresh key (it controls DNS) and stands up a lookalike server.
  HmacDrbg evil_drbg(to_bytes(std::string_view("evil")));
  const auto evil_key = crypto::ec_generate(crypto::p256(), evil_drbg);
  const auto evil_csr = pki::make_csr(crypto::p256(), evil_key,
                                      {kDomain, "Evil", "US"}, {kDomain});
  const std::string token = acme.request_challenge("evil-acct", kDomain);
  network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
  auto evil_cert = acme.finalize("evil-acct", evil_csr, [&](const auto& n) {
    return network.dns_txt(n);
  });
  ASSERT_TRUE(evil_cert.ok());

  net::TlsServerIdentity evil_identity;
  evil_identity.curve = &crypto::p256();
  evil_identity.key = evil_key;
  evil_identity.certificate = *evil_cert;
  evil_identity.intermediates = acme.intermediates();
  net::TlsServer evil_server(
      std::move(evil_identity),
      [](ByteView, const net::Address&) {
        return net::HttpResponse::ok(
                   to_bytes(std::string_view("<html>phish</html>")))
            .serialize();
      },
      HmacDrbg(to_bytes(std::string_view("evil-entropy"))));
  evil_server.install(network, {"6.6.6.6", 443});

  // Reset the victim's sessions and repoint DNS: the browser reconnects to
  // the lookalike. Plain TLS accepts it — the extension must not.
  network.dns_set_a(kDomain, "6.6.6.6");
  browser.drop_session(kDomain);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  // The reconnect triggers a fresh attestation, which fails at evidence or
  // binding: the lookalike has no valid report for its key.
  EXPECT_EQ(r.error().code, "extension.attestation_failed");
}

TEST_F(RevelioFixture, StolenEvidenceCannotCoverForeignTlsKey) {
  provision_standard_fleet();
  // The attacker replays the *real* node's evidence bundle from its own
  // server: every signature checks out, but the TLS session terminates at
  // the attacker's key, so the binding check fails.
  const Bytes stolen_evidence = nodes[0]->identity_evidence().serialize();

  HmacDrbg evil_drbg(to_bytes(std::string_view("evil-2")));
  const auto evil_key = crypto::ec_generate(crypto::p256(), evil_drbg);
  const auto evil_csr = pki::make_csr(crypto::p256(), evil_key,
                                      {kDomain, "Evil", "US"}, {kDomain});
  const std::string token = acme.request_challenge("evil-acct", kDomain);
  network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
  auto evil_cert = acme.finalize("evil-acct", evil_csr, [&](const auto& n) {
    return network.dns_txt(n);
  });
  ASSERT_TRUE(evil_cert.ok());

  net::TlsServerIdentity evil_identity;
  evil_identity.curve = &crypto::p256();
  evil_identity.key = evil_key;
  evil_identity.certificate = *evil_cert;
  evil_identity.intermediates = acme.intermediates();
  net::TlsServer evil_server(
      std::move(evil_identity),
      [stolen_evidence](ByteView raw, const net::Address&) {
        auto request = net::HttpRequest::parse(raw);
        if (request.ok() &&
            request->path == "/.well-known/revelio-attestation") {
          return net::HttpResponse::ok(stolen_evidence).serialize();
        }
        return net::HttpResponse::ok(
                   to_bytes(std::string_view("<html>phish</html>")))
            .serialize();
      },
      HmacDrbg(to_bytes(std::string_view("evil-entropy-2"))));
  evil_server.install(network, {"6.6.6.6", 443});
  network.dns_set_a(kDomain, "6.6.6.6");

  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  const auto* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_TRUE(checks->signature_ok) << "the stolen report itself is genuine";
  EXPECT_TRUE(checks->measurement_ok);
  EXPECT_FALSE(checks->tls_binding_ok)
      << "the TLS binding is what catches the replay";
}

// ----------------------------------------------------------- registry/misc

TEST(TrustedRegistry, PublishRevokeLifecycle) {
  TrustedRegistry registry;
  sevsnp::Measurement m1 = sevsnp::Measurement::from(
      crypto::sha384(to_bytes(std::string_view("v1"))).view());
  sevsnp::Measurement m2 = sevsnp::Measurement::from(
      crypto::sha384(to_bytes(std::string_view("v2"))).view());
  registry.publish("svc", m1);
  registry.publish("svc", m2);
  EXPECT_TRUE(registry.is_acceptable("svc", m1));
  EXPECT_EQ(registry.good_measurements("svc").size(), 2u);
  registry.revoke("svc", m1);
  EXPECT_FALSE(registry.is_acceptable("svc", m1));
  EXPECT_TRUE(registry.is_revoked("svc", m1));
  // Re-publishing a revoked measurement must not resurrect it.
  registry.publish("svc", m1);
  EXPECT_FALSE(registry.is_acceptable("svc", m1));
  EXPECT_FALSE(registry.is_acceptable("other", m2));
}

TEST(TrustedRegistry, CommunityVotingQuorum) {
  TrustedRegistry registry;
  for (const char* voter : {"a", "b", "c", "d", "e"}) {
    registry.register_voter(voter);
  }
  sevsnp::Measurement m = sevsnp::Measurement::from(
      crypto::sha384(to_bytes(std::string_view("release"))).view());
  const auto id = registry.propose("svc", m);
  EXPECT_FALSE(registry.is_acceptable("svc", m));
  ASSERT_TRUE(registry.vote(id, "a", true).ok());
  ASSERT_TRUE(registry.vote(id, "b", true).ok());
  EXPECT_FALSE(registry.is_acceptable("svc", m)) << "2 of 5 is not quorum";
  ASSERT_TRUE(registry.vote(id, "c", true).ok());
  EXPECT_TRUE(registry.is_acceptable("svc", m)) << "3 of 5 adopts";
  EXPECT_TRUE(registry.proposal(id)->adopted);
  EXPECT_FALSE(registry.vote(id, "d", true).ok()) << "proposal closed";
}

TEST(TrustedRegistry, VotingGuards) {
  TrustedRegistry registry;
  registry.register_voter("a");
  registry.register_voter("b");
  registry.register_voter("c");
  sevsnp::Measurement m{};
  const auto id = registry.propose("svc", m);
  EXPECT_FALSE(registry.vote(id, "stranger", true).ok());
  EXPECT_FALSE(registry.vote(999, "a", true).ok());
  ASSERT_TRUE(registry.vote(id, "a", false).ok());
  EXPECT_FALSE(registry.vote(id, "a", true).ok()) << "no double voting";
  ASSERT_TRUE(registry.vote(id, "b", false).ok());
  EXPECT_TRUE(registry.proposal(id)->rejected);
}

TEST_F(RevelioFixture, NinetyDayCertificateRenewalFlow) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // 91 days later the certificate has expired: fresh sessions must fail.
  clock.advance_us(91ull * 24 * 3600 * 1000 * 1000);
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  auto expired = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(expired.ok());

  // The SP node runs its renewal round (re-attest, re-issue, re-distribute
  // — the same provisioning workflow, §5.3.1).
  auto renewed = sp->provision_fleet();
  ASSERT_TRUE(renewed.ok()) << renewed.error().to_string();
  for (const auto& outcome : *renewed) {
    EXPECT_TRUE(outcome.attested) << outcome.failure;
  }

  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  auto again = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_TRUE(again->checks.all_ok());
}

TEST_F(RevelioFixture, LastChecksExposedForExtensionUi) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  EXPECT_EQ(extension.last_checks(kDomain), nullptr);
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  const auto* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_TRUE(checks->all_ok());
  EXPECT_TRUE(checks->failure.empty());
}

// ----------------------------------------------------------- persistence

TEST_F(RevelioFixture, RebootResumesServiceWithoutReprovisioning) {
  provision_standard_fleet();
  ASSERT_TRUE(nodes[0]->serving_tls());
  const Bytes cert_key = sp->issued_certificate()->public_key;
  auto disk = nodes[0]->disk();

  // Power-cycle node 0: same platform, same image, same disk.
  platforms[0]->launch_reset();
  nodes[0].reset();  // releases the network listeners? (handlers replaced)
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.1";
  config.image = image;
  config.kds_address = {"kds.amd.com", 443};
  config.existing_disk = disk;
  auto rebooted =
      RevelioVm::deploy(*platforms[0], network, config, app_routes());
  ASSERT_TRUE(rebooted.ok()) << rebooted.error().to_string();
  EXPECT_FALSE((*rebooted)->boot_report().first_boot)
      << "the sealed volume already exists";
  EXPECT_TRUE((*rebooted)->serving_tls())
      << "TLS identity must be unsealed from the data volume";
  EXPECT_EQ((*rebooted)->identity_public_key(), cert_key)
      << "same measurement + chip => same identity key";

  // An end-user session still attests cleanly against the rebooted node.
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  auto verified = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_TRUE(verified->checks.all_ok());
}

TEST_F(RevelioFixture, RebootWithDifferentImageCannotUnseal) {
  provision_standard_fleet();
  auto disk = nodes[0]->disk();
  platforms[0]->launch_reset();
  nodes[0].reset();

  const imagebuild::VmImage backdoored = build_image("service-backdoored");
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.1";
  config.image = backdoored;
  config.kds_address = {"kds.amd.com", 443};
  config.existing_disk = disk;
  auto rebooted =
      RevelioVm::deploy(*platforms[0], network, config, app_routes());
  ASSERT_FALSE(rebooted.ok())
      << "a different measurement derives a different sealing key";
}

TEST_F(RevelioFixture, RebootOnDifferentChipCannotUnseal) {
  provision_standard_fleet();
  auto disk = nodes[0]->disk();
  auto foreign = std::make_unique<sevsnp::AmdSp>(
      to_bytes(std::string_view("stolen-disk-platform")),
      sevsnp::TcbVersion{2, 0, 8, 115});
  kds.register_platform(*foreign);
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.9";
  config.image = image;
  config.kds_address = {"kds.amd.com", 443};
  config.existing_disk = disk;
  auto moved = RevelioVm::deploy(*foreign, network, config, app_routes());
  ASSERT_FALSE(moved.ok())
      << "migrating the disk to another chip must not unseal it";
}

TEST(EvidenceBundle, BindAndRoundTrip) {
  const Bytes payload = to_bytes(std::string_view("some public key"));
  EvidenceBundle bundle;
  bundle.payload = payload;
  bundle.report.report_data = EvidenceBundle::bind(payload);
  EXPECT_TRUE(bundle.binding_ok());
  auto parsed = EvidenceBundle::parse(bundle.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->binding_ok());
  EXPECT_EQ(parsed->payload, payload);

  bundle.payload.push_back('!');
  EXPECT_FALSE(bundle.binding_ok());
  EXPECT_FALSE(EvidenceBundle::parse(to_bytes(std::string_view("x"))).ok());
}

// ------------------------- one check sequence, five relying-party paths

/// One SEV-SNP platform behind a CA-valid TLS endpoint that serves whatever
/// evidence bundle the test puts in `evidence`: enough to hand the same
/// (possibly doctored) evidence to the blocking get(), the staged verify()
/// and batch_verify_sessions() and compare their verdicts. The same
/// platform also answers the SP node's CSR-bundle fetch, and the evidence
/// opens a secure-channel handshake, so the SP node and the channel judge
/// the same case.
struct ExtensionPathsFixture : ::testing::Test {
  enum class Path { kBlocking, kStaged, kBatch, kSp, kChannel };

  /// Everything a verdict leaves behind that the three paths must agree on.
  struct Outcome {
    std::string status;  // "ok" or the error's to_string()
    std::string step;    // last_checks()->failure_step, "(none)" if unset
    std::uint8_t checks = 0;  // last_checks() as an AuditRecord bitmap
    std::vector<Bytes> audit;  // serialized records, virt_us zeroed
    std::map<std::string, std::uint64_t> counters;  // verdict counter deltas
  };

  ExtensionPathsFixture()
      : network(clock),
        drbg(to_bytes(std::string_view("extension-paths"))),
        kds(drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, drbg),
        platform(to_bytes(std::string_view("paths-platform")),
                 sevsnp::TcbVersion{2, 0, 8, 115}) {}

  void SetUp() override {
    kds.register_platform(platform);
    ASSERT_TRUE(platform.launch_start(0x30000).ok());
    ASSERT_TRUE(platform.launch_update(to_bytes(std::string_view("img"))).ok());
    ASSERT_TRUE(platform.launch_finish().ok());

    HmacDrbg key_drbg(to_bytes(std::string_view("site-key")));
    key = crypto::ec_generate(crypto::p256(), key_drbg);
    const Bytes public_key = key.public_encoded(crypto::p256());
    const auto csr = pki::make_csr(crypto::p256(), key,
                                   {kDomain, "Site", "US"}, {kDomain});
    const std::string token = acme.request_challenge("site-acct", kDomain);
    network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
    auto cert = acme.finalize("site-acct", csr, [&](const auto& name) {
      return network.dns_txt(name);
    });
    ASSERT_TRUE(cert.ok());

    net::TlsServerIdentity identity;
    identity.curve = &crypto::p256();
    identity.key = key;
    identity.certificate = *cert;
    identity.intermediates = acme.intermediates();
    server = std::make_unique<net::TlsServer>(
        std::move(identity),
        [this](ByteView raw, const net::Address&) {
          auto request = net::HttpRequest::parse(raw);
          if (request.ok() &&
              request->path == "/.well-known/revelio-attestation") {
            return net::HttpResponse::ok(evidence.serialize()).serialize();
          }
          return net::HttpResponse::ok(
                     to_bytes(std::string_view("<html>app</html>")))
              .serialize();
        },
        HmacDrbg(to_bytes(std::string_view("site-entropy"))));
    server->install(network, {"10.0.0.1", 443});
    network.dns_set_a(kDomain, "10.0.0.1");

    auto report = platform.get_report(EvidenceBundle::bind(public_key));
    ASSERT_TRUE(report.ok());
    evidence = EvidenceBundle{std::move(*report), public_key};
    site.expected_measurements = {evidence.report.measurement};

    // The SP node's view of the same platform: a report over the CSR,
    // served at the bootstrap endpoint with whatever the test did to the
    // served report's signature done to it too.
    auto csr_report = platform.get_report(EvidenceBundle::bind(csr.serialize()));
    ASSERT_TRUE(csr_report.ok());
    csr_evidence = EvidenceBundle{std::move(*csr_report), csr.serialize()};
    issued_signature = evidence.report.signature;
    network.listen(kBootstrap, [this](ByteView raw, const net::Address&) {
      auto request = net::HttpRequest::parse(raw);
      if (!request.ok() || request->path != "/revelio/csr-bundle") {
        return net::HttpResponse::not_found().serialize();
      }
      EvidenceBundle served = csr_evidence;
      for (std::size_t i = 0; i < served.report.signature.size(); ++i) {
        served.report.signature[i] ^=
            evidence.report.signature[i] ^ issued_signature[i];
      }
      return net::HttpResponse::ok(served.serialize()).serialize();
    });
  }

  static std::map<std::string, std::uint64_t> verdict_counters() {
    std::map<std::string, std::uint64_t> values;
    for (const auto& [key, counter] : obs::metrics().counters()) {
      if (key.rfind("ext.attest.", 0) == 0 ||
          key.rfind("sevsnp.report_verify.", 0) == 0) {
        values[key] = counter.value();
      }
    }
    return values;
  }

  Browser make_browser() {
    return Browser(network, "laptop", acme.trusted_roots(),
                   HmacDrbg(to_bytes(std::string_view("browser"))));
  }

  WebExtensionConfig extension_config() {
    WebExtensionConfig config;
    config.kds_address = {"kds.amd.com", 443};
    config.revocation_set = &revocation;
    config.tcb_horizon = &horizon;
    return config;
  }

  /// One attestation of the served evidence by a fresh browser + extension
  /// (fresh TLS session, chain cache and VCEK cache) through `path`.
  Outcome run(Path path) {
    Outcome out;
    obs::AuditLog audit;
    audit.set_sink([&out](std::uint8_t, ByteView body) {
      auto record = obs::AuditRecord::parse(body);
      if (record.ok()) {
        record->virt_us = 0;  // the blocking path fetches the page first
        out.audit.push_back(record->serialize());
      }
      return Status::success();
    });
    Browser browser = make_browser();
    WebExtensionConfig config = extension_config();
    config.audit_log = &audit;
    WebExtension extension(browser, config);
    extension.register_site(kDomain, site);

    const auto before = verdict_counters();
    Status st = Status::success();
    if (path == Path::kBlocking) {
      auto got = extension.get(kDomain, 443, "/");
      if (!got.ok()) st = got.error();
    } else {
      auto session = extension.begin_session(kDomain, 443);
      st = session.handshake();
      if (st.ok()) st = session.fetch_evidence();
      if (st.ok()) st = session.fetch_kds();
      if (st.ok()) {
        st = path == Path::kStaged ? session.verify()
                                   : batch_verify_sessions({&session}).front();
      }
    }
    for (const auto& [key, value] : verdict_counters()) {
      const auto it = before.find(key);
      const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
      if (delta != 0) out.counters[key] = delta;
    }

    out.status = st.ok() ? "ok" : st.error().to_string();
    const AttestationChecks* checks = extension.last_checks(kDomain);
    out.step = checks == nullptr ? "(none)" : checks->failure_step;
    if (checks != nullptr) {
      const bool bits[] = {checks->evidence_fetched, checks->binding_ok,
                           checks->chain_ok,         checks->signature_ok,
                           checks->measurement_ok,   checks->tls_binding_ok};
      for (std::size_t i = 0; i < std::size(bits); ++i) {
        if (bits[i]) out.checks |= static_cast<std::uint8_t>(1u << i);
      }
    }
    return out;
  }

  /// The verdict of a relying party other than the browser: its status
  /// and the failure step its refusal names ("" when it accepts).
  struct PartyOutcome {
    std::string status;
    std::string step;
  };

  /// One attestation of the same platform's evidence by a fresh SP node
  /// (kSp) or secure-channel responder (kChannel), under the site's
  /// measurement and TCB policy and the fixture's gates.
  PartyOutcome run_party(Path path) {
    Status st = Status::success();
    if (path == Path::kSp) {
      SpNodeConfig config;
      config.domain = kDomain;
      config.kds_address = kds_service.address();
      config.expected_measurements = site.expected_measurements;
      config.minimum_tcb = site.minimum_tcb;
      config.revocation_set = &revocation;
      config.tcb_horizon = &horizon;
      SpNode sp(network, acme, config);
      sp.approve_node(kBootstrap, platform.chip_id());
      auto csr = sp.attest_node(kBootstrap);
      if (!csr.ok()) st = csr.error();
    } else {
      PeerPolicy policy;
      policy.trusted_measurements = site.expected_measurements;
      policy.minimum_tcb = site.minimum_tcb;
      policy.revocation_set = &revocation;
      policy.tcb_horizon = &horizon;
      auto vcek = kds.fetch_vcek(evidence.report.chip_id,
                                 evidence.report.reported_tcb);
      EXPECT_TRUE(vcek.ok());
      const KdsService::VcekResponse chain{*vcek, kds.ask_certificate(),
                                           kds.ark_certificate()};
      const ChannelIdentity identity{key, evidence};
      Bytes state;
      const ChannelHello hello = SecureChannel::initiate(identity, drbg, state);
      auto responded = SecureChannel::respond(identity, policy, hello, chain,
                                              drbg, clock.now_us());
      if (!responded.ok()) st = responded.error();
    }
    PartyOutcome out;
    out.status = st.ok() ? "ok" : st.error().to_string();
    // A refusal's detail leads with its failure step: "<step>: ...".
    if (!st.ok()) {
      out.step = st.error().detail.substr(0, st.error().detail.find(':'));
    }
    return out;
  }

  /// Runs the five paths against the current evidence and requires one
  /// verdict. The three browser paths agree on status, failure step,
  /// checks, audit record and counters; the SP node and the channel agree
  /// with them on accept or reject and on the failure step.
  void expect_paths_agree(const std::string& step,
                          const std::string& report_verify_result) {
    const Outcome blocking = run(Path::kBlocking);
    EXPECT_EQ(blocking.step, step) << blocking.status;
    EXPECT_EQ(blocking.status == "ok", step.empty()) << blocking.status;
    ASSERT_EQ(blocking.audit.size(), 1u);
    EXPECT_EQ(blocking.counters.at(
                  "ext.attest.result.count{result=" +
                  (step.empty() ? std::string("ok") : step) + "}"),
              1u);
    const std::string report_key =
        "sevsnp.report_verify.result.count{result=" + report_verify_result +
        "}";
    if (report_verify_result.empty()) {
      for (const auto& [key, delta] : blocking.counters) {
        EXPECT_NE(key.rfind("sevsnp.report_verify.", 0), 0u)
            << "no signature work may happen: " << key;
      }
    } else {
      EXPECT_EQ(blocking.counters.count(report_key), 1u) << report_key;
    }

    const std::pair<const char*, Path> others[] = {{"staged", Path::kStaged},
                                                   {"batch", Path::kBatch}};
    for (const auto& [name, path] : others) {
      SCOPED_TRACE(name);
      const Outcome other = run(path);
      EXPECT_EQ(other.status, blocking.status);
      EXPECT_EQ(other.step, blocking.step);
      EXPECT_EQ(other.checks, blocking.checks);
      EXPECT_EQ(other.audit, blocking.audit);
      EXPECT_EQ(other.counters, blocking.counters);
    }

    const std::pair<const char*, Path> parties[] = {{"sp", Path::kSp},
                                                    {"channel", Path::kChannel}};
    for (const auto& [name, path] : parties) {
      SCOPED_TRACE(name);
      const PartyOutcome other = run_party(path);
      EXPECT_EQ(other.status == "ok", step.empty()) << other.status;
      EXPECT_EQ(other.step, step) << other.status;
    }
  }

  /// Where the stub bootstrap endpoint serves the CSR bundle.
  const net::Address kBootstrap{"10.0.0.9", 8443};

  SimClock clock;
  net::Network network;
  HmacDrbg drbg;
  sevsnp::KeyDistributionServer kds;
  KdsService kds_service;
  pki::AcmeIssuer acme;
  sevsnp::AmdSp platform;
  std::unique_ptr<net::TlsServer> server;
  crypto::EcKeyPair key;  // the site's identity key
  EvidenceBundle evidence;
  EvidenceBundle csr_evidence;
  Bytes issued_signature;  // evidence.report.signature as the chip signed it
  SiteRegistration site;
  RevocationSet revocation;
  fleet::TcbHorizon horizon;
};

TEST_F(ExtensionPathsFixture, AcceptAgreesAcrossPaths) {
  expect_paths_agree("", "ok");
}

TEST_F(ExtensionPathsFixture, WrongMeasurementAgreesAcrossPaths) {
  site.expected_measurements = {sevsnp::Measurement{}};
  expect_paths_agree("measurement", "ok");
}

TEST_F(ExtensionPathsFixture, RevokedMeasurementAgreesAcrossPaths) {
  ASSERT_TRUE(
      revocation.revoke_measurement(evidence.report.measurement, "bad image")
          .ok());
  expect_paths_agree("revocation", "");
}

TEST_F(ExtensionPathsFixture, RevokedChipAgreesAcrossPaths) {
  ASSERT_TRUE(revocation.revoke_chip(platform.chip_id(), "key leak").ok());
  expect_paths_agree("revocation", "");
}

TEST_F(ExtensionPathsFixture, RevokedVcekAgreesAcrossPaths) {
  auto vcek = kds.fetch_vcek(platform.chip_id(), platform.tcb());
  ASSERT_TRUE(vcek.ok());
  ASSERT_TRUE(revocation.revoke_vcek(vcek->fingerprint(), "misissued").ok());
  expect_paths_agree("revocation", "");
}

TEST_F(ExtensionPathsFixture, TcbBelowHorizonAgreesAcrossPaths) {
  ASSERT_TRUE(horizon
                  .announce(platform.chip_id(),
                            sevsnp::TcbVersion{3, 0, 9, 120}, clock.now_us(),
                            "staged update")
                  .ok());
  expect_paths_agree("tcb_horizon", "");
}

TEST_F(ExtensionPathsFixture, TcbBelowSiteMinimumAgreesAcrossPaths) {
  site.minimum_tcb = sevsnp::TcbVersion{3, 0, 9, 120};
  expect_paths_agree("report_verify", "snp.tcb_too_old");
}

TEST_F(ExtensionPathsFixture, ForgedReportSignatureAgreesAcrossPaths) {
  evidence.report.signature.back() ^= 0x01;
  expect_paths_agree("report_verify", "snp.signature_invalid");
}

TEST_F(ExtensionPathsFixture, ExpiredVcekChainAgreesAcrossPaths) {
  kds.set_vcek_not_after(1);  // every VCEK issued from now on is expired
  expect_paths_agree("chain", "snp.vcek_chain_invalid");
}

// A staged session that fails before verify() records its verdict for the
// extension UI exactly like the blocking path does.
TEST_F(ExtensionPathsFixture, StagedEvidenceAndKdsFailuresUpdateLastChecks) {
  Browser browser = make_browser();
  WebExtension extension(browser, extension_config());
  extension.register_site(kDomain, site);

  // REPORT_DATA covers a different payload than the one served.
  const Bytes bound_payload = evidence.payload;
  evidence.payload = to_bytes(std::string_view("some other key"));
  auto unbound = extension.begin_session(kDomain, 443);
  ASSERT_TRUE(unbound.handshake().ok());
  const Status binding = unbound.fetch_evidence();
  ASSERT_FALSE(binding.ok());
  EXPECT_EQ(binding.error().code, "extension.attestation_failed");
  const AttestationChecks* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_EQ(checks->failure_step, "binding");
  EXPECT_TRUE(checks->evidence_fetched);
  EXPECT_FALSE(checks->binding_ok);

  // Bound evidence again, but every KDS replica is down: the verdict must
  // replace the previous one, not leave it standing.
  evidence.payload = bound_payload;
  network.close(kds_service.address());
  auto no_kds = extension.begin_session(kDomain, 443);
  ASSERT_TRUE(no_kds.handshake().ok());
  ASSERT_TRUE(no_kds.fetch_evidence().ok());
  const Status kds_down = no_kds.fetch_kds();
  ASSERT_FALSE(kds_down.ok());
  EXPECT_EQ(kds_down.error().code, "extension.attestation_failed");
  checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_EQ(checks->failure_step, "kds_fetch");
  EXPECT_TRUE(checks->binding_ok);
  EXPECT_FALSE(checks->chain_ok);
}

}  // namespace
}  // namespace revelio::core
