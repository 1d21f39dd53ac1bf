#include "attest.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <random>
#include <thread>

#include "harness.hpp"
#include "crypto/ec_precomp.hpp"
#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "obs/audit_store.hpp"
#include "obs/metrics.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"
#include "store/kv_store.hpp"
#include "store/storage_env.hpp"
#include "vm/hypervisor.hpp"

namespace perfbench {

using namespace revelio;

namespace {

constexpr const char* kDomain = "svc.revelio.app";
constexpr const char* kKdsHost = "kds.amd.com";
constexpr const char* kServerHost = "10.0.0.1";
constexpr const char* kClientHost = "laptop";
constexpr const char* kBody = "<html>perfbench</html>";

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

/// One complete single-threaded deployment. It needs no lock: the engine
/// never runs two stages of one world at once (a world is one track), so
/// the thread sanitizer checks that contract rather than a mutex hiding a
/// breach of it.
class World {
 public:
  explicit World(const WorldSpec& spec)
      : network(clock),
        world_drbg(to_bytes("perfbench-world-" + spec.seed)),
        kds(world_drbg),
        kds_service(kds, network, {kKdsHost, 443}),
        acme(clock, world_drbg),
        browser(network, kClientHost, acme.trusted_roots(),
                crypto::HmacDrbg(to_bytes("perfbench-browser-" + spec.seed))) {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    const crypto::Digest32 base_digest = registry.publish(base);

    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = base_digest;
    inputs.service_files["/srv/app"] =
        to_bytes(std::string_view("service-binary-v1"));
    inputs.initrd.services = {{"app", "/srv/app", 300.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    auto built = builder.build(inputs);
    if (!built.ok()) std::abort();
    image = *built;
    const sevsnp::Measurement measurement =
        vm::Hypervisor::expected_measurement(image.kernel_blob,
                                             image.initrd_blob, image.cmdline);

    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view(kBody)),
                                   "text/html");
    });
    platform = std::make_unique<sevsnp::AmdSp>(
        to_bytes("perfbench-platform-" + spec.seed),
        sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*platform);
    core::RevelioVmConfig config;
    config.domain = kDomain;
    config.host = kServerHost;
    config.image = image;
    config.kds_address = {kKdsHost, 443};
    auto deployed = core::RevelioVm::deploy(*platform, network, config, routes);
    if (!deployed.ok()) std::abort();
    node = std::move(*deployed);

    core::SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {kKdsHost, 443};
    sp_config.expected_measurements = {measurement};
    sp = std::make_unique<core::SpNode>(network, acme, sp_config);
    sp->approve_node(node->bootstrap_address(), platform->chip_id());
    if (!sp->provision_fleet().ok()) std::abort();
    network.dns_set_a(kDomain, kServerHost);

    // Link latencies are set after provisioning so they shape only the
    // browser's sessions.
    network.set_link_latency_ms(kClientHost, kServerHost,
                                spec.client_latency_ms);
    if (spec.kds_latency_ms > 0.0) {
      network.set_link_latency_ms(kClientHost, kKdsHost, spec.kds_latency_ms);
    }
    pinned = measurement;
    if (!spec.register_measurement) pinned[0] ^= 0xFF;
  }

  core::SiteRegistration registration() const {
    core::SiteRegistration site;
    site.expected_measurements = {pinned};
    return site;
  }

  SimClock clock;
  net::Network network;
  crypto::HmacDrbg world_drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  pki::AcmeIssuer acme;
  core::Browser browser;
  imagebuild::PackageRegistry registry;
  imagebuild::VmImage image;
  sevsnp::Measurement pinned;
  std::unique_ptr<sevsnp::AmdSp> platform;
  std::unique_ptr<core::RevelioVm> node;
  std::unique_ptr<core::SpNode> sp;
};

void destroy_world(World* world) { delete world; }

WorldPtr make_world(const WorldSpec& spec) { return WorldPtr(new World(spec)); }

namespace {

/// Times every chain verification the program asks for (TLS handshakes and
/// the report's VCEK chain) and forwards it to the engine's cache.
class TimingChainVerifier final : public pki::ChainVerifier {
 public:
  explicit TimingChainVerifier(pki::ChainVerifier& inner) : inner_(inner) {}

  Status verify(const pki::Certificate& leaf,
                const std::vector<pki::Certificate>& intermediates,
                const std::vector<pki::Certificate>& roots,
                const pki::ChainVerifyOptions& options) override {
    ScopedSpan span("pki.chain_verify", kInheritSession);
    return inner_.verify(leaf, intermediates, roots, options);
  }

 private:
  pki::ChainVerifier& inner_;
};

/// Counts appended bytes and times every durability barrier: a file sync
/// and an atomic whole-file replace (tmp + fsync + rename).
class TimingFile final : public store::StorageFile {
 public:
  TimingFile(std::unique_ptr<store::StorageFile> inner,
             std::atomic<std::uint64_t>& bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}

  Status append(ByteView data) override {
    bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->append(data);
  }
  Status sync() override {
    ScopedSpan span("store.sync", kInheritSession);
    return inner_->sync();
  }
  std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<store::StorageFile> inner_;
  std::atomic<std::uint64_t>& bytes_;
};

class TimingEnv final : public store::StorageEnv {
 public:
  explicit TimingEnv(store::StorageEnv& inner) : inner_(inner) {}

  Result<std::unique_ptr<store::StorageFile>> open_append(
      const std::string& name) override {
    auto file = inner_.open_append(name);
    if (!file.ok()) return file.error();
    return std::unique_ptr<store::StorageFile>(
        std::make_unique<TimingFile>(std::move(*file), append_bytes));
  }
  Result<Bytes> read_file(const std::string& name) override {
    return inner_.read_file(name);
  }
  Status write_file_atomic(const std::string& name, ByteView data) override {
    ScopedSpan span("store.sync", kInheritSession);
    append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_.write_file_atomic(name, data);
  }
  Status remove_file(const std::string& name) override {
    return inner_.remove_file(name);
  }
  Result<std::vector<std::string>> list_files() override {
    return inner_.list_files();
  }
  bool exists(const std::string& name) override { return inner_.exists(name); }

  std::atomic<std::uint64_t> append_bytes{0};

 private:
  store::StorageEnv& inner_;
};

enum StageSlot : std::size_t {
  kSetup = 0,  // WebExtension construction + site registration
  kHandshake,
  kEvidence,
  kKds,
  kVerify,
  kPage,
  kStageSlots,
};

const char* const kStageSpan[kStageSlots] = {
    "revelio.ext_setup",          "revelio.stage.handshake",
    "revelio.stage.evidence_fetch", "revelio.stage.kds_fetch",
    "revelio.stage.verify",       "revelio.stage.page_fetch",
};

}  // namespace

struct Gateway::Impl {
  GatewayOptions options;
  // Declaration order is destruction order in reverse: the engine and the
  // tier's users go before the store, the store before its env.
  std::unique_ptr<store::StorageEnv> env;
  std::unique_ptr<TimingEnv> timing_env;
  std::unique_ptr<store::KvStore> kv;
  std::optional<obs::DurableAudit> audit;
  std::unique_ptr<RevocationSet> revocations;
  std::unique_ptr<core::SessionEngine> engine;
  std::unique_ptr<TimingChainVerifier> chain_verifier;
  /// First session id of the next round: ids stay unique across rounds in
  /// spans and audit records.
  std::uint64_t next_session = 0;
};

Result<std::unique_ptr<Gateway>> Gateway::open(const GatewayOptions& options) {
  std::unique_ptr<Gateway> gateway(new Gateway());
  gateway->impl_ = std::make_unique<Impl>();
  Impl& g = *gateway->impl_;
  g.options = options;
  g.env = std::make_unique<store::MemStorageEnv>();
  g.timing_env = std::make_unique<TimingEnv>(*g.env);
  auto kv = store::KvStore::open(*g.timing_env);
  if (!kv.ok()) return kv.error();
  g.kv = std::move(*kv);
  auto audit = obs::open_durable_audit(*g.kv);
  if (!audit.ok()) return audit.error();
  g.audit = std::move(*audit);
  auto revocations = RevocationSet::open(*g.kv);
  if (!revocations.ok()) return revocations.error();
  g.revocations = std::move(*revocations);

  core::SessionEngineConfig config;
  config.workers = options.workers;
  config.audit_log = g.audit->log.get();
  g.engine = std::make_unique<core::SessionEngine>(config);
  g.engine->chain_cache().attach_store(g.kv.get());
  g.engine->vcek_cache().attach_store(g.kv.get());
  g.chain_verifier =
      std::make_unique<TimingChainVerifier>(g.engine->chain_cache());
  return gateway;
}

Gateway::~Gateway() = default;

RoundResult Gateway::run_round(const std::vector<World*>& worlds) {
  using core::SessionState;
  Impl& g = *impl_;
  const std::size_t n = worlds.size();
  struct Slot {
    std::unique_ptr<core::WebExtension> ext;
    std::unique_ptr<core::WebExtension::StagedAttestation> staged;
    double stage_ms[kStageSlots] = {};  // real time per stage call
    double cpu_ms = 0.0;  // thread CPU time across all stage calls
  };
  std::vector<Slot> slots(n);
  std::atomic<std::uint64_t> unverified{0};
  std::atomic<std::uint64_t> body_mismatch{0};
  pki::ChainVerifier* chain = g.chain_verifier.get();
  const std::uint64_t id_base = g.next_session;
  g.next_session += n;

  // Runs one program call for session `index`, charging its real time to
  // the session's stage slot (and a span when tracing).
  const auto timed = [&](std::size_t index, StageSlot stage, auto&& call) {
    ScopedSpan span(kStageSpan[stage], id_base + index);
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_ms();
    auto out = call();
    slots[index].cpu_ms += thread_cpu_ms() - cpu0;
    slots[index].stage_ms[stage] += ms_between(t0, Clock::now());
    return out;
  };

  core::BatchStageConfig batching;
  if (g.options.batch_verify) {
    batching.stage = core::SessionState::kVerify;
    // Every world in the batch belongs to this pool task alone: the engine
    // only takes a track group whole, and each world is its own track.
    batching.fn = [&](std::vector<core::StagedBatchItem>& items) {
      std::vector<core::WebExtension::StagedAttestation*> staged;
      for (const auto& item : items) {
        staged.push_back(slots[item.ctx.index].staged.get());
      }
      std::vector<Status> statuses;
      {
        ScopedSpan span(kStageSpan[kVerify], id_base + items.front().ctx.index,
                        static_cast<std::uint32_t>(items.size()));
        const auto t0 = Clock::now();
        const double cpu0 = thread_cpu_ms();
        statuses = core::batch_verify_sessions(staged);
        const auto members = static_cast<double>(items.size());
        const double cpu_share = (thread_cpu_ms() - cpu0) / members;
        const double share = ms_between(t0, Clock::now()) / members;
        for (const auto& item : items) {
          slots[item.ctx.index].stage_ms[kVerify] += share;
          slots[item.ctx.index].cpu_ms += cpu_share;
        }
      }
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (statuses[k].ok()) {
          items[k].next = core::SessionState::kPageFetch;
        } else {
          items[k].ctx.failure = statuses[k];
          items[k].next = core::SessionState::kFailed;
        }
      }
    };
  }

  // The track function below gives each world its own track, so the engine
  // never runs two stages of one world at once.
  const auto stage_fn = [&](core::StagedContext& ctx) -> core::SessionState {
    World& world = *worlds[ctx.index];
    ScopedClockCurrent clock_scope(world.clock);
    const double virt_start = world.clock.now_ms();
    Slot& slot = slots[ctx.index];
    const std::size_t i = ctx.index;
    const auto next = [&](core::SessionState state) {
      ctx.stage_virt_ms = world.clock.now_ms() - virt_start;
      return state;
    };
    const auto fail = [&](Error error) {
      ctx.failure = std::move(error);
      return next(core::SessionState::kFailed);
    };
    // One timed stage call; a failed call ends the session.
    const auto stage = [&](StageSlot which, core::SessionState on_ok,
                           auto&& call) {
      const Status st = timed(i, which, call);
      return st.ok() ? next(on_ok) : fail(st.error());
    };

    switch (ctx.state) {
      case SessionState::kHandshake: {
        timed(i, kSetup, [&] {
          world.browser.set_chain_cache(chain);
          world.browser.drop_session(kDomain);
          core::WebExtensionConfig ext_config;
          ext_config.kds_address = {kKdsHost, 443};
          ext_config.shared_chain_cache = chain;
          ext_config.shared_vcek_cache = ctx.vcek_cache;
          ext_config.audit_log = g.audit->log.get();
          ext_config.audit_session_id = id_base + ctx.index;
          ext_config.revocation_set = g.revocations.get();
          slot.ext = std::make_unique<core::WebExtension>(world.browser,
                                                          ext_config);
          slot.ext->register_site(kDomain, world.registration());
          slot.staged =
              std::make_unique<core::WebExtension::StagedAttestation>(
                  slot.ext->begin_session(kDomain, 443));
          return 0;
        });
        return stage(kHandshake, SessionState::kEvidenceFetch,
                     [&] { return slot.staged->handshake(); });
      }
      case SessionState::kEvidenceFetch:
        return stage(kEvidence, SessionState::kKdsFetch,
                     [&] { return slot.staged->fetch_evidence(); });
      case SessionState::kKdsFetch:
        return stage(kKds, SessionState::kVerify,
                     [&] { return slot.staged->fetch_kds(); });
      case SessionState::kVerify:
        return stage(kVerify, SessionState::kPageFetch,
                     [&] { return slot.staged->verify(); });
      case SessionState::kPageFetch: {
        auto page =
            timed(i, kPage, [&] { return slot.staged->fetch_page("/"); });
        if (!page.ok()) return fail(page.error());
        if (!slot.staged->checks().all_ok()) {
          unverified.fetch_add(1);
          return fail(Error::make("perfbench.unverified_accept"));
        }
        if (to_string(page->body) != kBody) {
          body_mismatch.fetch_add(1);
          return fail(Error::make("perfbench.body_mismatch"));
        }
        return next(core::SessionState::kDone);
      }
      default:
        return fail(Error::make("perfbench.unexpected_state"));
    }
  };

  RoundResult result;
  const auto vcek_before = g.engine->vcek_cache().stats();
  const std::uint64_t bytes_before = g.timing_env->append_bytes.load();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const auto report = g.engine->run_staged(
      n, stage_fn, {}, [n](std::size_t i) { return i % n; }, batching);
  result.wall_s = seconds_between(t0, Clock::now());
  result.cpu_s = process_cpu_seconds() - cpu0;
  const auto vcek = g.engine->vcek_cache().stats();
  const auto lookups = [](const core::VcekCache::Stats& s) {
    return s.hits + s.store_hits + s.fetches + s.coalesced + s.failures;
  };
  result.vcek_hits = (vcek.hits + vcek.store_hits) -
                     (vcek_before.hits + vcek_before.store_hits);
  result.vcek_lookups = lookups(vcek) - lookups(vcek_before);
  result.vcek_fetches = vcek.fetches - vcek_before.fetches;
  result.store_append_bytes = g.timing_env->append_bytes.load() - bytes_before;

  result.attempted = n;
  result.unverified = unverified.load();
  result.body_mismatch = body_mismatch.load();
  for (std::size_t i = 0; i < n; ++i) {
    double total_ms = 0.0;
    for (const double ms : slots[i].stage_ms) total_ms += ms;
    result.stage_call_s += total_ms / 1e3;
    if (!report.outcomes[i].ok()) {
      ++result.failed;
      if (result.first_failure.empty()) {
        result.first_failure = report.outcomes[i].error().to_string();
      }
      continue;
    }
    ++result.succeeded;
    result.session_ms.push_back(total_ms);
    result.session_cpu_ms.push_back(slots[i].cpu_ms);
    result.virt_ms.push_back(report.session_virt_ms[i]);
    for (std::size_t s = 0; s < kStageSlots; ++s) {
      result.stage_ms[s].push_back(slots[i].stage_ms[s]);
    }
  }
  result.engine_batches = report.batches;
  result.batch_calls = report.batch_calls;
  for (const auto& row : report.stage_breakdown) {
    if (row.stage == core::SessionState::kVerify) {
      result.batched_verifies = row.batched;
    }
  }
  return result;
}

Result<obs::AuditLog::VerifySummary> Gateway::verify_persisted_audit() {
  Impl& g = *impl_;
  if (g.audit->log->sink_failures() != 0) {
    return Error::make("perfbench.audit_sink_failed",
                       g.audit->log->last_sink_error());
  }
  auto stream = obs::load_audit_stream(*g.kv);
  if (!stream.ok()) return stream.error();
  return obs::AuditLog::verify(*stream);
}

// ---------------------------------------------------------------------------
// The attest_warm and attest_cold workloads

namespace {

constexpr std::size_t kWorlds = 64;
/// Set-up is timed this many times before the timed phase and this many
/// after it; setup_s is the median of all five, so it samples the host
/// across the whole run rather than over one stretch of a few seconds.
constexpr int kSetupRepsBefore = 3;
constexpr int kSetupRepsAfter = 2;
/// Sessions per window for the windowed p99: ten samples beyond it.
constexpr std::size_t kP99Window = 1000;
/// Sessions per window for the windowed p90.
constexpr std::size_t kP90Window = 100;

/// Timed rounds folded together.
struct Phase {
  std::uint64_t rounds = 0;
  RoundResult sum;
  RoundSeries series;

  void add(const RoundResult& r) {
    ++rounds;
    series.add(static_cast<double>(r.succeeded), r.wall_s, r.cpu_s,
               r.session_cpu_ms);
    sum.attempted += r.attempted;
    sum.succeeded += r.succeeded;
    sum.failed += r.failed;
    sum.wall_s += r.wall_s;
    sum.stage_call_s += r.stage_call_s;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(sum.session_ms, r.session_ms);
    append(sum.virt_ms, r.virt_ms);
    for (std::size_t s = 0; s < kStageSlots; ++s) {
      append(sum.stage_ms[s], r.stage_ms[s]);
    }
    sum.engine_batches += r.engine_batches;
    sum.batch_calls += r.batch_calls;
    sum.batched_verifies += r.batched_verifies;
    sum.vcek_hits += r.vcek_hits;
    sum.vcek_lookups += r.vcek_lookups;
    sum.vcek_fetches += r.vcek_fetches;
    sum.store_append_bytes += r.store_append_bytes;
  }

  double sessions_per_s() const { return series.median_rate(); }
};

/// An accept must be fully verified and serve the expected page. Failures
/// are counted, and the first one's reason kept for the document.
void check_round(RunResult& result, const RoundResult& round) {
  if (!round.first_failure.empty() && !result.info.count("first_failure")) {
    result.info["first_failure"] = round.first_failure;
  }
  if (round.unverified > 0) {
    result.violate(std::to_string(round.unverified) +
                   " session(s) accepted without all checks passing");
  }
  if (round.body_mismatch > 0) {
    result.violate(std::to_string(round.body_mismatch) +
                   " session(s) served an unexpected page body");
  }
}

/// The persisted audit chain must replay and hold one verdict per session.
void check_audit(RunResult& result, Gateway& gateway,
                 std::uint64_t expected_records) {
  auto summary = gateway.verify_persisted_audit();
  if (!summary.ok()) {
    result.violate("persisted audit chain does not verify: " +
                   summary.error().to_string());
  } else if (summary->records != expected_records) {
    result.violate("persisted audit chain holds " +
                   std::to_string(summary->records) + " records, expected " +
                   std::to_string(expected_records));
  }
}

/// Process-wide counters the program already exports.
struct MetricSnapshot {
  std::uint64_t tls_handshakes = 0;
  std::uint64_t chain_hits = 0;
  std::uint64_t chain_misses = 0;
  std::uint64_t pinned_hits = 0;
  std::uint64_t pinned_misses = 0;

  static MetricSnapshot take() {
    const auto& m = obs::metrics();
    const auto pinned = crypto::ecp::PinnedTableRegistry::instance().stats();
    return {m.counter_value("tls.handshake.count"),
            m.counter_value("pki.chain_cache.hit.count"),
            m.counter_value("pki.chain_cache.miss.count"), pinned.hits,
            pinned.misses};
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `rss_mb` is the peak resident set once set-up and the untimed round
/// have run: the timed phase only adds history (audit chain, WAL) whose
/// size follows the run's length.
void report_end_to_end(RunResult& r, const Phase& p, double rss_mb) {
  const double ops = p.sessions_per_s();
  const double p50 = p.series.windowed_latency(0.50, 1);
  const double p90 = p.series.windowed_latency(0.90, kP90Window);
  const double p99 = p.series.windowed_latency(0.99, kP99Window);
  const double cpu_ms = p.series.median_cpu_ms();
  r.e2e("ops_per_s", ops, "1/s");
  r.e2e("op_ms_p50", p50, "ms");
  r.e2e("op_ms_p90", p90, "ms");
  r.e2e("cpu_ms_per_op", cpu_ms, "ms");
  r.e2e("peak_rss_mb", rss_mb, "MiB");
  // The same figures under the attest workloads' own names. The gated
  // latencies are CPU time inside the stage calls; the real-time ones are
  // reported beside them, ungated, because on a shared host their tail is
  // the time preempted threads sat descheduled.
  r.note("sessions_per_s", ops, "1/s");
  r.note("session_cpu_ms_p50", p50, "ms");
  r.note("session_cpu_ms_p90", p90, "ms");
  r.note("session_cpu_ms_p99", p99, "ms");
  r.note("session_ms_p50", quantile(p.sum.session_ms, 0.50), "ms");
  r.note("session_ms_p99", quantile(p.sum.session_ms, 0.99), "ms");
  r.note("session_ms_samples", static_cast<double>(p.series.samples()),
         "count");
  r.note("cpu_ms_per_session", cpu_ms, "ms");
  r.note("virt_ms_p99", quantile(p.sum.virt_ms, 0.99), "ms");
  r.note("timed_rounds", static_cast<double>(p.rounds), "count");
  r.note("timed_wall_s", p.sum.wall_s, "s");
}

void report_layers(RunResult& r, const Phase& traced, const Phase& untraced,
                   const MetricSnapshot& before, const MetricSnapshot& after,
                   unsigned workers) {
  const RoundResult& s = traced.sum;
  const double sessions = static_cast<double>(s.attempted);
  const auto per_session = [&](double v) { return ratio(v, sessions); };
  const auto count = [](std::uint64_t after_v, std::uint64_t before_v) {
    return static_cast<double>(after_v - before_v);
  };
  const auto stage_q = [&](StageSlot slot, double q) {
    return quantile(s.stage_ms[slot], q);
  };
  r.layer("revelio.stage.handshake.ms_p50", stage_q(kHandshake, 0.50), "ms");
  r.layer("revelio.stage.handshake.ms_p99", stage_q(kHandshake, 0.99), "ms");
  r.layer("revelio.stage.verify.ms_p50", stage_q(kVerify, 0.50), "ms");
  r.layer("revelio.stage.verify.ms_p99", stage_q(kVerify, 0.99), "ms");
  r.layer("revelio.stage.evidence_fetch.ms_p50", stage_q(kEvidence, 0.50),
          "ms");
  r.layer("revelio.stage.kds_fetch.ms_p50", stage_q(kKds, 0.50), "ms");
  r.layer("revelio.stage.page_fetch.ms_p50", stage_q(kPage, 0.50), "ms");
  r.layer("revelio.ext_setup.ms_p50", stage_q(kSetup, 0.50), "ms");

  // Engine accounting: every worker-second of the run_staged wall is either
  // inside a timed program call or engine overhead (dispatch, barriers,
  // metric merges, idle workers).
  const double capacity_s = static_cast<double>(workers) * s.wall_s;
  const double overhead_s = capacity_s - s.stage_call_s;
  r.layer("revelio.engine.overhead_us_per_session",
          per_session(overhead_s * 1e6), "us");
  r.layer("revelio.engine.worker_busy_frac", ratio(s.stage_call_s, capacity_s),
          "ratio");
  r.layer("revelio.engine.batches_per_session",
          per_session(static_cast<double>(s.engine_batches)), "count");
  r.layer("revelio.batch.mean_size",
          ratio(static_cast<double>(s.batched_verifies),
                static_cast<double>(s.batch_calls)),
          "count");
  r.note("revelio.engine.accounted_frac",
         ratio(s.stage_call_s + overhead_s, capacity_s), "ratio");

  r.layer("revelio.vcek.fetches_per_session",
          per_session(static_cast<double>(s.vcek_fetches)), "count");
  r.layer("revelio.vcek.hit_ratio",
          ratio(static_cast<double>(s.vcek_hits),
                static_cast<double>(s.vcek_lookups)),
          "ratio");

  const auto chain_us = span_durations_us("pki.chain_verify");
  const double chain_hits = count(after.chain_hits, before.chain_hits);
  const double chain_misses = count(after.chain_misses, before.chain_misses);
  r.layer("pki.chain_verify.calls_per_session",
          per_session(static_cast<double>(chain_us.size())), "count");
  r.layer("pki.chain_verify.us_p50", quantile(chain_us, 0.50), "us");
  r.layer("pki.chain_verify.miss_ratio",
          ratio(chain_misses, chain_hits + chain_misses), "ratio");

  const auto sync_us = span_durations_us("store.sync");
  r.layer("store.sync.per_session",
          per_session(static_cast<double>(sync_us.size())), "count");
  r.layer("store.sync.us_p50", quantile(sync_us, 0.50), "us");
  r.layer("store.sync.us_p99", quantile(sync_us, 0.99), "us");
  r.layer("store.append.bytes_per_session",
          per_session(static_cast<double>(s.store_append_bytes)), "B");

  r.layer("net.tls_handshakes_per_session",
          per_session(count(after.tls_handshakes, before.tls_handshakes)),
          "count");
  const double pinned_hits = count(after.pinned_hits, before.pinned_hits);
  r.layer("crypto.pinned_table_hit_ratio",
          ratio(pinned_hits,
                pinned_hits + count(after.pinned_misses, before.pinned_misses)),
          "ratio");
  r.layer("revelio.session.virt_ms_p99", quantile(s.virt_ms, 0.99), "ms");
  r.layer("bench.latency_samples", static_cast<double>(s.session_ms.size()),
          "count");

  const double untraced_ops = untraced.sessions_per_s();
  const double traced_ops = traced.sessions_per_s();
  r.layer("trace.untraced_ops_per_s", untraced_ops, "1/s");
  r.layer("trace.traced_ops_per_s", traced_ops, "1/s");
  r.layer("trace.overhead_ratio", ratio(traced_ops, untraced_ops), "ratio");
}

/// Runs `round` until `seconds` have passed (at least once) into `phase`.
template <class RoundFn>
void run_phase(double seconds, Phase& phase, RoundFn&& round) {
  const auto start = Clock::now();
  do {
    phase.add(round());
  } while (seconds_between(start, Clock::now()) < seconds);
}

/// The worlds of one attest workload; client RTTs come from the seed, so
/// the virtual-latency guard depends on the seed and only on it.
///
/// attest_warm: replicas of one popular service (one seed, one AMD chip)
/// that all sit at one seeded RTT, so a round's sessions wake together and
/// each stage dispatches as one 64-session engine batch — the wavefront the
/// batched verify stage amortizes over.
///
/// attest_cold: 64 distinct services (per-index seeds: own chip, own ACME
/// root) at the same seeded RTT, behind a 25 ms one-way KDS link. Their
/// sessions also move in wavefronts, so a round's wall is the cold path's
/// CPU spread over the workers. With an RTT per service the sessions drift
/// apart and a round becomes hundreds of one- or two-session engine
/// batches; its wall then follows thread wake-up latency, which on a
/// shared host swung sessions_per_s by 20-30% from seed to seed.
std::vector<WorldSpec> world_specs(std::uint64_t seed, bool cold) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> rtt(2.6, 3.0);
  const double shared_rtt = rtt(rng);
  std::vector<WorldSpec> specs(kWorlds);
  for (std::size_t i = 0; i < kWorlds; ++i) {
    specs[i].seed = cold ? "cold-" + std::to_string(seed) + "-" +
                               std::to_string(i)
                         : "warm-" + std::to_string(seed);
    specs[i].client_latency_ms = shared_rtt;
    specs[i].kds_latency_ms = cold ? 25.0 : 0.0;
  }
  return specs;
}

/// Builds the worlds `reps` times (dropping the previous set first),
/// appends each build time to `times` and returns the last set.
std::vector<WorldPtr> build_worlds(const std::vector<WorldSpec>& specs,
                                   int reps, std::vector<double>& times) {
  std::vector<WorldPtr> worlds;
  for (int rep = 0; rep < reps; ++rep) {
    worlds.clear();
    const auto t0 = Clock::now();
    for (const auto& spec : specs) worlds.push_back(make_world(spec));
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return worlds;
}

std::vector<World*> raw(const std::vector<WorldPtr>& worlds) {
  std::vector<World*> out;
  for (const auto& w : worlds) out.push_back(w.get());
  return out;
}

unsigned worker_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs the measured part of an attest workload: one phase untraced and,
/// in trace mode, a second traced phase, each for half the run.
template <class RoundFn>
void measure(const Options& options, RunResult& result, double rss_mb,
             unsigned workers, RoundFn&& round) {
  Phase untraced;
  run_phase(options.trace ? options.seconds / 2 : options.seconds, untraced,
            round);
  report_end_to_end(result, untraced, rss_mb);
  Phase traced;
  if (options.trace) {
    const MetricSnapshot before = MetricSnapshot::take();
    set_tracing(true);
    run_phase(options.seconds / 2, traced, round);
    set_tracing(false);
    report_layers(result, traced, untraced, before, MetricSnapshot::take(),
                  workers);
  }
  for (const Phase* p : {&untraced, &traced}) {
    result.attempted += p->sum.attempted;
    result.succeeded += p->sum.succeeded;
    result.failed += p->sum.failed;
  }
}

Result<std::unique_ptr<Gateway>> open_gateway(RunResult& result,
                                              unsigned workers,
                                              bool batch_verify) {
  auto opened = Gateway::open(
      {.workers = workers, .batch_verify = batch_verify});
  if (!opened.ok()) {
    result.violate("gateway open failed: " + opened.error().to_string());
  }
  return opened;
}

}  // namespace

RunResult run_attest_warm(const Options& options) {
  RunResult result;
  describe_host(result);
  const unsigned workers = worker_count();
  result.info["workers"] = std::to_string(workers);
  result.info["store_backend"] = "mem";
  result.info["verify"] = "batched";

  // 64 worlds from one seed: one AMD chip, VCEK and CA chain shared by all.
  const auto specs = world_specs(options.seed, /*cold=*/false);
  std::vector<double> setup_times;
  const auto worlds = build_worlds(specs, kSetupRepsBefore, setup_times);
  const auto world_ptrs = raw(worlds);
  auto gateway = open_gateway(result, workers, /*batch_verify=*/true);
  if (!gateway.ok()) return result;

  // Untimed round: fills the VCEK and chain caches and pins the tables.
  std::uint64_t audited = 0;
  const auto round = [&] {
    RoundResult r = (*gateway)->run_round(world_ptrs);
    check_round(result, r);
    audited += r.attempted;
    return r;
  };
  round();
  measure(options, result, peak_rss_mb(), workers, round);
  check_audit(result, **gateway, audited);
  build_worlds(specs, kSetupRepsAfter, setup_times);
  result.e2e("setup_s", median(setup_times), "s");
  return result;
}

RunResult run_attest_cold(const Options& options) {
  RunResult result;
  describe_host(result);
  const unsigned workers = worker_count();
  result.info["workers"] = std::to_string(workers);
  result.info["store_backend"] = "mem";
  result.info["verify"] = "per-session";

  // 64 worlds, each with its own AMD chip and ACME root; the KDS sits
  // behind a 25 ms one-way WAN link.
  const auto specs = world_specs(options.seed, /*cold=*/true);
  std::vector<double> setup_times;
  const auto worlds = build_worlds(specs, kSetupRepsBefore, setup_times);
  const auto world_ptrs = raw(worlds);

  // Each round is a cold gateway start: fresh store, durable tier, engine
  // and caches, one session per never-seen service.
  const auto round = [&]() -> RoundResult {
    auto gateway = open_gateway(result, workers, /*batch_verify=*/false);
    if (!gateway.ok()) return {};
    RoundResult r = (*gateway)->run_round(world_ptrs);
    check_round(result, r);
    check_audit(result, **gateway, r.attempted);
    return r;
  };
  round();  // untimed: process warm-up (code, allocator)
  measure(options, result, peak_rss_mb(), workers, round);
  build_worlds(specs, kSetupRepsAfter, setup_times);
  result.e2e("setup_s", median(setup_times), "s");
  return result;
}

}  // namespace perfbench
