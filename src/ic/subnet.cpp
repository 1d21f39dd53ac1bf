#include "ic/subnet.hpp"

#include <algorithm>

namespace revelio::ic {

crypto::Digest32 Certificate::signed_digest() const {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("ic-certificate-v1")));
  Bytes fields;
  append_u64be(fields, round);
  h.update(fields);
  h.update(state_root.view());
  h.update(response_hash.view());
  Bytes names;
  append_field(names, canister);
  append_field(names, method);
  h.update(names);
  return h.finish();
}

Bytes Certificate::serialize() const {
  Bytes out;
  append(out, std::string_view("ICRT1"));
  append_u64be(out, round);
  append(out, state_root.view());
  append(out, response_hash.view());
  append_field(out, canister);
  append_field(out, method);
  append_u32be(out, static_cast<std::uint32_t>(signatures.size()));
  for (const auto& [id, sig] : signatures) {
    append_u32be(out, id);
    append_u32be(out, static_cast<std::uint32_t>(sig.size()));
    append(out, sig);
  }
  return out;
}

Result<Certificate> Certificate::parse(ByteView data) {
  if (data.size() < 5 || to_string(data.subspan(0, 5)) != "ICRT1") {
    return Error::make("ic.bad_certificate");
  }
  std::size_t off = 5;
  auto need = [&](std::size_t n) { return off + n <= data.size(); };
  if (!need(8 + 32 + 32)) return Error::make("ic.bad_certificate");
  Certificate cert;
  cert.round = read_u64be(data, off);
  off += 8;
  cert.state_root = crypto::Digest32::from(data.subspan(off, 32));
  off += 32;
  cert.response_hash = crypto::Digest32::from(data.subspan(off, 32));
  off += 32;
  auto read_string = [&](std::string& out) {
    if (!need(4)) return false;
    const std::uint32_t len = read_u32be(data, off);
    off += 4;
    if (!need(len)) return false;
    out.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
               data.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
    return true;
  };
  if (!read_string(cert.canister) || !read_string(cert.method)) {
    return Error::make("ic.bad_certificate");
  }
  if (!need(4)) return Error::make("ic.bad_certificate");
  const std::uint32_t sig_count = read_u32be(data, off);
  off += 4;
  if (sig_count > 1024) return Error::make("ic.bad_certificate");
  for (std::uint32_t i = 0; i < sig_count; ++i) {
    if (!need(8)) return Error::make("ic.bad_certificate");
    const std::uint32_t id = read_u32be(data, off);
    off += 4;
    const std::uint32_t sig_len = read_u32be(data, off);
    off += 4;
    if (!need(sig_len)) return Error::make("ic.bad_certificate");
    cert.signatures.emplace_back(id, to_bytes(data.subspan(off, sig_len)));
    off += sig_len;
  }
  return cert;
}

void Replica::install_canister(const CanisterId& id,
                               std::unique_ptr<Canister> canister) {
  canisters_[id] = std::move(canister);
}

Result<Bytes> Replica::execute_update(const CanisterId& id,
                                      const std::string& method,
                                      ByteView arg) {
  const auto it = canisters_.find(id);
  if (it == canisters_.end()) return Error::make("ic.no_such_canister", id);
  auto result = it->second->update(method, arg);
  if (!result.ok()) return result;
  if (mode_ == ByzantineMode::kCorruptExecution) {
    // Wrong result, confidently signed.
    Bytes corrupted = *result;
    corrupted.push_back(0xEE);
    return corrupted;
  }
  return result;
}

Result<Bytes> Replica::execute_query(const CanisterId& id,
                                     const std::string& method,
                                     ByteView arg) const {
  const auto it = canisters_.find(id);
  if (it == canisters_.end()) return Error::make("ic.no_such_canister", id);
  auto result = it->second->query(method, arg);
  if (!result.ok()) return result;
  if (mode_ == ByzantineMode::kCorruptExecution) {
    Bytes corrupted = *result;
    corrupted.push_back(0xEE);
    return corrupted;
  }
  return result;
}

crypto::Digest32 Replica::state_root() const {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("state-root")));
  for (const auto& [id, canister] : canisters_) {
    Bytes len;
    append_u32be(len, static_cast<std::uint32_t>(id.size()));
    h.update(len);
    h.update(to_bytes(id));
    h.update(canister->state_hash().view());
  }
  return h.finish();
}

std::optional<Bytes> Replica::sign(const crypto::Digest32& digest,
                                   crypto::HmacDrbg& garbage_source) {
  switch (mode_) {
    case ByzantineMode::kSilent:
      return std::nullopt;
    case ByzantineMode::kSignGarbage: {
      const Bytes garbage = garbage_source.generate(32);
      return crypto::ecdsa_sign(crypto::p256(), key_.d, garbage)
          .encode(crypto::p256());
    }
    default:
      return crypto::ecdsa_sign(crypto::p256(), key_.d, digest.view())
          .encode(crypto::p256());
  }
}

Subnet::Subnet(std::uint32_t f, crypto::HmacDrbg& drbg)
    : f_(f), garbage_drbg_(drbg.generate(32),
                           to_bytes(std::string_view("byzantine-garbage"))) {
  const std::uint32_t n = 3 * f + 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    replicas_.push_back(std::make_unique<Replica>(
        i, crypto::ec_generate(crypto::p256(), drbg)));
  }
}

void Subnet::install_canister(const CanisterId& id,
                              const Canister& prototype) {
  for (auto& replica : replicas_) {
    replica->install_canister(id, prototype.clone());
  }
}

void Subnet::set_byzantine(ReplicaId id, ByzantineMode mode) {
  if (id < replicas_.size()) replicas_[id]->set_byzantine(mode);
}

std::map<ReplicaId, Bytes> Subnet::public_keys() const {
  std::map<ReplicaId, Bytes> keys;
  for (const auto& replica : replicas_) {
    keys[replica->id()] = replica->public_key();
  }
  return keys;
}

Result<CertifiedResponse> Subnet::certify(const CanisterId& id,
                                          const std::string& method,
                                          bool is_update, ByteView arg) {
  ++round_;
  // 1. Execute on every replica; bucket identical (response, root) pairs.
  struct Outcome {
    Bytes reply;
    crypto::Digest32 root;
  };
  std::vector<std::optional<Outcome>> outcomes(replicas_.size());
  std::map<Bytes, std::vector<ReplicaId>> buckets;  // key: reply||root
  for (auto& replica : replicas_) {
    Result<Bytes> result =
        is_update ? replica->execute_update(id, method, arg)
                  : replica->execute_query(id, method, arg);
    if (!result.ok()) continue;  // replica rejects; abstains
    Outcome outcome{*result, replica->state_root()};
    Bytes key = concat(outcome.reply, outcome.root.view());
    buckets[key].push_back(replica->id());
    outcomes[replica->id()] = std::move(outcome);
  }
  // 2. Find the agreement class of size >= threshold.
  const std::vector<ReplicaId>* agreeing = nullptr;
  for (const auto& [key, members] : buckets) {
    if (members.size() >= threshold()) {
      agreeing = &members;
      break;
    }
  }
  if (agreeing == nullptr) {
    return Error::make("ic.no_agreement",
                       "fewer than 2f+1 replicas agree on a result");
  }
  const Outcome& agreed = *outcomes[(*agreeing)[0]];

  // 3. Collect signature shares from the agreeing replicas.
  Certificate cert;
  cert.round = round_;
  cert.state_root = agreed.root;
  cert.response_hash = crypto::sha256(agreed.reply);
  cert.canister = id;
  cert.method = method;
  const crypto::Digest32 digest = cert.signed_digest();
  for (ReplicaId rid : *agreeing) {
    if (cert.signatures.size() >= threshold()) break;
    auto sig = replicas_[rid]->sign(digest, garbage_drbg_);
    if (sig) cert.signatures.emplace_back(rid, std::move(*sig));
  }
  if (cert.signatures.size() < threshold()) {
    return Error::make("ic.certification_failed",
                       "could not collect 2f+1 signature shares");
  }
  return CertifiedResponse{agreed.reply, std::move(cert)};
}

Result<CertifiedResponse> Subnet::update(const CanisterId& id,
                                         const std::string& method,
                                         ByteView arg) {
  return certify(id, method, /*is_update=*/true, arg);
}

Result<CertifiedResponse> Subnet::query(const CanisterId& id,
                                        const std::string& method,
                                        ByteView arg) {
  return certify(id, method, /*is_update=*/false, arg);
}

Status verify_certificate(const Certificate& cert, ByteView reply,
                          const std::map<ReplicaId, Bytes>& public_keys,
                          std::uint32_t threshold) {
  if (!(crypto::sha256(reply) == cert.response_hash)) {
    return Error::make("ic.reply_mismatch",
                       "reply does not hash to the certified value");
  }
  const crypto::Digest32 digest = cert.signed_digest();
  std::vector<ReplicaId> seen;
  std::uint32_t valid = 0;
  for (const auto& [id, sig_bytes] : cert.signatures) {
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) {
      return Error::make("ic.duplicate_signer", std::to_string(id));
    }
    seen.push_back(id);
    const auto key_it = public_keys.find(id);
    if (key_it == public_keys.end()) continue;  // unknown signer: ignore
    const auto pub = crypto::p256().decode_point(key_it->second);
    if (!pub.ok()) continue;
    auto sig = crypto::EcdsaSignature::decode(crypto::p256(), sig_bytes);
    if (!sig.ok()) continue;
    if (crypto::ecdsa_verify(crypto::p256(), *pub, digest.view(), *sig)) {
      ++valid;
    }
  }
  if (valid < threshold) {
    return Error::make("ic.insufficient_signatures",
                       std::to_string(valid) + " valid, need " +
                           std::to_string(threshold));
  }
  return Status::success();
}

}  // namespace revelio::ic
