#include "pki/cert.hpp"

namespace revelio::pki {

namespace {

void append_dn(Bytes& out, const DistinguishedName& dn) {
  append_field(out, dn.common_name);
  append_field(out, dn.organization);
  append_field(out, dn.country);
}

DistinguishedName read_dn(FieldReader& r) {
  DistinguishedName dn;
  dn.common_name = r.str();
  dn.organization = r.str();
  dn.country = r.str();
  return dn;
}

}  // namespace

Bytes DistinguishedName::serialize() const {
  Bytes out;
  append_dn(out, *this);
  return out;
}

Result<const crypto::Curve*> curve_by_name(const std::string& name) {
  if (name == "P-256") return &crypto::p256();
  if (name == "P-384") return &crypto::p384();
  return Error::make("pki.unknown_curve", name);
}

Bytes Certificate::tbs() const {
  Bytes out;
  append(out, std::string_view("REVELIO-CERT-V1"));
  append_u64be(out, serial);
  append_dn(out, subject);
  append_dn(out, issuer);
  append_u64be(out, not_before_us);
  append_u64be(out, not_after_us);
  append_field(out, curve_name);
  append_field(out, public_key);
  append_u32be(out, static_cast<std::uint32_t>(san_dns.size()));
  for (const auto& san : san_dns) append_field(out, san);
  append_u8(out, is_ca ? 1 : 0);
  append_field(out, sig_curve_name);
  return out;
}

Bytes Certificate::serialize() const {
  Bytes out = tbs();
  append_field(out, signature);
  return out;
}

Result<Certificate> Certificate::parse(ByteView data) {
  FieldReader r{data};
  // Tag check.
  constexpr std::string_view kTag = "REVELIO-CERT-V1";
  if (data.size() < kTag.size() ||
      to_string(data.subspan(0, kTag.size())) != kTag) {
    return Error::make("pki.bad_cert_tag");
  }
  r.off = kTag.size();
  Certificate cert;
  cert.serial = r.u64();
  cert.subject = read_dn(r);
  cert.issuer = read_dn(r);
  cert.not_before_us = r.u64();
  cert.not_after_us = r.u64();
  cert.curve_name = r.str();
  cert.public_key = r.bytes();
  const std::uint32_t san_count = r.u32();
  if (san_count > 1024) return Error::make("pki.bad_cert", "too many SANs");
  for (std::uint32_t i = 0; i < san_count && !r.failed; ++i) {
    cert.san_dns.push_back(r.str());
  }
  if (r.off < data.size()) {
    cert.is_ca = data[r.off] != 0;
    ++r.off;
  } else {
    r.failed = true;
  }
  cert.sig_curve_name = r.str();
  cert.signature = r.bytes();
  if (r.failed) return Error::make("pki.bad_cert", "truncated certificate");
  return cert;
}

bool Certificate::matches_dns(const std::string& name) const {
  for (const auto& san : san_dns) {
    if (san == name) return true;
    // Single-level wildcard: *.example.com covers a.example.com.
    if (san.size() > 2 && san[0] == '*' && san[1] == '.') {
      const std::string_view suffix(san.c_str() + 1);  // ".example.com"
      if (name.size() > suffix.size() &&
          std::string_view(name).substr(name.size() - suffix.size()) ==
              suffix &&
          name.find('.') == name.size() - suffix.size() + 0) {
        // The matched label must not itself contain a dot.
        const std::string_view label =
            std::string_view(name).substr(0, name.size() - suffix.size());
        if (label.find('.') == std::string_view::npos) return true;
      }
    }
  }
  return san_dns.empty() && subject.common_name == name;
}

bool Certificate::verify_signature(const Certificate& issuer_cert) const {
  auto curve = curve_by_name(issuer_cert.curve_name);
  if (!curve.ok()) return false;
  const auto pub = (*curve)->decode_point(issuer_cert.public_key);
  if (!pub.ok()) return false;
  auto sig = crypto::EcdsaSignature::decode(**curve, signature);
  if (!sig.ok()) return false;
  const auto hash = crypto::sha384(tbs());
  return crypto::ecdsa_verify(**curve, *pub, hash.view(), *sig);
}

Bytes CertificateSigningRequest::tbs() const {
  Bytes out;
  append(out, std::string_view("REVELIO-CSR-V1"));
  append_dn(out, subject);
  append_u32be(out, static_cast<std::uint32_t>(san_dns.size()));
  for (const auto& san : san_dns) append_field(out, san);
  append_field(out, curve_name);
  append_field(out, public_key);
  return out;
}

Bytes CertificateSigningRequest::serialize() const {
  Bytes out = tbs();
  append_field(out, signature);
  return out;
}

Result<CertificateSigningRequest> CertificateSigningRequest::parse(
    ByteView data) {
  constexpr std::string_view kTag = "REVELIO-CSR-V1";
  if (data.size() < kTag.size() ||
      to_string(data.subspan(0, kTag.size())) != kTag) {
    return Error::make("pki.bad_csr_tag");
  }
  FieldReader r{data};
  r.off = kTag.size();
  CertificateSigningRequest csr;
  csr.subject = read_dn(r);
  const std::uint32_t san_count = r.u32();
  if (san_count > 1024) return Error::make("pki.bad_csr", "too many SANs");
  for (std::uint32_t i = 0; i < san_count && !r.failed; ++i) {
    csr.san_dns.push_back(r.str());
  }
  csr.curve_name = r.str();
  csr.public_key = r.bytes();
  csr.signature = r.bytes();
  if (r.failed) return Error::make("pki.bad_csr", "truncated CSR");
  return csr;
}

bool CertificateSigningRequest::verify() const {
  auto curve = curve_by_name(curve_name);
  if (!curve.ok()) return false;
  const auto pub = (*curve)->decode_point(public_key);
  if (!pub.ok()) return false;
  auto sig = crypto::EcdsaSignature::decode(**curve, signature);
  if (!sig.ok()) return false;
  const auto hash = crypto::sha384(tbs());
  return crypto::ecdsa_verify(**curve, *pub, hash.view(), *sig);
}

CertificateSigningRequest make_csr(const crypto::Curve& curve,
                                   const crypto::EcKeyPair& key,
                                   DistinguishedName subject,
                                   std::vector<std::string> san_dns) {
  CertificateSigningRequest csr;
  csr.subject = std::move(subject);
  csr.san_dns = std::move(san_dns);
  csr.curve_name = curve.params().name;
  csr.public_key = key.public_encoded(curve);
  const auto hash = crypto::sha384(csr.tbs());
  csr.signature = crypto::ecdsa_sign(curve, key.d, hash.view()).encode(curve);
  return csr;
}

Status verify_chain(const Certificate& leaf,
                    const std::vector<Certificate>& intermediates,
                    const std::vector<Certificate>& roots,
                    const ChainVerifyOptions& options) {
  if (roots.empty()) return Error::make("pki.no_roots");

  // Walk from the leaf upward, finding the issuer for each link.
  const Certificate* current = &leaf;
  std::vector<const Certificate*> chain{current};
  constexpr std::size_t kMaxDepth = 8;

  auto check_validity = [&](const Certificate& cert) -> Status {
    // Validity is the half-open window [not_before, not_after): a
    // certificate expiring exactly at the validation instant is already
    // expired. The closed upper bound this used to have made the expiry
    // instant itself fail open.
    if (options.now_us < cert.not_before_us ||
        options.now_us >= cert.not_after_us) {
      return Error::make("pki.cert_expired",
                         cert.subject.common_name + " outside validity");
    }
    return Status::success();
  };

  if (options.dns_name && !leaf.matches_dns(*options.dns_name)) {
    return Error::make("pki.name_mismatch",
                       "leaf does not cover " + *options.dns_name);
  }

  while (chain.size() <= kMaxDepth) {
    if (auto st = check_validity(*current); !st.ok()) return st;

    // Is the current certificate signed by a trusted root?
    for (const auto& root : roots) {
      if (current->issuer == root.subject &&
          current->verify_signature(root)) {
        if (auto st = check_validity(root); !st.ok()) return st;
        if (!root.is_ca) return Error::make("pki.root_not_ca");
        return Status::success();
      }
    }
    // Otherwise find the intermediate that issued it.
    const Certificate* next = nullptr;
    for (const auto& inter : intermediates) {
      if (current->issuer == inter.subject &&
          current->verify_signature(inter)) {
        next = &inter;
        break;
      }
    }
    if (next == nullptr) {
      return Error::make("pki.untrusted",
                         "no issuer found for " + current->subject.common_name);
    }
    if (!next->is_ca) {
      return Error::make("pki.intermediate_not_ca", next->subject.common_name);
    }
    current = next;
    chain.push_back(current);
  }
  return Error::make("pki.chain_too_long");
}

}  // namespace revelio::pki
