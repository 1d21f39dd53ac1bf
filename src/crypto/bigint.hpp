// Fixed-width 384-bit unsigned integers and Montgomery modular arithmetic.
//
// U384 is sized for NIST P-384 (the curve AMD uses for VCEK signatures) and
// is the storage type for every field. The arithmetic, though, runs each
// modulus at its own width: a MontCtx over an n-limb modulus uses
// R = 2^(64n) and one CIOS multiply / carry-chain add / sub kernel
// instantiated for exactly n limbs, so P-256 fields cost 4x4-limb products
// instead of 6x6. On x86-64 the limb loops are explicit ADC/SBB chains
// (_addcarry_u64 / _subborrow_u64); a multiply row adds its low product
// halves on one chain and its high halves on another.
//
// Inversion is constant-time safegcd (Bernstein-Yang divsteps, 62 per
// transition matrix, a batch count fixed by the modulus bit length).
// Exponentiation, used for square roots, is a width-5 sliding window whose
// operation sequence depends only on the public exponent.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace revelio::crypto {

/// 384-bit unsigned integer; little-endian limb order.
struct U384 {
  static constexpr std::size_t kLimbs = 6;
  std::array<std::uint64_t, kLimbs> limbs{};

  static U384 zero() { return U384{}; }
  static U384 from_u64(std::uint64_t v) {
    U384 r;
    r.limbs[0] = v;
    return r;
  }

  /// Big-endian byte decoding; accepts up to 48 bytes.
  static U384 from_bytes_be(ByteView bytes);

  /// Parses a hex string (no 0x prefix); must describe <= 48 bytes.
  static U384 from_hex(std::string_view hex);

  /// Big-endian byte encoding, fixed output length (zero-padded).
  Bytes to_bytes_be(std::size_t length = 48) const;

  bool is_zero() const {
    for (auto l : limbs) {
      if (l != 0) return false;
    }
    return true;
  }

  bool bit(std::size_t i) const {
    return (limbs[i / 64] >> (i % 64)) & 1;
  }

  std::size_t bit_length() const;

  /// -1 / 0 / +1 three-way comparison.
  int cmp(const U384& other) const;

  friend bool operator==(const U384& a, const U384& b) {
    return a.limbs == b.limbs;
  }
  friend bool operator<(const U384& a, const U384& b) {
    return a.cmp(b) < 0;
  }
};

/// r = a + b; returns the carry out.
std::uint64_t add_with_carry(U384& r, const U384& a, const U384& b);
/// r = a - b; returns the borrow out.
std::uint64_t sub_with_borrow(U384& r, const U384& a, const U384& b);

/// Montgomery arithmetic context for an odd modulus m < 2^384, running at
/// n = ceil(bits(m) / 64) limbs with R = 2^(64n). Values passed to
/// mul/add/sub/pow/inv must be in the Montgomery domain (below m); to_mont
/// and reduce accept any U384.
class MontCtx {
 public:
  explicit MontCtx(const U384& modulus);

  const U384& modulus() const { return m_; }

  /// Limb count the arithmetic runs at.
  std::size_t limbs() const { return n_; }

  /// Maps a (plain, any 384-bit value) into the Montgomery domain, reducing
  /// mod m on the way.
  U384 to_mont(const U384& a) const;

  /// Maps back to the plain domain.
  U384 from_mont(const U384& a) const { return mul(a, U384::from_u64(1)); }

  /// Reduces a plain value mod m.
  U384 reduce(const U384& a) const { return from_mont(to_mont(a)); }

  /// Montgomery multiplication: a*b*R^-1 mod m (a < R, b < m).
  U384 mul(const U384& a, const U384& b) const { return mul_(*this, a, b); }

  /// Modular addition (either domain, operands < m).
  U384 add(const U384& a, const U384& b) const { return add_(*this, a, b); }
  /// Modular subtraction (either domain, operands < m).
  U384 sub(const U384& a, const U384& b) const { return sub_(*this, a, b); }

  /// a^e mod m; a in Montgomery domain, e plain; result Montgomery domain.
  /// Width-5 left-to-right sliding window.
  U384 pow(const U384& a, const U384& e) const;

  /// Modular inverse in the Montgomery domain (a must be a unit; inv(0) is
  /// 0). Constant-time safegcd: a fixed, modulus-derived number of divstep
  /// batches with no input-dependent branch or table index.
  U384 inv(const U384& a) const;

  /// R mod m — the Montgomery representation of 1.
  U384 one() const { return one_; }

 private:
  using Op = U384 (*)(const MontCtx&, const U384&, const U384&);
  template <std::size_t N>
  static U384 mul_n(const MontCtx& c, const U384& a, const U384& b);
  template <std::size_t N>
  static U384 add_n(const MontCtx& c, const U384& a, const U384& b);
  template <std::size_t N>
  static U384 sub_n(const MontCtx& c, const U384& a, const U384& b);

  U384 m_;
  U384 r2_;   // R^2 mod m
  U384 r3_;   // R^3 mod m: maps a plain inverse of x R to x^-1 R
  U384 one_;  // R mod m
  std::uint64_t n0_;  // -m^-1 mod 2^64
  std::size_t n_;     // limbs of m
  // safegcd state: m in signed 62-bit limbs, m^-1 mod 2^62, the limb count
  // and the number of 62-divstep batches.
  std::array<std::int64_t, 7> m62_{};
  std::uint64_t m_inv62_ = 0;
  std::size_t l62_ = 0;
  std::size_t inv_batches_ = 0;
  // The n-limb kernels, picked once at construction.
  Op mul_;
  Op add_;
  Op sub_;
};

}  // namespace revelio::crypto
