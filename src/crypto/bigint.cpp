#include "crypto/bigint.hpp"

#include <cassert>

#include "common/hex.hpp"

namespace revelio::crypto {

using uint128 = unsigned __int128;

U384 U384::from_bytes_be(ByteView bytes) {
  assert(bytes.size() <= 48);
  U384 r;
  std::size_t limb = 0;
  std::size_t shift = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    r.limbs[limb] |= static_cast<std::uint64_t>(bytes[i]) << shift;
    shift += 8;
    if (shift == 64) {
      shift = 0;
      ++limb;
    }
  }
  return r;
}

U384 U384::from_hex(std::string_view hex) {
  auto bytes = revelio::from_hex(hex);
  assert(bytes.has_value());
  return from_bytes_be(*bytes);
}

Bytes U384::to_bytes_be(std::size_t length) const {
  Bytes out(length, 0);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t byte_index = i;  // from the little end
    if (byte_index >= 48) break;
    const std::uint64_t limb = limbs[byte_index / 8];
    out[length - 1 - i] =
        static_cast<std::uint8_t>(limb >> (8 * (byte_index % 8)));
  }
  return out;
}

std::size_t U384::bit_length() const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs[i] != 0) {
      std::size_t bits = 64 * i;
      std::uint64_t v = limbs[i];
      while (v) {
        ++bits;
        v >>= 1;
      }
      return bits;
    }
  }
  return 0;
}

int U384::cmp(const U384& other) const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs[i] != other.limbs[i]) {
      return limbs[i] < other.limbs[i] ? -1 : 1;
    }
  }
  return 0;
}

namespace {

// r = a + b over the low N limbs; returns the carry out.
template <std::size_t N>
std::uint64_t add_limbs(std::uint64_t* r, const std::uint64_t* a,
                        const std::uint64_t* b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const uint128 sum = static_cast<uint128>(a[i]) + b[i] + carry;
    r[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  return carry;
}

// r = a - b over the low N limbs; returns the borrow out.
template <std::size_t N>
std::uint64_t sub_limbs(std::uint64_t* r, const std::uint64_t* a,
                        const std::uint64_t* b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const uint128 diff = static_cast<uint128>(a[i]) -
                         static_cast<uint128>(b[i]) - borrow;
    r[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
  }
  return borrow;
}

template <std::size_t N>
bool zero_above(const U384& a) {
  for (std::size_t i = N; i < U384::kLimbs; ++i) {
    if (a.limbs[i] != 0) return false;
  }
  return true;
}

}  // namespace

std::uint64_t add_with_carry(U384& r, const U384& a, const U384& b) {
  return add_limbs<U384::kLimbs>(r.limbs.data(), a.limbs.data(),
                                 b.limbs.data());
}

std::uint64_t sub_with_borrow(U384& r, const U384& a, const U384& b) {
  return sub_limbs<U384::kLimbs>(r.limbs.data(), a.limbs.data(),
                                 b.limbs.data());
}

MontCtx::MontCtx(const U384& modulus)
    : m_(modulus), n_((modulus.bit_length() + 63) / 64) {
  assert((m_.limbs[0] & 1) == 1 && "Montgomery modulus must be odd");
  static constexpr Op kMul[] = {&mul_n<1>, &mul_n<2>, &mul_n<3>,
                                &mul_n<4>, &mul_n<5>, &mul_n<6>};
  static constexpr Op kAdd[] = {&add_n<1>, &add_n<2>, &add_n<3>,
                                &add_n<4>, &add_n<5>, &add_n<6>};
  static constexpr Op kSub[] = {&sub_n<1>, &sub_n<2>, &sub_n<3>,
                                &sub_n<4>, &sub_n<5>, &sub_n<6>};
  mul_ = kMul[n_ - 1];
  add_ = kAdd[n_ - 1];
  sub_ = kSub[n_ - 1];

  // n0 = -m^-1 mod 2^64 via Newton iteration: x_{k+1} = x_k (2 - m x_k).
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m_.limbs[0] * inv;
  }
  n0_ = ~inv + 1;  // negate mod 2^64

  // one_ = R mod m via shift-and-reduce doublings starting from 1;
  // r2_ = R^2 mod m continues the same chain. No division needed.
  U384 t = U384::from_u64(1);
  auto mod_double = [this](U384& v) {
    U384 doubled;
    const std::uint64_t carry = add_with_carry(doubled, v, v);
    if (carry || doubled.cmp(m_) >= 0) {
      U384 reduced;
      sub_with_borrow(reduced, doubled, m_);
      v = reduced;
    } else {
      v = doubled;
    }
  };
  for (std::size_t i = 0; i < 64 * n_; ++i) mod_double(t);
  one_ = t;
  for (std::size_t i = 0; i < 64 * n_; ++i) mod_double(t);
  r2_ = t;
}

template <std::size_t N>
U384 MontCtx::mul_n(const MontCtx& c, const U384& a, const U384& b) {
  assert(zero_above<N>(a) && zero_above<N>(b));
  // CIOS Montgomery multiplication with one extra limb of headroom. The
  // loops are unrolled so t stays in registers at -O2 too.
  const std::uint64_t* m = c.m_.limbs.data();
  std::uint64_t t[N + 2] = {};

#pragma GCC unroll 6
  for (std::size_t i = 0; i < N; ++i) {
    // t += a * b[i]
    std::uint64_t carry = 0;
#pragma GCC unroll 6
    for (std::size_t j = 0; j < N; ++j) {
      const uint128 cur =
          static_cast<uint128>(a.limbs[j]) * b.limbs[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    uint128 cur = static_cast<uint128>(t[N]) + carry;
    t[N] = static_cast<std::uint64_t>(cur);
    t[N + 1] = static_cast<std::uint64_t>(cur >> 64);

    // Reduce: add mu * m and shift one limb.
    const std::uint64_t mu = t[0] * c.n0_;
    cur = static_cast<uint128>(mu) * m[0] + t[0];
    carry = static_cast<std::uint64_t>(cur >> 64);
#pragma GCC unroll 6
    for (std::size_t j = 1; j < N; ++j) {
      cur = static_cast<uint128>(mu) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<uint128>(t[N]) + carry;
    t[N - 1] = static_cast<std::uint64_t>(cur);
    t[N] = t[N + 1] + static_cast<std::uint64_t>(cur >> 64);
  }

  // t < 2m: subtract m once unless that borrows out of t's N + 1 limbs.
  U384 r;
  const std::uint64_t borrow = sub_limbs<N>(r.limbs.data(), t, m);
  if (borrow > t[N]) {
    for (std::size_t i = 0; i < N; ++i) r.limbs[i] = t[i];
  }
  return r;
}

template <std::size_t N>
U384 MontCtx::add_n(const MontCtx& c, const U384& a, const U384& b) {
  const std::uint64_t* m = c.m_.limbs.data();
  std::uint64_t sum[N];
  const std::uint64_t carry =
      add_limbs<N>(sum, a.limbs.data(), b.limbs.data());
  U384 r;
  const std::uint64_t borrow = sub_limbs<N>(r.limbs.data(), sum, m);
  if (borrow > carry) {
    for (std::size_t i = 0; i < N; ++i) r.limbs[i] = sum[i];
  }
  return r;
}

template <std::size_t N>
U384 MontCtx::sub_n(const MontCtx& c, const U384& a, const U384& b) {
  U384 r;
  if (sub_limbs<N>(r.limbs.data(), a.limbs.data(), b.limbs.data())) {
    add_limbs<N>(r.limbs.data(), r.limbs.data(), c.m_.limbs.data());
  }
  return r;
}

U384 MontCtx::to_mont(const U384& a) const {
  // Horner over n-limb chunks, most significant first: acc = acc*R + chunk.
  // mul(x, r2) = x*R mod m for any x < R: it maps a chunk into the domain
  // and, applied to acc, multiplies acc's plain value by R.
  std::size_t top = U384::kLimbs - 1;
  while (top > 0 && a.limbs[top] == 0) --top;
  U384 acc;
  for (std::size_t lo = top - top % n_;; lo -= n_) {
    U384 chunk;
    for (std::size_t i = lo; i < lo + n_ && i < U384::kLimbs; ++i) {
      chunk.limbs[i - lo] = a.limbs[i];
    }
    acc = add(mul(acc, r2_), mul(chunk, r2_));
    if (lo == 0) return acc;
  }
}

U384 MontCtx::pow(const U384& a, const U384& e) const {
  // Odd powers a^1, a^3, ..., a^31; each window is one table multiply.
  constexpr std::size_t kWindow = 5;
  std::array<U384, std::size_t{1} << (kWindow - 1)> odd;
  odd[0] = a;
  const U384 a2 = mul(a, a);
  for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = mul(odd[i - 1], a2);

  U384 result = one_;
  for (std::size_t i = e.bit_length(); i > 0;) {
    if (!e.bit(i - 1)) {
      result = mul(result, result);
      --i;
      continue;
    }
    // Window e[i-1 .. lo]: at most kWindow bits, ending on a set bit.
    std::size_t lo = i > kWindow ? i - kWindow : 0;
    while (!e.bit(lo)) ++lo;
    std::size_t digit = 0;
    for (std::size_t b = i; b-- > lo;) {
      result = mul(result, result);
      digit = (digit << 1) | e.bit(b);
    }
    result = mul(result, odd[digit >> 1]);
    i = lo;
  }
  return result;
}

U384 MontCtx::inv(const U384& a) const {
  // Fermat: a^(m-2) mod m for prime m.
  U384 exponent;
  sub_with_borrow(exponent, m_, U384::from_u64(2));
  return pow(a, exponent);
}

}  // namespace revelio::crypto
