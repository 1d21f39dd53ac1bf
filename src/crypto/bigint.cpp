#include "crypto/bigint.hpp"

#include <cassert>

#include "common/hex.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// One link of a carry chain: r = a + b + c_in (or a - b - c_in), returning
// the carry (borrow) out. On x86-64 these are the ADC/SBB intrinsics, which
// GCC keeps as one flag chain; the 128-bit sums elsewhere compile to
// per-limb carry extraction instead.
#if defined(__x86_64__)
inline unsigned char addc(unsigned char c, std::uint64_t a, std::uint64_t b,
                          std::uint64_t& r) {
  unsigned long long out;
  c = _addcarry_u64(c, a, b, &out);
  r = out;
  return c;
}

inline unsigned char subb(unsigned char c, std::uint64_t a, std::uint64_t b,
                          std::uint64_t& r) {
  unsigned long long out;
  c = _subborrow_u64(c, a, b, &out);
  r = out;
  return c;
}
#else
inline unsigned char addc(unsigned char c, std::uint64_t a, std::uint64_t b,
                          std::uint64_t& r) {
  const uint128 sum = static_cast<uint128>(a) + b + c;
  r = static_cast<std::uint64_t>(sum);
  return static_cast<unsigned char>(sum >> 64);
}

inline unsigned char subb(unsigned char c, std::uint64_t a, std::uint64_t b,
                          std::uint64_t& r) {
  const uint128 diff = static_cast<uint128>(a) - b - c;
  r = static_cast<std::uint64_t>(diff);
  return static_cast<unsigned char>((diff >> 64) & 1);
}
#endif  // __x86_64__

// r = a + b over the low N limbs; returns the carry out.
template <std::size_t N>
std::uint64_t add_limbs(std::uint64_t* r, const std::uint64_t* a,
                        const std::uint64_t* b) {
  unsigned char carry = 0;
#pragma GCC unroll 6
  for (std::size_t i = 0; i < N; ++i) carry = addc(carry, a[i], b[i], r[i]);
  return carry;
}

// r = a - b over the low N limbs; returns the borrow out.
template <std::size_t N>
std::uint64_t sub_limbs(std::uint64_t* r, const std::uint64_t* a,
                        const std::uint64_t* b) {
  unsigned char borrow = 0;
#pragma GCC unroll 6
  for (std::size_t i = 0; i < N; ++i) borrow = subb(borrow, a[i], b[i], r[i]);
  return borrow;
}

// t[0 .. N+1] += x[0 .. N-1] * y. The word products stay 128-bit; their
// low halves go in on one carry chain and their high halves, one limb up,
// on a second, so each chain is a single run of ADCs.
template <std::size_t N>
inline void mul_add_row(std::uint64_t* t, const std::uint64_t* x,
                        std::uint64_t y) {
  std::uint64_t lo[N];
  std::uint64_t hi[N];
#pragma GCC unroll 6
  for (std::size_t j = 0; j < N; ++j) {
    const uint128 p = static_cast<uint128>(x[j]) * y;
    lo[j] = static_cast<std::uint64_t>(p);
    hi[j] = static_cast<std::uint64_t>(p >> 64);
  }
  unsigned char carry = 0;
#pragma GCC unroll 6
  for (std::size_t j = 0; j < N; ++j) carry = addc(carry, t[j], lo[j], t[j]);
  carry = addc(carry, t[N], 0, t[N]);
  addc(carry, t[N + 1], 0, t[N + 1]);
  carry = 0;
#pragma GCC unroll 6
  for (std::size_t j = 0; j < N; ++j) {
    carry = addc(carry, t[j + 1], hi[j], t[j + 1]);
  }
  addc(carry, t[N + 1], 0, t[N + 1]);
}

// --- Constant-time inversion: Bernstein-Yang safegcd ----------------------
//
// "Fast constant-time gcd computation and modular inversion" (TCHES 2019),
// laid out like libsecp256k1's modinv64 (MIT): numbers live in signed
// 62-bit limbs; divsteps run in batches of 62 on the low limbs of f and g
// alone, and each batch's 2x2 transition matrix, scaled by 2^62, is then
// applied to the full (f, g) exactly and to (d, e) modulo m.

using int128 = __int128;
using Signed62 = std::array<std::int64_t, 7>;
constexpr std::uint64_t kMask62 = ~std::uint64_t{0} >> 2;

struct Transition {
  std::int64_t u, v, q, r;
};

// 62 divsteps on the low 62 bits of f (odd) and g, starting from
// eta = -delta. Afterwards u f0 + v g0 = 2^62 f and q f0 + r g0 = 2^62 g,
// and |u| + |v|, |q| + |r| <= 2^62. Every choice is a mask, so the
// instruction sequence does not depend on f or g.
std::uint64_t divsteps_62(std::uint64_t eta, std::uint64_t f, std::uint64_t g,
                          Transition& t) {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  for (int i = 0; i < 62; ++i) {
    const std::uint64_t delta_pos = 0 - (eta >> 63);
    const std::uint64_t g_odd = 0 - (g & 1);
    // If g is odd: g-row -= f-row when delta > 0, else g-row += f-row.
    g += ((f ^ delta_pos) - delta_pos) & g_odd;
    q += ((u ^ delta_pos) - delta_pos) & g_odd;
    r += ((v ^ delta_pos) - delta_pos) & g_odd;
    // On a swap (delta > 0, g odd) f-row += (g - f)-row makes it the old
    // g-row, and delta becomes 1 - delta; otherwise delta becomes 1 + delta.
    const std::uint64_t swap = delta_pos & g_odd;
    eta = ((eta ^ swap) - swap) - 1;
    f += g & swap;
    u += q & swap;
    v += r & swap;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
       static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
  return eta;
}

// (d, e) <- t (d, e) / 2^62 mod m, adding the multiples of m that clear the
// low 62 bits; inputs in (-2m, m) give outputs in (-2m, m). With m = 0 the
// division is exact, which is how (f, g) are updated.
void apply_transition(Signed62& d, Signed62& e, const Transition& t,
                      const Signed62& m, std::uint64_t m_inv62,
                      std::size_t len) {
  // Start from u (or q) times m if d < 0, plus v (or r) times m if e < 0.
  const std::uint64_t d_neg =
      0 - (static_cast<std::uint64_t>(d[len - 1]) >> 63);
  const std::uint64_t e_neg =
      0 - (static_cast<std::uint64_t>(e[len - 1]) >> 63);
  std::uint64_t md = (static_cast<std::uint64_t>(t.u) & d_neg) +
                     (static_cast<std::uint64_t>(t.v) & e_neg);
  std::uint64_t me = (static_cast<std::uint64_t>(t.q) & d_neg) +
                     (static_cast<std::uint64_t>(t.r) & e_neg);
  int128 cd = static_cast<int128>(t.u) * d[0] + static_cast<int128>(t.v) * e[0];
  int128 ce = static_cast<int128>(t.q) * d[0] + static_cast<int128>(t.r) * e[0];
  md -= (m_inv62 * static_cast<std::uint64_t>(cd) + md) & kMask62;
  me -= (m_inv62 * static_cast<std::uint64_t>(ce) + me) & kMask62;
  const auto md_s = static_cast<std::int64_t>(md);
  const auto me_s = static_cast<std::int64_t>(me);
  cd += static_cast<int128>(m[0]) * md_s;
  ce += static_cast<int128>(m[0]) * me_s;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < len; ++i) {
    cd += static_cast<int128>(t.u) * d[i] + static_cast<int128>(t.v) * e[i] +
          static_cast<int128>(m[i]) * md_s;
    ce += static_cast<int128>(t.q) * d[i] + static_cast<int128>(t.r) * e[i] +
          static_cast<int128>(m[i]) * me_s;
    d[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) &
                                         kMask62);
    e[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) &
                                         kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d[len - 1] = static_cast<std::int64_t>(cd);
  e[len - 1] = static_cast<std::int64_t>(ce);
}

// Arithmetic right shift by 62 of a two's-complement limb.
std::uint64_t sar62(std::uint64_t x) { return (x >> 62) - ((x >> 63) << 2); }

// Maps d in (-2m, m) to d mod m in [0, m), negated first if sign < 0, as a
// plain U384.
U384 normalize(const Signed62& d, std::int64_t sign, const Signed62& m,
               std::size_t len) {
  std::array<std::uint64_t, 7> x{};
  for (std::size_t i = 0; i < len; ++i) x[i] = static_cast<std::uint64_t>(d[i]);
  const auto add_m_if_negative = [&] {
    const std::uint64_t neg = 0 - (x[len - 1] >> 63);
    for (std::size_t i = 0; i < len; ++i) {
      x[i] += static_cast<std::uint64_t>(m[i]) & neg;
    }
  };
  const auto carry_limbs = [&] {
    for (std::size_t i = 0; i + 1 < len; ++i) {
      x[i + 1] += sar62(x[i]);
      x[i] &= kMask62;
    }
  };
  add_m_if_negative();  // (-2m, m) -> (-m, m)
  const std::uint64_t flip = 0 - (static_cast<std::uint64_t>(sign) >> 63);
  for (std::size_t i = 0; i < len; ++i) x[i] = (x[i] ^ flip) - flip;
  carry_limbs();
  add_m_if_negative();  // (-m, m) -> [0, m)
  carry_limbs();

  U384 out;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t bit = 62 * i;
    const std::size_t w = bit / 64;
    const std::size_t s = bit % 64;
    if (w < U384::kLimbs) out.limbs[w] |= x[i] << s;
    if (s > 2 && w + 1 < U384::kLimbs) out.limbs[w + 1] |= x[i] >> (64 - s);
  }
  return out;
}

Signed62 to_signed62(const U384& a, std::size_t len) {
  Signed62 out{};
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t bit = 62 * i;
    const std::size_t w = bit / 64;
    const std::size_t s = bit % 64;
    std::uint64_t v = w < U384::kLimbs ? a.limbs[w] >> s : 0;
    if (s > 2 && w + 1 < U384::kLimbs) v |= a.limbs[w + 1] << (64 - s);
    out[i] = static_cast<std::int64_t>(v & kMask62);
  }
  return out;
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
  r3_ = mul(r2_, r2_);

  // safegcd setup. Theorem 11.2 of Bernstein-Yang bounds the divsteps that
  // take any 0 <= g < m to g = 0 for a d-bit m.
  l62_ = 64 * n_ / 62 + 1;
  m62_ = to_signed62(m_, l62_);
  m_inv62_ = (0 - n0_) & kMask62;
  const std::size_t d = m_.bit_length();
  const std::size_t divsteps = d >= 46 ? (49 * d + 57) / 17 : (49 * d + 80) / 17;
  inv_batches_ = (divsteps + 61) / 62;
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
    mul_add_row<N>(t, a.limbs.data(), b.limbs[i]);
    // Reduce: add mu * m, which clears t[0], and shift one limb.
    mul_add_row<N>(t, m, t[0] * c.n0_);
#pragma GCC unroll 6
    for (std::size_t j = 0; j <= N; ++j) t[j] = t[j + 1];
    t[N + 1] = 0;
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
  // safegcd on (f, g) = (m, a), with d a = f and e a = g (mod m) throughout.
  // After inv_batches_ batches g = 0 and, for a unit a, f = +-1, so the
  // inverse is +-d; a = 0 leaves d = 0. The batch count depends only on m.
  Signed62 f = m62_;
  Signed62 g = to_signed62(a, l62_);
  Signed62 d{};
  Signed62 e{};
  e[0] = 1;
  std::uint64_t eta = ~std::uint64_t{0};  // delta = 1
  for (std::size_t i = 0; i < inv_batches_; ++i) {
    Transition t;
    eta = divsteps_62(eta, static_cast<std::uint64_t>(f[0]),
                      static_cast<std::uint64_t>(g[0]), t);
    apply_transition(d, e, t, m62_, m_inv62_, l62_);
    apply_transition(f, g, t, Signed62{}, 0, l62_);
  }
  // a = x R, so the plain inverse is x^-1 R^-1; times R^3 / R gives x^-1 R.
  return mul(normalize(d, f[l62_ - 1], m62_, l62_), r3_);
}

}  // namespace revelio::crypto
