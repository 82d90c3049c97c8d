#include "sim/similarity_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#if defined(__AVX512F__)
#include <immintrin.h>
// GCC 12's AVX-512 conversion and sqrt intrinsics pass an unset
// _mm512_undefined_* operand that its own -Wmaybe-uninitialized flags
// (GCC bug 105593, fixed in 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

#include "sim/lsh.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/ranking.hpp"
#include "util/error.hpp"
#include "util/triangular.hpp"

namespace fv::sim {

namespace {

/// Kernel lane width: rows are padded to a multiple of this so the hot
/// loops below carry independent accumulator chains the compiler can keep
/// in vector registers (no remainder loop, no reassociation needed).
constexpr std::size_t kLanes = 16;

/// Pair-block edge for all_distances: 64 rows x 96 floats = 24 KiB per
/// side, so one tile's working set stays L1/L2 resident while its
/// 64 x 64 pairs reuse it.
constexpr std::size_t kTile = 64;

/// Segment width of the blocked row norms the pruned top-k bound uses: one
/// kernel lane block. Finer segments only tighten the Cauchy–Schwarz bound
/// (splitting a segment can never increase Σ_s ||a_s||·||b_s|| — apply
/// Cauchy–Schwarz to the sub-norm pairs), and 16 matches the condition-
/// block granularity of compendium data (datasets enter as groups of
/// adjacent columns); the cost is one float per 16 row elements.
constexpr std::size_t kBoundSegment = kLanes;

/// Pairs per packed column group of the batched tile kernel: one tile row
/// is dotted against kGroup columns at once, with accumulators that run
/// across the pairs (one AVX-512 float register per kernel lane).
constexpr std::size_t kGroup = 16;

/// acc + x·y, rounded the way every dot kernel in this file rounds it: one
/// fused rounding where the target has a fast hardware FMA, a product and
/// a sum otherwise. Spelled out instead of left to the compiler's
/// contraction choices so the scalar reference kernels and the batched
/// tile kernel perform the same operations at any -ffp-contract setting,
/// which is what makes their results bit-identical.
inline float fused_madd(float x, float y, float acc) {
#ifdef FP_FAST_FMAF
  return std::fma(x, y, acc);
#else
  return x * y + acc;
#endif
}

inline double fused_madd(double x, double y, double acc) {
#ifdef FP_FAST_FMA
  return std::fma(x, y, acc);
#else
  return x * y + acc;
#endif
}

double dot_padded(const float* a, const float* b, std::size_t stride) {
  double acc[kLanes] = {};
  for (std::size_t k = 0; k < stride; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      acc[l] = fused_madd(static_cast<double>(a[k + l]),
                          static_cast<double>(b[k + l]), acc[l]);
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) total += acc[l];
  return total;
}

/// Elements between double flushes of the float kernel's lane array. Each
/// float lane sums kFloatFlushBlock / 16 products sequentially before the
/// block's lane sums drain into double accumulators and the float lanes
/// reset; on unit-norm inputs (the normalized rows) the per-block absolute
/// product sums add up to Σ|a_k b_k| <= 1 over the whole row by
/// Cauchy–Schwarz, so the total rounding error is bounded by
/// (kFloatFlushBlock / 16) * 2^-24 ≈ 9.5e-7 at ANY stride — always inside
/// the 1e-6 equivalence contract. (Before the flush existed the bound was
/// (stride / 16) * 2^-24 and kAuto had to fall back past stride 256; the
/// flush is what removed the ceiling.) Must be a multiple of the unrolled
/// step, kLanes * kUnroll = 64. Measured error on random profiles is
/// ~100x below the bound; see the error-bound study in tests/topk_test.cpp
/// and src/sim/README.md.
constexpr std::size_t kFloatFlushBlock = 256;

/// Float-accumulator dense dot: the double kernel's 16-lane accumulator
/// array in float, with the main loop unrolled 4 vector blocks deep (64
/// elements per iteration into the same 16 chains — unrolling does not
/// change the per-lane summation order, so the error analysis above holds
/// for any blocking). Floats halve the bytes per element the vector units
/// move, so dense rows retire ~2x the elements per cycle (measured 1.7x at
/// 96 conditions, 2.9x at 512, AVX-512 host; wider accumulator arrays
/// spill and lose). Every kFloatFlushBlock elements the lanes flush into
/// double accumulators (for stride <= 256 that is a single flush, i.e. the
/// exact pre-flush arithmetic); the final 16-way reduction is in double.
double dot_padded_float(const float* a, const float* b, std::size_t stride) {
  constexpr std::size_t kUnroll = 4;
  double flushed[kLanes] = {};
  for (std::size_t base = 0; base < stride; base += kFloatFlushBlock) {
    const std::size_t end = std::min(stride, base + kFloatFlushBlock);
    float acc[kLanes] = {};
    std::size_t k = base;
    for (; k + kLanes * kUnroll <= end; k += kLanes * kUnroll) {
      for (std::size_t u = 0; u < kUnroll; ++u) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          acc[l] = fused_madd(a[k + u * kLanes + l], b[k + u * kLanes + l],
                              acc[l]);
        }
      }
    }
    for (; k < end; k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        acc[l] = fused_madd(a[k + l], b[k + l], acc[l]);
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      flushed[l] += static_cast<double>(acc[l]);
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    total += flushed[l];
  }
  return total;
}

// --- Batched tile kernel ----------------------------------------------------
//
// The functions below compute kGroup dot products at once: row `a` against
// the columns packed in `cols` by pack_group (element k of column p at
// cols[k * kGroup + p]). Each pair keeps its own 16 lane accumulators, fed
// in the same order as the scalar kernel it batches (lane l sums elements
// l, l+16, l+32, … of the row), drained at the same points and reduced
// over the lanes in the same ascending order, with the same fused_madd
// rounding, so out[p] equals the scalar kernel's result for (a, column p)
// bit for bit. Only the loop nest differs: the accumulators run across the
// kGroup pairs, one vector per lane, instead of one serial 16-lane
// reduction per pair.
//
// The portable forms walk lanes outermost so a vectorizer can keep one
// lane's kGroup accumulators in registers at any vector width. With
// AVX-512 (and hardware FMA, which fused_madd then uses) the intrinsics
// forms keep all 16 lanes' accumulators in registers at once, one zmm per
// lane; GCC prefers 256-bit vectors on current Xeons and then spills the
// lane array. Each intrinsics form below is kept because its portable
// form measurably loses in a native build; src/sim/README.md (§Tile
// kernel) gives the measurements.
#if defined(__AVX512F__) && defined(FP_FAST_FMAF) && defined(FP_FAST_FMA)
#define FV_SIM_AVX512 1
#else
#define FV_SIM_AVX512 0
#endif

#if FV_SIM_AVX512
/// One flush block of dot_group_float: the 16 float lane accumulators of
/// the kGroup pairs over elements [base, end), one zmm per lane.
inline void float_lanes(const float* a, const float* cols, std::size_t base,
                        std::size_t end, __m512 (&acc)[kLanes]) {
#pragma GCC unroll 16
  for (std::size_t l = 0; l < kLanes; ++l) acc[l] = _mm512_setzero_ps();
  for (std::size_t k = base; k < end; k += kLanes) {
#pragma GCC unroll 16
    for (std::size_t l = 0; l < kLanes; ++l) {
      acc[l] = _mm512_fmadd_ps(_mm512_set1_ps(a[k + l]),
                               _mm512_loadu_ps(cols + (k + l) * kGroup),
                               acc[l]);
    }
  }
}

/// Lane l's float sums widened to double: pairs 0-7 and 8-15.
inline __m512d widen_lo(__m512 v) {
  return _mm512_cvtps_pd(_mm512_castps512_ps256(v));
}
inline __m512d widen_hi(__m512 v) {
  return _mm512_cvtps_pd(
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
}
#endif

/// Batched dot_padded_float.
void dot_group_float(const float* a, const float* cols, std::size_t stride,
                     double* out) {
#if FV_SIM_AVX512
  static_assert(kGroup == 16 && kLanes == 16);
  const __m512d zero = _mm512_setzero_pd();
  __m512d total_lo = zero;
  __m512d total_hi = zero;
  __m512 acc[kLanes];
  if (stride <= kFloatFlushBlock) {
    // One flush block: flushed[l] = 0 + lane sum, total += flushed[l].
    float_lanes(a, cols, 0, stride, acc);
#pragma GCC unroll 16
    for (std::size_t l = 0; l < kLanes; ++l) {
      total_lo = _mm512_add_pd(total_lo, _mm512_add_pd(zero, widen_lo(acc[l])));
      total_hi = _mm512_add_pd(total_hi, _mm512_add_pd(zero, widen_hi(acc[l])));
    }
  } else {
    alignas(64) double flushed[kLanes][kGroup] = {};
    for (std::size_t base = 0; base < stride; base += kFloatFlushBlock) {
      float_lanes(a, cols, base, std::min(stride, base + kFloatFlushBlock),
                  acc);
      for (std::size_t l = 0; l < kLanes; ++l) {
        _mm512_store_pd(flushed[l], _mm512_add_pd(_mm512_load_pd(flushed[l]),
                                                  widen_lo(acc[l])));
        _mm512_store_pd(flushed[l] + 8,
                        _mm512_add_pd(_mm512_load_pd(flushed[l] + 8),
                                      widen_hi(acc[l])));
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      total_lo = _mm512_add_pd(total_lo, _mm512_load_pd(flushed[l]));
      total_hi = _mm512_add_pd(total_hi, _mm512_load_pd(flushed[l] + 8));
    }
  }
  _mm512_storeu_pd(out, total_lo);
  _mm512_storeu_pd(out + 8, total_hi);
#else
  double total[kGroup] = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    double lane[kGroup] = {};
    for (std::size_t base = 0; base < stride; base += kFloatFlushBlock) {
      const std::size_t end = std::min(stride, base + kFloatFlushBlock);
      float acc[kGroup] = {};
      for (std::size_t k = base + l; k < end; k += kLanes) {
        const float x = a[k];
        const float* c = cols + k * kGroup;
        for (std::size_t p = 0; p < kGroup; ++p) {
          acc[p] = fused_madd(x, c[p], acc[p]);
        }
      }
      for (std::size_t p = 0; p < kGroup; ++p) {
        lane[p] += static_cast<double>(acc[p]);
      }
    }
    for (std::size_t p = 0; p < kGroup; ++p) total[p] += lane[p];
  }
  std::copy(total, total + kGroup, out);
#endif
}

/// Batched dot_padded; `a` and `cols` are already widened to double.
void dot_group_double(const double* a, const double* cols,
                      std::size_t stride, double* out) {
#if FV_SIM_AVX512
  // Sixteen pairs are two 8-wide halves; each half keeps its 16 lanes in
  // registers.
  for (std::size_t half = 0; half < kGroup; half += 8) {
    __m512d acc[kLanes];
#pragma GCC unroll 16
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] = _mm512_setzero_pd();
    for (std::size_t k = 0; k < stride; k += kLanes) {
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kLanes; ++l) {
        acc[l] = _mm512_fmadd_pd(_mm512_set1_pd(a[k + l]),
                                 _mm512_loadu_pd(cols + (k + l) * kGroup + half),
                                 acc[l]);
      }
    }
    __m512d total = _mm512_setzero_pd();
#pragma GCC unroll 16
    for (std::size_t l = 0; l < kLanes; ++l) {
      total = _mm512_add_pd(total, acc[l]);
    }
    _mm512_storeu_pd(out + half, total);
  }
#else
  double total[kGroup] = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    double acc[kGroup] = {};
    for (std::size_t k = l; k < stride; k += kLanes) {
      const double* c = cols + k * kGroup;
      for (std::size_t p = 0; p < kGroup; ++p) {
        acc[p] = fused_madd(a[k], c[p], acc[p]);
      }
    }
    for (std::size_t p = 0; p < kGroup; ++p) total[p] += acc[p];
  }
  std::copy(total, total + kGroup, out);
#endif
}

#if FV_SIM_AVX512
/// Stores float(1 - s) for 8 pairs, s = std::clamp(r, -1, 1) (NaN passes
/// through), or s = 0 in the lanes set in `zero` — the end of
/// similarity_unchecked and distance_unchecked, lane by lane.
inline void store_distances(__m512d r, __mmask8 zero, float* out) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d minus_one = _mm512_set1_pd(-1.0);
  r = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(one, r, _CMP_LT_OQ), r, one);
  r = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(r, minus_one, _CMP_LT_OQ), r,
                           minus_one);
  r = _mm512_maskz_mov_pd(static_cast<__mmask8>(~zero), r);
  _mm256_storeu_ps(out, _mm512_cvtpd_ps(_mm512_sub_pd(one, r)));
}
#endif

/// float(1 - s) for the kGroup dense-pair dots, s = clamp(dot, -1, 1) or 0
/// where `zero` has bit p set (a degenerate row) — similarity_unchecked's
/// dense fast path and distance_unchecked's cast, pair by pair. GCC keeps
/// the portable loop's clamp and select as branches (under the default
/// -ftrapping-math it does not if-convert them), so it is not vectorized.
void dense_group_distances(const double* dots, std::uint32_t zero,
                           float* out) {
#if FV_SIM_AVX512
  for (std::size_t half = 0; half < kGroup; half += 8) {
    store_distances(_mm512_loadu_pd(dots + half),
                    static_cast<__mmask8>(zero >> half), out + half);
  }
#else
  for (std::size_t p = 0; p < kGroup; ++p) {
    const double s = (zero >> p & 1) != 0 ? 0.0 : std::clamp(dots[p], -1.0, 1.0);
    out[p] = static_cast<float>(1.0 - s);
  }
#endif
}

/// Packs `count` <= kGroup rows of `slab` (row r at slab + r * stride),
/// named by `rows`, transposed into `out` (stride x kGroup values): element
/// k of the p-th row lands at out[k * kGroup + p]. Columns past `count`
/// are zero, so a ragged group runs through the same kernel and its pad
/// results are simply never read.
template <typename T>
void pack_group(const float* slab, const std::uint32_t* rows,
                std::size_t count, std::size_t stride, T* out) {
  if (count < kGroup) std::fill(out, out + stride * kGroup, T{0});
  for (std::size_t p = 0; p < count; ++p) {
    const float* src = slab + static_cast<std::size_t>(rows[p]) * stride;
    for (std::size_t k = 0; k < stride; ++k) out[k * kGroup + p] = src[k];
  }
}

double squared_diff_padded(const float* a, const float* b,
                           std::size_t stride) {
  double acc[kLanes] = {};
  for (std::size_t k = 0; k < stride; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double diff =
          static_cast<double>(a[k + l]) - static_cast<double>(b[k + l]);
      acc[l] += diff * diff;
    }
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) total += acc[l];
  return total;
}

template <typename Sums>
double finish_centered(const Sums& s) {
  if (s.n < stats::kMinCompletePairs) return 0.0;
  const double n = static_cast<double>(s.n);
  const double cov = s.sum_ab - s.sum_a * s.sum_b / n;
  const double var_a = s.sum_aa - s.sum_a * s.sum_a / n;
  const double var_b = s.sum_bb - s.sum_b * s.sum_b / n;
  // Relative zero guard: the subtraction-based masked sums can leave a
  // ~1e-13 residue where the scalar reference computes an exact 0 variance
  // (constant-over-common-subset profiles). Purely relative to the row's
  // energy, so small-magnitude but genuinely varying profiles still
  // correlate (sum_aa >= var_a >= 0 always, making eps = 0 exactly when
  // the subset is all zeros).
  if (var_a <= 1e-12 * s.sum_aa || var_b <= 1e-12 * s.sum_bb) return 0.0;
  return std::clamp(cov / std::sqrt(var_a * var_b), -1.0, 1.0);
}

template <typename Sums>
double finish_uncentered(const Sums& s) {
  if (s.n < stats::kMinCompletePairs) return 0.0;
  if (s.sum_aa <= 0.0 || s.sum_bb <= 0.0) return 0.0;
  return std::clamp(s.sum_ab / std::sqrt(s.sum_aa * s.sum_bb), -1.0, 1.0);
}

}  // namespace

SimilarityEngine SimilarityEngine::from_rows(
    const expr::ExpressionMatrix& matrix, Metric metric,
    Precompute precompute, DenseKernel kernel) {
  SimilarityEngine engine;
  engine.build(matrix.data(), matrix.rows(), matrix.cols(), metric,
               precompute, kernel);
  return engine;
}

SimilarityEngine SimilarityEngine::from_columns(
    const expr::ExpressionMatrix& matrix, Metric metric) {
  // One transpose up front beats a column() allocation per profile fetch.
  return from_rows(matrix.transposed(), metric);
}

SimilarityEngine SimilarityEngine::from_profiles(std::span<const float> flat,
                                                 std::size_t count,
                                                 std::size_t length,
                                                 Metric metric,
                                                 Precompute precompute,
                                                 DenseKernel kernel) {
  FV_REQUIRE(flat.size() == count * length,
             "profile buffer size must be count * length");
  SimilarityEngine engine;
  engine.build(flat, count, length, metric, precompute, kernel);
  return engine;
}

void SimilarityEngine::build(std::span<const float> flat, std::size_t count,
                             std::size_t length, Metric metric,
                             Precompute precompute, DenseKernel kernel) {
  FV_REQUIRE(precompute == Precompute::kAllPairs ||
                 metric == Metric::kPearson ||
                 metric == Metric::kUncenteredPearson,
             "a dot bank requires a Pearson-family metric");
  metric_ = metric;
  precompute_ = precompute;
  count_ = count;
  length_ = length;
  stride_ = ((length + kLanes - 1) / kLanes) * kLanes;
  if (stride_ == 0) stride_ = kLanes;
  // The float kernel's error bound only holds for unit-norm inputs, so it
  // serves the correlation fast path; Euclidean rows are unnormalized and
  // always take the double kernel. The compensated block flush keeps the
  // bound inside the 1e-6 contract at any stride, so kAuto no longer
  // falls back on long rows.
  float_kernel_ = metric != Metric::kEuclidean &&
                  (kernel == DenseKernel::kFloat ||
                   kernel == DenseKernel::kAuto);
  mask_words_ = (length + 63) / 64;
  if (mask_words_ == 0) mask_words_ = 1;

  // A dot bank keeps only what dot_all-style scoring reads (normalized
  // rows + presence/zscale); the pairwise-only state below stays empty.
  const bool all_pairs = precompute == Precompute::kAllPairs;
  raw_.assign(metric == Metric::kSpearman ? count * stride_ : 0, 0.0f);
  filled_.assign(all_pairs ? count * stride_ : 0, 0.0f);
  mask_.assign(all_pairs ? count * mask_words_ : 0, 0);
  present_.assign(count, 0);
  has_missing_.assign(count, 0);
  degenerate_.assign(count, 0);
  zscale_.assign(count, 0.0f);
  own_sum_.assign(all_pairs ? count : 0, 0.0);
  own_sumsq_.assign(all_pairs ? count : 0, 0.0);
  missing_idx_.clear();
  missing_begin_.assign(all_pairs ? count + 1 : 0, 0);
  const bool correlation = metric != Metric::kEuclidean;
  normalized_.assign(correlation ? count * stride_ : 0, 0.0f);

  std::vector<double> ranks;  // scratch for Spearman
  for (std::size_t i = 0; i < count; ++i) {
    const float* src = flat.data() + i * length;
    float* raw = raw_.empty() ? nullptr : raw_.data() + i * stride_;
    float* filled = all_pairs ? filled_.data() + i * stride_ : nullptr;
    std::uint64_t* mask = all_pairs ? mask_.data() + i * mask_words_
                                    : nullptr;
    std::size_t present = 0;
    double own_sum = 0.0;
    double own_sumsq = 0.0;
    for (std::size_t k = 0; k < length; ++k) {
      if (raw != nullptr) raw[k] = src[k];
      if (stats::is_missing(src[k])) {
        if (all_pairs) missing_idx_.push_back(static_cast<std::uint32_t>(k));
        continue;
      }
      if (filled != nullptr) filled[k] = src[k];
      if (mask != nullptr) mask[k / 64] |= std::uint64_t{1} << (k % 64);
      ++present;
      own_sum += src[k];
      own_sumsq += static_cast<double>(src[k]) * src[k];
    }
    if (all_pairs) {
      missing_begin_[i + 1] = static_cast<std::uint32_t>(missing_idx_.size());
      own_sum_[i] = own_sum;
      own_sumsq_[i] = own_sumsq;
    }
    present_[i] = static_cast<std::uint32_t>(present);
    has_missing_[i] = present != length ? 1 : 0;
    if (!correlation) continue;

    float* norm_row = normalized_.data() + i * stride_;
    const bool center = metric != Metric::kUncenteredPearson;

    if (metric == Metric::kSpearman) {
      // Rank rows are only consulted on the dense fast path (both rows
      // complete); pairs with missing cells must re-rank the complete
      // subset per pair, which the masked path does via stats::spearman.
      if (has_missing_[i] != 0) continue;
      ranks = stats::midranks(std::span<const float>(src, length));
      double mean = 0.0;
      for (const double r : ranks) mean += r;
      mean = length > 0 ? mean / static_cast<double>(length) : 0.0;
      double sumsq = 0.0;
      for (const double r : ranks) sumsq += (r - mean) * (r - mean);
      if (length < stats::kMinCompletePairs || sumsq <= 0.0) {
        degenerate_[i] = 1;
        continue;
      }
      const double inv_norm = 1.0 / std::sqrt(sumsq);
      for (std::size_t k = 0; k < length; ++k) {
        norm_row[k] = static_cast<float>((ranks[k] - mean) * inv_norm);
      }
      continue;
    }

    // Pearson / uncentered: store (x - mean) / ||x - mean|| with missing
    // cells as 0 — the unit-norm form of the stats::ZProfile z-row. The
    // norm comes from a second centered pass rather than own_sumsq so
    // cancellation cannot inflate it.
    const double mean =
        center && present > 0 ? own_sum / static_cast<double>(present) : 0.0;
    double sumsq = 0.0;
    for (std::size_t k = 0; k < length; ++k) {
      if (stats::is_missing(src[k])) continue;
      const double d = static_cast<double>(src[k]) - mean;
      sumsq += d * d;
    }
    if (present < stats::kMinCompletePairs || sumsq <= 0.0) {
      degenerate_[i] = 1;
      continue;
    }
    const double inv_norm = 1.0 / std::sqrt(sumsq);
    for (std::size_t k = 0; k < length; ++k) {
      if (stats::is_missing(src[k])) continue;
      norm_row[k] =
          static_cast<float>((static_cast<double>(src[k]) - mean) * inv_norm);
    }
    if (present >= 2) {
      zscale_[i] =
          static_cast<float>(std::sqrt(static_cast<double>(present - 1)));
    }
  }

  // Blocked segment norms for the pruned top-k bound (correlation engines
  // that answer pairwise queries). Computed in double and inflated by one
  // part in 2^20 before the float store, so a stored norm can never round
  // below the true segment norm — the tile bound stays a proof. Rows with
  // missing cells get norms too, but the pruned path never consults them
  // (their pairwise-complete re-centering is unbounded by the full-row
  // norms, so blocks containing them are never pruned).
  if (correlation && all_pairs) {
    seg_count_ = stride_ / kBoundSegment;
    seg_norms_.assign(count * seg_count_, 0.0f);
    for (std::size_t i = 0; i < count; ++i) {
      const float* row = normalized_.data() + i * stride_;
      float* out = seg_norms_.data() + i * seg_count_;
      for (std::size_t s = 0; s < seg_count_; ++s) {
        double sumsq = 0.0;
        for (std::size_t k = 0; k < kBoundSegment; ++k) {
          const double v = row[s * kBoundSegment + k];
          sumsq += v * v;
        }
        out[s] = static_cast<float>(std::sqrt(sumsq) *
                                    (1.0 + std::ldexp(1.0, -20)));
      }
    }
    // How far the computed float distance can fall below the exact-
    // arithmetic Cauchy–Schwarz chain: kernel rounding (the float kernel's
    // block-flush bound when active, the double kernel's negligible one
    // otherwise) plus the double->float cast of 1 - dot (values <= 2, so
    // one ulp is 2^-23) plus margin for the double arithmetic of the bound
    // itself. Subtracted from every tile bound before the threshold test.
    const double kernel_error =
        float_kernel_
            ? static_cast<double>(std::min(stride_, kFloatFlushBlock) /
                                  kLanes) *
                  std::ldexp(1.0, -24)
            : static_cast<double>(stride_ / kLanes) * std::ldexp(1.0, -52);
    prune_slack_ =
        static_cast<float>(kernel_error + 4.0 * std::ldexp(1.0, -23));
  }
}

std::span<const float> SimilarityEngine::normalized_row(std::size_t i) const {
  FV_REQUIRE(i < count_, "profile index out of range");
  if (normalized_.empty()) return {};
  return {normalized_.data() + i * stride_, stride_};
}

std::span<const float> SimilarityEngine::filled_row(std::size_t i) const {
  FV_REQUIRE(i < count_, "profile index out of range");
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "filled_row() requires Precompute::kAllPairs");
  return {filled_.data() + i * stride_, stride_};
}

std::size_t SimilarityEngine::common_present(std::size_t i,
                                             std::size_t j) const {
  const std::uint64_t* ma = mask_.data() + i * mask_words_;
  const std::uint64_t* mb = mask_.data() + j * mask_words_;
  std::size_t n = 0;
  for (std::size_t w = 0; w < mask_words_; ++w) {
    n += static_cast<std::size_t>(std::popcount(ma[w] & mb[w]));
  }
  return n;
}

struct SimilarityEngine::PairSums {
  std::size_t n = 0;  ///< common present cells
  double sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
};

double SimilarityEngine::masked_similarity(std::size_t i, std::size_t j) const {
  if (metric_ == Metric::kSpearman) {
    // Ranks depend on the pairwise-complete subset, so each pair must be
    // re-ranked; the scalar kernel (on the NaN-preserving rows) is the
    // only exact option here.
    return stats::spearman({raw_.data() + i * stride_, length_},
                           {raw_.data() + j * stride_, length_});
  }
  // Pairwise-complete sums = each row's own sums minus the cells the other
  // row is missing: one vectorized dot over the zero-filled rows plus
  // O(#missing) scalar corrections, instead of a branch per element.
  PairSums s = pair_sums(i, j);
  if (s.n < stats::kMinCompletePairs) return 0.0;
  s.sum_ab = dot_padded(filled_.data() + i * stride_,
                        filled_.data() + j * stride_, stride_);
  return metric_ == Metric::kPearson ? finish_centered(s)
                                     : finish_uncentered(s);
}

SimilarityEngine::PairSums SimilarityEngine::pair_sums(std::size_t i,
                                                      std::size_t j) const {
  // All reads below hit present cells only, where filled_ == the input.
  const float* a = filled_.data() + i * stride_;
  const float* b = filled_.data() + j * stride_;
  PairSums s;
  s.n = common_present(i, j);
  s.sum_a = own_sum_[i];
  s.sum_aa = own_sumsq_[i];
  for (std::uint32_t m = missing_begin_[j]; m < missing_begin_[j + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (!present_at(i, k)) continue;
    s.sum_a -= a[k];
    const double x = a[k];
    s.sum_aa = fused_madd(-x, x, s.sum_aa);
  }
  s.sum_b = own_sum_[j];
  s.sum_bb = own_sumsq_[j];
  for (std::uint32_t m = missing_begin_[i]; m < missing_begin_[i + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (!present_at(j, k)) continue;
    s.sum_b -= b[k];
    const double x = b[k];
    s.sum_bb = fused_madd(-x, x, s.sum_bb);
  }
  return s;
}

double SimilarityEngine::similarity(std::size_t i, std::size_t j) const {
  FV_REQUIRE(metric_ != Metric::kEuclidean,
             "similarity() requires a correlation metric");
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "similarity() requires Precompute::kAllPairs");
  FV_REQUIRE(i < count_ && j < count_, "profile index out of range");
  return similarity_unchecked(i, j);
}

double SimilarityEngine::similarity_unchecked(std::size_t i,
                                              std::size_t j) const {
  if (has_missing_[i] != 0 || has_missing_[j] != 0) {
    return masked_similarity(i, j);
  }
  if (degenerate_[i] != 0 || degenerate_[j] != 0) return 0.0;
  const float* a = normalized_.data() + i * stride_;
  const float* b = normalized_.data() + j * stride_;
  const double dot = float_kernel_ ? dot_padded_float(a, b, stride_)
                                   : dot_padded(a, b, stride_);
  return std::clamp(dot, -1.0, 1.0);
}

float SimilarityEngine::euclidean_distance(std::size_t i,
                                           std::size_t j) const {
  // filled_ equals the input at every present cell, which is all either
  // path below reads.
  const float* a = filled_.data() + i * stride_;
  const float* b = filled_.data() + j * stride_;
  if (has_missing_[i] == 0 && has_missing_[j] == 0) {
    // Padding is 0 on both sides, so the tail contributes nothing.
    return static_cast<float>(std::sqrt(squared_diff_padded(a, b, stride_)));
  }
  const std::size_t pairs = common_present(i, j);
  if (pairs == 0) return 0.0f;
  // Over the zero-filled rows, a cell missing on exactly one side leaks its
  // present value squared into the diff sum; subtract those back out.
  double sum = squared_diff_padded(a, b, stride_);
  for (std::uint32_t m = missing_begin_[j]; m < missing_begin_[j + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (present_at(i, k)) sum -= static_cast<double>(a[k]) * a[k];
  }
  for (std::uint32_t m = missing_begin_[i]; m < missing_begin_[i + 1]; ++m) {
    const std::size_t k = missing_idx_[m];
    if (present_at(j, k)) sum -= static_cast<double>(b[k]) * b[k];
  }
  sum = std::max(sum, 0.0);
  // Coverage scaling, as in cluster::profile_distance (Cluster 3.0).
  return static_cast<float>(std::sqrt(sum * static_cast<double>(length_) /
                                      static_cast<double>(pairs)));
}

float SimilarityEngine::distance(std::size_t i, std::size_t j) const {
  FV_REQUIRE(i < count_ && j < count_, "profile index out of range");
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "distance() requires Precompute::kAllPairs");
  return distance_unchecked(i, j);
}

float SimilarityEngine::distance_unchecked(std::size_t i,
                                           std::size_t j) const {
  if (metric_ == Metric::kEuclidean) return euclidean_distance(i, j);
  return static_cast<float>(1.0 - similarity_unchecked(i, j));
}

struct SimilarityEngine::TileScratch {
  std::vector<float> values = std::vector<float>(kTile * kTile);

  /// The tile's columns regrouped by compute_tile: the dense columns, then
  /// the masked ones, each ascending, cut into groups of <= kGroup so no
  /// group mixes the two.
  std::uint32_t cols[kTile] = {};
  struct Group {
    std::size_t begin = 0, size = 0;  ///< cols[begin, begin + size)
    bool dense = false;
    std::uint32_t degenerate = 0;  ///< bit p: column p is degenerate
    /// What the batched masked sums read per column (zero past size):
    /// the columns' own sums and the run of `missing` listing, in
    /// ascending k, the cells some column of the group lacks.
    double sum[kGroup] = {}, sumsq[kGroup] = {};
    std::size_t missing_begin = 0, missing_end = 0;
  };
  Group groups[kTile / kGroup + 1];
  std::size_t group_count = 0;
  /// (k, bits) runs of the groups: bit p set when column p lacks cell k.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> missing;
  std::vector<std::uint32_t> missing_bits;  ///< stride-long staging

  /// Packed groups (pack_group layout), stride * kGroup values per group:
  /// normalized rows of the dense groups for the float or the double
  /// kernel, and filled rows of the groups that meet masked pairs.
  std::vector<float> packed_norm;
  std::vector<double> packed_norm_wide;
  std::vector<double> packed_filled;
  /// The current tile row's normalized and filled rows widened to double.
  std::vector<double> wide_norm, wide_filled;

  class Pool;
};

/// Scratch-block pool for tile streaming: at most one block per concurrent
/// visitor invocation is ever live (blocks are returned after each tile),
/// so the distance phase of a streaming consumer peaks at
/// O(threads * (kTile² + kTile * stride)) floats of transient state, never
/// O(n²). The lock is taken twice per tile — noise next to the tile's 4096
/// pairs.
class SimilarityEngine::TileScratch::Pool {
 public:
  TileScratch acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        TileScratch block = std::move(free_.back());
        free_.pop_back();
        return block;
      }
    }
    return TileScratch{};
  }
  void release(TileScratch block) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(block));
  }

 private:
  std::mutex mutex_;
  std::vector<TileScratch> free_;
};

std::size_t SimilarityEngine::tile_count() const noexcept {
  const std::size_t tiles = (count_ + kTile - 1) / kTile;
  return tiles * (tiles + 1) / 2;
}

void SimilarityEngine::compute_tile(std::size_t t, TileScratch& scratch,
                                    DistanceTile& tile) const {
  const std::size_t n = count_;
  const std::size_t tiles = (n + kTile - 1) / kTile;
  // Recover (ta, tb) from the linearized upper-triangle schedule position.
  std::size_t ta = 0;
  std::size_t base = 0;
  while (base + (tiles - ta) <= t) {
    base += tiles - ta;
    ++ta;
  }
  const std::size_t tb = ta + (t - base);
  const bool diagonal = ta == tb;

  tile.index = t;
  tile.row_begin = ta * kTile;
  tile.row_end = std::min<std::size_t>(n, (ta + 1) * kTile);
  tile.col_begin = tb * kTile;
  tile.col_end = std::min<std::size_t>(n, (tb + 1) * kTile);
  tile.ld = tile.col_end - tile.col_begin;
  float* values = scratch.values.data();
  tile.values = values;
  if (diagonal) {
    // Diagonal tile: only j > i is meaningful; zero the rest so reused
    // scratch blocks never leak another tile's values.
    std::fill(values, values + (tile.row_end - tile.row_begin) * tile.ld,
              0.0f);
  }
  if (metric_ == Metric::kEuclidean) {
    // Euclidean stays on the scalar path: its pairs are a double
    // squared-difference sum, not a dot over packed columns.
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      float* row = values + (i - tile.row_begin) * tile.ld;
      for (std::size_t j = diagonal ? i + 1 : tile.col_begin;
           j < tile.col_end; ++j) {
        row[j - tile.col_begin] = distance_unchecked(i, j);
      }
    }
    return;
  }

  // A dense row meets a dense group through the normalized-row kernel;
  // every other pair needs the filled-row dot sum_ab. Spearman re-ranks
  // its masked pairs on the scalar path instead (its ranks depend on the
  // pairwise-complete subset), so it never needs sum_ab.
  std::uint32_t* cols = scratch.cols;
  std::size_t dense = 0;
  for (std::size_t j = tile.col_begin; j < tile.col_end; ++j) {
    if (has_missing_[j] == 0) cols[dense++] = static_cast<std::uint32_t>(j);
  }
  std::size_t count = dense;
  for (std::size_t j = tile.col_begin; j < tile.col_end; ++j) {
    if (has_missing_[j] != 0) cols[count++] = static_cast<std::uint32_t>(j);
  }
  bool masked_rows = false;
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    masked_rows = masked_rows || has_missing_[i] != 0;
  }
  const bool batched_sums = metric_ != Metric::kSpearman;
  const std::size_t group_size = stride_ * kGroup;
  const std::size_t packed_size = std::size(scratch.groups) * group_size;
  if (float_kernel_) {
    scratch.packed_norm.resize(packed_size);
  } else {
    scratch.packed_norm_wide.resize(packed_size);
  }
  if (batched_sums) scratch.packed_filled.resize(packed_size);
  scratch.group_count = 0;
#if FV_SIM_AVX512
  scratch.missing.clear();
  scratch.missing_bits.assign(stride_, 0);
#endif
  for (std::size_t begin = 0; begin < count;) {
    TileScratch::Group& group = scratch.groups[scratch.group_count++];
    group.begin = begin;
    group.dense = begin < dense;
    group.size = std::min(kGroup, (group.dense ? dense : count) - begin);
    begin += group.size;
    const std::uint32_t* members = cols + group.begin;
    const std::size_t slot = &group - scratch.groups;
    if (group.dense) {
      group.degenerate = 0;
      for (std::size_t p = 0; p < group.size; ++p) {
        if (degenerate_[members[p]] != 0) group.degenerate |= 1u << p;
      }
      if (float_kernel_) {
        pack_group(normalized_.data(), members, group.size, stride_,
                   scratch.packed_norm.data() + slot * group_size);
      } else {
        pack_group(normalized_.data(), members, group.size, stride_,
                   scratch.packed_norm_wide.data() + slot * group_size);
      }
    }
    // Dense columns meet the filled-row kernel only through masked rows.
    if (!batched_sums || (group.dense && !masked_rows)) continue;
    pack_group(filled_.data(), members, group.size, stride_,
               scratch.packed_filled.data() + slot * group_size);
#if FV_SIM_AVX512
    std::fill(group.sum, group.sum + kGroup, 0.0);
    std::fill(group.sumsq, group.sumsq + kGroup, 0.0);
    std::uint32_t lo = static_cast<std::uint32_t>(stride_), hi = 0;
    for (std::size_t p = 0; p < group.size; ++p) {
      const std::size_t j = members[p];
      group.sum[p] = own_sum_[j];
      group.sumsq[p] = own_sumsq_[j];
      for (std::uint32_t m = missing_begin_[j]; m < missing_begin_[j + 1];
           ++m) {
        const std::uint32_t k = missing_idx_[m];
        scratch.missing_bits[k] |= 1u << p;
        lo = std::min(lo, k);
        hi = std::max(hi, k + 1);
      }
    }
    group.missing_begin = scratch.missing.size();
    for (std::uint32_t k = lo; k < hi; ++k) {
      if (scratch.missing_bits[k] == 0) continue;
      scratch.missing.emplace_back(k, scratch.missing_bits[k]);
      scratch.missing_bits[k] = 0;
    }
    group.missing_end = scratch.missing.size();
#endif
  }

  scratch.wide_norm.resize(stride_);
  scratch.wide_filled.resize(stride_);
  double dots[kGroup];
  float dist[kGroup];
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    float* row = values + (i - tile.row_begin) * tile.ld;
    const bool i_masked = has_missing_[i] != 0;
    // The double kernels read row i widened once per tile row.
    if (!float_kernel_ && !i_masked) {
      const float* src = normalized_.data() + i * stride_;
      std::copy(src, src + stride_, scratch.wide_norm.begin());
    }
    if (batched_sums && (i_masked || count > dense)) {
      const float* src = filled_.data() + i * stride_;
      std::copy(src, src + stride_, scratch.wide_filled.begin());
    }
    for (std::size_t g = 0; g < scratch.group_count; ++g) {
      const TileScratch::Group& group = scratch.groups[g];
      const std::uint32_t* members = cols + group.begin;
      // Columns ascend within a group: nothing above the diagonal here.
      if (diagonal && members[group.size - 1] <= i) continue;
      if (!i_masked && group.dense) {
        // Dense x dense: similarity_unchecked's fast path, kGroup at once.
        if (float_kernel_) {
          dot_group_float(normalized_.data() + i * stride_,
                          scratch.packed_norm.data() + g * group_size,
                          stride_, dots);
        } else {
          dot_group_double(scratch.wide_norm.data(),
                           scratch.packed_norm_wide.data() + g * group_size,
                           stride_, dots);
        }
        dense_group_distances(
            dots, degenerate_[i] != 0 ? ~std::uint32_t{0} : group.degenerate,
            dist);
      } else if (batched_sums) {
        // A masked row or column: masked_similarity with its sum_ab dot
        // and its finish batched.
        dot_group_double(scratch.wide_filled.data(),
                         scratch.packed_filled.data() + g * group_size,
                         stride_, dots);
        masked_group_distances(i, scratch, g, dots, dist);
      } else {
        for (std::size_t p = 0; p < group.size; ++p) {
          dist[p] = !diagonal || members[p] > i
                        ? distance_unchecked(i, members[p])
                        : 0.0f;
        }
      }
      for (std::size_t p = 0; p < group.size; ++p) {
        if (!diagonal || members[p] > i) {
          row[members[p] - tile.col_begin] = dist[p];
        }
      }
    }
  }
}

void SimilarityEngine::masked_group_distances(std::size_t i,
                                              const TileScratch& scratch,
                                              std::size_t g,
                                              const double* sum_ab,
                                              float* out) const {
  const TileScratch::Group& group = scratch.groups[g];
  const bool centered = metric_ == Metric::kPearson;
#if FV_SIM_AVX512
  // pair_sums + finish_centered / finish_uncentered for 8 pairs per
  // vector, operation for operation:
  //  * sum_a/sum_aa start at row i's own sums and, for each cell k some
  //    column lacks (ascending, as pair_sums walks the column's missing
  //    list), drop i's value in exactly the lanes whose column lacks k —
  //    when i has k; n starts at present(i) and drops 1 there, which is
  //    common_present's count;
  //  * sum_b/sum_bb start at the columns' own sums and, for each cell i
  //    lacks, drop the columns' filled values in every lane: a column
  //    that lacks the cell too holds a filled 0, and x - 0 and
  //    fma(-0, 0, x) are exactly x, so those lanes are unchanged just as
  //    pair_sums skips them;
  //  * the finish is correctly rounded sub/mul/div/sqrt and exact
  //    comparisons in the scalar order, its early returns a zero mask.
  // Pad lanes past group.size hold n = 0 and are never read.
  const double* filled_i = scratch.wide_filled.data();
  const double* packed = scratch.packed_filled.data() + g * stride_ * kGroup;
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t half = 0; half < kGroup; half += 8) {
    __m512d n = _mm512_set1_pd(static_cast<double>(present_[i]));
    __m512d sa = _mm512_set1_pd(own_sum_[i]);
    __m512d saa = _mm512_set1_pd(own_sumsq_[i]);
    for (std::size_t m = group.missing_begin; m < group.missing_end; ++m) {
      const auto [k, bits] = scratch.missing[m];
      if (!present_at(i, k)) continue;
      const __mmask8 lanes = static_cast<__mmask8>(bits >> half);
      const __m512d x = _mm512_set1_pd(filled_i[k]);
      n = _mm512_mask_sub_pd(n, lanes, n, one);
      sa = _mm512_mask_sub_pd(sa, lanes, sa, x);
      saa = _mm512_mask3_fnmadd_pd(x, x, saa, lanes);
    }
    __m512d sb = _mm512_loadu_pd(group.sum + half);
    __m512d sbb = _mm512_loadu_pd(group.sumsq + half);
    for (std::uint32_t m = missing_begin_[i]; m < missing_begin_[i + 1]; ++m) {
      const __m512d y =
          _mm512_loadu_pd(packed + missing_idx_[m] * kGroup + half);
      sb = _mm512_sub_pd(sb, y);
      sbb = _mm512_fnmadd_pd(y, y, sbb);
    }
    if (group.size <= half) n = zero;
    const __m512d sab = _mm512_loadu_pd(sum_ab + half);
    __mmask8 is_zero = _mm512_cmp_pd_mask(
        n, _mm512_set1_pd(static_cast<double>(stats::kMinCompletePairs)),
        _CMP_LT_OQ);
    __m512d r;
    if (centered) {
      const __m512d cov =
          _mm512_sub_pd(sab, _mm512_div_pd(_mm512_mul_pd(sa, sb), n));
      const __m512d var_a =
          _mm512_sub_pd(saa, _mm512_div_pd(_mm512_mul_pd(sa, sa), n));
      const __m512d var_b =
          _mm512_sub_pd(sbb, _mm512_div_pd(_mm512_mul_pd(sb, sb), n));
      const __m512d eps = _mm512_set1_pd(1e-12);
      is_zero |= _mm512_cmp_pd_mask(var_a, _mm512_mul_pd(eps, saa),
                                    _CMP_LE_OQ) |
                 _mm512_cmp_pd_mask(var_b, _mm512_mul_pd(eps, sbb),
                                    _CMP_LE_OQ);
      r = _mm512_div_pd(cov, _mm512_sqrt_pd(_mm512_mul_pd(var_a, var_b)));
    } else {
      is_zero |= _mm512_cmp_pd_mask(saa, zero, _CMP_LE_OQ) |
                 _mm512_cmp_pd_mask(sbb, zero, _CMP_LE_OQ);
      r = _mm512_div_pd(sab, _mm512_sqrt_pd(_mm512_mul_pd(saa, sbb)));
    }
    store_distances(r, is_zero, out + half);
  }
#else
  for (std::size_t p = 0; p < group.size; ++p) {
    PairSums s = pair_sums(i, scratch.cols[group.begin + p]);
    s.sum_ab = sum_ab[p];
    const double r = centered ? finish_centered(s) : finish_uncentered(s);
    out[p] = static_cast<float>(1.0 - r);
  }
#endif
}

void SimilarityEngine::release_row_pages(std::size_t begin,
                                         std::size_t end) const {
  if (pin_ == nullptr || end <= begin) return;
  // Only the count x stride slabs matter for residency: everything else
  // (masks, CSR lists, per-row scalars) is a few bytes per row and churning
  // madvise on it would cost more than the pages hold.
  const std::size_t bytes = (end - begin) * stride_ * sizeof(float);
  if (!normalized_.empty()) {
    pin_->release_pages(normalized_.data() + begin * stride_, bytes);
  }
  if (!filled_.empty()) {
    pin_->release_pages(filled_.data() + begin * stride_, bytes);
  }
  if (!raw_.empty()) {
    pin_->release_pages(raw_.data() + begin * stride_, bytes);
  }
}

void SimilarityEngine::for_each_tile(
    const std::function<void(const DistanceTile&)>& visit,
    par::ThreadPool& pool) const {
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "for_each_tile() requires Precompute::kAllPairs");
  if (count_ < 2) return;
  // One backing check for the whole phase: the pooled path keeps no page
  // cursor (workers touch tiles in pull order), so pages stay resident
  // until the phase ends — residency streaming is the SERIAL driver's job.
  check_backing();
  TileScratch::Pool scratch;
  par::parallel_dynamic(pool, 0, tile_count(), [&](std::size_t t) {
    TileScratch block = scratch.acquire();
    DistanceTile tile;
    compute_tile(t, block, tile);
    visit(tile);
    scratch.release(std::move(block));
  });
}

void SimilarityEngine::for_each_tile(
    const std::function<void(const DistanceTile&)>& visit) const {
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "for_each_tile() requires Precompute::kAllPairs");
  if (count_ < 2) return;
  TileScratch block;
  // The same linear schedule positions t = 0, 1, 2, … the pooled driver
  // uses, walked as explicit row stripes (ta fixed, tb ascending) so a
  // borrowed-mapped engine can stream: rows enter the resident set when
  // the cursor reaches them and leave right after their last pair in the
  // stripe. Visit order — and therefore every visitor's reduction order —
  // is identical to the plain `for t` loop this replaces.
  const std::size_t blocks = (count_ + kTile - 1) / kTile;
  std::size_t t = 0;
  for (std::size_t ta = 0; ta < blocks; ++ta) {
    // Per-stripe, not per-phase: a stripe is the unit after which pages
    // are dropped, so each stripe re-proves the file still backs the
    // pages it is about to fault in (typed error, never SIGBUS).
    check_backing();
    for (std::size_t tb = ta; tb < blocks; ++tb, ++t) {
      DistanceTile tile;
      compute_tile(t, block, tile);
      visit(tile);
      // The column block's rows are done for THIS stripe; later stripes
      // refault them from the page cache on demand. Keeping the diagonal
      // block resident across its own stripe avoids thrashing the rows
      // every inner tile reads.
      if (tb != ta) release_row_pages(tile.col_begin, tile.col_end);
    }
    release_row_pages(ta * kTile, std::min(count_, (ta + 1) * kTile));
  }
}

void SimilarityEngine::all_distances(std::span<float> out,
                                     par::ThreadPool& pool) const {
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == n * n, "output must be size() x size()");
  if (n == 0) return;

  // Trivial tile visitor: mirror each tile into both triangles of the
  // dense layout. Tiles cover disjoint (i, j) ranges, so writes never race.
  float* d = out.data();
  for_each_tile(
      [&](const DistanceTile& tile) {
        for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
          const std::size_t j_first =
              std::max(tile.col_begin, i + 1);
          for (std::size_t j = j_first; j < tile.col_end; ++j) {
            const float dist = tile.at(i, j);
            d[i * n + j] = dist;
            d[j * n + i] = dist;
          }
        }
      },
      pool);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0.0f;
}

namespace {

/// Shared condensed-layout tile visitor: each (i, j) pair lands exactly
/// once at its condensed offset, through `transform`. Within one row
/// segment the condensed indices are contiguous (offset(i, j+1) =
/// offset(i, j) + 1), so the inner loop is a linear store stream; distinct
/// tiles cover disjoint (i, j-range) segments, so writes never race.
template <typename Transform>
auto condensed_tile_writer(float* d, std::size_t n, Transform transform) {
  return [d, n, transform](const DistanceTile& tile) {
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      const std::size_t j_first = std::max(tile.col_begin, i + 1);
      if (j_first >= tile.col_end) continue;
      // row[j - j_first] is pair (i, j)'s condensed cell; the base stays
      // inside the buffer so the pointer arithmetic is defined
      // (UBSan-clean) even for the first row segment.
      float* row = d + condensed_index(i, j_first, n);
      for (std::size_t j = j_first; j < tile.col_end; ++j) {
        row[j - j_first] = transform(tile.at(i, j));
      }
    }
  };
}

}  // namespace

void SimilarityEngine::condensed_distances(std::span<float> out,
                                           par::ThreadPool& pool) const {
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == condensed_size(n),
             "output must hold condensed_size(size()) values");
  if (n < 2) return;
  for_each_tile(
      condensed_tile_writer(out.data(), n, [](float d) { return d; }), pool);
}

void SimilarityEngine::condensed_distances(std::span<float> out) const {
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == condensed_size(n),
             "output must hold condensed_size(size()) values");
  if (n < 2) return;
  for_each_tile(
      condensed_tile_writer(out.data(), n, [](float d) { return d; }));
}

void SimilarityEngine::condensed_squared_distances(
    std::span<float> out, par::ThreadPool& pool) const {
  FV_REQUIRE(metric_ == Metric::kEuclidean,
             "condensed_squared_distances() squares Euclidean distances; "
             "correlation metrics have no squared-distance form");
  const std::size_t n = count_;
  FV_REQUIRE(out.size() == condensed_size(n),
             "output must hold condensed_size(size()) values");
  if (n < 2) return;
  // Same writer with each cell squared on the way out — the cheapest point
  // to square is the already-L1-resident tile.
  for_each_tile(
      condensed_tile_writer(out.data(), n, [](float d) { return d * d; }),
      pool);
}

namespace {

/// One nearest-neighbor candidate in a bounded per-row heap. Ordered
/// lexicographically by (distance, index): the global top-k under this
/// total order is what top_k_neighbors returns, which makes results
/// deterministic under any thread schedule (every global top-k entry is
/// among the k (distance, index)-smallest of whichever slot saw it, so the
/// union of slot heaps always contains the true top-k).
struct NeighborEntry {
  float d = 0.0f;
  std::uint32_t idx = 0;
  bool operator<(const NeighborEntry& o) const {
    return d != o.d ? d < o.d : idx < o.idx;
  }
};

/// Per-thread top-k state: n bounded max-heaps in one slab. Slots are
/// checked out per tile visit, so at most pool.thread_count() exist.
class TopKSlot {
 public:
  TopKSlot(std::size_t n, std::size_t k) : k_(k), heap_(n * k), size_(n, 0) {}

  /// Largest distance push() may still accept for `row`: the heap top's
  /// once the heap is full (an equal distance can still enter on a
  /// smaller index), +inf before that.
  float threshold(std::size_t row) const {
    return size_[row] == k_ ? heap_[row * k_].d
                            : std::numeric_limits<float>::infinity();
  }

  void push(std::size_t row, NeighborEntry e) {
    NeighborEntry* base = heap_.data() + row * k_;
    std::uint32_t& s = size_[row];
    if (s < k_) {
      base[s++] = e;
      std::push_heap(base, base + s);
    } else if (e < base[0]) {
      std::pop_heap(base, base + k_);
      base[k_ - 1] = e;
      std::push_heap(base, base + k_);
    }
  }

  std::span<const NeighborEntry> entries(std::size_t row) const {
    return {heap_.data() + row * k_, size_[row]};
  }

 private:
  std::size_t k_;
  std::vector<NeighborEntry> heap_;  ///< n x k slab
  std::vector<std::uint32_t> size_;  ///< live entries per row
};

/// Bit c set when tile value d[c] (c < count <= kGroup) is not above
/// `row_threshold` or not above col_threshold[c]: the pairs that might
/// enter row i's or column c's top-k. Every other pair has k smaller
/// entries on both sides already. NaN compares not-above and is pushed.
std::uint32_t heap_candidates(const float* d, const float* col_threshold,
                              float row_threshold, std::size_t count) {
  // Bitwise | rather than a short-circuit, so the loop has no branch and
  // vectorizes.
  std::uint32_t live = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const bool keep = !(d[c] > row_threshold) | !(d[c] > col_threshold[c]);
    live |= static_cast<std::uint32_t>(keep) << c;
  }
  return live;
}

/// Monotone-decreasing publish of a row's heap threshold. Stale (larger)
/// values only cost prunes, never correctness, so relaxed order suffices.
void publish_min(std::atomic<float>& slot, float value) {
  float current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

NeighborTable SimilarityEngine::top_k_neighbors(std::size_t k,
                                                par::ThreadPool& pool,
                                                std::size_t min_common,
                                                TopKStrategy strategy,
                                                TopKStats* stats,
                                                const LshParams& lsh,
                                                const LshIndex* lsh_index)
    const {
  FV_REQUIRE(precompute_ == Precompute::kAllPairs,
             "top_k_neighbors() requires Precompute::kAllPairs");
  FV_REQUIRE(k >= 1, "top_k_neighbors() needs k >= 1");
  FV_REQUIRE(
      strategy != TopKStrategy::kPruned || metric_ != Metric::kEuclidean,
      "TopKStrategy::kPruned needs a correlation metric — Euclidean rows "
      "are unnormalized, so the Cauchy–Schwarz norm bound does not exist; "
      "use kAuto (which falls back to kExact) instead");
  FV_REQUIRE(
      strategy != TopKStrategy::kApprox || metric_ != Metric::kEuclidean,
      "TopKStrategy::kApprox needs a correlation metric — hyperplane "
      "signatures estimate the angle, which is not the Euclidean metric; "
      "use kAuto (which falls back to kExact) instead");
  if (strategy == TopKStrategy::kAuto) {
    strategy = metric_ == Metric::kEuclidean ? TopKStrategy::kExact
                                             : TopKStrategy::kPruned;
  }
  // The pruned and kApprox phases below run their own schedules (they do
  // not pass through for_each_tile), so prove the mapped backing is intact
  // once here before any of them walks unfaulted pages.
  check_backing();
  const std::size_t n = count_;
  NeighborTable table;
  table.count = n;
  table.k = n > 0 ? std::min(k, n - 1) : 0;
  table.valid.assign(n, 0);
  if (stats != nullptr) *stats = TopKStats{};
  if (n < 2 || table.k == 0) return table;
  // k >= n-1 asks for EVERY neighbor of every row — a candidate stage can
  // only lose recall there, never work. Fall back honestly to the exact
  // path (stats report it: signatures_built stays 0).
  if (strategy == TopKStrategy::kApprox && table.k == n - 1) {
    strategy = TopKStrategy::kExact;
  }
  const std::size_t kk = table.k;
  table.indices.assign(n * kk, 0);
  table.distances.assign(n * kk, 0.0f);

  // Slot checkout mirrors the scratch-block pool: one slot per concurrent
  // visitor, so peak state is O(threads * n * k) — for the single-threaded
  // CI host exactly one slot plus the merged table.
  std::mutex slots_mutex;
  std::vector<std::unique_ptr<TopKSlot>> slots;
  std::vector<TopKSlot*> free_slots;
  const auto acquire = [&]() -> TopKSlot* {
    {
      const std::lock_guard<std::mutex> lock(slots_mutex);
      if (!free_slots.empty()) {
        TopKSlot* slot = free_slots.back();
        free_slots.pop_back();
        return slot;
      }
    }
    auto fresh = std::make_unique<TopKSlot>(n, kk);
    TopKSlot* raw = fresh.get();
    const std::lock_guard<std::mutex> lock(slots_mutex);
    slots.push_back(std::move(fresh));
    return raw;
  };
  const auto release = [&](TopKSlot* slot) {
    const std::lock_guard<std::mutex> lock(slots_mutex);
    free_slots.push_back(slot);
  };

  // Pushes every pair of one computed tile that can still enter a heap
  // into the slot. Shared verbatim by both tile strategies, so they cannot
  // drift. Each 16-value run of a tile row is first compared against the
  // row's heap threshold and the columns' ones (heap_candidates); only
  // survivors pay min_common and push(). Cached column thresholds go stale
  // as pushes lower them, which only lets extra pairs through to push().
  const auto consume_tile = [&](const DistanceTile& tile, TopKSlot& slot) {
    const std::size_t width = tile.col_end - tile.col_begin;
    float col_threshold[kTile];
    for (std::size_t c = 0; c < width; ++c) {
      col_threshold[c] = slot.threshold(tile.col_begin + c);
    }
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      const float* d = tile.values + (i - tile.row_begin) * tile.ld;
      const bool i_missing = has_missing_[i] != 0;
      float row_threshold = slot.threshold(i);
      for (std::size_t c0 = std::max(tile.col_begin, i + 1) - tile.col_begin;
           c0 < width; c0 += kGroup) {
        std::uint32_t live =
            heap_candidates(d + c0, col_threshold + c0, row_threshold,
                            std::min(kGroup, width - c0));
        for (; live != 0; live &= live - 1) {
          const std::size_t c = c0 + std::countr_zero(live);
          const std::size_t j = tile.col_begin + c;
          if (min_common > 0) {
            // Dense pairs share all length() cells; only pairs touching a
            // masked row pay the popcount.
            const std::size_t common =
                i_missing || has_missing_[j] != 0 ? common_present(i, j)
                                                  : length_;
            if (common < min_common) continue;
          }
          const float dist = d[c];
          if (!(dist > row_threshold)) {
            slot.push(i, {dist, static_cast<std::uint32_t>(j)});
            row_threshold = slot.threshold(i);
          }
          if (!(dist > col_threshold[c])) {
            slot.push(j, {dist, static_cast<std::uint32_t>(i)});
            col_threshold[c] = slot.threshold(j);
          }
        }
      }
    }
  };

  std::vector<float> block_max;
  std::vector<std::uint8_t> block_prunable;
  if (strategy == TopKStrategy::kPruned) {
    // --- Norm-bound tile pruning ------------------------------------
    // Per 64-row block: the segment-wise max norms of its rows (an
    // envelope) and whether every row is dense. For blocks A, B the dot
    // of any cross pair (i in A, j in B) obeys
    //   dot(a_i, a_j) <= Σ_s ||a_i[s]||·||a_j[s]||   (Cauchy–Schwarz per
    //                                                 segment)
    //                 <= Σ_s amax[s]·bmax[s]          (the envelope),
    // so every pair distance in tile (A, B) is at least
    // 1 - Σ_s amax[s]·bmax[s] - slack, where the slack covers kernel and
    // cast rounding (see build()). A tile whose bound strictly beats the
    // published heap threshold of every row it touches cannot contribute
    // a single heap entry and is skipped whole.
    const std::size_t blocks = (n + kTile - 1) / kTile;
    block_max.assign(blocks * seg_count_, 0.0f);
    block_prunable.assign(blocks, 1);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t row_end = std::min(n, (b + 1) * kTile);
      float* bmax = block_max.data() + b * seg_count_;
      for (std::size_t i = b * kTile; i < row_end; ++i) {
        if (has_missing_[i] != 0) {
          // A masked pair's correlation re-centers over the pairwise-
          // complete subset; no full-row norm bounds it. Every tile
          // touching this block computes exactly.
          block_prunable[b] = 0;
          break;
        }
        const float* sn = seg_norms_.data() + i * seg_count_;
        for (std::size_t s = 0; s < seg_count_; ++s) {
          bmax[s] = std::max(bmax[s], sn[s]);
        }
      }
    }

    // Without a single prunable block no tile bound is ever checked,
    // so the diagonal order, the shared thresholds and the per-tile
    // publishing below would be pure overhead: the exact driver
    // returns the same table and the same statistics.
    if (std::find(block_prunable.begin(), block_prunable.end(), 1) ==
        block_prunable.end()) {
      strategy = TopKStrategy::kExact;
    }
  }

  if (strategy == TopKStrategy::kApprox) {
    // --- LSH candidates + exact rescoring ---------------------------
    // The signature layer proposes pairs; everything REPORTED still goes
    // through distance_unchecked — the same call, in the same (i < j)
    // orientation, the tile path makes — so returned distances are
    // bit-identical to kExact and only recall is approximate. min_common
    // is enforced here, at rescoring, never in the candidate stage:
    // signatures know nothing about masks, so filtering there would
    // silently change which pairs even get considered.
    // A caller-supplied prebuilt index (warm-reopened from the artifact
    // store) skips the signature build — the dominant cost of this path.
    FV_REQUIRE(lsh_index == nullptr || lsh_index->size() == n,
               "prebuilt LSH index covers a different profile count than "
               "this engine");
    std::optional<LshIndex> built;
    if (lsh_index == nullptr) built.emplace(*this, lsh, pool);
    const LshIndex& index = lsh_index != nullptr ? *lsh_index : *built;
    LshIndex::CandidateStats cstats;
    const auto pairs = index.candidate_pairs(&cstats);
    std::atomic<std::size_t> rescored{0};
    // Chunked dynamic schedule over the deduped pair list: each chunk
    // checks out a slot, so the heap state stays O(threads * n * k).
    constexpr std::size_t kPairChunk = 2048;
    const std::size_t chunks = (pairs.size() + kPairChunk - 1) / kPairChunk;
    par::parallel_dynamic(pool, 0, chunks, [&](std::size_t c) {
      TopKSlot* slot = acquire();
      std::size_t local = 0;
      const std::size_t begin = c * kPairChunk;
      const std::size_t end = std::min(pairs.size(), begin + kPairChunk);
      for (std::size_t p = begin; p < end; ++p) {
        const std::size_t i = pairs[p].first;
        const std::size_t j = pairs[p].second;
        if (min_common > 0) {
          const std::size_t common =
              has_missing_[i] != 0 || has_missing_[j] != 0
                  ? common_present(i, j)
                  : length_;
          if (common < min_common) continue;
        }
        const float dist = distance_unchecked(i, j);
        ++local;
        slot->push(i, {dist, static_cast<std::uint32_t>(j)});
        slot->push(j, {dist, static_cast<std::uint32_t>(i)});
      }
      rescored.fetch_add(local, std::memory_order_relaxed);
      release(slot);
    });
    if (stats != nullptr) {
      // 0 under a prebuilt index: no signatures were built THIS call —
      // how tests observe that a warm-reopened index was actually reused.
      stats->signatures_built = lsh_index == nullptr ? n : 0;
      stats->buckets_probed = cstats.buckets_probed;
      stats->candidates_generated = cstats.candidates_generated;
      stats->candidates_rescored = rescored.load();
      stats->exact_dot_fraction =
          static_cast<double>(rescored.load()) /
          static_cast<double>(condensed_size(n));
    }
  } else if (strategy == TopKStrategy::kExact) {
    if (stats != nullptr) {
      stats->tiles_total = tile_count();
      stats->tiles_computed = tile_count();
      stats->exact_dot_fraction = 1.0;
    }
    for_each_tile(
        [&](const DistanceTile& tile) {
          TopKSlot* slot = acquire();
          consume_tile(tile, *slot);
          release(slot);
        },
        pool);
  } else {
    // Shared per-row heap thresholds: the k-th-smallest distance any one
    // slot has seen so far for the row (+inf until some slot's heap is
    // full). The k-th smallest of a SUBSET of a row's candidates can only
    // overestimate the k-th smallest of all of them, so pruning against a
    // published threshold — even a stale or partial-slot one — never
    // drops a true top-k pair. The feedback only decides how much is
    // pruned, never what is returned: the exact top-k under the total
    // (distance, index) order is unique, hence schedule-independent.
    std::vector<std::atomic<float>> thresholds(n);
    for (auto& t : thresholds) {
      t.store(std::numeric_limits<float>::infinity(),
              std::memory_order_relaxed);
    }

    // Diagonal-first schedule: sweep the block offset d = tb - ta
    // outward, so near-diagonal tiles (same-module pairs on clustered
    // compendia) fill the heaps with tight thresholds before the far
    // tiles — the prunable bulk — are checked. Exactly-once delivery
    // holds by construction: the permutation visits each tile index once.
    // Each entry carries its (ta, tb) so workers never re-decode the
    // linearization; `index` is the row-major upper-triangle position
    // compute_tile expects (base of block-row ta, plus the offset d).
    struct TileRef {
      std::size_t index, ta, tb;
    };
    const std::size_t blocks = block_prunable.size();
    std::vector<TileRef> order;
    order.reserve(tile_count());
    for (std::size_t d = 0; d < blocks; ++d) {
      for (std::size_t ta = 0; ta + d < blocks; ++ta) {
        order.push_back({ta * blocks - ta * (ta - 1) / 2 + d, ta, ta + d});
      }
    }

    std::atomic<std::size_t> pruned_tiles{0};
    std::atomic<std::size_t> checked_bounds{0};
    TileScratch::Pool scratch;
    par::parallel_dynamic(pool, 0, order.size(), [&](std::size_t pos) {
      const auto [t, ta, tb] = order[pos];
      const std::size_t row_begin = ta * kTile;
      const std::size_t row_end = std::min(n, row_begin + kTile);
      const std::size_t col_begin = tb * kTile;
      const std::size_t col_end = std::min(n, col_begin + kTile);

      if (block_prunable[ta] != 0 && block_prunable[tb] != 0) {
        checked_bounds.fetch_add(1, std::memory_order_relaxed);
        const float* amax = block_max.data() + ta * seg_count_;
        const float* bmax = block_max.data() + tb * seg_count_;
        double dot_bound = 0.0;
        for (std::size_t s = 0; s < seg_count_; ++s) {
          dot_bound += static_cast<double>(amax[s]) * bmax[s];
        }
        const double lower_distance = 1.0 - dot_bound - prune_slack_;
        // Strictly beating every touched row's threshold proves no pair
        // in the tile can displace a heap entry (a tie in distance could
        // still enter on a smaller index, so equality never prunes).
        bool skip = true;
        for (std::size_t i = row_begin; skip && i < row_end; ++i) {
          skip =
              lower_distance > thresholds[i].load(std::memory_order_relaxed);
        }
        for (std::size_t j = col_begin; skip && j < col_end; ++j) {
          skip =
              lower_distance > thresholds[j].load(std::memory_order_relaxed);
        }
        if (skip) {
          pruned_tiles.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }

      TileScratch block = scratch.acquire();
      DistanceTile tile;
      compute_tile(t, block, tile);
      TopKSlot* slot = acquire();
      consume_tile(tile, *slot);
      // Broadcast the freshly-tightened row thresholds back into the
      // schedule so later tiles prune against them. A row that has not
      // seen k candidates yet still holds +inf and publishes nothing.
      const auto publish = [&](std::size_t r) {
        publish_min(thresholds[r], slot->threshold(r));
      };
      for (std::size_t i = row_begin; i < row_end; ++i) publish(i);
      if (tb != ta) {
        for (std::size_t j = col_begin; j < col_end; ++j) publish(j);
      }
      release(slot);
      scratch.release(std::move(block));
    });
    if (stats != nullptr) {
      stats->tiles_total = order.size();
      stats->tiles_pruned = pruned_tiles.load();
      stats->tiles_computed = order.size() - stats->tiles_pruned;
      stats->bounds_checked = checked_bounds.load();
      stats->exact_dot_fraction =
          static_cast<double>(stats->tiles_computed) /
          static_cast<double>(stats->tiles_total);
    }
  }

  // Merge: per row, the union of slot heaps contains the global
  // (distance, index)-smallest k; sort it and keep the head. Rows are
  // independent, so the merge itself parallelizes statically.
  par::parallel_for(pool, 0, n, 64, [&](std::size_t i) {
    std::vector<NeighborEntry> candidates;
    for (const auto& slot : slots) {
      const auto entries = slot->entries(i);
      candidates.insert(candidates.end(), entries.begin(), entries.end());
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t keep = std::min(kk, candidates.size());
    table.valid[i] = static_cast<std::uint32_t>(keep);
    for (std::size_t s = 0; s < keep; ++s) {
      table.indices[i * kk + s] = candidates[s].idx;
      table.distances[i * kk + s] = candidates[s].d;
    }
  });
  return table;
}

namespace {

/// Sums a tile's meaningful cells (the strict upper triangle) in double.
double tile_distance_sum(const DistanceTile& tile) {
  double sum = 0.0;
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    for (std::size_t j = std::max(tile.col_begin, i + 1); j < tile.col_end;
         ++j) {
      sum += tile.at(i, j);
    }
  }
  return sum;
}

}  // namespace

double SimilarityEngine::mean_pairwise_distance(par::ThreadPool& pool) const {
  if (count_ < 2) return 0.0;
  // Per-tile partials reduced in schedule order: deterministic no matter
  // which thread computed which tile.
  std::vector<double> partial(tile_count(), 0.0);
  for_each_tile(
      [&](const DistanceTile& tile) {
        partial[tile.index] = tile_distance_sum(tile);
      },
      pool);
  double total = 0.0;
  for (const double p : partial) total += p;
  return total / static_cast<double>(condensed_size(count_));
}

double SimilarityEngine::mean_pairwise_distance() const {
  if (count_ < 2) return 0.0;
  double total = 0.0;
  for_each_tile(
      [&](const DistanceTile& tile) { total += tile_distance_sum(tile); });
  return total / static_cast<double>(condensed_size(count_));
}

double profile_coherence(std::span<const float> flat, std::size_t count,
                         std::size_t length) {
  if (count < 2) return 0.0;
  const auto engine = SimilarityEngine::from_profiles(flat, count, length,
                                                      Metric::kPearson);
  // Mean r = 1 - mean (1 - r); engine distances match stats::pearson
  // within the 1e-6 contract.
  return std::max(0.0, 1.0 - engine.mean_pairwise_distance());
}

double profile_coherence(std::span<const std::span<const float>> profiles,
                         std::size_t length) {
  if (profiles.size() < 2) return 0.0;
  std::vector<float> flat(profiles.size() * length);
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    FV_REQUIRE(profiles[q].size() == length,
               "every profile must have `length` values");
    std::copy(profiles[q].begin(), profiles[q].end(),
              flat.begin() + q * length);
  }
  return profile_coherence(flat, profiles.size(), length);
}

void SimilarityEngine::dot_all(std::span<const float> query,
                               std::span<double> out) const {
  // Spearman is excluded deliberately: its bank has no normalized rows for
  // profiles with missing cells, so dots would silently score them 0.
  FV_REQUIRE(metric_ == Metric::kPearson ||
                 metric_ == Metric::kUncenteredPearson,
             "dot_all() requires a Pearson-family metric");
  FV_REQUIRE(query.size() == stride_, "query must have stride() entries");
  FV_REQUIRE(out.size() == count_, "output must have size() entries");
  for (std::size_t i = 0; i < count_; ++i) {
    out[i] = dot_padded(normalized_.data() + i * stride_, query.data(),
                        stride_);
  }
}

}  // namespace fv::sim
