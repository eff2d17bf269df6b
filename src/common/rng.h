// Deterministic pseudo-random number generation.
//
// All randomized components (workload generators, the randomized
// incremental trapezoidal map, query streams) take an explicit Rng so that
// every experiment in the repository is reproducible from a seed.

#ifndef DTREE_COMMON_RNG_H_
#define DTREE_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace dtree {

/// MT19937-64 whose output sequence is, for every seed, exactly the one
/// std::mt19937_64 produces (the standard's engine is the test oracle),
/// but whose state is built only as draws need it.
///
/// The standard engine seeds all 312 state words at construction and
/// twists all of them on the first draw. Here construction stores only
/// the seed; draw k of the first block seeds words [0, k+157) and twists
/// word k alone, because twisting word k < 156 reads only the old words
/// k, k+1 and k+156 (and words k >= 156 read already-twisted ones). A
/// short-lived stream that draws a handful of values therefore pays ~157
/// seeding steps instead of 312 plus a 312-word twist. Every later block
/// is the ordinary full twist. No unseeded state word is ever read: not
/// by a draw and not by a copy, which copies only the words built so far.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed) { Reseed(seed); }

  Mt19937_64(const Mt19937_64& other) { *this = other; }
  Mt19937_64& operator=(const Mt19937_64& other) {
    if (this == &other) return *this;
    std::copy_n(other.x_, other.BuiltWords(), x_);
    p_ = other.p_;
    ready_ = other.ready_;
    return *this;
  }

  /// Restarts the sequence of Mt19937_64(seed) in place.
  void Reseed(uint64_t seed) {
    x_[0] = seed;
    p_ = 0;
    ready_ = 0;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ == ready_) Refill();
    uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr uint32_t kN = 312;
  static constexpr uint32_t kM = 156;

  /// Twist step: the new value of word k from old words k and k+1 (upper
  /// 33 bits of one, lower 31 of the other) and `far` = word (k+kM) mod kN.
  static uint64_t Twist(uint64_t far, uint64_t wk, uint64_t wk1) {
    const uint64_t y =
        (wk & 0xffffffff80000000ULL) | (wk1 & 0x000000007fffffffULL);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  /// Words of x_ holding defined values: the twisted prefix [0, ready_)
  /// plus the seeded words the next lazy twist will read.
  uint32_t BuiltWords() const {
    return ready_ == 0 ? 1 : std::min(kN, ready_ + kM);
  }

  void Refill() {
    if (ready_ < kN) {
      // First block, word k = ready_: seed through word k+kM, then twist k
      // (indices mod kN; words below k are already twisted, as in the
      // standard engine's in-place loop).
      const uint32_t k = ready_;
      const uint32_t end = k + kM + 1;
      if (end <= kN) {
        uint32_t i = k == 0 ? 1 : end - 1;
        for (uint64_t v = x_[i - 1]; i < end; ++i) {
          v = 6364136223846793005ULL * (v ^ (v >> 62)) + i;
          x_[i] = v;
        }
      }
      x_[k] = Twist(x_[(k + kM) % kN], x_[k], x_[(k + 1) % kN]);
      ++ready_;
      return;
    }
    // Full twist, split into libstdc++'s three loops so no index wraps.
    for (uint32_t k = 0; k < kN - kM; ++k) {
      x_[k] = Twist(x_[k + kM], x_[k], x_[k + 1]);
    }
    for (uint32_t k = kN - kM; k < kN - 1; ++k) {
      x_[k] = Twist(x_[k + kM - kN], x_[k], x_[k + 1]);
    }
    x_[kN - 1] = Twist(x_[kM - 1], x_[kN - 1], x_[0]);
    p_ = 0;
  }

  uint64_t x_[kN];
  uint32_t p_;      ///< next word of the current block to output
  uint32_t ready_;  ///< words [0, ready_) of the current block are twisted
};

/// Seeded 64-bit Mersenne-Twister wrapper with convenience samplers.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Independent stream derived from (seed, stream) with a SplitMix64
  /// finalizer, so sharded consumers (e.g. the parallel experiment driver)
  /// get decorrelated generators whose sequences depend only on the seed
  /// and the stream id — never on thread count or scheduling.
  static Rng ForStream(uint64_t seed, uint64_t stream) {
    return Rng(MixStream(seed, stream));
  }

  /// The stream-derivation mix itself, for components that key nested
  /// streams (e.g. the lossy channel's per-query, per-attempt loss
  /// processes): MixStream(MixStream(seed, query), attempt) yields
  /// decorrelated, reproducible sub-streams.
  static uint64_t MixStream(uint64_t seed, uint64_t stream) {
    return SplitMix64(seed ^ SplitMix64(stream));
  }

  /// Restarts in place as Rng(seed) would, without building a new state.
  void Reseed(uint64_t seed) { engine_.Reseed(seed); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DTREE_DCHECK(lo <= hi);
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  /// SplitMix64 finalizer (Steele et al.); bijective, avalanche-quality
  /// mixing even for adjacent inputs like stream ids 0, 1, 2, ...
  static uint64_t SplitMix64(uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  Mt19937_64 engine_;
};

}  // namespace dtree

#endif  // DTREE_COMMON_RNG_H_
