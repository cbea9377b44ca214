/**
 * @file
 * Deterministic, fast pseudo-random number generation.
 *
 * All stochastic pieces of the library (graph generators, dropout, feature
 * sparsification, sampling) draw from these generators so that
 * experiments are reproducible from a single seed.
 */

#pragma once

#include <cstdint>

namespace graphite {

/**
 * splitmix64: one step of Vigna's generator from state @p x, i.e. the
 * finalizer applied to x + the golden-ratio increment. A bijective
 * avalanche, shared by Rng's seeding, the per-request sampling seeds,
 * the hot cache's shard hash, the Hash partitioner and dropout's row
 * keys.
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    std::uint64_t z = x + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** generator seeded via splitmix64, with 256 bits of state.
 */
class Rng
{
  public:
    explicit
    Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 expansion of the seed into the four state words.
        for (auto &word : state_) {
            word = splitmix64(seed);
            seed += 0x9e3779b97f4a7c15ull;
        }
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform float in [0, 1). */
    float
    uniformFloat()
    {
        return static_cast<float>((next() >> 40) * 0x1.0p-24f);
    }

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine for
        // our (non-cryptographic) purposes.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Gaussian via Box-Muller (cached second draw). */
    double
    gaussian()
    {
        if (haveCached_) {
            haveCached_ = false;
            return cached_;
        }
        double u1 = uniform();
        double u2 = uniform();
        // Avoid log(0).
        if (u1 < 1e-300)
            u1 = 1e-300;
        const double r = __builtin_sqrt(-2.0 * __builtin_log(u1));
        const double theta = 2.0 * 3.14159265358979323846 * u2;
        cached_ = r * __builtin_sin(theta);
        haveCached_ = true;
        return r * __builtin_cos(theta);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    double cached_ = 0.0;
    bool haveCached_ = false;
};

} // namespace graphite
