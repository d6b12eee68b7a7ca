/**
 * @file
 * Deterministic PCG32 random number generator. The simulator never
 * touches std::random_device or wall-clock seeds: every run is a pure
 * function of (profile, seed, config).
 */

#ifndef STOREMLP_TRACE_RNG_HH
#define STOREMLP_TRACE_RNG_HH

#include <cmath>
#include <cstdint>

namespace storemlp
{

/**
 * PCG32 (O'Neill): small, fast, statistically solid, reproducible
 * across platforms.
 */
class Pcg32
{
  public:
    explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                   uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        _state = 0;
        _inc = (stream << 1) | 1;
        next();
        _state += seed;
        next();
    }

    /** Next 32 uniformly distributed bits. */
    uint32_t
    next()
    {
        uint64_t old = _state;
        _state = old * 6364136223846793005ULL + _inc;
        uint32_t xorshifted =
            static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
        uint32_t rot = static_cast<uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint32_t
    below(uint32_t bound)
    {
        // Debiased modulo (Lemire-style rejection kept simple).
        uint32_t threshold = (-bound) % bound;
        for (;;) {
            uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform 64-bit value in [0, bound). */
    uint64_t
    below64(uint64_t bound)
    {
        if (bound <= 1)
            return 0;
        uint64_t r = (static_cast<uint64_t>(next()) << 32) | next();
        return r % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Integer form of a probability: ceil(p * 2^32), clamped to
     * [0, 2^32] (0 for NaN). Since uniform() is exactly next() * 2^-32,
     * `uniform() < p` holds exactly when `next() < threshold(p)`, so
     * chanceT(threshold(p)) draws the same outcome as chance(p)
     * without the int-to-double conversion.
     */
    static uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 32;
        return static_cast<uint64_t>(std::ceil(p * 4294967296.0));
    }

    /** Bernoulli draw against a precomputed threshold(p). */
    bool chanceT(uint64_t t) { return next() < t; }

    /**
     * Geometric draw >= 1 with continuation probability p (mean
     * 1/(1-p)); capped to keep pathological draws bounded.
     */
    uint32_t
    geometric(double p, uint32_t cap = 64)
    {
        return geometricT(threshold(p), cap);
    }

    /** geometric() against a precomputed threshold(p). */
    uint32_t
    geometricT(uint64_t t, uint32_t cap = 64)
    {
        uint32_t n = 1;
        while (n < cap && chanceT(t))
            ++n;
        return n;
    }

  private:
    uint64_t _state;
    uint64_t _inc;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_RNG_HH
