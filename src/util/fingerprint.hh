/**
 * @file
 * Fingerprinter: canonical FNV-1a fingerprints of structured values.
 *
 * The sweep engine's result cache (core/sweep.hh) is content-addressed: a
 * cached FrameResult is valid only for the exact (scheme, trace, config,
 * schema) that produced it, so cache keys must cover *every* field that can
 * influence a simulation. Fingerprinter makes that exhaustiveness cheap to
 * get right: each value is mixed with an explicit type tag and, for
 * variable-length data, a length prefix, so `("ab", "c")` and `("a", "bc")`
 * fingerprint differently and a field appended to a struct changes the
 * fingerprint even when its default value is zero.
 *
 * Fields are mixed one by one — never as raw struct bytes — so padding
 * bytes (indeterminate by the language rules) can never leak into a key.
 */

#ifndef CHOPIN_UTIL_FINGERPRINT_HH
#define CHOPIN_UTIL_FINGERPRINT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace chopin
{

/** Incremental FNV-1a mixer with type-tagged, length-prefixed inputs. */
class Fingerprinter
{
  public:
    Fingerprinter &
    u64(std::uint64_t v)
    {
        mixTag('u');
        mixWord(v);
        return *this;
    }

    Fingerprinter &
    i64(std::int64_t v)
    {
        mixTag('i');
        mixWord(static_cast<std::uint64_t>(v));
        return *this;
    }

    /** Bit-exact double mix (distinguishes -0.0/+0.0, covers infinities). */
    Fingerprinter &
    f64(double v)
    {
        mixTag('f');
        mixWord(std::bit_cast<std::uint64_t>(v));
        return *this;
    }

    Fingerprinter &
    f32(float v)
    {
        mixTag('g');
        mixWord(std::bit_cast<std::uint32_t>(v));
        return *this;
    }

    Fingerprinter &
    boolean(bool v)
    {
        mixTag('b');
        mixWord(v ? 1u : 0u);
        return *this;
    }

    Fingerprinter &
    str(std::string_view s)
    {
        mixTag('s');
        mixWord(static_cast<std::uint64_t>(s.size()));
        for (char c : s)
            mixByte(static_cast<unsigned char>(c));
        return *this;
    }

    /** Raw bytes of tightly packed data (e.g. a float array); callers are
     *  responsible for not passing padded structs. Mixed a native-endian
     *  8-byte word at a time, then byte by byte for the tail. */
    Fingerprinter &
    bytes(const void *data, std::size_t size)
    {
        mixTag('r');
        mixWord(static_cast<std::uint64_t>(size));
        const auto *p = static_cast<const unsigned char *>(data);
        std::size_t i = 0;
        for (; i + sizeof(std::uint64_t) <= size;
             i += sizeof(std::uint64_t)) {
            std::uint64_t w = 0;
            std::memcpy(&w, p + i, sizeof(w));
            mixWide(w);
        }
        for (; i < size; ++i)
            mixByte(p[i]);
        return *this;
    }

    std::uint64_t value() const { return hash; }

    /** 16-hex-digit form, used as content-addressed cache file names. */
    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        std::uint64_t v = hash;
        for (int i = 15; i >= 0; --i, v >>= 4)
            out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        return out;
    }

  private:
    void
    mixByte(unsigned char b)
    {
        hash ^= b;
        hash *= 1099511628211ull; // FNV-1a 64-bit prime
    }

    void
    mixWord(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8)
            mixByte(static_cast<unsigned char>(v & 0xff));
    }

    /**
     * One FNV-style step over a whole word, followed by an xorshift so the
     * word's high bits also reach the low bits of the state. Both steps
     * are bijections of the state, so changing any single word always
     * changes the result.
     */
    void
    mixWide(std::uint64_t w)
    {
        hash ^= w;
        hash *= 1099511628211ull;
        hash ^= hash >> 32;
    }

    void mixTag(char t) { mixByte(static_cast<unsigned char>(t)); }

    std::uint64_t hash = 14695981039346656037ull; // FNV-1a 64-bit offset
};

} // namespace chopin

#endif // CHOPIN_UTIL_FINGERPRINT_HH
