/**
 * @file
 * Fingerprinter: the FNV-1a mixer the cache keys are built from. The
 * properties under test are the ones the sweep engine's correctness rides
 * on: determinism, order sensitivity, and separation — two different value
 * sequences must not collapse onto one key via type or boundary aliasing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/fingerprint.hh"

namespace chopin
{
namespace
{

TEST(Fingerprint, DeterministicAcrossInstances)
{
    Fingerprinter a, b;
    a.str("hello");
    a.u64(42);
    a.f64(2.5);
    b.str("hello");
    b.u64(42);
    b.f64(2.5);
    EXPECT_EQ(a.value(), b.value());
}

TEST(Fingerprint, OrderSensitive)
{
    Fingerprinter a, b;
    a.u64(1);
    a.u64(2);
    b.u64(2);
    b.u64(1);
    EXPECT_NE(a.value(), b.value());
}

TEST(Fingerprint, TypeTagsSeparateEqualBitPatterns)
{
    // Same 64-bit payload through different typed channels must not alias.
    Fingerprinter u, i, f;
    u.u64(1);
    i.i64(1);
    f.f64(0.0); // different payload bits but exercises the tag too
    EXPECT_NE(u.value(), i.value());
    EXPECT_NE(u.value(), f.value());

    Fingerprinter b0, b1;
    b0.boolean(false);
    b1.u64(0);
    EXPECT_NE(b0.value(), b1.value());
}

TEST(Fingerprint, LengthPrefixPreventsConcatenationAliasing)
{
    // "ab" + "c" vs "a" + "bc": same byte stream, different field split.
    Fingerprinter a, b;
    a.str("ab");
    a.str("c");
    b.str("a");
    b.str("bc");
    EXPECT_NE(a.value(), b.value());
}

TEST(Fingerprint, FloatValuesAreBitExact)
{
    Fingerprinter a, b;
    a.f64(0.1);
    b.f64(0.1);
    EXPECT_EQ(a.value(), b.value());

    // One ulp apart must fingerprint differently — the key is bit-exact.
    Fingerprinter c, d;
    c.f64(1.0);
    d.f64(std::nextafter(1.0, 2.0));
    EXPECT_NE(c.value(), d.value());

    // Signed zeros are different bit patterns, hence different keys.
    Fingerprinter pz, nz;
    pz.f64(0.0);
    nz.f64(-0.0);
    EXPECT_NE(pz.value(), nz.value());
}

TEST(Fingerprint, HexIsSixteenLowercaseDigits)
{
    Fingerprinter fp;
    fp.str("x");
    std::string hex = fp.hex();
    ASSERT_EQ(hex.size(), 16u);
    for (char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hex;
    // Leading zeros are preserved (fixed-width key filenames rely on it).
    Fingerprinter zero_ish;
    EXPECT_EQ(zero_ish.hex().size(), 16u);
}

TEST(Fingerprint, BytesMatchesEquivalentByteStream)
{
    const unsigned char raw[] = {1, 2, 3, 4};
    Fingerprinter a, b;
    a.bytes(raw, sizeof(raw));
    b.bytes(raw, sizeof(raw));
    EXPECT_EQ(a.value(), b.value());

    Fingerprinter c;
    const unsigned char other[] = {1, 2, 3, 5};
    c.bytes(other, sizeof(other));
    EXPECT_NE(a.value(), c.value());
}

TEST(Fingerprint, BytesSeesEveryBitOfWordsAndTail)
{
    // bytes() mixes whole 8-byte words and then the tail bytes one at a
    // time: a one-bit flip anywhere, in a word or in the tail, must move
    // the fingerprint. 19 bytes = two words and a 3-byte tail.
    unsigned char raw[19];
    for (std::size_t i = 0; i < sizeof(raw); ++i)
        raw[i] = static_cast<unsigned char>(i * 37 + 11);
    Fingerprinter base;
    base.bytes(raw, sizeof(raw));
    for (std::size_t i = 0; i < sizeof(raw); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            unsigned char flipped[sizeof(raw)];
            std::memcpy(flipped, raw, sizeof(raw));
            flipped[i] = static_cast<unsigned char>(flipped[i] ^ (1u << bit));
            Fingerprinter f;
            f.bytes(flipped, sizeof(flipped));
            EXPECT_NE(f.value(), base.value())
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(Fingerprint, BytesLengthPrefixSeparatesTailSplits)
{
    // Moving one byte from a word into the tail of the next call must not
    // alias: the length prefix of each call keeps the boundaries.
    const unsigned char raw[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    Fingerprinter a, b;
    a.bytes(raw, 8).bytes(raw + 8, 1);
    b.bytes(raw, 9).bytes(raw + 9, 0);
    EXPECT_NE(a.value(), b.value());
}

} // namespace
} // namespace chopin
