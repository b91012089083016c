/**
 * @file
 * Unit and property tests for the functional NDP codecs, against
 * published reference vectors.
 */

#include <cstring>
#include <gtest/gtest.h>

#include "sim/check.hh"

#include "ndp/aes256.hh"
#include "ndp/crc32.hh"
#include "ndp/deflate.hh"
#include "ndp/hash.hh"
#include "ndp/md5.hh"
#include "ndp/sha1.hh"
#include "ndp/sha256.hh"
#include "ndp/transform.hh"
#include "sim/rng.hh"

namespace dcs {
namespace ndp {
namespace {

std::span<const std::uint8_t>
bytes(const char *s)
{
    return {reinterpret_cast<const std::uint8_t *>(s), std::strlen(s)};
}

// ---------------------------------------------------------------------
// Reference vectors.
// ---------------------------------------------------------------------

TEST(Md5, Rfc1321Vectors)
{
    Md5 h;
    EXPECT_EQ(toHex(h.oneShot(bytes(""))),
              "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(toHex(h.oneShot(bytes("a"))),
              "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(toHex(h.oneShot(bytes("abc"))),
              "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(toHex(h.oneShot(bytes("message digest"))),
              "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(toHex(h.oneShot(bytes(
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01"
                  "23456789"))),
              "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Sha1, Fips180Vectors)
{
    Sha1 h;
    EXPECT_EQ(toHex(h.oneShot(bytes("abc"))),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(toHex(h.oneShot(bytes(""))),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(
        toHex(h.oneShot(bytes(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha256, Fips180Vectors)
{
    Sha256 h;
    EXPECT_EQ(toHex(h.oneShot(bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f2"
              "0015ad");
    EXPECT_EQ(toHex(h.oneShot(bytes(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b78"
              "52b855");
    EXPECT_EQ(
        toHex(h.oneShot(bytes(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db"
        "06c1");
}

TEST(Crc32, KnownValues)
{
    EXPECT_EQ(Crc32::compute(bytes("123456789")), 0xcbf43926u);
    EXPECT_EQ(Crc32::compute(bytes("")), 0x0u);
    EXPECT_EQ(Crc32::compute(bytes("The quick brown fox jumps over the "
                                   "lazy dog")),
              0x414fa339u);
}

TEST(Aes256, Fips197Vector)
{
    // FIPS-197 C.3: key 00..1f, plaintext 00112233445566778899aabbccddeeff.
    std::uint8_t key[32];
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = static_cast<std::uint8_t>(i * 0x11);
    Aes256 aes({key, 32});
    aes.encryptBlock(block);
    EXPECT_EQ(toHex({block, 16}), "8ea2b7ca516745bfeafc49904b496089");
}

// ---------------------------------------------------------------------
// Incremental / streaming properties.
// ---------------------------------------------------------------------

const std::vector<std::uint8_t> &
test_data()
{
    DCS_THREAD_SAFE("magic static: initialized once under the compiler's "
                    "init lock, read-only afterwards")
    static const auto data = [] {
        Rng rng(77);
        std::vector<std::uint8_t> v(10000);
        rng.fill(v.data(), v.size());
        return v;
    }();
    return data;
}

class SplitHashTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>>
{
};

TEST_P(SplitHashTest, SplitUpdatesMatchOneShot)
{
    const auto [algo, split] = GetParam();
    auto data = test_data();
    auto h1 = makeHash(algo);
    auto one = h1->oneShot(data);

    auto h2 = makeHash(algo);
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t take = std::min(split, data.size() - pos);
        h2->update({data.data() + pos, take});
        pos += take;
    }
    EXPECT_EQ(h2->finish(), one) << algo << " split=" << split;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, SplitHashTest,
    ::testing::Combine(::testing::Values("md5", "sha1", "sha256", "crc32"),
                       ::testing::Values(std::size_t(1), 7, 63, 64, 65,
                                         1000, 4096)));

TEST(Aes256Ctr, RoundTripRestoresPlaintext)
{
    Rng rng(5);
    std::vector<std::uint8_t> key(32), data(5000);
    rng.fill(key.data(), key.size());
    rng.fill(data.data(), data.size());

    Aes256Ctr enc(key, 42);
    auto ct = enc.transform(data);
    EXPECT_NE(ct, data);
    Aes256Ctr dec(key, 42);
    EXPECT_EQ(dec.transform(ct), data);
}

TEST(Aes256Ctr, WrongNonceOrKeyFails)
{
    auto key = test_data();
    key.resize(32);
    std::vector<std::uint8_t> data(100, 0x5a);
    Aes256Ctr enc(key, 1);
    auto ct = enc.transform(data);
    Aes256Ctr bad_nonce(key, 2);
    EXPECT_NE(bad_nonce.transform(ct), data);
    auto key2 = key;
    key2[0] ^= 1;
    Aes256Ctr bad_key(key2, 1);
    EXPECT_NE(bad_key.transform(ct), data);
}

TEST(Aes256Ctr, SeekMatchesContiguousStream)
{
    Rng rng(6);
    std::vector<std::uint8_t> key(32), data(4096);
    rng.fill(key.data(), key.size());
    rng.fill(data.data(), data.size());

    Aes256Ctr whole(key, 9);
    const auto ct = whole.transform(data);

    // Chunked transforms with seeks must match.
    for (std::size_t chunk : {16u, 100u, 1000u, 4095u}) {
        std::vector<std::uint8_t> out;
        std::size_t pos = 0;
        while (pos < data.size()) {
            const std::size_t take = std::min(chunk, data.size() - pos);
            Aes256Ctr c(key, 9);
            c.seek(pos);
            auto piece = c.transform({data.data() + pos, take});
            out.insert(out.end(), piece.begin(), piece.end());
            pos += take;
        }
        EXPECT_EQ(out, ct) << "chunk=" << chunk;
    }
}

// ---------------------------------------------------------------------
// DEFLATE / gzip.
// ---------------------------------------------------------------------

class DeflateRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>>
{
};

TEST_P(DeflateRoundTrip, RandomAndCompressible)
{
    const auto [level, size] = GetParam();
    // Random (incompressible) payload.
    auto random = test_data();
    random.resize(std::min(size, random.size()));
    auto z1 = deflateCompress(random, level);
    EXPECT_EQ(deflateDecompress(z1), random);

    // Highly compressible payload.
    std::vector<std::uint8_t> rep(size);
    for (std::size_t i = 0; i < size; ++i)
        rep[i] = static_cast<std::uint8_t>("abcabcabd"[i % 9]);
    auto z2 = deflateCompress(rep, level);
    EXPECT_EQ(deflateDecompress(z2), rep);
    if (level > 0 && size > 500) {
        EXPECT_LT(z2.size(), rep.size() / 2) << "repetitive data should "
                                                "compress well";
    }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndSizes, DeflateRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 6, 9),
                       ::testing::Values(std::size_t(0), 1, 100, 5000,
                                         70000)));

TEST(Deflate, EmptyInput)
{
    const std::vector<std::uint8_t> empty;
    EXPECT_EQ(deflateDecompress(deflateCompress(empty, 6)), empty);
    EXPECT_EQ(deflateDecompress(deflateCompress(empty, 0)), empty);
}

TEST(Deflate, RejectsCorruptStream)
{
    auto z = deflateCompress(test_data(), 6);
    // Reserved block type.
    std::vector<std::uint8_t> bad = {0x07};
    EXPECT_THROW(deflateDecompress(bad), std::runtime_error);
    // Truncation.
    z.resize(z.size() / 2);
    EXPECT_THROW(deflateDecompress(z), std::runtime_error);
}

TEST(Gzip, RoundTripAndIntegrity)
{
    auto data = test_data();
    auto gz = gzipCompress(data);
    EXPECT_EQ(gz[0], 0x1f);
    EXPECT_EQ(gz[1], 0x8b);
    EXPECT_EQ(gzipDecompress(gz), data);

    // Corrupt the stored CRC: decompression must fail.
    gz[gz.size() - 6] ^= 0xff;
    EXPECT_THROW(gzipDecompress(gz), std::runtime_error);
}

TEST(Gzip, RejectsBadHeader)
{
    std::vector<std::uint8_t> junk(32, 0);
    EXPECT_THROW(gzipDecompress(junk), std::runtime_error);
}

// ---------------------------------------------------------------------
// Transform dispatcher.
// ---------------------------------------------------------------------

TEST(Transform, NamesRoundTrip)
{
    const auto &data = test_data();
    const std::vector<std::uint8_t> aes_aux(40, 0x11); // key + nonce
    const auto gz = gzipCompress(data);
    for (Function fn : {Function::None, Function::Md5, Function::Sha1,
                        Function::Sha256, Function::Crc32,
                        Function::Aes256, Function::Gzip,
                        Function::Gunzip}) {
        SCOPED_TRACE(functionName(fn));
        EXPECT_EQ(functionFromName(functionName(fn)), fn);

        // The row's descriptors match what the transform does.
        const FunctionInfo &info = functionInfo(fn);
        EXPECT_EQ(info.fn, fn);
        const std::vector<std::uint8_t> &in =
            fn == Function::Gunzip ? gz : data;
        const auto aux = fn == Function::Aes256
                             ? std::span<const std::uint8_t>(aes_aux)
                             : std::span<const std::uint8_t>();
        const auto r = applyTransform(fn, in, aux);
        EXPECT_EQ(info.digestSize, r.digest.size());
        EXPECT_EQ(info.passThrough(), r.data == in);
    }
}

TEST(Transform, HashPassThroughKeepsPayload)
{
    auto data = test_data();
    auto r = applyTransform(Function::Md5, data);
    EXPECT_EQ(r.data, data);
    EXPECT_EQ(r.digest.size(), 16u);
    EXPECT_TRUE(functionInfo(Function::Md5).passThrough());
    EXPECT_FALSE(functionInfo(Function::Aes256).passThrough());
}

TEST(Transform, AesRoundTripViaDispatcher)
{
    auto data = test_data();
    std::vector<std::uint8_t> aux(40, 0x11); // 32B key + 8B nonce
    auto enc = applyTransform(Function::Aes256, data, aux);
    EXPECT_NE(enc.data, data);
    auto dec = applyTransform(Function::Aes256, enc.data, aux);
    EXPECT_EQ(dec.data, data);
}

TEST(Transform, GzipGunzipInverse)
{
    auto data = test_data();
    auto z = applyTransform(Function::Gzip, data);
    auto back = applyTransform(Function::Gunzip, z.data);
    EXPECT_EQ(back.data, data);
}

} // namespace
} // namespace ndp
} // namespace dcs
