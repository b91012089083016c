/**
 * @file
 * Golden-vector gate for the optimized NDP kernels.
 *
 * The slice-by-8 CRC32, T-table AES-256 and single-padded-block hash
 * finalizers must stay bit-identical to the published reference
 * vectors (RFC 1321, FIPS 180, FIPS 197, SP 800-38A, IEEE 802.3,
 * RFC 1952) and to their own output under arbitrary segmentation —
 * the zero-copy data plane feeds them scatter-gather chains, never a
 * single contiguous span.
 */

#include <cstring>
#include <gtest/gtest.h>

#include "mem/buffer.hh"
#include "ndp/aes256.hh"
#include "ndp/crc32.hh"
#include "ndp/deflate.hh"
#include "ndp/hash.hh"
#include "ndp/md5.hh"
#include "ndp/sha1.hh"
#include "ndp/sha256.hh"
#include "net/packet.hh"
#include "sim/rng.hh"

namespace dcs {
namespace ndp {
namespace {

std::span<const std::uint8_t>
bytes(const char *s)
{
    return {reinterpret_cast<const std::uint8_t *>(s), std::strlen(s)};
}

std::vector<std::uint8_t>
randomPayload(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint8_t> v(n);
    Rng rng(seed);
    rng.fill(v.data(), v.size());
    return v;
}

// ---------------------------------------------------------------------
// Hash reference vectors (gate the block-wise finish() rewrite).
// ---------------------------------------------------------------------

TEST(NdpKernels, Md5Rfc1321)
{
    Md5 h;
    EXPECT_EQ(toHex(h.oneShot(bytes(""))),
              "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(toHex(h.oneShot(bytes("abc"))),
              "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(toHex(h.oneShot(bytes(
                  "12345678901234567890123456789012345678901234567890"
                  "123456789012345678901234567890"))),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(NdpKernels, Sha1Fips180)
{
    Sha1 h;
    EXPECT_EQ(toHex(h.oneShot(bytes("abc"))),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(toHex(h.oneShot(bytes(""))),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(toHex(h.oneShot(bytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                  "nopq"))),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(NdpKernels, Sha256Fips180)
{
    Sha256 h;
    EXPECT_EQ(toHex(h.oneShot(bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff"
              "61f20015ad");
    EXPECT_EQ(toHex(h.oneShot(bytes(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca49599"
              "1b7852b855");
    EXPECT_EQ(toHex(h.oneShot(bytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                  "nopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd"
              "419db06c1");
}

// One million 'a's (FIPS 180-2 long-message vector): exercises the
// pure block loop plus the fill == 0 padding branch (120 - 0 is
// wrong there; 56 - 0 is right).
TEST(NdpKernels, MillionAsLongVector)
{
    const std::vector<std::uint8_t> as(1000000, 'a');
    Sha256 sha256;
    EXPECT_EQ(toHex(sha256.oneShot(as)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39"
              "ccc7112cd0");
    Sha1 sha1;
    EXPECT_EQ(toHex(sha1.oneShot(as)),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    Md5 md5;
    EXPECT_EQ(toHex(md5.oneShot(as)),
              "7707d6ae4e027c70eea2a935c2296f21");
}

// Every message length around the padding boundaries (55, 56, 57, 63,
// 64, 65, 119, 120) must finish identically whether fed whole or in
// awkward fragments.
TEST(NdpKernels, PaddingBoundariesAndSegmentation)
{
    const auto msg = randomPayload(130, 41);
    for (const char *alg : {"md5", "sha1", "sha256", "crc32"}) {
        auto whole = makeHash(alg);
        auto pieces = makeHash(alg);
        for (std::size_t n :
             {0ul, 1ul, 55ul, 56ul, 57ul, 63ul, 64ul, 65ul, 119ul,
              120ul, 130ul}) {
            const std::span<const std::uint8_t> m{msg.data(), n};
            whole->reset();
            whole->update(m);
            const auto d_whole = whole->finish();

            pieces->reset();
            std::size_t off = 0, step = 1;
            while (off < n) {
                const std::size_t take = std::min(step, n - off);
                pieces->update(m.subspan(off, take));
                off += take;
                step = step * 3 + 1; // 1, 4, 13, 40, ... fragments
            }
            EXPECT_EQ(pieces->finish(), d_whole)
                << alg << " len " << n;
        }
    }
}

// ---------------------------------------------------------------------
// CRC32 (gate the slice-by-8 rewrite).
// ---------------------------------------------------------------------

TEST(NdpKernels, Crc32KnownValues)
{
    // The IEEE 802.3 check value.
    EXPECT_EQ(Crc32::compute(bytes("123456789")), 0xCBF43926u);
    EXPECT_EQ(Crc32::compute(bytes("")), 0x00000000u);
    EXPECT_EQ(Crc32::compute(bytes("a")), 0xE8B7BE43u);
    EXPECT_EQ(Crc32::compute(bytes("abc")), 0x352441C2u);
    EXPECT_EQ(Crc32::compute(bytes(
                  "The quick brown fox jumps over the lazy dog")),
              0x414FA339u);
}

// Slice-by-8 must agree with the bit-serial definition for all
// lengths 0..64 (covers head/8-byte/tail path combinations).
TEST(NdpKernels, Crc32MatchesBitSerial)
{
    auto bitSerial = [](std::span<const std::uint8_t> d) {
        std::uint32_t c = 0xffffffffu;
        for (std::uint8_t byte : d) {
            c ^= byte;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
        }
        return c ^ 0xffffffffu;
    };
    const auto msg = randomPayload(64, 42);
    for (std::size_t n = 0; n <= msg.size(); ++n) {
        const std::span<const std::uint8_t> m{msg.data(), n};
        EXPECT_EQ(Crc32::compute(m), bitSerial(m)) << "len " << n;
    }
    // Misaligned starts hit the byte-at-a-time head path.
    for (std::size_t off = 1; off < 8; ++off) {
        const std::span<const std::uint8_t> m{msg.data() + off,
                                              msg.size() - off};
        EXPECT_EQ(Crc32::compute(m), bitSerial(m)) << "off " << off;
    }
}

// ---------------------------------------------------------------------
// AES-256 (gate the T-table rewrite).
// ---------------------------------------------------------------------

TEST(NdpKernels, Aes256Fips197Block)
{
    // FIPS 197 Appendix C.3.
    std::uint8_t key[32], block[16];
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    for (int i = 0; i < 16; ++i)
        block[i] = static_cast<std::uint8_t>(i * 0x11);
    const std::uint8_t want[16] = {0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67,
                                   0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90,
                                   0x4b, 0x49, 0x60, 0x89};
    Aes256 aes({key, 32});
    aes.encryptBlock(block);
    EXPECT_EQ(std::memcmp(block, want, 16), 0);
}

TEST(NdpKernels, Aes256CtrRoundTripAndSegmentation)
{
    const auto key = randomPayload(32, 7);
    const auto plain = randomPayload(100000, 8);

    Aes256Ctr enc(key, 0x1122334455667788ull);
    const auto cipher = enc.transform(plain);
    ASSERT_EQ(cipher.size(), plain.size());
    EXPECT_NE(cipher, plain);

    // CTR is an involution under the same key/nonce.
    Aes256Ctr dec(key, 0x1122334455667788ull);
    EXPECT_EQ(dec.transform(cipher), plain);

    // transformInto across ragged segments must carry the keystream
    // and match the contiguous transform bit-for-bit.
    Aes256Ctr seg(key, 0x1122334455667788ull);
    std::vector<std::uint8_t> out(plain.size());
    std::size_t off = 0, step = 3;
    while (off < plain.size()) {
        const std::size_t take = std::min(step, plain.size() - off);
        seg.transformInto({plain.data() + off, take}, out.data() + off);
        off += take;
        step = step * 2 + 5; // 3, 11, 27, 59, ... fragments
    }
    EXPECT_EQ(out, cipher);

    // seek() positions the keystream mid-stream.
    Aes256Ctr sought(key, 0x1122334455667788ull);
    sought.seek(4321);
    std::vector<std::uint8_t> tail(plain.size() - 4321);
    sought.transformInto({plain.data() + 4321, tail.size()},
                         tail.data());
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           cipher.begin() + 4321));
}

// ---------------------------------------------------------------------
// gzip (rides on CRC32; round-trips must keep working).
// ---------------------------------------------------------------------

TEST(NdpKernels, GzipRoundTrip)
{
    // Compressible input.
    std::vector<std::uint8_t> text;
    for (int i = 0; i < 2000; ++i) {
        const auto s = bytes("the same phrase repeats endlessly; ");
        text.insert(text.end(), s.begin(), s.end());
    }
    const auto packed = gzipCompress(text);
    EXPECT_LT(packed.size(), text.size() / 2);
    EXPECT_EQ(gzipDecompress(packed), text);

    // Incompressible input (random bytes) must still round-trip.
    const auto noise = randomPayload(65536, 99);
    const auto stored = gzipCompress(noise);
    EXPECT_EQ(gzipDecompress(stored), noise);

    // Empty input.
    const auto empty = gzipCompress({});
    EXPECT_TRUE(gzipDecompress(empty).empty());
}

// ---------------------------------------------------------------------
// Chain-fed checksums: the zero-copy frame path feeds the TCP
// checksum a scatter-gather chain; it must equal the contiguous sum.
// ---------------------------------------------------------------------

TEST(NdpKernels, InetChecksumChainMatchesContiguous)
{
    const auto msg = randomPayload(9001, 4);
    for (std::size_t n : {0ul, 1ul, 2ul, 3ul, 1499ul, 9000ul, 9001ul}) {
        const std::span<const std::uint8_t> m{msg.data(), n};
        const std::uint16_t want = net::inetChecksum(m);

        // Ragged odd-length segments exercise the parity carry.
        BufChain chain;
        std::size_t off = 0, step = 1;
        while (off < n) {
            const std::size_t take = std::min(step, n - off);
            chain.append(Buffer::copyOf(m.subspan(off, take)));
            off += take;
            step = (step * 2 + 1) % 613 + 1;
        }
        EXPECT_EQ(net::inetChecksum(chain), want) << "len " << n;
    }
}

/**
 * Independent RFC 1071 reference: big-endian byte pairs added one at a
 * time into a 64-bit sum (a trailing odd byte is a high half), folded
 * with end-around carries, then complemented.
 */
std::uint16_t
refInetChecksum(std::span<const std::uint8_t> d, std::uint32_t seed = 0)
{
    std::uint64_t sum = seed;
    for (std::size_t i = 0; i < d.size(); i += 2) {
        sum += std::uint64_t(d[i]) << 8;
        if (i + 1 < d.size())
            sum += d[i + 1];
    }
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
}

/** @p m split into segments of odd lengths 1, 3, 5, ... (wrapping). */
BufChain
raggedChain(std::span<const std::uint8_t> m)
{
    BufChain chain;
    std::size_t off = 0, step = 1;
    while (off < m.size()) {
        const std::size_t take = std::min(step, m.size() - off);
        chain.append(Buffer::copyOf(m.subspan(off, take)));
        off += take;
        step = step >= 611 ? 1 : step + 2;
    }
    return chain;
}

TEST(NdpKernels, InetChecksumMatchesBytePairReference)
{
    // RFC 1071 §3 worked example: the words 0001 f203 f4f5 f6f7 sum
    // to ddf2, so the checksum is its complement.
    const std::vector<std::uint8_t> rfc = {0x00, 0x01, 0xf2, 0x03,
                                           0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(refInetChecksum(rfc), 0x220d);
    EXPECT_EQ(net::inetChecksum(rfc), 0x220d);

    // Random lengths at every start offset modulo a 64-bit word.
    const auto msg = randomPayload(9001 + 8, 21);
    Rng rng(5);
    std::vector<std::size_t> lens = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                                     1499, 1500, 9000, 9001};
    for (int i = 0; i < 40; ++i)
        lens.push_back(rng.uniformInt(0, 9001));
    for (const std::size_t n : lens) {
        for (std::size_t start = 0; start < 8; ++start) {
            const std::span<const std::uint8_t> m{msg.data() + start, n};
            const std::uint16_t want = refInetChecksum(m, 0x1234);
            EXPECT_EQ(net::inetChecksum(m, 0x1234), want)
                << "len " << n << " start " << start;
            EXPECT_EQ(net::inetChecksum(raggedChain(m), 0x1234), want)
                << "chain len " << n << " start " << start;
        }
    }

    // All-ones payloads up to the largest IPv4 datagram, seeded with
    // a TCP pseudo-header sum: the widest sums the kernel must carry.
    const std::vector<std::uint8_t> ones(65535, 0xff);
    const std::uint32_t pseudo =
        0xc0a8 + 0x0001 + 0xc0a8 + 0x0002 + 6 + 65535;
    for (const std::size_t n : {1ul, 2ul, 3ul, 8ul, 9ul, 1500ul, 65534ul,
                                65535ul}) {
        const std::span<const std::uint8_t> m{ones.data(), n};
        const std::uint16_t want = refInetChecksum(m, pseudo);
        EXPECT_EQ(net::inetChecksum(m, pseudo), want) << "len " << n;
        EXPECT_EQ(net::inetChecksum(raggedChain(m), pseudo), want)
            << "chain len " << n;
    }
}

} // namespace
} // namespace ndp
} // namespace dcs
