/**
 * @file
 * End-to-end two-node DCS-ctrl tests: every D2D scenario moves real
 * bytes through SSD flash, HDC Engine buffers, NIC frames and the
 * wire, and the results are checked byte-for-byte.
 */

#include <cstring>
#include <gtest/gtest.h>

#include "fixtures.hh"
#include "ndp/aes256.hh"
#include "ndp/crc32.hh"
#include "ndp/deflate.hh"

namespace dcs {
namespace {

class DcsE2eTest : public test::TwoNodeFixture
{
};

TEST_F(DcsE2eTest, SendFilePlain)
{
    bringUp(true);
    auto content = test::randomBytes(777777, 21);
    const int fd = nodeA().fs().create("f", content);
    sinkAtB();

    bool done = false;
    nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                              ndp::Function::None, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(received, content);
}

class DcsHashSendTest
    : public test::TwoNodeFixture,
      public ::testing::WithParamInterface<
          std::tuple<const char *, std::size_t>>
{
};

TEST_P(DcsHashSendTest, DigestMatchesReference)
{
    const auto [algo, size] = GetParam();
    bringUp(true);
    auto content = test::randomBytes(size, 22);
    const int fd = nodeA().fs().create("f", content);
    sinkAtB();

    bool done = false;
    hdclib::D2dResult res;
    nodeA().hdcLib().sendFile(
        fd, connA->fd, 0, content.size(),
        ndp::functionFromName(algo), {}, true, nullptr,
        [&](const hdclib::D2dResult &r) {
            res = r;
            done = true;
        });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(received, content);
    EXPECT_EQ(res.digest, ndp::makeHash(algo)->oneShot(content))
        << algo << " over " << size << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndSizes, DcsHashSendTest,
    ::testing::Combine(::testing::Values("md5", "sha1", "sha256", "crc32"),
                       // 1 chunk, chunk-1, chunk+1, many chunks
                       ::testing::Values(std::size_t(4096), 65535, 65537,
                                         500000)));

TEST_F(DcsE2eTest, RecvFileStoresToFlash)
{
    // B runs DCS; A's host stack sends. NIC -> gather -> CRC32 -> SSD.
    bringUp(false, true);
    auto content = test::randomBytes(300000, 23);
    const int fd_b = nodeB().fs().createEmpty("in.bin", content.size());

    bool stored = false;
    hdclib::D2dResult res;
    nodeB().hdcLib().recvFile(connB->fd, fd_b, 0, content.size(),
                              ndp::Function::Crc32, {}, true, nullptr,
                              [&](const hdclib::D2dResult &r) {
                                  res = r;
                                  stored = true;
                              });
    eq.run(); // let the gather ops arm before data flies

    // Sender: stage bytes in host DRAM and send via the kernel path.
    const Addr buf = nodeA().host().allocDma(content.size());
    nodeA().host().dram().write(nodeA().host().dramOffset(buf),
                                content.data(), content.size());
    nodeA().tcp().send(*connA, buf,
                       static_cast<std::uint32_t>(content.size()), 8192,
                       nullptr, {});
    eq.run();

    ASSERT_TRUE(stored);
    EXPECT_EQ(nodeB().fs().readContents(fd_b), content);
    const std::uint32_t want = ndp::Crc32::compute(content);
    ASSERT_EQ(res.digest.size(), 4u);
    std::uint32_t got = 0;
    std::memcpy(&got, res.digest.data(), 4);
    // Digest bytes are little-endian CRC (Crc32::finish layout).
    EXPECT_EQ(got, want);
}

TEST_F(DcsE2eTest, DcsToDcsTransfer)
{
    // Both nodes in DCS mode: A sends from file, B receives to file.
    bringUp(true, true);
    auto content = test::randomBytes(1 << 20, 24);
    const int fd_a = nodeA().fs().create("src.bin", content);
    const int fd_b = nodeB().fs().createEmpty("dst.bin", content.size());

    bool stored = false;
    nodeB().hdcLib().recvFile(connB->fd, fd_b, 0, content.size(),
                              ndp::Function::None, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  stored = true;
                              });
    eq.run();

    bool sent = false;
    nodeA().hdcLib().sendFile(fd_a, connA->fd, 0, content.size(),
                              ndp::Function::None, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  sent = true;
                              });
    eq.run();

    ASSERT_TRUE(sent);
    ASSERT_TRUE(stored);
    EXPECT_EQ(nodeB().fs().readContents(fd_b), content);
}

TEST_F(DcsE2eTest, AesEncryptedTransferDecryptsAtReceiver)
{
    bringUp(true);
    auto content = test::randomBytes(200000, 25);
    const int fd = nodeA().fs().create("secret", content);
    sinkAtB();

    std::vector<std::uint8_t> aux(40);
    test::randomBytes(40, 26).swap(aux); // 32B key + 8B nonce

    bool done = false;
    nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                              ndp::Function::Aes256, aux, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    ASSERT_EQ(received.size(), content.size());
    EXPECT_NE(received, content) << "ciphertext on the wire";

    // Decrypt with the same key/nonce: CTR is an involution.
    std::uint64_t nonce = 0;
    for (int i = 0; i < 8; ++i)
        nonce |= std::uint64_t(aux[32 + i]) << (8 * i);
    ndp::Aes256Ctr ctr({aux.data(), 32}, nonce);
    EXPECT_EQ(ctr.transform(received), content);
}

TEST_F(DcsE2eTest, GzipCompressedTransferInflates)
{
    bringUp(true);
    // Compressible content (text-like repetition).
    std::vector<std::uint8_t> content(120000);
    for (std::size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<std::uint8_t>(
            "the quick brown fox jumps over the lazy dog "[i % 44]);
    const int fd = nodeA().fs().create("log.txt", content);
    sinkAtB();

    bool done = false;
    nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                              ndp::Function::Gzip, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_LT(received.size(), content.size() / 3)
        << "payload must be compressed on the wire";

    // The stream is per-chunk gzip members (64 KiB chunks): inflate
    // each member in sequence.
    std::vector<std::uint8_t> inflated;
    std::size_t pos = 0;
    while (pos < received.size()) {
        // Find the end of this member by inflating greedily: our
        // chunks are independent gzip files, so scan for next magic.
        std::size_t next = pos + 2;
        while (next + 1 < received.size() &&
               !(received[next] == 0x1f && received[next + 1] == 0x8b))
            ++next;
        if (next + 1 >= received.size())
            next = received.size();
        auto piece = ndp::gzipDecompress(
            {received.data() + pos, next - pos});
        inflated.insert(inflated.end(), piece.begin(), piece.end());
        pos = next;
    }
    EXPECT_EQ(inflated, content);
}

TEST_F(DcsE2eTest, GzipChunkOutputOverrunDies)
{
    // Random bytes do not compress: each 64 KiB chunk gzips to ~69 KB,
    // more than the engine chunk buffer its output lands in. Writing
    // it anyway would overwrite the neighbouring chunk.
    bringUp(true);
    auto content = test::randomBytes(4 * 65536, 5);
    const int fd = nodeA().fs().create("noise", content);
    sinkAtB();
    EXPECT_DEATH(
        {
            nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                                      ndp::Function::Gzip, {}, false,
                                      nullptr,
                                      [](const hdclib::D2dResult &) {});
            eq.run();
        },
        "gzip output of [0-9]+ B overruns its 65536 B chunk buffer");
}

TEST_F(DcsE2eTest, FragmentedFileSpansExtents)
{
    bringUp(true);
    // Force fragmentation by interleaving small allocations.
    auto &fs = nodeA().fs();
    std::vector<std::uint8_t> part = test::randomBytes(9000, 27);
    std::vector<std::uint8_t> all;
    fs.createEmpty("frag", 0); // placeholder name reservation
    std::vector<int> fds;
    for (int i = 0; i < 6; ++i) {
        auto piece = test::randomBytes(150000 + i * 1000, 30 + i);
        fds.push_back(
            fs.create("piece" + std::to_string(i), piece));
        fs.createEmpty("hole" + std::to_string(i), 8192);
    }
    // Send one of the middle pieces.
    const int fd = fds[3];
    auto content = fs.readContents(fd);
    sinkAtB();

    bool done = false;
    nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                              ndp::Function::Md5, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(received, content);
}

TEST_F(DcsE2eTest, ManyConcurrentCommands)
{
    bringUp(true);
    const int n = 24;
    std::vector<int> fds;
    std::vector<std::vector<std::uint8_t>> contents;
    std::vector<std::uint8_t> all;
    for (int i = 0; i < n; ++i) {
        contents.push_back(test::randomBytes(30000 + i * 777, 40 + i));
        fds.push_back(nodeA().fs().create("f" + std::to_string(i),
                                          contents.back()));
        all.insert(all.end(), contents.back().begin(),
                   contents.back().end());
    }
    sinkAtB();

    int done = 0;
    for (int i = 0; i < n; ++i)
        nodeA().hdcLib().sendFile(fds[i], connA->fd, 0,
                                  contents[i].size(),
                                  ndp::Function::Crc32, {}, true, nullptr,
                                  [&](const hdclib::D2dResult &) {
                                      ++done;
                                  });
    eq.run();
    EXPECT_EQ(done, n);
    EXPECT_EQ(received, all) << "stream order must follow command order";
}

TEST_F(DcsE2eTest, HostCpuBarelyTouchedByD2d)
{
    bringUp(true);
    auto content = test::randomBytes(4 << 20, 50);
    const int fd = nodeA().fs().create("big", content);
    sinkAtB();

    nodeA().host().cpu().beginWindow();
    bool done = false;
    nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                              ndp::Function::None, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    // 4 MiB moved with a handful of microseconds of CPU time.
    const double busy_us =
        nodeA().host().cpu().busy().total() / 1e6;
    EXPECT_LT(busy_us, 20.0);
    EXPECT_EQ(received, content);
}

} // namespace
} // namespace dcs
