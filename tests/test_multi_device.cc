/**
 * @file
 * Flexibility-path tests: multiple SSDs behind one HDC Engine
 * (disaggregate standard controllers, paper §III-C), SSD->SSD D2D
 * copies, and the in-order-completion ablation.
 */

#include <gtest/gtest.h>

#include "fixtures.hh"

namespace dcs {
namespace {

class MultiSsdTest : public ::testing::Test
{
  protected:
    void
    bringUp(int extra_ssds)
    {
        sys::NodeParams pa;
        pa.extraSsds = extra_ssds;
        sysm = std::make_unique<sys::TwoNodeSystem>(eq, pa,
                                                    sys::NodeParams{});
        bool a = false, b = false;
        sysm->nodeA().bringUpDcs([&] { a = true; });
        sysm->nodeB().bringUpHostStack([&] { b = true; });
        eq.run();
        ASSERT_TRUE(a && b);
    }

    sys::Node &nodeA() { return sysm->nodeA(); }

    EventQueue eq;
    std::unique_ptr<sys::TwoNodeSystem> sysm;
};

TEST_F(MultiSsdTest, EngineBindsAllControllers)
{
    bringUp(2);
    EXPECT_EQ(nodeA().ssdCount(), 3u);
    EXPECT_EQ(nodeA().engine().ssdCount(), 3u);
    // Each controller has its own queue pair in engine BRAM.
    EXPECT_NE(nodeA().engine().nvmeSqBus(0),
              nodeA().engine().nvmeSqBus(1));
    EXPECT_NE(nodeA().engine().nvmeSqBus(1),
              nodeA().engine().nvmeSqBus(2));
}

TEST_F(MultiSsdTest, CrossSsdCopyWithDigest)
{
    bringUp(1);
    auto content = test::randomBytes(700000, 61);
    const int src = nodeA().fs(0).create("src.bin", content);
    const int dst = nodeA().fs(1).createEmpty("dst.bin", content.size());

    bool done = false;
    hdclib::D2dResult res;
    nodeA().hdcLib().copyFile(src, dst, 0, 0, content.size(),
                              ndp::Function::Sha256, {}, true,
                              /*src_ssd=*/0, /*dst_ssd=*/1, nullptr,
                              [&](const hdclib::D2dResult &r) {
                                  res = r;
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(nodeA().fs(1).readContents(dst), content);
    EXPECT_EQ(res.digest,
              ndp::makeHash("sha256")->oneShot(content));
    // Both controllers did real work.
    EXPECT_GT(nodeA().engine().nvmeCtrl(0).commandsIssued(), 0u);
    EXPECT_GT(nodeA().engine().nvmeCtrl(1).commandsIssued(), 0u);
}

TEST_F(MultiSsdTest, CopyNeverTouchesHostDram)
{
    bringUp(1);
    auto content = test::randomBytes(2 << 20, 62);
    const int src = nodeA().fs(0).create("big.bin", content);
    const int dst = nodeA().fs(1).createEmpty("copy.bin", content.size());

    const std::uint64_t host_before =
        nodeA().host().bridge().hostDmaBytes();
    bool done = false;
    nodeA().hdcLib().copyFile(src, dst, 0, 0, content.size(),
                              ndp::Function::None, {}, false, 0, 1,
                              nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(nodeA().fs(1).readContents(dst), content);
    EXPECT_LT(nodeA().host().bridge().hostDmaBytes() - host_before,
              8192u);
}

TEST_F(MultiSsdTest, SameSsdCopy)
{
    bringUp(0);
    auto content = test::randomBytes(300000, 63);
    const int src = nodeA().fs().create("orig", content);
    const int dst = nodeA().fs().createEmpty("dup", content.size());

    bool done = false;
    nodeA().hdcLib().copyFile(src, dst, 0, 0, content.size(),
                              ndp::Function::None, {}, false, 0, 0,
                              nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(nodeA().fs().readContents(dst), content);
    EXPECT_EQ(nodeA().fs().readContents(src), content)
        << "source untouched";
}

TEST_F(MultiSsdTest, ParallelSsdsOutpaceOne)
{
    // Aggregate write bandwidth should scale with controller count:
    // two copies to two different SSDs finish faster than two copies
    // to the same SSD.
    auto run_pair = [&](int dst_a, int dst_b) {
        bringUp(2);
        auto content = test::randomBytes(4 << 20, 64);
        const int s1 = nodeA().fs(0).create("s1", content);
        const int s2 = nodeA().fs(0).create("s2", content);
        const int d1 = nodeA()
                           .fs(static_cast<std::size_t>(dst_a))
                           .createEmpty("d1", content.size());
        const int d2 = nodeA()
                           .fs(static_cast<std::size_t>(dst_b))
                           .createEmpty("d2", content.size());
        int done = 0;
        const Tick start = eq.now();
        Tick end = 0;
        auto cb = [&](const hdclib::D2dResult &) {
            if (++done == 2)
                end = eq.now();
        };
        nodeA().hdcLib().copyFile(s1, d1, 0, 0, content.size(),
                                  ndp::Function::None, {}, false, 0,
                                  static_cast<std::uint8_t>(dst_a),
                                  nullptr, cb);
        nodeA().hdcLib().copyFile(s2, d2, 0, 0, content.size(),
                                  ndp::Function::None, {}, false, 0,
                                  static_cast<std::uint8_t>(dst_b),
                                  nullptr, cb);
        eq.run();
        EXPECT_EQ(done, 2);
        return end - start;
    };

    const Tick same = run_pair(1, 1);
    const Tick split = run_pair(1, 2);
    EXPECT_LT(split, same)
        << "independent write media should overlap";
}

class CompletionOrderTest : public test::TwoNodeFixture
{
};

TEST_F(CompletionOrderTest, OutOfOrderAblationUnblocksSmallCommands)
{
    // A slow MD5-bound command followed by a tiny plain one: with the
    // paper's in-order notification the small one waits; with the
    // ablation it completes first.
    auto run_once = [&](bool in_order) {
        sys::NodeParams pa;
        sys = std::make_unique<sys::TwoNodeSystem>(eq, pa,
                                                   sys::NodeParams{});
        bool up_a = false, up_b = false;
        // Patch the config through a custom driver bring-up: the knob
        // lives in HdcDeviceConfig, which HdcDriver fills — so tweak
        // the engine's copy after init via configureDevices is not
        // possible; instead rebuild with a param patch.
        nodeA().bringUpDcs([&] { up_a = true; });
        nodeB().bringUpHostStack([&] { up_b = true; });
        eq.run();
        EXPECT_TRUE(up_a && up_b);
        if (!in_order) {
            // Flip the engine's ordering knob (modelled config bit).
            nodeA().engine().setInOrderCompletion(false);
        }
        // Two connections: TCP byte-stream ordering legitimately
        // chains same-connection sends, so the ablation is visible
        // only across independent flows.
        host::ConnPairParams cp1, cp2;
        cp2.portA = 9100;
        cp2.portB = 40100;
        auto [ca1, cb1] = host::establishPair(nodeA().tcp(),
                                              nodeB().tcp(), cp1);
        auto [ca2, cb2] = host::establishPair(nodeA().tcp(),
                                              nodeB().tcp(), cp2);
        cb1->onPayload = [](std::uint32_t, BufChain) {};
        cb2->onPayload = [](std::uint32_t, BufChain) {};

        auto big = test::randomBytes(1 << 20, 65);
        auto small = test::randomBytes(4096, 66);
        const int fd_big = nodeA().fs().create("big", big);
        const int fd_small = nodeA().fs().create("small", small);

        std::vector<int> order;
        nodeA().hdcLib().sendFile(fd_big, ca1->fd, 0, big.size(),
                                  ndp::Function::Md5, {}, false, nullptr,
                                  [&](const hdclib::D2dResult &) {
                                      order.push_back(1);
                                  });
        nodeA().hdcLib().sendFile(fd_small, ca2->fd, 0, small.size(),
                                  ndp::Function::None, {}, false,
                                  nullptr,
                                  [&](const hdclib::D2dResult &) {
                                      order.push_back(2);
                                  });
        eq.run();
        EXPECT_EQ(order.size(), 2u);
        return order;
    };

    const auto strict = run_once(true);
    EXPECT_EQ(strict.front(), 1) << "paper semantics: in order";
    const auto relaxed = run_once(false);
    EXPECT_EQ(relaxed.front(), 2)
        << "ablation: the small command no longer waits";
}

TEST_F(CompletionOrderTest, RelaxedOrderRetiresTwoQueuesPastASlowCommand)
{
    // With the ablation on, 128 small CRC32 commands, issued one after
    // another, retire past one slow MD5 command: their ids wrap the
    // 64-entry command-slot window twice around the live one.
    bringUp(true);
    nodeA().engine().setInOrderCompletion(false);
    host::ConnPairParams cp;
    cp.portA = 9100;
    cp.portB = 40100;
    auto [ca2, cb2] =
        host::establishPair(nodeA().tcp(), nodeB().tcp(), cp);
    sinkAtB();
    std::vector<std::uint8_t> small_rx;
    cb2->onPayload = [&](std::uint32_t, BufChain p) {
        const auto bytes = p.toVector();
        small_rx.insert(small_rx.end(), bytes.begin(), bytes.end());
    };

    const auto big = test::randomBytes(4 << 20, 67);
    const auto small = test::randomBytes(4096, 68);
    const int fd_big = nodeA().fs().create("big", big);
    const int fd_small = nodeA().fs().create("small", small);
    const auto small_crc = ndp::makeHash("crc32")->oneShot(small);
    const int n_small = 128;

    int small_done = 0, small_before_big = 0, bad_digests = 0;
    bool big_done = false;
    std::vector<std::uint8_t> big_digest;
    std::function<void()> next_small = [&] {
        nodeA().hdcLib().sendFile(
            fd_small, ca2->fd, 0, small.size(), ndp::Function::Crc32, {},
            true, nullptr, [&](const hdclib::D2dResult &r) {
                EXPECT_EQ(r.status, 0u);
                if (r.digest != small_crc)
                    ++bad_digests;
                if (!big_done)
                    ++small_before_big;
                if (++small_done < n_small)
                    next_small();
            });
    };
    nodeA().hdcLib().sendFile(fd_big, connA->fd, 0, big.size(),
                              ndp::Function::Md5, {}, true, nullptr,
                              [&](const hdclib::D2dResult &r) {
                                  EXPECT_EQ(r.status, 0u);
                                  big_digest = r.digest;
                                  big_done = true;
                              });
    next_small();
    eq.run();

    ASSERT_TRUE(big_done);
    ASSERT_EQ(small_done, n_small);
    EXPECT_EQ(small_before_big, n_small) << "the slow command must stay "
                                            "live across the whole run";
    EXPECT_EQ(bad_digests, 0);
    EXPECT_EQ(big_digest, ndp::makeHash("md5")->oneShot(big));
    EXPECT_EQ(received, big);
    EXPECT_EQ(small_rx.size(), small.size() * n_small);
    EXPECT_TRUE(nodeA().engine().checkQuiesce());
}

} // namespace
} // namespace dcs
