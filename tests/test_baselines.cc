/**
 * @file
 * Baseline datapath tests: functional correctness of the software
 * designs plus the cross-design performance orderings the paper's
 * evaluation rests on.
 */

#include <gtest/gtest.h>

#include "fixtures.hh"
#include "ndp/deflate.hh"

namespace dcs {
namespace {

class BaselineTest : public test::TwoNodeFixture
{
  protected:
    std::unique_ptr<baselines::DataPath>
    makePath(const std::string &design, sys::Node &node)
    {
        if (design == "sw-opt")
            return std::make_unique<baselines::SwOptimizedPath>(node);
        if (design == "sw-p2p")
            return std::make_unique<baselines::SwP2pPath>(node);
        if (design == "dcs-ctrl")
            return std::make_unique<baselines::DcsCtrlPath>(node);
        ADD_FAILURE() << "unknown design " << design;
        return nullptr;
    }
};

class DesignSendTest
    : public BaselineTest,
      public ::testing::WithParamInterface<
          std::tuple<std::string, std::string>>
{
};

TEST_P(DesignSendTest, SendFileDeliversBytesAndDigest)
{
    const auto [design, algo] = GetParam();
    const bool dcs = design == "dcs-ctrl";
    bringUp(dcs);
    auto path = makePath(design, nodeA());

    auto content = test::randomBytes(250000, 31);
    const int fd = nodeA().fs().create("obj", content);
    sinkAtB();

    bool done = false;
    baselines::PathResult res;
    path->sendFile(fd, connA->fd, 0, content.size(),
                   ndp::functionFromName(algo), {}, nullptr,
                   [&](const baselines::PathResult &r) {
                       res = r;
                       done = true;
                   });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(received, content);
    EXPECT_EQ(res.digest, ndp::makeHash(algo)->oneShot(content));
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndAlgos, DesignSendTest,
    ::testing::Combine(::testing::Values("sw-opt", "sw-p2p", "dcs-ctrl"),
                       ::testing::Values("md5", "crc32", "sha1",
                                         "sha256")));

TEST_F(BaselineTest, GpuOutputOverrunningItsStagingSlotDies)
{
    // 17 MiB of zeros gzip to ~110 KB; inflating them on the GPU would
    // spill past the 16 MiB output half of the staging slot.
    const auto packed =
        ndp::gzipCompress(std::vector<std::uint8_t>(17u << 20, 0));
    bringUp(false);
    auto path = makePath("sw-opt", nodeA());
    const int fd = nodeA().fs().create("zeros.gz", packed);
    sinkAtB();
    EXPECT_DEATH(
        {
            path->sendFile(fd, connA->fd, 0, packed.size(),
                           ndp::Function::Gunzip, {}, nullptr,
                           [](const baselines::PathResult &) {});
            eq.run();
        },
        "gunzip output of [0-9]+ B overruns its 16777216 B GPU staging");
}

class DesignRecvTest : public BaselineTest,
                       public ::testing::WithParamInterface<std::string>
{
};

TEST_P(DesignRecvTest, ReceiveToFileStoresBytes)
{
    const std::string design = GetParam();
    const bool dcs = design == "dcs-ctrl";
    bringUp(false, dcs);
    auto path = makePath(design, nodeB());

    auto content = test::randomBytes(180000, 32);
    const int fd = nodeB().fs().createEmpty("in", content.size());

    bool stored = false;
    baselines::PathResult res;
    path->receiveToFile(connB->fd, fd, 0, content.size(),
                        ndp::Function::Crc32, {}, nullptr,
                        [&](const baselines::PathResult &r) {
                            res = r;
                            stored = true;
                        });
    eq.run();

    const Addr buf = nodeA().host().allocDma(content.size());
    nodeA().host().dram().write(nodeA().host().dramOffset(buf),
                                content.data(), content.size());
    nodeA().tcp().send(*connA, buf,
                       static_cast<std::uint32_t>(content.size()), 8192,
                       nullptr, {});
    eq.run();

    ASSERT_TRUE(stored);
    EXPECT_EQ(nodeB().fs().readContents(fd), content);
    EXPECT_EQ(res.digest,
              ndp::makeHash("crc32")->oneShot(content));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignRecvTest,
                         ::testing::Values("sw-opt", "sw-p2p",
                                           "dcs-ctrl"));

/** The orderings the paper's Fig. 11 relies on. */
class OrderingTest : public BaselineTest
{
  protected:
    /** Latency of one sendFile under the given design. */
    Tick
    measure(const std::string &design, ndp::Function fn,
            std::size_t size, host::TracePtr *trace_out = nullptr)
    {
        bringUp(design == "dcs-ctrl");
        received.clear();
        auto path = makePath(design, nodeA());
        auto content = test::randomBytes(size, 33);
        const int fd = nodeA().fs().create("obj", content);
        sinkAtB();
        auto trace = host::makeTrace();
        const Tick start = eq.now();
        Tick end = 0;
        path->sendFile(fd, connA->fd, 0, content.size(), fn, {}, trace,
                       [&](const baselines::PathResult &) {
                           end = eq.now();
                       });
        eq.run();
        EXPECT_EQ(received, content);
        if (trace_out)
            *trace_out = trace;
        return end - start;
    }
};

TEST_F(OrderingTest, DcsBeatsSoftwareOnPlainSend)
{
    for (std::size_t size : {std::size_t(4096), std::size_t(65536)}) {
        const Tick dcs = measure("dcs-ctrl", ndp::Function::None, size);
        const Tick swo = measure("sw-opt", ndp::Function::None, size);
        EXPECT_LT(dcs, swo) << "size " << size;
    }
}

TEST_F(OrderingTest, HashedSendOrderingMatchesPaper)
{
    // SSD->Processing->NIC at the paper's 4 KiB per-command transfer
    // size (§IV-C): sw-opt > sw-p2p > dcs (Fig. 11b shape).
    const Tick dcs = measure("dcs-ctrl", ndp::Function::Md5, 4096);
    const Tick swp = measure("sw-p2p", ndp::Function::Md5, 4096);
    const Tick swo = measure("sw-opt", ndp::Function::Md5, 4096);
    EXPECT_LT(swp, swo) << "P2P removes staging copies";
    EXPECT_LT(dcs, swp) << "HW control path removes software latency";
}

TEST_F(OrderingTest, NdpStreamingTradeoffAtLargeSizes)
{
    // A single 64 KiB stream is MD5-throughput-bound on one NDP unit
    // (0.97 Gbps, Table III), so DCS-ctrl's *total* latency can trail
    // the GPU's — but its software latency stays near zero. This is
    // a faithful consequence of the paper's per-unit figures; the
    // throughput experiments recover the win through unit-level
    // parallelism across streams.
    host::TracePtr dcs_trace, swp_trace;
    const Tick dcs = measure("dcs-ctrl", ndp::Function::Md5, 65536,
                             &dcs_trace);
    (void)dcs;
    measure("sw-p2p", ndp::Function::Md5, 65536, &swp_trace);
    const double dcs_sw = dcs_trace->get(host::LatComp::FileSystem) +
                          dcs_trace->get(host::LatComp::DeviceControl) +
                          dcs_trace->get(host::LatComp::RequestCompletion);
    const double swp_sw = swp_trace->get(host::LatComp::FileSystem) +
                          swp_trace->get(host::LatComp::DeviceControl) +
                          swp_trace->get(host::LatComp::NetworkStack) +
                          swp_trace->get(host::LatComp::GpuControl) +
                          swp_trace->get(host::LatComp::RequestCompletion);
    EXPECT_LT(dcs_sw, 0.5 * swp_sw);
}

TEST_F(OrderingTest, DcsSoftwareComponentsNearZero)
{
    host::TracePtr dcs_trace, swp_trace;
    measure("dcs-ctrl", ndp::Function::Md5, 4096, &dcs_trace);
    measure("sw-p2p", ndp::Function::Md5, 4096, &swp_trace);

    auto software = [](const host::TracePtr &t) {
        using host::LatComp;
        return t->get(LatComp::FileSystem) +
               t->get(LatComp::DeviceControl) +
               t->get(LatComp::NetworkStack) +
               t->get(LatComp::RequestCompletion) +
               t->get(LatComp::GpuControl) + t->get(LatComp::GpuCopy) +
               t->get(LatComp::DataCopy);
    };
    // Paper: DCS-ctrl reduces software latency by 72% (with NDP).
    EXPECT_LT(software(dcs_trace), 0.45 * software(swp_trace));
}

TEST_F(OrderingTest, P2pMovesFewerHostBytes)
{
    bringUp(false);
    auto content = test::randomBytes(1 << 20, 34);
    const int fd = nodeA().fs().create("obj", content);
    sinkAtB();

    auto run_one = [&](baselines::DataPath &p) {
        const std::uint64_t before =
            nodeA().host().bridge().hostDmaBytes();
        bool done = false;
        p.sendFile(fd, connA->fd, 0, content.size(), ndp::Function::Md5,
                   {}, nullptr,
                   [&](const baselines::PathResult &) { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        return nodeA().host().bridge().hostDmaBytes() - before;
    };

    baselines::SwOptimizedPath swo(nodeA());
    baselines::SwP2pPath swp(nodeA());
    const std::uint64_t host_bytes_swo = run_one(swo);
    const std::uint64_t host_bytes_swp = run_one(swp);
    // sw-opt stages through host DRAM at least twice (SSD->host,
    // host->GPU); sw-p2p keeps the payload off the host entirely.
    EXPECT_GT(host_bytes_swo, 2 * content.size());
    EXPECT_LT(host_bytes_swp, content.size() / 4);
}

} // namespace
} // namespace dcs
