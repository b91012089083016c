/**
 * @file
 * HDC Engine component tests: scoreboard scheduling, NDP pool
 * streaming, resource model, and engine pipelines on a single node.
 */
// dcslint: allow-file(callback-lifetime): the test drains the queue in the
// same stack frame, so by-reference captures of locals cannot dangle.

#include <gtest/gtest.h>

#include "fixtures.hh"
#include "hdc/scoreboard.hh"
#include "hdc/timing.hh"
#include "ndp/hash.hh"

namespace dcs {
namespace hdc {
namespace {

// ---------------------------------------------------------------------
// Scoreboard in isolation.
// ---------------------------------------------------------------------

class ScoreboardTest : public ::testing::Test
{
  protected:
    ScoreboardTest() : sb(eq, "sb", timing) {}

    /** Register a controller that completes after @p service time. */
    void
    autoController(DevClass dev, int slots, Tick service,
                   std::vector<std::uint32_t> *log = nullptr)
    {
        sb.registerController(
            dev,
            [this, service, log](const Entry &e) {
                if (log)
                    log->push_back(e.id);
                eq.schedule(service, [this, id = e.id] { sb.complete(id); });
            },
            slots);
    }

    EventQueue eq;
    HdcTiming timing;
    Scoreboard sb;
};

TEST_F(ScoreboardTest, DependenciesGateIssue)
{
    std::vector<std::uint32_t> order;
    autoController(DevClass::SsdCtrl, 8, microseconds(5), &order);
    autoController(DevClass::NicCtrl, 8, microseconds(5), &order);

    Entry read;
    read.cmdId = 1;
    read.dev = DevClass::SsdCtrl;
    const auto r = sb.addEntry(read);
    Entry send;
    send.cmdId = 1;
    send.dev = DevClass::NicCtrl;
    const auto s = sb.addEntry(send);
    sb.addDependency(r, s);
    sb.declareCommand(1, 2);

    bool cmd_done = false;
    sb.setCommandDone([&](std::uint32_t id) { cmd_done = id == 1; });
    sb.arm();
    eq.run();

    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], r);
    EXPECT_EQ(order[1], s);
    EXPECT_TRUE(cmd_done);
    EXPECT_EQ(sb.entriesLive(), 0u);
}

TEST_F(ScoreboardTest, SlotLimitThrottlesConcurrency)
{
    int in_flight = 0, peak = 0;
    sb.registerController(
        DevClass::SsdCtrl,
        [&](const Entry &e) {
            peak = std::max(peak, ++in_flight);
            eq.schedule(microseconds(10), [this, &in_flight, id = e.id] {
                --in_flight;
                sb.complete(id);
            });
        },
        3);

    sb.declareCommand(1, 10);
    for (int i = 0; i < 10; ++i) {
        Entry e;
        e.cmdId = 1;
        e.dev = DevClass::SsdCtrl;
        sb.addEntry(e);
    }
    sb.setCommandDone([](std::uint32_t) {});
    sb.arm();
    eq.run();
    EXPECT_EQ(peak, 3);
    EXPECT_EQ(sb.entriesIssued(), 10u);
}

TEST_F(ScoreboardTest, ChainedPipelineRunsInOrder)
{
    std::vector<std::uint32_t> order;
    autoController(DevClass::SsdCtrl, 8, microseconds(3), &order);
    autoController(DevClass::NdpUnit, 8, microseconds(1), &order);
    autoController(DevClass::NicCtrl, 8, microseconds(2), &order);

    // Three chunks: read_i -> ndp_i -> send_i, ndp and send chained.
    std::uint32_t prev_ndp = 0, prev_send = 0;
    std::vector<std::uint32_t> sends;
    sb.declareCommand(7, 9);
    for (int i = 0; i < 3; ++i) {
        Entry r;
        r.cmdId = 7;
        r.dev = DevClass::SsdCtrl;
        const auto rid = sb.addEntry(r);
        Entry n;
        n.cmdId = 7;
        n.dev = DevClass::NdpUnit;
        const auto nid = sb.addEntry(n);
        Entry s;
        s.cmdId = 7;
        s.dev = DevClass::NicCtrl;
        const auto sid = sb.addEntry(s);
        sb.addDependency(rid, nid);
        sb.addDependency(nid, sid);
        if (prev_ndp)
            sb.addDependency(prev_ndp, nid);
        if (prev_send)
            sb.addDependency(prev_send, sid);
        prev_ndp = nid;
        prev_send = sid;
        sends.push_back(sid);
    }
    bool done = false;
    sb.setCommandDone([&](std::uint32_t) { done = true; });
    sb.arm();
    eq.run();
    ASSERT_TRUE(done);
    // Sends must appear in chunk order.
    std::vector<std::uint32_t> send_order;
    for (auto id : order)
        if (std::find(sends.begin(), sends.end(), id) != sends.end())
            send_order.push_back(id);
    EXPECT_EQ(send_order, sends);
}

TEST_F(ScoreboardTest, SetEntryLenBeforeIssue)
{
    std::uint64_t seen_len = 0;
    sb.registerController(
        DevClass::NicCtrl,
        [&](const Entry &e) {
            seen_len = e.len;
            sb.complete(e.id);
        },
        4);
    autoController(DevClass::NdpUnit, 4, microseconds(1));

    Entry n;
    n.cmdId = 2;
    n.dev = DevClass::NdpUnit;
    const auto nid = sb.addEntry(n);
    Entry s;
    s.cmdId = 2;
    s.dev = DevClass::NicCtrl;
    s.len = 1000;
    const auto sid = sb.addEntry(s);
    sb.addDependency(nid, sid);
    sb.declareCommand(2, 2);
    sb.setCommandDone([](std::uint32_t) {});
    // Shrink the dependent before the producer completes.
    sb.setEntryLen(sid, 420);
    sb.arm();
    eq.run();
    EXPECT_EQ(seen_len, 420u);
}

// ---------------------------------------------------------------------
// Table III / Table IV resource model.
// ---------------------------------------------------------------------

TEST(NdpSpecs, TableIiiThroughputs)
{
    // Every NDP row's Table III figures: LUT%, REG%, clock, Gbps/unit.
    const struct
    {
        ndp::Function fn;
        double lutPct, regPct, maxClockMhz, perUnitGbps;
    } rows[] = {
        {ndp::Function::Md5, 3.00, 0.69, 130.0, 0.97},
        {ndp::Function::Sha1, 3.49, 1.13, 235.0, 1.10},
        {ndp::Function::Sha256, 4.28, 1.23, 130.0, 0.80},
        {ndp::Function::Crc32, 0.03, 0.01, 250.0, 10.0},
        {ndp::Function::Aes256, 3.52, 0.99, 250.0, 40.90},
        {ndp::Function::Gzip, 5.36, 2.09, 178.0, 100.0},
        {ndp::Function::Gunzip, 5.36, 2.09, 178.0, 100.0},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(ndp::functionName(row.fn));
        const auto &s = ndpSpec(row.fn);
        EXPECT_DOUBLE_EQ(s.lutPct, row.lutPct);
        EXPECT_DOUBLE_EQ(s.regPct, row.regPct);
        EXPECT_DOUBLE_EQ(s.maxClockMhz, row.maxClockMhz);
        EXPECT_DOUBLE_EQ(s.perUnitGbps, row.perUnitGbps);
    }
    // Units needed for 10 Gbps.
    EXPECT_EQ(ndpUnitsFor(ndp::Function::Md5), 11);
    EXPECT_EQ(ndpUnitsFor(ndp::Function::Sha1), 10);
    EXPECT_EQ(ndpUnitsFor(ndp::Function::Sha256), 13);
    EXPECT_EQ(ndpUnitsFor(ndp::Function::Aes256), 1);
    EXPECT_EQ(ndpUnitsFor(ndp::Function::Crc32), 1);
    EXPECT_EQ(ndpUnitsFor(ndp::Function::Gzip), 1);
}

TEST(Resources, TableIvBaseEngine)
{
    const auto r = baseEngineResources();
    EXPECT_EQ(r.luts, 116344u);
    EXPECT_EQ(r.regs, 91005u);
    EXPECT_EQ(r.brams, 442u);
    EXPECT_NEAR(100.0 * r.luts / virtex7Luts, 38.0, 0.5);
    EXPECT_NEAR(100.0 * r.regs / virtex7Regs, 15.0, 0.5);
    EXPECT_NEAR(100.0 * r.brams / virtex7Brams, 43.0, 0.5);
}

TEST(Resources, NdpUnitsFitBesideEngine)
{
    // Paper: the FPGA has enough remaining resources for NDP units.
    auto total = baseEngineResources();
    for (auto fn : {ndp::Function::Md5, ndp::Function::Aes256,
                    ndp::Function::Crc32, ndp::Function::Gzip}) {
        const auto r = ndpResources(fn);
        total.luts += r.luts;
        total.regs += r.regs;
    }
    EXPECT_LT(total.luts, virtex7Luts);
    EXPECT_LT(total.regs, virtex7Regs);
}

// ---------------------------------------------------------------------
// Engine pipelines on one DCS node (loopback via HdcBuffer endpoints).
// ---------------------------------------------------------------------

class EngineTest : public test::TwoNodeFixture
{
};

TEST_F(EngineTest, FileToBufferWithDigest)
{
    bringUp(true);
    auto content = test::randomBytes(200000, 11);
    const int fd = nodeA().fs().create("f", content);

    bool done = false;
    hdclib::D2dResult res;
    nodeA().hdcLib().readFileToBuffer(
        fd, 0, content.size(), 32ull << 20, ndp::Function::Sha256, {},
        true, nullptr, [&](const hdclib::D2dResult &r) {
            res = r;
            done = true;
        });
    eq.run();
    ASSERT_TRUE(done);

    // Bytes landed in engine DRAM at the requested offset.
    auto got = nodeA().engine().dram().readBytes(32ull << 20,
                                                 content.size());
    EXPECT_EQ(got, content);
    EXPECT_EQ(res.digest,
              ndp::makeHash("sha256")->oneShot(content));
}

TEST_F(EngineTest, BuffersAreRecycled)
{
    bringUp(true);
    auto content = test::randomBytes(1 << 20, 12);
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
    const auto &alloc = nodeA().engine().bufferAllocator();
    EXPECT_EQ(alloc.usedChunks(), 0u) << "all chunks returned";
    EXPECT_GT(alloc.peakUsed(), 0u);
    EXPECT_LT(alloc.peakUsed(), 64u) << "pipeline reuses buffers";
}

TEST_F(EngineTest, ScoreboardDrainsAndP2pDominates)
{
    bringUp(true);
    auto content = test::randomBytes(512 * 1024, 13);
    const int fd = nodeA().fs().create("f", content);
    sinkAtB();

    const std::uint64_t host_bytes_before =
        nodeA().host().bridge().hostDmaBytes();
    bool done = false;
    nodeA().hdcLib().sendFile(fd, connA->fd, 0, content.size(),
                              ndp::Function::Crc32, {}, true, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  done = true;
                              });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(received, content);
    EXPECT_EQ(nodeA().engine().scoreboard().entriesLive(), 0u);

    // The payload moved SSD -> HDC -> NIC without touching host DRAM.
    const std::uint64_t host_bytes =
        nodeA().host().bridge().hostDmaBytes() - host_bytes_before;
    EXPECT_LT(host_bytes, 8192u) << "only command/metadata traffic";
    EXPECT_GT(nodeA().fabric().p2pBytes(), content.size());
}

TEST_F(EngineTest, InOrderCompletionAcrossCommands)
{
    bringUp(true);
    // A big slow command (MD5-throttled) then a small fast one: the
    // engine must still notify in submission order.
    auto big = test::randomBytes(1 << 20, 14);
    auto small = test::randomBytes(4096, 15);
    const int fd_big = nodeA().fs().create("big", big);
    const int fd_small = nodeA().fs().create("small", small);
    sinkAtB();

    std::vector<int> completion_order;
    nodeA().hdcLib().sendFile(fd_big, connA->fd, 0, big.size(),
                              ndp::Function::Md5, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  completion_order.push_back(1);
                              });
    nodeA().hdcLib().sendFile(fd_small, connA->fd, 0, small.size(),
                              ndp::Function::None, {}, false, nullptr,
                              [&](const hdclib::D2dResult &) {
                                  completion_order.push_back(2);
                              });
    eq.run();
    ASSERT_EQ(completion_order.size(), 2u);
    EXPECT_EQ(completion_order[0], 1);
    EXPECT_EQ(completion_order[1], 2);
    // Stream bytes arrive in command order too.
    std::vector<std::uint8_t> expect = big;
    expect.insert(expect.end(), small.begin(), small.end());
    EXPECT_EQ(received, expect);
}

} // namespace
} // namespace hdc
} // namespace dcs
