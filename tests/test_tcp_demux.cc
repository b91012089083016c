/**
 * @file
 * TCP receive-demux and teardown tests: duplicate flow keys resolve
 * deterministically (first-established wins, earliest survivor
 * promoted on close), and closing a connection mid-send aborts the
 * rest of the write without touching freed state.
 */
// dcslint: allow-file(callback-lifetime): the test drains the queue in the
// same stack frame, so by-reference captures of locals cannot dangle.

#include <gtest/gtest.h>

#include "fixtures.hh"

namespace dcs {
namespace {

class TcpDemuxTest : public test::TwoNodeFixture
{
};

TEST_F(TcpDemuxTest, DuplicateFlowKeyDeliversToFirstEstablished)
{
    bringUp(false);
    // A second pair on the SAME ports: both B-side connections have
    // an identical flow key. Delivery must go to whichever was
    // established first — by rule, not by container iteration order.
    auto [ca2, cb2] =
        host::establishPair(nodeA().tcp(), nodeB().tcp());

    std::uint64_t to_first = 0, to_second = 0;
    connB->onPayload = [&](std::uint32_t, BufChain p) {
        to_first += p.size();
    };
    cb2->onPayload = [&](std::uint32_t, BufChain p) {
        to_second += p.size();
    };

    const std::uint32_t len = 3000;
    const Addr buf = nodeA().host().allocDma(len);
    bool sent = false;
    nodeA().tcp().send(*connA, buf, len, 1448, nullptr,
                       [&] { sent = true; });
    eq.run();

    ASSERT_TRUE(sent);
    EXPECT_EQ(to_first, len);
    EXPECT_EQ(to_second, 0u);
    EXPECT_EQ(nodeB().tcp().framesUnmatched(), 0u);

    // Sending on the *second* A-side connection also lands on the
    // first-established B-side connection: receive demux keys on the
    // endpoint pair, which both connections share.
    sent = false;
    nodeA().tcp().send(*ca2, buf, len, 1448, nullptr,
                       [&] { sent = true; });
    eq.run();
    ASSERT_TRUE(sent);
    EXPECT_EQ(to_first, 2 * std::uint64_t{len});
    EXPECT_EQ(to_second, 0u);
}

TEST_F(TcpDemuxTest, CloseVictimPromotesEarliestSurvivor)
{
    bringUp(false);
    auto [ca2, cb2] =
        host::establishPair(nodeA().tcp(), nodeB().tcp());
    (void)ca2;

    std::uint64_t to_second = 0;
    cb2->onPayload = [&](std::uint32_t, BufChain p) {
        to_second += p.size();
    };

    ASSERT_EQ(nodeB().tcp().connectionCount(), 2u);
    const int victim_fd = connB->fd; // close() frees connB
    connB = nullptr;
    ASSERT_TRUE(nodeB().tcp().close(victim_fd));
    EXPECT_EQ(nodeB().tcp().connectionCount(), 1u);
    // Double-close reports failure instead of corrupting state.
    EXPECT_FALSE(nodeB().tcp().close(victim_fd));

    const std::uint32_t len = 2000;
    const Addr buf = nodeA().host().allocDma(len);
    bool sent = false;
    nodeA().tcp().send(*connA, buf, len, 1448, nullptr,
                       [&] { sent = true; });
    eq.run();

    ASSERT_TRUE(sent);
    EXPECT_EQ(to_second, len);
    EXPECT_EQ(nodeB().tcp().framesUnmatched(), 0u);
}

TEST_F(TcpDemuxTest, FrameForClosedConnectionCountsUnmatched)
{
    bringUp(false);
    sinkAtB();
    ASSERT_TRUE(nodeB().tcp().close(connB->fd));
    connB = nullptr;

    const std::uint32_t len = 1000;
    const Addr buf = nodeA().host().allocDma(len);
    bool sent = false;
    nodeA().tcp().send(*connA, buf, len, 1448, nullptr,
                       [&] { sent = true; });
    eq.run();

    ASSERT_TRUE(sent); // send-side completion is local to A
    EXPECT_EQ(received.size(), 0u);
    EXPECT_GE(nodeB().tcp().framesUnmatched(), 1u);
}

TEST_F(TcpDemuxTest, CloseDuringMultiPassSendAbortsQuietly)
{
    bringUp(false);
    sinkAtB();

    // 200000 bytes = four GSO passes through the stack. Close the
    // sending connection while the write is in flight: the fd-based
    // continuation must drop the remainder instead of touching the
    // freed connection.
    const std::uint32_t len = 200000;
    const Addr buf = nodeA().host().allocDma(len);
    bool done = false;
    nodeA().tcp().send(*connA, buf, len, 8192, nullptr,
                       [&] { done = true; });
    const int fd = connA->fd;
    eq.schedule(microseconds(50), [&, fd] {
        ASSERT_TRUE(nodeA().tcp().close(fd));
        connA = nullptr;
    });
    eq.run();

    EXPECT_FALSE(done) << "aborted send must not report completion";
    EXPECT_LT(received.size(), len);
    EXPECT_EQ(nodeA().tcp().connectionCount(), 0u);
}

} // namespace
} // namespace dcs
