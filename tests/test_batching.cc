/**
 * @file
 * Control-path batching tests: doorbell write batching, MSI
 * coalescing, admission control, and the open-loop load generator.
 *
 * The central contract is that every knob at 0 is byte-identical to
 * the pre-batching control path (pinned digests below); with knobs on
 * the data plane stays byte-correct while MMIO writes and interrupts
 * drop multiplicatively.
 */

#include <gtest/gtest.h>

#include <map>

#include "fixtures.hh"
#include "hdc/scoreboard.hh"
#include "pcie/doorbell.hh"
#include "workload/experiment.hh"
#include "workload/loadgen.hh"

namespace dcs {
namespace {

// ---------------------------------------------------------------------
// DoorbellBatcher: the shared batching primitive.
// ---------------------------------------------------------------------

struct BatcherHarness
{
    EventQueue eq;
    pcie::DoorbellBatcher db;
    std::vector<std::pair<std::uint32_t, Tick>> writes;

    explicit BatcherHarness(std::uint32_t max, Tick holdoff)
    {
        db.configure(
            max, holdoff,
            [this](std::uint32_t v, std::uint64_t) {
                writes.emplace_back(v, eq.now());
            },
            [this](Tick d, std::function<void()> fn) {
                eq.schedule(d, std::move(fn));
            });
    }
};

TEST(DoorbellBatcher, DisabledWritesThroughImmediately)
{
    BatcherHarness h(0, 0);
    h.db.post(1, 0);
    h.db.post(2, 0);
    h.db.post(3, 0);
    ASSERT_EQ(h.writes.size(), 3u);
    EXPECT_EQ(h.writes[2].first, 3u);
    EXPECT_EQ(h.db.updatesPosted(), 3u);
    EXPECT_EQ(h.db.mmioWrites(), 3u);
}

TEST(DoorbellBatcher, ThresholdFlushWritesOnlyNewestValue)
{
    BatcherHarness h(4, milliseconds(10));
    for (std::uint32_t v = 1; v <= 4; ++v)
        h.db.post(v, 0);
    // Producer doorbells are idempotent: one write of the newest tail
    // commits all four updates.
    ASSERT_EQ(h.writes.size(), 1u);
    EXPECT_EQ(h.writes[0].first, 4u);
    EXPECT_EQ(h.db.updatesPosted(), 4u);
    EXPECT_EQ(h.db.mmioWrites(), 1u);
    // The armed holdoff timer finds nothing pending and stays silent.
    h.eq.run();
    EXPECT_EQ(h.db.mmioWrites(), 1u);
}

TEST(DoorbellBatcher, HoldoffSweepsStragglers)
{
    BatcherHarness h(4, microseconds(10));
    h.db.post(1, 0);
    h.db.post(2, 0);
    EXPECT_TRUE(h.writes.empty());
    h.eq.run();
    ASSERT_EQ(h.writes.size(), 1u);
    EXPECT_EQ(h.writes[0].first, 2u);
    EXPECT_EQ(h.writes[0].second, microseconds(10));
}

TEST(DoorbellBatcher, RearmsAfterHoldoffFlush)
{
    BatcherHarness h(8, microseconds(5));
    h.db.post(1, 0);
    h.eq.run();
    ASSERT_EQ(h.writes.size(), 1u);
    h.db.post(2, 0);
    h.eq.run();
    ASSERT_EQ(h.writes.size(), 2u);
    EXPECT_EQ(h.writes[1].first, 2u);
    EXPECT_EQ(h.db.mmioWrites(), 2u);
}

// ---------------------------------------------------------------------
// Knobs-off digest pins: with every batching/admission knob at its
// default 0, the full fig11 pipeline must replay the pre-batching
// event stream bit-for-bit — same digest, same event count, same end
// time. These constants were captured on the tree immediately before
// the batching changes landed.
// ---------------------------------------------------------------------

struct RunDigest
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    Tick end = 0;
};

RunDigest
pipelineDigest(ndp::Function fn)
{
    workload::Testbed tb(workload::Design::DcsCtrl);
    TraceHasher th;
    th.attach(tb.eq());

    auto [ca, cb] = tb.connect();
    cb->onPayload = [](std::uint32_t, BufChain) {};

    const auto content = test::randomBytes(256 * 1024, 7);
    const int fd = tb.nodeA().fs().create("obj", content);

    bool done = false;
    tb.pathA().sendFile(fd, ca->fd, 0, content.size(), fn, {}, nullptr,
                        [&](const baselines::PathResult &) {
                            done = true;
                        });
    tb.eq().run();
    EXPECT_TRUE(done);
    return {th.digest(), th.events(), tb.eq().now()};
}

TEST(ControlPathBatching, DisabledKnobsPreserveLegacyDigestPlain)
{
    const RunDigest d = pipelineDigest(ndp::Function::None);
    EXPECT_EQ(d.digest, 7416525884348190748ull)
        << "knobs-off control path diverged from the pre-batching tree";
    EXPECT_EQ(d.events, 620ull);
    EXPECT_EQ(d.end, 441434854ull);
}

TEST(ControlPathBatching, DisabledKnobsPreserveLegacyDigestCrc32)
{
    const RunDigest d = pipelineDigest(ndp::Function::Crc32);
    EXPECT_EQ(d.digest, 3439977895646111129ull)
        << "knobs-off control path diverged from the pre-batching tree";
    EXPECT_EQ(d.events, 634ull);
    EXPECT_EQ(d.end, 499620622ull);
}

// ---------------------------------------------------------------------
// MSI coalescing and batching end-to-end on the DCS path.
// ---------------------------------------------------------------------

/** Testbed with batching knobs on and one payload sink per conn. */
struct BatchedRun
{
    workload::Testbed tb;
    std::map<int, std::vector<std::uint8_t>> received;
    std::map<int, std::uint32_t> statuses;
    int completions = 0;

    explicit BatchedRun(sys::NodeParams pa)
        : tb(workload::Design::DcsCtrl, false, pa)
    {
    }

    /** Issue one GET of @p content over its own connection. */
    void
    get(int idx, const std::vector<std::uint8_t> &content)
    {
        auto [ca, cb] = tb.connect(static_cast<std::uint16_t>(idx));
        cb->onPayload = [this, idx](std::uint32_t, BufChain p) {
            const auto bytes = p.toVector();
            auto &sink = received[idx];
            sink.insert(sink.end(), bytes.begin(), bytes.end());
        };
        const int fd = tb.nodeA().fs().create("o" + std::to_string(idx),
                                              content);
        tb.pathA().sendFile(fd, ca->fd, 0, content.size(),
                            ndp::Function::None, {}, nullptr,
                            [this, idx](const baselines::PathResult &r) {
                                statuses[idx] = r.status;
                                ++completions;
                            });
    }
};

sys::NodeParams
batchedParams()
{
    sys::NodeParams pa;
    pa.hdc.doorbellBatch = 4;
    pa.hdc.doorbellHoldoff = microseconds(5);
    pa.hdc.msiCoalesce = 4;
    pa.hdc.msiHoldoff = milliseconds(5);
    pa.hdc.maxActiveCmds = 16;
    pa.hdc.maxLiveEntries = 256;
    return pa;
}

TEST(MsiCoalescing, ThresholdFlushCoversABurstWithOneInterrupt)
{
    BatchedRun run(batchedParams());
    run.tb.nodeA().hdcDriver().setDoorbellBatch(4, microseconds(5));

    const auto content = test::randomBytes(16 * 1024, 5);
    for (int i = 0; i < 4; ++i)
        run.get(i, content);
    run.tb.eq().run();

    ASSERT_EQ(run.completions, 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(run.statuses[i], 0u);
        EXPECT_EQ(run.received[i], content) << "conn " << i;
    }
    // All four completions land inside the 5 ms holdoff, so the
    // window fills and exactly one threshold-flush MSI covers them;
    // the armed holdoff timer then fires over an empty ring and must
    // stay silent (no interrupt, no spurious driver drain).
    EXPECT_EQ(run.tb.nodeA().engine().interruptsRaised(), 1u);
    EXPECT_EQ(run.tb.nodeA().engine().commandsCompleted(), 4u);
}

TEST(MsiCoalescing, HoldoffFlushesTheLastCompletionAtQuiesce)
{
    sys::NodeParams pa = batchedParams();
    pa.hdc.msiHoldoff = microseconds(50);
    BatchedRun run(pa);

    // A single request never fills the window: only the holdoff timer
    // delivers its completion. Termination proves the flush happened.
    const auto content = test::randomBytes(16 * 1024, 6);
    run.get(0, content);
    run.tb.eq().run();

    ASSERT_EQ(run.completions, 1);
    EXPECT_EQ(run.statuses[0], 0u);
    EXPECT_EQ(run.received[0], content);
    EXPECT_EQ(run.tb.nodeA().engine().interruptsRaised(), 1u);
}

TEST(MsiCoalescing, BatchedPathMovesCorrectBytesUnderLoad)
{
    BatchedRun run(batchedParams());
    run.tb.nodeA().hdcDriver().setDoorbellBatch(4, microseconds(5));

    // Distinct payloads so cross-wiring between connections would be
    // caught, enough requests for several coalescing windows.
    std::vector<std::vector<std::uint8_t>> contents;
    for (int i = 0; i < 10; ++i)
        contents.push_back(test::randomBytes(
            8 * 1024 + 512 * static_cast<std::size_t>(i),
            100 + static_cast<std::uint64_t>(i)));
    for (int i = 0; i < 10; ++i)
        run.get(i, contents[static_cast<std::size_t>(i)]);
    run.tb.eq().run();

    ASSERT_EQ(run.completions, 10);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(run.statuses[i], 0u);
        EXPECT_EQ(run.received[i], contents[static_cast<std::size_t>(i)])
            << "conn " << i;
    }
    const auto &engine = run.tb.nodeA().engine();
    EXPECT_LT(engine.interruptsRaised(), engine.commandsCompleted());
    // Host-side command doorbells batched too.
    EXPECT_LT(run.tb.nodeA().hdcDriver().doorbellWrites(),
              run.tb.nodeA().hdcDriver().commandsSubmitted());
}

// ---------------------------------------------------------------------
// Admission control: overload completes as 429, not as silent queueing.
// ---------------------------------------------------------------------

TEST(AdmissionControl, EngineRejectsBeyondActiveCommandBound)
{
    sys::NodeParams pa;
    pa.hdc.maxActiveCmds = 2;
    BatchedRun run(pa);
    run.tb.nodeA().hdcDriver().setRejectOnFull(true);

    const auto content = test::randomBytes(16 * 1024, 9);
    for (int i = 0; i < 6; ++i)
        run.get(i, content);
    run.tb.eq().run();

    ASSERT_EQ(run.completions, 6);
    int ok = 0, rejected = 0;
    for (int i = 0; i < 6; ++i) {
        if (run.statuses[i] == 0) {
            ++ok;
            EXPECT_EQ(run.received[i], content) << "conn " << i;
        } else {
            EXPECT_EQ(run.statuses[i], 429u) << "conn " << i;
            ++rejected;
            EXPECT_TRUE(run.received[i].empty()) << "conn " << i;
        }
    }
    EXPECT_GE(ok, 2);
    EXPECT_GE(rejected, 1);
    EXPECT_EQ(run.tb.nodeA().engine().commandsRejected(),
              static_cast<std::uint64_t>(rejected));
    // Rejected commands must leave no residue: after the drain the
    // engine's pooled command records, scoreboard slots, NDP streams
    // and buffer chunks all audit to exactly zero.
    EXPECT_TRUE(run.tb.nodeA().engine().checkQuiesce());
}

TEST(AdmissionControl, DriverRejectsLocallyWhenCommandQueueIsFull)
{
    // No engine bounds: overflow the driver's own 63-outstanding
    // command queue. With reject-on-full the excess completes as a
    // local 429 instead of dying on the legacy full-queue panic.
    BatchedRun run(sys::NodeParams{});
    run.tb.nodeA().hdcDriver().setRejectOnFull(true);

    // Large objects: service time (~ms) dwarfs the submission spread,
    // so the 63-outstanding window genuinely fills.
    const auto content = test::randomBytes(256 * 1024, 11);
    const int n = 70;
    for (int i = 0; i < n; ++i)
        run.get(i, content);
    run.tb.eq().run();

    ASSERT_EQ(run.completions, n);
    int ok = 0, rejected = 0;
    for (int i = 0; i < n; ++i) {
        if (run.statuses[i] == 0)
            ++ok;
        else
            ++rejected;
    }
    EXPECT_EQ(run.tb.nodeA().hdcDriver().rejectedLocal(),
              static_cast<std::uint64_t>(rejected));
    EXPECT_GE(rejected, n - 63);
    EXPECT_GE(ok, 63);
    EXPECT_TRUE(run.tb.nodeA().engine().checkQuiesce());
}

TEST(AdmissionControl, OverloadThenDrainLeavesEngineQuiescent)
{
    // Sustained overload against both engine bounds at once: a burst
    // several times the active-command cap, tight enough live-entry
    // headroom that the scoreboard-level estimate also rejects. After
    // the storm drains, the exact-occupancy audit must pass — with
    // the pooled command records and the slot-slab freelist, a leaked
    // record, slot, edge, stream or buffer chunk is directly
    // countable, so a 429 path that forgets to roll anything back
    // fails here instead of as slow growth at scale.
    // One 64 KiB-chunk command estimates at 2*(64Ki/4Ki)+2 = 34 live
    // entries, so a 40-entry bound admits one command against an empty
    // scoreboard and turns the next away until the first drains.
    sys::NodeParams pa;
    pa.hdc.maxActiveCmds = 3;
    pa.hdc.maxLiveEntries = 40;
    BatchedRun run(pa);
    run.tb.nodeA().hdcDriver().setRejectOnFull(true);

    const int n = 24;
    std::vector<std::vector<std::uint8_t>> contents;
    for (int i = 0; i < n; ++i)
        contents.push_back(test::randomBytes(
            12 * 1024 + 1024 * static_cast<std::size_t>(i % 5),
            200 + static_cast<std::uint64_t>(i)));
    for (int i = 0; i < n; ++i)
        run.get(i, contents[static_cast<std::size_t>(i)]);
    run.tb.eq().run();

    ASSERT_EQ(run.completions, n);
    int ok = 0, rejected = 0;
    for (int i = 0; i < n; ++i) {
        if (run.statuses[i] == 0) {
            ++ok;
            EXPECT_EQ(run.received[i],
                      contents[static_cast<std::size_t>(i)])
                << "conn " << i;
        } else {
            EXPECT_EQ(run.statuses[i], 429u) << "conn " << i;
            ++rejected;
        }
    }
    // The bounds must genuinely bite and admitted work must survive.
    EXPECT_GE(ok, 3);
    EXPECT_GE(rejected, 1);
    EXPECT_EQ(ok + rejected, n);

    const auto &engine = run.tb.nodeA().engine();
    EXPECT_EQ(engine.commandsCompleted() + engine.commandsRejected(),
              static_cast<std::uint64_t>(n) -
                  run.tb.nodeA().hdcDriver().rejectedLocal());
    EXPECT_TRUE(engine.checkQuiesce());
}

/** One way to NACK a flood of large probes around a live command. */
struct NackWrapCase
{
    std::string name;
    std::uint32_t maxActiveCmds;
    std::uint32_t maxLiveEntries;
};

class NackWrapTest : public ::testing::TestWithParam<NackWrapCase>
{
};

TEST_P(NackWrapTest, LiveCommandOutlastsTwoQueuesOfNacks)
{
    // A 1 MiB MD5 command stays live while 127 later 2 MiB probes are
    // NACKed: their ids wrap the 64-entry command-slot window twice
    // around the live one. A 4 KiB MD5 follow-up, retried on 429, is
    // then admitted — beside the live command under the live-entry
    // bound, after it under the one-active-command bound.
    sys::NodeParams pa;
    pa.hdc.maxActiveCmds = GetParam().maxActiveCmds;
    pa.hdc.maxLiveEntries = GetParam().maxLiveEntries;
    BatchedRun run(pa);
    run.tb.nodeA().hdcDriver().setRejectOnFull(true);
    auto &path = run.tb.pathA();
    auto &fs = run.tb.nodeA().fs();

    const auto big = test::randomBytes(1 << 20, 31);
    const auto small = test::randomBytes(4096, 32);
    const int fd_big = fs.create("big", big);
    const int fd_probe = fs.create("probe", test::randomBytes(2 << 20, 33));
    const int fd_small = fs.create("small", small);
    std::vector<std::vector<std::uint8_t>> got(3);
    std::vector<int> socks;
    for (std::uint16_t i = 0; i < 3; ++i) {
        auto [ca, cb] = run.tb.connect(i);
        cb->onPayload = [&got, i](std::uint32_t, BufChain p) {
            const auto bytes = p.toVector();
            got[i].insert(got[i].end(), bytes.begin(), bytes.end());
        };
        socks.push_back(ca->fd);
    }

    baselines::PathResult big_res, small_res;
    bool big_done = false, small_done = false;
    int nacks_while_live = 0, probes_admitted = 0, small_tries = 0;
    std::function<void()> follow_up = [&] {
        ++small_tries;
        path.sendFile(fd_small, socks[2], 0, small.size(),
                      ndp::Function::Md5, {}, nullptr,
                      [&](const baselines::PathResult &r) {
                          if (r.status == 429)
                              return follow_up();
                          small_res = r;
                          small_done = true;
                      });
    };
    std::function<void()> probe = [&] {
        path.sendFile(fd_probe, socks[1], 0, 2 << 20, ndp::Function::None,
                      {}, nullptr, [&](const baselines::PathResult &r) {
                          if (r.status != 429)
                              ++probes_admitted;
                          else if (!big_done)
                              ++nacks_while_live;
                          if (nacks_while_live + probes_admitted < 127)
                              probe();
                          else
                              follow_up();
                      });
    };
    path.sendFile(fd_big, socks[0], 0, big.size(), ndp::Function::Md5, {},
                  nullptr, [&](const baselines::PathResult &r) {
                      big_res = r;
                      big_done = true;
                  });
    probe();
    run.tb.eq().run();

    ASSERT_TRUE(big_done);
    ASSERT_TRUE(small_done);
    EXPECT_EQ(nacks_while_live, 127);
    EXPECT_EQ(probes_admitted, 0);
    EXPECT_GE(small_tries, 1);
    EXPECT_EQ(big_res.status, 0u);
    EXPECT_EQ(big_res.digest, ndp::makeHash("md5")->oneShot(big));
    EXPECT_EQ(got[0], big);
    EXPECT_EQ(small_res.status, 0u);
    EXPECT_EQ(small_res.digest, ndp::makeHash("md5")->oneShot(small));
    EXPECT_EQ(got[2], small);
    EXPECT_TRUE(got[1].empty());
    EXPECT_TRUE(run.tb.nodeA().engine().checkQuiesce());
}

// 1 MiB estimates at 16 x 34 = 544 live entries, a 2 MiB probe at
// 1088: a 600-entry bound admits the live command and the 4 KiB
// follow-up but no probe.
INSTANTIATE_TEST_SUITE_P(
    Bounds, NackWrapTest,
    ::testing::Values(NackWrapCase{"OneActiveCommand", 1, 0},
                      NackWrapCase{"LiveEntryBound", 0, 600}),
    [](const ::testing::TestParamInfo<NackWrapCase> &info) {
        return info.param.name;
    });

TEST(AdmissionControl, ScoreboardCapacityAccounting)
{
    EventQueue eq;
    hdc::HdcTiming timing;
    hdc::Scoreboard sb(eq, "sb", timing);
    sb.setLiveBound(2);
    EXPECT_TRUE(sb.hasCapacity(2));
    EXPECT_FALSE(sb.hasCapacity(3));

    hdc::Entry e;
    e.dev = hdc::DevClass::SsdCtrl;
    sb.addEntry(e);
    EXPECT_TRUE(sb.hasCapacity(1));
    EXPECT_FALSE(sb.hasCapacity(2));

    sb.noteReject();
    sb.noteReject();
    EXPECT_EQ(sb.rejects(), 2u);
    EXPECT_EQ(sb.liveBoundValue(), 2u);
}

#ifdef DCS_CHECKED
TEST(AdmissionControlDeathTest, LiveBoundBypassDiesUnderChecks)
{
    // The bound is enforced by construction (callers must consult
    // hasCapacity first); slipping an entry past it is a checked
    // invariant violation, never a silent overflow.
    EventQueue eq;
    hdc::HdcTiming timing;
    hdc::Scoreboard sb(eq, "sb", timing);
    sb.setLiveBound(1);
    hdc::Entry e;
    e.dev = hdc::DevClass::SsdCtrl;
    sb.addEntry(e);
    EXPECT_DEATH(sb.addEntry(e), "exceeds live bound");
}
#endif

// ---------------------------------------------------------------------
// The open-loop load generator.
// ---------------------------------------------------------------------

workload::LoadGenParams
smallLoad()
{
    workload::LoadGenParams p;
    p.clients = 500;
    p.offeredRps = 20'000;
    p.requestBytes = 4 * 1024;
    p.connections = 8;
    p.warmup = milliseconds(1);
    p.measure = milliseconds(5);
    p.preloadObjects = 4;
    return p;
}

struct LoadRun
{
    workload::LoadGenStats stats;
    std::uint64_t digest = 0;
};

LoadRun
runLoad(workload::Design design, const workload::LoadGenParams &p,
        sys::NodeParams pa = {}, bool reject_on_full = false)
{
    workload::Testbed tb(design, false, pa);
    if (reject_on_full)
        tb.nodeA().hdcDriver().setRejectOnFull(true);
    TraceHasher th;
    th.attach(tb.eq());
    workload::LoadGen gen(tb.eq(), tb.nodeA(), tb.nodeB(), tb.pathA(), p);
    LoadRun out;
    bool fin = false;
    gen.run([&](const workload::LoadGenStats &s) {
        out.stats = s;
        fin = true;
    });
    tb.eq().run();
    EXPECT_TRUE(fin) << "load generator did not drain";
    out.digest = th.digest();
    return out;
}

TEST(LoadGen, RunsAreDeterministic)
{
    const auto a = runLoad(workload::Design::DcsCtrl, smallLoad());
    const auto b = runLoad(workload::Design::DcsCtrl, smallLoad());
    EXPECT_GT(a.stats.offered, 20u);
    EXPECT_GT(a.stats.completed, 0u);
    EXPECT_EQ(a.stats.offered, b.stats.offered);
    EXPECT_EQ(a.stats.completed, b.stats.completed);
    EXPECT_EQ(a.stats.droppedClient, b.stats.droppedClient);
    EXPECT_EQ(a.stats.rejectedServer, b.stats.rejectedServer);
    EXPECT_EQ(a.digest, b.digest)
        << "load-generator event traces diverged between runs";
}

TEST(LoadGen, SeedsAndArrivalShapesProduceDistinctStreams)
{
    auto p = smallLoad();
    const auto base = runLoad(workload::Design::DcsCtrl, p);
    p.seed = 2;
    const auto reseeded = runLoad(workload::Design::DcsCtrl, p);
    EXPECT_NE(base.digest, reseeded.digest);

    p.seed = 1;
    p.bursty = true;
    const auto bursty = runLoad(workload::Design::DcsCtrl, p);
    EXPECT_NE(base.digest, bursty.digest);
    EXPECT_GT(bursty.stats.completed, 0u);
}

TEST(LoadGen, OverloadDropsAtTheClientWhenBacklogIsFull)
{
    auto p = smallLoad();
    p.offeredRps = 200'000; // far past a 2-conn pool's capacity
    p.connections = 2;
    p.maxBacklog = 4;
    const auto r = runLoad(workload::Design::DcsCtrl, p);
    EXPECT_GT(r.stats.droppedClient, 0u);
    EXPECT_GT(r.stats.completed, 0u);
    EXPECT_GE(r.stats.offered,
              r.stats.completed + r.stats.droppedClient);
}

TEST(LoadGen, ConnectionChurnIsAccounted)
{
    auto p = smallLoad();
    p.requestsPerConn = 4;
    const auto r = runLoad(workload::Design::DcsCtrl, p);
    EXPECT_GT(r.stats.churns, 0u);
    // Every churn covers requestsPerConn completions-or-rejects.
    EXPECT_LE(r.stats.churns * p.requestsPerConn,
              r.stats.completed + r.stats.rejectedServer +
                  p.requestsPerConn * 8 /* warmup slack per conn */);
}

TEST(LoadGen, ServerRejectsSurfaceAs429s)
{
    auto p = smallLoad();
    p.offeredRps = 120'000;
    p.rejectBackoff = microseconds(50);
    sys::NodeParams pa;
    pa.hdc.maxActiveCmds = 4;
    pa.hdc.maxLiveEntries = 64;
    const auto r = runLoad(workload::Design::DcsCtrl, p, pa, true);
    EXPECT_GT(r.stats.rejectedServer, 0u);
    EXPECT_GT(r.stats.completed, 0u);
    // Rejected requests move no payload bytes.
    EXPECT_EQ(r.stats.bytesMoved,
              r.stats.completed * p.requestBytes);
}

} // namespace
} // namespace dcs
