/**
 * @file
 * Calendar-queue edge cases and the queue-swap determinism pin.
 *
 * The EventQueue moved from a binary heap to a hierarchical calendar
 * (ready group + bucketed fine window + coarse level + top overflow).
 * These tests pin the behaviors the swap must not change: exact
 * (tick, sequence) firing order through every storage path (ready
 * appends, dense buckets that trigger a re-tighten, window rebuilds
 * from a coarse bucket, coarse rebuilds from `top`), bounded queue
 * upkeep, O(1)-style cancellation with no residue, and — via golden
 * digests — that the full simulator's event trace is bit-identical to
 * the pre-swap queue.
 */
// dcslint: allow-file(callback-lifetime): the test drains the queue in the
// same stack frame, so by-reference captures of locals cannot dangle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench/parallel_runner.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/experiment.hh"
#include "workload/loadgen.hh"

namespace dcs {
namespace {

using FiringTrace = std::vector<std::pair<Tick, std::uint64_t>>;

/** Record the (tick, seq) firing stream into @p out. */
void
attachTrace(EventQueue &eq, FiringTrace &out)
{
    eq.setTraceHook([&out](Tick t, std::uint64_t seq,
                           std::string_view) {
        out.emplace_back(t, seq);
    });
}

TEST(CalendarQueue, SameTickGroupFiresFifoThroughBuckets)
{
    EventQueue eq;
    std::vector<int> order;
    // One far tick, many events: lands in a bucket, extracted as a
    // single sorted group.
    for (int i = 0; i < 500; ++i)
        eq.schedule(12345, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 500u);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(order[i], i) << "same-tick FIFO broken at " << i;
}

TEST(CalendarQueue, FarFutureEventsCrossWindowEpochs)
{
    EventQueue eq;
    std::vector<Tick> fired;
    // Spans many window rebuilds: the initial window is ~256K ticks
    // wide, so each decade past that forces a rebuild from `far`,
    // including one beyond the adaptive width cap.
    const Tick ticks[] = {1,       100,        50'000,     400'000,
                          9'000'000, 1'000'000'000, 7'000'000'000'000};
    for (const Tick t : ticks)
        eq.scheduleAt(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), std::size(ticks));
    for (std::size_t i = 0; i < std::size(ticks); ++i)
        EXPECT_EQ(fired[i], ticks[i]);
    EXPECT_EQ(eq.now(), ticks[std::size(ticks) - 1]);
}

TEST(CalendarQueue, DenseBucketRetightenPreservesOrder)
{
    // 5000 events over a 999-tick span all land in one bucket of the
    // initial wide window — exactly the shape that triggers the
    // re-tighten path. Firing must still be (tick, then FIFO).
    EventQueue eq;
    FiringTrace trace;
    attachTrace(eq, trace);
    Rng rng(11);
    FiringTrace expected;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const Tick when = rng.uniformInt(1, 999);
        eq.scheduleAt(when, [] {});
        expected.emplace_back(when, i + 1); // seq is 1-based
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    eq.run();
    ASSERT_EQ(trace.size(), expected.size());
    EXPECT_EQ(trace, expected);
}

TEST(CalendarQueue, CancelThenDrainLeavesNoResidue)
{
    EventQueue eq;
    int fired = 0;
    std::vector<EventId> ids;
    for (int i = 0; i < 2000; ++i)
        ids.push_back(eq.schedule(100 + i % 7, [&fired] { ++fired; }));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        eq.deschedule(ids[i]);
    EXPECT_EQ(eq.pending(), 1000u);
    eq.run();
    EXPECT_EQ(fired, 1000);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.scheduled(), eq.executed() + eq.cancelledPopped());
    EXPECT_TRUE(eq.empty());
}

TEST(CalendarQueue, CancelledEventReleasesItsCaptureImmediately)
{
    // The deschedule satellite: cancelling must free the callback's
    // resources right away, not when simulated time reaches the
    // tombstone (the old queue held them until pop).
    EventQueue eq;
    auto guard = std::make_shared<int>(7);
    std::weak_ptr<int> watch = guard;
    const EventId id =
        eq.schedule(1'000'000'000, [g = std::move(guard)] { (void)g; });
    ASSERT_FALSE(watch.expired());
    eq.deschedule(id);
    EXPECT_TRUE(watch.expired())
        << "cancelled event kept its capture alive";
    eq.run();
}

TEST(CalendarQueue, RunUntilMidWindowThenEarlierScheduleStaysOrdered)
{
    // Stop between tick groups, then schedule an event earlier than
    // everything still pending: the unconsumed ready group must have
    // been re-bucketed so global order is preserved.
    EventQueue eq;
    FiringTrace trace;
    attachTrace(eq, trace);
    eq.scheduleAt(100, [] {});
    eq.scheduleAt(100, [] {});
    eq.scheduleAt(300, [] {});
    eq.runUntil(50);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_TRUE(trace.empty());
    eq.scheduleAt(60, [] {}); // earlier than the pending tick-100 pair
    eq.run();
    const FiringTrace expected = {
        {60, 4}, {100, 1}, {100, 2}, {300, 3}};
    EXPECT_EQ(trace, expected);
}

TEST(CalendarQueue, ScheduleBelowRebuiltWindowAfterEarlyRunUntil)
{
    // runUntil() can return with windowStart above the limit: the
    // only pending event was far-future, so the window was rebuilt
    // around it. A subsequent schedule between the limit and that
    // minimum lands below the window and must re-anchor it (this
    // used to panic in DCS_CHECKED builds and index below bucket 0
    // in unchecked ones).
    EventQueue eq;
    FiringTrace trace;
    attachTrace(eq, trace);
    eq.scheduleAt(1'000'000, [] {});
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_TRUE(trace.empty());
    eq.scheduleAt(200, [] {}); // below the rebuilt windowStart
    eq.scheduleAt(500'000, [] {});
    eq.run();
    const FiringTrace expected = {
        {200, 2}, {500'000, 3}, {1'000'000, 1}};
    EXPECT_EQ(trace, expected);
}

TEST(CalendarQueue, RepeatedBelowWindowSchedulesStayOrdered)
{
    // Interleave early runUntil stops with schedules ever further
    // below the rebuilt window, with far-overflow events pending
    // throughout, and check the full firing order and conservation.
    EventQueue eq;
    FiringTrace trace;
    attachTrace(eq, trace);
    eq.scheduleAt(10'000'000, [] {});   // seq 1
    eq.scheduleAt(9'000'000, [] {});    // seq 2
    eq.runUntil(1'000);                 // window now starts at 9M
    eq.scheduleAt(2'000, [] {});        // seq 3, below window
    eq.runUntil(1'500);                 // window re-anchored at 2'000
    EXPECT_EQ(eq.now(), 1'500u);
    eq.scheduleAt(1'600, [] {});        // seq 4, below window again
    eq.run();
    const FiringTrace expected = {
        {1'600, 4}, {2'000, 3}, {9'000'000, 2}, {10'000'000, 1}};
    EXPECT_EQ(trace, expected);
    EXPECT_EQ(eq.scheduled(), eq.executed());
    EXPECT_TRUE(eq.empty());
}

TEST(CalendarQueue, SameTickCascadeDuringFiringAppendsToReadyGroup)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        // Scheduled while tick 10 is firing: joins the live group...
        eq.schedule(0, [&] { order.push_back(2); });
        // ...after the already-queued same-tick successor.
    });
    eq.schedule(10, [&order] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 10u);
}

// --- Upkeep bound on a bimodal load -------------------------------

/** A counter of @p eq's `eventq` stats group, read from its dump. */
std::uint64_t
eventqCounter(const EventQueue &eq, const std::string &name)
{
    const std::string dump = eq.stats().dumpJsonString();
    const auto group = dump.find("\"eventq\":{");
    const auto key = dump.find("\"" + name + "\":", group);
    EXPECT_NE(group, std::string::npos);
    EXPECT_NE(key, std::string::npos) << name;
    if (group == std::string::npos || key == std::string::npos)
        return 0;
    return std::strtoull(dump.c_str() + key + name.size() + 3, nullptr,
                         10);
}

/** Binary-heap (tick, seq) reference queue: the ordering spec. */
class RefQueue
{
  public:
    Tick now() const { return _now; }

    void
    scheduleAt(Tick when, std::function<void()> fn)
    {
        fns.push_back(std::move(fn));
        heap.emplace(when, fns.size());
    }

    void
    run()
    {
        while (!heap.empty()) {
            const auto [when, seq] = heap.top();
            heap.pop();
            _now = when;
            trace.emplace_back(when, seq);
            std::function<void()> fn = std::move(fns[seq - 1]);
            fn();
        }
    }

    FiringTrace trace;

  private:
    using Key = std::pair<Tick, std::uint64_t>;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
    std::vector<std::function<void()>> fns;
    Tick _now = 0;
};

/**
 * Far timers spread over one simulated second, each setting off a
 * short near-term cascade when it fires, on top of a dense cascade at
 * the start. Every decision is drawn in firing order, so two queues
 * produce the same trace iff they fire in the same order.
 */
template <typename Queue>
struct BimodalLoad
{
    Queue &q;
    Rng rng{23};
    int denseBudget = 20'000;

    void
    cascade(int depth, int *budget)
    {
        if (depth == 0)
            return;
        const auto kids = rng.uniformInt(1, 2);
        for (std::uint64_t k = 0; k < kids; ++k) {
            if (budget && (*budget)-- <= 0)
                return;
            q.scheduleAt(q.now() + rng.uniformInt(0, 2'000),
                         [this, depth, budget] {
                             cascade(depth - 1, budget);
                         });
        }
    }

    void
    start()
    {
        for (int i = 0; i < 20'000; ++i)
            q.scheduleAt(rng.uniformInt(1, seconds(1)),
                         [this] { cascade(2, nullptr); });
        for (int i = 0; i < 16; ++i)
            q.scheduleAt(rng.uniformInt(0, 100),
                         [this] { cascade(40, &denseBudget); });
    }
};

TEST(CalendarQueue, BimodalLoadFiresInOrderWithBoundedUpkeep)
{
    RefQueue ref;
    BimodalLoad<RefQueue> refLoad{ref};
    refLoad.start();
    ref.run();

    EventQueue eq;
    FiringTrace trace;
    attachTrace(eq, trace);
    BimodalLoad<EventQueue> load{eq};
    load.start();
    eq.run();

    ASSERT_GT(trace.size(), 60'000u);
    ASSERT_EQ(trace.size(), ref.trace.size());
    EXPECT_TRUE(trace == ref.trace) << "firing order diverged from the "
                                       "(tick, seq) reference";
    // Each entry moves top -> coarse -> fine at most once, plus
    // re-tighten re-spreads; a design that re-scans and re-files
    // every pending far entry per window would blow through this.
    const std::uint64_t moved = eventqCounter(eq, "moved");
    EXPECT_LE(moved, 4 * eq.scheduled())
        << "queue upkeep moved " << moved << " entries for "
        << eq.scheduled() << " scheduled";
    EXPECT_GE(eventqCounter(eq, "coarse_rebuilds"), 1u);
}

// --- Barrier-round support queries --------------------------------

TEST(CalendarQueue, NextPendingTickTracksEveryStoragePath)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextPendingTick(), maxTick) << "empty queue";

    // Far-overflow only: minimum comes from `far`.
    eq.scheduleAt(7'000'000'000'000, [] {});
    EXPECT_EQ(eq.nextPendingTick(), 7'000'000'000'000u);

    // In-window bucket beats it.
    eq.scheduleAt(5'000, [] {});
    EXPECT_EQ(eq.nextPendingTick(), 5'000u);
    eq.scheduleAt(300, [] {});
    EXPECT_EQ(eq.nextPendingTick(), 300u);

    // Partially-consumed ready group: runUntil stops mid-window and
    // the unconsumed tick-300 event must still be reported.
    eq.runUntil(200);
    EXPECT_EQ(eq.nextPendingTick(), 300u);
    eq.run();
    EXPECT_EQ(eq.nextPendingTick(), maxTick);
}

TEST(CalendarQueue, NextPendingTickIsConservativeForCancelledEntries)
{
    // A cancelled tombstone may be reported (lower bound, never an
    // overestimate): pop-time discovers the cancellation.
    EventQueue eq;
    const EventId id = eq.schedule(100, [] {});
    eq.schedule(900, [] {});
    eq.deschedule(id);
    EXPECT_LE(eq.nextPendingTick(), 900u);
    EXPECT_GE(eq.nextPendingTick(), 100u);
    eq.run();
    EXPECT_EQ(eq.now(), 900u);
}

TEST(CalendarQueue, AdvanceToAlignsDrainedClock)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
    eq.advanceTo(5'000);
    EXPECT_EQ(eq.now(), 5'000u);
    eq.advanceTo(4'000); // backward: no-op, time never rewinds
    EXPECT_EQ(eq.now(), 5'000u);
    // Scheduling keeps working relative to the aligned clock.
    Tick fired = 0;
    eq.schedule(10, [&] { fired = eq.now(); });
    eq.run();
    EXPECT_EQ(fired, 5'010u);
}

TEST(CalendarQueue, AdvanceToWithPendingEntriesPanics)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "drained-queue contract is DCS_CHECKED-only";
    EventQueue eq;
    eq.schedule(100, [] {});
    EXPECT_DEATH(eq.advanceTo(50'000), "advanceTo on a queue");
}

// --- Queue-swap determinism pin -----------------------------------

/** One run's event-trace fingerprint. */
struct RunDigest
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    Tick end = 0;

    bool
    operator==(const RunDigest &o) const
    {
        return digest == o.digest && events == o.events && end == o.end;
    }
};

/**
 * Fig. 11a-style pipeline digest: 256 KiB sendFile on a fresh
 * testbed. Mirrors the probe used to freeze the golden values below.
 */
RunDigest
pipelineDigest(workload::Design design, ndp::Function fn)
{
    workload::Testbed tb(design);
    TraceHasher th;
    th.attach(tb.eq());

    auto [ca, cb] = tb.connect();
    cb->onPayload = [](std::uint32_t, BufChain) {};

    Rng rng(7);
    std::vector<std::uint8_t> content(256 * 1024);
    rng.fill(content.data(), content.size());
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

TEST(QueueSwapDeterminism, GoldenDigestsMatchPreSwapQueue)
{
    // Frozen from the std::function + binary-heap queue immediately
    // before the calendar/InlineCallback swap (same workloads, same
    // seeds). If a queue change alters any of these, it changed the
    // simulation's event order — regenerate only for an intentional
    // model change, never for a queue/storage refactor.
    const RunDigest dcsNone = pipelineDigest(workload::Design::DcsCtrl,
                                             ndp::Function::None);
    EXPECT_EQ(dcsNone.digest, 0x66eccaff5410501cull);
    EXPECT_EQ(dcsNone.events, 620ull);
    EXPECT_EQ(dcsNone.end, 441434854ull);

    const RunDigest dcsMd5 = pipelineDigest(workload::Design::DcsCtrl,
                                            ndp::Function::Md5);
    EXPECT_EQ(dcsMd5.digest, 0x4d61b62c80f49315ull);
    EXPECT_EQ(dcsMd5.events, 634ull);
    EXPECT_EQ(dcsMd5.end, 2414612170ull);

    const RunDigest swCrc = pipelineDigest(
        workload::Design::SwOptimized, ndp::Function::Crc32);
    EXPECT_EQ(swCrc.digest, 0xcb53babeee5210a9ull);
    EXPECT_EQ(swCrc.events, 585ull);
    EXPECT_EQ(swCrc.end, 912919727ull);
}

TEST(QueueSwapDeterminism, GoldenDigestFarHeavyOpenLoop)
{
    // An open-loop population of 20k clients keeps ~7k arrival timers
    // pending beyond the fine window for the whole run, so most
    // firings pass through the far levels of the calendar. Frozen from
    // the queue whose far level was one unsorted overflow vector.
    workload::Testbed tb(workload::Design::DcsCtrl);
    TraceHasher th;
    th.attach(tb.eq());
    workload::LoadGenParams p;
    p.clients = 20'000;
    p.offeredRps = 400'000;
    p.maxBacklog = 256;
    p.requestBytes = 4 * 1024;
    p.connections = 16;
    p.warmup = milliseconds(1);
    p.measure = milliseconds(20);
    p.seed = 3;
    workload::LoadGen gen(tb.eq(), tb.nodeA(), tb.nodeB(), tb.pathA(), p);
    workload::LoadGenStats st;
    bool fin = false;
    gen.run([&](const workload::LoadGenStats &s) {
        st = s;
        fin = true;
    });
    EXPECT_GT(tb.eq().pending(), 6'000u);
    tb.eq().run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(th.digest(), 0xaf0fbe277665478cull);
    EXPECT_EQ(th.events(), 121831ull);
    EXPECT_EQ(tb.eq().now(), 23812052018ull);
    EXPECT_EQ(st.offered, 8161u);
    EXPECT_EQ(st.completed, 1952u);
    EXPECT_EQ(st.droppedClient, 6209u);
}

TEST(QueueSwapDeterminism, ParallelSweepMatchesSerialExecution)
{
    // The bench parallel runner must not perturb results: the same
    // six sweep points, executed serially and on four threads, must
    // produce identical digests slot for slot.
    struct PointSpec
    {
        workload::Design design;
        ndp::Function fn;
    };
    const std::vector<PointSpec> points = {
        {workload::Design::SwOptimized, ndp::Function::None},
        {workload::Design::SwP2p, ndp::Function::None},
        {workload::Design::DcsCtrl, ndp::Function::None},
        {workload::Design::SwOptimized, ndp::Function::Crc32},
        {workload::Design::SwP2p, ndp::Function::Md5},
        {workload::Design::DcsCtrl, ndp::Function::Md5},
    };
    auto sweep = [&points](int threads) {
        const bench::ParallelRunner runner(threads);
        return runner.map<RunDigest>(
            points.size(), [&points](std::size_t i) {
                return pipelineDigest(points[i].design, points[i].fn);
            });
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_GT(serial[i].events, 0u);
        EXPECT_TRUE(serial[i] == parallel[i])
            << "sweep point " << i
            << " diverged between serial and parallel execution";
    }
}

} // namespace
} // namespace dcs
