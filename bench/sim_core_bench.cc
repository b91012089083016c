/**
 * @file
 * Sim-core fast-path benchmark: the event queue itself.
 *
 * Compares the shipping EventQueue (InlineCallback storage + two-level
 * calendar queue, src/sim/event_queue.*) against an in-file replica of
 * the queue it replaced (std::function callbacks in a binary-heap
 * std::priority_queue with an unordered_set of cancelled ids — the
 * exact structure from the previous revision of src/sim/event_queue).
 *
 * Three workloads, one per pattern the simulator actually exercises:
 *  - churn: a self-rescheduling actor population, the classic DES
 *    steady state. Each firing schedules one successor at a
 *    pseudorandom future tick; the capture is `this` plus 32 bytes of
 *    payload — the typical model continuation, which fits
 *    InlineCallback's inline buffer but overflows std::function's
 *    small-object optimization.
 *  - timeout: the TCP retransmission pattern (net/tcp.cc): waves of
 *    timer events that are almost all descheduled before firing, so
 *    cancellation cost and tombstone handling dominate.
 *  - burst: same-tick fan-out (command completion cascades): large
 *    groups of events at one tick, fired in FIFO order.
 *  - plus per-op latency: isolated schedule / fire / cancel loops.
 *
 * Reports events/sec for both queues per workload, the geometric-mean
 * speedup across workloads, and per-op latencies through the standard
 * --json report (tools/check_bench_schema.py validates the output).
 *
 * Timing uses wall-clock (std::chrono::steady_clock); bench/ is
 * measurement code, waived from dcslint's ambient-time rule below.
 */
// dcslint: allow-file(ambient-time-randomness): host wall-clock timing is
// the measurement this bench exists to take; it never feeds simulated state.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "bench/report.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"

using namespace dcs;

namespace {

/**
 * The pre-fast-path event queue, reproduced verbatim minus stats
 * plumbing: heap-ordered (tick, id) entries owning std::function
 * callbacks, lazy cancellation through an id set consulted at pop.
 */
class LegacyEventQueue
{
  public:
    using Id = std::uint64_t;

    Id
    schedule(Tick delay, std::function<void()> fn,
             std::string_view label = {})
    {
        const Id id = nextId++;
        pq.push(Entry{_now + delay, id, std::move(fn), label});
        return id;
    }

    void deschedule(Id id) { cancelled.insert(id); }

    bool
    step()
    {
        while (!pq.empty()) {
            Entry e = pq.top(); // copies the std::function, as shipped
            pq.pop();
            if (cancelled.erase(e.id) != 0) {
                ++skipped;
                continue;
            }
            _now = e.when;
            ++fired;
            e.fn();
            return true;
        }
        return false;
    }

    Tick
    run()
    {
        while (step()) {
        }
        return _now;
    }

    std::uint64_t executed() const { return fired; }

  private:
    struct Entry
    {
        Tick when;
        Id id;
        std::function<void()> fn;
        std::string_view label;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : id > o.id;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        pq;
    std::unordered_set<Id> cancelled;
    Tick _now = 0;
    Id nextId = 1;
    std::uint64_t fired = 0;
    std::uint64_t skipped = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Self-rescheduling actor population: `pending` events in flight,
 * each firing schedules its successor until `total` events fired.
 */
template <typename Queue>
struct ChurnDriver
{
    Queue q;
    std::uint64_t remaining = 0;
    std::uint32_t lcg = 12345;

    Tick
    nextDelay()
    {
        lcg = lcg * 1664525u + 1013904223u;
        return Tick(lcg % 997 + 1);
    }

    void
    arm()
    {
        if (remaining == 0)
            return;
        --remaining;
        // 8 (this) + 32 payload bytes: a typical model continuation.
        std::uint64_t payload[4] = {remaining, lcg, 0, 0};
        q.schedule(nextDelay(), [this, payload] {
            (void)payload;
            arm();
        });
    }
};

template <typename Queue>
double
churnEventsPerSec(std::uint64_t total, int pending)
{
    ChurnDriver<Queue> d;
    d.remaining = total;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pending && d.remaining > 0; ++i)
        d.arm();
    d.q.run();
    const double dt = secondsSince(t0);
    if (d.q.executed() != total)
        fatal("churn fired %llu of %llu events",
              (unsigned long long)d.q.executed(),
              (unsigned long long)total);
    return double(total) / dt;
}

/**
 * TCP-retransmit pattern: every wave schedules `width` timeout events
 * ~1000-2000 ticks out, immediately cancels them all (the "ack"
 * arrived), and advances via one short progress event. Tombstones
 * accumulate in the calendar/heap until simulated time passes them.
 * Throughput counts scheduled events (the cancelled ones do enter and
 * leave the queue).
 */
template <typename Queue>
struct TimeoutDriver
{
    Queue q;
    int wavesLeft = 0;
    int width = 0;
    std::uint32_t lcg = 777;
    std::uint64_t scheduled = 0;

    void
    wave()
    {
        if (wavesLeft-- == 0)
            return;
        using Id = decltype(q.schedule(0, [] {}));
        std::vector<Id> ids;
        ids.reserve(width);
        for (int i = 0; i < width; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            // Timer state a retransmit continuation would carry.
            std::uint64_t payload[4] = {scheduled, lcg, 0, 0};
            ids.push_back(q.schedule(Tick(1000 + lcg % 1000),
                                     [payload] { (void)payload; }));
            ++scheduled;
        }
        for (const auto id : ids)
            q.deschedule(id);
        q.schedule(10, [this] { wave(); });
        ++scheduled;
    }
};

template <typename Queue>
double
timeoutEventsPerSec(int waves, int width)
{
    TimeoutDriver<Queue> d;
    d.wavesLeft = waves;
    d.width = width;
    const auto t0 = std::chrono::steady_clock::now();
    d.wave();
    d.q.run();
    return double(d.scheduled) / secondsSince(t0);
}

/**
 * Same-tick fan-out: each burst schedules `width` events for one
 * future tick; they fire as one FIFO group, and the last one launches
 * the next burst.
 */
template <typename Queue>
struct BurstDriver
{
    Queue q;
    int burstsLeft = 0;
    int width = 0;
    std::uint64_t scheduled = 0;

    void
    burst()
    {
        if (burstsLeft-- == 0)
            return;
        for (int i = 0; i < width; ++i) {
            std::uint64_t payload[4] = {scheduled, 0, 0, 0};
            q.schedule(100, [payload] { (void)payload; });
            ++scheduled;
        }
        q.schedule(100, [this] { burst(); });
        ++scheduled;
    }
};

template <typename Queue>
double
burstEventsPerSec(int bursts, int width)
{
    BurstDriver<Queue> d;
    d.burstsLeft = bursts;
    d.width = width;
    const auto t0 = std::chrono::steady_clock::now();
    d.burst();
    d.q.run();
    return double(d.scheduled) / secondsSince(t0);
}

struct OpLatencies
{
    double scheduleNs = 0.0;
    double fireNs = 0.0;
    double cancelNs = 0.0;
};

template <typename Queue>
OpLatencies
opLatencies(std::uint64_t n)
{
    OpLatencies out;
    {
        Queue q;
        std::uint32_t lcg = 99;
        auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            std::uint64_t payload[4] = {i, lcg, 0, 0};
            q.schedule(Tick(lcg % 4096 + 1),
                       [payload] { (void)payload; });
        }
        out.scheduleNs = secondsSince(t0) * 1e9 / double(n);
        t0 = std::chrono::steady_clock::now();
        q.run();
        out.fireNs = secondsSince(t0) * 1e9 / double(n);
    }
    {
        Queue q;
        std::uint32_t lcg = 99;
        std::vector<decltype(std::declval<Queue &>().schedule(
            0, std::function<void()>{}))>
            ids;
        ids.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            std::uint64_t payload[4] = {i, lcg, 0, 0};
            ids.push_back(q.schedule(Tick(lcg % 4096 + 1),
                                     [payload] { (void)payload; }));
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (const auto id : ids)
            q.deschedule(id);
        out.cancelNs = secondsSince(t0) * 1e9 / double(n);
        q.run(); // drain the tombstones
    }
    return out;
}

template <typename Fn>
double
bestOf(int reps, Fn fn)
{
    double best = 0.0;
    for (int i = 0; i < reps; ++i)
        best = std::max(best, fn());
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "sim_core_bench", "perf");

    constexpr std::uint64_t kChurnEvents = 2'000'000;
    constexpr int kPending = 4096;
    constexpr int kTimeoutWaves = 4000;
    constexpr int kTimeoutWidth = 256;
    constexpr int kBursts = 2000;
    constexpr int kBurstWidth = 1000;
    constexpr std::uint64_t kOpEvents = 1'000'000;
    constexpr int kReps = 3;

    struct Workload
    {
        const char *name;
        double legacy;
        double fast;
    };
    Workload workloads[] = {
        {"churn", 0.0, 0.0},
        {"timeout", 0.0, 0.0},
        {"burst", 0.0, 0.0},
    };

    std::printf("sim-core fast path (best of %d per point)\n", kReps);
    std::printf("  churn:   %llu events, %d pending, random delays\n",
                (unsigned long long)kChurnEvents, kPending);
    std::printf("  timeout: %d waves x %d timers, all cancelled\n",
                kTimeoutWaves, kTimeoutWidth);
    std::printf("  burst:   %d bursts x %d same-tick events\n\n",
                kBursts, kBurstWidth);

    workloads[0].legacy = bestOf(kReps, [] {
        return churnEventsPerSec<LegacyEventQueue>(kChurnEvents,
                                                   kPending);
    });
    workloads[0].fast = bestOf(kReps, [] {
        return churnEventsPerSec<EventQueue>(kChurnEvents, kPending);
    });
    workloads[1].legacy = bestOf(kReps, [] {
        return timeoutEventsPerSec<LegacyEventQueue>(kTimeoutWaves,
                                                     kTimeoutWidth);
    });
    workloads[1].fast = bestOf(kReps, [] {
        return timeoutEventsPerSec<EventQueue>(kTimeoutWaves,
                                               kTimeoutWidth);
    });
    workloads[2].legacy = bestOf(kReps, [] {
        return burstEventsPerSec<LegacyEventQueue>(kBursts,
                                                   kBurstWidth);
    });
    workloads[2].fast = bestOf(kReps, [] {
        return burstEventsPerSec<EventQueue>(kBursts, kBurstWidth);
    });

    std::printf("%-10s %12s %12s %9s\n", "workload", "legacy_Mev/s",
                "fast_Mev/s", "speedup");
    double logSum = 0.0;
    for (const Workload &w : workloads) {
        const double s = w.fast / w.legacy;
        logSum += std::log(s);
        std::printf("%-10s %12.2f %12.2f %8.2fx\n", w.name,
                    w.legacy / 1e6, w.fast / 1e6, s);
    }
    const double speedup =
        std::exp(logSum / double(std::size(workloads)));
    std::printf("%-10s %12s %12s %8.2fx (geomean)\n", "overall", "",
                "", speedup);

    const OpLatencies legacyOps = opLatencies<LegacyEventQueue>(
        kOpEvents);
    const OpLatencies fastOps = opLatencies<EventQueue>(kOpEvents);
    std::printf("\nper-op latency (%llu events)\n",
                (unsigned long long)kOpEvents);
    std::printf("%-12s %12s %12s\n", "op", "legacy_ns", "fastpath_ns");
    std::printf("%-12s %12.1f %12.1f\n", "schedule",
                legacyOps.scheduleNs, fastOps.scheduleNs);
    std::printf("%-12s %12.1f %12.1f\n", "fire", legacyOps.fireNs,
                fastOps.fireNs);
    std::printf("%-12s %12.1f %12.1f\n", "cancel", legacyOps.cancelNs,
                fastOps.cancelNs);

    for (const Workload &w : workloads) {
        const std::string n = w.name;
        report.headline(n + "/legacy_events_per_sec", w.legacy,
                        "events/s");
        report.headline(n + "/fastpath_events_per_sec", w.fast,
                        "events/s");
        report.headline(n + "/speedup", w.fast / w.legacy, "x");
    }
    report.headline("speedup_events_per_sec", speedup, "x",
                    std::nan(""),
                    "geomean across churn/timeout/burst, fast path vs "
                    "pre-change binary-heap queue; acceptance floor "
                    "is 3x");
    report.headline("legacy/schedule_ns", legacyOps.scheduleNs, "ns");
    report.headline("legacy/fire_ns", legacyOps.fireNs, "ns");
    report.headline("legacy/cancel_ns", legacyOps.cancelNs, "ns");
    report.headline("fastpath/schedule_ns", fastOps.scheduleNs, "ns");
    report.headline("fastpath/fire_ns", fastOps.fireNs, "ns");
    report.headline("fastpath/cancel_ns", fastOps.cancelNs, "ns");

    if (report.enabled()) {
        // One registry snapshot so the report carries the queue's own
        // counters alongside the wall-clock numbers.
        EventQueue q;
        std::uint32_t lcg = 7;
        for (int i = 0; i < 1000; ++i) {
            lcg = lcg * 1664525u + 1013904223u;
            q.schedule(Tick(lcg % 512 + 1), [] {});
        }
        q.run();
        report.captureStats("fastpath_sample", q);
    }
    return report.finish();
}
