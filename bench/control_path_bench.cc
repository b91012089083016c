/**
 * @file
 * Control-plane model fast-path benchmark: the scoreboard, command
 * bookkeeping, and receive-demux structures themselves.
 *
 * Compares the shipping control-plane model (flat slot-slab scoreboard
 * with intrusive ready lists, src/hdc/scoreboard.*, plus the
 * open-addressing FlowIndex demux, src/host/flow_index.hh) against
 * in-file replicas of the structures they replaced: the
 * std::unordered_map<id, Entry>-with-dependents-vector scoreboard and
 * the std::map<FlowKey, int> receive demux, both reproduced verbatim
 * from the previous revision minus stats/trace plumbing.
 *
 * Five workloads, shaped like what the loadgen actually generates:
 *  - single_shot: one 2-entry command (SSD read -> NIC send) per
 *    request, a closed-loop population in flight. The keep-alive
 *    request steady state.
 *  - ndp_pipeline: 8-chunk commands, each chunk SSD -> NDP -> NIC with
 *    cross-chunk in-order send chaining — the multi-chunk D2D pipeline
 *    the engine builds for large transfers.
 *  - churn_100k: 10^5 established clients; every request demuxes its
 *    flow key, then runs a 2-entry command. The million-client
 *    frontier's per-request path (and the allocation-audit point).
 *  - flow_demux: pure receive-demux point lookups over 10^5 flows.
 *  - overload_429: open-loop arrivals against a live-entry admission
 *    bound; rejected commands take the 429 path (hasCapacity +
 *    noteReject), admitted ones execute. Decision throughput.
 *
 * Both models run on the same (shipping) EventQueue with identical
 * timing, slots, and latencies, so the measured delta is the model
 * layer alone. `--verify` runs both sides at reduced scale and
 * requires bit-equal behavior digests (completion order, admission
 * decisions, final simulated time) — its stdout is fully
 * deterministic, so CI byte-compares it across DCS_BENCH_THREADS.
 * `--alloc-audit` proves the steady-state claim: global operator
 * new/delete hooks in this TU count every heap allocation, and after
 * warmup the fast path must complete requests at the 10^5-client point
 * with exactly zero allocations.
 *
 * Timing uses wall-clock (std::chrono::steady_clock); bench/ is
 * measurement code, waived from dcslint's ambient-time rule below.
 */
// dcslint: allow-file(ambient-time-randomness): host wall-clock timing is
// the measurement this bench exists to take; it never feeds simulated state.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/report.hh"
#include "hdc/scoreboard.hh"
#include "hdc/timing.hh"
#include "host/flow_index.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"

using namespace dcs;
using hdc::DevClass;
using hdc::Entry;
using hdc::HdcTiming;

// ---------------------------------------------------------------------
// Allocation audit: count every global heap allocation in the process.
// The fast path's contract is zero steady-state allocations per
// completed request; the hooks make that directly measurable.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};

std::uint64_t
allocsNow()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n, 0);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

// ---------------------------------------------------------------------
// Legacy replicas.
// ---------------------------------------------------------------------

/**
 * The pre-fast-path scoreboard, reproduced verbatim minus stats and
 * trace plumbing: sequential ids into an unordered_map whose values
 * carry a per-entry dependents vector, per-class std::deque ready
 * queues, and an unordered_map of remaining-entry counts per command.
 * (The shipped Entry embedded its dependents vector; here it sits
 * beside the shared POD Entry in the map node — same field set, same
 * per-entry allocation profile — so both models speak one Entry type.)
 */
class LegacyScoreboard
{
  public:
    using IssueFn = std::function<void(const Entry &)>;

    LegacyScoreboard(EventQueue &eq, std::string name,
                     const HdcTiming &timing)
        : eq(eq), _name(std::move(name)), timing(timing)
    {
    }

    void
    registerController(DevClass dev, IssueFn issue, int slots)
    {
        Controller &c = controllers[static_cast<int>(dev)];
        c.issue = std::move(issue);
        c.slots = slots;
    }

    void
    setCommandDone(std::function<void(std::uint32_t)> fn)
    {
        onCommandDone = std::move(fn);
    }

    void
    declareCommand(std::uint32_t cmd_id, std::uint32_t n_entries)
    {
        remainingPerCmd[cmd_id] = n_entries;
    }

    std::uint32_t
    addEntry(Entry e)
    {
        e.id = nextId++;
        e.state = hdc::EntryState::Wait;
        const std::uint32_t id = e.id;
        Node node;
        node.e = e;
        entries.emplace(id, std::move(node));
        armQueue.push_back(id);
        if (entries.size() > _peakLive)
            _peakLive = entries.size();
        return id;
    }

    void
    addDependency(std::uint32_t before, std::uint32_t after)
    {
        auto bit = entries.find(before);
        auto ait = entries.find(after);
        if (bit == entries.end() || ait == entries.end())
            panic("%s: dependency on unknown entry", _name.c_str());
        bit->second.dependents.push_back(after);
        ++ait->second.e.pendingDeps;
    }

    void
    arm()
    {
        std::vector<std::uint32_t> pending;
        pending.swap(armQueue);
        for (std::uint32_t id : pending) {
            auto it = entries.find(id);
            if (it == entries.end())
                continue;
            if (it->second.e.pendingDeps == 0 &&
                it->second.e.state == hdc::EntryState::Wait)
                makeReady(id);
        }
    }

    void
    complete(std::uint32_t id)
    {
        auto it = entries.find(id);
        if (it == entries.end())
            panic("%s: completion for unknown entry %u", _name.c_str(),
                  id);
        Entry &e = it->second.e;
        if (e.state != hdc::EntryState::Issued)
            panic("%s: completing entry %u in state %d", _name.c_str(),
                  id, static_cast<int>(e.state));
        e.state = hdc::EntryState::Done;

        Controller &c = controllers[static_cast<int>(e.dev)];
        --c.inUse;
        tryIssue(e.dev);

        eq.schedule(timing.cycles(timing.scoreboardCompleteCycles),
                    [this, id] {
                        auto it2 = entries.find(id);
                        if (it2 == entries.end())
                            return;
                        Node done = std::move(it2->second);
                        entries.erase(it2);

                        for (std::uint32_t dep_id : done.dependents) {
                            auto dit = entries.find(dep_id);
                            if (dit == entries.end())
                                continue;
                            if (--dit->second.e.pendingDeps == 0 &&
                                dit->second.e.state ==
                                    hdc::EntryState::Wait)
                                makeReady(dep_id);
                        }

                        auto rit = remainingPerCmd.find(done.e.cmdId);
                        if (rit == remainingPerCmd.end())
                            panic("%s: entry for undeclared command %u",
                                  _name.c_str(), done.e.cmdId);
                        if (--rit->second == 0) {
                            remainingPerCmd.erase(rit);
                            if (onCommandDone)
                                onCommandDone(done.e.cmdId);
                        }
                    });
    }

    void setLiveBound(std::size_t max_live) { liveBound = max_live; }

    bool
    hasCapacity(std::size_t n) const
    {
        return liveBound == 0 || entries.size() + n <= liveBound;
    }

    void noteReject() { ++_rejects; }
    std::uint64_t rejects() const { return _rejects; }
    std::size_t entriesLive() const { return entries.size(); }
    std::uint64_t entriesIssued() const { return issuedCount; }
    std::uint64_t peakLive() const { return _peakLive; }

  private:
    struct Node
    {
        Entry e;
        std::vector<std::uint32_t> dependents;
    };

    struct Controller
    {
        IssueFn issue;
        int slots = 0;
        int inUse = 0;
        std::deque<std::uint32_t> readyQueue;
    };

    void
    makeReady(std::uint32_t id)
    {
        Entry &e = entries.at(id).e;
        e.state = hdc::EntryState::Ready;
        Controller &c = controllers[static_cast<int>(e.dev)];
        c.readyQueue.push_back(id);
        tryIssue(e.dev);
    }

    void
    tryIssue(DevClass dev)
    {
        Controller &c = controllers[static_cast<int>(dev)];
        if (!c.issue)
            panic("%s: no controller registered for class %d",
                  _name.c_str(), static_cast<int>(dev));
        while (c.inUse < c.slots && !c.readyQueue.empty()) {
            const std::uint32_t id = c.readyQueue.front();
            c.readyQueue.pop_front();
            Entry &e = entries.at(id).e;
            e.state = hdc::EntryState::Issued;
            ++c.inUse;
            ++issuedCount;
            eq.schedule(timing.cycles(timing.scoreboardIssueCycles),
                        [this, id, dev] {
                            auto it = entries.find(id);
                            if (it == entries.end())
                                panic("%s: issued entry vanished",
                                      _name.c_str());
                            controllers[static_cast<int>(dev)].issue(
                                it->second.e);
                        });
        }
    }

    EventQueue &eq;
    std::string _name;
    const HdcTiming &timing;
    std::unordered_map<std::uint32_t, Node> entries;
    std::unordered_map<std::uint32_t, std::uint32_t> remainingPerCmd;
    Controller controllers[4];
    std::function<void(std::uint32_t)> onCommandDone;
    std::uint32_t nextId = 1;
    std::uint64_t issuedCount = 0;
    std::uint64_t _peakLive = 0;
    std::uint64_t _rejects = 0;
    std::size_t liveBound = 0;
    std::vector<std::uint32_t> armQueue;
};

/** The pre-fast-path receive demux: an ordered map keyed by flow. */
using LegacyDemux = std::map<host::FlowKey, int>;

int
demuxFind(const LegacyDemux &d, const host::FlowKey &k)
{
    auto it = d.find(k);
    return it == d.end() ? -1 : it->second;
}

int
demuxFind(const host::FlowIndex &d, const host::FlowKey &k)
{
    const int *fd = d.find(k);
    return fd ? *fd : -1;
}

void
demuxInsert(LegacyDemux &d, const host::FlowKey &k, int fd)
{
    d.emplace(k, fd);
}

void
demuxInsert(host::FlowIndex &d, const host::FlowKey &k, int fd)
{
    d.emplaceIfAbsent(k, fd);
}

/** Quiesce audit: the fast side proves exact occupancy, the legacy
 *  side can only assert emptiness of its map. */
void
auditQuiesce(hdc::Scoreboard &sb)
{
    sb.checkQuiesce();
    if (!sb.quiescent())
        fatal("scoreboard not quiescent after drain");
}

void
auditQuiesce(LegacyScoreboard &sb)
{
    if (sb.entriesLive() != 0)
        fatal("legacy scoreboard not drained (%zu live)",
              sb.entriesLive());
}

struct FastModel
{
    using Sb = hdc::Scoreboard;
    using Demux = host::FlowIndex;
    static constexpr const char *tag = "fastpath";
};

struct LegacyModel
{
    using Sb = LegacyScoreboard;
    using Demux = LegacyDemux;
    static constexpr const char *tag = "legacy";
};

// ---------------------------------------------------------------------
// Behavior digest: both models must produce bit-equal sequences of
// command completions, admission decisions, and simulated time.
// ---------------------------------------------------------------------

struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<std::uint8_t>(v >> (8 * i));
            h *= 1099511628211ull;
        }
    }
};

// ---------------------------------------------------------------------
// The shared rig: one EventQueue, one scoreboard, one demux table,
// controllers whose issue callbacks model fixed device latencies.
// ---------------------------------------------------------------------

constexpr Tick kSsdLat = 8'000'000;  // 8 us flash read
constexpr Tick kNicLat = 2'000'000;  // 2 us wire + completion
constexpr Tick kNdpLat = 1'000'000;  // 1 us transform chunk
constexpr int kSsdSlots = 62;        // shipping queue depths
constexpr int kNicSlots = 254;
constexpr int kNdpSlots = 64;

template <typename Model>
struct Rig
{
    EventQueue eq;
    HdcTiming timing;
    typename Model::Sb sb;
    typename Model::Demux demux;
    Digest dg;

    std::uint32_t nextCmd = 0;
    std::uint64_t launched = 0;
    std::uint64_t completed = 0;
    std::uint64_t targetCmds = 0;
    std::uint32_t nClients = 0;
    std::uint32_t lcg = 0x5eed;
    std::uint64_t arrivalsLeft = 0;
    std::uint64_t decisions = 0;
    int chunks = 1;

    Rig() : sb(eq, "hdc.scoreboard", timing)
    {
        sb.registerController(
            DevClass::SsdCtrl,
            [this](const Entry &e) {
                eq.schedule(kSsdLat,
                            [this, id = e.id] { sb.complete(id); });
            },
            kSsdSlots);
        sb.registerController(
            DevClass::NicCtrl,
            [this](const Entry &e) {
                eq.schedule(kNicLat,
                            [this, id = e.id] { sb.complete(id); });
            },
            kNicSlots);
        sb.registerController(
            DevClass::NdpUnit,
            [this](const Entry &e) {
                eq.schedule(kNdpLat,
                            [this, id = e.id] { sb.complete(id); });
            },
            kNdpSlots);
    }

    static host::FlowKey
    clientKey(std::uint32_t client)
    {
        host::FlowKey k;
        k.localIp = 0x0a000001;
        k.remoteIp = 0x0b000000 | client;
        k.localPort = 8080;
        k.remotePort = static_cast<std::uint16_t>(40000 + client % 20000);
        return k;
    }

    void
    populateClients(std::uint32_t n)
    {
        nClients = n;
        for (std::uint32_t i = 0; i < n; ++i)
            demuxInsert(demux, clientKey(i), static_cast<int>(i));
    }

    /** One keep-alive request: SSD read feeding a NIC send. */
    void
    launchSingle(std::uint64_t aux)
    {
        const std::uint32_t cmd = ++nextCmd;
        ++launched;
        sb.declareCommand(cmd, 2);
        Entry rd;
        rd.cmdId = cmd;
        rd.dev = DevClass::SsdCtrl;
        rd.len = 4096;
        rd.flow = cmd;
        const std::uint32_t rd_id = sb.addEntry(rd);
        Entry tx;
        tx.cmdId = cmd;
        tx.dev = DevClass::NicCtrl;
        tx.write = true;
        tx.len = 4096;
        tx.aux = aux;
        tx.flow = cmd;
        const std::uint32_t tx_id = sb.addEntry(tx);
        sb.addDependency(rd_id, tx_id);
        sb.arm();
    }

    /** One multi-chunk D2D command: per chunk SSD -> NDP -> NIC, with
     *  cross-chunk in-order send chaining (the engine's per-connection
     *  wire ordering). */
    void
    launchPipeline()
    {
        const std::uint32_t cmd = ++nextCmd;
        ++launched;
        sb.declareCommand(cmd,
                          static_cast<std::uint32_t>(3 * chunks));
        std::uint32_t prev_send = 0;
        for (int c = 0; c < chunks; ++c) {
            Entry rd;
            rd.cmdId = cmd;
            rd.dev = DevClass::SsdCtrl;
            rd.len = 64 * 1024;
            rd.aux = static_cast<std::uint64_t>(c);
            rd.flow = cmd;
            const std::uint32_t rd_id = sb.addEntry(rd);
            Entry xf;
            xf.cmdId = cmd;
            xf.dev = DevClass::NdpUnit;
            xf.len = 64 * 1024;
            xf.flow = cmd;
            const std::uint32_t xf_id = sb.addEntry(xf);
            sb.addDependency(rd_id, xf_id);
            Entry tx;
            tx.cmdId = cmd;
            tx.dev = DevClass::NicCtrl;
            tx.write = true;
            tx.len = 64 * 1024;
            tx.flow = cmd;
            const std::uint32_t tx_id = sb.addEntry(tx);
            sb.addDependency(xf_id, tx_id);
            if (prev_send != 0)
                sb.addDependency(prev_send, tx_id);
            prev_send = tx_id;
        }
        sb.arm();
    }

    /** One churn request: demux the client's flow, then launchSingle
     *  on the resolved fd. */
    void
    launchChurn()
    {
        lcg = lcg * 1664525u + 1013904223u;
        const std::uint32_t client = lcg % nClients;
        const int fd = demuxFind(demux, clientKey(client));
        if (fd < 0)
            fatal("churn demux miss for client %u", client);
        dg.mix(static_cast<std::uint64_t>(fd));
        launchSingle(static_cast<std::uint64_t>(fd));
    }

    /** Open-loop arrival: admit under the live bound or take the 429
     *  path. The next arrival is scheduled either way. */
    void
    overloadArrival(Tick gap)
    {
        if (arrivalsLeft == 0)
            return;
        --arrivalsLeft;
        ++decisions;
        if (!sb.hasCapacity(2)) {
            sb.noteReject();
            dg.mix(0);
        } else {
            dg.mix(1);
            launchSingle(0);
        }
        if (arrivalsLeft > 0)
            eq.schedule(gap, [this, gap] { overloadArrival(gap); });
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------------
// Workload drivers. Each returns ops/sec and folds its behavior into
// the digest (if one is requested) — the same code path serves the
// timing, verify, and audit modes.
// ---------------------------------------------------------------------

template <typename Model>
double
singleShotPerSec(std::uint64_t total, int pending, Digest *dg)
{
    Rig<Model> r;
    r.targetCmds = total;
    r.sb.setCommandDone([&r](std::uint32_t cmd) {
        ++r.completed;
        r.dg.mix(cmd);
        if (r.launched < r.targetCmds)
            r.launchSingle(0);
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pending && r.launched < total; ++i)
        r.launchSingle(0);
    r.eq.run();
    const double dt = secondsSince(t0);
    if (r.completed != total)
        fatal("single_shot completed %llu of %llu commands",
              (unsigned long long)r.completed, (unsigned long long)total);
    auditQuiesce(r.sb);
    if (dg) {
        r.dg.mix(r.sb.entriesIssued());
        r.dg.mix(static_cast<std::uint64_t>(r.eq.now()));
        dg->mix(r.dg.h);
    }
    return double(total) / dt;
}

template <typename Model>
double
pipelinePerSec(std::uint64_t total, int chunks, int pending, Digest *dg)
{
    Rig<Model> r;
    r.targetCmds = total;
    r.chunks = chunks;
    r.sb.setCommandDone([&r](std::uint32_t cmd) {
        ++r.completed;
        r.dg.mix(cmd);
        if (r.launched < r.targetCmds)
            r.launchPipeline();
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pending && r.launched < total; ++i)
        r.launchPipeline();
    r.eq.run();
    const double dt = secondsSince(t0);
    if (r.completed != total)
        fatal("ndp_pipeline completed %llu of %llu commands",
              (unsigned long long)r.completed, (unsigned long long)total);
    auditQuiesce(r.sb);
    if (dg) {
        r.dg.mix(r.sb.entriesIssued());
        r.dg.mix(static_cast<std::uint64_t>(r.eq.now()));
        dg->mix(r.dg.h);
    }
    // Entries are the unit of scoreboard work here.
    return double(total) * 3.0 * double(chunks) / dt;
}

template <typename Model>
double
churnPerSec(std::uint32_t clients, std::uint64_t total, int pending,
            Digest *dg)
{
    Rig<Model> r;
    r.targetCmds = total;
    r.populateClients(clients);
    r.sb.setCommandDone([&r](std::uint32_t cmd) {
        ++r.completed;
        r.dg.mix(cmd);
        if (r.launched < r.targetCmds)
            r.launchChurn();
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pending && r.launched < total; ++i)
        r.launchChurn();
    r.eq.run();
    const double dt = secondsSince(t0);
    if (r.completed != total)
        fatal("churn completed %llu of %llu commands",
              (unsigned long long)r.completed, (unsigned long long)total);
    auditQuiesce(r.sb);
    if (dg) {
        r.dg.mix(r.sb.entriesIssued());
        r.dg.mix(static_cast<std::uint64_t>(r.eq.now()));
        dg->mix(r.dg.h);
    }
    return double(total) / dt;
}

template <typename Demux>
double
demuxLookupsPerSec(std::uint32_t conns, std::uint64_t lookups,
                   Digest *dg)
{
    Demux d;
    for (std::uint32_t i = 0; i < conns; ++i)
        demuxInsert(d, Rig<FastModel>::clientKey(i),
                    static_cast<int>(i));
    std::uint32_t lcg = 0xd311;
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < lookups; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const int fd = demuxFind(d, Rig<FastModel>::clientKey(lcg % conns));
        if (fd < 0)
            fatal("flow_demux miss");
        sum += static_cast<std::uint64_t>(fd);
    }
    const double dt = secondsSince(t0);
    if (dg)
        dg->mix(sum);
    return double(lookups) / dt;
}

template <typename Model>
double
overloadPerSec(std::uint64_t arrivals, Tick gap, std::size_t bound,
               Digest *dg, std::uint64_t *rejects_out)
{
    Rig<Model> r;
    r.sb.setLiveBound(bound);
    r.targetCmds = ~0ull; // admits are bounded by the arrival stream
    r.arrivalsLeft = arrivals;
    r.sb.setCommandDone([&r](std::uint32_t cmd) {
        ++r.completed;
        r.dg.mix(cmd);
    });
    const auto t0 = std::chrono::steady_clock::now();
    r.overloadArrival(gap);
    r.eq.run();
    const double dt = secondsSince(t0);
    if (r.decisions != arrivals)
        fatal("overload made %llu of %llu decisions",
              (unsigned long long)r.decisions,
              (unsigned long long)arrivals);
    if (r.completed + r.sb.rejects() != arrivals)
        fatal("overload lost commands: %llu done + %llu rejected "
              "of %llu offered",
              (unsigned long long)r.completed,
              (unsigned long long)r.sb.rejects(),
              (unsigned long long)arrivals);
    auditQuiesce(r.sb);
    if (dg) {
        r.dg.mix(r.sb.rejects());
        r.dg.mix(static_cast<std::uint64_t>(r.eq.now()));
        dg->mix(r.dg.h);
    }
    if (rejects_out)
        *rejects_out = r.sb.rejects();
    return double(arrivals) / dt;
}

/**
 * Steady-state allocation audit at the churn point: drain a warmup
 * population (slab, probe tables, and event calendar grow to their
 * working set), snapshot the global allocation counter, then complete
 * @p measured more requests. Returns allocations per request over the
 * measured window.
 */
template <typename Model>
double
churnAllocsPerRequest(std::uint32_t clients, std::uint64_t warmup,
                      std::uint64_t measured, int pending)
{
    Rig<Model> r;
    r.targetCmds = warmup;
    r.populateClients(clients);
    r.sb.setCommandDone([&r](std::uint32_t) {
        ++r.completed;
        if (r.launched < r.targetCmds)
            r.launchChurn();
    });
    for (int i = 0; i < pending; ++i)
        r.launchChurn();
    r.eq.run();
    if (r.completed != warmup)
        fatal("alloc-audit warmup incomplete");

    const std::uint64_t snap = allocsNow();
    r.targetCmds = warmup + measured;
    for (int i = 0; i < pending; ++i)
        r.launchChurn();
    r.eq.run();
    const std::uint64_t delta = allocsNow() - snap;
    if (r.completed != warmup + measured)
        fatal("alloc-audit measured window incomplete");
    auditQuiesce(r.sb);
    return double(delta) / double(measured);
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

// Timing-mode scales.
constexpr std::uint64_t kSingleCmds = 200'000;
constexpr int kSinglePending = 64;
constexpr std::uint64_t kPipeCmds = 12'000;
constexpr int kPipeChunks = 8;
constexpr int kPipePending = 8;
constexpr std::uint32_t kChurnClients = 100'000;
constexpr std::uint64_t kChurnCmds = 300'000;
constexpr int kChurnPending = 128;
constexpr std::uint32_t kDemuxConns = 100'000;
constexpr std::uint64_t kDemuxLookups = 4'000'000;
constexpr std::uint64_t kOverloadArrivals = 300'000;
constexpr Tick kOverloadGap = 100'000; // 100 ns offered interarrival
constexpr std::size_t kOverloadBound = 128;
constexpr int kReps = 3;

// Audit scales (also used by the --alloc-audit ctest gate).
constexpr std::uint64_t kAuditWarmup = 150'000;
constexpr std::uint64_t kAuditMeasured = 250'000;

int
runVerify()
{
    // Reduced-scale run of every workload on both models; all output
    // is deterministic (no wall-clock numbers), so CI byte-compares
    // this mode's stdout across DCS_BENCH_THREADS values.
    struct Line
    {
        const char *name;
        std::uint64_t legacy;
        std::uint64_t fast;
    };
    Line lines[5];

    {
        Digest l, f;
        singleShotPerSec<LegacyModel>(20'000, kSinglePending, &l);
        singleShotPerSec<FastModel>(20'000, kSinglePending, &f);
        lines[0] = {"single_shot", l.h, f.h};
    }
    {
        Digest l, f;
        pipelinePerSec<LegacyModel>(2'000, kPipeChunks, kPipePending, &l);
        pipelinePerSec<FastModel>(2'000, kPipeChunks, kPipePending, &f);
        lines[1] = {"ndp_pipeline", l.h, f.h};
    }
    {
        Digest l, f;
        churnPerSec<LegacyModel>(20'000, 50'000, kChurnPending, &l);
        churnPerSec<FastModel>(20'000, 50'000, kChurnPending, &f);
        lines[2] = {"churn_100k", l.h, f.h};
    }
    {
        Digest l, f;
        demuxLookupsPerSec<LegacyDemux>(20'000, 200'000, &l);
        demuxLookupsPerSec<host::FlowIndex>(20'000, 200'000, &f);
        lines[3] = {"flow_demux", l.h, f.h};
    }
    {
        Digest l, f;
        std::uint64_t lr = 0, fr = 0;
        overloadPerSec<LegacyModel>(30'000, kOverloadGap, kOverloadBound,
                                    &l, &lr);
        overloadPerSec<FastModel>(30'000, kOverloadGap, kOverloadBound,
                                  &f, &fr);
        if (lr != fr)
            fatal("overload reject count diverged: legacy %llu, "
                  "fastpath %llu",
                  (unsigned long long)lr, (unsigned long long)fr);
        std::printf("overload_429 rejects: %llu of 30000 offered\n",
                    (unsigned long long)lr);
        lines[4] = {"overload_429", l.h, f.h};
    }

    bool ok = true;
    std::printf("%-14s %18s %18s\n", "workload", "legacy_digest",
                "fastpath_digest");
    for (const Line &ln : lines) {
        std::printf("%-14s %018llx %018llx\n", ln.name,
                    (unsigned long long)ln.legacy,
                    (unsigned long long)ln.fast);
        ok = ok && ln.legacy == ln.fast;
    }
    if (!ok)
        fatal("behavior digest mismatch between legacy and fastpath "
              "models");
    std::printf("VERIFY_OK\n");
    return 0;
}

int
runAllocAudit()
{
    // The acceptance gate: at the 10^5-client point, the fast path
    // must complete requests with zero steady-state allocations.
    const double fast = churnAllocsPerRequest<FastModel>(
        kChurnClients, kAuditWarmup, kAuditMeasured, kChurnPending);
    const double legacy = churnAllocsPerRequest<LegacyModel>(
        kChurnClients, kAuditWarmup, kAuditMeasured, kChurnPending);
    std::printf("alloc audit (%u clients, %llu warmup + %llu measured "
                "requests)\n",
                kChurnClients, (unsigned long long)kAuditWarmup,
                (unsigned long long)kAuditMeasured);
    std::printf("%-10s %24.3f allocs/request\n", "legacy", legacy);
    std::printf("%-10s %24.3f allocs/request\n", "fastpath", fast);
    if (fast != 0.0)
        fatal("fast path allocated in steady state: %.6f per request",
              fast);
    std::printf("ALLOC_AUDIT_OK\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "control_path_bench", "perf");

    bool verify = false;
    bool audit = false;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
        if (std::strcmp(argv[r], "--verify") == 0)
            verify = true;
        else if (std::strcmp(argv[r], "--alloc-audit") == 0)
            audit = true;
        else
            argv[w++] = argv[r];
    }
    argc = w;

    if (verify)
        return runVerify();
    if (audit)
        return runAllocAudit();

    struct Workload
    {
        const char *name;
        const char *unit;
        double legacy;
        double fast;
    };
    Workload workloads[] = {
        {"single_shot", "cmds/s", 0.0, 0.0},
        {"ndp_pipeline", "entries/s", 0.0, 0.0},
        {"churn_100k", "reqs/s", 0.0, 0.0},
        {"flow_demux", "lookups/s", 0.0, 0.0},
        {"overload_429", "decisions/s", 0.0, 0.0},
    };

    std::printf("control-plane model fast path (best of %d per point)\n",
                kReps);
    std::printf("  single_shot:  %llu 2-entry commands, %d in flight\n",
                (unsigned long long)kSingleCmds, kSinglePending);
    std::printf("  ndp_pipeline: %llu commands x %d chunks "
                "(SSD->NDP->NIC)\n",
                (unsigned long long)kPipeCmds, kPipeChunks);
    std::printf("  churn_100k:   %llu requests over %u clients\n",
                (unsigned long long)kChurnCmds, kChurnClients);
    std::printf("  flow_demux:   %llu lookups over %u flows\n",
                (unsigned long long)kDemuxLookups, kDemuxConns);
    std::printf("  overload_429: %llu arrivals, live bound %zu\n\n",
                (unsigned long long)kOverloadArrivals, kOverloadBound);

    workloads[0].legacy = bestOf(kReps, [] {
        return singleShotPerSec<LegacyModel>(kSingleCmds, kSinglePending,
                                             nullptr);
    });
    workloads[0].fast = bestOf(kReps, [] {
        return singleShotPerSec<FastModel>(kSingleCmds, kSinglePending,
                                           nullptr);
    });
    workloads[1].legacy = bestOf(kReps, [] {
        return pipelinePerSec<LegacyModel>(kPipeCmds, kPipeChunks,
                                           kPipePending, nullptr);
    });
    workloads[1].fast = bestOf(kReps, [] {
        return pipelinePerSec<FastModel>(kPipeCmds, kPipeChunks,
                                         kPipePending, nullptr);
    });
    workloads[2].legacy = bestOf(kReps, [] {
        return churnPerSec<LegacyModel>(kChurnClients, kChurnCmds,
                                        kChurnPending, nullptr);
    });
    workloads[2].fast = bestOf(kReps, [] {
        return churnPerSec<FastModel>(kChurnClients, kChurnCmds,
                                      kChurnPending, nullptr);
    });
    workloads[3].legacy = bestOf(kReps, [] {
        return demuxLookupsPerSec<LegacyDemux>(kDemuxConns,
                                               kDemuxLookups, nullptr);
    });
    workloads[3].fast = bestOf(kReps, [] {
        return demuxLookupsPerSec<host::FlowIndex>(
            kDemuxConns, kDemuxLookups, nullptr);
    });
    std::uint64_t rejects = 0;
    workloads[4].legacy = bestOf(kReps, [&rejects] {
        return overloadPerSec<LegacyModel>(kOverloadArrivals,
                                           kOverloadGap, kOverloadBound,
                                           nullptr, &rejects);
    });
    workloads[4].fast = bestOf(kReps, [&rejects] {
        return overloadPerSec<FastModel>(kOverloadArrivals, kOverloadGap,
                                         kOverloadBound, nullptr,
                                         &rejects);
    });

    std::printf("%-14s %12s %12s %9s\n", "workload", "legacy_Mops/s",
                "fast_Mops/s", "speedup");
    double logSum = 0.0;
    for (const Workload &wl : workloads) {
        const double s = wl.fast / wl.legacy;
        logSum += std::log(s);
        std::printf("%-14s %12.2f %12.2f %8.2fx\n", wl.name,
                    wl.legacy / 1e6, wl.fast / 1e6, s);
    }
    const double speedup =
        std::exp(logSum / double(std::size(workloads)));
    std::printf("%-14s %12s %12s %8.2fx (geomean)\n", "overall", "", "",
                speedup);

    // Steady-state allocation rate at the churn point, both models.
    const double fastAllocs = churnAllocsPerRequest<FastModel>(
        kChurnClients, kAuditWarmup, kAuditMeasured, kChurnPending);
    const double legacyAllocs = churnAllocsPerRequest<LegacyModel>(
        kChurnClients, kAuditWarmup, kAuditMeasured, kChurnPending);
    std::printf("\nsteady-state heap allocations per request "
                "(%u clients)\n",
                kChurnClients);
    std::printf("%-14s %12.3f\n", "legacy", legacyAllocs);
    std::printf("%-14s %12.3f\n", "fastpath", fastAllocs);
    if (fastAllocs != 0.0)
        fatal("fast path allocated in steady state: %.6f per request",
              fastAllocs);

    for (const Workload &wl : workloads) {
        const std::string n = wl.name;
        report.headline(n + "/legacy_ops_per_sec", wl.legacy, wl.unit);
        report.headline(n + "/fastpath_ops_per_sec", wl.fast, wl.unit);
        report.headline(n + "/speedup", wl.fast / wl.legacy, "x");
    }
    report.headline("speedup_control_path", speedup, "x", std::nan(""),
                    "geomean across single_shot/ndp_pipeline/churn_100k/"
                    "flow_demux/overload_429, slab+pool model vs "
                    "pre-change hash-map model; acceptance floor is 2x");
    report.headline("churn_100k/legacy_allocs_per_req", legacyAllocs,
                    "allocs");
    report.headline("churn_100k/fastpath_allocs_per_req", fastAllocs,
                    "allocs",
                    std::nan(""),
                    "steady-state heap allocations per completed "
                    "request at the 100k-client point; must be 0");
    report.headline("overload_429/rejects", double(rejects), "cmds");

    if (report.enabled()) {
        // One registry snapshot so the report carries the scoreboard's
        // own occupancy gauges alongside the wall-clock numbers.
        Rig<FastModel> r;
        r.targetCmds = 1'000;
        r.sb.setCommandDone([&r](std::uint32_t) {
            ++r.completed;
            if (r.launched < r.targetCmds)
                r.launchSingle(0);
        });
        for (int i = 0; i < 16; ++i)
            r.launchSingle(0);
        r.eq.run();
        report.captureStats("fastpath_sample", r.eq);
    }
    return report.finish();
}
