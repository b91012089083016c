/**
 * @file
 * The repository benchmark's measuring binary (see README.md here).
 *
 * Runs one named workload through the public workload::/sys:: APIs on
 * one simulation thread and ends with one machine-readable
 * `RESULT {...}` line, which run.py turns into the benchmark report.
 * Host time is measured from outside the library:
 *
 *   --trace 0  set up and simulate the workload again and again for
 *              --seconds, cycling through seeds derived from --seed;
 *              every repetition reports its set-up time, its
 *              simulation wall time and the time of the reference
 *              loop slices interleaved with the simulation (run.py
 *              scales the one by the other and takes medians) and the
 *              peak resident memory after one repetition of each seed;
 *   --trace 1  also drive every EventQueue one public step() at a
 *              time, charge each step's steady_clock time to the layer
 *              that owns the event's label, and time the byte kernels,
 *              the frame codec and an empty event in isolation.
 *
 * Every repetition routes the workload's datapath calls through a
 * forwarding DataPath that records each returned digest. After the
 * timed region the digests are recomputed from the stored file bytes,
 * and drain, request conservation, the HDC engines' quiesce audits
 * and run-to-run determinism are checked. Any failed check is
 * reported and fails the run.
 */
// dcslint: allow-file(ambient-time-randomness): host wall-clock timing,
// the allocation counters and the abort report are the measurements this
// benchmark exists to take; none of them feeds simulated state.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "baselines/datapath.hh"
#include "ndp/crc32.hh"
#include "ndp/md5.hh"
#include "ndp/transform.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workload/experiment.hh"
#include "workload/hdfs.hh"
#include "workload/loadgen.hh"
#include "workload/swift.hh"

using namespace dcs;
using workload::Design;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Heap-allocation counters for the whole process (mem.allocs_per_req).
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_allocBytes{0};
/** Datapath operations issued so far; read by the abort handler. */
std::atomic<std::uint64_t> g_attempted{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    const std::size_t bytes = n ? n : 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align,
                                       (bytes + align - 1) / align * align)
                  : std::malloc(bytes);
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
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * SIGABRT handler: a panic() aborts the process before any result is
 * printed, so say how many datapath operations were attempted (run.py
 * counts them all as failed). Only async-signal-safe calls.
 */
extern "C" void
onAbort(int sig)
{
    char buf[80];
    const char prefix[] = "perfbench: aborted after ";
    std::size_t n = sizeof(prefix) - 1;
    std::memcpy(buf, prefix, n);
    char digits[24];
    std::size_t d = 0;
    std::uint64_t v = g_attempted.load(std::memory_order_relaxed);
    do {
        digits[d++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    while (d != 0)
        buf[n++] = digits[--d];
    const char suffix[] = " datapath operations\n";
    std::memcpy(buf + n, suffix, sizeof(suffix) - 1);
    n += sizeof(suffix) - 1;
    [[maybe_unused]] const ssize_t w = ::write(2, buf, n);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

// ---------------------------------------------------------------------
// Forwarding datapath: records every operation and its digest.
// ---------------------------------------------------------------------

bool
isIntegrity(ndp::Function fn)
{
    return fn == ndp::Function::Md5 || fn == ndp::Function::Sha1 ||
           fn == ndp::Function::Sha256 || fn == ndp::Function::Crc32;
}

/**
 * Forwards every call to the design's real DataPath and records what
 * the workload asked for and what came back. It schedules no events,
 * so the event stream (and its TraceHasher digest) is unchanged; the
 * completion wrapper captures two words so it needs no heap storage.
 */
class CheckedPath final : public baselines::DataPath
{
  public:
    struct Op
    {
        bool receive = false;
        int fd = -1;
        std::uint64_t offset = 0;
        std::uint64_t len = 0;
        ndp::Function fn = ndp::Function::None;
        Tick start = 0;
        Tick end = 0;
        std::uint32_t status = 0;
        int completions = 0;
        std::array<std::uint8_t, 32> digest{};
        std::size_t digestLen = 0;
        baselines::PathCallback done;
    };

    CheckedPath(EventQueue &eq, baselines::DataPath &inner)
        : eq(eq), inner(inner)
    {
        ops.reserve(1 << 16);
    }

    std::string label() const override { return inner.label(); }

    void
    sendFile(int file_fd, int sock_fd, std::uint64_t offset,
             std::uint64_t len, ndp::Function fn,
             std::vector<std::uint8_t> aux, host::TracePtr trace,
             baselines::PathCallback done) override
    {
        inner.sendFile(file_fd, sock_fd, offset, len, fn, std::move(aux),
                       std::move(trace),
                       track(false, file_fd, offset, len, fn,
                             std::move(done)));
    }

    void
    receiveToFile(int sock_fd, int file_fd, std::uint64_t offset,
                  std::uint64_t len, ndp::Function fn,
                  std::vector<std::uint8_t> aux, host::TracePtr trace,
                  baselines::PathCallback done) override
    {
        inner.receiveToFile(sock_fd, file_fd, offset, len, fn,
                            std::move(aux), std::move(trace),
                            track(true, file_fd, offset, len, fn,
                                  std::move(done)));
    }

    const std::vector<Op> &operations() const { return ops; }

  private:
    baselines::PathCallback
    track(bool receive, int fd, std::uint64_t offset, std::uint64_t len,
          ndp::Function fn, baselines::PathCallback done)
    {
        const std::size_t idx = ops.size();
        Op op;
        op.receive = receive;
        op.fd = fd;
        op.offset = offset;
        op.len = len;
        op.fn = fn;
        op.start = eq.now();
        op.done = std::move(done);
        ops.push_back(std::move(op));
        g_attempted.fetch_add(1, std::memory_order_relaxed);
        return [this, idx](const baselines::PathResult &r) {
            finish(idx, r);
        };
    }

    void
    finish(std::size_t idx, const baselines::PathResult &r)
    {
        Op &op = ops[idx];
        ++op.completions;
        op.end = eq.now();
        op.status = r.status;
        op.digestLen = std::min(r.digest.size(), op.digest.size());
        std::copy_n(r.digest.begin(), op.digestLen, op.digest.begin());
        if (!op.done)
            return; // a second completion: reported by checkOps()
        // Move the callback out first: it may issue the next request,
        // and the push_back can reallocate `ops` under `op`.
        auto cb = std::move(op.done);
        op.done = nullptr;
        cb(r);
    }

    EventQueue &eq;
    baselines::DataPath &inner;
    std::vector<Op> ops;
};

// ---------------------------------------------------------------------
// Layers: an event belongs to the src/ module that owns its label.
// ---------------------------------------------------------------------

enum Layer : std::size_t
{
    LHdc,
    LHost,
    LNic,
    LNvme,
    LGpu,
    LPcie,
    LNet,
    LWorkload,
    LOther,
    kLayers
};

const char *const kLayerNames[kLayers] = {
    "hdc", "host", "nic", "nvme", "gpu", "pcie", "net", "workload",
    "other"};

/** "nodeA.hdc.scoreboard" -> hdc, "wire" -> net, "" -> workload. */
Layer
layerOf(std::string_view label)
{
    if (label.empty())
        return LWorkload;
    if (label.starts_with("wire") || label.starts_with("switch"))
        return LNet;
    const std::size_t dot = label.find('.');
    if (!label.starts_with("node") || dot == std::string_view::npos)
        return LOther;
    std::string_view comp = label.substr(dot + 1);
    comp = comp.substr(0, comp.find('.'));
    if (comp == "hdc")
        return LHdc;
    if (comp == "host")
        return LHost;
    if (comp == "nic")
        return LNic;
    if (comp.starts_with("ssd"))
        return LNvme;
    if (comp == "gpu")
        return LGpu;
    if (comp == "pcie")
        return LPcie;
    return LOther;
}

/** Host time charged to one event label in a traced run. */
struct LabelTime
{
    Layer layer = LOther;
    std::uint64_t events = 0;
    std::int64_t ns = 0;
};

// ---------------------------------------------------------------------
// Reference loop: how fast this machine runs at the moment.
// ---------------------------------------------------------------------

/** Simulation events per chunk between two reference slices. */
constexpr std::uint64_t kChunkEvents = 16384;
/** Reference events per slice. */
constexpr std::uint64_t kSliceEvents = 2048;

/**
 * A fixed discrete-event loop of the benchmark's own: a binary heap of
 * timestamped std::function callbacks, each of which frees and
 * allocates a small block, updates random words of an 8 MiB table and,
 * every eighth event, moves 4 KiB within a 16 MiB buffer. It shares no
 * code with src/, so no change to the simulator changes its cost; only
 * the machine does. On a shared host the machine's speed drifts by up
 * to 2x over tens of seconds (other tenants' cache and memory-bandwidth
 * use, clock frequency). A slice of this loop timed next to every chunk
 * of simulation measures that drift, and run.py divides it out.
 * Callbacks capture two pointers, which std::function stores inline,
 * and blocks come from malloc, so the operator new counters do not see
 * the loop.
 */
class Reference
{
  public:
    Reference() : table(std::size_t{1} << 20, 1), buf(std::size_t{16} << 20, 1)
    {
        heap.reserve(kPending);
        for (std::size_t i = 0; i < kPending; ++i)
            schedule();
    }

    /** Execute @p n events; return the host seconds they took. */
    double
    slice(std::uint64_t n)
    {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::pop_heap(heap.begin(), heap.end(), later);
            Entry e = std::move(heap.back());
            heap.pop_back();
            now = e.when;
            e.fn();
        }
        return secondsSince(t0);
    }

  private:
    static constexpr std::size_t kPending = 1024;
    static constexpr std::size_t kMove = 4096;

    struct Entry
    {
        std::uint64_t when;
        std::function<void()> fn;
    };

    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.when > b.when;
    }

    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    void
    schedule()
    {
        auto *block = static_cast<std::uint64_t *>(std::malloc(64));
        if (!block)
            throw std::bad_alloc();
        block[0] = next();
        heap.push_back({now + block[0] % 1000 + 1,
                        [this, block] { fire(block); }});
        std::push_heap(heap.begin(), heap.end(), later);
    }

    void
    fire(std::uint64_t *block)
    {
        const std::uint64_t r = block[0];
        std::free(block);
        table[r % table.size()] += r;
        table[(r >> 24) % table.size()] ^= table[(r >> 40) % table.size()];
        if ((r & 7) == 0) {
            const std::size_t span = buf.size() - kMove;
            std::memmove(&buf[next() % span], &buf[next() % span], kMove);
        }
        schedule();
    }

    std::vector<std::uint64_t> table;
    std::vector<char> buf;
    std::vector<Entry> heap;
    std::uint64_t now = 0;
    std::uint64_t x = 88172645463325252ull;
};

/** The loop of the (single) simulation thread. */
Reference &
reference()
{
    static thread_local Reference ref;
    return ref;
}

enum class Drive
{
    Plain,  //!< step() in chunks between reference slices: timed
    Hashed, //!< run() with a TraceHasher attached
    Traced, //!< step() loop, every step timed and charged to a layer
};

/** Simulated outcome of one testbed (identical for a given seed). */
struct SimResult
{
    stats::SampledDistribution latencyUs;
    double goodputGbps = 0.0;
    double cpuPct = 0.0;
    bool openLoop = false;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected429 = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sloMisses = 0;

    /** Every simulated number, for exact run-to-run comparison. */
    std::vector<double>
    signature() const
    {
        return {latencyUs.quantile(0.5),
                latencyUs.quantile(0.99),
                latencyUs.mean(),
                static_cast<double>(latencyUs.count()),
                goodputGbps,
                cpuPct,
                static_cast<double>(offered),
                static_cast<double>(completed),
                static_cast<double>(rejected429),
                static_cast<double>(dropped),
                static_cast<double>(sloMisses)};
    }
};

/** Everything one testbed run measured and checked. */
struct TestbedRun
{
    std::string label;
    double setupS = 0.0;
    double wallS = 0.0;
    double refS = 0.0;              //!< reference slices (Drive::Plain)
    std::uint64_t refEvents = 0;    //!< reference events in refS
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    bool hashed = false;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    std::map<std::string, LabelTime, std::less<>> labels;
    std::uint64_t ops = 0;
    std::uint64_t failedOps = 0;
    std::uint64_t outcomes = 14695981039346656037ull;
    std::uint64_t md5Bytes = 0;
    std::uint64_t crc32Bytes = 0;
    std::vector<std::uint64_t> md5Lens;   //!< per served MD5 operation
    std::vector<std::uint64_t> crc32Lens; //!< per served CRC32 operation
    std::vector<std::string> errors;
    SimResult sim;
    std::string statsJson;
};

/**
 * Simulate until the queue drains. @p start kicks the workload off
 * inside the timed region. Allocations are counted over the same
 * region.
 */
void
drive(EventQueue &eq, Drive mode, const std::function<void()> &start,
      TestbedRun &out)
{
    TraceHasher hasher;
    std::string_view current;
    if (mode == Drive::Hashed) {
        hasher.attach(eq);
    } else if (mode == Drive::Traced) {
        eq.setTraceHook([&hasher, &current](Tick t, std::uint64_t seq,
                                            std::string_view label) {
            hasher.observe(t, seq, label);
            current = label;
        });
    }
    const std::uint64_t ev0 = eq.executed();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t b0 = g_allocBytes.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    start();
    if (mode == Drive::Plain) {
        // Chunks of simulation alternate with reference slices; only
        // the chunks count as simulation time.
        out.wallS = secondsSince(t0);
        for (bool more = true; more;) {
            const auto c0 = Clock::now();
            for (std::uint64_t n = 0; n < kChunkEvents; ++n) {
                if (!eq.step()) {
                    more = false;
                    break;
                }
            }
            out.wallS += secondsSince(c0);
            out.refS += reference().slice(kSliceEvents);
            out.refEvents += kSliceEvents;
        }
    } else if (mode == Drive::Traced) {
        // One clock read per step: each step is charged the time since
        // the previous one ended, so the profiler's own per-step
        // bookkeeping lands on the next event rather than nowhere.
        LabelTime *slot = nullptr;
        const char *slotData = nullptr;
        std::size_t slotSize = 0;
        auto prev = Clock::now();
        while (eq.step()) {
            const auto now = Clock::now();
            // Labels are SimObject names with stable storage, so the
            // same label repeats with the same pointer; skip the map
            // lookup then.
            if (!slot || current.data() != slotData ||
                current.size() != slotSize) {
                auto it = out.labels.find(current);
                if (it == out.labels.end())
                    it = out.labels
                             .emplace(std::string(current),
                                      LabelTime{layerOf(current), 0, 0})
                             .first;
                slot = &it->second;
                slotData = current.data();
                slotSize = current.size();
            }
            ++slot->events;
            slot->ns +=
                std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                     prev)
                    .count();
            prev = now;
        }
    } else {
        eq.run();
    }
    if (mode != Drive::Plain)
        out.wallS = secondsSince(t0);
    out.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    out.allocBytes = g_allocBytes.load(std::memory_order_relaxed) - b0;
    out.events = eq.executed() - ev0;
    if (mode != Drive::Plain) {
        out.digest = hasher.digest();
        out.hashed = true;
    }
    eq.setTraceHook(nullptr);
}

void
fail(TestbedRun &out, std::string msg)
{
    out.errors.push_back(out.label + ": " + std::move(msg));
}

/** FNV-1a fold of one value into @p h. */
void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

/**
 * Check each recorded operation: completed exactly once with status 0
 * or 429. With @p verify, also recompute every returned digest from
 * the bytes the file system holds. Every operation's outcome is folded
 * into out.outcomes, so a repetition that does not recompute is
 * checked by equality with one that did.
 */
void
checkOps(const CheckedPath &path, const host::ExtentFs &fs, bool verify,
         TestbedRun &out)
{
    using Key = std::tuple<int, std::uint64_t, std::uint64_t, int>;
    std::map<Key, std::vector<std::uint8_t>> expected;
    for (const CheckedPath::Op &op : path.operations()) {
        ++out.ops;
        mix(out.outcomes, static_cast<std::uint64_t>(op.fd));
        mix(out.outcomes, op.offset);
        mix(out.outcomes, op.len);
        mix(out.outcomes, op.start);
        mix(out.outcomes, op.end);
        mix(out.outcomes, op.status);
        for (std::size_t i = 0; i < op.digestLen; ++i)
            mix(out.outcomes, op.digest[i]);
        std::string err;
        if (op.completions != 1) {
            err = "completed " + std::to_string(op.completions) + " times";
        } else if (op.status != 0 && op.status != 429) {
            err = "status " + std::to_string(op.status);
        } else if (verify && op.status == 0 && isIntegrity(op.fn)) {
            const Key key{op.fd, op.offset, op.len, static_cast<int>(op.fn)};
            auto it = expected.find(key);
            if (it == expected.end()) {
                const std::vector<std::uint8_t> bytes = fs.readContents(op.fd);
                std::vector<std::uint8_t> want;
                if (op.offset + op.len <= bytes.size())
                    want = ndp::applyTransform(
                               op.fn, std::span<const std::uint8_t>(bytes)
                                          .subspan(op.offset, op.len))
                               .digest;
                it = expected.emplace(key, std::move(want)).first;
            }
            const std::vector<std::uint8_t> &want = it->second;
            if (want.empty() || want.size() != op.digestLen ||
                !std::equal(want.begin(), want.end(), op.digest.begin()))
                err = ndp::functionName(op.fn) + " digest mismatch";
        }
        if (!err.empty()) {
            ++out.failedOps;
            if (out.errors.size() < 8)
                fail(out, std::string(op.receive ? "receive" : "send") +
                              " fd " + std::to_string(op.fd) + ": " + err);
        }
        if (op.status == 0 && op.fn == ndp::Function::Md5) {
            out.md5Bytes += op.len;
            out.md5Lens.push_back(op.len);
        }
        if (op.status == 0 && op.fn == ndp::Function::Crc32) {
            out.crc32Bytes += op.len;
            out.crc32Lens.push_back(op.len);
        }
    }
}

/** Drain and quiesce audit of one DCS-ctrl node after the run. */
void
checkEngine(sys::Node &node, TestbedRun &out)
{
    if (!node.engine().checkQuiesce())
        fail(out, node.name() + ".hdc: checkQuiesce() failed");
}

void
checkDrained(EventQueue &eq, bool finished, TestbedRun &out)
{
    if (!finished)
        fail(out, "workload did not report completion (queue drained "
                  "with requests outstanding)");
    if (!eq.empty() || eq.pending() != 0)
        fail(out, "event queue not drained");
}

/** The stats registry of a traced run feeds the per-layer counts. */
void
captureStats(EventQueue &eq, Drive mode, TestbedRun &out)
{
    if (mode == Drive::Traced)
        out.statsJson = eq.stats().dumpJsonString();
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct RunCfg
{
    std::uint64_t seed = 1;
    Drive mode = Drive::Plain;
    bool forward = true; //!< false: the design's DataPath, unwrapped
    bool verify = false; //!< recompute digests from stored bytes
    bool setupOnly = false; //!< build the testbeds, do not simulate
};

/** Fig. 12a's Swift setup (bench/fig12a_swift.cc). */
TestbedRun
runSwift(Design d, const RunCfg &cfg)
{
    TestbedRun out;
    out.label = workload::designName(d);
    const auto t0 = Clock::now();
    workload::Testbed tb(d);
    CheckedPath fwd(tb.eq(), tb.pathA());
    baselines::DataPath &path =
        cfg.forward ? static_cast<baselines::DataPath &>(fwd) : tb.pathA();
    workload::SwiftParams p;
    p.offeredGbps = 5.0;
    p.warmup = milliseconds(10);
    p.measure = milliseconds(300);
    p.connections = 32;
    p.mix.sizeBuckets = {{4 * 1024, 0.18},    {16 * 1024, 0.17},
                         {64 * 1024, 0.20},   {256 * 1024, 0.20},
                         {1024 * 1024, 0.15}, {2048 * 1024, 0.10}};
    p.appFixedUs = 200.0;
    p.appPerMbUs = (d == Design::DcsCtrl) ? 700.0 : 1500.0;
    p.seed = cfg.seed;
    workload::SwiftWorkload wl(tb.eq(), tb.nodeA(), tb.nodeB(), path, p);
    out.setupS = secondsSince(t0);
    if (cfg.setupOnly)
        return out;

    bool fin = false;
    workload::SwiftStats st;
    drive(tb.eq(), cfg.mode,
          [&] {
              wl.run([&](const workload::SwiftStats &s) {
                  st = s;
                  fin = true;
              });
          },
          out);
    checkDrained(tb.eq(), fin, out);
    if (cfg.forward)
        checkOps(fwd, tb.nodeA().fs(), cfg.verify, out);
    if (d == Design::DcsCtrl)
        checkEngine(tb.nodeA(), out);
    out.sim.latencyUs = st.latencyUs;
    out.sim.goodputGbps = st.throughputGbps;
    out.sim.cpuPct = 100.0 * st.cpuUtilization;
    out.sim.offered = st.getsDone + st.putsDone;
    out.sim.completed = st.getsDone + st.putsDone;
    captureStats(tb.eq(), cfg.mode, out);
    return out;
}

/** Fig. 12b's HDFS balancer setup (bench/fig12b_hdfs.cc), DCS-ctrl. */
TestbedRun
runHdfs(const RunCfg &cfg)
{
    TestbedRun out;
    out.label = workload::designName(Design::DcsCtrl);
    const auto t0 = Clock::now();
    workload::Testbed tb(Design::DcsCtrl, /*receiver_dcs=*/true);
    CheckedPath fwdA(tb.eq(), tb.pathA());
    CheckedPath fwdB(tb.eq(), tb.pathB());
    baselines::DataPath &pathA =
        cfg.forward ? static_cast<baselines::DataPath &>(fwdA) : tb.pathA();
    baselines::DataPath &pathB =
        cfg.forward ? static_cast<baselines::DataPath &>(fwdB) : tb.pathB();
    workload::HdfsParams p;
    p.blocks = 24;
    p.streams = 6;
    p.blockBytes = 8ull << 20;
    p.senderAppUsPerBlock = 1000.0;
    p.receiverAppUsPerBlock = 5500.0;
    p.seed = cfg.seed;
    workload::HdfsBalancer wl(tb.eq(), tb.nodeA(), tb.nodeB(), pathA, pathB,
                              p);
    out.setupS = secondsSince(t0);
    if (cfg.setupOnly)
        return out;

    bool fin = false;
    workload::HdfsStats st;
    drive(tb.eq(), cfg.mode,
          [&] {
              wl.run([&](const workload::HdfsStats &s) {
                  st = s;
                  fin = true;
              });
          },
          out);
    checkDrained(tb.eq(), fin, out);
    if (cfg.forward) {
        checkOps(fwdA, tb.nodeA().fs(), cfg.verify, out);
        checkOps(fwdB, tb.nodeB().fs(), cfg.verify, out);
        // Per-block latency at the receiver's DataPath boundary.
        for (const CheckedPath::Op &op : fwdB.operations())
            out.sim.latencyUs.sample(toMicroseconds(op.end - op.start));
        // The sender's sends are the same blocks: count requests once.
        out.ops -= fwdA.operations().size();
    }
    checkEngine(tb.nodeA(), out);
    checkEngine(tb.nodeB(), out);
    if (st.blocksMoved != static_cast<std::uint64_t>(p.blocks))
        fail(out, "moved " + std::to_string(st.blocksMoved) + " of " +
                      std::to_string(p.blocks) + " blocks");
    out.sim.goodputGbps = st.bandwidthGbps;
    out.sim.cpuPct = 100.0 * (st.senderCpuUtil + st.receiverCpuUtil);
    out.sim.offered = static_cast<std::uint64_t>(p.blocks);
    out.sim.completed = st.blocksMoved;
    captureStats(tb.eq(), cfg.mode, out);
    return out;
}

/** loadgen_bench's DCS-ctrl open loop, batching off (the default). */
TestbedRun
runOpenLoop(double rps, std::uint64_t clients, const RunCfg &cfg)
{
    TestbedRun out;
    out.label = workload::designName(Design::DcsCtrl);
    const auto t0 = Clock::now();
    sys::NodeParams pa;
    pa.hdc.maxActiveCmds = 40;
    pa.hdc.maxLiveEntries = 512;
    workload::Testbed tb(Design::DcsCtrl, false, pa);
    tb.nodeA().hdcDriver().setRejectOnFull(true);
    CheckedPath fwd(tb.eq(), tb.pathA());
    baselines::DataPath &path =
        cfg.forward ? static_cast<baselines::DataPath &>(fwd) : tb.pathA();
    workload::LoadGenParams p;
    p.clients = clients;
    p.offeredRps = rps;
    p.requestBytes = 16 * 1024;
    p.connections = 48;
    p.maxBacklog = 256;
    p.requestsPerConn = 64;
    p.rejectBackoff = microseconds(100);
    p.slo = microseconds(1000);
    p.warmup = milliseconds(4);
    p.measure = milliseconds(200);
    p.seed = cfg.seed;
    workload::LoadGen gen(tb.eq(), tb.nodeA(), tb.nodeB(), path, p);
    out.setupS = secondsSince(t0);
    if (cfg.setupOnly)
        return out;

    bool fin = false;
    workload::LoadGenStats st;
    host::CpuSet &cpu = tb.nodeA().host().cpu();
    drive(tb.eq(), cfg.mode,
          [&] {
              cpu.beginWindow();
              gen.run([&](const workload::LoadGenStats &s) {
                  st = s;
                  fin = true;
              });
          },
          out);
    checkDrained(tb.eq(), fin, out);
    if (cfg.forward)
        checkOps(fwd, tb.nodeA().fs(), cfg.verify, out);
    checkEngine(tb.nodeA(), out);
    out.sim.latencyUs = st.latencyUs;
    out.sim.goodputGbps = st.goodputGbps;
    out.sim.cpuPct = 100.0 * cpu.utilization();
    out.sim.openLoop = true;
    out.sim.offered = st.offered;
    out.sim.completed = st.completed;
    out.sim.rejected429 = st.rejectedServer;
    out.sim.dropped = st.droppedClient;
    out.sim.sloMisses = st.sloViolations;
    captureStats(tb.eq(), cfg.mode, out);
    return out;
}

/** One repetition: every testbed of the workload, one after another. */
std::vector<TestbedRun>
runWorkload(const std::string &name, const RunCfg &cfg)
{
    if (name == "swift_mix")
        return {runSwift(Design::SwOptimized, cfg),
                runSwift(Design::DcsCtrl, cfg)};
    if (name == "hdfs_balance")
        return {runHdfs(cfg)};
    if (name == "open_load")
        return {runOpenLoop(60'000, 60'000, cfg)};
    if (name == "open_overload")
        return {runOpenLoop(160'000, 100'000, cfg)};
    fatal("perfbench: unknown workload '%s'", name.c_str());
}

// ---------------------------------------------------------------------
// Calibration: public functions timed in isolation.
// ---------------------------------------------------------------------

/** Median over @p trials of the per-item cost of @p body, in ns. */
template <typename Fn>
double
medianNsPerItem(int trials, double items_per_call, double min_trial_s,
                Fn &&body)
{
    std::vector<double> per;
    for (int t = 0; t < trials; ++t) {
        std::uint64_t calls = 0;
        const auto t0 = Clock::now();
        double el = 0.0;
        do {
            body();
            ++calls;
            el = secondsSince(t0);
        } while (el < min_trial_s);
        per.push_back(el * 1e9 / (static_cast<double>(calls) * items_per_call));
    }
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

/** Empty-event schedule + step through the public EventQueue API. */
double
calibrateEvent()
{
    EventQueue eq;
    constexpr int batch = 4096;
    return medianNsPerItem(5, batch, 0.01, [&] {
        for (int i = 0; i < batch; ++i) {
            eq.schedule(1, [] {});
            eq.step();
        }
    });
}

/** A byte kernel's streaming cost at one buffer length. */
template <typename Hash>
double
calibrateHash(std::size_t len, std::uint64_t &sink)
{
    std::vector<std::uint8_t> buf(len);
    Rng rng(7);
    rng.fill(buf.data(), buf.size());
    return medianNsPerItem(5, static_cast<double>(len), 0.01, [&] {
        Hash h;
        h.update(buf);
        sink += h.finish()[0];
    });
}

/** Build and parse one MTU-sized TCP frame. */
double
calibrateFrame(std::uint64_t &sink)
{
    std::vector<std::uint8_t> payload(1460);
    Rng rng(11);
    rng.fill(payload.data(), payload.size());
    net::FlowInfo flow;
    flow.srcMac = {0x02, 0, 0, 0, 0, 0x01};
    flow.dstMac = {0x02, 0, 0, 0, 0, 0x02};
    flow.srcIp = net::ipv4(10, 0, 0, 1);
    flow.dstIp = net::ipv4(10, 0, 0, 2);
    flow.srcPort = 9000;
    flow.dstPort = 40000;
    std::uint16_t id = 0;
    return medianNsPerItem(5, 1.0, 0.01, [&] {
        flow.seq += 1460;
        const auto frame = net::buildFrame(flow, payload, ++id);
        const auto parsed = net::parseFrame(frame);
        sink += parsed ? parsed->payloadLen : 1;
    });
}

std::uint64_t
medianLen(std::vector<std::uint64_t> v, std::uint64_t fallback)
{
    if (v.empty())
        return fallback;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

// ---------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The highest percentile with at least ten samples beyond it. */
double
tailQuantile(std::uint64_t n)
{
    if (n <= 10)
        return 0.0;
    const double q = 1.0 - 10.0 / static_cast<double>(n);
    return std::min(0.99, std::floor(q * 1000.0) / 1000.0);
}

void
writeSim(json::JsonWriter &w, const SimResult &s)
{
    const std::uint64_t n = s.latencyUs.count();
    const double q = tailQuantile(n);
    w.beginObject();
    w.key("samples");
    w.value(n);
    w.key("p50_us");
    w.value(s.latencyUs.quantile(0.5));
    w.key("p99_us");
    w.value(s.latencyUs.quantile(0.99));
    w.key("tail_pct");
    w.value(100.0 * q);
    w.key("tail_us");
    w.value(s.latencyUs.quantile(q));
    w.key("tail_beyond");
    w.value(static_cast<double>(n) * (1.0 - q));
    w.key("goodput_gbps");
    w.value(s.goodputGbps);
    w.key("cpu_pct");
    w.value(s.cpuPct);
    w.key("open_loop");
    w.value(s.openLoop);
    w.key("offered");
    w.value(s.offered);
    w.key("completed");
    w.value(s.completed);
    w.key("rejected_429");
    w.value(s.rejected429);
    w.key("dropped");
    w.value(s.dropped);
    w.key("slo_misses");
    w.value(s.sloMisses);
    w.endObject();
}

void
writeTestbed(json::JsonWriter &w, const TestbedRun &r)
{
    w.beginObject();
    w.key("label");
    w.value(r.label);
    w.key("setup_s");
    w.value(r.setupS);
    w.key("wall_s");
    w.value(r.wallS);
    w.key("ref_s");
    w.value(r.refS);
    w.key("ref_events");
    w.value(r.refEvents);
    w.key("events");
    w.value(r.events);
    w.key("digest");
    if (r.hashed)
        w.value(hex64(r.digest));
    else
        w.null();
    w.key("allocs");
    w.value(r.allocs);
    w.key("alloc_bytes");
    w.value(r.allocBytes);
    w.key("ops");
    w.value(r.ops);
    w.key("failed_ops");
    w.value(r.failedOps);
    w.key("md5_bytes");
    w.value(r.md5Bytes);
    w.key("crc32_bytes");
    w.value(r.crc32Bytes);
    w.key("sim");
    writeSim(w, r.sim);
    if (!r.labels.empty()) {
        w.key("labels");
        w.beginObject();
        for (const auto &[label, lt] : r.labels) {
            w.key(label.empty() ? "(unlabelled)" : label);
            w.beginObject();
            w.key("layer");
            w.value(kLayerNames[lt.layer]);
            w.key("events");
            w.value(lt.events);
            w.key("s");
            w.value(static_cast<double>(lt.ns) * 1e-9);
            w.endObject();
        }
        w.endObject();
    }
    if (!r.statsJson.empty()) {
        w.key("stats");
        w.rawValue(r.statsJson);
    }
    w.endObject();
}

struct Rep
{
    const char *kind;
    bool forwarded;
    bool setupOnly;
    std::uint64_t seed;
    std::vector<TestbedRun> testbeds;
};

/** Peak resident memory of this process so far, in KiB. */
long
peakRssKbSoFar()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Seeds a --trace 0 run measures, derived from --seed (the first). */
constexpr std::uint64_t kSubSeeds = 3;
/** Set-up-only repetitions after each timed one (setup_s samples). */
constexpr int kSetupReps = 2;

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t k)
{
    return seed + 10007 * k;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            fatal("perfbench: %s needs a value", a.c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "0") != 0;
        } else {
            fatal("perfbench: unknown option %s", a.c_str());
        }
    }
    if (o.workload.empty())
        fatal("usage: perfbench --workload <name> [--seed N] "
              "[--seconds S] [--trace 0|1]");
    if (!(o.seconds > 0.0))
        fatal("perfbench: --seconds must be positive");
    return o;
}

/**
 * Exact equality of two repetitions of one seed, testbed by testbed:
 * event count, the event digest when both runs hashed it, and, when
 * both ran through the forwarding path, every simulated result and
 * datapath outcome.
 */
void
compareReps(const Rep &ref, Rep &rep)
{
    for (std::size_t i = 0; i < rep.testbeds.size(); ++i) {
        const TestbedRun &a = ref.testbeds[i];
        TestbedRun &b = rep.testbeds[i];
        const std::string vs =
            std::string(" differs between the ") + ref.kind + " and " +
            rep.kind + " runs";
        if (a.events != b.events)
            fail(b, "event count" + vs);
        if (a.hashed && b.hashed && a.digest != b.digest)
            fail(b, "event digest" + vs);
        if (ref.forwarded && rep.forwarded &&
            (a.sim.signature() != b.sim.signature() ||
             a.outcomes != b.outcomes))
            fail(b, "simulated result" + vs);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opt = parseArgs(argc, argv);
    std::signal(SIGABRT, onAbort);

    std::vector<Rep> reps;
    RunCfg cfg;
    cfg.seed = opt.seed;
    auto run = [&](const char *kind) {
        // The first repetition of a seed recomputes every digest; the
        // later ones must reproduce its outcomes exactly.
        cfg.verify = std::none_of(reps.begin(), reps.end(),
                                  [&](const Rep &r) {
                                      return r.seed == cfg.seed;
                                  });
        reps.push_back({kind, cfg.forward, cfg.setupOnly, cfg.seed,
                        runWorkload(opt.workload, cfg)});
        if (cfg.setupOnly)
            return;
        int compared = 0;
        for (std::size_t i = 0; i + 1 < reps.size() && compared < 2; ++i) {
            if (reps[i].seed == cfg.seed && !reps[i].setupOnly) {
                compareReps(reps[i], reps.back());
                ++compared;
            }
        }
    };
    reference(); // allocated and touched before anything is timed
    long peakRssKb = 0;
    const auto t0 = Clock::now();
    if (!opt.trace) {
        // A warm-up repetition of --seed, then timed repetitions that
        // cycle through kSubSeeds seeds derived from it, each followed
        // by set-up-only ones, while another repetition fits in
        // --seconds. Every seed is timed at least once.
        run("warmup");
        for (std::uint64_t k = 0;; ++k) {
            const auto r0 = Clock::now();
            cfg.seed = subSeed(opt.seed, k % kSubSeeds);
            run("timed");
            cfg.setupOnly = true;
            for (int i = 0; i < kSetupReps; ++i)
                run("setup");
            cfg.setupOnly = false;
            // Peak memory over a fixed amount of work: the heap keeps
            // growing slowly with every repetition, so the process's
            // peak at exit would depend on how many fitted.
            if (k + 1 == kSubSeeds)
                peakRssKb = peakRssKbSoFar();
            if (k + 1 >= kSubSeeds &&
                secondsSince(t0) + secondsSince(r0) > opt.seconds)
                break;
        }
    } else {
        run("untraced");
        // The design's own DataPath, unwrapped: the forwarding path
        // must leave its event digest unchanged.
        cfg.mode = Drive::Hashed;
        cfg.forward = false;
        run("unwrapped");
        cfg.forward = true;
        for (;;) {
            const auto r0 = Clock::now();
            cfg.mode = Drive::Traced;
            run("traced");
            cfg.mode = Drive::Plain;
            run("untraced");
            if (secondsSince(t0) + secondsSince(r0) > opt.seconds)
                break;
        }
    }
    const double elapsed = secondsSince(t0);

    json::JsonWriter w;
    w.beginObject();
    w.key("workload");
    w.value(opt.workload);
    w.key("seed");
    w.value(opt.seed);
    w.key("trace");
    w.value(opt.trace);
    w.key("elapsed_s");
    w.value(elapsed);
    if (peakRssKb > 0) {
        w.key("peak_rss_kb");
        w.value(static_cast<std::uint64_t>(peakRssKb));
    }
    w.key("reps");
    w.beginArray();
    std::uint64_t hashSink = 0;
    for (const Rep &rep : reps) {
        w.beginObject();
        w.key("kind");
        w.value(rep.kind);
        w.key("seed");
        w.value(rep.seed);
        w.key("testbeds");
        w.beginArray();
        for (const TestbedRun &tb : rep.testbeds) {
            writeTestbed(w, tb);
            for (const std::string &e : tb.errors)
                std::fprintf(stderr, "perfbench: check failed: %s\n",
                             e.c_str());
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    if (opt.trace) {
        std::vector<std::uint64_t> md5Lens, crcLens;
        for (const TestbedRun &tb : reps.back().testbeds) {
            md5Lens.insert(md5Lens.end(), tb.md5Lens.begin(),
                           tb.md5Lens.end());
            crcLens.insert(crcLens.end(), tb.crc32Lens.begin(),
                           tb.crc32Lens.end());
        }
        // Kernels are timed at the workload's median hashed length
        // (16 KiB, the open-loop request size, when it hashes none).
        const std::uint64_t md5Len = medianLen(md5Lens, 16 * 1024);
        const std::uint64_t crcLen = medianLen(crcLens, 16 * 1024);
        w.key("calib");
        w.beginObject();
        w.key("ns_per_event");
        w.value(calibrateEvent());
        w.key("md5_len");
        w.value(md5Len);
        w.key("md5_ns_per_byte");
        w.value(calibrateHash<ndp::Md5>(md5Len, hashSink));
        w.key("crc32_len");
        w.value(crcLen);
        w.key("crc32_ns_per_byte");
        w.value(calibrateHash<ndp::Crc32>(crcLen, hashSink));
        w.key("frame_ns");
        w.value(calibrateFrame(hashSink));
        w.key("sink");
        w.value(hashSink);
        w.endObject();
    }
    w.endObject();
    std::printf("RESULT %s\n", w.str().c_str());
    return 0;
}
