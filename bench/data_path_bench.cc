/**
 * @file
 * Zero-copy data-plane benchmark: payload movement and NDP kernels.
 *
 * Compares the shipping data plane (ref-counted Buffer/BufChain pages
 * with Memory::borrow/adopt, slice-by-8 CRC32, T-table AES-256 —
 * src/mem/buffer, src/mem/memory and src/ndp) against in-file
 * replicas of what each replaced (the exact structures from the
 * previous revision of this repo):
 *  - LegacyMemory: raw byte pages in unique_ptr arrays, memcpy on
 *    every read and write — so a payload crossing N simulated hops
 *    is copied 2N times.
 *  - LegacyCrc32: single-table byte-at-a-time CRC-32.
 *  - LegacyAes256Ctr: byte-wise S-box/xtime AES-256 rounds and a
 *    per-byte keystream XOR.
 *
 * Three workloads, one per data-plane cost the simulator pays:
 *  - dma_pipeline: a payload traversing flash -> engine DRAM -> NIC
 *    staging, the SSD->NDP->NIC shape of every D2D request. Legacy
 *    read/write round-trips vs borrow/adopt page adoption.
 *  - crc32: the HDFS receiver-side integrity check over block-sized
 *    payloads.
 *  - aes256_ctr: the secure-sendfile encryption kernel, in-place
 *    over a block-sized payload.
 *
 * On top of the wall-clock comparison, the bench runs one real D2D
 * sendFile through a DCS-ctrl testbed at 64 KiB and at 1 MiB and
 * reports the copy accounting per request. Scoped to the sending
 * node's data-plane memories (SSD flash, engine DRAM, host DRAM),
 * copied bytes must stay constant while the payload grows 16x — the
 * O(1)-copies-per-request property the vector plumbing lacked. (The
 * receiving node landing each MSS frame in its socket buffer still
 * memcpys; a sub-page write cannot be page-adopted and is common to
 * every design.)
 *
 * Reports MB/s per workload, the geometric-mean speedup, and the D2D
 * copy accounting through the standard --json report
 * (tools/check_bench_schema.py validates the output).
 *
 * Timing uses wall-clock (std::chrono::steady_clock); bench/ is
 * measurement code, waived from dcslint's ambient-time rule below.
 */
// dcslint: allow-file(ambient-time-randomness): host wall-clock timing is
// the measurement this bench exists to take; it never feeds simulated state.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/sw_paths.hh"
#include "bench/report.hh"
#include "mem/buffer.hh"
#include "mem/memory.hh"
#include "ndp/aes256.hh"
#include "ndp/crc32.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/experiment.hh"

using namespace dcs;
using workload::Design;

namespace {

/** Folds results so the optimizer cannot discard a measured loop. */
// Optimization sink; thread_local so parallel sweep workers never race.
thread_local volatile std::uint32_t g_sink = 0;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
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

// ---------------------------------------------------------------------
// Legacy replicas (the pre-change implementations, minus stats
// plumbing).
// ---------------------------------------------------------------------

/**
 * The pre-zero-copy Memory: demand-allocated raw byte pages, memcpy
 * on every access, memset for reads of absent pages. Reproduced from
 * the previous revision of src/mem/memory.cc.
 */
class LegacyMemory
{
  public:
    explicit LegacyMemory(std::uint64_t size) : size(size) {}

    void
    read(std::uint64_t addr, void *dst, std::uint64_t n) const
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        while (n) {
            const std::uint64_t off = addr & (pageSize - 1);
            const std::uint64_t take = std::min(n, pageSize - off);
            if (const std::uint8_t *p = pageIfPresent(addr))
                std::memcpy(out, p + off, take);
            else
                std::memset(out, 0, take);
            addr += take;
            out += take;
            n -= take;
        }
    }

    void
    write(std::uint64_t addr, const void *src, std::uint64_t n)
    {
        const auto *in = static_cast<const std::uint8_t *>(src);
        while (n) {
            const std::uint64_t off = addr & (pageSize - 1);
            const std::uint64_t take = std::min(n, pageSize - off);
            std::memcpy(pageFor(addr) + off, in, take);
            addr += take;
            in += take;
            n -= take;
        }
    }

  private:
    static constexpr std::uint32_t pageBits = 12;
    static constexpr std::uint64_t pageSize = 1ull << pageBits;

    std::uint8_t *
    pageFor(std::uint64_t addr)
    {
        auto &p = pages[addr >> pageBits];
        if (!p) {
            p = std::make_unique<std::uint8_t[]>(pageSize);
            std::memset(p.get(), 0, pageSize);
        }
        return p.get();
    }

    const std::uint8_t *
    pageIfPresent(std::uint64_t addr) const
    {
        const auto it = pages.find(addr >> pageBits);
        return it == pages.end() ? nullptr : it->second.get();
    }

    std::uint64_t size;
    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        pages;
};

/** Single-table byte-at-a-time CRC-32 (the pre-slice-by-8 kernel). */
std::uint32_t
legacyCrc32(std::span<const std::uint8_t> data)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    for (std::uint8_t b : data)
        c = table[(c ^ b) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
}

/**
 * The pre-T-table AES-256: byte-array round keys and per-byte
 * sub_bytes / shift_rows / mix_columns rounds. Reproduced from the
 * previous revision of src/ndp/aes256.cc.
 */
class LegacyAes256
{
  public:
    explicit LegacyAes256(std::span<const std::uint8_t> key)
    {
        std::uint8_t w[60][4];
        std::memcpy(w, key.data(), 32);
        std::uint8_t rcon = 1;
        for (int i = 8; i < 60; ++i) {
            std::uint8_t t[4];
            std::memcpy(t, w[i - 1], 4);
            if (i % 8 == 0) {
                const std::uint8_t tmp = t[0];
                t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ rcon);
                t[1] = kSbox[t[2]];
                t[2] = kSbox[t[3]];
                t[3] = kSbox[tmp];
                rcon = xtime(rcon);
            } else if (i % 8 == 4) {
                for (auto &b : t)
                    b = kSbox[b];
            }
            for (int j = 0; j < 4; ++j)
                w[i][j] = w[i - 8][j] ^ t[j];
        }
        std::memcpy(roundKeys, w, sizeof(w));
    }

    void
    encryptBlock(std::uint8_t s[16]) const
    {
        const std::uint8_t *rk = roundKeys;

        auto add_round_key = [&](int round) {
            for (int i = 0; i < 16; ++i)
                s[i] ^= rk[16 * round + i];
        };
        auto sub_bytes = [&] {
            for (int i = 0; i < 16; ++i)
                s[i] = kSbox[s[i]];
        };
        auto shift_rows = [&] {
            std::uint8_t t;
            t = s[1];
            s[1] = s[5];
            s[5] = s[9];
            s[9] = s[13];
            s[13] = t;
            std::swap(s[2], s[10]);
            std::swap(s[6], s[14]);
            t = s[15];
            s[15] = s[11];
            s[11] = s[7];
            s[7] = s[3];
            s[3] = t;
        };
        auto mix_columns = [&] {
            for (int c = 0; c < 4; ++c) {
                std::uint8_t *col = s + 4 * c;
                const std::uint8_t a0 = col[0], a1 = col[1],
                                   a2 = col[2], a3 = col[3];
                const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
                col[0] = static_cast<std::uint8_t>(a0 ^ all ^
                                                   xtime(a0 ^ a1));
                col[1] = static_cast<std::uint8_t>(a1 ^ all ^
                                                   xtime(a1 ^ a2));
                col[2] = static_cast<std::uint8_t>(a2 ^ all ^
                                                   xtime(a2 ^ a3));
                col[3] = static_cast<std::uint8_t>(a3 ^ all ^
                                                   xtime(a3 ^ a0));
            }
        };

        add_round_key(0);
        for (int round = 1; round < 14; ++round) {
            sub_bytes();
            shift_rows();
            mix_columns();
            add_round_key(round);
        }
        sub_bytes();
        shift_rows();
        add_round_key(14);
    }

  private:
    std::uint8_t roundKeys[16 * 15];
};

/** The pre-change CTR mode: one keystream byte XOR'd at a time. */
class LegacyAes256Ctr
{
  public:
    LegacyAes256Ctr(std::span<const std::uint8_t> key,
                    std::uint64_t nonce)
        : cipher(key), nonce(nonce)
    {
    }

    void
    transformInPlace(std::span<std::uint8_t> buf)
    {
        for (auto &b : buf) {
            if (ksUsed == 16)
                refill();
            b ^= keystream[ksUsed++];
        }
    }

  private:
    void
    refill()
    {
        for (int i = 0; i < 8; ++i)
            keystream[i] =
                static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
        for (int i = 0; i < 8; ++i)
            keystream[8 + i] =
                static_cast<std::uint8_t>(counter >> (56 - 8 * i));
        cipher.encryptBlock(keystream);
        ++counter;
        ksUsed = 0;
    }

    LegacyAes256 cipher;
    std::uint64_t nonce;
    std::uint64_t counter = 0;
    std::uint8_t keystream[16]{};
    std::size_t ksUsed = 16;
};

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

constexpr int kReps = 3;

constexpr std::uint64_t kPipePayload = 256 * 1024;
constexpr int kPipeReqs = 64;
constexpr int kPipePasses = 4;
constexpr std::uint64_t kPipeRegion = kPipePayload * kPipeReqs;

/**
 * flash -> engine DRAM -> NIC staging, read/write round-trips: every
 * hop costs a read into a staging vector plus a write out of it.
 */
double
legacyPipelineMBps()
{
    LegacyMemory flash(kPipeRegion), engine(kPipeRegion),
        nic(kPipeRegion);
    Rng rng(11);
    std::vector<std::uint8_t> seed(kPipeRegion);
    rng.fill(seed.data(), seed.size());
    flash.write(0, seed.data(), seed.size());

    std::vector<std::uint8_t> staging(kPipePayload);
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPipePasses; ++pass) {
        for (int i = 0; i < kPipeReqs; ++i) {
            const std::uint64_t a = std::uint64_t(i) * kPipePayload;
            flash.read(a, staging.data(), kPipePayload);
            engine.write(a, staging.data(), kPipePayload);
            engine.read(a, staging.data(), kPipePayload);
            nic.write(a, staging.data(), kPipePayload);
        }
    }
    const double secs = secondsSince(t0);
    std::uint8_t probe = 0;
    nic.read(kPipeRegion - 1, &probe, 1);
    g_sink = g_sink + probe;
    // Payload bytes delivered end-to-end (not bytes memcpy'd).
    return double(kPipeRegion) * kPipePasses / secs / 1e6;
}

/** The same traversal as page adoption: no payload bytes move. */
double
zerocopyPipelineMBps()
{
    Memory flash(kPipeRegion, "flash", 12);
    Memory engine(kPipeRegion, "engine", 12);
    Memory nic(kPipeRegion, "nic", 12);
    Rng rng(11);
    std::vector<std::uint8_t> seed(kPipeRegion);
    rng.fill(seed.data(), seed.size());
    flash.writeBytes(0, seed);

    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPipePasses; ++pass) {
        for (int i = 0; i < kPipeReqs; ++i) {
            const std::uint64_t a = std::uint64_t(i) * kPipePayload;
            engine.adopt(a, flash.borrow(a, kPipePayload));
            nic.adopt(a, engine.borrow(a, kPipePayload));
        }
    }
    const double secs = secondsSince(t0);
    g_sink = g_sink + nic.readLe<std::uint8_t>(kPipeRegion - 1);
    return double(kPipeRegion) * kPipePasses / secs / 1e6;
}

constexpr std::uint64_t kCrcBytes = 8 * 1024 * 1024;
constexpr int kCrcPasses = 2;

template <typename Fn>
double
crcMBps(const std::vector<std::uint8_t> &data, Fn crc)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t acc = 0;
    for (int pass = 0; pass < kCrcPasses; ++pass)
        acc ^= crc(std::span<const std::uint8_t>(data));
    const double secs = secondsSince(t0);
    g_sink = g_sink + acc;
    return double(data.size()) * kCrcPasses / secs / 1e6;
}

constexpr std::uint64_t kAesBytes = 2 * 1024 * 1024;
constexpr int kAesPasses = 2;

template <typename Ctr>
double
aesMBps(const std::vector<std::uint8_t> &key)
{
    std::vector<std::uint8_t> buf(kAesBytes, 0x5a);
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kAesPasses; ++pass) {
        Ctr ctr(key, 0x0123456789abcdefull);
        ctr.transformInPlace(buf);
    }
    const double secs = secondsSince(t0);
    g_sink = g_sink + buf[0];
    return double(kAesBytes) * kAesPasses / secs / 1e6;
}

// ---------------------------------------------------------------------
// End-to-end D2D copy accounting.
// ---------------------------------------------------------------------

struct D2dCost
{
    /** Whole-process payload copies (both nodes, bufstat). */
    std::uint64_t bytesCopied = 0;
    std::uint64_t copyOps = 0;
    /** Sender-side data-plane memories only: the D2D path proper
     *  (SSD flash -> engine DRAM -> NIC, plus host DRAM). */
    std::uint64_t senderBytesCopied = 0;
    std::uint64_t senderBytesBorrowed = 0;
    std::uint64_t senderBytesAdopted = 0;
};

/**
 * One sendFile through a testbed; returns the copy-accounting delta
 * the request cost. The sender-side counters isolate the D2D path:
 * the receiver landing frames in its socket buffer (a sub-page write
 * per MSS segment, common to every design) still memcpys, but the
 * payload's traversal of the sending node must be pure borrow/adopt.
 */
D2dCost
d2dCopyCost(Design design, std::uint64_t size, bench::Report &report,
            const std::string &label)
{
    workload::Testbed tb(design);
    auto [ca, cb] = tb.connect();
    cb->onPayload = [](std::uint32_t, BufChain) {};

    Rng rng(21);
    std::vector<std::uint8_t> content(size);
    rng.fill(content.data(), content.size());
    const int fd = tb.nodeA().fs().create("d2d", content);

    const Memory *senderMems[] = {&tb.nodeA().ssd().flash(),
                                  &tb.nodeA().engine().dram(),
                                  &tb.nodeA().host().dram()};
    Memory::Transfers sbefore{};
    for (const Memory *m : senderMems) {
        sbefore.bytesCopied += m->transfers().bytesCopied;
        sbefore.bytesBorrowed += m->transfers().bytesBorrowed;
        sbefore.bytesAdopted += m->transfers().bytesAdopted;
    }

    const auto before = bufstat::local();
    bool done = false;
    tb.pathA().sendFile(fd, ca->fd, 0, size, ndp::Function::None, {},
                        nullptr,
                        [&](const baselines::PathResult &) {
                            done = true;
                        });
    tb.eq().run();
    if (!done)
        fatal("data_path_bench: D2D transfer did not complete");
    const auto after = bufstat::local();

    D2dCost cost;
    cost.bytesCopied = after.bytesCopied - before.bytesCopied;
    cost.copyOps = after.copyOps - before.copyOps;
    for (const Memory *m : senderMems) {
        cost.senderBytesCopied += m->transfers().bytesCopied;
        cost.senderBytesBorrowed += m->transfers().bytesBorrowed;
        cost.senderBytesAdopted += m->transfers().bytesAdopted;
    }
    cost.senderBytesCopied -= sbefore.bytesCopied;
    cost.senderBytesBorrowed -= sbefore.bytesBorrowed;
    cost.senderBytesAdopted -= sbefore.bytesAdopted;
    report.captureStats(label, tb.eq());
    return cost;
}

struct Workload
{
    const char *name;
    double legacy;
    double fast;
};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bench::Report report(argc, argv, "data_path_bench", "perf");

    Workload workloads[] = {
        {"dma_pipeline", 0.0, 0.0},
        {"crc32", 0.0, 0.0},
        {"aes256_ctr", 0.0, 0.0},
    };

    std::printf("zero-copy data plane (best of %d per point)\n", kReps);
    std::printf("  dma_pipeline: %d reqs x %llu KiB x %d passes, "
                "flash -> engine -> nic\n",
                kPipeReqs, (unsigned long long)(kPipePayload / 1024),
                kPipePasses);
    std::printf("  crc32:        %llu MiB x %d passes\n",
                (unsigned long long)(kCrcBytes >> 20), kCrcPasses);
    std::printf("  aes256_ctr:   %llu MiB x %d passes\n\n",
                (unsigned long long)(kAesBytes >> 20), kAesPasses);

    workloads[0].legacy = bestOf(kReps, legacyPipelineMBps);
    workloads[0].fast = bestOf(kReps, zerocopyPipelineMBps);

    Rng rng(12);
    std::vector<std::uint8_t> crcData(kCrcBytes);
    rng.fill(crcData.data(), crcData.size());
    workloads[1].legacy = bestOf(kReps, [&] {
        return crcMBps(crcData, legacyCrc32);
    });
    workloads[1].fast = bestOf(kReps, [&] {
        return crcMBps(crcData, [](std::span<const std::uint8_t> d) {
            return ndp::Crc32::compute(d);
        });
    });

    std::vector<std::uint8_t> key(32);
    rng.fill(key.data(), key.size());
    workloads[2].legacy = bestOf(kReps, [&] {
        return aesMBps<LegacyAes256Ctr>(key);
    });
    workloads[2].fast = bestOf(kReps, [&] {
        return aesMBps<ndp::Aes256Ctr>(key);
    });

    std::printf("%-14s %12s %12s %9s\n", "workload", "legacy_MB/s",
                "zerocopy_MB/s", "speedup");
    double logSum = 0.0;
    for (const Workload &w : workloads) {
        const double s = w.fast / w.legacy;
        logSum += std::log(s);
        std::printf("%-14s %12.1f %12.1f %8.2fx\n", w.name, w.legacy,
                    w.fast, s);
    }
    const double speedup =
        std::exp(logSum / double(std::size(workloads)));
    std::printf("%-14s %12s %12s %8.2fx (geomean)\n", "overall", "",
                "", speedup);

    // O(1)-copies evidence: a real D2D request at two payload sizes.
    // The receiver landing each MSS frame in its socket buffer (a
    // sub-page write, common to every design) still memcpys, so the
    // claim is scoped to the sending node's data-plane memories.
    const D2dCost c64k =
        d2dCopyCost(Design::DcsCtrl, 64 * 1024, report, "dcs_d2d_64k");
    const D2dCost c1m =
        d2dCopyCost(Design::DcsCtrl, 1024 * 1024, report, "dcs_d2d_1m");
    std::printf("\nD2D sendFile copy accounting (1 request, DCS-ctrl "
                "testbed)\n");
    std::printf("  %-18s %14s %14s %14s\n", "", "sender_copied",
                "sender_views", "process_copied");
    auto line = [](const char *name, const D2dCost &c) {
        std::printf("  %-18s %12llu B %12llu B %12llu B\n", name,
                    (unsigned long long)c.senderBytesCopied,
                    (unsigned long long)(c.senderBytesBorrowed +
                                         c.senderBytesAdopted),
                    (unsigned long long)c.bytesCopied);
    };
    line("64 KiB request", c64k);
    line("1 MiB request", c1m);
    std::printf("  sender-side copies stay flat for a 16x payload: "
                "the D2D path is\n  O(1) copies per request, the "
                "payload crosses the node as views\n");

    for (const Workload &w : workloads) {
        const std::string n = w.name;
        report.headline(n + "/legacy_mb_per_sec", w.legacy, "MB/s");
        report.headline(n + "/zerocopy_mb_per_sec", w.fast, "MB/s");
        report.headline(n + "/speedup", w.fast / w.legacy, "x");
    }
    report.headline("speedup_data_path", speedup, "x", std::nan(""),
                    "geomean across dma_pipeline/crc32/aes256_ctr, "
                    "zero-copy plane vs pre-change copy plumbing; "
                    "acceptance floor is 3x");
    report.headline("d2d/sender_bytes_copied_64k",
                    double(c64k.senderBytesCopied), "B", std::nan(""),
                    "bytes memcpy'd in the sending node's data-plane "
                    "memories for one 64 KiB D2D sendFile");
    report.headline("d2d/sender_bytes_copied_1m",
                    double(c1m.senderBytesCopied), "B", std::nan(""),
                    "must not grow with the 16x payload: the D2D "
                    "path moves payload as borrow/adopt views, so "
                    "copies per request are O(1)");
    report.headline("d2d/sender_bytes_as_views_1m",
                    double(c1m.senderBytesBorrowed +
                           c1m.senderBytesAdopted),
                    "B", std::nan(""),
                    "payload bytes that crossed the sender as "
                    "zero-copy views instead");
    report.headline("d2d/process_bytes_copied_1m",
                    double(c1m.bytesCopied), "B", std::nan(""),
                    "whole-process copies incl. the receiver landing "
                    "frames in its socket buffer");
    return report.finish();
}
