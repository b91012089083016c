/**
 * @file
 * Ref-counted, immutable-by-default payload buffers for the zero-copy
 * data plane.
 *
 * A Buffer is a cheap view (pointer + length) into a shared,
 * atomically ref-counted slab. slice() produces sub-views without
 * copying; mutableData() applies copy-on-write when the slab is
 * shared, so holders of other views never observe the mutation. A
 * BufChain strings Buffers together into one logical byte sequence —
 * the scatter-gather shape of a DMA transfer or a segmented network
 * frame — and re-coalesces adjacent views of the same slab.
 *
 * These types replace std::vector<uint8_t> across the bulk-data APIs
 * (Memory::borrow/adopt, Device::dmaRead/dmaWrite, NVMe media reads,
 * NDP inputs, NIC rings, net framing) so a payload traverses the
 * simulated SSD -> engine DRAM -> NDP -> NIC path without the
 * per-hop memcpy the previous vector plumbing performed. See
 * docs/PERFORMANCE.md ("Zero-copy data plane") for the ownership and
 * copy-on-write rules.
 *
 * Ref-counts are atomic: the parallel bench runner moves whole
 * testbeds (and therefore live Buffers) across task boundaries, and
 * shared content slabs may be referenced from more than one worker.
 */

#ifndef DCS_MEM_BUFFER_HH
#define DCS_MEM_BUFFER_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dcs {

/**
 * Process-wide (per-thread) transfer accounting. Every payload
 * memcpy performed by the buffer layer or by Memory's byte paths
 * bumps these, so a bench can prove a code path is copy-free by
 * taking a delta around it. Borrow/adopt record the zero-copy
 * traffic for the same window.
 */
namespace bufstat {

struct Counters
{
    std::uint64_t copyOps = 0;       //!< discrete payload memcpy calls
    std::uint64_t bytesCopied = 0;   //!< payload bytes memcpy'd
    std::uint64_t bytesBorrowed = 0; //!< bytes handed out as views
    std::uint64_t bytesAdopted = 0;  //!< bytes installed as views
};

/** The calling thread's counters (testbeds are single-threaded). */
Counters &local();

inline void
noteCopy(std::uint64_t bytes)
{
    Counters &c = local();
    ++c.copyOps;
    c.bytesCopied += bytes;
}

inline void noteBorrow(std::uint64_t bytes) { local().bytesBorrowed += bytes; }
inline void noteAdopt(std::uint64_t bytes) { local().bytesAdopted += bytes; }

} // namespace bufstat

/**
 * An immutable-by-default view into a shared slab of bytes.
 *
 * Copying a Buffer bumps the slab's ref-count; destroying the last
 * view frees the slab. data() is read-only; the only mutation door is
 * mutableData(), which copies first whenever any other view could
 * observe the write.
 */
class Buffer
{
  public:
    Buffer() = default;
    ~Buffer() { release(); }

    Buffer(const Buffer &o) : slab(o.slab), ptr(o.ptr), len(o.len)
    {
        acquire();
    }

    Buffer &
    operator=(const Buffer &o)
    {
        if (this != &o) {
            o.acquire();
            release();
            slab = o.slab;
            ptr = o.ptr;
            len = o.len;
        }
        return *this;
    }

    Buffer(Buffer &&o) noexcept : slab(o.slab), ptr(o.ptr), len(o.len)
    {
        o.slab = nullptr;
        o.ptr = nullptr;
        o.len = 0;
    }

    Buffer &
    operator=(Buffer &&o) noexcept
    {
        if (this != &o) {
            release();
            slab = o.slab;
            ptr = o.ptr;
            len = o.len;
            o.slab = nullptr;
            o.ptr = nullptr;
            o.len = 0;
        }
        return *this;
    }

    /** A fresh zero-initialized slab of @p n bytes. */
    static Buffer allocate(std::size_t n);

    /** A fresh slab holding a copy of @p n bytes (counted as a copy). */
    static Buffer copyOf(const void *src, std::size_t n);
    static Buffer
    copyOf(std::span<const std::uint8_t> src)
    {
        return copyOf(src.data(), src.size());
    }

    /** Adopt @p v's storage without copying. */
    static Buffer fromVector(std::vector<std::uint8_t> v);

    /**
     * A non-owning view of @p bytes, which must outlive the view (e.g.
     * to run a chain-based kernel over a caller's span). Like the zero
     * slab, mutableData() copies first.
     */
    static Buffer
    view(std::span<const std::uint8_t> bytes)
    {
        return Buffer(nullptr, bytes.data(), bytes.size());
    }

    /**
     * A view of the shared all-zeros slab (absent sparse-memory
     * pages read as zero without materializing). @p n is capped by
     * zeroCapacity, the largest Memory page size.
     */
    static Buffer zeros(std::size_t n);
    static constexpr std::size_t zeroCapacity = 1ull << 16;

    const std::uint8_t *data() const { return ptr; }
    std::size_t size() const { return len; }
    bool empty() const { return len == 0; }
    std::span<const std::uint8_t> span() const { return {ptr, len}; }

    /** A sub-view; shares the slab, never copies. */
    Buffer slice(std::size_t off, std::size_t n) const;

    /**
     * Writable access to the viewed bytes. If any other view shares
     * the slab (or the view is non-owning, e.g. the zero slab), the
     * bytes are first copied into a fresh private slab so no other
     * holder observes the mutation.
     */
    std::uint8_t *mutableData();

    /** True when another view could observe an in-place write. */
    bool
    shared() const
    {
        return slab ? refCount() > 1 : len > 0;
    }

    /** Slab ref-count (0 for empty / non-owning views; for tests). */
    std::uint32_t refCount() const;

    /** True when @p next continues this view in the same slab. */
    bool
    contiguousWith(const Buffer &next) const
    {
        return slab && slab == next.slab && ptr + len == next.ptr;
    }

  private:
    friend class BufChain;

    /**
     * This view grown by @p n bytes. Only valid when the slab really
     * contains them — i.e. after contiguousWith() accepted the
     * successor view being merged in.
     */
    Buffer
    extended(std::size_t n) const
    {
        Buffer b(*this);
        b.len += n;
        return b;
    }

    struct Slab
    {
        std::atomic<std::uint32_t> refs{1};
        std::vector<std::uint8_t> bytes;
    };

    Buffer(Slab *s, const std::uint8_t *p, std::size_t n)
        : slab(s), ptr(p), len(n)
    {
    }

    void
    acquire() const
    {
        if (slab)
            slab->refs.fetch_add(1, std::memory_order_relaxed);
    }

    void
    release()
    {
        if (slab &&
            slab->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            delete slab; // dcslint: allow(raw-new-delete): last ref frees the slab
        slab = nullptr;
    }

    Slab *slab = nullptr; //!< null: empty view or the static zero slab
    const std::uint8_t *ptr = nullptr;
    std::size_t len = 0;
};

/**
 * A scatter-gather sequence of Buffers forming one logical payload.
 * append() re-coalesces views that are adjacent in the same slab, so
 * a payload that was split across pages of one slab comes back as a
 * single segment.
 */
class BufChain
{
  public:
    BufChain() = default;
    BufChain(Buffer b) { append(std::move(b)); }

    void
    append(Buffer b)
    {
        if (b.empty())
            return;
        total += b.size();
        if (!segs.empty() && segs.back().contiguousWith(b)) {
            segs.back() = segs.back().extended(b.size());
            return;
        }
        segs.push_back(std::move(b));
    }

    void
    append(const BufChain &c)
    {
        for (const Buffer &b : c.segs)
            append(b);
    }

    std::size_t size() const { return total; }
    bool empty() const { return total == 0; }
    const std::vector<Buffer> &segments() const { return segs; }

    /** A sub-range as a new chain of (sliced) views; never copies. */
    BufChain slice(std::size_t off, std::size_t n) const;

    /** Copy the whole chain to @p dst (counted as one copy). */
    void copyOut(void *dst) const;

    /** Copy @p n bytes starting at @p off to @p dst. */
    void copyOut(std::size_t off, void *dst, std::size_t n) const;

    /** Materialize as a vector (counted as a copy). */
    std::vector<std::uint8_t> toVector() const;

    /**
     * The chain as one contiguous Buffer: the single segment itself
     * (zero-copy) when the chain is already contiguous, otherwise a
     * fresh slab holding a copy.
     */
    Buffer flatten() const;

    /** A chain holding a private copy of @p src. */
    static BufChain
    copyOf(std::span<const std::uint8_t> src)
    {
        return BufChain(Buffer::copyOf(src));
    }

  private:
    std::vector<Buffer> segs;
    std::size_t total = 0;
};

} // namespace dcs

#endif // DCS_MEM_BUFFER_HH
