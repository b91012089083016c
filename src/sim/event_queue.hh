/**
 * @file
 * Deterministic discrete-event queue — the simulator's hot path.
 *
 * Events fire in exact (tick, schedule-sequence) order, so two events
 * scheduled for the same tick always fire in the order they were
 * scheduled — determinism does not depend on container tie-breaking.
 *
 * The implementation is a hierarchical calendar (a two-level timing
 * wheel in the manner of Varghese & Lauck, with ladder-queue style
 * adaptive widths after Tang et al.) tuned for the traffic the models
 * actually generate:
 *
 *  - a `ready` FIFO holds the tick group currently firing: a
 *    continuation scheduled for the current tick (the dominant
 *    cascade pattern) is an O(1) append and never touches a
 *    comparison-based structure;
 *  - a fine window of kNumBuckets buckets, each spanning 2^widthShift
 *    ticks, receives near-future events with an O(1) append; a bucket
 *    is sorted by (tick, sequence) only when the simulation reaches
 *    it;
 *  - a coarse level of kNumCoarse unsorted buckets, each at least one
 *    maximal fine window wide, receives everything beyond the window
 *    with an O(1) append. The fine window never reaches past the end
 *    of the current coarse bucket, so every coarse entry is later than
 *    every fine one; when the window drains it is rebuilt from the
 *    one coarse bucket that feeds it, with a width adapted to that
 *    bucket's span;
 *  - events beyond the coarse level's horizon collect in an unsorted
 *    `top` overflow whose bounds are tracked on insert; only when the
 *    coarse level drains is it re-spread from `top`, once per entry.
 *
 * No step rescans every pending entry: each entry moves top -> coarse
 * -> fine at most once, plus the re-spreads of one coarse bucket's
 * worth of entries by a window re-tighten or a below-window schedule
 * (eventq.moved counts them).
 *
 * Event callbacks are InlineCallbacks living in slot-indexed records:
 * the common schedule -> fire path performs zero heap allocations
 * (sim/event_pool.hh absorbs oversized captures). Cancellation is an
 * O(1) in-place retirement of the record — the (tick, seq) entry left
 * in the calendar is recognized as stale when popped and dropped —
 * replacing the old unordered_set of cancelled ids and its pop-time
 * hashing. Descheduling an event that already fired is a no-op and
 * leaves no bookkeeping behind.
 *
 * For auditing, every event may carry a label (SimObject::schedule
 * passes the object's name) and a trace hook observes each firing as
 * (tick, sequence, label). TraceHasher folds that stream into a single
 * digest so two runs of the same workload can be compared bit-for-bit;
 * the stream is unchanged from the pre-calendar binary-heap queue.
 */

#ifndef DCS_SIM_EVENT_QUEUE_HH
#define DCS_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "sim/attribution.hh"
#include "sim/inline_callback.hh"
#include "sim/stats_registry.hh"
#include "sim/ticks.hh"
#include "sim/tracing.hh"

namespace dcs {

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 * Encodes a record slot and a generation; 0 is never a valid handle.
 */
using EventId = std::uint64_t;

/**
 * The simulation's single global ordering of future work.
 *
 * All hardware models and software-cost models schedule continuations
 * here. The queue is strictly single-threaded; independent testbeds
 * (each owning its queue) may run on different threads concurrently.
 */
class EventQueue
{
  public:
    /** Observer of each event firing: (tick, sequence, label). */
    using TraceFn = std::function<void(Tick, std::uint64_t,
                                       std::string_view)>;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * The stats tree of the simulation driven by this queue. One
     * registry per queue keeps successive testbeds in one process
     * fully independent.
     */
    stats::Registry &stats() { return _stats; }
    const stats::Registry &stats() const { return _stats; }

    /**
     * The span tracer of this simulation (docs/OBSERVABILITY.md).
     * Like the stats registry, one per queue: parallel bench tasks
     * record into isolated buffers and merge serially. Disabled by
     * default; a pure observer of the simulation either way.
     */
    trace::Tracer &tracer() { return _tracer; }
    const trace::Tracer &tracer() const { return _tracer; }

    /**
     * The per-queue latency-attribution engine (sim/attribution.hh).
     * Fed by the tracer's instrumentation stream once enabled; a pure
     * observer, so enabling it never perturbs the event digest.
     */
    trace::Attribution &attribution() { return _attr; }
    const trace::Attribution &attribution() const { return _attr; }

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * @param label optional trace label; the referenced storage must
     *        outlive the event (SimObject passes its stable name).
     * @return an id usable with deschedule().
     */
    EventId schedule(Tick delay, InlineCallback fn,
                     std::string_view label = {});

    /** Schedule @p fn at absolute tick @p when (must be >= now()). */
    EventId scheduleAt(Tick when, InlineCallback fn,
                       std::string_view label = {});

    /**
     * Cancel a pending event: O(1), in place. The callback (and any
     * resources it captured) is destroyed immediately. Cancelling an
     * event that already fired — or one already cancelled — is a
     * no-op and leaves no residual bookkeeping.
     */
    void deschedule(EventId id);

    /** Run until the queue drains. @return final tick. */
    Tick run();

    /**
     * Run until the queue drains or simulated time would exceed
     * @p limit. Events at exactly @p limit still fire.
     */
    Tick runUntil(Tick limit);

    /** Fire at most one event. @return false if the queue was empty. */
    bool step();

    /**
     * Earliest tick at which anything is still queued, or maxTick if
     * the queue is empty. Cancelled-but-unpopped entries count: the
     * result is a conservative (never too late) lower bound, which is
     * exactly what the sharded run loop needs for its horizon math —
     * a stale entry simply yields one extra barrier round that
     * consumes it. O(1) except when the head of the line is in an
     * unsorted bucket: one fine bucket, or else one coarse bucket, is
     * scanned. The `top` overflow's minimum is tracked, never scanned.
     */
    Tick nextPendingTick() const;

    /**
     * Jump the clock forward to @p t without firing anything. Only
     * legal on a fully drained queue (panics otherwise): the sharded
     * run loop uses it to re-align shard clocks after a run so that
     * follow-up work scheduled from any shard cannot land in another
     * shard's past. A no-op when @p t <= now().
     */
    void advanceTo(Tick t);

    /** True if no entries (live or cancelled) remain queued. */
    bool empty() const { return queued == 0; }

    /** Number of events executed so far (for stats / debugging). */
    std::uint64_t executed() const { return fired; }

    /** Number of events ever scheduled (for conservation checks). */
    std::uint64_t scheduled() const { return created; }

    /** Number of events cancelled while still pending. */
    std::uint64_t cancelledPopped() const { return skipped; }

    /** Live events scheduled but not yet fired nor cancelled. */
    std::uint64_t pending() const { return live; }

    /**
     * Install @p fn to observe every firing (pass nullptr to remove).
     * Used by the determinism auditor; costs one branch per event when
     * unset.
     */
    void setTraceHook(TraceFn fn) { traceFn = std::move(fn); }

  private:
    /** Calendar geometry. */
    static constexpr std::size_t kNumBuckets = 256;
    static constexpr std::uint32_t kMaxWidthShift = 16;
    static constexpr std::uint32_t kInitWidthShift = 10;
    static constexpr std::size_t kNumCoarse = 4096;
    /**
     * A coarse bucket is at least one maximal fine window wide, so a
     * self-rescheduling short-delay chain crosses a coarse boundary
     * once per window, not once per event.
     */
    static constexpr std::uint32_t kMinCoarseShift =
        static_cast<std::uint32_t>(std::countr_zero(kNumBuckets)) +
        kMaxWidthShift;
    /**
     * A multi-tick front bucket holding more entries than this
     * triggers a window re-tighten (refill() would otherwise re-sort
     * the whole bucket every time an insertion dirties it).
     */
    static constexpr std::size_t kRetightenThreshold = 128;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /**
     * Callback storage, slot-indexed. A slot is recycled through a
     * free list as soon as its event fires or is cancelled; the
     * generation counter invalidates stale EventId handles and
     * `seq` doubles as the liveness test for calendar entries
     * (seq == 0 means the slot is free).
     */
    struct Record
    {
        InlineCallback fn;
        std::string_view label;
        std::uint64_t seq = 0;
        std::uint32_t gen = 1;
        std::uint32_t nextFree = kNoSlot;
    };

    /** What the calendar orders: 24 bytes, trivially movable. */
    struct QEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** A coarse-bucket list node: an entry plus its successor. */
    struct CNode
    {
        QEntry e;
        std::uint32_t next;
    };

    // Declared before statsGroup so the group (which deregisters
    // itself) is destroyed first.
    stats::Registry _stats;
    stats::Group statsGroup;
    trace::Tracer _tracer;
    // After _tracer (the tracer holds a back-pointer) and after
    // _stats (the attribution group detaches on destruction).
    trace::Attribution _attr;

    std::vector<Record> records;
    std::uint32_t freeHead = kNoSlot;

    /** Tick group currently firing (all entries share readyTick). */
    std::vector<QEntry> ready;
    std::size_t readyPos = 0;
    Tick readyTick = 0;
    bool readyValid = false;

    std::array<std::vector<QEntry>, kNumBuckets> buckets;
    std::array<bool, kNumBuckets> bucketSorted{};
    Tick windowStart = 0;
    /** End of the fine window, clamped to coarseBoundary. */
    Tick windowLimit = 0;
    std::uint32_t widthShift = kInitWidthShift;
    std::size_t curBucket = 0;

    /**
     * Coarse level: bucket i covers [coarseStart + i * 2^coarseShift,
     * + 2^coarseShift). The current bucket, curCoarse, is held
     * contiguously in `feed`, the window's refill source: it takes
     * everything in [windowLimit, coarseBoundary), including entries
     * below its nominal start after a lowerWindow(), and window dumps.
     * Every later bucket is an unordered list threaded through one
     * shared node pool, which grows only to the peak coarse
     * population, so sweeping through thousands of buckets allocates
     * nothing in steady state; a list is spliced into `feed` once,
     * when its bucket becomes current.
     */
    std::vector<QEntry> feed;
    std::vector<std::uint32_t> coarseHead; //!< kNumCoarse list heads
    std::vector<CNode> coarsePool;
    std::uint32_t coarseFree = kNoSlot;
    Tick coarseStart = 0;
    std::uint32_t coarseShift = kMinCoarseShift;
    std::size_t curCoarse = 0;
    Tick coarseBoundary = 0; //!< end of bucket curCoarse, saturating

    /** Beyond the coarse horizon; bounds tracked on insert. */
    std::vector<QEntry> top;
    Tick topLo = maxTick;
    Tick topHi = 0;

    TraceFn traceFn;
    Tick _now = 0;
    std::uint64_t fired = 0;
    std::uint64_t skipped = 0;
    std::uint64_t created = 0;
    std::uint64_t live = 0;   //!< scheduled, not yet fired/cancelled
    std::uint64_t queued = 0; //!< entries in ready/buckets/feed/coarse/top
    std::uint64_t moved = 0;  //!< entries re-placed by queue upkeep
    std::uint64_t coarseRebuilds = 0;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);
    void insertEntry(const QEntry &e);
    /** File an entry at or beyond windowLimit into coarse or top. */
    void insertCoarse(const QEntry &e);
    /** Link @p e into the list of coarse bucket @p i. */
    void pushCoarse(std::size_t i, const QEntry &e);
    /** Load the next (tick, seq) group into `ready`; false if none. */
    bool refill();
    /** Re-bucket unconsumed ready entries (early runUntil return). */
    void flushReady();
    /** Refill the drained fine window from the next coarse bucket. */
    bool advanceWindow();
    /** Move `feed` into the window from @p lo, sized for @p span, up
     *  to the window limit. */
    void spreadWindow(Tick lo, Tick span);
    /** Spread `top` over the drained coarse level's lists. */
    void rebuildCoarse();
    /** Reset both levels (all empty) to the initial geometry at @p t. */
    void anchorAt(Tick t);
    /** Point the coarse level at bucket @p i. */
    void setCurCoarse(std::size_t i);
    /** Move the unconsumed fine window into `feed`. */
    void dumpWindow();
    /** Re-anchor the window around an entry below windowStart. */
    void lowerWindow(const QEntry &e);
    /** Narrow the window around an over-dense sorted front bucket. */
    void retighten();
};

/**
 * Folds the (tick, sequence, label) firing stream into one 64-bit
 * FNV-1a digest. Two simulation runs are event-trace identical iff
 * their digests (and event counts) match.
 */
class TraceHasher
{
  public:
    /** Install this hasher as @p eq's trace hook. */
    void
    attach(EventQueue &eq)
    {
        eq.setTraceHook([this](Tick t, std::uint64_t seq,
                               std::string_view label) {
            observe(t, seq, label);
        });
    }

    /** Fold one firing into the digest. */
    void
    observe(Tick t, std::uint64_t seq, std::string_view label)
    {
        mixU64(t);
        mixU64(seq);
        for (const char c : label)
            mixByte(static_cast<std::uint8_t>(c));
        ++n;
    }

    std::uint64_t digest() const { return h; }
    std::uint64_t events() const { return n; }

  private:
    void
    mixByte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    mixU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::uint64_t h = 14695981039346656037ull;
    std::uint64_t n = 0;
};

} // namespace dcs

#endif // DCS_SIM_EVENT_QUEUE_HH
