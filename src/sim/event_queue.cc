#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/logging.hh"

namespace dcs {

EventQueue::EventQueue()
{
    _stats.attach(statsGroup, "eventq");
    statsGroup.addCounter("executed", fired, "events fired");
    statsGroup.addCounter("scheduled", created, "events ever scheduled");
    statsGroup.addCounter("cancelled_popped", skipped,
                          "events cancelled while pending");
    statsGroup.addCounter("moved", moved,
                          "entries moved between calendar levels by "
                          "rebuild, retighten and lower-window");
    statsGroup.addCounter("coarse_rebuilds", coarseRebuilds,
                          "coarse-level re-spreads from the top overflow");
    statsGroup.addValue(
        "final_tick", [this] { return static_cast<double>(_now); },
        "simulated time at dump");
    // Surface trace-loss accounting in every stats dump: a trace
    // whose ring overflowed is silently incomplete otherwise.
    statsGroup.addValue(
        "trace_records",
        [this] { return static_cast<double>(_tracer.recorded()); },
        "span-trace records pushed");
    statsGroup.addValue(
        "trace_dropped",
        [this] { return static_cast<double>(_tracer.droppedRecords()); },
        "trace records lost to the drop-oldest ring bound");
    statsGroup.addValue(
        "trace_open_spans",
        [this] { return static_cast<double>(_tracer.openSpans()); },
        "trace spans begun but not yet ended");
    _tracer.setAttribution(&_attr);
    coarseHead.assign(kNumCoarse, kNoSlot);
    anchorAt(0);
    // Slot 0 is reserved so no valid handle is ever 0.
    records.emplace_back();
    // Stamp log output with this queue's clock while it is the live
    // simulation on this thread (sim/logging.hh).
    setLogTickSource(&_now);
}

EventQueue::~EventQueue()
{
    // Detach only if we are still the live source: a restored
    // "previous" pointer could dangle when queues die out of
    // construction order, so an outer queue simply loses its stamp.
    const std::uint64_t *cur = setLogTickSource(nullptr);
    if (cur != &_now)
        setLogTickSource(cur);
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != kNoSlot) {
        const std::uint32_t slot = freeHead;
        freeHead = records[slot].nextFree;
        return slot;
    }
    records.emplace_back();
    return static_cast<std::uint32_t>(records.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &r = records[slot];
    r.seq = 0;
    ++r.gen;
    r.label = {};
    r.nextFree = freeHead;
    freeHead = slot;
}

void
EventQueue::insertEntry(const QEntry &e)
{
    if (readyValid && e.when == readyTick) {
        // Same-tick continuation while that tick is firing: O(1)
        // append; sequence order holds because seq grows monotonically.
        ready.push_back(e);
        return;
    }
    if (e.when >= windowLimit) {
        insertCoarse(e);
        return;
    }
    if (e.when < windowStart) [[unlikely]] {
        // runUntil() can return with the clock below the window: the
        // window is anchored at the pending minimum, which may exceed
        // the runUntil limit. A later schedule between now() and
        // windowStart would index below bucket 0 — re-anchor the
        // window around it instead.
        lowerWindow(e);
        return;
    }
    const auto idx =
        static_cast<std::size_t>((e.when - windowStart) >> widthShift);
    buckets[idx].push_back(e);
    bucketSorted[idx] = false;
    if (idx < curBucket)
        curBucket = idx; // rewind: bucket was empty until this entry
}

void
EventQueue::insertCoarse(const QEntry &e)
{
    if (e.when < coarseBoundary) {
        feed.push_back(e);
        return;
    }
    const Tick idx = (e.when - coarseStart) >> coarseShift;
    if (idx < kNumCoarse) {
        pushCoarse(static_cast<std::size_t>(idx), e);
        return;
    }
    top.push_back(e);
    topLo = std::min(topLo, e.when);
    topHi = std::max(topHi, e.when);
}

EventId
EventQueue::schedule(Tick delay, InlineCallback fn,
                     std::string_view label)
{
    return scheduleAt(_now + delay, std::move(fn), label);
}

EventId
EventQueue::scheduleAt(Tick when, InlineCallback fn,
                       std::string_view label)
{
    if (when < _now)
        panic("scheduling into the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)_now);
    const std::uint32_t slot = allocSlot();
    Record &r = records[slot];
    r.fn = std::move(fn);
    r.label = label;
    r.seq = ++created;
    ++live;
    ++queued;
    insertEntry(QEntry{when, r.seq, slot});
    return (EventId(r.gen) << 32) | slot;
}

void
EventQueue::deschedule(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    DCS_INVARIANT(slot != 0 && slot < records.size(),
                  "descheduling id %llu never issued",
                  (unsigned long long)id);
    if (slot == 0 || slot >= records.size())
        return;
    Record &r = records[slot];
    if (r.gen != gen || r.seq == 0)
        return; // already fired or cancelled: no-op, no residue
    r.fn.reset(); // release captured resources immediately
    freeSlot(slot);
    ++skipped;
    --live;
}

bool
EventQueue::refill()
{
    ready.clear();
    readyPos = 0;
    readyValid = false;
    for (;;) {
        while (curBucket < kNumBuckets) {
            auto &b = buckets[curBucket];
            if (b.empty()) {
                ++curBucket;
                continue;
            }
            if (!bucketSorted[curBucket]) {
                std::sort(b.begin(), b.end(),
                          [](const QEntry &x, const QEntry &y) {
                              return x.when != y.when ? x.when < y.when
                                                      : x.seq < y.seq;
                          });
                bucketSorted[curBucket] = true;
            }
            if (widthShift > 0 && b.size() > kRetightenThreshold &&
                b.back().when != b.front().when) {
                // The bucket width is too coarse for the pending
                // distribution: every insertion dirties this bucket
                // and forces an O(k log k) re-sort per tick group.
                // Re-spread around it and rescan.
                retighten();
                continue;
            }
            const Tick t = b.front().when;
            std::size_t k = 1;
            while (k < b.size() && b[k].when == t)
                ++k;
            ready.assign(b.begin(),
                         b.begin() + static_cast<std::ptrdiff_t>(k));
            b.erase(b.begin(),
                    b.begin() + static_cast<std::ptrdiff_t>(k));
            readyTick = t;
            readyValid = true;
            return true;
        }
        if (!advanceWindow())
            return false;
    }
}

void
EventQueue::pushCoarse(std::size_t i, const QEntry &e)
{
    std::uint32_t n = coarseFree;
    if (n != kNoSlot) {
        coarseFree = coarsePool[n].next;
    } else {
        n = static_cast<std::uint32_t>(coarsePool.size());
        coarsePool.emplace_back();
    }
    coarsePool[n] = CNode{e, coarseHead[i]};
    coarseHead[i] = n;
}

void
EventQueue::anchorAt(Tick t)
{
    coarseStart = t;
    coarseShift = kMinCoarseShift;
    setCurCoarse(0);
    windowStart = t;
    widthShift = kInitWidthShift;
    curBucket = 0;
    const Tick width = Tick(kNumBuckets) << widthShift;
    windowLimit = coarseBoundary - t > width ? t + width : coarseBoundary;
}

void
EventQueue::setCurCoarse(std::size_t i)
{
    curCoarse = i;
    const Tick off = Tick(i + 1) << coarseShift;
    const bool wraps = (off >> coarseShift) != Tick(i + 1) ||
                       off > maxTick - coarseStart;
    coarseBoundary = wraps ? maxTick : coarseStart + off;
}

bool
EventQueue::advanceWindow()
{
    // The fine window is drained: the rest of the current coarse
    // bucket is next; otherwise the first non-empty later bucket;
    // otherwise the coarse level re-spreads from `top`.
    if (queued == 0) {
        // Drained: restart both levels from the initial geometry at
        // now(), so every run from an empty queue reuses the same
        // buckets (and their grown capacity) as the first one did.
        anchorAt(_now);
        return false;
    }
    if (feed.empty()) {
        std::size_t i = curCoarse + 1;
        while (i < kNumCoarse && coarseHead[i] == kNoSlot)
            ++i;
        if (i == kNumCoarse) {
            DCS_INVARIANT(!top.empty(), "queued entries in no level");
            rebuildCoarse(); // everything pending is in `top`
            i = 0;
        }
        setCurCoarse(i);
        std::uint32_t n = coarseHead[i];
        while (n != kNoSlot) {
            CNode &c = coarsePool[n];
            feed.push_back(c.e);
            const std::uint32_t next = c.next;
            c.next = coarseFree;
            coarseFree = n;
            n = next;
        }
        coarseHead[i] = kNoSlot;
    }
    Tick lo = maxTick;
    Tick hi = 0;
    for (const QEntry &e : feed) {
        lo = std::min(lo, e.when);
        hi = std::max(hi, e.when);
    }
    spreadWindow(lo, hi - lo);
    return true;
}

void
EventQueue::spreadWindow(Tick lo, Tick span)
{
    // Adapt bucket width to the observed span: smallest width whose
    // window covers it, capped so one distant timer cannot degrade
    // bucket resolution for everything in between. The window stops
    // at the current coarse bucket's end, so every entry left behind
    // (in `feed`, a later bucket or `top`) is later than every entry
    // in the window.
    std::uint32_t shift = 0;
    while (shift < kMaxWidthShift && (Tick(kNumBuckets) << shift) <= span)
        ++shift;
    widthShift = shift;
    windowStart = lo;
    curBucket = 0;
    const Tick width = Tick(kNumBuckets) << shift;
    windowLimit =
        coarseBoundary - lo > width ? lo + width : coarseBoundary;
    std::size_t w = 0;
    for (std::size_t r = 0; r < feed.size(); ++r) {
        const QEntry e = feed[r];
        if (e.when < windowLimit) {
            const auto idx = static_cast<std::size_t>(
                (e.when - windowStart) >> widthShift);
            buckets[idx].push_back(e);
            bucketSorted[idx] = false;
        } else {
            feed[w++] = e;
        }
    }
    moved += feed.size() - w;
    feed.resize(w);
}

void
EventQueue::rebuildCoarse()
{
    // Called with the window and the coarse level drained, so `top`
    // holds every pending entry: size the coarse buckets (never below
    // one maximal window) so the level's horizon covers all of them,
    // and spread them out — each moves exactly once.
    ++coarseRebuilds;
    const Tick span = topHi - topLo;
    std::uint32_t shift = kMinCoarseShift;
    while ((span >> shift) >= kNumCoarse)
        ++shift;
    coarseShift = shift;
    coarseStart = topLo;
    for (const QEntry &e : top)
        pushCoarse(static_cast<std::size_t>((e.when - coarseStart) >> shift),
                   e);
    moved += top.size();
    top.clear();
    topLo = maxTick;
    topHi = 0;
}

void
EventQueue::dumpWindow()
{
    for (std::size_t i = curBucket; i < kNumBuckets; ++i) {
        auto &bk = buckets[i];
        feed.insert(feed.end(), bk.begin(), bk.end());
        moved += bk.size();
        bk.clear();
    }
    curBucket = kNumBuckets;
}

void
EventQueue::lowerWindow(const QEntry &e)
{
    // Fold the window (buckets before curBucket are empty by
    // invariant) and the new below-window entry into `feed`, which
    // then holds the global minimum, and rebuild the window from it.
    dumpWindow();
    feed.push_back(e);
    advanceWindow();
}

void
EventQueue::retighten()
{
    // Called from refill() on the sorted front bucket: all earlier
    // buckets are empty, so its first entry is the global minimum and
    // everything pending is at or after it. Fold the window into
    // `feed` and re-spread it with a width sized to the front
    // bucket's own span — the densest region of the calendar.
    const auto &b = buckets[curBucket];
    const Tick lo = b.front().when;
    const Tick span = b.back().when - lo;
    dumpWindow();
    spreadWindow(lo, span);
}

void
EventQueue::flushReady()
{
    readyValid = false;
    for (std::size_t i = readyPos; i < ready.size(); ++i)
        insertEntry(ready[i]);
    ready.clear();
    readyPos = 0;
}

Tick
EventQueue::nextPendingTick() const
{
    if (queued == 0)
        return maxTick;
    if (readyValid && readyPos < ready.size())
        return readyTick;
    // Bucket i covers strictly earlier ticks than bucket i+1, and
    // the fine window earlier ticks than the coarse level, so the
    // first non-empty bucket holds the minimum (the bucket itself may
    // be unsorted).
    auto minWhen = [](const std::vector<QEntry> &v) {
        Tick lo = maxTick;
        for (const QEntry &e : v)
            lo = std::min(lo, e.when);
        return lo;
    };
    for (std::size_t i = curBucket; i < kNumBuckets; ++i) {
        if (!buckets[i].empty())
            return minWhen(buckets[i]);
    }
    if (!feed.empty())
        return minWhen(feed);
    for (std::size_t i = curCoarse + 1; i < kNumCoarse; ++i) {
        if (coarseHead[i] == kNoSlot)
            continue;
        Tick lo = maxTick;
        for (std::uint32_t n = coarseHead[i]; n != kNoSlot;
             n = coarsePool[n].next)
            lo = std::min(lo, coarsePool[n].e.when);
        return lo;
    }
    return topLo;
}

void
EventQueue::advanceTo(Tick t)
{
    DCS_CHECK_EQ(queued, std::uint64_t(0),
                 "advanceTo on a queue with pending entries");
    if (t > _now)
        _now = t;
}

bool
EventQueue::step()
{
    for (;;) {
        if (readyPos == ready.size()) {
            if (!refill()) {
                DCS_CHECK_EQ(queued, std::uint64_t(0),
                             "drained queue left entries unaccounted");
                return false;
            }
        }
        const QEntry e = ready[readyPos++];
        --queued;
        Record &r = records[e.slot];
        if (r.seq != e.seq)
            continue; // cancelled: stale calendar entry, drop
        DCS_CHECK_GE(e.when, _now, "event-queue time monotonicity");
        _now = e.when;
        ++fired;
        --live;
        DCS_CHECK_EQ(created, fired + skipped + live,
                     "event conservation: scheduled = fired + "
                     "cancelled + pending");
        InlineCallback fn = std::move(r.fn);
        const std::string_view label = r.label;
        freeSlot(e.slot);
        if (traceFn)
            traceFn(_now, e.seq, label);
        fn();
        return true;
    }
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    // Live-event accounting must close at drain: every scheduled
    // event either fired or was cancelled, and none remain pending.
    DCS_CHECK_EQ(live, std::uint64_t(0),
                 "events still pending after drain");
    DCS_CHECK_EQ(created, fired + skipped,
                 "event conservation at drain: scheduled = fired + "
                 "cancelled");
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        if (readyPos == ready.size() && !refill())
            return _now;
        if (ready[readyPos].when > limit) {
            _now = limit;
            flushReady();
            return _now;
        }
        step();
    }
}

} // namespace dcs
