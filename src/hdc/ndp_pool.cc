#include "hdc/ndp_pool.hh"

#include <algorithm>

#include "hdc/hdc_engine.hh"
#include "sim/logging.hh"

namespace dcs {
namespace hdc {

static_assert(NdpPool::kStreams == HdcEngine::cmdQueueEntries,
              "stream slots must mirror the engine command queue");

NdpPool::NdpPool(HdcEngine &engine, const HdcTiming &timing,
                 double target_gbps)
    : engine(engine), timing(timing), targetGbps(target_gbps)
{
}

int
NdpPool::unitsFor(ndp::Function fn) const
{
    return ndpUnitsFor(fn, targetGbps);
}

NdpPool::UnitSet &
NdpPool::unitsOf(ndp::Function fn)
{
    UnitSet &us = units[static_cast<std::size_t>(fn)];
    if (us.freeAt.empty())
        us.freeAt.assign(static_cast<std::size_t>(unitsFor(fn)), 0);
    return us;
}

NdpPool::StreamSlot &
NdpPool::streamOf(std::uint32_t cmd_id, const char *what)
{
    StreamSlot &s = streams[cmd_id % kStreams];
    if (!s.inUse || s.cmdId != cmd_id)
        panic("hdc.ndp: %s for unregistered command %u", what, cmd_id);
    return s;
}

void
NdpPool::beginCommand(std::uint32_t cmd_id, ndp::Function fn,
                      std::span<const std::uint8_t> aux,
                      std::uint64_t result_slot_off)
{
    StreamSlot &s = streams[cmd_id % kStreams];
    if (s.inUse)
        panic("hdc.ndp: stream slot collision: %u vs live %u", cmd_id,
              s.cmdId);
    s.cmdId = cmd_id;
    s.inUse = true;
    s.fn = fn;
    s.aux.assign(aux.data(), aux.size());
    s.resultSlotOff = result_slot_off;
    // Digest functions reuse the slot's cached hash object when the
    // algorithm matches; reset() restores the initial state without an
    // allocation. Other functions carry no hash state.
    if (const auto new_hash = ndp::functionInfo(fn).newHash) {
        if (s.hash && s.hashFn == fn) {
            s.hash->reset();
        } else {
            s.hash = new_hash();
            s.hashFn = fn;
        }
    }
    // Pin the stream to a unit round-robin.
    UnitSet &us = unitsOf(fn);
    s.unit = us.rr;
    us.rr = (us.rr + 1) % static_cast<int>(us.freeAt.size());
    ++liveStreams;
}

void
NdpPool::endCommand(std::uint32_t cmd_id)
{
    StreamSlot &s = streamOf(cmd_id, "endCommand");
    s.inUse = false;
    DCS_CHECK_GT(liveStreams, std::size_t{0}, "stream pool underflow");
    --liveStreams;
}

void
NdpPool::issue(const Entry &e)
{
    StreamSlot &s = streamOf(e.cmdId, "chunk");
    const NdpAux aux = NdpAux::unpack(e.aux);
    ++chunks;

    // Occupy the pinned unit at its per-unit throughput (Table III).
    UnitSet &us = unitsOf(s.fn);
    Tick &unit_free = us.freeAt[static_cast<std::size_t>(s.unit)];
    const Tick start = std::max(engine.now(), unit_free);
    const Tick compute = transferTime(e.len, ndpSpec(s.fn).perUnitGbps);
    const Tick finish = start + compute;
    unit_free = finish;

#ifdef DCS_TRACING
    // Units serialize their chunks, so each unit is its own exclusive
    // lane; the track name is built only when recording is on.
    if (engine.tracer().enabled())
        engine.tracer().span(start, compute,
                             engine.name() + ".ndp/" +
                                 ndp::functionName(s.fn) + "#" +
                                 std::to_string(s.unit),
                             "compute", e.flow, /*lane_exclusive=*/true);
#endif

    engine.schedule(finish - engine.now(), [this, e, aux] {
        StreamSlot &stream = streamOf(e.cmdId, "finish");
        const ndp::FunctionInfo &fn = ndp::functionInfo(stream.fn);

        // Functional processing over shared views of engine DRAM —
        // the payload is not copied out of the buffers.
        const BufChain input = engine.dram().borrow(e.src, e.len);
        std::uint64_t out_len = e.len;

        if (fn.passThrough()) {
            // Pass-through moves views; digests stream per segment.
            if (e.dst != e.src)
                engine.dram().adopt(e.dst, input);
            if (fn.newHash) {
                for (const Buffer &seg : input.segments())
                    stream.hash->update(seg.span());
                if (aux.last)
                    engine.writeResult(e.cmdId, stream.hash->finish());
            }
        } else {
            // Each chunk is transformed on its own: AES-CTR seeks to
            // the chunk's stream offset, gzip emits one member.
            auto out = fn.kernel(input, {stream.aux.data(), stream.aux.size()},
                                 aux.streamOffset);
            out_len = out.size();
            // The output lands in one engine chunk buffer; anything
            // longer would overwrite the neighbouring chunk.
            const std::uint64_t cap = engine.params().chunkSize;
            if (out_len > cap)
                panic("hdc.ndp: cmd %u: %s output of %llu B overruns its "
                      "%llu B chunk buffer",
                      e.cmdId, fn.name, (unsigned long long)out_len,
                      (unsigned long long)cap);
            engine.dram().adopt(
                e.dst, BufChain(Buffer::fromVector(std::move(out))));
        }

        if (onComplete)
            onComplete(e.id, out_len);
    });
}

} // namespace hdc
} // namespace dcs
