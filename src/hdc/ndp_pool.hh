/**
 * @file
 * Near-device processing unit pool (paper §III-D, Table III).
 *
 * A set of function-specific IP cores processing data in the engine's
 * intermediate buffers. A multi-chunk command streams its chunks, in
 * order, through one unit (hash state is sequential); independent
 * commands run on different units in parallel — which is exactly how
 * the paper reaches 10 Gbps from sub-Gbps cores.
 *
 * Stream state is pooled at the command's slot (cmdSlot()), with hash
 * objects cached per slot and reset() between occupants — steady-state
 * command churn touches no hash-object or map allocation.
 */

#ifndef DCS_HDC_NDP_POOL_HH
#define DCS_HDC_NDP_POOL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hdc/d2d_command.hh"
#include "hdc/scoreboard.hh"
#include "hdc/timing.hh"
#include "ndp/hash.hh"
#include "ndp/transform.hh"
#include "sim/small_vec.hh"

namespace dcs {
namespace hdc {

class HdcEngine;

/** Packing of Entry::aux for NDP entries. */
struct NdpAux
{
    std::uint64_t streamOffset = 0; //!< byte offset within the command
    bool last = false;              //!< final chunk (finalize digest)

    static NdpAux
    unpack(std::uint64_t v)
    {
        return {v >> 1, (v & 1) != 0};
    }

    std::uint64_t
    pack() const
    {
        return (streamOffset << 1) | (last ? 1 : 0);
    }
};

/** The pool. */
class NdpPool
{
  public:
    NdpPool(HdcEngine &engine, const HdcTiming &timing,
            double target_gbps = 10.0);

    /** Begin a streamed command; a digest lands in its result slot. */
    void beginCommand(std::uint32_t cmd_id, ndp::Function fn,
                      std::span<const std::uint8_t> aux);

    /** Process one chunk (scoreboard entry with DevClass::NdpUnit). */
    void issue(const Entry &e);

    /** Drop per-command stream state (engine calls at cmd retire). */
    void endCommand(std::uint32_t cmd_id);

    /**
     * Completion: entry id + actual output length (differs from the
     * input length for compression).
     */
    std::function<void(std::uint32_t entry_id, std::uint64_t out_len)>
        onComplete;

    int unitsFor(ndp::Function fn) const;
    std::uint64_t chunksProcessed() const { return chunks; }
    /** Streams begun and not yet ended (quiesce gauge). */
    std::size_t activeStreams() const { return liveStreams; }

  private:
    struct StreamSlot
    {
        std::uint32_t cmdId = 0;
        bool inUse = false;
        ndp::Function fn = ndp::Function::None;
        SmallVec<std::uint8_t, 48> aux;
        /** Cached hash object, reset() between occupants. */
        std::unique_ptr<ndp::HashFunction> hash;
        ndp::Function hashFn = ndp::Function::None;
        int unit = -1;
    };

    struct UnitSet
    {
        std::vector<Tick> freeAt; //!< per-unit busy cursor
        int rr = 0;               //!< round-robin assignment
    };

    HdcEngine &engine;
    const HdcTiming &timing;
    double targetGbps;

    std::array<StreamSlot, cmdQueueEntries> streams;
    std::size_t liveStreams = 0;
    /** Indexed by (int)Function; sized lazily on first use. */
    std::array<UnitSet, ndp::functionCount> units;
    std::uint64_t chunks = 0;

    StreamSlot &streamOf(std::uint32_t cmd_id, const char *what);
    UnitSet &unitsOf(ndp::Function fn);
};

} // namespace hdc
} // namespace dcs

#endif // DCS_HDC_NDP_POOL_HH
