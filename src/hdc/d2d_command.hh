/**
 * @file
 * The D2D command: what HDC Driver forwards to HDC Engine.
 *
 * A single 64-byte record per multi-device task, written by the
 * driver into the engine's 64-entry command queue (paper §IV-C).
 * Large or fragmented transfers reference an extent list that the
 * engine fetches from host DRAM by DMA.
 */

#ifndef DCS_HDC_D2D_COMMAND_HH
#define DCS_HDC_D2D_COMMAND_HH

#include <cstdint>

#include "mem/addr_range.hh"

namespace dcs {
namespace hdc {

/** Endpoint kinds a D2D command can name. */
enum class Endpoint : std::uint8_t
{
    None = 0,
    Ssd,       //!< NVMe SSD blocks (addr = LBA, via extent list)
    Nic,       //!< TCP flow (addr = connection id)
    HdcBuffer, //!< HDC on-board DRAM (addr = byte offset)
    HostMem,   //!< host DRAM bus address (for staging scenarios)
};

/** Depth of the engine's D2D command queue (paper §IV-C). */
constexpr std::uint32_t cmdQueueEntries = 64;

/** Flag bits in D2dCommand::flags. */
namespace d2dflags {
constexpr std::uint8_t wantDigest = 0x1; //!< return digest to result slot
}

/** Wire format of one D2D command (64 bytes). */
struct D2dCommand
{
    std::uint32_t id = 0;          //!< driver-assigned; see cmdSlot()
    std::uint8_t srcDev = 0;       //!< Endpoint
    std::uint8_t dstDev = 0;       //!< Endpoint
    std::uint8_t fn = 0;           //!< ndp::Function between src and dst
    std::uint8_t flags = 0;
    std::uint64_t srcAddr = 0;     //!< LBA / conn id / byte offset
    std::uint64_t dstAddr = 0;
    std::uint64_t len = 0;         //!< payload bytes
    std::uint32_t srcExtents = 0;  //!< #extents in src list (0 = contig)
    std::uint32_t dstExtents = 0;
    std::uint64_t extListAddr = 0; //!< bus address of extent list
    std::uint64_t auxAddr = 0;     //!< bus address of aux (e.g. AES key)
    std::uint32_t auxLen = 0;
    std::uint8_t srcDevIdx = 0;    //!< which SSD when srcDev == Ssd
    std::uint8_t dstDevIdx = 0;    //!< which SSD when dstDev == Ssd
    std::uint16_t rsvd = 0;
};
static_assert(sizeof(D2dCommand) == 64, "D2D command must be 64 bytes");

/**
 * The slot of command @p id: the one index of all per-command state —
 * the driver's pending entry and staging, the engine's command record,
 * NDP stream and result slot. Invariant: unique among live commands.
 * The driver issues only ids whose slot is free and frees a slot once
 * the completion or NACK is handled and the result slot read, when
 * the engine has retired the command whatever the completion order.
 */
constexpr std::uint32_t
cmdSlot(std::uint32_t id)
{
    return id % cmdQueueEntries;
}

/** One extent-list record: (LBA, block count) pairs, 16 bytes each. */
struct ExtentRec
{
    std::uint64_t lba = 0;
    std::uint64_t blocks = 0;
};
static_assert(sizeof(ExtentRec) == 16, "ExtentRec must be 16 bytes");

} // namespace hdc
} // namespace dcs

#endif // DCS_HDC_D2D_COMMAND_HH
