/**
 * @file
 * HDC Driver: the thin kernel module of DCS-ctrl (paper §IV-B).
 *
 * Retrieves metadata from the kernel (file block addresses from the
 * extent filesystem, TCP connection state from the TCP stack), checks
 * descriptor permissions, builds 64-byte D2D commands and forwards
 * them to HDC Engine's command queue, and handles the engine's
 * completion interrupts. It deliberately bypasses page-cache and
 * socket-buffer management (the paper's software optimization, §III-E);
 * the remaining host work per D2D operation is a metadata lookup, one
 * MMIO burst, and one interrupt.
 */

#ifndef DCS_HDCLIB_HDC_DRIVER_HH
#define DCS_HDCLIB_HDC_DRIVER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "hdc/hdc_engine.hh"
#include "host/extent_fs.hh"
#include "host/host.hh"
#include "host/nvme_driver.hh"
#include "host/page_cache.hh"
#include "host/tcp.hh"
#include "host/trace.hh"
#include "ndp/transform.hh"
#include "pcie/doorbell.hh"

namespace dcs {
namespace hdclib {

/** What the user asked for (one HDC Library call). */
struct D2dRequest
{
    hdc::Endpoint src = hdc::Endpoint::None;
    hdc::Endpoint dst = hdc::Endpoint::None;
    int srcFd = -1;            //!< file/socket fd when src is Ssd/Nic
    int dstFd = -1;
    std::uint8_t srcSsd = 0;   //!< SSD index for Ssd endpoints
    std::uint8_t dstSsd = 0;
    std::uint64_t srcOffset = 0; //!< byte offset into the file
    std::uint64_t dstOffset = 0;
    std::uint64_t srcBufOff = 0; //!< HdcBuffer endpoints: DRAM offset
    std::uint64_t dstBufOff = 0;
    std::uint64_t len = 0;
    ndp::Function fn = ndp::Function::None;
    std::vector<std::uint8_t> aux; //!< e.g. AES key || nonce
    bool wantDigest = false;
    /** Span-tracer flow id (sim/tracing.hh); 0 when tracing is off.
     *  The 64-byte D2dCommand has no room for it, so the driver binds
     *  cmd.id -> flow in the tracer instead. */
    std::uint64_t traceFlow = 0;
};

/** Completion data returned to the library. */
struct D2dResult
{
    std::uint32_t cmdId = 0;
    std::vector<std::uint8_t> digest;
    /** 0 = completed; 429 = rejected (engine admission NACK or the
     *  driver's own reject-on-full), HTTP-style. */
    std::uint32_t status = 0;
};

/** The driver. One per DCS-ctrl node. */
class HdcDriver : public SimObject
{
  public:
    HdcDriver(EventQueue &eq, host::Host &host, hdc::HdcEngine &engine,
              host::NvmeHostDriver &nvme_driver, host::ExtentFs &fs,
              host::TcpStack &tcp);

    /**
     * Bring-up: configure the engine, dedicate an NVMe queue pair in
     * engine BRAM, hand the NIC's rings to the engine, route the
     * completion MSI. Requires the host NVMe driver to be ready.
     */
    void init(Addr ssd_bar0, Addr nic_bar0, std::function<void()> done);

    /**
     * Bind an additional SSD (its own host driver + filesystem) to
     * the engine. Call before init(); the extra dedicated queue
     * pairs are created during bring-up. @return the SSD index to
     * use in D2dRequest::srcSsd/dstSsd.
     */
    int addSsd(host::NvmeHostDriver &driver, host::ExtentFs &fs,
               Addr bar0);

    /**
     * Register a kernel TCP connection for hardware use; returns the
     * connection id to place in D2D commands. Fails (-1) if the fd is
     * unknown or not permitted.
     */
    int attachConnection(int sock_fd);

    /**
     * Bind the host page cache: before any D2D command whose source
     * file has dirty pages, the driver writes them back so the SSD
     * holds the latest data (§IV-B consistency).
     */
    void setPageCache(host::PageCache *pc) { pageCache = pc; }

    /**
     * The ioctl entry point used by HDC Library. Charges driver CPU
     * costs, builds + forwards the D2D command, completes via IRQ.
     */
    void submit(const D2dRequest &req, host::TracePtr trace,
                std::function<void(const D2dResult &)> done);

    bool ready() const { return _ready; }
    std::uint64_t commandsSubmitted() const { return submitted; }

    /** @name Overload behavior. */
    /** @{ */

    /**
     * When the command queue is full, complete new submissions with
     * status 429 instead of panicking — the posture a load generator
     * needs. Defaults off so misuse still trips loudly.
     */
    void setRejectOnFull(bool on) { rejectOnFull = on; }

    /**
     * Batch the engine's command-queue doorbell: ring once per
     * @p max submissions or @p holdoff, whichever first (0 = every
     * submission, the legacy behavior).
     */
    void setDoorbellBatch(std::uint32_t max, Tick holdoff);

    std::uint64_t doorbellWrites() const { return dbBatch.mmioWrites(); }
    std::uint64_t rejectedLocal() const { return _localRejects; }
    /** @} */

  private:
    void onMsi(std::uint32_t value);
    /** Per-command completion work shared by both MSI modes. */
    void finishCommand(std::uint32_t cmd_id, bool rejected, Tick t_irq);
    /** Free @p r's command slot, then hand @p r to its requester. */
    void releaseSlot(const D2dResult &r);
    /** Drain the engine's coalesced-completion ring up to @p produced. */
    void drainCplRing(std::uint32_t produced, Tick t_irq);

    /** Resolve + stage the extent lists of file endpoints. */
    std::uint32_t stageExtents(const D2dRequest &req, hdc::D2dCommand &cmd);

    host::ExtentFs &fsOf(std::uint8_t ssd_idx);

    host::Host &host;
    hdc::HdcEngine &engine;
    host::NvmeHostDriver &nvmeDriver;
    host::ExtentFs &fs;
    host::TcpStack &tcp;
    host::PageCache *pageCache = nullptr;

    struct ExtraSsd
    {
        host::NvmeHostDriver *driver = nullptr;
        host::ExtentFs *fs = nullptr;
        Addr bar0 = 0;
    };
    std::vector<ExtraSsd> extraSsds;

    /** The command-slot table, indexed by hdc::cmdSlot(id). */
    struct Pending
    {
        bool live = false;
        bool completing = false; //!< completion seen; a repeat is a fault
        std::uint32_t id = 0;
        host::TracePtr trace;
        std::function<void(const D2dResult &)> done;
        bool wantDigest = false;
        Tick submitTick = 0;
        std::uint64_t flow = 0; //!< span-tracer request identity
    };
    std::array<Pending, hdc::cmdQueueEntries> slots;
    std::uint32_t liveSlots = 0; //!< claimed slots (outstanding gate)
    std::unordered_map<int, std::uint32_t> connOfFd;

    Addr extArena = 0;  //!< DMA arena for staged extent lists
    Addr auxArena = 0;  //!< DMA arena for aux payloads (keys)
    std::uint32_t nextCmdId = 1;
    std::uint32_t cmdRingTail = 0; //!< command-ring producer count
    std::uint32_t nextConnId = 1;
    std::uint64_t submitted = 0;
    std::uint64_t _localRejects = 0;
    std::uint32_t cplConsumed = 0; //!< coalesced-ring consumer count
    bool rejectOnFull = false;
    pcie::DoorbellBatcher dbBatch;
    bool _ready = false;

    /** Fewer than cmdQueueEntries, so a free slot always exists. */
    static constexpr std::uint32_t maxOutstanding =
        hdc::cmdQueueEntries - 1;
};

} // namespace hdclib
} // namespace dcs

#endif // DCS_HDCLIB_HDC_DRIVER_HH
