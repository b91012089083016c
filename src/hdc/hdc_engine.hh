/**
 * @file
 * HDC Engine: the FPGA-based hardware device-control engine that is
 * the paper's core contribution (§III, §IV-C).
 *
 * One PCIe endpoint containing:
 *  - a host interface: 64-entry x 64 B command queue + command parser
 *    + interrupt generator (completions delivered in request order);
 *  - the scoreboard that splits D2D commands into device commands and
 *    schedules them;
 *  - standard device controllers for NVMe SSDs and 10-GbE NICs that
 *    submit/complete real device commands over PCIe P2P;
 *  - a pool of NDP units for intermediate processing;
 *  - on-chip BRAM (device queues, header buffers) and 1 GiB on-board
 *    DDR3 chunked into 64 KiB intermediate/receive buffers.
 */

#ifndef DCS_HDC_HDC_ENGINE_HH
#define DCS_HDC_HDC_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "hdc/d2d_command.hh"
#include "hdc/ndp_pool.hh"
#include "hdc/nic_controller.hh"
#include "hdc/nvme_controller.hh"
#include "hdc/scoreboard.hh"
#include "hdc/timing.hh"
#include "mem/chunk_allocator.hh"
#include "mem/memory.hh"
#include "pcie/device.hh"
#include "sim/probe_map.hh"
#include "sim/small_vec.hh"

namespace dcs {
namespace hdc {

/** Engine sizing and timing. */
struct HdcEngineParams
{
    std::uint64_t bramBytes = 1ull << 20;   //!< on-chip queue memory
    std::uint64_t dramBytes = 1ull << 30;   //!< on-board DDR3
    std::uint64_t chunkSize = 64 * 1024;    //!< paper §IV-C block size
    std::uint32_t recvBufSize = 16 * 1024;  //!< per-frame recv buffer
    std::uint32_t recvArenaFrames = 1024;
    double ndpTargetGbps = 10.0;
    HdcTiming timing{};

    /** @name Control-path batching (0 = off, bit-identical to the
     *  per-command legacy path). Doorbell knobs batch the engine's
     *  P2P ring-tail writes; MSI knobs aggregate completion
     *  interrupts into the BAR completion ring. */
    /** @{ */
    std::uint32_t doorbellBatch = 0; //!< tail updates per MMIO flush
    Tick doorbellHoldoff = 0;        //!< max delay before a pending flush
    std::uint32_t msiCoalesce = 0;   //!< completions per MSI
    Tick msiHoldoff = 0;             //!< max delay before an MSI flush
    /** @} */

    /** @name Admission control (0 = unbounded). Commands that would
     *  overflow are rejected with a 429-style NACK completion. */
    /** @{ */
    std::uint32_t maxActiveCmds = 0;  //!< concurrent admitted commands
    std::uint32_t maxLiveEntries = 0; //!< scoreboard live-entry cap
    /** @} */
};

/** One SSD bound to the engine. */
struct SsdBinding
{
    Addr bar0 = 0;
    std::uint16_t qid = 2;     //!< dedicated IO queue pair id
    std::uint16_t qdepth = 64;
};

/** Attachment info the driver passes when binding devices. */
struct HdcDeviceConfig
{
    Addr ssdBar0 = 0; //!< shorthand: primary SSD (bindings[0])
    std::uint16_t ssdQid = 2;
    std::uint16_t ssdQdepth = 64;
    /** Additional SSDs beyond the primary one — the engine's
     *  disaggregate controllers make adding devices cheap (paper
     *  §III-C flexibility claim). */
    std::vector<SsdBinding> extraSsds;
    Addr nicBar0 = 0;
    std::uint32_t nicRingEntries = 256;
    std::uint32_t mss = 8192;
    /** Paper §IV-C notifies completions strictly in request order
     *  ("simple implementation"); disable to ablate the head-of-line
     *  blocking that ordering causes. */
    bool inOrderCompletion = true;
};

/** The engine. */
class HdcEngine : public pcie::Device
{
  public:
    /** Fixed offsets in the engine's single BAR. */
    static constexpr std::uint64_t regDoorbell = 0x0;
    static constexpr std::uint64_t cmdQueueOff = 0x1000;
    static constexpr std::uint64_t resultOff = 0x2000;
    static constexpr std::uint64_t resultSlotSize = 64;
    /** Coalesced-completion ring: cmdQueueEntries x 4 B command ids
     *  (bit 31 set = admission NACK). An MSI's value is the ring's
     *  producer count; the driver drains [consumed, produced). */
    static constexpr std::uint64_t cplRingOff = 0x4000;
    /** Completion-value bit marking an admission reject (429). */
    static constexpr std::uint32_t cplNackBit = 0x80000000u;
    static constexpr std::uint64_t bramOff = 0x100000;
    static constexpr std::uint64_t dramOff = 0x40000000ull;

    HdcEngine(EventQueue &eq, std::string name, Addr bar,
              HdcEngineParams p = {});

    void busWrite(Addr addr, std::span<const std::uint8_t> data) override;
    void busRead(Addr addr, std::span<std::uint8_t> data) override;

    /** Zero-copy DMA into/out of the DRAM window (adopt/borrow). */
    void busWriteBulk(Addr addr, const BufChain &data) override;
    BufChain busReadBulk(Addr addr, std::uint64_t len) override;

    /** @name Driver-facing configuration (modelled config registers). */
    /** @{ */

    /** Bind the SSD and NIC; returns once internal layout is fixed. */
    void configureDevices(const HdcDeviceConfig &cfg);

    /** Register a TCP connection's flow state for the NIC controller. */
    void registerConnection(std::uint32_t conn_id, net::FlowInfo out,
                            std::uint32_t next_rx_seq);

    /** Where completion MSIs (data = D2D command id) are written. */
    void setMsiAddress(Addr a) { msiAddr = a; }

    /** Begin posting NIC receive buffers (after the driver has
     *  programmed the NIC's ring registers). */
    void startNicRx();

    /** Toggle the §IV-C in-order completion notification (modelled
     *  config bit; the relaxed mode is an ablation). */
    void
    setInOrderCompletion(bool in_order)
    {
        devCfg.inOrderCompletion = in_order;
    }

    /** Bus addresses of the dedicated NVMe queues (driver needs them
     *  to issue the Create IO CQ/SQ admin commands). */
    Addr nvmeSqBus(std::size_t ssd_idx = 0) const;
    Addr nvmeCqBus(std::size_t ssd_idx = 0) const;

    /** Number of SSDs bound to this engine. */
    std::size_t ssdCount() const { return _nvme.size(); }
    /** Bus addresses of the NIC rings (driver programs the NIC). */
    Addr nicSendRingBus() const;
    Addr nicSendCplBus() const;
    Addr nicRecvRingBus() const;
    Addr nicRecvCplBus() const;
    /** @} */

    Addr bar() const { return _bar; }
    Addr cmdSlotBus(std::uint32_t idx) const;
    Addr doorbellBus() const { return _bar + regDoorbell; }
    Addr resultSlotBus(std::uint32_t cmd_id) const;

    /** @name Internal services used by the controllers/pool. */
    /** @{ */
    Memory &bram() { return _bram; }
    Memory &dram() { return _dram; }
    Addr bramBus(std::uint64_t off) const { return _bar + bramOff + off; }
    Addr dramBus(std::uint64_t off) const { return _bar + dramOff + off; }

    void engDmaRead(Addr a, std::uint64_t n,
                    std::function<void(BufChain)> done);
    void engDmaWrite(Addr a, BufChain d, std::function<void()> done);
    void
    engDmaWrite(Addr a, std::vector<std::uint8_t> d,
                std::function<void()> done)
    {
        engDmaWrite(a, BufChain(Buffer::fromVector(std::move(d))),
                    std::move(done));
    }
    void engMmioWrite(Addr a, std::uint64_t v, unsigned size);

    /** Unified completion funnel from all controllers. */
    void entryCompleted(std::uint32_t entry_id, std::uint64_t out_len);

    /** Deposit a digest into a command's result slot. */
    void writeResult(std::uint32_t cmd_id,
                     std::span<const std::uint8_t> digest);
    /** @} */

    /** @name Introspection. */
    /** @{ */
    Scoreboard &scoreboard() { return *_scoreboard; }
    HdcNvmeController &nvmeCtrl(std::size_t idx = 0)
    {
        return *_nvme.at(idx);
    }
    HdcNicController &nicCtrl() { return *_nic; }
    NdpPool &ndpPool() { return *_ndp; }
    std::uint64_t commandsCompleted() const { return _cmdsDone; }
    std::uint64_t interruptsRaised() const { return _irqs; }
    std::uint64_t commandsRejected() const { return _cmdRejects; }
    /** Commands admitted and not yet retired (telemetry gauge). */
    std::size_t activeCommands() const { return activeCount; }

    /**
     * Exact-occupancy audit at quiesce: every command-pool slot,
     * scoreboard slot/edge, NDP stream and DRAM buffer chunk must be
     * back on its freelist once all commands have drained — a leaked
     * rejected/retired command is directly countable. Panics
     * (DCS_CHECKED) naming the leak; returns quiescent().
     */
    bool checkQuiesce() const;
    bool quiescent() const;
    /** Completions parked awaiting the coalesced MSI (gauge). */
    std::uint32_t cplRingOccupancy() const { return cplPending; }
    /** Engine-side P2P doorbell MMIO writes (all controllers). */
    std::uint64_t doorbellWrites() const;
    const ChunkAllocator &bufferAllocator() const { return *bufAlloc; }
    const HdcEngineParams &params() const { return _params; }
    /** @} */

  private:
    /** Length inheritance: NDP entry whose output length the send
     *  entry must adopt (compression changes the payload size). */
    struct LenInheritRec
    {
        std::uint32_t ndpEntry = 0;
        std::uint32_t sendEntry = 0;
    };
    /** Buffer lifetime: DRAM chunk released when @c entry completes. */
    struct FreeRec
    {
        std::uint32_t entry = 0;
        std::uint64_t chunk = 0;
    };

    /**
     * Pooled per-command record at cmdSlot(cmd.id). The driver keeps
     * that slot unique among live commands (see cmdSlot()), so a live
     * record is never re-claimed; a collision is a driver fault. The
     * small vectors keep the common chunk counts inline and retain
     * spilled capacity across occupants, so steady-state command
     * processing never allocates.
     */
    struct CmdRecord
    {
        D2dCommand cmd;
        SmallVec<ExtentRec, 4> srcExt;
        SmallVec<ExtentRec, 4> dstExt;
        SmallVec<std::uint8_t, 48> aux;
        bool inUse = false;
        bool done = false;
        SmallVec<std::uint64_t, 4> ownedChunks; //!< DRAM offsets to free
        std::uint64_t flow = 0; //!< span-tracer request identity
        SmallVec<LenInheritRec, 2> lenInherit;
        SmallVec<FreeRec, 8> freeOnComplete;
    };

    /** Live record for @p cmd_id, or nullptr. */
    CmdRecord *findActive(std::uint32_t cmd_id);
    /** Live record for @p cmd_id; panics naming @p what if absent. */
    CmdRecord &requireActive(std::uint32_t cmd_id, const char *what);
    /** Claim and reset the pool slot for a newly admitted command. */
    CmdRecord &claimRecord(const D2dCommand &cmd);
    /** Return a retired command's slot to the pool. */
    void releaseRecord(CmdRecord &rec);

    void pumpCmdQueue();
    void processCommand(const D2dCommand &cmd);
    void buildPipeline(CmdRecord &ac);
    void commandFinished(std::uint32_t cmd_id);
    void drainCompletions();

    /** Would admitting @p cmd stay inside the configured bounds? */
    bool admitCommand(const D2dCommand &cmd) const;
    /** Raise (or enqueue, when coalescing) a completion/NACK MSI. */
    void notifyCompletion(std::uint32_t cmd_id, std::uint64_t flow,
                          bool rejected);
    /** Fire the coalesced MSI for everything pending in the ring. */
    void flushMsi();

    /** One contiguous device run of an extent walk. */
    struct Run
    {
        std::uint64_t addr = 0;
        std::uint64_t len = 0;
    };
    using RunVec = SmallVec<Run, 8>;

    /** Append to @p out the runs of @p ext covering [off, off+len). */
    static void extentRuns(const ExtentRec *ext, std::size_t n_ext,
                           std::uint64_t off, std::uint64_t len,
                           RunVec &out);

    Addr _bar;
    HdcEngineParams _params;
    Memory _bram;
    Memory _dram;
    Memory results;
    std::unique_ptr<ChunkAllocator> bufAlloc;

    std::unique_ptr<Scoreboard> _scoreboard;
    std::vector<std::unique_ptr<HdcNvmeController>> _nvme;
    std::unique_ptr<HdcNicController> _nic;
    std::unique_ptr<NdpPool> _ndp;

    // BRAM layout (fixed at configureDevices time).
    struct NvmeBramLayout
    {
        std::uint64_t sq = 0, cq = 0, prp = 0;
    };
    std::vector<NvmeBramLayout> bramNvme;
    std::uint64_t bramNicSend = 0, bramNicSendCpl = 0;
    std::uint64_t bramNicRecv = 0, bramNicRecvCpl = 0, bramNicHdr = 0;
    std::uint64_t dramRecvArena = 0;
    HdcDeviceConfig devCfg;
    bool devicesConfigured = false;

    // Command queue state.
    std::array<std::uint8_t, cmdQueueEntries * sizeof(D2dCommand)>
        cmdqRaw{};
    std::uint32_t cmdTail = 0;   //!< host-written producer index
    std::uint32_t cmdParsed = 0; //!< engine consumer index
    bool parserBusy = false;

    std::array<CmdRecord, cmdQueueEntries> cmdPool;
    std::size_t activeCount = 0;
    RingDeque<std::uint32_t> completionOrder; //!< in-order notification

    /** Per-connection TCP-order send chaining. Values are scoreboard
     *  entry-id handles that may be stale (generation-checked by
     *  hasEntry); entries persist across commands by design. */
    ProbeMap<std::uint32_t, std::uint32_t> lastSendOnConn;

    Addr msiAddr = 0;
    std::uint64_t _cmdsDone = 0;
    std::uint64_t _irqs = 0;

    // Admission + MSI-coalescing state (inert while the knobs are 0).
    std::uint64_t _cmdRejects = 0;
    std::array<std::uint8_t, cmdQueueEntries * 4> cplRingRaw{};
    std::uint32_t cplProduced = 0; //!< ring producer count (MSI value)
    std::uint32_t cplPending = 0;  //!< completions since the last MSI
    bool msiTimerArmed = false;
};

} // namespace hdc
} // namespace dcs

#endif // DCS_HDC_HDC_ENGINE_HH
