#include "hdc/hdc_engine.hh"

#include <algorithm>
#include <cstring>

#include "nic/nic.hh"
#include "pcie/fabric.hh"
#include "sim/logging.hh"

namespace dcs {
namespace hdc {

HdcEngine::HdcEngine(EventQueue &eq, std::string name, Addr bar,
                     HdcEngineParams p)
    : pcie::Device(eq, std::move(name)), _bar(bar), _params(p),
      _bram(p.bramBytes, this->name() + ".bram"),
      // 4 KiB DRAM pages: SSD PRP scatter and NIC gather land
      // page-granular, so adopt() installs views instead of copying.
      _dram(p.dramBytes, this->name() + ".dram", 12),
      results(cmdQueueEntries * resultSlotSize, this->name() + ".results")
{
    // One BAR covering registers, command queue, result slots, BRAM
    // window and the DRAM window.
    claimRange({bar, dramOff + p.dramBytes});

    _scoreboard = std::make_unique<Scoreboard>(
        eq, this->name() + ".scoreboard", _params.timing);
    _nic = std::make_unique<HdcNicController>(*this, _params.timing);
    _ndp = std::make_unique<NdpPool>(*this, _params.timing,
                                     _params.ndpTargetGbps);

    _nic->onComplete = [this](std::uint32_t id) { entryCompleted(id, 0); };
    _ndp->onComplete = [this](std::uint32_t id, std::uint64_t out_len) {
        entryCompleted(id, out_len);
    };
    _scoreboard->setCommandDone(
        [this](std::uint32_t cmd_id) { commandFinished(cmd_id); });

    if (_params.maxLiveEntries)
        _scoreboard->setLiveBound(_params.maxLiveEntries);

    statsGroup().addCounter("commands_done", _cmdsDone,
                            "D2D commands completed");
    statsGroup().addCounter("irqs", _irqs, "completion MSIs raised");
    statsGroup().addCounter("cmd_rejects", _cmdRejects,
                            "D2D commands NACKed at admission");
    statsGroup().addValue(
        "doorbell_writes",
        [this] { return static_cast<double>(doorbellWrites()); },
        "P2P doorbell MMIO writes by the device controllers");
    // Zero-copy data-plane accounting for the on-board DDR3: how many
    // payload bytes were memcpy'd versus moved as borrowed/adopted
    // views, and the discrete copy operations — the O(1)
    // copies-per-request evidence for the D2D path.
    statsGroup().addValue(
        "dram_copy_ops",
        [this] { return static_cast<double>(_dram.transfers().copyOps); },
        "discrete payload memcpy calls on engine DRAM");
    statsGroup().addValue(
        "dram_bytes_copied",
        [this] {
            return static_cast<double>(_dram.transfers().bytesCopied);
        },
        "payload bytes memcpy'd in/out of engine DRAM");
    statsGroup().addValue(
        "dram_bytes_borrowed",
        [this] {
            return static_cast<double>(_dram.transfers().bytesBorrowed);
        },
        "payload bytes read zero-copy as views");
    statsGroup().addValue(
        "dram_bytes_adopted",
        [this] {
            return static_cast<double>(_dram.transfers().bytesAdopted);
        },
        "payload bytes written zero-copy as views");
    // Buffer-allocator stats (bufAlloc exists after configureDevices;
    // zero before that).
    statsGroup().addValue(
        "buf_chunks_used",
        [this] {
            return bufAlloc
                       ? static_cast<double>(bufAlloc->usedChunks())
                       : 0.0;
        },
        "live DRAM buffer chunks");
    statsGroup().addValue(
        "buf_chunks_peak",
        [this] {
            return bufAlloc ? static_cast<double>(bufAlloc->peakUsed())
                            : 0.0;
        },
        "high-water mark of live DRAM buffer chunks");
    statsGroup().addValue(
        "buf_chunks_total",
        [this] {
            return bufAlloc
                       ? static_cast<double>(bufAlloc->totalChunks())
                       : 0.0;
        },
        "DRAM buffer chunk capacity");
}

void
HdcEngine::configureDevices(const HdcDeviceConfig &cfg)
{
    devCfg = cfg;

    // Lay out BRAM: NVMe queue pair + PRP arena, then NIC rings.
    std::uint64_t off = 0;
    auto take = [&](std::uint64_t n) {
        const std::uint64_t at = off;
        off = (off + n + 63) & ~63ull;
        if (off > _params.bramBytes)
            fatal("%s: BRAM exhausted", name().c_str());
        return at;
    };
    // One controller + queue pair per bound SSD: adding a device
    // costs one more disaggregate controller, not a redesign.
    std::vector<SsdBinding> ssds;
    ssds.push_back({cfg.ssdBar0, cfg.ssdQid, cfg.ssdQdepth});
    for (const auto &b : cfg.extraSsds)
        ssds.push_back(b);
    // PRP slots must hold one entry per 4 KiB page of a chunk.
    const std::uint64_t prp_slot =
        ((_params.chunkSize / 4096) * 8 + 63) & ~63ull;
    bramNvme.clear();
    for (const auto &b : ssds) {
        NvmeBramLayout l;
        l.sq = take(std::uint64_t(b.qdepth) * 64);
        l.cq = take(std::uint64_t(b.qdepth) * 16);
        l.prp = take(std::uint64_t(b.qdepth) * prp_slot);
        bramNvme.push_back(l);
    }
    bramNicSend =
        take(std::uint64_t(cfg.nicRingEntries) * sizeof(nic::SendDesc));
    bramNicSendCpl =
        take(std::uint64_t(cfg.nicRingEntries) * sizeof(nic::CplEntry));
    bramNicRecv =
        take(std::uint64_t(cfg.nicRingEntries) * sizeof(nic::RecvDesc));
    bramNicRecvCpl =
        take(std::uint64_t(cfg.nicRingEntries) * sizeof(nic::CplEntry));
    bramNicHdr = take(std::uint64_t(cfg.nicRingEntries) * 64);

    // DRAM: receive-frame arena at the bottom, 64 KiB intermediate
    // buffers above it.
    dramRecvArena = 0;
    const std::uint64_t arena_bytes =
        std::uint64_t(_params.recvArenaFrames) * _params.recvBufSize;
    const std::uint64_t buf_base =
        (arena_bytes + _params.chunkSize - 1) & ~(_params.chunkSize - 1);
    bufAlloc = std::make_unique<ChunkAllocator>(
        AddrRange{buf_base, _params.dramBytes - buf_base},
        _params.chunkSize);

    _nvme.clear();
    int total_ssd_slots = 0;
    for (std::size_t i = 0; i < ssds.size(); ++i) {
        auto ctrl =
            std::make_unique<HdcNvmeController>(*this, _params.timing);
        ctrl->configure(ssds[i].bar0, ssds[i].qid, ssds[i].qdepth,
                        bramNvme[i].sq, bramNvme[i].cq, bramNvme[i].prp,
                        prp_slot);
        ctrl->onComplete = [this](std::uint32_t id) {
            entryCompleted(id, 0);
        };
        total_ssd_slots += std::max<int>(1, ssds[i].qdepth - 2);
        _nvme.push_back(std::move(ctrl));
    }
    _nic->configure(cfg.nicBar0, cfg.nicRingEntries, bramNicSend,
                    bramNicSendCpl, bramNicRecv, bramNicRecvCpl,
                    bramNicHdr, dramRecvArena, _params.recvBufSize,
                    cfg.mss);

    _scoreboard->registerController(
        DevClass::SsdCtrl,
        [this](const Entry &e) {
            // Entry::aux carries the SSD index for storage commands.
            _nvme.at(static_cast<std::size_t>(e.aux))->issue(e);
        },
        total_ssd_slots);
    _scoreboard->registerController(
        DevClass::NicCtrl,
        [this](const Entry &e) { _nic->issueSend(e); },
        std::max<int>(1, static_cast<int>(cfg.nicRingEntries) - 2));
    _scoreboard->registerController(
        DevClass::NdpUnit, [this](const Entry &e) { _ndp->issue(e); }, 64);
    _scoreboard->registerController(
        DevClass::Gather,
        [this](const Entry &e) { _nic->issueGather(e); }, 4096);

    devicesConfigured = true;
}

void
HdcEngine::startNicRx()
{
    _nic->startRx();
}

void
HdcEngine::registerConnection(std::uint32_t conn_id, net::FlowInfo out,
                              std::uint32_t next_rx_seq)
{
    _nic->registerConnection(conn_id, out, next_rx_seq);
}

Addr
HdcEngine::nvmeSqBus(std::size_t ssd_idx) const
{
    return bramBus(bramNvme.at(ssd_idx).sq);
}

Addr
HdcEngine::nvmeCqBus(std::size_t ssd_idx) const
{
    return bramBus(bramNvme.at(ssd_idx).cq);
}

Addr
HdcEngine::nicSendRingBus() const
{
    return bramBus(bramNicSend);
}

Addr
HdcEngine::nicSendCplBus() const
{
    return bramBus(bramNicSendCpl);
}

Addr
HdcEngine::nicRecvRingBus() const
{
    return bramBus(bramNicRecv);
}

Addr
HdcEngine::nicRecvCplBus() const
{
    return bramBus(bramNicRecvCpl);
}

Addr
HdcEngine::cmdSlotBus(std::uint32_t idx) const
{
    return _bar + cmdQueueOff + (idx % cmdQueueEntries) * sizeof(D2dCommand);
}

Addr
HdcEngine::resultSlotBus(std::uint32_t cmd_id) const
{
    return _bar + resultOff + cmdSlot(cmd_id) * resultSlotSize;
}

void
HdcEngine::engDmaRead(Addr a, std::uint64_t n,
                      std::function<void(BufChain)> done)
{
    dmaRead(a, n, std::move(done));
}

void
HdcEngine::engDmaWrite(Addr a, BufChain d, std::function<void()> done)
{
    dmaWrite(a, std::move(d), std::move(done));
}

void
HdcEngine::engMmioWrite(Addr a, std::uint64_t v, unsigned size)
{
    mmioWrite(a, v, size);
}

void
HdcEngine::busWriteBulk(Addr addr, const BufChain &data)
{
    const std::uint64_t off = addr - _bar;
    if (off >= dramOff) {
        _dram.adopt(off - dramOff, data);
        return;
    }
    // Registers, command queue and BRAM keep the contiguous delivery
    // (controllers react to whole-write extents there).
    pcie::Device::busWriteBulk(addr, data);
}

BufChain
HdcEngine::busReadBulk(Addr addr, std::uint64_t len)
{
    const std::uint64_t off = addr - _bar;
    if (off >= dramOff)
        return _dram.borrow(off - dramOff, len);
    return pcie::Device::busReadBulk(addr, len);
}

void
HdcEngine::busWrite(Addr addr, std::span<const std::uint8_t> data)
{
    const std::uint64_t off = addr - _bar;

    if (off >= dramOff) {
        _dram.write(off - dramOff, data.data(), data.size());
        return;
    }
    if (off >= bramOff && off < bramOff + _params.bramBytes) {
        const std::uint64_t boff = off - bramOff;
        _bram.write(boff, data.data(), data.size());
        // Completion rings live here: let the controllers react.
        for (auto &ctrl : _nvme)
            ctrl->onBramWrite(boff, data.size());
        _nic->onBramWrite(boff, data.size());
        return;
    }
    if (off >= cmdQueueOff &&
        off < cmdQueueOff + cmdQueueEntries * sizeof(D2dCommand)) {
        // Host writes D2D commands directly into queue slots.
        const std::uint64_t qoff = off - cmdQueueOff;
        if (qoff + data.size() > cmdQueueEntries * sizeof(D2dCommand))
            panic("%s: command write overruns queue", name().c_str());
        std::memcpy(cmdqRaw.data() + qoff, data.data(), data.size());
        return;
    }
    if (off == regDoorbell) {
        std::uint32_t v = 0;
        std::memcpy(&v, data.data(), std::min<std::size_t>(4, data.size()));
        cmdTail = v;
        pumpCmdQueue();
        return;
    }
    panic("%s: write to unmapped engine offset 0x%llx", name().c_str(),
          (unsigned long long)off);
}

void
HdcEngine::busRead(Addr addr, std::span<std::uint8_t> data)
{
    const std::uint64_t off = addr - _bar;
    if (off >= dramOff) {
        _dram.read(off - dramOff, data.data(), data.size());
        return;
    }
    if (off >= bramOff && off < bramOff + _params.bramBytes) {
        _bram.read(off - bramOff, data.data(), data.size());
        return;
    }
    if (off >= resultOff &&
        off < resultOff + cmdQueueEntries * resultSlotSize) {
        results.read(off - resultOff, data.data(), data.size());
        return;
    }
    if (off >= cplRingOff && off < cplRingOff + cplRingRaw.size()) {
        const std::uint64_t roff = off - cplRingOff;
        const std::size_t n =
            std::min<std::size_t>(data.size(), cplRingRaw.size() - roff);
        std::memcpy(data.data(), cplRingRaw.data() + roff, n);
        return;
    }
    if (off == regDoorbell) {
        std::memcpy(data.data(), &cmdTail,
                    std::min<std::size_t>(4, data.size()));
        return;
    }
    panic("%s: read from unmapped engine offset 0x%llx", name().c_str(),
          (unsigned long long)off);
}

void
HdcEngine::pumpCmdQueue()
{
    if (parserBusy || cmdParsed == cmdTail)
        return;
    if (!devicesConfigured)
        panic("%s: command before configureDevices", name().c_str());
    parserBusy = true;
    const Tick parse_cost = _params.timing.cycles(_params.timing.cmdParseCycles);
    schedule(parse_cost, [this, parse_cost] {
        D2dCommand cmd;
        std::memcpy(&cmd,
                    cmdqRaw.data() + (cmdParsed % cmdQueueEntries) *
                                         sizeof(D2dCommand),
                    sizeof(cmd));
        ++cmdParsed;
        TRACE_SPAN_LANE(tracer(), now() - parse_cost, parse_cost, name(),
                        "parse",
                        tracer().flowOf(trace::key(name(), cmd.id)));
        processCommand(cmd);
        parserBusy = false;
        pumpCmdQueue();
    });
}

bool
HdcEngine::admitCommand(const D2dCommand &cmd) const
{
    if (_params.maxActiveCmds && activeCount >= _params.maxActiveCmds)
        return false;
    // Worst-case entry estimate: per chunk, one SSD run per 4 KiB
    // page on each side plus an NDP stage and a send. Deliberately
    // conservative — admission must never let addEntry trip the
    // scoreboard's live bound.
    const std::uint64_t chunk = _params.chunkSize;
    const std::uint64_t len = std::max<std::uint64_t>(cmd.len, 1);
    const std::uint64_t nchunks = (len + chunk - 1) / chunk;
    const std::uint64_t per_chunk = 2 * (chunk / 4096) + 2;
    return _scoreboard->hasCapacity(nchunks * per_chunk);
}

HdcEngine::CmdRecord *
HdcEngine::findActive(std::uint32_t cmd_id)
{
    CmdRecord &rec = cmdPool[cmdSlot(cmd_id)];
    return (rec.inUse && rec.cmd.id == cmd_id) ? &rec : nullptr;
}

HdcEngine::CmdRecord &
HdcEngine::requireActive(std::uint32_t cmd_id, const char *what)
{
    CmdRecord *rec = findActive(cmd_id);
    if (!rec)
        panic("%s: %s for unknown command %u", name().c_str(), what,
              cmd_id);
    return *rec;
}

HdcEngine::CmdRecord &
HdcEngine::claimRecord(const D2dCommand &cmd)
{
    CmdRecord &rec = cmdPool[cmdSlot(cmd.id)];
    if (rec.inUse)
        panic("%s: command pool slot collision: %u vs live %u",
              name().c_str(), cmd.id, rec.cmd.id);
    rec.cmd = cmd;
    rec.srcExt.clear();
    rec.dstExt.clear();
    rec.aux.clear();
    rec.inUse = true;
    rec.done = false;
    rec.ownedChunks.clear();
    rec.flow = 0;
    rec.lenInherit.clear();
    rec.freeOnComplete.clear();
    ++activeCount;
    return rec;
}

void
HdcEngine::releaseRecord(CmdRecord &rec)
{
    DCS_INVARIANT(rec.inUse, "releasing a free command record");
    rec.inUse = false;
    DCS_CHECK_GT(activeCount, std::size_t{0},
                 "command pool underflow");
    --activeCount;
}

void
HdcEngine::processCommand(const D2dCommand &cmd)
{
    if (findActive(cmd.id))
        panic("%s: duplicate D2D command id %u", name().c_str(), cmd.id);
    if (!admitCommand(cmd)) {
        // 429: the command never enters the active set or the
        // in-order completion queue — a NACK is not a completion, so
        // it cannot head-of-line-block admitted commands.
        ++_cmdRejects;
        _scoreboard->noteReject();
        const std::uint64_t rflow =
            tracer().flowOf(trace::key(name(), cmd.id));
        TRACE_FLOW(tracer(), now(), name(), "admission_reject", rflow);
        schedule(_params.timing.cycles(_params.timing.irqGenCycles),
                 [this, id = cmd.id, rflow] {
                     notifyCompletion(id, rflow, true);
                 });
        return;
    }
    CmdRecord &ac = claimRecord(cmd);
    // Recover the request's flow id from the driver-side binding (the
    // 64-byte wire command cannot carry it) and open the command's
    // lifetime span: parse done -> in-order retirement.
    ac.flow = tracer().flowOf(trace::key(name(), cmd.id));
    TRACE_SPAN_BEGIN(tracer(), now(), name(), "cmd", cmd.id, ac.flow);
    completionOrder.push_back(cmd.id);

    const std::uint32_t n_ext = cmd.srcExtents + cmd.dstExtents;
    auto after_ext = [this, id = cmd.id] {
        CmdRecord &a = requireActive(id, "extent continuation");
        if (a.cmd.auxLen > 0) {
            engDmaRead(a.cmd.auxAddr, a.cmd.auxLen,
                       [this, id](BufChain aux) {
                           CmdRecord &a2 =
                               requireActive(id, "aux continuation");
                           a2.aux.resize(aux.size());
                           aux.copyOut(a2.aux.data());
                           buildPipeline(a2);
                       });
        } else {
            buildPipeline(a);
        }
    };

    if (n_ext > 0) {
        engDmaRead(cmd.extListAddr, std::uint64_t(n_ext) * sizeof(ExtentRec),
                   [this, id = cmd.id, after_ext](BufChain chain) {
                       CmdRecord &a =
                           requireActive(id, "extent continuation");
                       const std::size_t src_bytes =
                           std::size_t(a.cmd.srcExtents) *
                           sizeof(ExtentRec);
                       const std::size_t dst_bytes =
                           std::size_t(a.cmd.dstExtents) *
                           sizeof(ExtentRec);
                       a.srcExt.resize(a.cmd.srcExtents);
                       a.dstExt.resize(a.cmd.dstExtents);
                       chain.copyOut(0, a.srcExt.data(), src_bytes);
                       chain.copyOut(src_bytes, a.dstExt.data(),
                                     dst_bytes);
                       after_ext();
                   });
    } else {
        // Contiguous shorthand: srcAddr/dstAddr carry the single run.
        if (static_cast<Endpoint>(cmd.srcDev) == Endpoint::Ssd)
            ac.srcExt.push_back(
                {cmd.srcAddr, (cmd.len + 4095) / 4096});
        if (static_cast<Endpoint>(cmd.dstDev) == Endpoint::Ssd)
            ac.dstExt.push_back(
                {cmd.dstAddr, (cmd.len + 4095) / 4096});
        after_ext();
    }
}

void
HdcEngine::extentRuns(const ExtentRec *ext, std::size_t n_ext,
                      std::uint64_t off, std::uint64_t len, RunVec &out)
{
    constexpr std::uint64_t bs = 4096;
    std::uint64_t skip = off / bs;
    std::uint64_t need = len;
    for (std::size_t i = 0; i < n_ext; ++i) {
        const ExtentRec &e = ext[i];
        if (need == 0)
            break;
        if (skip >= e.blocks) {
            skip -= e.blocks;
            continue;
        }
        const std::uint64_t avail_bytes = (e.blocks - skip) * bs;
        const std::uint64_t take = std::min(avail_bytes, need);
        out.push_back({e.lba + skip, take});
        skip = 0;
        need -= take;
    }
    if (need != 0)
        panic("hdc: extent list shorter than command length");
}

void
HdcEngine::buildPipeline(CmdRecord &ac)
{
    const D2dCommand &cmd = ac.cmd;
    const std::uint64_t flow = ac.flow;
    const auto src = static_cast<Endpoint>(cmd.srcDev);
    const auto dst = static_cast<Endpoint>(cmd.dstDev);
    const auto fn = static_cast<ndp::Function>(cmd.fn);
    const ndp::FunctionInfo &fn_info = ndp::functionInfo(fn);
    const bool passthru = fn_info.passThrough();
    const std::uint64_t chunk = _params.chunkSize;

    if (cmd.len == 0)
        panic("%s: zero-length D2D command", name().c_str());
    if (src == Endpoint::HdcBuffer && dst == Endpoint::HdcBuffer &&
        fn == ndp::Function::None)
        panic("%s: degenerate buffer-to-buffer copy", name().c_str());
    if (fn_info.variableLength && dst == Endpoint::Ssd)
        panic("%s: variable-length output to SSD is not supported",
              name().c_str());

    if (fn != ndp::Function::None)
        _ndp->beginCommand(cmd.id, fn, {ac.aux.data(), ac.aux.size()});

    std::uint32_t base_seq = 0;
    if (src == Endpoint::Nic)
        base_seq = _nic->reserveRxRange(
            static_cast<std::uint32_t>(cmd.srcAddr), cmd.len);

    const std::uint64_t nchunks = (cmd.len + chunk - 1) / chunk;
    std::uint32_t prev_ndp = 0;
    std::uint32_t prev_send = 0;
    std::uint32_t entry_count = 0;

    // TCP is a byte stream: sends on one connection must issue in
    // command order even across D2D commands, or the engine would
    // interleave two commands' payloads within the stream.
    if (dst == Endpoint::Nic) {
        const auto conn = static_cast<std::uint32_t>(cmd.dstAddr);
        const std::uint32_t *last = lastSendOnConn.find(conn);
        // Stale handles are expected: the previous command may have
        // retired long ago. The generation check in hasEntry makes a
        // recycled slot indistinguishable from "no predecessor".
        if (last && _scoreboard->hasEntry(*last))
            prev_send = *last;
    }

    auto alloc_chunk = [this, &ac]() -> std::uint64_t {
        auto a = bufAlloc->alloc();
        if (!a)
            fatal("%s: intermediate buffers exhausted", name().c_str());
        ac.ownedChunks.push_back(*a); // safety net freed at retire
        return *a;
    };

    SmallVec<std::uint32_t, 16> src_ids;
    RunVec runs;
    for (std::uint64_t i = 0; i < nchunks; ++i) {
        const std::uint64_t off = i * chunk;
        const std::uint64_t clen = std::min(chunk, cmd.len - off);
        std::array<std::uint64_t, 2> owned{};
        std::size_t n_owned = 0;

        // Input location in on-board DRAM.
        std::uint64_t loc_in;
        if (src == Endpoint::HdcBuffer) {
            loc_in = cmd.srcAddr + off;
        } else if (dst == Endpoint::HdcBuffer && passthru) {
            loc_in = cmd.dstAddr + off;
        } else {
            loc_in = alloc_chunk();
            owned[n_owned++] = loc_in;
        }

        // Output location.
        std::uint64_t loc_out;
        if (passthru) {
            loc_out = loc_in;
        } else if (dst == Endpoint::HdcBuffer) {
            loc_out = cmd.dstAddr + off;
        } else {
            loc_out = alloc_chunk();
            owned[n_owned++] = loc_out;
        }

        // --- Source device commands.
        src_ids.clear();
        if (src == Endpoint::Ssd) {
            std::uint64_t run_off = 0;
            runs.clear();
            extentRuns(ac.srcExt.data(), ac.srcExt.size(), off, clen,
                       runs);
            for (const Run &r : runs) {
                Entry e;
                e.cmdId = cmd.id;
                e.flow = flow;
                e.dev = DevClass::SsdCtrl;
                e.write = false;
                e.src = r.addr;
                e.dst = loc_in + run_off;
                e.len = r.len;
                e.aux = cmd.srcDevIdx;
                src_ids.push_back(_scoreboard->addEntry(e));
                run_off += r.len;
            }
        } else if (src == Endpoint::Nic) {
            Entry e;
            e.cmdId = cmd.id;
            e.flow = flow;
            e.dev = DevClass::Gather;
            e.src = base_seq + off;
            e.dst = loc_in;
            e.len = clen;
            e.aux = cmd.srcAddr; // connection id
            src_ids.push_back(_scoreboard->addEntry(e));
        }

        // --- NDP stage.
        std::uint32_t ndp_id = 0;
        if (fn != ndp::Function::None) {
            Entry e;
            e.cmdId = cmd.id;
            e.flow = flow;
            e.dev = DevClass::NdpUnit;
            e.src = loc_in;
            e.dst = loc_out;
            e.len = clen;
            e.fn = fn;
            e.aux = NdpAux{off, i == nchunks - 1}.pack();
            ndp_id = _scoreboard->addEntry(e);
            for (std::uint32_t s : src_ids)
                _scoreboard->addDependency(s, ndp_id);
            if (prev_ndp)
                _scoreboard->addDependency(prev_ndp, ndp_id);
            prev_ndp = ndp_id;
        }

        const std::uint32_t *data_ready =
            ndp_id ? &ndp_id : src_ids.data();
        const std::size_t n_ready = ndp_id ? 1 : src_ids.size();

        // --- Destination device commands.
        std::uint32_t last_op = ndp_id ? ndp_id
                                : (src_ids.empty() ? 0 : src_ids.back());
        std::uint32_t dst_entries = 0;
        if (dst == Endpoint::Nic) {
            Entry e;
            e.cmdId = cmd.id;
            e.flow = flow;
            e.dev = DevClass::NicCtrl;
            e.src = loc_out;
            e.len = clen;
            e.aux = cmd.dstAddr; // connection id
            const std::uint32_t send_id = _scoreboard->addEntry(e);
            for (std::size_t k = 0; k < n_ready; ++k)
                _scoreboard->addDependency(data_ready[k], send_id);
            if (prev_send)
                _scoreboard->addDependency(prev_send, send_id);
            prev_send = send_id;
            lastSendOnConn[static_cast<std::uint32_t>(cmd.dstAddr)] =
                send_id;
            last_op = send_id;
            dst_entries = 1;
            if (ndp_id && fn_info.variableLength)
                ac.lenInherit.push_back({ndp_id, send_id});
        } else if (dst == Endpoint::Ssd) {
            std::uint64_t run_off = 0;
            runs.clear();
            extentRuns(ac.dstExt.data(), ac.dstExt.size(), off, clen,
                       runs);
            for (const Run &r : runs) {
                Entry e;
                e.cmdId = cmd.id;
                e.flow = flow;
                e.dev = DevClass::SsdCtrl;
                e.write = true;
                e.src = loc_out + run_off;
                e.dst = r.addr;
                e.len = r.len;
                e.aux = cmd.dstDevIdx;
                const std::uint32_t wid = _scoreboard->addEntry(e);
                for (std::size_t k = 0; k < n_ready; ++k)
                    _scoreboard->addDependency(data_ready[k], wid);
                last_op = wid;
                run_off += r.len;
                ++dst_entries;
            }
        }

        if (last_op == 0)
            panic("%s: pipeline chunk with no operations", name().c_str());
        for (std::size_t k = 0; k < n_owned; ++k) {
            // Ownership transferred to the completion hook.
            ac.freeOnComplete.push_back({last_op, owned[k]});
            ac.ownedChunks.eraseValue(owned[k]);
        }
        entry_count += static_cast<std::uint32_t>(src_ids.size()) +
                       (ndp_id ? 1 : 0) + dst_entries;
    }

    _scoreboard->declareCommand(cmd.id, entry_count);
    _scoreboard->arm();
}

void
HdcEngine::entryCompleted(std::uint32_t entry_id, std::uint64_t out_len)
{
    // The entry is still live (complete() retires it below), so its
    // owning command record is reachable through the scoreboard.
    CmdRecord &rec =
        requireActive(_scoreboard->cmdOf(entry_id), "entry completion");
    if (out_len > 0 && !rec.lenInherit.empty()) {
        std::size_t out = 0;
        for (std::size_t i = 0; i < rec.lenInherit.size(); ++i) {
            const LenInheritRec &li = rec.lenInherit[i];
            if (li.ndpEntry == entry_id)
                _scoreboard->setEntryLen(li.sendEntry, out_len);
            else
                rec.lenInherit[out++] = li;
        }
        rec.lenInherit.resize(out);
    }
    if (!rec.freeOnComplete.empty()) {
        std::size_t out = 0;
        for (std::size_t i = 0; i < rec.freeOnComplete.size(); ++i) {
            const FreeRec &fr = rec.freeOnComplete[i];
            if (fr.entry == entry_id)
                bufAlloc->free(fr.chunk);
            else
                rec.freeOnComplete[out++] = fr;
        }
        rec.freeOnComplete.resize(out);
    }
    _scoreboard->complete(entry_id);
}

void
HdcEngine::writeResult(std::uint32_t cmd_id,
                       std::span<const std::uint8_t> digest)
{
    const std::uint64_t slot = cmdSlot(cmd_id) * resultSlotSize;
    const std::uint32_t status = 1;
    const auto len = static_cast<std::uint32_t>(digest.size());
    results.write(slot, &status, 4);
    results.write(slot + 4, &len, 4);
    if (!digest.empty())
        results.write(slot + 8, digest.data(),
                      std::min<std::size_t>(digest.size(),
                                            resultSlotSize - 8));
}

void
HdcEngine::commandFinished(std::uint32_t cmd_id)
{
    CmdRecord &rec = requireActive(cmd_id, "finish");
    rec.done = true;
    drainCompletions();
}

void
HdcEngine::drainCompletions()
{
    // Completions are reported to the driver in request order
    // (paper §IV-C: "issues D2D commands in a requested order and
    // notifies HDC Driver of their completions in the same order").
    // With inOrderCompletion disabled, any finished command may be
    // retired (ablation of the head-of-line blocking).
    while (!completionOrder.empty()) {
        std::size_t pick = 0;
        if (!devCfg.inOrderCompletion) {
            std::size_t i = 0;
            for (; i < completionOrder.size(); ++i) {
                const CmdRecord *r = findActive(completionOrder[i]);
                if (r && r->done)
                    break;
            }
            if (i == completionOrder.size())
                break;
            pick = i;
        }
        const std::uint32_t front = completionOrder[pick];
        CmdRecord *rec = findActive(front);
        if (!rec)
            panic("%s: completion order references unknown cmd",
                  name().c_str());
        if (!rec->done)
            break;
        completionOrder.erase(pick);

        const std::uint64_t flow = rec->flow;
        TRACE_SPAN_END(tracer(), now(), name(), "cmd", front);

        // Release any safety-net buffers still owned by the command.
        for (std::uint64_t off : rec->ownedChunks)
            bufAlloc->free(off);
        if (static_cast<ndp::Function>(rec->cmd.fn) !=
            ndp::Function::None)
            _ndp->endCommand(front);
        releaseRecord(*rec);
        ++_cmdsDone;

        schedule(_params.timing.cycles(_params.timing.irqGenCycles),
                 [this, front, flow] {
                     notifyCompletion(front, flow, false);
                 });
    }
}

void
HdcEngine::notifyCompletion(std::uint32_t cmd_id, std::uint64_t flow,
                            bool rejected)
{
    const std::uint32_t value = rejected ? (cplNackBit | cmd_id) : cmd_id;
    if (_params.msiCoalesce == 0) {
        // Legacy per-completion interrupt, preserved bit-for-bit.
        ++_irqs;
        if (msiAddr == 0)
            panic("%s: completion with no MSI target", name().c_str());
        TRACE_FLOW(tracer(), now(), name(), "msi_raised", flow);
        engMmioWrite(msiAddr, value, 4);
        return;
    }
    // Coalesced: park the id in the BAR completion ring; one MSI
    // covers every pending entry once the window fills or the holdoff
    // expires. The driver holds each command's slot until its entry is
    // drained, so undelivered entries stay below the ring size.
    std::memcpy(cplRingRaw.data() +
                    (cplProduced % cmdQueueEntries) * 4,
                &value, 4);
    ++cplProduced;
    ++cplPending;
    TRACE_FLOW(tracer(), now(), name(), "cpl_queued", flow);
    if (cplPending >= _params.msiCoalesce) {
        flushMsi();
        return;
    }
    if (!msiTimerArmed) {
        msiTimerArmed = true;
        schedule(_params.msiHoldoff, [this] {
            msiTimerArmed = false;
            // May fire with nothing pending (a threshold flush beat
            // it): stay silent rather than raise an empty interrupt.
            flushMsi();
        });
    }
}

void
HdcEngine::flushMsi()
{
    if (cplPending == 0)
        return;
    cplPending = 0;
    ++_irqs;
    if (msiAddr == 0)
        panic("%s: completion with no MSI target", name().c_str());
    TRACE_FLOW(tracer(), now(), name(), "msi_raised", 0);
    engMmioWrite(msiAddr, cplProduced, 4);
}

bool
HdcEngine::quiescent() const
{
    bool idle = activeCount == 0 && completionOrder.empty() &&
                _scoreboard->quiescent();
    if (_ndp)
        idle = idle && _ndp->activeStreams() == 0;
    for (const auto &ctrl : _nvme)
        idle = idle && ctrl->inflightCount() == 0 &&
               ctrl->backlogDepth() == 0;
    if (_nic)
        idle = idle && _nic->sendsInflight() == 0;
    if (bufAlloc)
        idle = idle && bufAlloc->usedChunks() == 0;
    return idle;
}

bool
HdcEngine::checkQuiesce() const
{
    DCS_CHECK_EQ(activeCount, std::size_t{0},
                 "command-pool slots leaked at quiesce");
    DCS_CHECK_EQ(completionOrder.size(), std::size_t{0},
                 "in-order completion queue not drained at quiesce");
    _scoreboard->checkQuiesce();
    if (_ndp)
        DCS_CHECK_EQ(_ndp->activeStreams(), std::size_t{0},
                     "NDP streams leaked at quiesce");
    for (const auto &ctrl : _nvme) {
        DCS_CHECK_EQ(ctrl->inflightCount(), std::size_t{0},
                     "NVMe commands inflight at quiesce");
        DCS_CHECK_EQ(ctrl->backlogDepth(), std::size_t{0},
                     "NVMe backlog not drained at quiesce");
    }
    if (_nic)
        DCS_CHECK_EQ(_nic->sendsInflight(), std::size_t{0},
                     "NIC sends inflight at quiesce");
    if (bufAlloc)
        DCS_CHECK_EQ(bufAlloc->usedChunks(), std::size_t{0},
                     "DRAM buffer chunks leaked at quiesce");
    return quiescent();
}

std::uint64_t
HdcEngine::doorbellWrites() const
{
    std::uint64_t n = 0;
    for (const auto &ctrl : _nvme)
        n += ctrl->doorbellWrites();
    if (_nic)
        n += _nic->doorbellWrites();
    return n;
}

} // namespace hdc
} // namespace dcs
