#include "hdclib/hdc_driver.hh"

#include <algorithm>
#include <cstring>

#include "nic/nic.hh"
#include "sim/logging.hh"

namespace dcs {
namespace hdclib {

using host::CpuCat;
using host::LatComp;

HdcDriver::HdcDriver(EventQueue &eq, host::Host &host,
                     hdc::HdcEngine &engine,
                     host::NvmeHostDriver &nvme_driver, host::ExtentFs &fs,
                     host::TcpStack &tcp)
    : SimObject(eq, host.name() + ".hdcdrv"), host(host), engine(engine),
      nvmeDriver(nvme_driver), fs(fs), tcp(tcp)
{
    setDoorbellBatch(0, 0);
    statsGroup().addCounter("submitted", submitted,
                            "D2D commands submitted");
    statsGroup().addCounter("rejected_local", _localRejects,
                            "submissions 429ed at the full driver queue");
    statsGroup().addValue(
        "doorbell_writes",
        [this] { return static_cast<double>(dbBatch.mmioWrites()); },
        "engine command-queue doorbell MMIO writes");
}

void
HdcDriver::setDoorbellBatch(std::uint32_t max, Tick holdoff)
{
    dbBatch.configure(
        max, holdoff,
        [this](std::uint32_t id, std::uint64_t flow) {
            host.fabric().memWriteScalar(host.bridge(),
                                         engine.doorbellBus(), id, 4, {});
            TRACE_FLOW(tracer(), now(), name(), "doorbell", flow);
        },
        [this](Tick d, std::function<void()> fn) {
            schedule(d, std::move(fn));
        });
}

int
HdcDriver::addSsd(host::NvmeHostDriver &driver, host::ExtentFs &fs_ref,
                  Addr bar0)
{
    if (_ready)
        panic("%s: addSsd after init", name().c_str());
    extraSsds.push_back({&driver, &fs_ref, bar0});
    return static_cast<int>(extraSsds.size());
}

host::ExtentFs &
HdcDriver::fsOf(std::uint8_t ssd_idx)
{
    if (ssd_idx == 0)
        return fs;
    return *extraSsds.at(ssd_idx - 1).fs;
}

void
HdcDriver::init(Addr ssd_bar0, Addr nic_bar0, std::function<void()> done)
{
    extArena = host.allocDma(hdc::cmdQueueEntries * 4096);
    auxArena = host.allocDma(hdc::cmdQueueEntries * 256);

    hdc::HdcDeviceConfig cfg;
    cfg.ssdBar0 = ssd_bar0;
    cfg.nicBar0 = nic_bar0;
    for (const auto &x : extraSsds)
        cfg.extraSsds.push_back({x.bar0, 2, 64});
    engine.configureDevices(cfg);

    // Route the engine's completion interrupt.
    const std::uint16_t vec = host.allocMsiVector();
    host.bridge().registerMsi(vec,
                              [this](std::uint16_t, std::uint32_t value) {
                                  onMsi(value);
                              });
    engine.setMsiAddress(host.bridge().msiAddr(vec));

    // Hand the NIC's rings to the engine (MMIO writes): ring bases in
    // engine BRAM, receive buffers in engine DRAM, no MSIs — the
    // engine reacts to completion writes directly.
    auto &fab = host.fabric();
    auto &br = host.bridge();
    // Register programming rides in scalar TLPs — no per-write
    // payload vectors.
    auto w32 = [&](Addr a, std::uint32_t v) {
        fab.memWriteScalar(br, a, v, 4, {});
    };
    auto w64 = [&](Addr a, std::uint64_t v) {
        fab.memWriteScalar(br, a, v, 8, {});
    };
    const hdc::HdcDeviceConfig &c = cfg;
    w64(nic_bar0 + nic::reg::sendRingBase, engine.nicSendRingBus());
    w32(nic_bar0 + nic::reg::sendRingSize, c.nicRingEntries);
    w64(nic_bar0 + nic::reg::sendCplBase, engine.nicSendCplBus());
    w64(nic_bar0 + nic::reg::recvRingBase, engine.nicRecvRingBus());
    w32(nic_bar0 + nic::reg::recvRingSize, c.nicRingEntries);
    w64(nic_bar0 + nic::reg::recvCplBase, engine.nicRecvCplBus());
    w64(nic_bar0 + nic::reg::msiSendAddr, 0);
    // The last register write carries a completion callback so RX
    // only starts once the NIC knows where its rings live.
    fab.memWriteScalar(br, nic_bar0 + nic::reg::msiRecvAddr, 0, 8,
                       [this] { engine.startNicRx(); });

    // Dedicate the NVMe queue pairs living in engine BRAM — one per
    // bound SSD, each created through that SSD's own host driver.
    // The stored body must not capture its own shared_ptr — that cycle
    // would keep the chain alive forever. The pending continuations
    // hold the strong reference instead.
    auto create_next = std::make_shared<std::function<void(std::size_t)>>();
    *create_next = [this, cfg, done = std::move(done),
                    weak = std::weak_ptr(create_next)](std::size_t idx) mutable {
        if (idx > extraSsds.size()) {
            _ready = true;
            if (done)
                done();
            return;
        }
        host::NvmeHostDriver &drv =
            idx == 0 ? nvmeDriver : *extraSsds[idx - 1].driver;
        drv.createDedicatedQueuePair(
            cfg.ssdQid, cfg.ssdQdepth, engine.nvmeSqBus(idx),
            engine.nvmeCqBus(idx),
            [create_next = weak.lock(), idx] { (*create_next)(idx + 1); });
    };
    (*create_next)(0);
}

int
HdcDriver::attachConnection(int sock_fd)
{
    auto it = connOfFd.find(sock_fd);
    if (it != connOfFd.end())
        return static_cast<int>(it->second);
    host::Connection *conn = tcp.findByFd(sock_fd);
    if (!conn || !conn->permitted)
        return -1;
    const std::uint32_t id = nextConnId++;
    connOfFd[sock_fd] = id;
    engine.registerConnection(id, conn->out, conn->nextRxSeq);
    return static_cast<int>(id);
}

std::uint32_t
HdcDriver::stageExtents(const D2dRequest &req, hdc::D2dCommand &cmd)
{
    // Resolve file endpoints into extent lists and stage them in the
    // DMA arena for the engine to fetch.
    std::vector<hdc::ExtentRec> recs;
    auto add = [&](host::ExtentFs &f, int fd, std::uint64_t offset,
                   std::uint32_t &count) {
        const auto extents = f.resolve(fd, offset, req.len);
        count = static_cast<std::uint32_t>(extents.size());
        for (const auto &e : extents)
            recs.push_back({e.lba, e.blocks});
    };
    if (req.src == hdc::Endpoint::Ssd)
        add(fsOf(req.srcSsd), req.srcFd, req.srcOffset, cmd.srcExtents);
    if (req.dst == hdc::Endpoint::Ssd)
        add(fsOf(req.dstSsd), req.dstFd, req.dstOffset, cmd.dstExtents);
    if (recs.empty())
        return 0;
    if (recs.size() * sizeof(hdc::ExtentRec) > 4096)
        fatal("hdcdrv: extent list exceeds staging slot (too fragmented)");
    const Addr slot = extArena + std::uint64_t(hdc::cmdSlot(cmd.id)) * 4096;
    host.dram().write(host.dramOffset(slot), recs.data(),
                      recs.size() * sizeof(hdc::ExtentRec));
    cmd.extListAddr = slot;
    return static_cast<std::uint32_t>(recs.size());
}

void
HdcDriver::submit(const D2dRequest &req, host::TracePtr trace,
                  std::function<void(const D2dResult &)> done)
{
    if (!_ready)
        panic("%s: submit before init", name().c_str());
    if (liveSlots >= maxOutstanding) {
        if (rejectOnFull) {
            // Load-generator posture: 429 instead of a panic. The
            // command never reaches the engine, so no queue slot, no
            // doorbell, no MSI.
            ++_localRejects;
            schedule(0, [done = std::move(done)] {
                D2dResult r;
                r.status = 429;
                if (done)
                    done(r);
            });
            return;
        }
        panic("%s: command queue oversubscribed (%u outstanding)",
              name().c_str(), liveSlots);
    }

    const Tick t0 = now();
    // Page-cache flush re-entry re-begins the same key: the span then
    // covers only the post-flush submission, which is what the
    // flush's own spans leave uncovered.
    TRACE_SPAN_BEGIN(tracer(), t0, name(), "submit", req.traceFlow,
                     req.traceFlow);

    // Security model: validate descriptor permissions up front.
    if (req.src == hdc::Endpoint::Ssd) {
        host::ExtentFs &f = fsOf(req.srcSsd);
        if (!f.isOpen(req.srcFd) || !f.inode(req.srcFd).readable)
            fatal("hdcdrv: source file descriptor not readable");
    }
    if (req.dst == hdc::Endpoint::Ssd) {
        host::ExtentFs &f = fsOf(req.dstSsd);
        if (!f.isOpen(req.dstFd) || !f.inode(req.dstFd).writable)
            fatal("hdcdrv: destination file descriptor not writable");
    }

    // Data consistency (§IV-B): if the source file's latest bytes sit
    // in page cache, write them back before the engine reads flash.
    if (pageCache && req.src == hdc::Endpoint::Ssd && req.srcSsd == 0 &&
        pageCache->dirty(req.srcFd)) {
        pageCache->flush(req.srcFd, trace,
                         [this, req, trace,
                          done = std::move(done)]() mutable {
                             submit(req, trace, std::move(done));
                         });
        return;
    }

    // Claim the command's slot: the next id whose slot is free. Ids
    // skip slots still held by older commands.
    while (slots[hdc::cmdSlot(nextCmdId)].live)
        ++nextCmdId;
    const std::uint32_t id = nextCmdId++;
    slots[hdc::cmdSlot(id)] = Pending{true, false, id, trace, std::move(done),
                                      req.wantDigest, 0, req.traceFlow};
    ++liveSlots;

    // Metadata retrieval: VFS extent lookup for file endpoints
    // (also covers the page-cache consistency check, §IV-B).
    const bool touches_fs =
        req.src == hdc::Endpoint::Ssd || req.dst == hdc::Endpoint::Ssd;
    const Tick meta_cost =
        touches_fs ? host.costs().vfsLookup : nanoseconds(200);

    host.cpu().run(CpuCat::FileSystem, meta_cost, [this, req, trace, t0,
                                                   id] {
        if (trace)
            trace->add(LatComp::FileSystem, now() - t0);
        const Tick t1 = now();

        hdc::D2dCommand cmd{};
        cmd.id = id;
        cmd.srcDev = static_cast<std::uint8_t>(req.src);
        cmd.dstDev = static_cast<std::uint8_t>(req.dst);
        cmd.fn = static_cast<std::uint8_t>(req.fn);
        cmd.flags = req.wantDigest ? hdc::d2dflags::wantDigest : 0;
        cmd.len = req.len;
        cmd.srcDevIdx = req.srcSsd;
        cmd.dstDevIdx = req.dstSsd;

        switch (req.src) {
          case hdc::Endpoint::Nic: {
            const int cid = attachConnection(req.srcFd);
            if (cid < 0)
                fatal("hdcdrv: source socket not attachable");
            cmd.srcAddr = static_cast<std::uint64_t>(cid);
            break;
          }
          case hdc::Endpoint::HdcBuffer:
            cmd.srcAddr = req.srcBufOff;
            break;
          case hdc::Endpoint::Ssd:
          case hdc::Endpoint::HostMem:
            // Addressed through the staged extent list below.
            break;
          default:
            fatal("hdcdrv: invalid source endpoint %d",
                  static_cast<int>(req.src));
        }
        switch (req.dst) {
          case hdc::Endpoint::Nic: {
            const int cid = attachConnection(req.dstFd);
            if (cid < 0)
                fatal("hdcdrv: destination socket not attachable");
            cmd.dstAddr = static_cast<std::uint64_t>(cid);
            break;
          }
          case hdc::Endpoint::HdcBuffer:
            cmd.dstAddr = req.dstBufOff;
            break;
          case hdc::Endpoint::Ssd:
          case hdc::Endpoint::HostMem:
            // Addressed through the staged extent list below.
            break;
          default:
            fatal("hdcdrv: invalid destination endpoint %d",
                  static_cast<int>(req.dst));
        }

        stageExtents(req, cmd);

        if (!req.aux.empty()) {
            const Addr slot =
                auxArena + std::uint64_t(hdc::cmdSlot(id)) * 256;
            host.dram().write(host.dramOffset(slot), req.aux.data(),
                              req.aux.size());
            cmd.auxAddr = slot;
            cmd.auxLen = static_cast<std::uint32_t>(req.aux.size());
        }

        // The wire command has no room for the flow id: bind it in
        // the tracer so the engine can recover it from cmd.id.
        if (req.traceFlow != 0)
            tracer().bindFlow(trace::key(engine.name(), cmd.id),
                              req.traceFlow);

        slots[hdc::cmdSlot(id)].submitTick = now();
        ++submitted;

        // Driver submit: build + forward the command (one 64-byte
        // posted MMIO write) and ring the doorbell.
        host.cpu().run(CpuCat::HdcDriver, host.costs().hdcSubmit,
                       [this, cmd, trace, t1, flow = req.traceFlow] {
                           if (trace)
                               trace->add(LatComp::DeviceControl,
                                          now() - t1);
                           std::vector<std::uint8_t> raw(sizeof(cmd));
                           std::memcpy(raw.data(), &cmd, sizeof(cmd));
                           host.fabric().memWrite(host.bridge(),
                                                  engine.cmdSlotBus(
                                                      cmdRingTail++),
                                                  std::move(raw), {});
                           // Attribution boundary: the doorbell value
                           // is posted here; the batcher's "doorbell"
                           // instant marks the actual MMIO write, so
                           // the gap is the batch-holdoff stage.
                           TRACE_FLOW(tracer(), now(), name(),
                                      "db_post", flow);
                           dbBatch.post(cmdRingTail, flow);
                           TRACE_SPAN_END(tracer(), now(), name(),
                                          "submit", flow);
                       });
    });
}

void
HdcDriver::onMsi(std::uint32_t value)
{
    const Tick t_irq = now();
    if (engine.params().msiCoalesce != 0) {
        // Coalesced mode: the MSI's value is the completion ring's
        // producer count; one interrupt covers a whole batch.
        host.cpu().run(CpuCat::Interrupt, host.costs().irqEntry,
                       [this, value, t_irq] {
                           drainCplRing(value, t_irq);
                       });
        return;
    }
    // Per-command mode: the value is the command id (bit 31 = NACK).
    host.cpu().run(CpuCat::Interrupt, host.costs().irqEntry,
                   [this, value, t_irq] {
                       finishCommand(value & ~hdc::HdcEngine::cplNackBit,
                                     (value & hdc::HdcEngine::cplNackBit) !=
                                         0,
                                     t_irq);
                   });
}

void
HdcDriver::drainCplRing(std::uint32_t produced, Tick t_irq)
{
    // Holdoff timers can fire after a threshold flush already raised
    // the MSI for the same entries; the counter comparison makes the
    // duplicate a no-op.
    if (static_cast<std::int32_t>(produced - cplConsumed) <= 0)
        return;
    const std::uint32_t span = produced - cplConsumed;
    if (span > hdc::cmdQueueEntries)
        panic("%s: completion ring overrun (%u entries behind)",
              name().c_str(), span);
    const std::uint32_t start = cplConsumed % hdc::cmdQueueEntries;
    cplConsumed = produced;

    // The window may wrap the ring: at most two contiguous bulk reads
    // replace per-command MSIs — that is the point of coalescing.
    const std::uint32_t first = std::min(span, hdc::cmdQueueEntries - start);
    const Addr ring = engine.bar() + hdc::HdcEngine::cplRingOff;
    auto handle = [this, t_irq](const BufChain &raw, std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t value = 0;
            raw.copyOut(std::uint64_t(i) * 4, &value, 4);
            finishCommand(value & ~hdc::HdcEngine::cplNackBit,
                          (value & hdc::HdcEngine::cplNackBit) != 0, t_irq);
        }
    };
    host.fabric().memRead(host.bridge(), ring + std::uint64_t(start) * 4,
                          std::uint64_t(first) * 4,
                          [handle, first](BufChain raw) {
                              handle(raw, first);
                          });
    if (span > first) {
        const std::uint32_t rest = span - first;
        host.fabric().memRead(host.bridge(), ring, std::uint64_t(rest) * 4,
                              [handle, rest](BufChain raw) {
                                  handle(raw, rest);
                              });
    }
}

void
HdcDriver::finishCommand(std::uint32_t cmd_id, bool rejected, Tick t_irq)
{
    Pending &p = slots[hdc::cmdSlot(cmd_id)];
    if (!p.live || p.id != cmd_id || p.completing)
        panic("%s: completion for unknown command %u", name().c_str(),
              cmd_id);
    p.completing = true;
    TRACE_FLOW(tracer(), t_irq, name(), "msi", p.flow);
    tracer().unbindFlow(trace::key(engine.name(), cmd_id));

    host.cpu().run(
        CpuCat::HdcDriver, host.costs().hdcComplete,
        [this, cmd_id, rejected, t_irq] {
            const Pending &p = slots[hdc::cmdSlot(cmd_id)];
            if (p.trace) {
                // Engine-side time: submit end -> IRQ.
                const Tick submit_end =
                    p.submitTick + host.costs().hdcSubmit;
                if (t_irq > submit_end)
                    p.trace->add(LatComp::Read, t_irq - submit_end);
                p.trace->add(LatComp::RequestCompletion, now() - t_irq);
            }
            D2dResult r;
            r.cmdId = cmd_id;
            if (rejected || !p.wantDigest) {
                // An admission NACK moved no data and filled no result
                // slot.
                TRACE_SPAN(tracer(), t_irq, now() - t_irq, name(),
                           "complete", p.flow);
                r.status = rejected ? 429 : 0;
                releaseSlot(r);
                return;
            }
            // Fetch the digest from the engine's result slot.
            host.fabric().memRead(
                host.bridge(), engine.resultSlotBus(cmd_id),
                hdc::HdcEngine::resultSlotSize,
                [this, r, t_irq](BufChain raw) mutable {
                    std::uint32_t status = 0, len = 0;
                    raw.copyOut(0, &status, 4);
                    raw.copyOut(4, &len, 4);
                    if (status == 1 && len <= raw.size() - 8) {
                        r.digest.resize(len);
                        raw.copyOut(8, r.digest.data(), len);
                    }
                    TRACE_SPAN(tracer(), t_irq, now() - t_irq, name(),
                               "complete",
                               slots[hdc::cmdSlot(r.cmdId)].flow);
                    releaseSlot(r);
                });
        });
}

void
HdcDriver::releaseSlot(const D2dResult &r)
{
    Pending &p = slots[hdc::cmdSlot(r.cmdId)];
    auto done = std::move(p.done);
    p = Pending{};
    --liveSlots;
    if (done)
        done(r);
}

} // namespace hdclib
} // namespace dcs
