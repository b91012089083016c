#include "baselines/sw_paths.hh"

#include <memory>

#include "sim/logging.hh"

namespace dcs {
namespace baselines {

using host::CpuCat;
using host::LatComp;

namespace {

constexpr std::uint32_t kMaxBlocksPerCmd = 256; // 1 MiB NVMe commands
constexpr std::uint32_t kMss = 8960;

} // namespace

SwBasePath::SwBasePath(sys::Node &node, bool gpu_p2p, bool vanilla,
                       int staging_slots, std::uint64_t slot_bytes)
    : node(node), gpuP2p(gpu_p2p), vanilla(vanilla),
      staging(node.host(), staging_slots, slot_bytes)
{
}

void
SwBasePath::chargeVanilla(std::uint64_t len, host::TracePtr trace,
                          std::function<void()> done)
{
    if (!vanilla) {
        done();
        return;
    }
    auto &host = node.host();
    const std::uint64_t chunks = (len + 65535) / 65536;
    const Tick pc = host.costs().pageCachePer64k *
                    std::max<std::uint64_t>(chunks, 1);
    const Tick t0 = host.cpu().now();
    host.cpu().run(CpuCat::PageCache, pc, [this, &host, len, trace, t0,
                                           done = std::move(done)]() mutable {
        // Extra user<->kernel copy the optimized paths avoid.
        host.cpu().run(CpuCat::DataCopy,
                       host::copyTime(len, host.costs().copyGBps),
                       [trace, t0, &host, done = std::move(done)] {
                           if (trace)
                               trace->add(LatComp::DataCopy,
                                          host.cpu().now() - t0);
                           done();
                       });
    });
}

std::uint64_t
SwBasePath::gpuSlot()
{
    const std::uint64_t off =
        std::uint64_t(gpuSlotCursor % gpuSlots) * gpuSlotBytes;
    ++gpuSlotCursor;
    return off;
}

void
SwBasePath::readFileToBus(int fd, std::uint64_t offset, std::uint64_t len,
                          Addr dst, host::TracePtr trace,
                          std::function<void()> done)
{
    const auto extents = node.fs().resolve(fd, offset, len);
    auto remaining = std::make_shared<int>(0);
    auto fire = std::make_shared<std::function<void()>>(std::move(done));

    std::uint64_t bus_off = 0;
    for (const auto &e : extents) {
        std::uint64_t lba = e.lba;
        std::uint32_t blocks = e.blocks;
        while (blocks > 0) {
            const std::uint32_t n = std::min(blocks, kMaxBlocksPerCmd);
            ++*remaining;
            node.nvmeDriver().readBlocks(
                lba, n, dst + bus_off, trace, [remaining, fire] {
                    if (--*remaining == 0)
                        (*fire)();
                });
            lba += n;
            blocks -= n;
            bus_off += std::uint64_t(n) * nvme::lbaSize;
        }
    }
    if (extents.empty())
        (*fire)();
}

void
SwBasePath::writeBusToFile(int fd, std::uint64_t offset, std::uint64_t len,
                           Addr src, host::TracePtr trace,
                           std::function<void()> done)
{
    const auto extents = node.fs().resolve(fd, offset, len);
    auto remaining = std::make_shared<int>(0);
    auto fire = std::make_shared<std::function<void()>>(std::move(done));

    std::uint64_t bus_off = 0;
    for (const auto &e : extents) {
        std::uint64_t lba = e.lba;
        std::uint32_t blocks = e.blocks;
        while (blocks > 0) {
            const std::uint32_t n = std::min(blocks, kMaxBlocksPerCmd);
            ++*remaining;
            node.nvmeDriver().writeBlocks(
                lba, n, src + bus_off, trace, [remaining, fire] {
                    if (--*remaining == 0)
                        (*fire)();
                });
            lba += n;
            blocks -= n;
            bus_off += std::uint64_t(n) * nvme::lbaSize;
        }
    }
    if (extents.empty())
        (*fire)();
}

void
SwBasePath::gpuProcess(ndp::Function fn, Addr data_bus, std::uint64_t len,
                       bool in_gpu, bool copy_back,
                       std::span<const std::uint8_t> aux,
                       host::TracePtr trace,
                       std::function<void(std::vector<std::uint8_t>,
                                          std::uint64_t, std::uint64_t)>
                           done)
{
    auto &host = node.host();
    auto &gpu = node.gpu();
    const bool passthrough = ndp::functionInfo(fn).passThrough();
    const std::uint64_t gpu_in =
        in_gpu ? data_bus - gpu.memBase() : gpuSlot();
    const std::uint64_t gpu_out =
        passthrough ? gpu_in : gpu_in + gpuSlotBytes / 2;
    const std::uint64_t digest_off = gpu_in + gpuSlotBytes - 64;
    if (len > gpuSlotBytes / 2)
        fatal("sw-path: request larger than GPU staging slot");

    std::vector<std::uint8_t> aux_copy(aux.begin(), aux.end());

    auto launch = [this, &host, &gpu, fn, len, gpu_in, gpu_out, digest_off,
                   aux_copy = std::move(aux_copy), copy_back, passthrough,
                   data_bus, trace, done = std::move(done)]() mutable {
        const Tick t_launch = host.cpu().now();
        host.cpu().run(
            CpuCat::GpuControl, host.costs().gpuLaunchCpu,
            [this, &host, &gpu, fn, len, gpu_in, gpu_out, digest_off,
             aux_copy = std::move(aux_copy), copy_back, passthrough,
             data_bus, trace, t_launch, done = std::move(done)]() mutable {
                if (trace)
                    trace->add(LatComp::GpuControl,
                               host.cpu().now() - t_launch);
                const Tick t_kernel = host.cpu().now();
                gpu.launchKernel(
                    fn, gpu_in, len, gpu_out, digest_off, aux_copy,
                    [this, &host, &gpu, fn, gpu_in, gpu_out, digest_off,
                     copy_back, passthrough, data_bus, trace, t_kernel,
                     done = std::move(done)](std::uint64_t out_len) mutable {
                        // Variable-length output must fit the slot's
                        // output half; past it lies the next slot.
                        if (out_len > gpuSlotBytes / 2)
                            panic("sw-path: %s output of %llu B overruns "
                                  "its %llu B GPU staging half-slot",
                                  ndp::functionInfo(fn).name,
                                  (unsigned long long)out_len,
                                  (unsigned long long)(gpuSlotBytes / 2));
                        if (trace)
                            trace->add(LatComp::Hash,
                                       host.cpu().now() - t_kernel);
                        const Tick t_sync = host.cpu().now();
                        host.cpu().run(
                            CpuCat::GpuControl, host.costs().gpuSyncCpu,
                            [this, &host, &gpu, fn, gpu_out, digest_off,
                             copy_back, passthrough, data_bus, trace,
                             t_sync, out_len,
                             done = std::move(done)]() mutable {
                                if (trace)
                                    trace->add(LatComp::GpuControl,
                                               host.cpu().now() - t_sync);
                                std::vector<std::uint8_t> digest(
                                    ndp::functionInfo(fn).digestSize);
                                if (!digest.empty())
                                    gpu.mem().read(digest_off,
                                                   digest.data(),
                                                   digest.size());
                                if (!copy_back || passthrough) {
                                    done(std::move(digest), out_len,
                                         gpu_out);
                                    return;
                                }
                                // D2H staging copy of the output.
                                const Tick t_d2h = host.cpu().now();
                                host.cpu().run(
                                    CpuCat::GpuCopy,
                                    host.costs().gpuCopySetup,
                                    [this, &host, &gpu, gpu_out, data_bus,
                                     out_len, trace, t_d2h,
                                     digest = std::move(digest),
                                     done = std::move(done)]() mutable {
                                        host.fabric().memRead(
                                            host.bridge(),
                                            gpu.memBase() + gpu_out,
                                            out_len,
                                            [&host, data_bus, trace, t_d2h,
                                             digest = std::move(digest),
                                             out_len, gpu_out,
                                             done = std::move(done)](
                                                BufChain bytes) mutable {
                                                host.dram().adopt(
                                                    host.dramOffset(
                                                        data_bus),
                                                    bytes);
                                                if (trace)
                                                    trace->add(
                                                        LatComp::GpuCopy,
                                                        host.cpu().now() -
                                                            t_d2h);
                                                done(std::move(digest),
                                                     out_len, gpu_out);
                                            });
                                    });
                            });
                    });
            });
    };

    if (in_gpu) {
        launch();
        return;
    }

    // H2D staging copy first.
    const Tick t_h2d = host.cpu().now();
    host.cpu().run(CpuCat::GpuCopy, host.costs().gpuCopySetup,
                   [this, &host, &gpu, data_bus, len, gpu_in, trace, t_h2d,
                    launch = std::move(launch)]() mutable {
                       std::vector<std::uint8_t> bytes(len);
                       host.dram().read(host.dramOffset(data_bus),
                                        bytes.data(), len);
                       host.fabric().memWrite(
                           host.bridge(), gpu.memBase() + gpu_in,
                           std::move(bytes),
                           [&host, trace, t_h2d,
                            launch = std::move(launch)]() mutable {
                               if (trace)
                                   trace->add(LatComp::GpuCopy,
                                              host.cpu().now() - t_h2d);
                               launch();
                           });
                   });
}

void
SwBasePath::sendFile(int file_fd, int sock_fd, std::uint64_t offset,
                     std::uint64_t len, ndp::Function fn,
                     std::vector<std::uint8_t> aux, host::TracePtr trace,
                     PathCallback done)
{
    auto &host = node.host();
    host::Connection *conn = node.tcp().findByFd(sock_fd);
    if (!conn)
        fatal("sw-path: sendFile on unknown socket fd %d", sock_fd);

    const Tick t0 = host.cpu().now();
    host.cpu().run(CpuCat::User, host.costs().syscall, [this, &host,
                                                        file_fd, conn,
                                                        offset, len, fn,
                                                        aux =
                                                            std::move(aux),
                                                        trace, t0,
                                                        done = std::move(
                                                            done)]() mutable {
        host.cpu().run(
            CpuCat::FileSystem, host.costs().vfsLookup,
            [this, &host, file_fd, conn, offset, len, fn,
             aux = std::move(aux), trace, t0,
             done = std::move(done)]() mutable {
                if (trace)
                    trace->add(LatComp::FileSystem, host.cpu().now() - t0);

                const bool p2p = gpuP2p && fn != ndp::Function::None;
                if (p2p) {
                    // SSD -> GPU (P2P) -> NIC (P2P): no host staging.
                    const std::uint64_t gpu_off = gpuSlot();
                    const Addr gpu_bus = node.gpu().memBase() + gpu_off;
                    readFileToBus(
                        file_fd, offset, len, gpu_bus, trace,
                        [this, &host, conn, len, fn, gpu_bus,
                         aux = std::move(aux), trace,
                         done = std::move(done)]() mutable {
                            gpuProcess(
                                fn, gpu_bus, len, true, false, aux, trace,
                                [this, &host, conn, trace,
                                 done = std::move(done)](
                                    std::vector<std::uint8_t> digest,
                                    std::uint64_t out_len,
                                    std::uint64_t gpu_out) mutable {
                                    const Addr payload =
                                        node.gpu().memBase() + gpu_out;
                                    node.tcp().send(
                                        *conn, payload,
                                        static_cast<std::uint32_t>(
                                            out_len),
                                        kMss, trace,
                                        [digest = std::move(digest),
                                         done = std::move(done)]() mutable {
                                            done(PathResult{
                                                std::move(digest)});
                                        });
                                });
                        });
                    return;
                }

                // Through host DRAM.
                staging.acquire([this, &host, file_fd, conn, offset, len,
                                 fn, aux = std::move(aux), trace,
                                 done = std::move(done)](Addr slot) mutable {
                    if (len > staging.slotSize())
                        fatal("sw-path: request exceeds staging slot");
                    readFileToBus(
                        file_fd, offset, len, slot, trace,
                        [this, &host, conn, len, fn, slot,
                         aux = std::move(aux), trace,
                         done = std::move(done)]() mutable {
                            auto send_from_host =
                                [this, &host, conn, slot, trace,
                                 done = std::move(done)](
                                    std::uint64_t n,
                                    std::vector<std::uint8_t>
                                        digest) mutable {
                                    // Residual staging copy into the
                                    // transmit path.
                                    const Tick t_copy = host.cpu().now();
                                    host.cpu().run(
                                        CpuCat::DataCopy,
                                        host::copyTime(
                                            n, host.costs().copyGBps),
                                        [this, &host, conn, slot, n,
                                         trace, t_copy,
                                         digest = std::move(digest),
                                         done = std::move(done)]() mutable {
                                            if (trace)
                                                trace->add(
                                                    LatComp::DataCopy,
                                                    host.cpu().now() -
                                                        t_copy);
                                            node.tcp().send(
                                                *conn, slot,
                                                static_cast<std::uint32_t>(
                                                    n),
                                                kMss, trace,
                                                [this, slot,
                                                 digest = std::move(digest),
                                                 done = std::move(
                                                     done)]() mutable {
                                                    staging.release(slot);
                                                    done(PathResult{
                                                        std::move(digest)});
                                                });
                                        });
                                };

                            chargeVanilla(len, trace, [this, len, fn,
                                                       slot, aux, trace,
                                                       send_from_host =
                                                           std::move(
                                                               send_from_host)]() mutable {
                                if (fn == ndp::Function::None) {
                                    send_from_host(len, {});
                                    return;
                                }
                                gpuProcess(fn, slot, len, false, true,
                                           aux, trace,
                                           [send_from_host = std::move(
                                                send_from_host)](
                                               std::vector<std::uint8_t>
                                                   digest,
                                               std::uint64_t out_len,
                                               std::uint64_t) mutable {
                                               send_from_host(
                                                   out_len,
                                                   std::move(digest));
                                           });
                            });
                        });
                });
            });
    });
}

void
SwBasePath::installRxHook(int sock_fd)
{
    if (rxHooked[sock_fd])
        return;
    rxHooked[sock_fd] = true;
    host::Connection *conn = node.tcp().findByFd(sock_fd);
    if (!conn)
        fatal("sw-path: receive on unknown socket fd %d", sock_fd);
    conn->onPayload = [this, sock_fd](std::uint32_t, BufChain bytes) {
        auto &q = rxQueues[sock_fd];
        if (q.empty()) {
            warn("sw-path: payload with no pending receive; dropping");
            return;
        }
        RxOp &op = q.front();
        auto &host = node.host();
        // Copy from the packet buffer into the staging buffer (the
        // software baseline really pays this copy).
        host.cpu().run(CpuCat::DataCopy,
                       host::copyTime(bytes.size(),
                                      host.costs().copyGBps));
        host.dram().adopt(host.dramOffset(op.staging) + op.cursor,
                          bytes);
        op.cursor += bytes.size();
        if (op.cursor >= op.remaining) {
            auto fire = std::move(op.done);
            const Addr slot = op.staging;
            q.pop_front();
            fire(slot);
        }
    };
}

void
SwBasePath::receiveToFile(int sock_fd, int file_fd, std::uint64_t offset,
                          std::uint64_t len, ndp::Function fn,
                          std::vector<std::uint8_t> aux,
                          host::TracePtr trace, PathCallback done)
{
    auto &host = node.host();
    installRxHook(sock_fd);

    host.cpu().run(CpuCat::User, host.costs().syscall, [this, &host,
                                                        sock_fd, file_fd,
                                                        offset, len, fn,
                                                        aux =
                                                            std::move(aux),
                                                        trace,
                                                        done = std::move(
                                                            done)]() mutable {
        staging.acquire([this, &host, sock_fd, file_fd, offset, len, fn,
                         aux = std::move(aux), trace,
                         done = std::move(done)](Addr slot) mutable {
            if (len > staging.slotSize())
                fatal("sw-path: request exceeds staging slot");
            RxOp op;
            op.remaining = len;
            op.staging = slot;
            op.trace = trace;
            op.done = [this, &host, file_fd, offset, len, fn,
                       aux = std::move(aux), trace,
                       done = std::move(done)](Addr slot_in) mutable {
                auto store = [this, &host, file_fd, offset, slot_in, trace,
                              done = std::move(done)](
                                 std::uint64_t n,
                                 std::vector<std::uint8_t>
                                     digest) mutable {
                    chargeVanilla(n, trace, [] {});
                    host.cpu().run(
                        CpuCat::FileSystem, host.costs().vfsLookup,
                        [this, &host, file_fd, offset, slot_in, n, trace,
                         digest = std::move(digest),
                         done = std::move(done)]() mutable {
                            writeBusToFile(
                                file_fd, offset, n, slot_in, trace,
                                [this, slot_in,
                                 digest = std::move(digest),
                                 done = std::move(done)]() mutable {
                                    staging.release(slot_in);
                                    done(PathResult{std::move(digest)});
                                });
                        });
                };
                if (fn == ndp::Function::None) {
                    store(len, {});
                    return;
                }
                // Receive side always stages through host memory: the
                // data-gathering problem prevents NIC->GPU P2P.
                gpuProcess(fn, slot_in, len, false, true, aux, trace,
                           [store = std::move(store)](
                               std::vector<std::uint8_t> digest,
                               std::uint64_t out_len,
                               std::uint64_t) mutable {
                               store(out_len, std::move(digest));
                           });
            };
            rxQueues[sock_fd].push_back(std::move(op));
        });
    });
}

} // namespace baselines
} // namespace dcs
