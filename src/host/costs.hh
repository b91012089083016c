/**
 * @file
 * Calibrated software-routine cost constants (DESIGN.md §5).
 *
 * These model the host-side CPU time of kernel routines on the
 * paper's testbed: a 2.3 GHz Xeon E5-2630 running CentOS 6.5 with a
 * 2.6.32-era kernel — noticeably heavier syscall/driver paths than a
 * modern stack, which is precisely why the paper's software designs
 * lose so much time to device control (Fig. 2/3). The absolute
 * values are order-of-magnitude calibrations; the experiments depend
 * on their *relative* structure (how much work each design removes),
 * which is architectural. The ablation bench sweeps the load-bearing
 * ones.
 */

#ifndef DCS_HOST_COSTS_HH
#define DCS_HOST_COSTS_HH

#include "sim/ticks.hh"

namespace dcs {
namespace host {

/** Per-routine CPU costs of the (optimized) kernel software stack. */
struct KernelCosts
{
    /** User/kernel boundary crossing (entry + exit of one syscall). */
    Tick syscall = nanoseconds(1500);

    /** VFS + extent/block-address lookup per request. */
    Tick vfsLookup = microseconds(3.0);

    /** Page-cache lookup/insert/management per 64 KiB of data. */
    Tick pageCachePer64k = microseconds(1.2);

    /** memcpy bandwidth for user<->kernel / staging copies (GB/s). */
    double copyGBps = 8.0;

    /** Socket-buffer management per send/recv operation. */
    Tick sockBufMgmt = microseconds(3.0);

    /** TCP/IP protocol processing per submitted send/recv batch. */
    Tick tcpProto = microseconds(2.5);

    /** NVMe driver: build SQE + ring doorbell. */
    Tick nvmeSubmit = microseconds(3.0);

    /** NVMe driver: completion handling (bottom half, CQ doorbell). */
    Tick nvmeComplete = microseconds(5.0);

    /** NIC driver: build descriptor + doorbell. */
    Tick nicSubmit = microseconds(2.5);

    /** NIC driver: send/recv completion processing. */
    Tick nicComplete = microseconds(4.0);

    /** Hard-IRQ entry/dispatch before the handler body. */
    Tick irqEntry = microseconds(2.5);

    /** GPU driver: kernel-launch ioctl path on the CPU. */
    Tick gpuLaunchCpu = microseconds(14.0);

    /** GPU driver: stream synchronize / completion polling. */
    Tick gpuSyncCpu = microseconds(10.0);

    /** GPU copy-engine programming per transfer. */
    Tick gpuCopySetup = microseconds(6.0);

    /** Effective cudaMemcpy bandwidth (GB/s) incl. pinning overheads. */
    double gpuCopyGBps = 6.0;

    /** HDC Driver: retrieve metadata, build + forward one D2D cmd. */
    Tick hdcSubmit = microseconds(4.5);

    /** HDC Driver: completion IRQ handling + user wakeup. */
    Tick hdcComplete = microseconds(4.0);

    /** Application-level request handling (parse REST, bookkeeping). */
    Tick appRequestWork = microseconds(5.0);
};

/** Copy time of @p bytes at @p gbytes_per_s, rounded up. */
constexpr Tick
copyTime(std::uint64_t bytes, double gbytes_per_s)
{
    return static_cast<Tick>(static_cast<double>(bytes) /
                             (gbytes_per_s * 1e9) * 1e12) +
           1;
}

} // namespace host
} // namespace dcs

#endif // DCS_HOST_COSTS_HH
