/**
 * @file
 * GPU accelerator model (NVIDIA Tesla K20m class), used by the
 * baseline designs to offload intermediate processing.
 *
 * The GPU exposes its device memory on a PCIe BAR (GPUDirect-RDMA
 * style), so the software-controlled P2P baseline can DMA data from
 * the SSD straight into GPU memory. Kernel launches charge a fixed
 * launch latency plus size-dependent compute time, and the functional
 * result is produced by the same ndp:: transforms the HDC Engine uses,
 * so both designs compute identical bytes.
 */

#ifndef DCS_GPU_GPU_HH
#define DCS_GPU_GPU_HH

#include <cstdint>
#include <functional>

#include "mem/memory.hh"
#include "ndp/transform.hh"
#include "pcie/device.hh"

namespace dcs {
namespace gpu {

/**
 * Timing knobs. Kernel throughputs (~ Tesla K20m for streaming byte
 * kernels) are the function table's gpuGbps column.
 */
struct GpuParams
{
    std::uint64_t memBytes = 4ull << 30;
    Tick kernelLaunch = microseconds(9); //!< driver->device launch cost
};

/** The GPU endpoint: BAR-exposed memory + a kernel execution engine. */
class Gpu : public pcie::Device
{
  public:
    Gpu(EventQueue &eq, std::string name, Addr mem_base, GpuParams p = {});

    void busWrite(Addr addr, std::span<const std::uint8_t> data) override;
    void busRead(Addr addr, std::span<std::uint8_t> data) override;

    /** Base bus address of the exposed device memory BAR. */
    Addr memBase() const { return _memBase; }

    /** Functional access to device memory (for host runtime models). */
    Memory &mem() { return _mem; }

    /**
     * Launch a data-processing kernel over device memory
     * [src_off, src_off+len). The transformed payload is written to
     * @p dst_off (pass-through functions copy the input), the digest
     * (if any) to @p digest_off. @p done fires at kernel completion.
     */
    void launchKernel(ndp::Function fn, std::uint64_t src_off,
                      std::uint64_t len, std::uint64_t dst_off,
                      std::uint64_t digest_off,
                      std::span<const std::uint8_t> aux,
                      std::function<void(std::uint64_t out_len)> done);

    /** Compute time for @p len bytes of @p fn (excludes launch cost). */
    Tick computeTime(ndp::Function fn, std::uint64_t len) const;

    const GpuParams &params() const { return _params; }
    std::uint64_t kernelsLaunched() const { return _kernels; }

  private:
    Addr _memBase;
    GpuParams _params;
    Memory _mem;
    Tick engineFree = 0;
    std::uint64_t _kernels = 0;
};

} // namespace gpu
} // namespace dcs

#endif // DCS_GPU_GPU_HH
