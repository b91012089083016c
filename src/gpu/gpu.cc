#include "gpu/gpu.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dcs {
namespace gpu {

Gpu::Gpu(EventQueue &eq, std::string name, Addr mem_base, GpuParams p)
    : pcie::Device(eq, std::move(name)), _memBase(mem_base), _params(p),
      _mem(p.memBytes, this->name() + ".mem")
{
    claimRange({mem_base, p.memBytes});
}

void
Gpu::busWrite(Addr addr, std::span<const std::uint8_t> data)
{
    _mem.write(addr - _memBase, data.data(), data.size());
}

void
Gpu::busRead(Addr addr, std::span<std::uint8_t> data)
{
    _mem.read(addr - _memBase, data.data(), data.size());
}

Tick
Gpu::computeTime(ndp::Function fn, std::uint64_t len) const
{
    const double gbps = ndp::functionInfo(fn).gpuGbps;
    return gbps > 0 ? transferTime(len, gbps) : 0;
}

void
Gpu::launchKernel(ndp::Function fn, std::uint64_t src_off, std::uint64_t len,
                  std::uint64_t dst_off, std::uint64_t digest_off,
                  std::span<const std::uint8_t> aux,
                  std::function<void(std::uint64_t)> done)
{
    ++_kernels;
    // Serialize on the (single) compute engine.
    const Tick start = std::max(now() + _params.kernelLaunch, engineFree);
    const Tick finish = start + computeTime(fn, len);
    engineFree = finish;
#ifdef DCS_TRACING
    // One compute engine == one exclusive lane.
    if (tracer().enabled())
        tracer().span(start, finish - start, name(),
                      ndp::functionName(fn), 0, /*lane_exclusive=*/true);
#endif

    std::vector<std::uint8_t> aux_copy(aux.begin(), aux.end());
    schedule(finish - now(), [this, fn, src_off, len, dst_off, digest_off,
                              aux_copy = std::move(aux_copy),
                              done = std::move(done)] {
        std::vector<std::uint8_t> input(len);
        _mem.read(src_off, input.data(), len);
        ndp::TransformResult r =
            ndp::applyTransform(fn, input, aux_copy);
        _mem.write(dst_off, r.data.data(), r.data.size());
        if (!r.digest.empty())
            _mem.write(digest_off, r.digest.data(), r.digest.size());
        done(r.data.size());
    });
}

} // namespace gpu
} // namespace dcs
