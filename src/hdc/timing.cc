#include "hdc/timing.hh"

#include <cmath>

#include "sim/logging.hh"

namespace dcs {
namespace hdc {

const ndp::FunctionInfo &
ndpSpec(ndp::Function fn)
{
    const ndp::FunctionInfo &s = ndp::functionInfo(fn);
    if (s.perUnitGbps <= 0)
        panic("no NDP unit spec for function '%s'", s.name);
    return s;
}

int
ndpUnitsFor(ndp::Function fn, double target_gbps)
{
    const ndp::FunctionInfo &s = ndpSpec(fn);
    return static_cast<int>(std::ceil(target_gbps / s.perUnitGbps));
}

ResourceReport
baseEngineResources()
{
    // Paper Table IV: the device controllers + host/PCIe interface
    // occupy 116344 LUTs (38%), 91005 registers (15%), 442 BRAMs
    // (43%), 5.57 W on the VC707's Virtex-7.
    return ResourceReport{116344, 91005, 442, 5.57};
}

ResourceReport
ndpResources(ndp::Function fn, double target_gbps)
{
    const ndp::FunctionInfo &s = ndpSpec(fn);
    const double scale = target_gbps / 10.0;
    ResourceReport r;
    r.luts = static_cast<std::uint64_t>(virtex7Luts * s.lutPct / 100.0 *
                                        scale);
    r.regs = static_cast<std::uint64_t>(virtex7Regs * s.regPct / 100.0 *
                                        scale);
    r.brams = 2 * static_cast<std::uint64_t>(ndpUnitsFor(fn, target_gbps));
    r.watts = 0.15 * ndpUnitsFor(fn, target_gbps);
    return r;
}

} // namespace hdc
} // namespace dcs
