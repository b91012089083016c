/**
 * @file
 * HDC Engine FPGA timing model.
 *
 * The prototype runs on a Xilinx Virtex-7 VC707. Control-path actions
 * are charged in fabric-clock cycles (the paper's controllers close
 * timing at 250 MHz); data touching the on-board DDR3 or BRAM is
 * charged at the respective memory bandwidth. NDP per-unit
 * throughputs are taken directly from paper Table III.
 */

#ifndef DCS_HDC_TIMING_HH
#define DCS_HDC_TIMING_HH

#include "ndp/transform.hh"
#include "sim/ticks.hh"

namespace dcs {
namespace hdc {

/** FPGA-side timing knobs. */
struct HdcTiming
{
    double clockMhz = 250.0;

    /** Fetch + parse one 64-byte D2D command from the command queue. */
    std::uint64_t cmdParseCycles = 64;

    /** Scoreboard: evaluate dependencies + issue one device command. */
    std::uint64_t scoreboardIssueCycles = 32;

    /** Scoreboard: mark a completion and wake dependents. */
    std::uint64_t scoreboardCompleteCycles = 16;

    /** NVMe controller: build SQE + write it to BRAM. */
    std::uint64_t nvmeCmdBuildCycles = 96;

    /** NVMe controller: consume one CQE. */
    std::uint64_t nvmeCplCycles = 48;

    /** NIC controller: generate headers + descriptor. */
    std::uint64_t nicCmdBuildCycles = 128;

    /** NIC controller: consume one send completion. */
    std::uint64_t nicCplCycles = 48;

    /** Packet gather: per-frame parse/steer logic. */
    std::uint64_t pktGatherCycles = 64;

    /** On-board DDR3 bandwidth (GB/s) for gather copies. */
    double dramGBps = 12.8;

    /** Interrupt generator: raise one MSI. */
    std::uint64_t irqGenCycles = 32;

    Tick
    cycles(std::uint64_t n) const
    {
        return cyclesAt(n, clockMhz);
    }
};

/**
 * The function-table row of @p fn, whose Table III fields (lutPct,
 * regPct, maxClockMhz, perUnitGbps) describe its NDP IP core. Panics
 * for a function with no NDP unit.
 */
const ndp::FunctionInfo &ndpSpec(ndp::Function fn);

/** Units required for @p fn to reach @p target_gbps aggregate. */
int ndpUnitsFor(ndp::Function fn, double target_gbps = 10.0);

/** HDC Engine resource accounting (paper Table IV). */
struct ResourceReport
{
    std::uint64_t luts = 0;
    std::uint64_t regs = 0;
    std::uint64_t brams = 0;
    double watts = 0.0;
};

/** Virtex-7 (XC7VX485T on VC707) totals. */
constexpr std::uint64_t virtex7Luts = 303600;
constexpr std::uint64_t virtex7Regs = 607200;
constexpr std::uint64_t virtex7Brams = 1030;

/**
 * Resource usage of the base engine (PCIe/host interface, scoreboard,
 * NVMe + NIC controllers, buffers) — calibrated to Table IV.
 */
ResourceReport baseEngineResources();

/** Additional resources for an NDP function at 10 Gbps. */
ResourceReport ndpResources(ndp::Function fn, double target_gbps = 10.0);

} // namespace hdc
} // namespace dcs

#endif // DCS_HDC_TIMING_HH
