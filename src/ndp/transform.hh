/**
 * @file
 * The set of intermediate-processing functions (paper Table II/III)
 * and a functional evaluator shared by NDP units, GPU kernels and
 * CPU fallback paths — all three execute the identical byte-level
 * transform, only their timing models differ.
 *
 * Everything the simulator knows about a function lives in one
 * FunctionInfo row: its name, what it produces, how it is computed,
 * and the FPGA and GPU figures its timing models read. Adding an NDP
 * function means adding an enum value, one row and its kernel.
 */

#ifndef DCS_NDP_TRANSFORM_HH
#define DCS_NDP_TRANSFORM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/buffer.hh"
#include "ndp/hash.hh"

namespace dcs {
namespace ndp {

/** Intermediate data-processing functions offloadable to NDP units. */
enum class Function
{
    None,   //!< pass-through (plain D2D copy)
    Md5,    //!< data integrity (Swift, S3, Azure)
    Sha1,   //!< data integrity
    Sha256, //!< data integrity
    Crc32,  //!< data integrity (HDFS)
    Aes256, //!< encryption (CTR mode; aux = 32-byte key + 8-byte nonce)
    Gzip,   //!< compression (HDFS, S3)
    Gunzip, //!< decompression
};

/** Number of Function values (the function table's row count). */
inline constexpr std::size_t functionCount =
    static_cast<std::size_t>(Function::Gunzip) + 1;

/**
 * A payload-transforming kernel. @p in is one piece of a command's
 * byte stream, starting @p offset bytes into it; @p aux is the
 * function's auxiliary data. Returns the piece's output bytes.
 */
using Kernel = std::vector<std::uint8_t> (*)(
    const BufChain &in, std::span<const std::uint8_t> aux,
    std::uint64_t offset);

/** One function's row in the function table. */
struct FunctionInfo
{
    Function fn;
    const char *name;        //!< e.g. for bench output rows
    std::size_t digestSize;  //!< digest bytes; 0: produces no digest
    bool variableLength;     //!< output length depends on the data
    /** New incremental hash (digest functions); null otherwise. */
    std::unique_ptr<HashFunction> (*newHash)();
    /** Payload transform; null for pass-through functions. */
    Kernel kernel;
    // Paper Table III. LUT/register percentages are the totals needed
    // to reach 10 Gbps (several instances of a non-pipelined core, or
    // one instance of a fully pipelined one); 0 Gbps: no NDP unit.
    double lutPct;      //!< Virtex-7 slice-LUT share per 10 Gbps
    double regPct;      //!< slice-register share per 10 Gbps
    double maxClockMhz; //!< post-timing-analysis clock
    double perUnitGbps; //!< throughput of a single IP core
    /** Tesla K20m streaming-kernel throughput; 0: no kernel work. */
    double gpuGbps;

    /** True if the function leaves the payload bytes unmodified. */
    constexpr bool passThrough() const { return kernel == nullptr; }
};

/** The row for @p fn. */
const FunctionInfo &functionInfo(Function fn);

/** Every row, in Function order. */
std::span<const FunctionInfo> functionTable();

/** Human-readable name, e.g. for bench output rows. */
std::string functionName(Function fn);

/** Parse the inverse of functionName(). */
Function functionFromName(const std::string &name);

/** Result of an intermediate-processing step. */
struct TransformResult
{
    /** Payload to forward to the next device (may equal the input). */
    std::vector<std::uint8_t> data;
    /** Digest for integrity functions; empty otherwise. */
    std::vector<std::uint8_t> digest;
};

/**
 * Execute @p fn over @p input.
 * @param aux function-specific auxiliary data (AES key, etc).
 */
TransformResult applyTransform(Function fn,
                               std::span<const std::uint8_t> input,
                               std::span<const std::uint8_t> aux = {});

} // namespace ndp
} // namespace dcs

#endif // DCS_NDP_TRANSFORM_HH
