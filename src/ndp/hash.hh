/**
 * @file
 * Common incremental-hash interface for NDP data-integrity units.
 *
 * The paper's NDP units implement MD5, SHA-1, SHA-256 and CRC32 in
 * FPGA logic (Table III). Here the same algorithms are implemented
 * functionally; the hdc::NdpUnit wrapper adds the FPGA timing model.
 */

#ifndef DCS_NDP_HASH_HH
#define DCS_NDP_HASH_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dcs {
namespace ndp {

/** Incremental message-digest computation. */
class HashFunction
{
  public:
    virtual ~HashFunction() = default;

    /** Absorb more message bytes. */
    virtual void update(std::span<const std::uint8_t> data) = 0;

    /** Finalize and return the digest; the object must be reset() next. */
    virtual std::vector<std::uint8_t> finish() = 0;

    /** Digest length in bytes. */
    virtual std::size_t digestSize() const = 0;

    /** Restore the initial state for a new message. */
    virtual void reset() = 0;

    /** Algorithm name, e.g. "md5". */
    virtual std::string algorithm() const = 0;

    /** One-shot convenience. */
    std::vector<std::uint8_t>
    oneShot(std::span<const std::uint8_t> data)
    {
        reset();
        update(data);
        return finish();
    }
};

/** Render a digest as lowercase hex. */
std::string toHex(std::span<const std::uint8_t> digest);

/** Factory by name: a digest function's ndp::functionName(). */
std::unique_ptr<HashFunction> makeHash(const std::string &algorithm);

} // namespace ndp
} // namespace dcs

#endif // DCS_NDP_HASH_HH
