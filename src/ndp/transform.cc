#include "ndp/transform.hh"

#include "ndp/aes256.hh"
#include "ndp/crc32.hh"
#include "ndp/deflate.hh"
#include "ndp/md5.hh"
#include "ndp/sha1.hh"
#include "ndp/sha256.hh"
#include "sim/logging.hh"

namespace dcs {
namespace ndp {

namespace {

template <class H>
std::unique_ptr<HashFunction>
newHashOf()
{
    return std::make_unique<H>();
}

/** AES-256-CTR from the piece's stream offset (aux = key || nonce). */
std::vector<std::uint8_t>
aesCtrKernel(const BufChain &in, std::span<const std::uint8_t> aux,
             std::uint64_t offset)
{
    if (aux.size() < Aes256::keySize + 8)
        fatal("aes256: no key material (aux needs a 32-byte key + "
              "8-byte nonce, got %zu bytes)",
              aux.size());
    std::uint64_t nonce = 0;
    for (int i = 0; i < 8; ++i)
        nonce |= std::uint64_t(aux[Aes256::keySize + i]) << (8 * i);
    Aes256Ctr ctr(aux.first(Aes256::keySize), nonce);
    ctr.seek(offset);
    // Segment by segment into one output (the keystream carries
    // across calls), so the input is never flattened.
    std::vector<std::uint8_t> out(in.size());
    std::uint8_t *op = out.data();
    for (const Buffer &seg : in.segments()) {
        ctr.transformInto(seg.span(), op);
        op += seg.size();
    }
    return out;
}

/** One gzip member per piece. */
std::vector<std::uint8_t>
gzipKernel(const BufChain &in, std::span<const std::uint8_t>,
           std::uint64_t)
{
    return gzipCompress(in.flatten().span());
}

std::vector<std::uint8_t>
gunzipKernel(const BufChain &in, std::span<const std::uint8_t>,
             std::uint64_t)
{
    return gzipDecompress(in.flatten().span());
}

constexpr FunctionInfo kFunctions[] = {
    // fn, name, digest bytes, variable length, hash, kernel,
    // Table III LUT% / REG% / MHz / Gbps per unit, then K20m Gbps.
    {Function::None, "none", 0, false, nullptr, nullptr,
     0, 0, 0, 0, 0},
    {Function::Md5, "md5", 16, false, &newHashOf<Md5>, nullptr,
     3.00, 0.69, 130.0, 0.97, 18.0},
    {Function::Sha1, "sha1", 20, false, &newHashOf<Sha1>, nullptr,
     3.49, 1.13, 235.0, 1.10, 14.0},
    {Function::Sha256, "sha256", 32, false, &newHashOf<Sha256>, nullptr,
     4.28, 1.23, 130.0, 0.80, 11.0},
    {Function::Crc32, "crc32", 4, false, &newHashOf<Crc32>, nullptr,
     0.03, 0.01, 250.0, 10.0, 60.0},
    {Function::Aes256, "aes256", 0, false, nullptr, &aesCtrKernel,
     3.52, 0.99, 250.0, 40.90, 55.0},
    {Function::Gzip, "gzip", 0, true, nullptr, &gzipKernel,
     5.36, 2.09, 178.0, 100.0, 8.0},
    // Decompression is modelled with the GZIP core's figures.
    {Function::Gunzip, "gunzip", 0, true, nullptr, &gunzipKernel,
     5.36, 2.09, 178.0, 100.0, 8.0},
};

constexpr bool
inEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kFunctions); ++i)
        if (static_cast<std::size_t>(kFunctions[i].fn) != i)
            return false;
    return std::size(kFunctions) == functionCount;
}
static_assert(inEnumOrder(),
              "function table: one row per Function, in enum order");

} // namespace

const FunctionInfo &
functionInfo(Function fn)
{
    const auto i = static_cast<std::size_t>(fn);
    if (i >= functionCount)
        panic("unknown NDP function %zu", i);
    return kFunctions[i];
}

std::span<const FunctionInfo>
functionTable()
{
    return kFunctions;
}

std::string
functionName(Function fn)
{
    return functionInfo(fn).name;
}

Function
functionFromName(const std::string &name)
{
    for (const FunctionInfo &f : kFunctions)
        if (name == f.name)
            return f.fn;
    fatal("unknown NDP function '%s'", name.c_str());
}

TransformResult
applyTransform(Function fn, std::span<const std::uint8_t> input,
               std::span<const std::uint8_t> aux)
{
    const FunctionInfo &f = functionInfo(fn);
    TransformResult r;
    if (f.newHash)
        r.digest = f.newHash()->oneShot(input);
    if (f.passThrough())
        r.data.assign(input.begin(), input.end());
    else
        r.data = f.kernel(BufChain(Buffer::view(input)), aux, 0);
    return r;
}

} // namespace ndp
} // namespace dcs
