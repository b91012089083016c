#include "ndp/hash.hh"

#include "ndp/transform.hh"
#include "sim/logging.hh"

namespace dcs {
namespace ndp {

std::string
toHex(std::span<const std::uint8_t> digest)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(digest.size() * 2);
    for (std::uint8_t b : digest) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xf]);
    }
    return s;
}

std::unique_ptr<HashFunction>
makeHash(const std::string &algorithm)
{
    for (const FunctionInfo &f : functionTable())
        if (f.newHash && algorithm == f.name)
            return f.newHash();
    fatal("unknown hash algorithm '%s'", algorithm.c_str());
}

} // namespace ndp
} // namespace dcs
