#include "net/packet.hh"

#include <bit>
#include <cstring>

namespace dcs {
namespace net {

namespace {

void
put16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
}

void
put32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

std::uint16_t
get16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | p[3];
}

/** Fold a ones-complement sum to 16 bits (never turns nonzero to 0). */
std::uint16_t
fold16(std::uint64_t s)
{
    while (s >> 16)
        s = (s & 0xffff) + (s >> 16);
    return static_cast<std::uint16_t>(s);
}

std::uint16_t
swap16(std::uint16_t v)
{
    return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

/** 64-bit ones-complement add: the carry wraps around (RFC 1071). */
std::uint64_t
addCarry(std::uint64_t a, std::uint64_t b)
{
    a += b;
    return a + (a < b);
}

/**
 * Ones-complement sum of @p d as big-endian 16-bit words starting at
 * an even offset (a trailing odd byte is the high half of a word),
 * folded to 16 bits. RFC 1071 §2: the sum does not depend on the word
 * width or the byte order it is taken in, so it adds native 64-bit
 * words in two independent carry chains and swaps bytes once at the
 * end on a little-endian host.
 */
std::uint16_t
sum16(std::span<const std::uint8_t> d)
{
    const std::uint8_t *p = d.data();
    const std::size_t n = d.size();
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        std::uint64_t w0, w1;
        std::memcpy(&w0, p + i, 8);
        std::memcpy(&w1, p + i + 8, 8);
        a = addCarry(a, w0);
        b = addCarry(b, w1);
    }
    if (i + 8 <= n) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        a = addCarry(a, w);
        i += 8;
    }
    if (i < n) {
        std::uint64_t w = 0; // zero-padded tail, still word-aligned
        std::memcpy(&w, p + i, n - i);
        a = addCarry(a, w);
    }
    const std::uint16_t s = fold16(addCarry(a, b));
    if constexpr (std::endian::native == std::endian::little)
        return swap16(s);
    return s;
}

/**
 * Ones-complement accumulator that preserves 16-bit word alignment
 * across feed() calls, so a payload scattered over chain segments
 * checksums identically to the same bytes fed contiguously: a segment
 * that starts at an odd offset contributes its sum byte-swapped.
 */
struct ChecksumAcc
{
    std::uint64_t sum = 0;
    bool odd = false; //!< next byte is the low half of a 16-bit word

    void
    feed(std::span<const std::uint8_t> d)
    {
        const std::uint16_t s = sum16(d);
        sum += odd ? swap16(s) : s;
        if (d.size() & 1)
            odd = !odd;
    }

    void
    feed(const BufChain &c)
    {
        for (const Buffer &seg : c.segments())
            feed(seg.span());
    }

    std::uint16_t
    finish() const
    {
        return static_cast<std::uint16_t>(~fold16(sum));
    }
};

} // namespace

std::uint16_t
inetChecksum(std::span<const std::uint8_t> data, std::uint32_t seed)
{
    ChecksumAcc acc;
    acc.sum = seed;
    acc.feed(data);
    return acc.finish();
}

std::uint16_t
inetChecksum(const BufChain &data, std::uint32_t seed)
{
    ChecksumAcc acc;
    acc.sum = seed;
    acc.feed(data);
    return acc.finish();
}

namespace {

/**
 * Header construction shared by the span and chain entry points: the
 * payload contributes only its length and its checksum-feed.
 */
template <typename FeedPayload>
std::array<std::uint8_t, fullHeaderLen>
buildHeadersImpl(const FlowInfo &flow, std::size_t payload_len,
                 std::uint16_t ip_id, FeedPayload &&feed_payload)
{
    std::array<std::uint8_t, fullHeaderLen> h{};
    std::uint8_t *eth = h.data();
    std::uint8_t *ip = eth + ethHeaderLen;
    std::uint8_t *tcp = ip + ipHeaderLen;

    // Ethernet.
    std::memcpy(eth, flow.dstMac.data(), 6);
    std::memcpy(eth + 6, flow.srcMac.data(), 6);
    put16(eth + 12, 0x0800);

    // IPv4.
    ip[0] = 0x45; // version 4, IHL 5
    ip[1] = 0;
    const auto total_len =
        static_cast<std::uint16_t>(ipHeaderLen + tcpHeaderLen +
                                   payload_len);
    put16(ip + 2, total_len);
    put16(ip + 4, ip_id);
    put16(ip + 6, 0x4000); // DF
    ip[8] = 64;            // TTL
    ip[9] = 6;             // TCP
    put16(ip + 10, 0);     // checksum placeholder
    put32(ip + 12, flow.srcIp);
    put32(ip + 16, flow.dstIp);
    put16(ip + 10, inetChecksum({ip, ipHeaderLen}));

    // TCP.
    put16(tcp + 0, flow.srcPort);
    put16(tcp + 2, flow.dstPort);
    put32(tcp + 4, flow.seq);
    put32(tcp + 8, flow.ack);
    tcp[12] = 0x50; // data offset = 5 words
    tcp[13] = flow.flags;
    put16(tcp + 14, flow.window);
    put16(tcp + 16, 0); // checksum placeholder
    put16(tcp + 18, 0);

    // TCP checksum over pseudo-header + TCP header + payload.
    ChecksumAcc acc;
    acc.sum += (flow.srcIp >> 16) + (flow.srcIp & 0xffff);
    acc.sum += (flow.dstIp >> 16) + (flow.dstIp & 0xffff);
    acc.sum += 6; // protocol
    acc.sum += static_cast<std::uint32_t>(tcpHeaderLen + payload_len);
    acc.feed({tcp, tcpHeaderLen});
    feed_payload(acc);
    put16(tcp + 16, acc.finish());

    return h;
}

} // namespace

std::array<std::uint8_t, fullHeaderLen>
buildHeaders(const FlowInfo &flow, std::span<const std::uint8_t> payload,
             std::uint16_t ip_id)
{
    return buildHeadersImpl(flow, payload.size(), ip_id,
                            [&](ChecksumAcc &acc) { acc.feed(payload); });
}

std::array<std::uint8_t, fullHeaderLen>
buildHeaders(const FlowInfo &flow, const BufChain &payload,
             std::uint16_t ip_id)
{
    return buildHeadersImpl(flow, payload.size(), ip_id,
                            [&](ChecksumAcc &acc) { acc.feed(payload); });
}

std::vector<std::uint8_t>
buildFrame(const FlowInfo &flow, std::span<const std::uint8_t> payload,
           std::uint16_t ip_id)
{
    const auto h = buildHeaders(flow, payload, ip_id);
    std::vector<std::uint8_t> frame;
    frame.reserve(h.size() + payload.size());
    frame.assign(h.begin(), h.end());
    if (!payload.empty())
        frame.insert(frame.end(), payload.data(),
                     payload.data() + payload.size());
    return frame;
}

BufChain
buildFrameChain(const FlowInfo &flow, BufChain payload,
                std::uint16_t ip_id)
{
    const auto h = buildHeaders(flow, payload, ip_id);
    // Header synthesis, not a payload copy: write the fresh 54 bytes
    // through a privately owned slab so bufstat stays payload-only.
    Buffer hdr = Buffer::allocate(h.size());
    std::memcpy(hdr.mutableData(), h.data(), h.size());
    BufChain frame(std::move(hdr));
    frame.append(payload);
    return frame;
}

FlowInfo
parseHeaderTemplate(std::span<const std::uint8_t> hdr)
{
    FlowInfo f;
    const std::uint8_t *eth = hdr.data();
    const std::uint8_t *ip = eth + ethHeaderLen;
    const std::uint8_t *tcp = ip + ipHeaderLen;
    std::memcpy(f.dstMac.data(), eth, 6);
    std::memcpy(f.srcMac.data(), eth + 6, 6);
    f.srcIp = get32(ip + 12);
    f.dstIp = get32(ip + 16);
    f.srcPort = get16(tcp + 0);
    f.dstPort = get16(tcp + 2);
    f.seq = get32(tcp + 4);
    f.ack = get32(tcp + 8);
    f.flags = tcp[13];
    f.window = get16(tcp + 14);
    return f;
}

namespace {

/**
 * Field extraction and IP-header validation over a contiguous copy of
 * the first 54 bytes; the caller bounds-checks total_len against the
 * real frame length and verifies the TCP checksum.
 */
bool
parseHeader54(const std::uint8_t *eth, ParsedFrame &out,
              std::uint16_t &total_len)
{
    const std::uint8_t *ip = eth + ethHeaderLen;
    const std::uint8_t *tcp = ip + ipHeaderLen;

    if (get16(eth + 12) != 0x0800)
        return false; // not IPv4
    if ((ip[0] >> 4) != 4 || (ip[0] & 0xf) != 5 || ip[9] != 6)
        return false; // not simple IPv4/TCP
    if (inetChecksum({ip, ipHeaderLen}) != 0)
        return false; // bad IP checksum

    total_len = get16(ip + 2);

    std::memcpy(out.flow.dstMac.data(), eth, 6);
    std::memcpy(out.flow.srcMac.data(), eth + 6, 6);
    out.flow.srcIp = get32(ip + 12);
    out.flow.dstIp = get32(ip + 16);
    out.ipId = get16(ip + 4);
    out.flow.srcPort = get16(tcp + 0);
    out.flow.dstPort = get16(tcp + 2);
    out.flow.seq = get32(tcp + 4);
    out.flow.ack = get32(tcp + 8);
    out.flow.flags = tcp[13];
    out.flow.window = get16(tcp + 14);

    const std::size_t tcp_hdr = std::size_t(tcp[12] >> 4) * 4;
    out.payloadOffset = ethHeaderLen + ipHeaderLen + tcp_hdr;
    out.payloadLen = ethHeaderLen + total_len - out.payloadOffset;
    return true;
}

std::uint32_t
tcpPseudoSeed(const ParsedFrame &f, std::uint16_t total_len)
{
    std::uint32_t seed = 0;
    seed += (f.flow.srcIp >> 16) + (f.flow.srcIp & 0xffff);
    seed += (f.flow.dstIp >> 16) + (f.flow.dstIp & 0xffff);
    seed += 6;
    seed += static_cast<std::uint32_t>(total_len - ipHeaderLen);
    return seed;
}

} // namespace

std::optional<ParsedFrame>
parseFrame(std::span<const std::uint8_t> frame)
{
    if (frame.size() < fullHeaderLen)
        return std::nullopt;

    ParsedFrame out;
    std::uint16_t total_len = 0;
    if (!parseHeader54(frame.data(), out, total_len))
        return std::nullopt;
    if (total_len < ipHeaderLen + tcpHeaderLen ||
        ethHeaderLen + total_len > frame.size())
        return std::nullopt;

    // Verify the TCP checksum (pseudo-header seeded).
    const std::uint16_t csum = inetChecksum(
        frame.subspan(ethHeaderLen + ipHeaderLen, total_len - ipHeaderLen),
        tcpPseudoSeed(out, total_len));
    if (csum != 0)
        return std::nullopt;

    return out;
}

std::optional<ParsedFrame>
parseFrame(const BufChain &frame)
{
    if (frame.size() < fullHeaderLen)
        return std::nullopt;
    // Fast path: a contiguous frame parses in place.
    if (frame.segments().size() == 1)
        return parseFrame(frame.segments().front().span());

    std::array<std::uint8_t, fullHeaderLen> hdr;
    frame.copyOut(0, hdr.data(), hdr.size());

    ParsedFrame out;
    std::uint16_t total_len = 0;
    if (!parseHeader54(hdr.data(), out, total_len))
        return std::nullopt;
    if (total_len < ipHeaderLen + tcpHeaderLen ||
        ethHeaderLen + total_len > frame.size())
        return std::nullopt;

    const std::uint16_t csum = inetChecksum(
        frame.slice(ethHeaderLen + ipHeaderLen, total_len - ipHeaderLen),
        tcpPseudoSeed(out, total_len));
    if (csum != 0)
        return std::nullopt;

    return out;
}

} // namespace net
} // namespace dcs
