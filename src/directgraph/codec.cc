#include "directgraph/codec.h"

#include <cstring>

namespace beacongnn::dg {

namespace {

void
put16(std::span<std::uint8_t> out, std::uint32_t off, std::uint16_t v)
{
    out[off] = static_cast<std::uint8_t>(v & 0xff);
    out[off + 1] = static_cast<std::uint8_t>(v >> 8);
}

void
put32(std::span<std::uint8_t> out, std::uint32_t off, std::uint32_t v)
{
    out[off] = static_cast<std::uint8_t>(v & 0xff);
    out[off + 1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
    out[off + 2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
    out[off + 3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint16_t
get16(std::span<const std::uint8_t> in, std::uint32_t off)
{
    return static_cast<std::uint16_t>(in[off] | (in[off + 1] << 8));
}

} // namespace

std::uint32_t
encodePrimary(std::span<std::uint8_t> out, graph::NodeId node,
              std::uint32_t degree,
              std::span<const SecondaryRef> secondaries,
              std::span<const std::uint8_t> feature,
              std::span<const DgAddress> in_page)
{
    std::uint32_t size = primarySectionBytes(
        static_cast<std::uint32_t>(secondaries.size()),
        static_cast<std::uint32_t>(feature.size()),
        static_cast<std::uint32_t>(in_page.size()));
    out[0] = static_cast<std::uint8_t>(SectionType::Primary);
    out[1] = feature.empty() ? 0 : 1;
    put16(out, 2, static_cast<std::uint16_t>(size));
    put32(out, 4, node);
    put32(out, 8, degree);
    put16(out, 12, static_cast<std::uint16_t>(secondaries.size()));
    put16(out, 14, 0);

    std::uint32_t off = kHeaderBytes;
    for (const auto &s : secondaries) {
        put32(out, off, s.addr.raw);
        put32(out, off + 4, s.count);
        off += kSecondaryRefBytes;
    }
    if (!feature.empty()) {
        std::memcpy(out.data() + off, feature.data(), feature.size());
        off += static_cast<std::uint32_t>(feature.size());
    }
    for (const auto &a : in_page) {
        put32(out, off, a.raw);
        off += kAddrBytes;
    }
    return off;
}

std::uint32_t
encodeSecondary(std::span<std::uint8_t> out, graph::NodeId node,
                std::span<const DgAddress> neighbors)
{
    std::uint32_t size =
        secondarySectionBytes(static_cast<std::uint32_t>(neighbors.size()));
    out[0] = static_cast<std::uint8_t>(SectionType::Secondary);
    out[1] = 0;
    put16(out, 2, static_cast<std::uint16_t>(size));
    put32(out, 4, node);
    put32(out, 8, static_cast<std::uint32_t>(neighbors.size()));
    put16(out, 12, 0);
    put16(out, 14, 0);

    std::uint32_t off = kHeaderBytes;
    for (const auto &a : neighbors) {
        put32(out, off, a.raw);
        off += kAddrBytes;
    }
    return off;
}

std::optional<SectionData>
decodeSection(std::span<const std::uint8_t> page, std::uint32_t offset,
              std::uint16_t feature_dim)
{
    if (offset + kHeaderBytes > page.size())
        return std::nullopt;
    auto type = page[offset];
    if (type != static_cast<std::uint8_t>(SectionType::Primary) &&
        type != static_cast<std::uint8_t>(SectionType::Secondary)) {
        return std::nullopt;
    }
    SectionData s;
    s.type = static_cast<SectionType>(type);
    s.hasFeature = (page[offset + 1] & 1) != 0;
    std::uint32_t size = get16(page, offset + 2);
    if (size < kHeaderBytes || offset + size > page.size())
        return std::nullopt;
    s.node = loadLe32(page, offset + 4);
    s.totalNeighbors = loadLe32(page, offset + 8);
    std::uint32_t sec_count = get16(page, offset + 12);

    std::uint32_t off = offset + kHeaderBytes;
    if (s.type == SectionType::Primary) {
        const std::uint32_t refs_bytes = sec_count * kSecondaryRefBytes;
        if (off + refs_bytes > offset + size)
            return std::nullopt;
        s.secondaries = SecondaryList(page.subspan(off, refs_bytes));
        // 64-bit: corrupted counts must not wrap into agreement.
        std::uint64_t covered = 0;
        for (std::uint32_t i = 0; i < sec_count; ++i)
            covered += s.secondaries[i].count;
        off += refs_bytes;
        std::uint32_t feat_bytes =
            s.hasFeature ? std::uint32_t{feature_dim} * 2 : 0;
        if (off + feat_bytes > offset + size)
            return std::nullopt;
        off += feat_bytes; // The feature body is opaque to the decoder.
        std::uint32_t rest = offset + size - off;
        if (rest % kAddrBytes != 0)
            return std::nullopt;
        s.inPage = rest / kAddrBytes;
        // The sections must cover exactly the neighbour count, or a
        // sampler draw beyond their sum would vanish (§VI-E abort).
        if (covered + s.inPage != s.totalNeighbors)
            return std::nullopt;
        s.neighbors = NeighborList(page.subspan(off, rest));
    } else {
        // 64-bit: a corrupted count must not wrap to a plausible size.
        const std::uint64_t expect =
            kHeaderBytes + std::uint64_t{s.totalNeighbors} * kAddrBytes;
        if (expect != size)
            return std::nullopt;
        // A secondary exists only to hold spilled neighbours; an empty
        // one would leave a secondary command nothing to draw from.
        if (s.totalNeighbors == 0)
            return std::nullopt;
        s.neighbors =
            NeighborList(page.subspan(off, size - kHeaderBytes));
    }
    return s;
}

std::optional<SectionData>
findSection(std::span<const std::uint8_t> page, unsigned section_idx,
            std::uint16_t feature_dim)
{
    std::uint32_t offset = 0;
    for (unsigned idx = 0; idx <= section_idx; ++idx) {
        if (offset + kHeaderBytes > page.size())
            return std::nullopt;
        auto sec = decodeSection(page, offset, feature_dim);
        if (!sec)
            return std::nullopt;
        if (idx == section_idx)
            return sec;
        std::uint32_t size = get16(page, offset + 2);
        offset += alignSection(size);
    }
    return std::nullopt;
}

std::vector<SectionData>
decodePage(std::span<const std::uint8_t> page, std::uint16_t feature_dim)
{
    std::vector<SectionData> out;
    std::uint32_t offset = 0;
    while (offset + kHeaderBytes <= page.size() &&
           out.size() < kMaxSectionsPerPage) {
        auto sec = decodeSection(page, offset, feature_dim);
        if (!sec)
            break;
        std::uint32_t size = get16(page, offset + 2);
        out.push_back(*sec);
        offset += alignSection(size);
    }
    return out;
}

} // namespace beacongnn::dg
