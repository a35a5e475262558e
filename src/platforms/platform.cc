#include "platforms/platform.h"

#include <cctype>

#include "sim/log.h"

namespace beacongnn::platforms {

PlatformConfig
makePlatform(PlatformKind kind)
{
    using engines::SamplingLoc;
    PlatformConfig p;
    p.kind = kind;
    p.name = platformName(kind);
    auto &f = p.flags;
    switch (kind) {
      case PlatformKind::CC:
        f.sampling = SamplingLoc::Host; // Neighbour-list pages to the host.
        f.featuresViaHost = true; // Feature pages host -> accel.
        break;
      case PlatformKind::GLIST:
        // Feature lookup + compute offloaded; sampling still host-side.
        f.sampling = SamplingLoc::Host;
        break;
      case PlatformKind::SmartSage:
        f.sampling = SamplingLoc::Firmware;
        f.featuresViaHost = true; // SSD -> host -> discrete accel.
        break;
      case PlatformKind::BG1:
        // Inter-hop host translation remains (the hop barrier).
        f.sampling = SamplingLoc::Firmware;
        break;
      case PlatformKind::BG_DG:
        f.sampling = SamplingLoc::Firmware;
        f.directGraph = true;
        break;
      case PlatformKind::BG_SP:
        f.sampling = SamplingLoc::Die;
        break;
      case PlatformKind::BG_DGSP:
        f.sampling = SamplingLoc::Die;
        f.directGraph = true;
        break;
      case PlatformKind::BG2:
        f.sampling = SamplingLoc::Die;
        f.directGraph = true;
        f.hwRouter = true;
        break;
    }
    return p;
}

const std::vector<PlatformKind> &
allPlatforms()
{
    static const std::vector<PlatformKind> v = {
        PlatformKind::CC,      PlatformKind::SmartSage,
        PlatformKind::GLIST,   PlatformKind::BG1,
        PlatformKind::BG_DG,   PlatformKind::BG_SP,
        PlatformKind::BG_DGSP, PlatformKind::BG2,
    };
    return v;
}

const std::vector<PlatformKind> &
bgLadder()
{
    static const std::vector<PlatformKind> v = {
        PlatformKind::BG1,   PlatformKind::BG_DG,   PlatformKind::BG_SP,
        PlatformKind::BG_DGSP, PlatformKind::BG2,
    };
    return v;
}

std::string
platformName(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::CC: return "CC";
      case PlatformKind::GLIST: return "GLIST";
      case PlatformKind::SmartSage: return "SmartSage";
      case PlatformKind::BG1: return "BG-1";
      case PlatformKind::BG_DG: return "BG-DG";
      case PlatformKind::BG_SP: return "BG-SP";
      case PlatformKind::BG_DGSP: return "BG-DGSP";
      case PlatformKind::BG2: return "BG-2";
    }
    sim::panic("unknown platform kind");
}

namespace {

/** Lowercase with '-'/'_' stripped, so "BG-2" == "bg2". */
std::string
canonical(const std::string &name)
{
    std::string c;
    for (char ch : name) {
        if (ch == '-' || ch == '_')
            continue;
        c.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch))));
    }
    return c;
}

} // namespace

std::optional<PlatformKind>
findPlatform(const std::string &name)
{
    std::string want = canonical(name);
    for (auto kind : allPlatforms())
        if (canonical(platformName(kind)) == want)
            return kind;
    return std::nullopt;
}

std::string
platformNameList()
{
    std::string out;
    for (auto kind : allPlatforms()) {
        if (!out.empty())
            out += ", ";
        out += platformName(kind);
    }
    return out;
}

} // namespace beacongnn::platforms
