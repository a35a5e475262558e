/**
 * @file
 * The eight evaluation platforms (§VII-A) as feature-flag
 * compositions over the unified timing model. See DESIGN.md §3 for
 * the full feature matrix.
 */

#ifndef BEACONGNN_PLATFORMS_PLATFORM_H
#define BEACONGNN_PLATFORMS_PLATFORM_H

#include <optional>
#include <string>
#include <vector>

#include "engines/gnn_engine.h"

namespace beacongnn::platforms {

/** Platform identities of the evaluation section. */
enum class PlatformKind : std::uint8_t
{
    CC,        ///< CPU-centric baseline (discrete accelerator).
    GLIST,     ///< Feature-table offload [44].
    SmartSage, ///< Sampling offload [40].
    BG1,       ///< BeaconGNN-1.0: combined prior offloads.
    BG_DG,     ///< BG-1 + DirectGraph.
    BG_SP,     ///< BG-1 + die-level samplers.
    BG_DGSP,   ///< BG-DG + BG-SP.
    BG2,       ///< BeaconGNN-2.0: + channel-level command routing.
};

/** Full platform description consumed by the runner. */
struct PlatformConfig
{
    PlatformKind kind = PlatformKind::CC;
    std::string name;
    engines::PrepFlags flags;
};

/** Build the configuration of one platform. */
PlatformConfig makePlatform(PlatformKind kind);

/** All platforms in the paper's presentation order. */
const std::vector<PlatformKind> &allPlatforms();

/** The BG-X ladder only (BG-1 ... BG-2), for the sensitivity tests. */
const std::vector<PlatformKind> &bgLadder();

/** Short display name ("BG-DGSP"). */
std::string platformName(PlatformKind kind);

/**
 * Lookup by display name, tolerant of case and punctuation ("bg2",
 * "BG2" and "BG-2" all resolve). Empty when the name is unknown.
 */
std::optional<PlatformKind> findPlatform(const std::string &name);

/** All platform display names, comma-separated (for CLI messages). */
std::string platformNameList();

} // namespace beacongnn::platforms

#endif // BEACONGNN_PLATFORMS_PLATFORM_H
