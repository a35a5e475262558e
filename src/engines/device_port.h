/**
 * @file
 * The engine-facing view of one SSD of a (possibly single-device)
 * array: the per-device hardware the data-preparation pipeline talks
 * to. The platform layer owns the actual components (DeviceContext in
 * src/platforms/device_context.h); the engine only borrows them, so a
 * devices = 1 run and an array run execute the exact same pipeline
 * code over one or many ports.
 */

#ifndef BEACONGNN_ENGINES_DEVICE_PORT_H
#define BEACONGNN_ENGINES_DEVICE_PORT_H

#include <cstdint>
#include <vector>

#include "sim/resources.h"

namespace beacongnn::cache {
class VertexCache;
} // namespace beacongnn::cache

namespace beacongnn::flash {
class FlashBackend;
} // namespace beacongnn::flash

namespace beacongnn::ssd {
class Firmware;
} // namespace beacongnn::ssd

namespace beacongnn::sim {
class EventQueue;
} // namespace beacongnn::sim

namespace beacongnn::engines {

class CommandRouter;
class DieSampler;

/** Borrowed hardware of one device (none owned). */
struct DevicePort
{
    flash::FlashBackend *backend = nullptr;
    ssd::Firmware *fw = nullptr;
    /** Channel-level command router (BG-2 platforms; else null). */
    CommandRouter *router = nullptr;
    /** Die-level sampler bank of this device. */
    DieSampler *sampler = nullptr;
    /** Device-DRAM vertex/feature cache tier (null = cache off;
     *  DESIGN.md §14). Touched only from this device's event lane. */
    cache::VertexCache *cache = nullptr;
    /** Outbound P2P port (null on a single device). */
    sim::BandwidthResource *p2pOut = nullptr;
    /** This device's own event queue / local clock (required). Cross-
     *  device work must reach a foreign device's queue through the
     *  posting lane's outbox, never by direct scheduling (DESIGN.md
     *  §13, bgnlint BGN006). */
    sim::EventQueue *queue = nullptr;
    /** Chrome-trace pid base of this device's tracks. */
    std::uint32_t tracePidBase = 0;
};

/** Inter-device fabric parameters of an array run. */
struct FabricConfig
{
    /**
     * P2P link hop latency added after the descriptor transfer. It is
     * also the conservative-DES lookahead of an array (DESIGN.md §13):
     * a device cannot affect a neighbour sooner than one hop, so it
     * bounds how far the device clocks may advance independently in
     * one synchronization window. Zero is legal — the driver degrades
     * to serialized single-timestamp windows (deterministic, just not
     * concurrent).
     */
    sim::Tick p2pLatency = 0;
    /** Node → primary-owner device table (null/empty = single
     *  device). Replica k of a node is (owner + k) % devices —
     *  chained declustering, applied by GnnEngine::routeOn. */
    const std::vector<std::uint32_t> *owner = nullptr;
    /** Replication factor R of the placement (DESIGN.md §17), already
     *  clamped to [1, devices] (TopologyConfig::effectiveReplication):
     *  the router may serve a node from any of its R replicas. 1
     *  routes every command to the primary — the historical
     *  behaviour. */
    unsigned replication = 1;
    /** Per-device kill ticks (sim::kTickMax = healthy; null = no kill
     *  schedule). A device is unhealthy for routing decisions made at
     *  or after its kill tick. Borrowed from the platform runner. */
    const std::vector<sim::Tick> *deviceKillAt = nullptr;
};

/** Per-device byte/command tallies of one mini-batch. */
struct DeviceTally
{
    std::uint64_t commands = 0;     ///< Commands executed here.
    std::uint64_t flashReads = 0;   ///< Pages sensed here.
    std::uint64_t featureBytes = 0; ///< Feature payload staged here.
    std::uint64_t p2pForwards = 0;  ///< Commands forwarded out.
    std::uint64_t p2pBytes = 0;     ///< Bytes pushed onto the P2P port.

    void
    merge(const DeviceTally &other)
    {
        commands += other.commands;
        flashReads += other.flashReads;
        featureBytes += other.featureBytes;
        p2pForwards += other.p2pForwards;
        p2pBytes += other.p2pBytes;
    }
};

} // namespace beacongnn::engines

#endif // BEACONGNN_ENGINES_DEVICE_PORT_H
