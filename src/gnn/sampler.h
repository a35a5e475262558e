/**
 * @file
 * Golden (host-side) neighbour samplers.
 *
 * Two sampling disciplines exist in the system:
 *
 *  - csrSample(): plain uniform sampling over the full neighbour list
 *    (what the host CPU of the CC/GLIST platforms and the firmware of
 *    SmartSage/BG-1 do).
 *
 *  - layoutSample(): the DirectGraph two-level discipline of §V-A —
 *    fanout draws over the full range; draws landing in the in-page
 *    portion resolve immediately, draws landing in a secondary
 *    section are *re-drawn within that section* by the coalesced
 *    secondary command (modulo a TRNG value, per the paper). This is
 *    exactly what the die-level sampler executes, so the two must
 *    produce identical subgraphs — the core equivalence property.
 *
 * Both use keyed, order-independent randomness (sim/rng.h), so any
 * execution order (hop-by-hop, out-of-order, streaming) yields the
 * same subgraph for the same seed.
 */

#ifndef BEACONGNN_GNN_SAMPLER_H
#define BEACONGNN_GNN_SAMPLER_H

#include <array>
#include <cstdint>
#include <span>

#include "directgraph/codec.h"
#include "gnn/model.h"
#include "gnn/subgraph.h"
#include "graph/graph.h"

namespace beacongnn::gnn {

/** Draw-index base for secondary-section re-draws (see sampler.cc). */
inline constexpr std::uint32_t kSecondaryDrawBase = 1024;
inline constexpr std::uint32_t kSecondaryDrawStride = 64;

/**
 * Sample the full mini-batch subgraph with plain CSR semantics.
 *
 * @param g       Graph.
 * @param m       Model (hops, fanout, seed).
 * @param batch   Mini-batch id (keys the RNG).
 * @param targets Target nodes of this mini-batch.
 */
Subgraph csrSample(const graph::Graph &g, const ModelConfig &m,
                   std::uint64_t batch,
                   std::span<const graph::NodeId> targets);

/**
 * Sample the full mini-batch subgraph with DirectGraph two-level
 * semantics, following the layout's in-page/secondary split.
 */
Subgraph layoutSample(const graph::Graph &g,
                      const dg::DirectGraphLayout &layout,
                      const ModelConfig &m, std::uint64_t batch,
                      std::span<const graph::NodeId> targets);

/** Most draws one command makes: fanouts and sample counts are
 *  8-bit. */
inline constexpr std::size_t kMaxDraws = 255;

/** Up to kMaxDraws drawn values in a fixed array: a draw never
 *  touches the heap. */
class Draws
{
  public:
    void push(std::uint32_t v) { vals[n++] = v; }
    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
    std::uint32_t operator[](std::size_t i) const { return vals[i]; }
    const std::uint32_t *begin() const { return vals.data(); }
    const std::uint32_t *end() const { return vals.data() + n; }
    std::uint32_t *begin() { return vals.data(); }
    std::uint32_t *end() { return vals.data() + n; }

  private:
    std::array<std::uint32_t, kMaxDraws> vals;
    std::uint8_t n = 0;
};

/**
 * The uniform draw every sampler starts from: @p fanout indices over
 * [0, @p degree), draw i keyed on (seed, batch, hop, node, i); none
 * when the node has no neighbours. csrSample(), drawPrimary() and the
 * engine's barrier pipeline all draw through it.
 */
Draws drawUniform(std::uint64_t seed, std::uint64_t batch,
                  std::uint8_t hop, graph::NodeId node,
                  std::uint8_t fanout, std::uint32_t degree);

/**
 * The primary-section sampling kernel shared by layoutSample() and
 * the die-level sampler model: the uniform draw over [0, degree); the
 * in-page picks resolve directly, and the draws that land in
 * secondary sections become coalesced continuation commands.
 */
struct PrimaryDraws
{
    /** In-page picks in draw order: indices < inPage (resolve on
     *  this page). */
    Draws inPage;
    /** The secondary ordinal of every other draw, sorted ascending:
     *  each run of one ordinal is that section's hit count. */
    Draws secondary;

    /** Call @p fn(ordinal, hits) per secondary section hit, in
     *  ascending ordinal order. */
    template <typename Fn>
    void
    forEachSecondaryHit(Fn &&fn) const
    {
        for (std::size_t i = 0; i < secondary.size();) {
            std::size_t end = i + 1;
            while (end < secondary.size() && secondary[end] == secondary[i])
                ++end;
            fn(secondary[i], static_cast<std::uint8_t>(end - i));
            i = end;
        }
    }
};

PrimaryDraws drawPrimary(std::uint64_t seed, std::uint64_t batch,
                         std::uint8_t hop, graph::NodeId node,
                         std::uint8_t fanout, std::uint32_t degree,
                         std::uint32_t in_page,
                         dg::SecondaryList secondaries);

/**
 * The secondary-section re-draw kernel: draw indices
 * [first_draw, first_draw + count) within a section of
 * @p section_size entries, keyed on the owning node, the hop and the
 * secondary index — so a coalesced command (first_draw = 0, count =
 * hits) and `hits` non-coalesced single-draw commands produce the
 * exact same picks (the coalescing ablation relies on this).
 */
Draws drawSecondary(std::uint64_t seed, std::uint64_t batch,
                    std::uint8_t hop, graph::NodeId node,
                    std::uint32_t secondary_idx, std::uint32_t first_draw,
                    std::uint8_t count, std::uint32_t section_size);

} // namespace beacongnn::gnn

#endif // BEACONGNN_GNN_SAMPLER_H
