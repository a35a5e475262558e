/**
 * @file
 * Die-level sampler (§V-A, Fig. 10/11).
 *
 * The functional model of the processing logic placed in the flash
 * die's control circuitry: a section iterator (performed by the
 * SectionSource lookup), a vector retriever, a node sampler and a
 * command generator, fed by a TRNG (modelled as keyed deterministic
 * randomness so out-of-order execution is reproducible and testable).
 *
 * Behaviour per command:
 *  - primary section, hop < K: retrieve the feature vector, draw
 *    `fanout` samples over the full neighbour range; in-page hits
 *    become next-hop sampling commands at the neighbour's primary
 *    address; hits in the same secondary section coalesce into one
 *    continuation command carrying the hit count.
 *  - secondary section: re-draw `sampleCount` indices within the
 *    section (modulo a TRNG value, per the paper) and emit next-hop
 *    commands.
 *  - primary section, hop == K (final): retrieve the feature only.
 *  - section missing, of the wrong type, or naming another node than
 *    the command expects (GnnSampleParams::nodeHint): abort with
 *    ok = false and return control to the firmware (§VI-E).
 *
 * The sampler writes each command's result into a frame the caller
 * owns and reuses, and draws into fixed arrays (gnn/sampler.h), so a
 * command allocates nothing.
 */

#ifndef BEACONGNN_ENGINES_DIE_SAMPLER_H
#define BEACONGNN_ENGINES_DIE_SAMPLER_H

#include "directgraph/source.h"
#include "flash/onfi.h"
#include "gnn/model.h"
#include "sim/metrics.h"
#include "ssd/config.h"

namespace beacongnn::engines {

/** Global die configuration derived from a model spec: sampling
 *  schedule, feature geometry and per-edge payload width. */
inline flash::GnnGlobalConfig
gnnGlobalConfig(const gnn::ModelSpec &m)
{
    flash::GnnGlobalConfig cfg;
    cfg.hops = m.hops;
    cfg.fanout = m.fanout;
    cfg.featureDim = m.featureDim;
    cfg.featureBytesPerElem = 2;
    cfg.seed = m.seed;
    cfg.fanouts = m.fanouts;
    cfg.edgeCoeffBytes = static_cast<std::uint8_t>(m.edgeCoeffBytes());
    return cfg;
}

/** Behavioural options (ablations). */
struct DieSamplerOptions
{
    /** Coalesce same-secondary-section hits into one command (§V-A);
     *  disabling this issues one command per hit (ablation). */
    bool coalesceSecondary = true;
};

/** Functional + latency model of the on-die sampler. */
class DieSampler
{
  public:
    DieSampler(const ssd::EngineConfig &engine_cfg,
               const flash::GnnGlobalConfig &gnn_cfg,
               const DieSamplerOptions &options = {})
        : ecfg(engine_cfg), gcfg(gnn_cfg), opts(options)
    {
    }

    const flash::GnnGlobalConfig &gnnConfig() const { return gcfg; }

    /** Re-arm the die with a new global configuration (model switch;
     *  the engine re-broadcasts the config frame afterwards). */
    void setGnnConfig(const flash::GnnGlobalConfig &gnn_cfg)
    {
        gcfg = gnn_cfg;
    }

    /**
     * Execute one sampling command against a decoded section.
     *
     * @param section Decoded content (nullopt = missing -> abort).
     * @param params  Command parameters.
     * @param out     Result frame, overwritten: the follow-up commands
     *                (parentSlot left 0 for the engine to assign).
     */
    void
    execute(const std::optional<dg::SectionData> &section,
            const flash::GnnSampleParams &params,
            flash::GnnSampleResult &out) const
    {
        out.reset();
        executeImpl(section, params, out);
        ++_executed;
        if (!out.ok)
            ++_aborted;
        _emitted += out.follow.size();
    }

    /** Publish sampler instruments into @p reg under @p prefix. */
    void
    publishMetrics(sim::MetricRegistry &reg,
                   const std::string &prefix = "engine.sampler") const
    {
        reg.counter(prefix + ".executed").add(_executed);
        reg.counter(prefix + ".aborted").add(_aborted);
        reg.counter(prefix + ".emitted").add(_emitted);
    }

    /** On-die execution latency of a completed command. */
    sim::Tick
    latency(const flash::GnnSampleResult &result) const
    {
        return ecfg.samplerSetup +
               ecfg.samplerPerDraw *
                   static_cast<sim::Tick>(result.follow.size());
    }

  private:
    void executeImpl(const std::optional<dg::SectionData> &section,
                     const flash::GnnSampleParams &params,
                     flash::GnnSampleResult &res) const;

    ssd::EngineConfig ecfg;
    flash::GnnGlobalConfig gcfg;
    DieSamplerOptions opts;
    // The sampler model is stateless; the tallies are observability
    // only (mutable so execute() stays const for callers).
    mutable std::uint64_t _executed = 0;
    mutable std::uint64_t _aborted = 0;
    mutable std::uint64_t _emitted = 0;
};

} // namespace beacongnn::engines

#endif // BEACONGNN_ENGINES_DIE_SAMPLER_H
