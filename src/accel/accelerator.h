/**
 * @file
 * Spatial accelerator model (§V-C): a 1-D vector array for feature
 * aggregation, a 2-D systolic array for GEMM-based embedding update,
 * and a shared SRAM buffer. Two configurations are used in the paper:
 * an SSD-bus-attached instance sized to SSD resource budgets, and a
 * discrete server-scale TPU-like device on PCIe (the CC baseline's
 * compute engine).
 */

#ifndef BEACONGNN_ACCEL_ACCELERATOR_H
#define BEACONGNN_ACCEL_ACCELERATOR_H

#include <string>

#include "accel/systolic.h"
#include "gnn/model.h"
#include "sim/metrics.h"
#include "sim/types.h"

namespace beacongnn::accel {

/** Full accelerator configuration. */
struct AcceleratorConfig
{
    std::string name = "ssd-accel";
    SystolicConfig systolic{};
    std::uint32_t vectorLanes = 64;  ///< 1-D aggregation array width.
    double vectorFreqGHz = 0.5;
    std::uint32_t sramKiB = 512;     ///< Shared operand buffer.
};

/** Time/energy-relevant result of running one mini-batch's compute. */
struct ComputeEstimate
{
    sim::Tick aggregateTime = 0;
    sim::Tick gemmTime = 0;
    std::uint64_t macs = 0;
    std::uint64_t vectorOps = 0;
    std::uint64_t sramBytes = 0;

    sim::Tick total() const { return aggregateTime + gemmTime; }

    /** Sum another mini-batch's estimate into this one. */
    void
    merge(const ComputeEstimate &other)
    {
        aggregateTime += other.aggregateTime;
        gemmTime += other.gemmTime;
        macs += other.macs;
        vectorOps += other.vectorOps;
        sramBytes += other.sramBytes;
    }
};

/**
 * Timing model of one accelerator instance. The accelerator processes
 * mini-batches serially (the firmware pipelines it against data
 * preparation, §VI-D); callers serialize jobs through a sim::Bus.
 */
class Accelerator
{
  public:
    explicit Accelerator(const AcceleratorConfig &cfg_) : cfg(cfg_) {}

    const AcceleratorConfig &config() const { return cfg; }

    /** Estimate the execution of a mini-batch compute workload. */
    ComputeEstimate
    estimate(const gnn::ComputeWorkload &w) const
    {
        ComputeEstimate e;
        for (const auto &g : w.gemms) {
            GemmEstimate ge = estimateGemm(cfg.systolic, g);
            e.gemmTime += cyclesToTicks(cfg.systolic, ge.cycles);
            e.macs += ge.macs;
            e.sramBytes += ge.sramReadBytes + ge.sramWriteBytes;
        }
        // Per-edge model work (GAT attention, GIN epsilon scaling)
        // shares the 1-D vector array with the plain aggregation; the
        // gcn workload has edgeOps == 0 and times exactly as before.
        const std::uint64_t vec_elems =
            w.aggregateElements + w.edgeOps;
        e.vectorOps = vec_elems;
        if (cfg.vectorLanes > 0 && cfg.vectorFreqGHz > 0.0) {
            std::uint64_t cycles =
                (vec_elems + cfg.vectorLanes - 1) /
                cfg.vectorLanes;
            e.aggregateTime = static_cast<sim::Tick>(
                static_cast<double>(cycles) / cfg.vectorFreqGHz);
        }
        e.sramBytes += vec_elems * 2; // FP16 operand reads.
        return e;
    }

  private:
    AcceleratorConfig cfg;
};

/** Add @p jobs mini-batches' summed estimate @p e into `accel.*`
 *  counters. */
inline void
publishEstimate(sim::MetricRegistry &reg, const ComputeEstimate &e,
                std::uint64_t jobs)
{
    reg.counter("accel.jobs").add(jobs);
    reg.counter("accel.macs").add(e.macs);
    reg.counter("accel.vector_ops").add(e.vectorOps);
    reg.counter("accel.sram_bytes").add(e.sramBytes);
    reg.counter("accel.aggregate_ticks").add(e.aggregateTime);
    reg.counter("accel.gemm_ticks").add(e.gemmTime);
}

/** SSD-bus-attached accelerator sized to SSD budgets (Table II). */
AcceleratorConfig ssdAcceleratorConfig();

/** Discrete server-scale TPU-like accelerator (CC baseline). */
AcceleratorConfig discreteTpuConfig();

} // namespace beacongnn::accel

#endif // BEACONGNN_ACCEL_ACCELERATOR_H
