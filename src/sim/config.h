/**
 * @file
 * Machine configuration for the POWER5-class core model.  Defaults
 * approximate the 1.65 GHz POWER5 studied by the paper (one core, one
 * hardware thread); the fields the paper sweeps — FXU count, BTAC,
 * taken-branch penalty — are first-class knobs.
 */

#ifndef BIOPERF5_SIM_CONFIG_H
#define BIOPERF5_SIM_CONFIG_H

#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/memsys.h"
#include "sim/predictor.h"

namespace bp5::sim {

/** Full machine configuration. */
struct MachineConfig
{
    // Front end.
    unsigned fetchWidth = 8;       ///< POWER5 fetches up to 8 per cycle
    unsigned frontendDepth = 7;    ///< fetch-to-dispatch stages
    unsigned mispredictPenalty = 16; ///< extra redirect cycles on flush
    unsigned takenBranchPenalty = 2; ///< POWER5 taken-branch bubble

    // Dispatch / completion.
    unsigned dispatchWidth = 5;    ///< POWER5 group dispatch
    unsigned commitWidth = 5;      ///< commit throughput cap (paper: 5)
    unsigned robSize = 100;        ///< in-flight instruction window

    // Execution resources (paper Fig 5 sweeps numFXU in 2..4).
    unsigned numFXU = 2;
    unsigned numLSU = 2;
    unsigned numBRU = 1;
    unsigned numCRU = 1;

    // Branch prediction.
    PredictorKind predictor = PredictorKind::Tournament;
    unsigned predictorEntries = 16384;
    unsigned predictorHistoryBits = 11;

    // BTAC (paper section IV-D; disabled on the baseline POWER5).
    bool btacEnabled = false;
    BtacParams btac;

    // Memory hierarchy (POWER5-like).
    CacheParams l1i{"L1I", 64 * 1024, 2, 128, 0};
    CacheParams l1d{"L1D", 32 * 1024, 4, 128, 1};
    // POWER5's L2 is 1.875 MiB 10-way; the model rounds to the nearest
    // power-of-two geometry.
    CacheParams l2{"L2", 2048 * 1024, 16, 128, 12};
    /** Latency charged when the last cache level misses.  The Cache
     *  constructor takes this explicitly (no hard-coded default), so
     *  this field is the single sweepable memory-latency knob. */
    unsigned memLatency = 230;

    // Memory system: classic (pre-LSQ, bit-exact legacy) by default;
    // MemSysParams::Mode::Lsq enables the load/store queue, store
    // forwarding, speculative disambiguation and prefetchers.
    MemSysParams memsys;

    /** Field-wise equality (the experiment driver keys machine reuse
     *  on it). */
    friend bool operator==(const MachineConfig &,
                           const MachineConfig &) = default;

    /** Baseline POWER5 as measured in the paper's section III. */
    static MachineConfig power5Baseline() { return MachineConfig(); }

    /** Baseline plus the paper's eight-entry BTAC (section VI-B). */
    static MachineConfig
    power5WithBtac()
    {
        MachineConfig c;
        c.btacEnabled = true;
        return c;
    }

    /** Baseline with @p n fixed-point units (section VI-C). */
    static MachineConfig
    power5WithFxu(unsigned n)
    {
        MachineConfig c;
        c.numFXU = n;
        return c;
    }

    /** All three enhancements combined (section VI-D). */
    static MachineConfig
    power5Enhanced(unsigned fxu = 4)
    {
        MachineConfig c;
        c.btacEnabled = true;
        c.numFXU = fxu;
        return c;
    }

    /**
     * Baseline with the load/store queue memory system: finite
     * queues, store-to-load forwarding, speculative disambiguation,
     * and (optionally) an L1D prefetcher.
     */
    static MachineConfig
    power5WithLsq(unsigned loads = 16, unsigned stores = 16,
                  PrefetchParams::Kind pf = PrefetchParams::Kind::None)
    {
        MachineConfig c;
        c.memsys.mode = MemSysParams::Mode::Lsq;
        c.memsys.lsq.loads = loads;
        c.memsys.lsq.stores = stores;
        c.memsys.l1dPrefetch.kind = pf;
        return c;
    }
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_CONFIG_H
