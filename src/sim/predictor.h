/**
 * @file
 * Conditional-branch direction predictors.  The default POWER5-style
 * predictor is a tournament of a bimodal (per-address) table and a
 * gshare (global-history) table with a per-address selector, mirroring
 * POWER5's three 16K-entry branch history tables.  Every table holds
 * 2-bit counters one per byte (support/saturating_counter.h), so the
 * baseline tournament's three tables are 48 KiB and reset() refills
 * them in place.
 */

#ifndef BIOPERF5_SIM_PREDICTOR_H
#define BIOPERF5_SIM_PREDICTOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/saturating_counter.h"

namespace bp5::sim {

/** Direction predictor kinds selectable from the machine config. */
enum class PredictorKind
{
    AlwaysTaken,
    Bimodal,
    Gshare,
    Tournament, ///< POWER5-style bimodal + gshare + selector
};

/** Abstract direction predictor. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predict the direction of the conditional branch at @p pc. */
    virtual bool predict(uint64_t pc) const = 0;

    /** Train with the actual outcome and update global history. */
    virtual void update(uint64_t pc, bool taken) = 0;

    /**
     * predict() then update() in one call (the timing model's one call
     * per conditional branch); returns the prediction.
     * TournamentPredictor overrides it to look each counter up once.
     */
    virtual bool
    predictUpdate(uint64_t pc, bool taken)
    {
        bool p = predict(pc);
        update(pc, taken);
        return p;
    }

    virtual std::string name() const = 0;

    /**
     * Return to the just-constructed state (every counter weakly
     * not-taken, empty history) in place, without reallocating: a
     * reset predictor predicts bit-identically to a fresh one.
     */
    virtual void reset() = 0;
};

/** Factory. @p entries is the table size (power of two). */
std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, unsigned entries = 16384,
              unsigned historyBits = 11);

/** Static always-taken baseline (for ablation). */
class AlwaysTakenPredictor : public DirectionPredictor
{
  public:
    bool predict(uint64_t) const override { return true; }
    void update(uint64_t, bool) override {}
    std::string name() const override { return "always-taken"; }
    void reset() override {}
};

/** Per-address two-bit counters. */
class BimodalPredictor : public DirectionPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries);
    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    std::string name() const override { return "bimodal"; }
    void reset() override;

  private:
    friend class TournamentPredictor;
    unsigned index(uint64_t pc) const;
    std::vector<uint8_t> table_;
    unsigned maskBits_;
};

/** Global-history-xor-PC indexed two-bit counters. */
class GsharePredictor : public DirectionPredictor
{
  public:
    GsharePredictor(unsigned entries, unsigned historyBits);
    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    std::string name() const override { return "gshare"; }
    void reset() override;

  private:
    friend class TournamentPredictor;
    unsigned index(uint64_t pc) const;
    std::vector<uint8_t> table_;
    unsigned maskBits_;
    unsigned historyBits_;
    uint64_t ghr_ = 0;
};

/**
 * Tournament predictor: bimodal and gshare components plus a
 * per-address selector table choosing between them.
 */
class TournamentPredictor : public DirectionPredictor
{
  public:
    TournamentPredictor(unsigned entries, unsigned historyBits);
    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    bool predictUpdate(uint64_t pc, bool taken) override;
    std::string name() const override { return "tournament"; }
    void reset() override;

  private:
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<uint8_t> selector_;
    unsigned maskBits_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_PREDICTOR_H
