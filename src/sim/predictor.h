/**
 * @file
 * Conditional-branch direction predictors.  The default POWER5-style
 * predictor is a tournament of a bimodal (per-address) table and a
 * gshare (global-history) table with a per-address selector, mirroring
 * POWER5's three 16K-entry branch history tables.  Every table holds
 * 2-bit counters one per byte (support/saturating_counter.h), so the
 * baseline tournament's three tables are 48 KiB and reset() refills
 * them in place.
 *
 * The four kinds are plain classes with inline lookups.  The machine
 * holds its configured one as a DirectionPredictor, a concrete
 * std::variant over them, so the timing model's one call per
 * conditional branch is a switch on the kind, not a virtual call.
 */

#ifndef BIOPERF5_SIM_PREDICTOR_H
#define BIOPERF5_SIM_PREDICTOR_H

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "support/bitfield.h"
#include "support/saturating_counter.h"

namespace bp5::sim {

/** Direction predictor kinds selectable from the machine config (in
 *  the order of DirectionPredictor's alternatives). */
enum class PredictorKind
{
    AlwaysTaken,
    Bimodal,
    Gshare,
    Tournament, ///< POWER5-style bimodal + gshare + selector
};

/*
 * Every kind has the same members:
 *  - predict(pc): the direction predicted for the conditional branch
 *    at pc;
 *  - update(pc, taken): train with the actual outcome and shift it into
 *    the global history;
 *  - predictUpdate(pc, taken): predict() then update() in one call,
 *    looking each counter up once; returns the prediction;
 *  - reset(): the just-constructed state (every counter weakly
 *    not-taken, empty history) in place, without reallocating.
 */

/** Static always-taken baseline (for ablation). */
class AlwaysTakenPredictor
{
  public:
    bool predict(uint64_t) const { return true; }
    void update(uint64_t, bool) {}
    bool predictUpdate(uint64_t, bool) { return true; }
    void reset() {}
};

/** Per-address two-bit counters. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries);
    bool
    predict(uint64_t pc) const
    {
        return counter2::high(table_[index(pc)]);
    }
    void
    update(uint64_t pc, bool taken)
    {
        counter2::update(table_[index(pc)], taken);
    }
    bool
    predictUpdate(uint64_t pc, bool taken)
    {
        uint8_t &c = table_[index(pc)];
        bool p = counter2::high(c);
        counter2::update(c, taken);
        return p;
    }
    void reset();

  private:
    friend class TournamentPredictor;
    unsigned
    index(uint64_t pc) const
    {
        return static_cast<unsigned>((pc >> 2) & indexMask_);
    }
    std::vector<uint8_t> table_;
    uint64_t indexMask_;
};

/**
 * Global-history-xor-PC indexed two-bit counters.  Histories longer
 * than the index are folded down by XORing index-width chunks, the
 * standard gshare construction, so every history bit still takes part
 * in the index.  The fold is kept incrementally: each outcome rotates
 * it one bit, drops the bit leaving the history window and adds the
 * new one, so an index costs one XOR whatever the history length.
 */
class GsharePredictor
{
  public:
    GsharePredictor(unsigned entries, unsigned historyBits);
    bool
    predict(uint64_t pc) const
    {
        return counter2::high(table_[index(pc)]);
    }
    void
    update(uint64_t pc, bool taken)
    {
        counter2::update(table_[index(pc)], taken);
        push(taken);
    }
    bool
    predictUpdate(uint64_t pc, bool taken)
    {
        uint8_t &c = table_[index(pc)];
        bool p = counter2::high(c);
        counter2::update(c, taken);
        push(taken);
        return p;
    }
    void reset();

    /** Table index of the branch at @p pc under the current history:
     *  its word address XOR the folded history. */
    unsigned
    index(uint64_t pc) const
    {
        return static_cast<unsigned>(((pc >> 2) ^ folded_) & indexMask_);
    }

  private:
    friend class TournamentPredictor;

    /**
     * Shift @p taken into the history.  History bit i sits at bit
     * i mod indexBits of the fold, so a shift rotates the fold left by
     * one, cancels the bit that leaves the historyBits-wide window (it
     * would land at historyBits mod indexBits) and adds the new bit.
     */
    void
    push(bool taken)
    {
        const uint64_t t = taken ? 1 : 0;
        const uint64_t out = (ghr_ >> outShift_) & 1;
        const uint64_t rot = (folded_ << 1) | (folded_ >> rotBack_);
        folded_ = (rot ^ (out << outPos_) ^ t) & foldMask_;
        ghr_ = (ghr_ << 1) | t;
    }

    std::vector<uint8_t> table_;
    uint64_t indexMask_;
    uint64_t foldMask_;  ///< indexMask_, or 0 when no history is kept
    unsigned rotBack_;   ///< indexBits - 1 (0 for a 1-entry table)
    unsigned outShift_;  ///< historyBits - 1: the oldest history bit
    unsigned outPos_;    ///< historyBits mod indexBits
    uint64_t ghr_ = 0;    ///< outcomes, newest in bit 0
    uint64_t folded_ = 0; ///< low historyBits of ghr_, folded
};

/**
 * Tournament predictor: bimodal and gshare components plus a
 * per-address selector table choosing between them.
 */
class TournamentPredictor
{
  public:
    TournamentPredictor(unsigned entries, unsigned historyBits);
    bool
    predict(uint64_t pc) const
    {
        bool use_gshare = counter2::high(selector_[bimodal_.index(pc)]);
        return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
    }
    void update(uint64_t pc, bool taken) { (void)predictUpdate(pc, taken); }
    bool
    predictUpdate(uint64_t pc, bool taken)
    {
        // The bimodal table and the selector share one index (same
        // size); the gshare index is taken before the history shifts.
        unsigned i = bimodal_.index(pc);
        uint8_t &bc = bimodal_.table_[i];
        uint8_t &gc = gshare_.table_[gshare_.index(pc)];
        uint8_t &sc = selector_[i];
        bool b = counter2::high(bc);
        bool g = counter2::high(gc);
        bool p = counter2::high(sc) ? g : b;
        // The selector moves toward the component that was right, only
        // when the two disagree: a select, not a branch on the outcome.
        const uint8_t moved = counter2::next(sc, g == taken);
        sc = b != g ? moved : sc;
        counter2::update(bc, taken);
        counter2::update(gc, taken);
        gshare_.push(taken);
        return p;
    }
    void reset();

  private:
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<uint8_t> selector_;
};

/**
 * The configured direction predictor: one of the four kinds, held by
 * value.  Each call dispatches on the kind and runs the kind's inline
 * member (see the comment above AlwaysTakenPredictor); update() and
 * predictUpdate(), the per-branch calls, inline the whole switch.
 * @p entries is the table size (power of two).
 */
class DirectionPredictor
{
    using Impl = std::variant<AlwaysTakenPredictor, BimodalPredictor,
                              GsharePredictor, TournamentPredictor>;

    /** @p f applied to the held predictor: std::visit as a plain
     *  switch, which the hot callers can inline. */
    template <typename F>
    [[gnu::always_inline]] decltype(auto)
    onKind(F &&f)
    {
        switch (kind()) {
          case PredictorKind::AlwaysTaken:
            return f(*std::get_if<AlwaysTakenPredictor>(&impl_));
          case PredictorKind::Bimodal:
            return f(*std::get_if<BimodalPredictor>(&impl_));
          case PredictorKind::Gshare:
            return f(*std::get_if<GsharePredictor>(&impl_));
          case PredictorKind::Tournament:
            break;
        }
        return f(*std::get_if<TournamentPredictor>(&impl_));
    }

  public:
    explicit DirectionPredictor(PredictorKind kind,
                                unsigned entries = 16384,
                                unsigned historyBits = 11);

    PredictorKind
    kind() const
    {
        return static_cast<PredictorKind>(impl_.index());
    }

    bool
    predict(uint64_t pc) const
    {
        return std::visit([pc](const auto &p) { return p.predict(pc); },
                          impl_);
    }
    void
    update(uint64_t pc, bool taken)
    {
        onKind([pc, taken](auto &p) { p.update(pc, taken); });
    }
    /** The timing model's one call per conditional branch. */
    [[gnu::always_inline]] bool
    predictUpdate(uint64_t pc, bool taken)
    {
        return onKind(
            [pc, taken](auto &p) { return p.predictUpdate(pc, taken); });
    }
    /** Bit-identical to a fresh predictor of the same configuration. */
    void reset();

  private:
    static Impl makeImpl(PredictorKind kind, unsigned entries,
                         unsigned historyBits);

    Impl impl_;
};

/** A heap-allocated DirectionPredictor. */
std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, unsigned entries = 16384,
              unsigned historyBits = 11);

} // namespace bp5::sim

#endif // BIOPERF5_SIM_PREDICTOR_H
