/**
 * @file
 * Branch Target Address Cache, as proposed in section IV-D of the
 * paper: a tiny fully-associative table of (tag, nia, score) entries.
 * A confident (high-score) hit supplies the next-instruction address at
 * fetch and removes the POWER5 2-cycle taken-branch bubble; the
 * saturating score doubles as the replacement priority so hard-to-
 * predict branches forgo prediction.
 */

#ifndef BIOPERF5_SIM_BTAC_H
#define BIOPERF5_SIM_BTAC_H

#include <cstdint>
#include <vector>

namespace bp5::sim {

/** BTAC configuration. */
struct BtacParams
{
    unsigned entries = 8;       ///< paper default: eight entries
    unsigned scoreBits = 3;     ///< saturating score width
    unsigned predictThreshold = 7; ///< predict when score >= threshold
    unsigned initialScore = 0;  ///< paper: zero in the default config
    /**
     * Zero the score when a used prediction was wrong (instead of a
     * plain decrement).  This implements the paper's intent that
     * "hard-to-predict branches will have low scores; the BTAC will
     * forgo prediction for such branches": only branches with long
     * correct streaks (loop back edges) earn predictions, which keeps
     * the BTAC misprediction rate in the paper's 1.4-2.5% band.
     */
    bool resetOnMispredict = true;

    friend bool operator==(const BtacParams &,
                           const BtacParams &) = default;
};

/** BTAC statistics. */
struct BtacStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;          ///< tag matches
    uint64_t predictions = 0;   ///< confident hits used for fetch
    uint64_t correct = 0;       ///< used and target+direction correct
    uint64_t mispredicts = 0;   ///< used and wrong (costly redirect)
    uint64_t allocations = 0;

    double mispredictRate() const
    {
        return predictions ? double(mispredicts) / double(predictions)
                           : 0.0;
    }
};

/** The BTAC model. */
class Btac
{
  public:
    explicit Btac(const BtacParams &params = BtacParams());

    /** Result of a fetch-time lookup. */
    struct Lookup
    {
        bool hit = false;      ///< tag matched
        bool predict = false;  ///< confident enough to redirect fetch
        uint64_t nia = 0;      ///< predicted next instruction address
    };

    /** Look up the fetch address @p pc. */
    Lookup lookup(uint64_t pc);

    /**
     * Train after the branch resolves.
     * @param pc branch address
     * @param taken actual direction
     * @param target actual target (valid when taken)
     * @param used the lookup result that guided fetch for this instance
     */
    void update(uint64_t pc, bool taken, uint64_t target,
                const Lookup &used);

    const BtacStats &stats() const { return stats_; }

    /**
     * Return to the just-constructed state (no entries, zero stats)
     * in place, keeping the table's storage.
     */
    void reset();

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t nia = 0;
        unsigned score = 0;
    };

    int findEntry(uint64_t pc) const;

    BtacParams params_;
    unsigned scoreMax_;
    std::vector<Entry> entries_;
    BtacStats stats_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_BTAC_H
