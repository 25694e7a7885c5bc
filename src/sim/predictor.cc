#include "sim/predictor.h"

#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

namespace {

unsigned
checkedMaskBits(unsigned entries)
{
    BP5_ASSERT(isPow2(entries), "predictor table size must be a power of 2");
    return floorLog2(entries);
}

} // namespace

BimodalPredictor::BimodalPredictor(unsigned entries)
    : table_(entries, SatCounter(2, 1)), maskBits_(checkedMaskBits(entries))
{
}

unsigned
BimodalPredictor::index(uint64_t pc) const
{
    return static_cast<unsigned>((pc >> 2) & mask(maskBits_));
}

bool
BimodalPredictor::predict(uint64_t pc) const
{
    return table_[index(pc)].high();
}

void
BimodalPredictor::update(uint64_t pc, bool taken)
{
    table_[index(pc)].update(taken);
}

GsharePredictor::GsharePredictor(unsigned entries, unsigned historyBits)
    : table_(entries, SatCounter(2, 1)),
      maskBits_(checkedMaskBits(entries)), historyBits_(historyBits)
{
    BP5_ASSERT(historyBits_ <= 64, "history wider than the register");
}

unsigned
GsharePredictor::index(uint64_t pc) const
{
    // Histories longer than the index are folded down by XORing
    // maskBits_-wide chunks, the standard gshare construction, so
    // every history bit still participates in the index.
    if (maskBits_ == 0)
        return 0;
    uint64_t h = ghr_ & mask(historyBits_);
    for (unsigned used = maskBits_; used < historyBits_;
         used += maskBits_) {
        h = (h & mask(maskBits_)) ^ (h >> maskBits_);
    }
    return static_cast<unsigned>(((pc >> 2) ^ h) & mask(maskBits_));
}

bool
GsharePredictor::predict(uint64_t pc) const
{
    return table_[index(pc)].high();
}

void
GsharePredictor::update(uint64_t pc, bool taken)
{
    table_[index(pc)].update(taken);
    ghr_ = (ghr_ << 1) | (taken ? 1 : 0);
}

TournamentPredictor::TournamentPredictor(unsigned entries,
                                         unsigned historyBits)
    : bimodal_(entries), gshare_(entries, historyBits),
      selector_(entries, SatCounter(2, 1)),
      maskBits_(checkedMaskBits(entries))
{
}

bool
TournamentPredictor::predict(uint64_t pc) const
{
    unsigned sel = static_cast<unsigned>((pc >> 2) & mask(maskBits_));
    bool use_gshare = selector_[sel].high();
    return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
}

void
TournamentPredictor::update(uint64_t pc, bool taken)
{
    (void)predictUpdate(pc, taken);
}

bool
TournamentPredictor::predictUpdate(uint64_t pc, bool taken)
{
    // The bimodal table and the selector share one index (same size);
    // the gshare index is taken before the history shifts.
    unsigned i = static_cast<unsigned>((pc >> 2) & mask(maskBits_));
    SatCounter &bc = bimodal_.table_[i];
    SatCounter &gc = gshare_.table_[gshare_.index(pc)];
    SatCounter &sc = selector_[i];
    bool b = bc.high();
    bool g = gc.high();
    bool p = sc.high() ? g : b;
    if (b != g)
        sc.update(g == taken);
    bc.update(taken);
    gc.update(taken);
    gshare_.ghr_ = (gshare_.ghr_ << 1) | (taken ? 1 : 0);
    return p;
}

std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, unsigned entries, unsigned historyBits)
{
    switch (kind) {
      case PredictorKind::AlwaysTaken:
        return std::make_unique<AlwaysTakenPredictor>();
      case PredictorKind::Bimodal:
        return std::make_unique<BimodalPredictor>(entries);
      case PredictorKind::Gshare:
        return std::make_unique<GsharePredictor>(entries, historyBits);
      case PredictorKind::Tournament:
        return std::make_unique<TournamentPredictor>(entries, historyBits);
    }
    panic("unknown predictor kind");
}

} // namespace bp5::sim
