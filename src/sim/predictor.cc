#include "sim/predictor.h"

#include <algorithm>

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
    : table_(entries, counter2::kWeaklyNotTaken),
      maskBits_(checkedMaskBits(entries))
{
}

void
BimodalPredictor::reset()
{
    std::fill(table_.begin(), table_.end(), counter2::kWeaklyNotTaken);
}

unsigned
BimodalPredictor::index(uint64_t pc) const
{
    return static_cast<unsigned>((pc >> 2) & mask(maskBits_));
}

bool
BimodalPredictor::predict(uint64_t pc) const
{
    return counter2::high(table_[index(pc)]);
}

void
BimodalPredictor::update(uint64_t pc, bool taken)
{
    counter2::update(table_[index(pc)], taken);
}

GsharePredictor::GsharePredictor(unsigned entries, unsigned historyBits)
    : table_(entries, counter2::kWeaklyNotTaken),
      maskBits_(checkedMaskBits(entries)), historyBits_(historyBits)
{
    BP5_ASSERT(historyBits_ <= 64, "history wider than the register");
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), counter2::kWeaklyNotTaken);
    ghr_ = 0;
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
    return counter2::high(table_[index(pc)]);
}

void
GsharePredictor::update(uint64_t pc, bool taken)
{
    counter2::update(table_[index(pc)], taken);
    ghr_ = (ghr_ << 1) | (taken ? 1 : 0);
}

TournamentPredictor::TournamentPredictor(unsigned entries,
                                         unsigned historyBits)
    : bimodal_(entries), gshare_(entries, historyBits),
      selector_(entries, counter2::kWeaklyNotTaken),
      maskBits_(checkedMaskBits(entries))
{
}

void
TournamentPredictor::reset()
{
    bimodal_.reset();
    gshare_.reset();
    std::fill(selector_.begin(), selector_.end(),
              counter2::kWeaklyNotTaken);
}

bool
TournamentPredictor::predict(uint64_t pc) const
{
    unsigned sel = static_cast<unsigned>((pc >> 2) & mask(maskBits_));
    bool use_gshare = counter2::high(selector_[sel]);
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
    uint8_t &bc = bimodal_.table_[i];
    uint8_t &gc = gshare_.table_[gshare_.index(pc)];
    uint8_t &sc = selector_[i];
    bool b = counter2::high(bc);
    bool g = counter2::high(gc);
    bool p = counter2::high(sc) ? g : b;
    if (b != g)
        counter2::update(sc, g == taken);
    counter2::update(bc, taken);
    counter2::update(gc, taken);
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
