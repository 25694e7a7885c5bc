#include "sim/predictor.h"

#include <algorithm>

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

DirectionPredictor::Impl
DirectionPredictor::makeImpl(PredictorKind kind, unsigned entries,
                             unsigned historyBits)
{
    switch (kind) {
      case PredictorKind::AlwaysTaken:
        return Impl(std::in_place_type<AlwaysTakenPredictor>);
      case PredictorKind::Bimodal:
        return Impl(std::in_place_type<BimodalPredictor>, entries);
      case PredictorKind::Gshare:
        return Impl(std::in_place_type<GsharePredictor>, entries,
                    historyBits);
      case PredictorKind::Tournament:
        return Impl(std::in_place_type<TournamentPredictor>, entries,
                    historyBits);
    }
    panic("unknown predictor kind");
}

BimodalPredictor::BimodalPredictor(unsigned entries)
    : table_(entries, counter2::kWeaklyNotTaken),
      indexMask_(mask(checkedMaskBits(entries)))
{
}

void
BimodalPredictor::reset()
{
    std::fill(table_.begin(), table_.end(), counter2::kWeaklyNotTaken);
}

GsharePredictor::GsharePredictor(unsigned entries, unsigned historyBits)
    : table_(entries, counter2::kWeaklyNotTaken)
{
    BP5_ASSERT(historyBits <= 64, "history wider than the register");
    const unsigned indexBits = checkedMaskBits(entries);
    indexMask_ = mask(indexBits);
    foldMask_ = historyBits == 0 ? 0 : indexMask_;
    rotBack_ = indexBits == 0 ? 0 : indexBits - 1;
    outShift_ = historyBits == 0 ? 0 : historyBits - 1;
    outPos_ = indexBits == 0 ? 0 : historyBits % indexBits;
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), counter2::kWeaklyNotTaken);
    ghr_ = 0;
    folded_ = 0;
}

TournamentPredictor::TournamentPredictor(unsigned entries,
                                         unsigned historyBits)
    : bimodal_(entries), gshare_(entries, historyBits),
      selector_(entries, counter2::kWeaklyNotTaken)
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

DirectionPredictor::DirectionPredictor(PredictorKind kind, unsigned entries,
                                       unsigned historyBits)
    : impl_(makeImpl(kind, entries, historyBits))
{
}

void
DirectionPredictor::reset()
{
    std::visit([](auto &p) { p.reset(); }, impl_);
}

std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, unsigned entries, unsigned historyBits)
{
    return std::make_unique<DirectionPredictor>(kind, entries, historyBits);
}

} // namespace bp5::sim
