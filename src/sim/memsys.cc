#include "sim/memsys.h"

#include "sim/cache.h"

namespace bp5::sim {

const char *
memSysModeKey(MemSysParams::Mode m)
{
    switch (m) {
      case MemSysParams::Mode::Classic:
        return "classic";
      case MemSysParams::Mode::Lsq:
        return "lsq";
    }
    return "?";
}

MemorySystem::MemorySystem(const MemSysParams &params, Cache *l1d)
    : params_(params), l1d_(l1d),
      lsq_(params.lsq, params.classic())
{
    if (params_.l1dPrefetch.enabled())
        l1dPf_ = std::make_unique<Prefetcher>(params_.l1dPrefetch, l1d_);
}

void
MemorySystem::beginRun()
{
    lsq_.beginRun();
}

void
MemorySystem::reset()
{
    lsq_.reset();
    if (l1dPf_)
        l1dPf_->reset();
}

} // namespace bp5::sim
