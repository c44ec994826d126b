#include "cache/replacement.h"

#include <algorithm>

namespace sp::cache
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "LRU";
      case PolicyKind::Lfu:
        return "LFU";
      case PolicyKind::Random:
        return "Random";
      case PolicyKind::Fifo:
        return "FIFO";
    }
    panic("unknown PolicyKind");
}

PolicyKind
policyFromName(const std::string &name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "lru")
        return PolicyKind::Lru;
    if (lower == "lfu")
        return PolicyKind::Lfu;
    if (lower == "random")
        return PolicyKind::Random;
    if (lower == "fifo")
        return PolicyKind::Fifo;
    fatal("unknown replacement policy '", name, "'");
}

LruPolicy::LruPolicy(uint32_t num_slots)
    : num_slots_(num_slots), prev_(num_slots + 1ull), next_(num_slots + 1ull)
{
    for (uint32_t s = 0; s <= num_slots_; ++s) {
        next_[s] = s + 1 <= num_slots_ ? s + 1 : 0;
        prev_[s] = s > 0 ? s - 1 : num_slots_;
    }
}

Policy
makePolicy(PolicyKind kind, uint32_t num_slots, uint64_t seed)
{
    switch (kind) {
      case PolicyKind::Lru:
        return LruPolicy(num_slots);
      case PolicyKind::Lfu:
        return LfuPolicy(num_slots, seed);
      case PolicyKind::Random:
        return RandomPolicy(num_slots, seed);
      case PolicyKind::Fifo:
        return FifoPolicy(num_slots);
    }
    panic("unknown PolicyKind");
}

} // namespace sp::cache
