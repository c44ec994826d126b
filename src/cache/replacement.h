/**
 * @file
 * Victim-selection policies for the dynamic GPU embedding cache.
 *
 * The ScratchPipe [Plan] stage asks for a victim slot whose Hold mask
 * is zero; the policy decides *which* of the eligible slots to evict.
 * The paper defaults to LRU and reports robustness under Random and
 * LFU (Section VI-E), so all three are implemented, plus FIFO.
 *
 * The four policies are a closed set of concrete types, held in the
 * cache::Policy variant rather than behind a virtual interface. Each
 * has an inline touch() and a template chooseVictim(eligible) that
 * takes the eligibility check (the hold-mask test) as any callable and
 * never returns an ineligible slot. A cache dispatches on the variant
 * once per batch or per table (std::visit) and runs its per-ID loop
 * typed on the policy, so touch() and the eligibility check inline and
 * no per-ID call is indirect.
 */

#ifndef SP_CACHE_REPLACEMENT_H
#define SP_CACHE_REPLACEMENT_H

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "tensor/rng.h"

namespace sp::cache
{

/** Which victim-selection policy a cache uses. */
enum class PolicyKind
{
    Lru,
    Lfu,
    Random,
    Fifo,
};

const char *policyName(PolicyKind kind);
PolicyKind policyFromName(const std::string &name);

/** chooseVictim's result when every slot is ineligible (the
 *  capacity-bound failure the controller turns into fatal()). */
inline constexpr uint32_t kNoVictim = 0xffffffffu;

/** True LRU via an intrusive doubly-linked list over slot indices. */
class LruPolicy
{
  public:
    /** Slot 0 starts most recently used and slot n-1 least, so
     *  untouched slots are evicted first, from slot n-1 down to 0. */
    explicit LruPolicy(uint32_t num_slots);

    PolicyKind kind() const { return PolicyKind::Lru; }

    /** Record a reference to `slot` (hit or new insertion). */
    void
    touch(uint32_t slot)
    {
        panicIf(slot >= num_slots_, "LRU touch of bad slot ", slot);
        unlink(slot);
        // Insert at MRU position (right after the sentinel).
        const uint32_t sentinel = num_slots_;
        const uint32_t old_head = next_[sentinel];
        next_[sentinel] = slot;
        prev_[slot] = sentinel;
        next_[slot] = old_head;
        prev_[old_head] = slot;
    }

    /** The least recently used slot where eligible(slot), or
     *  kNoVictim. */
    template <typename Eligible>
    uint32_t
    chooseVictim(const Eligible &eligible)
    {
        const uint32_t sentinel = num_slots_;
        uint32_t victim = kNoVictim;
        // splint:allow(hot-path-transitive-alloc): std::vector::clear, not fault::clear -- severs the false edge
        skipped_.clear();
        for (uint32_t s = prev_[sentinel]; s != sentinel; s = prev_[s]) {
            if (eligible(s)) {
                victim = s;
                break;
            }
            // skipped_ is cleared, never shrunk, so its capacity is
            // retained across calls and bounded by num_slots_.
            // splint:allow(hot-path-transitive-alloc): capacity retained, steady state allocation-free
            skipped_.push_back(s);
        }
        // Ineligible slots at the cold end are held by in-flight
        // mini-batches, i.e. in active use: promote them so the next
        // walk does not wade through the same prefix again (turns the
        // per-batch victim search from O(held) back into O(1)).
        for (uint32_t s : skipped_)
            touch(s);
        return victim;
    }

  private:
    void
    unlink(uint32_t slot)
    {
        next_[prev_[slot]] = next_[slot];
        prev_[next_[slot]] = prev_[slot];
    }

    uint32_t num_slots_;
    // Index num_slots_ acts as the list sentinel.
    std::vector<uint32_t> prev_;
    std::vector<uint32_t> next_;
    std::vector<uint32_t> skipped_;
};

/**
 * Sampled LFU: pick the minimum-frequency eligible slot among random
 * samples (Redis-style approximation); falls back to a full scan when
 * sampling finds nothing eligible.
 */
class LfuPolicy
{
  public:
    LfuPolicy(uint32_t num_slots, uint64_t seed)
        : num_slots_(num_slots), counts_(num_slots, 0), rng_(seed)
    {
    }

    PolicyKind kind() const { return PolicyKind::Lfu; }

    void
    touch(uint32_t slot)
    {
        panicIf(slot >= num_slots_, "LFU touch of bad slot ", slot);
        ++counts_[slot];
    }

    template <typename Eligible>
    uint32_t
    chooseVictim(const Eligible &eligible)
    {
        constexpr int kSamples = 64;
        constexpr int kRounds = 8;
        for (int round = 0; round < kRounds; ++round) {
            uint32_t best = kNoVictim;
            uint64_t best_count = std::numeric_limits<uint64_t>::max();
            for (int i = 0; i < kSamples; ++i) {
                const uint32_t s =
                    static_cast<uint32_t>(rng_.uniformInt(num_slots_));
                if (counts_[s] < best_count && eligible(s)) {
                    best = s;
                    best_count = counts_[s];
                }
            }
            if (best != kNoVictim)
                return best;
        }
        // Full scan fallback (rare: nearly all slots held).
        uint32_t best = kNoVictim;
        uint64_t best_count = std::numeric_limits<uint64_t>::max();
        for (uint32_t s = 0; s < num_slots_; ++s) {
            if (counts_[s] < best_count && eligible(s)) {
                best = s;
                best_count = counts_[s];
            }
        }
        return best;
    }

  private:
    uint32_t num_slots_;
    std::vector<uint64_t> counts_;
    tensor::Rng rng_;
};

/** Uniform-random eviction with a scan fallback. */
class RandomPolicy
{
  public:
    RandomPolicy(uint32_t num_slots, uint64_t seed)
        : num_slots_(num_slots), rng_(seed)
    {
    }

    PolicyKind kind() const { return PolicyKind::Random; }

    void touch(uint32_t) {}

    template <typename Eligible>
    uint32_t
    chooseVictim(const Eligible &eligible)
    {
        constexpr int kProbes = 256;
        for (int i = 0; i < kProbes; ++i) {
            const uint32_t s =
                static_cast<uint32_t>(rng_.uniformInt(num_slots_));
            if (eligible(s))
                return s;
        }
        const uint32_t start =
            static_cast<uint32_t>(rng_.uniformInt(num_slots_));
        for (uint32_t i = 0; i < num_slots_; ++i) {
            const uint32_t s = (start + i) % num_slots_;
            if (eligible(s))
                return s;
        }
        return kNoVictim;
    }

  private:
    uint32_t num_slots_;
    tensor::Rng rng_;
};

/** Circular-hand FIFO. */
class FifoPolicy
{
  public:
    explicit FifoPolicy(uint32_t num_slots) : num_slots_(num_slots) {}

    PolicyKind kind() const { return PolicyKind::Fifo; }

    void touch(uint32_t) {}

    template <typename Eligible>
    uint32_t
    chooseVictim(const Eligible &eligible)
    {
        for (uint32_t i = 0; i < num_slots_; ++i) {
            const uint32_t s = (hand_ + i) % num_slots_;
            if (eligible(s)) {
                hand_ = (s + 1) % num_slots_;
                return s;
            }
        }
        return kNoVictim;
    }

  private:
    uint32_t num_slots_;
    uint32_t hand_ = 0;
};

/** One cache's policy, of any of the four kinds. */
using Policy = std::variant<LruPolicy, LfuPolicy, RandomPolicy, FifoPolicy>;

/** A policy of `kind` over `num_slots` slots; `seed` feeds the
 *  randomized kinds (LFU's samples and Random). */
Policy makePolicy(PolicyKind kind, uint32_t num_slots, uint64_t seed = 1);

} // namespace sp::cache

#endif // SP_CACHE_REPLACEMENT_H
