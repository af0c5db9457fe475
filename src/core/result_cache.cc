#include "src/core/result_cache.h"

#include <cassert>

#include "src/util/hash.h"

namespace lfs::core {

size_t
ResultCache::Index::home(uint64_t id) const
{
    return static_cast<size_t>(mix64(id)) & (buckets_.size() - 1);
}

int32_t*
ResultCache::Index::find(uint64_t id)
{
    if (size_ == 0) {
        return nullptr;
    }
    size_t mask = buckets_.size() - 1;
    for (size_t i = home(id);; i = (i + 1) & mask) {
        Bucket& b = buckets_[i];
        if (b.id == id) {
            return &b.value;
        }
        if (b.id == 0) {
            return nullptr;
        }
    }
}

void
ResultCache::Index::insert(uint64_t id, int32_t value)
{
    assert(id != 0);
    if (2 * (size_ + 1) > buckets_.size()) {
        grow();
    }
    size_t mask = buckets_.size() - 1;
    size_t i = home(id);
    while (buckets_[i].id != 0) {
        i = (i + 1) & mask;
    }
    buckets_[i] = Bucket{id, value};
    ++size_;
}

void
ResultCache::Index::erase(uint64_t id)
{
    size_t mask = buckets_.size() - 1;
    size_t hole = home(id);
    while (buckets_[hole].id != id) {
        assert(buckets_[hole].id != 0 && "erase of an absent id");
        hole = (hole + 1) & mask;
    }
    // Backward-shift deletion: pull later members of the probe run into
    // the hole unless that would move them before their home bucket.
    for (size_t i = (hole + 1) & mask; buckets_[i].id != 0;
         i = (i + 1) & mask) {
        size_t want = home(buckets_[i].id);
        if (((i - want) & mask) >= ((i - hole) & mask)) {
            buckets_[hole] = buckets_[i];
            hole = i;
        }
    }
    buckets_[hole] = Bucket{};
    --size_;
}

void
ResultCache::Index::grow()
{
    std::vector<Bucket> old(buckets_.empty() ? 64 : 2 * buckets_.size());
    old.swap(buckets_);
    size_ = 0;
    for (const Bucket& b : old) {
        if (b.id != 0) {
            insert(b.id, b.value);
        }
    }
}

ResultCache::ResultCache(sim::Simulation& sim, size_t capacity)
    : sim_(sim), capacity_(capacity)
{
}

ResultCache::Claim
ResultCache::claim(uint64_t op_id)
{
    Claim claim;
    if (op_id == 0 || capacity_ == 0) {
        return claim;
    }
    if (int32_t* slot = index_.find(op_id)) {
        ++hits_;
        if (*slot == Index::kInFlight) {
            claim.in_flight = true;
        } else {
            claim.retained = &ring_[static_cast<size_t>(*slot)].result;
        }
        return claim;
    }
    index_.insert(op_id, Index::kInFlight);
    return claim;
}

sim::Task<OpResult>
ResultCache::join(uint64_t op_id)
{
    // shared_ptr keeps the entry alive across complete()'s erase, and
    // coroutines always run to completion in this simulator, so the gate
    // is guaranteed to open.
    std::shared_ptr<Joined>& slot = joined_[op_id];
    if (!slot) {
        slot = std::make_shared<Joined>(sim_);
    }
    std::shared_ptr<Joined> entry = slot;
    co_await entry->gate.wait();
    co_return entry->result;
}

void
ResultCache::complete(uint64_t op_id, const OpResult& result)
{
    if (op_id == 0 || capacity_ == 0) {
        return;
    }
    auto joined = joined_.find(op_id);
    if (joined != joined_.end()) {
        joined->second->result = result;
        joined->second->gate.set();
        joined_.erase(joined);
    }
    int32_t* entry = index_.find(op_id);
    if (entry != nullptr && *entry != Index::kInFlight) {
        return;  // first completion wins
    }
    size_t slot;
    if (ring_.size() < capacity_) {
        slot = ring_.size();
        ring_.emplace_back();
    } else {
        // Full: reuse the oldest slot, evicting its op id (FIFO).
        slot = oldest_;
        oldest_ = (oldest_ + 1) % capacity_;
        index_.erase(ring_[slot].op_id);
        entry = index_.find(op_id);  // erase may have shifted it
    }
    ring_[slot].op_id = op_id;
    ring_[slot].result = result;
    if (entry != nullptr) {
        *entry = static_cast<int32_t>(slot);
    } else {
        index_.insert(op_id, static_cast<int32_t>(slot));
    }
}

}  // namespace lfs::core
