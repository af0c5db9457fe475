#include "src/store/lock_table.h"

#include <algorithm>
#include <cassert>

#include "src/util/path.h"

namespace lfs::store {

bool
LockTable::grantable(const Row& row, bool exclusive)
{
    if (exclusive) {
        return row.shared == 0 && !row.exclusive;
    }
    // Shared: grantable unless a writer holds it or is queued ahead
    // (waiter-queue check happens at enqueue time; see lock()).
    return !row.exclusive;
}

uint32_t
LockTable::row_slot(ns::INodeId id)
{
    const auto key = static_cast<uint64_t>(id);
    uint32_t slot = index_.find_exact(key);
    if (slot != 0) {
        return slot;
    }
    slot = free_rows_;
    if (slot != 0) {
        free_rows_ = rows_[slot].next_free;
        rows_[slot] = Row{};
    } else {
        slot = static_cast<uint32_t>(rows_.size());
        rows_.emplace_back();
    }
    index_.insert(key, slot);
    return slot;
}

uint32_t
LockTable::locked_slot(ns::INodeId id) const
{
    const uint32_t slot = index_.find_exact(static_cast<uint64_t>(id));
    assert(slot != 0);
    return slot;
}

void
LockTable::Waiter::await_suspend(std::coroutine_handle<> h)
{
    handle = h;
    Row& row = table->rows_[slot];
    if (row.tail != nullptr) {
        row.tail->next = this;
    } else {
        row.head = this;
    }
    row.tail = this;
}

sim::Task<void>
LockTable::lock(ns::INodeId id, bool exclusive)
{
    const uint32_t slot = row_slot(id);
    Row& row = rows_[slot];
    // FIFO fairness: a request must queue if anyone is already waiting,
    // even if its mode would be compatible with current holders.
    if (row.head == nullptr && grantable(row, exclusive)) {
        if (exclusive) {
            row.exclusive = true;
        } else {
            ++row.shared;
        }
        co_return;
    }
    co_await Waiter{this, slot, exclusive};
    // drain() granted the lock before resuming us.
}

sim::Task<void>
LockTable::lock_shared(ns::INodeId id)
{
    return lock(id, /*exclusive=*/false);
}

sim::Task<void>
LockTable::lock_exclusive(ns::INodeId id)
{
    return lock(id, /*exclusive=*/true);
}

sim::Task<void>
LockTable::lock_exclusive_ordered(std::vector<ns::INodeId>& ids)
{
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < ids.size(); ++i) {
        if (i == 0 || ids[i] != ids[i - 1]) {
            co_await lock(ids[i], /*exclusive=*/true);
        }
    }
}

void
LockTable::drain(ns::INodeId id, uint32_t slot)
{
    Row& row = rows_[slot];
    // Grant the head waiter; if it is shared, batch all consecutive
    // shared waiters behind it.
    while (row.head != nullptr && grantable(row, row.head->exclusive)) {
        Waiter* w = row.head;
        row.head = w->next;
        if (row.head == nullptr) {
            row.tail = nullptr;
        }
        const bool exclusive = w->exclusive;
        if (exclusive) {
            row.exclusive = true;
        } else {
            ++row.shared;
        }
        sim_.schedule(0, w->handle);
        if (exclusive) {
            break;
        }
    }
    if (row.head == nullptr && row.shared == 0 && !row.exclusive) {
        index_.erase_key(static_cast<uint64_t>(id));
        row.next_free = free_rows_;
        free_rows_ = slot;
    }
}

void
LockTable::unlock_shared(ns::INodeId id)
{
    const uint32_t slot = locked_slot(id);
    assert(rows_[slot].shared > 0);
    --rows_[slot].shared;
    drain(id, slot);
}

void
LockTable::unlock_exclusive(ns::INodeId id)
{
    const uint32_t slot = locked_slot(id);
    assert(rows_[slot].exclusive);
    rows_[slot].exclusive = false;
    drain(id, slot);
}

void
LockTable::unlock_exclusive_all(const std::vector<ns::INodeId>& ids)
{
    // Release in descending order (harmless either way; mirrors
    // acquisition). @p ids is the vector lock_exclusive_ordered() sorted.
    assert(std::is_sorted(ids.begin(), ids.end()));
    for (size_t i = ids.size(); i-- > 0;) {
        if (i + 1 == ids.size() || ids[i] != ids[i + 1]) {
            unlock_exclusive(ids[i]);
        }
    }
}

bool
LockTable::is_locked(ns::INodeId id) const
{
    const uint32_t slot = index_.find_exact(static_cast<uint64_t>(id));
    return slot != 0 && (rows_[slot].shared > 0 || rows_[slot].exclusive);
}

Status
LockTable::try_acquire_subtree(const std::string& root_path)
{
    std::string normalized = path::normalize(root_path);
    for (const std::string& active : subtree_roots_) {
        if (path::is_under(normalized, active) ||
            path::is_under(active, normalized)) {
            return Status::failed_precondition(
                "overlapping subtree operation on " + active);
        }
    }
    subtree_roots_.push_back(normalized);
    return Status::make_ok();
}

void
LockTable::release_subtree(const std::string& root_path)
{
    std::string normalized = path::normalize(root_path);
    subtree_roots_.erase(
        std::remove(subtree_roots_.begin(), subtree_roots_.end(), normalized),
        subtree_roots_.end());
}

bool
LockTable::overlaps_active_subtree(const std::string& p) const
{
    for (const std::string& active : subtree_roots_) {
        if (path::is_under(p, active) || path::is_under(active, p)) {
            return true;
        }
    }
    return false;
}

}  // namespace lfs::store
