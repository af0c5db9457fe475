/**
 * @file
 * Row-level and subtree-level locking for the persistent metadata store.
 *
 * HopsFS (and therefore λFS) serializes conflicting metadata transactions
 * with per-inode shared/exclusive row locks in NDB, acquired in a global
 * total order (ascending inode id) to avoid deadlock, plus application-
 * level subtree lock flags that give subtree operations isolation (§3.5,
 * Appendix D).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/namespace/inode.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/util/name_table.h"
#include "src/util/status.h"

namespace lfs::store {

/**
 * FIFO-fair shared/exclusive row locks keyed by inode id.
 *
 * Allocation-free in steady state: a locked row's state lives in a slot
 * of a recycled vector, found through an open-addressing id -> slot table
 * (util::ChildTable), and a released row's slot goes on a free list. A
 * request that must wait is queued through its own suspended lock()
 * frame: the awaiter is the FIFO node.
 */
class LockTable {
  public:
    explicit LockTable(sim::Simulation& sim) : sim_(sim) {}

    /** Acquire a shared lock on @p id (waits behind queued writers). */
    sim::Task<void> lock_shared(ns::INodeId id);

    /** Acquire an exclusive lock on @p id. */
    sim::Task<void> lock_exclusive(ns::INodeId id);

    /**
     * Acquire exclusive locks on all of @p ids in ascending-id order
     * (the deadlock-avoidance discipline). Sorts @p ids in place, which
     * must outlive the task; duplicates are locked once.
     */
    sim::Task<void> lock_exclusive_ordered(std::vector<ns::INodeId>& ids);

    void unlock_shared(ns::INodeId id);
    void unlock_exclusive(ns::INodeId id);
    /**
     * Release every lock in @p ids (duplicates once), highest id first.
     * @p ids must be the vector lock_exclusive_ordered() sorted.
     */
    void unlock_exclusive_all(const std::vector<ns::INodeId>& ids);

    /** True if @p id is currently locked in any mode. */
    bool is_locked(ns::INodeId id) const;

    // ------------------------------------------------------------------
    // Subtree operation locks (application-level flags)
    // ------------------------------------------------------------------

    /**
     * Try to flag a subtree operation rooted at @p root_path. Fails with
     * kFailedPrecondition if an active subtree operation overlaps (is an
     * ancestor or descendant of) the requested root.
     */
    Status try_acquire_subtree(const std::string& root_path);

    /** Clear the subtree flag (idempotent). */
    void release_subtree(const std::string& root_path);

    /** True if @p p lies inside (or contains) any active subtree op. */
    bool overlaps_active_subtree(const std::string& p) const;

    size_t active_subtree_ops() const { return subtree_roots_.size(); }

  private:
    /** A lock() request parked in its row's FIFO. It is the awaiter of
        the suspended lock() call, so it lives in that call's frame. */
    struct Waiter {
        LockTable* table;
        uint32_t slot;
        bool exclusive;
        std::coroutine_handle<> handle = {};
        Waiter* next = nullptr;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };
    struct Row {
        int shared = 0;
        bool exclusive = false;
        uint32_t next_free = 0;  ///< free-list link while the slot is free
        Waiter* head = nullptr;  ///< FIFO of waiting requests
        Waiter* tail = nullptr;
    };

    /** True if a lock of the given mode can be granted right now. */
    static bool grantable(const Row& row, bool exclusive);

    /** Slot of @p id's row, creating the row if it has no lock state. */
    uint32_t row_slot(ns::INodeId id);

    /** Slot of @p id's row, which must exist. */
    uint32_t locked_slot(ns::INodeId id) const;

    /** Wake queued waiters that can now be admitted (FIFO, batch shared),
        and recycle the row once nothing holds or awaits it. */
    void drain(ns::INodeId id, uint32_t slot);

    sim::Task<void> lock(ns::INodeId id, bool exclusive);

    sim::Simulation& sim_;
    /** Row slots; slot 0 is never used (it is index_'s empty value). */
    std::vector<Row> rows_ = std::vector<Row>(1);
    uint32_t free_rows_ = 0;  ///< head of the free-slot list (0: none)
    util::ChildTable<uint32_t> index_;  ///< inode id -> row slot
    std::vector<std::string> subtree_roots_;
};

}  // namespace lfs::store
