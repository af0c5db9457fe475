/**
 * @file
 * Deployment-scoped retained-result cache for transparently resubmitted
 * requests (§3.2). One cache is shared by every NameNode instance of a
 * deployment, which closes the two holes a per-instance cache leaves
 * under faults:
 *
 *  - an instance that executed an op and died before its reply was
 *    delivered takes a per-instance cache with it, so the client's
 *    resubmission would re-execute a committed non-idempotent op on the
 *    replacement instance (surfacing a spurious ALREADY_EXISTS /
 *    NOT_FOUND for an acknowledged-committable write);
 *  - a resubmission racing the still-in-flight original would execute
 *    concurrently; whichever finished last would overwrite the recorded
 *    result, letting the duplicate's error clobber the original's OK.
 *
 * claim() therefore distinguishes *done* results (replayed, failures
 * included), *in-flight* executions (the caller awaits join() and gets
 * the original's result), and unseen ids (the caller becomes the
 * executor and must call complete()). The first completion wins;
 * duplicates never execute.
 *
 * Every op passes through here, so the common path is cheap: claim() is
 * synchronous, the join gate exists only once a duplicate waits, and
 * retained results live in a fixed FIFO ring whose slots are
 * copy-assigned in place (their vectors and strings keep their capacity),
 * indexed by an open-addressing table — no allocation per op in steady
 * state.
 *
 * In the real system this table lives in the serverless functions'
 * shared persistent store; the simulator charges the lookup through the
 * NameNode's compute path at its call sites.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/namespace/op.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace lfs::core {

class ResultCache {
  public:
    /** @p capacity bounds retained *done* results (0 disables caching). */
    ResultCache(sim::Simulation& sim, size_t capacity);

    /** What claim() found for one (re)submitted op id. */
    struct Claim {
        /**
         * The retained result when the op already completed: copy it
         * before the next complete(), which may reuse its slot.
         */
        const OpResult* retained = nullptr;
        /** The original is still executing: co_await join(op_id). */
        bool in_flight = false;
        /** Neither: the caller executes the op and calls complete(). */
        bool execute() const { return retained == nullptr && !in_flight; }
    };

    /**
     * Dedup entry point for one (re)submitted request. Registers the
     * caller as the executor when @p op_id is unseen. Op id 0 and a
     * zero-capacity cache always execute and are never recorded.
     */
    Claim claim(uint64_t op_id);

    /**
     * Wait for the in-flight original of @p op_id (claim() said
     * in_flight) and return its result.
     */
    sim::Task<OpResult> join(uint64_t op_id);

    /** Record @p op_id's outcome and release any joined resubmissions. */
    void complete(uint64_t op_id, const OpResult& result);

    /** Resubmissions answered without executing (replays and joins). */
    uint64_t hits() const { return hits_; }

  private:
    /** op_id -> slot; open addressing, linear probing, op id 0 = empty. */
    class Index {
      public:
        static constexpr int32_t kInFlight = -1;

        /** The value stored for @p id, or nullptr. */
        int32_t* find(uint64_t id);
        /** Insert @p id (absent) with @p value. */
        void insert(uint64_t id, int32_t value);
        /** Remove @p id (present). */
        void erase(uint64_t id);

      private:
        struct Bucket {
            uint64_t id = 0;
            int32_t value = 0;
        };

        size_t home(uint64_t id) const;
        void grow();

        std::vector<Bucket> buckets_;  ///< power-of-two size, <= 1/2 full
        size_t size_ = 0;
    };

    /** One retained result, reused in FIFO order once the ring is full. */
    struct Slot {
        uint64_t op_id = 0;
        OpResult result;
    };

    /** A duplicate waiting on the original's completion. */
    struct Joined {
        explicit Joined(sim::Simulation& sim) : gate(sim) {}
        sim::Gate gate;
        OpResult result;
    };

    sim::Simulation& sim_;
    size_t capacity_;
    uint64_t hits_ = 0;
    Index index_;
    std::vector<Slot> ring_;  ///< grows to capacity_, then a FIFO ring
    size_t oldest_ = 0;       ///< next slot to reuse once the ring is full
    std::unordered_map<uint64_t, std::shared_ptr<Joined>> joined_;
};

}  // namespace lfs::core
