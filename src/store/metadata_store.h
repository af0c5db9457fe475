/**
 * @file
 * The persistent, strongly-consistent metadata store — the model of MySQL
 * Cluster NDB that HopsFS and λFS share (and, with different parameters,
 * of any sharded transactional metadata backend).
 *
 * The store owns the authoritative NamespaceTree and exposes *timed*
 * transactional operations: every call pays a NameNode<->store network
 * round trip, queues for a slot on the shard that owns the target's parent
 * directory, holds exclusive row locks for writes, and then applies the
 * semantic mutation atomically.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/namespace/apply.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/store/data_node.h"
#include "src/store/lock_table.h"
#include "src/util/overload.h"

namespace lfs::store {

/** Store-wide configuration. */
struct StoreConfig {
    int num_data_nodes = 4;
    DataNodeConfig data_node;
    /** Per-row costs of subtree batch transactions (Appendix D model). */
    sim::SimTime subtree_row_read_cost = sim::usec(4);
    sim::SimTime subtree_row_write_cost = sim::usec(14);
    /** Rows per subtree batch transaction. */
    int subtree_batch_size = 512;
    /** Delay between retries when a subtree lock conflicts. */
    sim::SimTime subtree_retry_delay = sim::msec(20);
    /**
     * Simulated cost of one namespace cold-tier page-in (DESIGN.md §15):
     * charged per fault a transaction incurs, modelling the intermediate
     * read from shared storage that a sub-resident namespace pays. Zero
     * faults (budget unset) charge nothing.
     */
    sim::SimTime fault_page_cost = sim::usec(250);
    /**
     * Per-shard circuit breakers: a rolling error window trips the shard
     * open, failing store transactions fast with UNAVAILABLE instead of
     * queueing them behind a struggling shard; half-open probes re-close
     * it once the shard recovers.
     */
    bool enable_circuit_breaker = false;
    util::BreakerConfig breaker;
};

class MetadataStore {
  public:
    MetadataStore(sim::Simulation& sim, net::Network& network, sim::Rng rng,
                  StoreConfig config = {});
    ~MetadataStore();

    /** Untimed access to the authoritative namespace (setup, verification). */
    ns::NamespaceTree& tree() { return tree_; }
    const ns::NamespaceTree& tree() const { return tree_; }

    LockTable& locks() { return locks_; }
    const StoreConfig& config() const { return config_; }

    // ------------------------------------------------------------------
    // Timed transactional operations (called by NameNodes)
    // ------------------------------------------------------------------

    /**
     * Coroutine-producing hook awaited while a subtree transaction's
     * locks are held (write_op takes its hook as a template parameter).
     */
    using LockedHook = std::function<sim::Task<void>()>;

    /** NameNode-side execution parameters for a subtree operation. */
    struct SubtreeExecution {
        /** Awaited after the subtree flag is acquired (prefix INV round). */
        LockedHook after_lock;
        /**
         * Per-row NameNode processing cost added to each batch commit
         * (callers divide by their offload parallelism, Appendix D).
         */
        sim::SimTime per_row_nn_cost = 0;
    };

    /**
     * Execute a read operation (read/stat/ls) as one batched path-resolve
     * transaction (the "INode Hint Cache" single-round-trip query), under
     * shared row locks on the target and its parent. The result includes
     * the full resolved chain for caching.
     */
    sim::Task<OpResult> read_op(const Op& op);

    /**
     * Execute a single-inode write (create/mkdir/delete/mv): acquires
     * exclusive row locks in ascending-id order, awaits @p after_lock()
     * while holding them, runs one write transaction on the owning shard,
     * applies the mutation, releases.
     *
     * @p after_lock returns a sim::Task<void>; pass none (nullptr) for a
     * plain write. λFS injects its coherence protocol's INV/ACK round here
     * so no other NameNode can read-and-cache between invalidation and
     * commit (§3.5: the leader "will have taken exclusive write-locks ...
     * so it will be impossible for another NameNode to read and cache
     * the metadata before it is updated").
     */
    template <typename Hook = std::nullptr_t>
    sim::Task<OpResult> write_op(const Op& op, Hook after_lock = nullptr);

    /**
     * Execute a subtree operation (recursive mv/delete) with the HopsFS
     * three-phase protocol: subtree-lock flag, quiesce (batched lock
     * walk), then batched sub-transactions (Appendix D).
     */
    sim::Task<OpResult> subtree_op(Op op, SubtreeExecution exec);
    sim::Task<OpResult> subtree_op(Op op);

    /** One quiesce walk over @p rows rows (exposed for λFS's protocol). */
    sim::Task<Status> quiesce_rows(const std::string& shard_key, int64_t rows,
                                   sim::LatencyLedger* ledger = nullptr);

    /** One batched subtree commit of @p rows rows on the owning shard. */
    sim::Task<Status> commit_subtree_batch(const std::string& shard_key,
                                           int64_t rows,
                                           sim::LatencyLedger* ledger =
                                               nullptr);

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    uint64_t total_reads() const;
    uint64_t total_writes() const;
    size_t queue_depth() const;

    /** Transactions shed by shard overload control (all shards/reasons). */
    uint64_t shed_total() const;

    /** Breaker open transitions across all shards (0 when disabled). */
    uint64_t breaker_opens() const;

    /** Transactions failed fast by an open breaker across all shards. */
    uint64_t breaker_fast_failures() const;

  private:
    /** Shard index owning metadata for paths under @p parent_path. */
    size_t shard_index(const std::string& parent_path) const;

    /**
     * shard_index(path::parent(path)) without materialising the parent
     * string (path::parent_hash). Op hot paths (read_op/write_op) pay
     * zero allocations here.
     */
    size_t shard_index_of_parent(std::string_view path) const;

    /** Shard owning metadata for paths under @p parent_path. */
    DataNode& shard_for(const std::string& parent_path);

    /**
     * Consult shard @p idx's circuit breaker (no-op Ok when disabled).
     * Returns UNAVAILABLE without touching the shard while the breaker
     * is open and not yet probing.
     */
    Status breaker_admit(size_t idx);

    /** Report one shard transaction outcome to its breaker. */
    void breaker_record(size_t idx, const Status& st);

    /**
     * Admission of a transaction on @p op at shard @p shard_idx: a
     * tripped breaker or an already-expired deadline refuses it before
     * any lock or coherence work (annotated on @p txn_span).
     */
    Status admit(size_t shard_idx, const Op& op, sim::Span& txn_span);

    /** Ids that a write on @p op must lock (parent, target, dst parent). */
    std::vector<ns::INodeId> write_lock_set(const Op& op) const;

    /** Ids that a read on @p p locks shared (parent and target). */
    std::vector<ns::INodeId> read_lock_set(const std::string& p) const;

    /**
     * Charge the simulated cost of namespace page-ins incurred since
     * @p faults_before (fault_page_cost each) and stamp kNsFault. A
     * fully-resident tree never faults, so this awaits nothing then.
     */
    sim::Task<void> charge_ns_faults(uint64_t faults_before,
                                     sim::LatencyLedger* ledger);

    sim::Simulation& sim_;
    net::Network& network_;
    StoreConfig config_;
    ns::NamespaceTree tree_;
    LockTable locks_;
    std::vector<std::unique_ptr<DataNode>> shards_;
    /** Per-shard breakers; empty when enable_circuit_breaker is off. */
    std::vector<std::unique_ptr<util::CircuitBreaker>> breakers_;
    // Registry-owned overload counters ({reason} labels).
    sim::Counter* rejected_expired_ = nullptr;
    sim::Counter* rejected_breaker_ = nullptr;
};

template <typename Hook>
sim::Task<OpResult>
MetadataStore::write_op(const Op& op, Hook after_lock)
{
    sim::Span txn_span =
        sim_.tracer().start_span("store", "write_txn", op.trace);
    const bool attr = sim_.attribution();
    sim::LatencyLedger led;
    sim::SimTime t0 = sim_.now();
    co_await network_.transfer(net::LatencyClass::kStore);
    if (attr) {
        led.add(sim::LatSeg::kNetStore, sim_.now() - t0);
    }
    size_t shard_idx = shard_index_of_parent(op.path);
    // Admission checks before waiting on subtree flags, acquiring row
    // locks, or running the coherence round — doomed work sheds here.
    Status st = admit(shard_idx, op, txn_span);
    uint64_t faults_before = tree_.pageins();
    std::vector<ns::INodeId> lock_ids;
    if (st.ok()) {
        sim::Span lock_span = sim_.tracer().start_span(
            "store", "lock_wait", txn_span.context());
        sim::SimTime lock_start = sim_.now();
        while (locks_.overlaps_active_subtree(op.path) ||
               (has_dst_path(op.type) &&
                locks_.overlaps_active_subtree(op.dst))) {
            co_await sim::delay(sim_, config_.subtree_retry_delay);
        }
        lock_ids = write_lock_set(op);
        co_await locks_.lock_exclusive_ordered(lock_ids);
        lock_span.end();
        if (attr) {
            led.add(sim::LatSeg::kStoreLockWait, sim_.now() - lock_start);
        }
        if constexpr (!std::is_same_v<Hook, std::nullptr_t>) {
            // The coherence INV/ACK round is attributed here — around the
            // hook await, never inside the coordinator — so it is stamped
            // exactly once per write.
            sim::SimTime coh_start = sim_.now();
            co_await after_lock();
            if (attr) {
                led.add(sim::LatSeg::kCoherence, sim_.now() - coh_start);
            }
        }
        st = co_await shards_[shard_idx]->execute_write(
            static_cast<int>(lock_ids.size()), op.deadline,
            attr ? &led : nullptr);
        breaker_record(shard_idx, st);
        if (!st.ok()) {
            locks_.unlock_exclusive_all(lock_ids);
            txn_span.annotate("shed", code_name(st.code()));
        }
    }
    if (!st.ok()) {
        // Refused or shed: only the reply hop remains.
        t0 = sim_.now();
        co_await network_.transfer(net::LatencyClass::kStore);
        if (attr) {
            led.add(sim::LatSeg::kNetStore, sim_.now() - t0);
        }
        co_return error_result(std::move(st), attr, led);
    }
    OpResult result = ns::apply_write(tree_, op, sim_.now());
    // Faults are charged while the row locks are held: a sub-resident
    // namespace pays its page-ins inside the transaction window.
    co_await charge_ns_faults(faults_before, attr ? &led : nullptr);
    locks_.unlock_exclusive_all(lock_ids);
    t0 = sim_.now();
    co_await network_.transfer(net::LatencyClass::kStore);
    if (attr) {
        led.add(sim::LatSeg::kNetStore, sim_.now() - t0);
        result.ledger = led;
    }
    co_return result;
}

}  // namespace lfs::store
