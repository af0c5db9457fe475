/**
 * @file
 * The λFS serverless NameNode — the paper's primary contribution. One
 * NameNode runs inside each function instance and retains, across
 * invocations: the trie metadata cache (§3.3), a result cache for
 * transparently resubmitted requests (§3.2), and its coherence-protocol
 * membership. Writes run Algorithm 1 (INV to all deployments caching
 * affected metadata, ACKs collected via the Coordinator, exclusive store
 * locks held throughout); subtree operations use prefix invalidations and
 * serverless offloading (Appendix D).
 */
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/cache/metadata_cache.h"
#include "src/coord/coordinator.h"
#include "src/core/partitioning.h"
#include "src/core/result_cache.h"
#include "src/core/tcp_registry.h"
#include "src/faas/function_instance.h"
#include "src/namespace/op.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/store/metadata_store.h"
#include "src/util/overload.h"
#include "src/util/path.h"

namespace lfs::core {

/** NameNode behaviour knobs (service costs calibrated in DESIGN.md §5). */
struct NameNodeConfig {
    /** CPU per metadata read served from the local cache. */
    sim::SimTime read_cpu = sim::usec(360);
    /** Extra CPU for open-for-read (block-location assembly). */
    sim::SimTime read_block_cpu = sim::usec(60);
    /** Extra CPU on a cache miss (deserialize + install). */
    sim::SimTime miss_extra_cpu = sim::usec(150);
    /** CPU per write operation (excluding coherence + store time). */
    sim::SimTime write_cpu = sim::usec(700);
    /** Local cache budget in bytes. */
    size_t cache_bytes = 1ull * 1024 * 1024 * 1024;
    /** NameNode-side per-inode cost of subtree batch processing. */
    sim::SimTime subtree_per_row_cpu = sim::usec(8);
    /** Offload subtree batches to helper NameNodes (Appendix D). */
    bool offload_subtree = true;
    /** Max helper NameNodes recruited for one subtree operation. */
    int max_offload_helpers = 8;
    /** Retained results per deployment for resubmission deduplication. */
    size_t result_cache_entries = 4096;
    /** Interval for publishing block reports / liveness to the store. */
    sim::SimTime report_interval = sim::sec(10);
};

/** Shared services a NameNode uses (owned by the LambdaFs system). */
struct LfsRuntime {
    sim::Simulation& sim;
    net::Network& network;
    store::MetadataStore& store;
    coord::Coordinator& coordinator;
    NamespacePartitioner& partitioner;
    TcpRegistry& tcp_registry;
    /** One retained-result table per deployment (indexed by deployment id). */
    std::vector<std::unique_ptr<ResultCache>>& result_caches;

    /**
     * Per-deployment client retry budgets (empty when overload control is
     * off). Non-owning: LambdaFs owns the budgets.
     */
    std::vector<util::RetryBudget*> retry_budgets = {};

    ResultCache&
    result_cache(int deployment) const
    {
        return *result_caches[static_cast<size_t>(deployment)];
    }

    /** Retry budget for @p deployment, or nullptr when disabled. */
    util::RetryBudget*
    retry_budget(int deployment) const
    {
        if (retry_budgets.empty()) {
            return nullptr;
        }
        return retry_budgets[static_cast<size_t>(deployment)];
    }
};

class NameNode : public faas::FunctionApp, public coord::CacheMember {
  public:
    NameNode(LfsRuntime& runtime, faas::FunctionInstance& instance,
             NameNodeConfig config);
    ~NameNode() override;

    // faas::FunctionApp
    sim::Task<OpResult> handle(faas::Invocation inv) override;
    void on_shutdown() override;

    // coord::CacheMember
    bool member_alive() const override { return instance_.alive(); }
    sim::Task<void> deliver_invalidation(const std::string& path,
                                         uint64_t key,
                                         bool subtree) override;

    cache::MetadataCache& cache() { return cache_; }
    uint64_t block_reports_published() const { return block_reports_; }

  private:
    /**
     * The handler for @p op after its result-cache @p claim: a duplicate's
     * answer, or the read, subtree or single-inode write handler.
     */
    sim::Task<OpResult> serve_claimed(ResultCache::Claim claim, const Op& op,
                                      sim::Span& nn_span);

    /**
     * Answer a resubmission of op @p op_id from the deployment's result
     * cache: the retained result, or the in-flight original's once it
     * completes (@p claim says which).
     */
    sim::Task<OpResult> answer_duplicate(ResultCache::Claim claim,
                                         uint64_t op_id, sim::Span& nn_span);

    sim::Task<OpResult> handle_read(const Op& op);
    sim::Task<OpResult> handle_write(const Op& op);
    sim::Task<OpResult> handle_subtree(const Op& op);

    /** Coherence round for a single-inode write on @p op, whose path
        has @p keys. With @p invalidate_ancestors, point INVs also cover
        every ancestor of op.path (mkdirs materialising missing
        intermediate dirs). */
    sim::Task<void> run_coherence(const Op& op, const path::PathKeys& keys,
                                  bool invalidate_ancestors);

    /** Prefix-invalidation round for the subtree op @p op. */
    sim::Task<void> run_subtree_coherence(Op op);

    /**
     * A write's parent-resolve round trip: stat op.path's parent in the
     * store and, on @p home, cache the resolved chain's own-partition
     * entries. Merges the round trip's ledger into @p ledger when
     * attributing and returns the resolve's status, so the write's frame
     * holds no second OpResult.
     */
    sim::Task<Status> resolve_parent(const Op& op, bool home,
                                     sim::LatencyLedger& ledger);

    /** Cache the chain entries whose partition this deployment owns,
        via the in-flight read guard taken before the store read. */
    void cache_own_partition_entries(const std::vector<ns::INode>& chain,
                                     cache::MetadataCache::ReadToken token);

    /**
     * Periodic serverless-compatible maintenance: publishes block-report
     * and liveness info to the persistent store (§1: "re-implements many
     * DFS maintenance features ... by publishing information to the
     * persistent metadata store on a regular interval").
     */
    sim::Task<void> report_loop();

    LfsRuntime& rt_;
    faas::FunctionInstance& instance_;
    NameNodeConfig config_;
    cache::MetadataCache cache_;
    // Registry-owned, shared by every NameNode of the same deployment.
    sim::Counter& cache_hits_;
    sim::Counter& cache_misses_;
    sim::Counter& shed_expired_;
    bool in_coordinator_ = false;
    uint64_t block_reports_ = 0;
};

}  // namespace lfs::core
