/**
 * @file
 * InfiniCache-style baseline (§5.1): an in-memory cache built on a
 * *static, fixed-size* deployment of cloud functions, where every
 * operation is a fresh function invocation over the API gateway (no
 * long-lived TCP RPC, no auto-scaling). The paper uses it as "an
 * approximation of λFS with no auto-scaling or long-lived TCP-RPC
 * request mechanism"; under DFS metadata load the gateway path and the
 * fixed pool are overwhelmed.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/cost/pricing.h"
#include "src/faas/platform.h"
#include "src/net/network.h"
#include "src/store/metadata_store.h"
#include "src/util/hash.h"
#include "src/workload/dfs_interface.h"

namespace lfs::infinicache {

struct InfiniCacheConfig {
    std::string label = "infinicache";
    /** Fixed number of function deployments (one instance each). */
    int num_functions = 64;
    faas::FunctionConfig function = {
        /*vcpus=*/6.25,
        /*memory_gb=*/3.0,
        /*concurrency_level=*/8,
        /*cold_start_min=*/sim::msec(500),
        /*cold_start_max=*/sim::msec(1200),
        /*idle_reclaim=*/0,  // fixed pool: never reclaimed
    };
    double total_vcpus = 512.0;
    sim::SimTime read_cpu = sim::usec(400);
    sim::SimTime write_cpu = sim::usec(500);
    size_t cache_bytes_per_function = 512ull * 1024 * 1024;
    store::StoreConfig store;
    net::NetworkConfig network;
    int num_client_vms = 8;
    int clients_per_vm = 128;
    sim::SimTime request_timeout = sim::sec(15);
    int max_attempts = 4;
    uint64_t seed = 44;
};

class InfiniCacheFs;

/** The per-function cache node application. */
class CacheNode : public faas::FunctionApp {
  public:
    CacheNode(InfiniCacheFs& fs, faas::FunctionInstance& instance);

    sim::Task<OpResult> handle(faas::Invocation inv) override;

    void invalidate(const std::string& p, bool subtree);

  private:
    /** Point INVs for a single-inode write, at the owning functions. */
    sim::Task<void> write_invalidations(Op op);

    /**
     * INVs for a subtree op (including a directory mv): the path's
     * prefix at every function, then both parents at their owners.
     */
    sim::Task<void> subtree_invalidations(Op op);

    InfiniCacheFs& fs_;
    faas::FunctionInstance& instance_;
    cache::MetadataCache cache_;
};

class InfiniCacheClient : public workload::DfsClient {
  public:
    InfiniCacheClient(InfiniCacheFs& fs, int id, sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

  private:
    InfiniCacheFs& fs_;
    int id_;
    sim::Rng rng_;
};

class InfiniCacheFs : public workload::Dfs {
  public:
    InfiniCacheFs(sim::Simulation& sim, InfiniCacheConfig config);
    ~InfiniCacheFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override
    {
        return store_.tree();
    }
    int active_name_nodes() const override;
    double cost_so_far() const override;

    // internals
    sim::Simulation& simulation() { return sim_; }
    store::MetadataStore& store() { return store_; }
    faas::Platform& platform() { return platform_; }
    const InfiniCacheConfig& config() const { return config_; }

    /** Deployment owning @p p's partition. */
    int owner_for(const std::string& p) const;

    /** Invalidate @p p at its owning function (point INV, one hop). */
    sim::Task<void> invalidate_at_owner(std::string p);

    /** Invalidate a prefix at every function. */
    void broadcast_prefix_invalidate(const std::string& prefix);

  private:
    sim::Simulation& sim_;
    InfiniCacheConfig config_;
    sim::Rng rng_;
    net::Network network_;
    store::MetadataStore store_;
    faas::Platform platform_;
    ConsistentHashRing ring_;
    std::vector<std::unique_ptr<InfiniCacheClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::infinicache
