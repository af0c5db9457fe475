/**
 * @file
 * A serverful HopsFS NameNode (§2): a stateless request handler in front
 * of the NDB-model metadata store. Every operation pays a handler slot,
 * NameNode CPU, and a full store transaction — statelessness is exactly
 * why vanilla HopsFS is capped by the store's capacity.
 *
 * The "+Cache" variant (§5.1) adds the same trie metadata cache λFS
 * uses. Clients route by consistent hash on the parent directory, so one
 * partition is cached by exactly one NameNode; writes invalidate locally
 * and send a direct INV to the NameNode owning the parent's partition.
 */
#pragma once

#include <memory>

#include "src/cache/metadata_cache.h"
#include "src/namespace/op.h"
#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/store/metadata_store.h"

namespace lfs::hopsfs {

struct HopsNameNodeConfig {
    double vcpus = 16.0;
    int rpc_handlers = 200;
    /** CPU per proxied (stateless) operation. */
    sim::SimTime proxy_cpu = sim::usec(350);
    /** CPU per cache-hit read in the +Cache variant. */
    sim::SimTime cached_read_cpu = sim::usec(620);
    /** Cache budget; 0 = vanilla stateless NameNode. */
    size_t cache_bytes = 0;
    /** NameNode-side per-row cost of subtree batch processing. */
    sim::SimTime subtree_per_row_cpu = sim::usec(4);
};

class HopsFs;

class HopsNameNode {
  public:
    HopsNameNode(sim::Simulation& sim, net::Network& network,
                 store::MetadataStore& store, sim::Rng rng,
                 HopsNameNodeConfig config, int id);

    /** Serve one client operation (handler slot + CPU + store txn). */
    sim::Task<OpResult> serve(Op op);

    /** Point/prefix invalidation from a peer NameNode (+Cache only). */
    void invalidate(const std::string& p, bool subtree);

    int id() const { return id_; }
    bool has_cache() const { return config_.cache_bytes > 0; }
    cache::MetadataCache& cache() { return *cache_; }
    uint64_t requests_served() const { return requests_.value(); }

    /** Peer lookup for write invalidations (wired by HopsFs). */
    std::function<HopsNameNode*(const std::string& path)> peer_for_path;

    /** Prefix-invalidates every caching peer (wired by HopsFs). */
    std::function<void(const std::string& prefix)> broadcast_prefix_invalidate;

  private:
    sim::Task<OpResult> serve_read(const Op& op);
    sim::Task<OpResult> serve_write(const Op& op);
    sim::Task<OpResult> serve_subtree(const Op& op);
    /** The store write for @p op, with the INV round when caching. */
    sim::Task<OpResult> store_write(const Op& op);

    /** Invalidate this path at its owning NameNode (network hop). */
    sim::Task<void> invalidate_remote(std::string p);

    /** Invalidation round for a single-inode write (+Cache variant). */
    sim::Task<void> write_inv_round(Op op);

    /** Invalidation round for a subtree operation (+Cache variant). */
    sim::Task<void> subtree_inv_round(Op op);

    sim::Simulation& sim_;
    net::Network& network_;
    store::MetadataStore& store_;
    sim::Rng rng_;
    HopsNameNodeConfig config_;
    int id_;
    sim::Semaphore handlers_;
    sim::Semaphore cpu_;
    std::unique_ptr<cache::MetadataCache> cache_;
    sim::Counter requests_;
};

}  // namespace lfs::hopsfs
