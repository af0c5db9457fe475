/**
 * @file
 * IndexFS baseline (§5.7): a scaled-out metadata middleware whose servers
 * are co-located with the client VMs and pack metadata into an LSM store
 * (the LevelDB model in src/lsm). Directories are partitioned across
 * servers by directory-name hashing (the simplified scheme the λFS
 * authors developed with the IndexFS authors, §4). Clients cache read
 * results under short leases (IndexFS' stateless client caching).
 *
 * The namespace semantics are the flat row keyspace's (row_apply.h),
 * shared with λIndexFS; a mirror NamespaceTree tracks the logical
 * namespace for workload setup.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/cost/pricing.h"
#include "src/indexfs/row_apply.h"
#include "src/lsm/lsm_tree.h"
#include "src/namespace/namespace_tree.h"
#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/util/hash.h"
#include "src/workload/dfs_interface.h"

namespace lfs::indexfs {

struct IndexFsConfig {
    std::string label = "indexfs";
    /** Servers co-located with the (4) client VMs. */
    int num_servers = 4;
    /** IndexFS servers process one partition nearly serially. */
    int server_concurrency = 2;
    sim::SimTime server_cpu = sim::usec(100);
    lsm::LsmConfig lsm;
    /** Client lease cache: entries and lease duration. */
    int client_cache_entries = 4096;
    sim::SimTime lease_ttl = sim::msec(1000);
    sim::SimTime client_local_op = sim::usec(30);
    net::NetworkConfig network;
    int num_client_vms = 4;
    int clients_per_vm = 64;
    uint64_t seed = 46;
};

class IndexFs;

/** One IndexFS server: bounded CPU in front of its own LSM instance. */
class IndexFsServer {
  public:
    IndexFsServer(IndexFs& fs, sim::Simulation& sim, sim::Rng rng,
                  const IndexFsConfig& config);

    /** Serve @p op: server CPU, then the shared row apply at @p now. */
    sim::Task<OpResult> serve(Op op, sim::SimTime now);

    /**
     * One request's server CPU (queueing included) and nothing else:
     * this partition's share of a namespace-wide sweep (statfs, GC).
     */
    sim::Task<OpResult> compute();

    lsm::LsmTree& lsm() { return lsm_; }

  private:
    IndexFs& fs_;
    sim::Simulation& sim_;
    sim::SimTime cpu_service_;
    sim::Semaphore cpu_;
    lsm::LsmTree lsm_;
};

class IndexFsClient : public workload::DfsClient {
  public:
    IndexFsClient(IndexFs& fs, int id, sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

  private:
    struct Lease {
        ns::INode inode;
        sim::SimTime expires;
    };

    IndexFs& fs_;
    int id_;
    sim::Rng rng_;
    std::unordered_map<std::string, Lease> leases_;
};

class IndexFs : public workload::Dfs, public FlatKeyspace {
  public:
    IndexFs(sim::Simulation& sim, IndexFsConfig config);
    ~IndexFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override { return mirror(); }
    int active_name_nodes() const override { return config_.num_servers; }
    double cost_so_far() const override;

    // FlatKeyspace
    lsm::LsmTree& lsm_for(const std::string& p) override
    {
        return server_for(p).lsm();
    }
    /** A row on another server's partition costs a server-to-server hop. */
    sim::Task<void> reach(const std::string& from,
                          const std::string& to) override;

    // internals
    net::Network& network() { return network_; }
    const IndexFsConfig& config() const { return config_; }
    IndexFsServer& server_for(const std::string& p);
    IndexFsServer& server(int index) { return *servers_.at(index); }
    int server_count() const { return static_cast<int>(servers_.size()); }

  private:
    sim::Simulation& sim_;
    IndexFsConfig config_;
    sim::Rng rng_;
    net::Network network_;
    ConsistentHashRing ring_;
    std::vector<std::unique_ptr<IndexFsServer>> servers_;
    std::vector<std::unique_ptr<IndexFsClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::indexfs
