/**
 * @file
 * Edge-case tests for the CephFS-like and IndexFS baselines: capability
 * churn under mixed traffic, lease expiry, LSM-backed read-after-flush
 * behaviour through the full IndexFS stack, and rename/caps interaction.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/indexfs/indexfs.h"
#include "src/indexfs/lambda_indexfs.h"
#include "src/sim/simulation.h"

namespace lfs {
namespace {

using sim::Simulation;
using sim::Task;

Op
make_op(OpType type, std::string p, std::string dst = "")
{
    Op op;
    op.type = type;
    op.path = std::move(p);
    op.dst = std::move(dst);
    return op;
}

Task<void>
co_execute_timed(Simulation& sim, workload::DfsClient& client, Op op,
                 OpResult& out, sim::SimTime& done_at)
{
    out = co_await client.execute(std::move(op));
    done_at = sim.now();
}

OpResult
run_one(Simulation& sim, workload::Dfs& fs, size_t client, Op op)
{
    OpResult result;
    sim::SimTime done = -1;
    sim::spawn(co_execute_timed(sim, fs.client(client), std::move(op),
                                result, done));
    while (done < 0 && sim.step()) {
    }
    return result;
}

// ---------------------------------------------------------------------
// CephFS capabilities under churn
// ---------------------------------------------------------------------

TEST(CephFsEdge, RenameRevokesCapsOnWholeSubtree)
{
    Simulation sim;
    cephfs::CephFsConfig config;
    config.num_mds = 2;
    config.num_client_vms = 2;
    config.clients_per_vm = 4;
    cephfs::CephFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/a/b", root, 0);
    fs.authoritative_tree().create_file("/a/b/f", root, 0);
    fs.authoritative_tree().mkdirs("/z", root, 0);

    // Client 0 holds a cap on /a/b/f.
    ASSERT_TRUE(run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f"))
                    .status.ok());
    ASSERT_TRUE(run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f"))
                    .cache_hit);
    // A rename of the ancestor must revoke it.
    ASSERT_TRUE(run_one(sim, fs, 3, make_op(OpType::kSubtreeMv, "/a", "/z/a"))
                    .status.ok());
    OpResult stale = run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f"));
    EXPECT_EQ(stale.status.code(), Code::kNotFound);
    OpResult fresh =
        run_one(sim, fs, 0, make_op(OpType::kStat, "/z/a/b/f"));
    EXPECT_TRUE(fresh.status.ok());
}

TEST(CephFsEdge, CapMissAfterEvictionStillCorrect)
{
    Simulation sim;
    cephfs::CephFsConfig config;
    config.num_mds = 2;
    config.caps_per_client = 4;  // tiny cap cache forces eviction
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    cephfs::CephFs fs(sim, config);
    ns::UserContext root;
    for (int i = 0; i < 32; ++i) {
        fs.authoritative_tree().create_file("/f" + std::to_string(i), root,
                                            0);
    }
    // Sweep far more files than the cap budget; every read must still be
    // correct (cap hits or MDS round trips alike).
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 32; ++i) {
            OpResult r = run_one(sim, fs, 0,
                                 make_op(OpType::kStat,
                                         "/f" + std::to_string(i)));
            ASSERT_TRUE(r.status.ok()) << i;
            EXPECT_EQ(r.inode.name, "f" + std::to_string(i));
        }
    }
}

// ---------------------------------------------------------------------
// IndexFS lease + LSM integration
// ---------------------------------------------------------------------

TEST(IndexFsEdge, LeaseExpiryForcesServerRead)
{
    Simulation sim;
    indexfs::IndexFsConfig config;
    config.num_servers = 2;
    config.lease_ttl = sim::msec(100);
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    indexfs::IndexFs fs(sim, config);
    fs.preload("/tt/f", ns::INodeType::kFile);
    sim.run_until(sim::sec(1));

    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_FALSE(first.cache_hit);
    // Within the lease: client-local.
    OpResult second = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit);
    // After expiry: back to the server.
    sim.run_until(sim.now() + sim::msec(300));
    OpResult third = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(third.status.ok());
    EXPECT_FALSE(third.cache_hit);
}

TEST(IndexFsEdge, ReadsSurviveMemtableFlushes)
{
    Simulation sim;
    indexfs::IndexFsConfig config;
    config.num_servers = 1;
    config.lsm.memtable_bytes = 4096;  // flush constantly
    config.lease_ttl = 0;              // no client caching: hit the LSM
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    indexfs::IndexFs fs(sim, config);
    fs.preload("/tt/d", ns::INodeType::kDirectory);
    sim.run_until(sim::sec(1));

    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(run_one(sim, fs, 0,
                            make_op(OpType::kCreateFile,
                                    "/tt/d/n" + std::to_string(i)))
                        .status.ok())
            << i;
    }
    EXPECT_GT(fs.server(0).lsm().flushes(), 0u);
    // Every record is readable, whichever level it settled in.
    for (int i = 0; i < 300; i += 13) {
        OpResult r = run_one(sim, fs, 1,
                             make_op(OpType::kStat,
                                     "/tt/d/n" + std::to_string(i)));
        ASSERT_TRUE(r.status.ok()) << i;
    }
    EXPECT_GT(fs.server(0).lsm().sstable_reads(), 0u);
}

TEST(IndexFsEdge, DeleteIsVisibleThroughLeaselessReads)
{
    Simulation sim;
    indexfs::IndexFsConfig config;
    config.num_servers = 2;
    config.lease_ttl = 0;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    indexfs::IndexFs fs(sim, config);
    fs.preload("/tt/f", ns::INodeType::kFile);
    sim.run_until(sim::sec(1));
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f")).status.ok());
    ASSERT_TRUE(run_one(sim, fs, 1, make_op(OpType::kDeleteFile, "/tt/f"))
                    .status.ok());
    EXPECT_EQ(run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"))
                  .status.code(),
              Code::kNotFound);
}

TEST(IndexFsEdge, ClientsOwnWritesDropItsLeases)
{
    Simulation sim;
    indexfs::IndexFsConfig config;
    config.num_servers = 2;  // default 1 s leases
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    indexfs::IndexFs fs(sim, config);
    fs.preload("/tt/f", ns::INodeType::kFile);
    fs.preload("/tt/g", ns::INodeType::kFile);
    sim.run_until(sim::sec(1));

    // A client never serves its own deleted row from its lease.
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f")).status.ok());
    ASSERT_TRUE(run_one(sim, fs, 0, make_op(OpType::kDeleteFile, "/tt/f"))
                    .status.ok());
    OpResult after_delete =
        run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    EXPECT_EQ(after_delete.status.code(), Code::kNotFound);
    EXPECT_FALSE(after_delete.cache_hit);

    // A hard link drops the leases of both names it changes: the
    // linked file's (its link count moves) and the new name's, which
    // this client last saw as another file that client 1 deleted since.
    fs.preload("/tt/h", ns::INodeType::kFile);
    OpResult g = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/g"));
    ASSERT_TRUE(g.status.ok());
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/h")).status.ok());
    ASSERT_TRUE(run_one(sim, fs, 1, make_op(OpType::kDeleteFile, "/tt/h"))
                    .status.ok());
    ASSERT_TRUE(run_one(sim, fs, 0,
                        make_op(OpType::kHardLink, "/tt/g", "/tt/h"))
                    .status.ok());
    OpResult linked = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/h"));
    ASSERT_TRUE(linked.status.ok());
    EXPECT_FALSE(linked.cache_hit);
    EXPECT_EQ(linked.inode.id, g.inode.id);
    OpResult source = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/g"));
    ASSERT_TRUE(source.status.ok());
    EXPECT_FALSE(source.cache_hit);
}

TEST(IndexFsEdge, CloseByIdFindsTheSessionOnAnyServer)
{
    Simulation sim;
    indexfs::IndexFsConfig config;
    config.num_servers = 4;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    indexfs::IndexFs fs(sim, config);
    // A file whose partition is not the one "/" routes to.
    std::string file;
    for (int i = 0; file.empty(); ++i) {
        std::string candidate = "/d" + std::to_string(i) + "/f";
        if (&fs.server_for(candidate) != &fs.server_for("/")) {
            file = candidate;
        }
    }
    fs.preload(file, ns::INodeType::kFile);
    sim.run_until(sim::sec(1));
    Op open = make_op(OpType::kOpenSession, file);
    open.session_id = 7;
    open.lease_ttl = sim::sec(60);
    ASSERT_TRUE(run_one(sim, fs, 0, open).status.ok());
    // Close by id, with the "/" path convention of the op streams.
    Op close = make_op(OpType::kCloseSession, "/");
    close.session_id = 7;
    ASSERT_TRUE(run_one(sim, fs, 0, close).status.ok());
    OpResult stats = run_one(sim, fs, 0, make_op(OpType::kStatFs, "/"));
    ASSERT_TRUE(stats.status.ok());
    EXPECT_EQ(stats.stats.open_sessions, 0);
}

/** Statfs, GC and a failed setattr on @p fs (attribution on). */
std::vector<OpResult>
row_probe(Simulation& sim, workload::Dfs& fs)
{
    std::vector<OpResult> out;
    Op open = make_op(OpType::kOpenSession, "/tt/f");
    open.session_id = 1;
    open.lease_ttl = 0;  // expired at the next GC
    out.push_back(run_one(sim, fs, 0, open));
    out.push_back(run_one(sim, fs, 0, make_op(OpType::kDeleteFile, "/tt/f")));
    out.push_back(run_one(sim, fs, 0, make_op(OpType::kStatFs, "/")));
    out.push_back(run_one(sim, fs, 0, make_op(OpType::kGcPrune, "/")));
    Op chmod = make_op(OpType::kSetAttr, "/tt/missing");
    chmod.attr.mask = AttrUpdate::kMode;
    out.push_back(run_one(sim, fs, 0, chmod));
    return out;
}

TEST(IndexFsEdge, RowOpsAnswerLikeLambdaIndexFs)
{
    std::vector<OpResult> index;
    std::vector<OpResult> lambda;
    {
        Simulation sim;
        sim.set_attribution(true);
        indexfs::IndexFsConfig config;
        config.num_servers = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        indexfs::IndexFs fs(sim, config);
        fs.preload("/tt/f", ns::INodeType::kFile);
        fs.preload("/tt/d", ns::INodeType::kDirectory);
        sim.run_until(sim::sec(1));
        index = row_probe(sim, fs);
    }
    {
        Simulation sim;
        sim.set_attribution(true);
        indexfs::LambdaIndexFsConfig config;
        config.num_deployments = 2;
        config.total_vcpus = 16.0;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        config.num_lsm_instances = 2;
        indexfs::LambdaIndexFs fs(sim, config);
        fs.preload("/tt/f", ns::INodeType::kFile);
        fs.preload("/tt/d", ns::INodeType::kDirectory);
        sim.run_until(sim::sec(1));
        lambda = row_probe(sim, fs);
    }
    ASSERT_EQ(index.size(), lambda.size());
    for (size_t i = 0; i < index.size(); ++i) {
        EXPECT_EQ(index[i].status.code(), lambda[i].status.code()) << i;
        EXPECT_EQ(index[i].inodes_touched, lambda[i].inodes_touched) << i;
        EXPECT_EQ(index[i].stats.inodes, lambda[i].stats.inodes) << i;
        EXPECT_EQ(index[i].stats.open_sessions,
                  lambda[i].stats.open_sessions)
            << i;
        EXPECT_EQ(index[i].stats.orphans, lambda[i].stats.orphans) << i;
    }
    // statfs counts every live row and orphan, and says so.
    EXPECT_EQ(index[2].stats.orphans, 1);
    EXPECT_EQ(index[2].inodes_touched, index[2].stats.inodes);
    // GC reclaims the orphan its expired session held.
    EXPECT_EQ(index[3].inodes_touched, 1);
    // A failed row op still pays, and stamps, its LSM lookup.
    EXPECT_EQ(index[4].status.code(), Code::kNotFound);
    EXPECT_GT(index[4].ledger.get(sim::LatSeg::kStoreService), 0);
    EXPECT_GT(lambda[4].ledger.get(sim::LatSeg::kStoreService), 0);
}

}  // namespace
}  // namespace lfs
