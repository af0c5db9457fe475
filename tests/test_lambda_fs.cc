/**
 * @file
 * End-to-end integration tests for λFS: client RPC pathways (HTTP then
 * TCP), elastic caching, the coherence protocol (no stale reads after
 * committed writes), auto-scaling, fault tolerance, and subtree
 * operations.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

using sim::Simulation;
using sim::Task;

LambdaFsConfig
small_config()
{
    LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.function.cold_start_min = sim::msec(200);
    config.function.cold_start_max = sim::msec(400);
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    config.max_clients_per_tcp_server = 4;
    config.prewarm_per_deployment = 1;
    return config;
}

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
co_execute(workload::DfsClient& client, Op op, OpResult& out)
{
    out = co_await client.execute(std::move(op));
}

/** Run one op to completion, starting after the warmup time. */
OpResult
run_one(Simulation& sim, LambdaFs& fs, size_t client, Op op)
{
    OpResult result;
    sim::spawn(co_execute(fs.client(client), std::move(op), result));
    sim.run_until(sim.now() + sim::sec(30));
    return result;
}

TEST(LambdaFs, ConstructionWiresEverything)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    EXPECT_EQ(fs.client_count(), 16u);
    EXPECT_EQ(fs.platform().deployment_count(), 4);
    // Prewarmed instances come up after their cold start.
    sim.run_until(sim::sec(5));
    EXPECT_EQ(fs.active_name_nodes(), 4);
    EXPECT_EQ(fs.coordinator().total_members(), 4u);
}

TEST(LambdaFs, ReadThroughStoreAndCache)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);
    sim.run_until(sim::sec(5));  // warm up

    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_EQ(first.inode.name, "f");
    EXPECT_FALSE(first.cache_hit);

    OpResult second = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit);
}

TEST(LambdaFs, FirstRequestHttpThenTcp)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));

    LfsClient& client = fs.lfs_client(0);
    EXPECT_EQ(client.http_rpcs(), 0u);
    run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    EXPECT_EQ(client.http_rpcs(), 1u);  // no connection yet: HTTP
    uint64_t tcp_before = client.tcp_rpcs();
    run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    // Now a TCP connection exists back to this client's VM.
    EXPECT_GT(client.tcp_rpcs() + 0u, tcp_before);
    EXPECT_GT(fs.tcp_registry().connections_established(), 0u);
}

TEST(LambdaFs, ConnectionSharingAcrossTcpServers)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));

    // Client 0 (VM 0, server 0) establishes the connection via HTTP.
    run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    // Client 7 (VM 0, server 1) should reuse it over TCP directly.
    LfsClient& other = fs.lfs_client(7);
    ASSERT_EQ(other.vm(), 0);
    ASSERT_NE(other.tcp_server(), fs.lfs_client(0).tcp_server());
    OpResult result = run_one(sim, fs, 7, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(other.http_rpcs(), 0u);
    EXPECT_GT(other.tcp_rpcs(), 0u);
}

TEST(LambdaFs, WriteInvalidatesCaches)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);
    sim.run_until(sim::sec(5));

    // Cache /d/f on its home deployment via a read.
    OpResult read1 = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    ASSERT_TRUE(read1.status.ok());
    uint64_t v1 = read1.inode.version;

    // Delete and recreate through a *different* client.
    OpResult del = run_one(sim, fs, 9, make_op(OpType::kDeleteFile, "/d/f"));
    ASSERT_TRUE(del.status.ok());
    OpResult miss = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    EXPECT_EQ(miss.status.code(), Code::kNotFound);

    OpResult create =
        run_one(sim, fs, 9, make_op(OpType::kCreateFile, "/d/f"));
    ASSERT_TRUE(create.status.ok());
    OpResult read2 = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    ASSERT_TRUE(read2.status.ok());
    EXPECT_NE(read2.inode.id, read1.inode.id);  // fresh inode, not stale
    (void)v1;
}

TEST(LambdaFs, WriteInvalidatesParentOnItsHome)
{
    // A create also changes its parent directory's inode, which is homed
    // by the grandparent's hash — here another deployment than the new
    // file's. The write's INV round must reach that home too.
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    std::string dir;
    for (int i = 0; dir.empty(); ++i) {
        std::string d = "/p/d" + std::to_string(i);
        if (fs.partitioner().deployment_for(d) !=
            fs.partitioner().deployment_for(d + "/f")) {
            dir = d;
        }
    }
    fs.authoritative_tree().mkdirs(dir, root, 0);
    sim.run_until(sim::sec(5));

    OpResult before = run_one(sim, fs, 0, make_op(OpType::kStat, dir));
    ASSERT_TRUE(before.status.ok());
    OpResult cached = run_one(sim, fs, 0, make_op(OpType::kStat, dir));
    ASSERT_TRUE(cached.status.ok());
    ASSERT_TRUE(cached.cache_hit);

    OpResult create =
        run_one(sim, fs, 9, make_op(OpType::kCreateFile, dir + "/f"));
    ASSERT_TRUE(create.status.ok());
    OpResult after = run_one(sim, fs, 0, make_op(OpType::kStat, dir));
    ASSERT_TRUE(after.status.ok());
    EXPECT_FALSE(after.cache_hit);
    EXPECT_GT(after.inode.version, before.inode.version);
}

TEST(LambdaFs, MvOfDirectoryInvalidatesDescendants)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/a/b", root, 0);
    fs.authoritative_tree().create_file("/a/b/f", root, 0);
    fs.authoritative_tree().mkdirs("/z", root, 0);
    sim.run_until(sim::sec(5));

    ASSERT_TRUE(run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f"))
                    .status.ok());
    OpResult mv = run_one(sim, fs, 3, make_op(OpType::kMv, "/a", "/z/a"));
    ASSERT_TRUE(mv.status.ok());
    // The old path must be gone even where it was cached.
    OpResult stale = run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f"));
    EXPECT_EQ(stale.status.code(), Code::kNotFound);
    OpResult fresh = run_one(sim, fs, 0, make_op(OpType::kStat, "/z/a/b/f"));
    EXPECT_TRUE(fresh.status.ok());
}

TEST(LambdaFs, SubtreeDeleteCompletes)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    ns::build_flat_directory(fs.authoritative_tree(), "/big", 2000, root, 0);
    sim.run_until(sim::sec(5));

    ASSERT_TRUE(run_one(sim, fs, 0, make_op(OpType::kStat, "/big/f0"))
                    .status.ok());
    OpResult del =
        run_one(sim, fs, 1, make_op(OpType::kSubtreeDelete, "/big"));
    ASSERT_TRUE(del.status.ok());
    EXPECT_EQ(del.inodes_touched, 2001);
    OpResult gone = run_one(sim, fs, 0, make_op(OpType::kStat, "/big/f0"));
    EXPECT_EQ(gone.status.code(), Code::kNotFound);
}

Task<void>
co_client_loop(Simulation& sim, LambdaFs& fs, size_t client, int ops,
               sim::Rng& rng, const std::vector<std::string>& files,
               int& completed)
{
    for (int i = 0; i < ops; ++i) {
        Op op;
        double action = rng.uniform();
        const std::string& file = files[rng.index(files.size())];
        if (action < 0.8) {
            op = make_op(OpType::kStat, file);
        } else if (action < 0.9) {
            op = make_op(OpType::kCreateFile,
                         file + "_new" + std::to_string(client) + "_" +
                             std::to_string(i));
        } else {
            op = make_op(OpType::kLs, "/bench");
        }
        OpResult result = co_await fs.client(client).execute(op);
        // AlreadyExists races are fine; system errors are not.
        EXPECT_TRUE(result.status.ok() ||
                    result.status.code() == Code::kAlreadyExists ||
                    result.status.code() == Code::kNotFound)
            << result.status.to_string();
        ++completed;
        co_await sim::delay(sim, sim::usec(rng.uniform_int(100, 2000)));
    }
}

TEST(LambdaFs, MixedWorkloadConsistencySweep)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 3;
    spec.files_per_dir = 4;
    auto built = ns::build_balanced_tree(fs.authoritative_tree(), spec, root,
                                         0);
    sim.run_until(sim::sec(5));

    sim::Rng rng(99);
    std::vector<std::unique_ptr<sim::Rng>> rngs;
    int completed = 0;
    const int kOpsPerClient = 40;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        rngs.push_back(std::make_unique<sim::Rng>(rng.fork()));
        sim::spawn(co_client_loop(sim, fs, c, kOpsPerClient, *rngs.back(),
                                  built.files, completed));
    }
    sim.run_until(sim.now() + sim::sec(120));
    EXPECT_EQ(completed, static_cast<int>(fs.client_count()) * kOpsPerClient);

    // Post-quiescence coherence audit: stat of every original file via
    // every client's partition must match the authoritative tree.
    for (size_t i = 0; i < built.files.size(); ++i) {
        OpResult result = run_one(
            sim, fs, i % fs.client_count(),
            make_op(OpType::kStat, built.files[i]));
        auto truth = fs.authoritative_tree().stat(built.files[i], root);
        ASSERT_TRUE(truth.ok());
        ASSERT_TRUE(result.status.ok()) << built.files[i];
        EXPECT_EQ(result.inode.id, truth->id) << built.files[i];
        EXPECT_EQ(result.inode.version, truth->version) << built.files[i];
    }
}

TEST(LambdaFs, AutoScalingUnderLoad)
{
    Simulation sim;
    LambdaFsConfig config = small_config();
    // One HTTP slot per instance and a high replacement probability so
    // that the platform observes saturation quickly.
    config.function.concurrency_level = 1;
    config.client.http_replace_probability = 0.3;
    LambdaFs fs(sim, config);
    ns::UserContext root;
    auto built = ns::build_flat_directory(fs.authoritative_tree(), "/hot",
                                          200, root, 0);
    sim.run_until(sim::sec(5));
    int initial = fs.active_name_nodes();

    // Hammer the system from every client.
    sim::Rng rng(7);
    std::vector<std::unique_ptr<sim::Rng>> rngs;
    int completed = 0;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        rngs.push_back(std::make_unique<sim::Rng>(rng.fork()));
        sim::spawn(co_client_loop(sim, fs, c, 400, *rngs.back(), built.files,
                                  completed));
    }
    sim.run_until(sim.now() + sim::sec(60));
    EXPECT_GT(fs.active_name_nodes(), initial);
    EXPECT_GT(completed, 0);
}

TEST(LambdaFs, SurvivesNameNodeKills)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    auto built = ns::build_flat_directory(fs.authoritative_tree(), "/ft", 100,
                                          root, 0);
    sim.run_until(sim::sec(5));

    sim::Rng rng(13);
    std::vector<std::unique_ptr<sim::Rng>> rngs;
    int completed = 0;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        rngs.push_back(std::make_unique<sim::Rng>(rng.fork()));
        sim::spawn(co_client_loop(sim, fs, c, 100, *rngs.back(), built.files,
                                  completed));
    }
    // Kill a NameNode every 2 seconds, round-robin over deployments.
    for (int k = 0; k < 10; ++k) {
        sim.schedule(sim::sec(2) * (k + 1), [&fs, k] {
            fs.kill_name_node(k % fs.platform().deployment_count());
        });
    }
    sim.run_until(sim.now() + sim::sec(180));
    EXPECT_EQ(completed, static_cast<int>(fs.client_count()) * 100);
}

TEST(LambdaFs, CostAccountingGrowsWithWork)
{
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));
    for (int i = 0; i < 20; ++i) {
        run_one(sim, fs, static_cast<size_t>(i) % fs.client_count(),
                make_op(OpType::kStat, "/f"));
    }
    EXPECT_GT(fs.cost_so_far(), 0.0);
    // Simplified (provisioned-time) pricing must dominate pay-per-use.
    EXPECT_GT(fs.simplified_cost_so_far(), fs.cost_so_far());
}

}  // namespace
}  // namespace lfs::core
