/**
 * @file
 * Cross-system integration tests: every Dfs implementation is driven
 * through the same workload machinery and checked for the paper's
 * *qualitative* relationships at miniature scale — λFS reads beat
 * stateless HopsFS once caches are warm, writes are store-bound
 * everywhere, InfiniCache pays gateway latency per op, and the
 * industrial workload driver completes on all systems.
 *
 * A differential oracle then checks that the systems differ only in
 * where state lives and where time goes: one op stream gives the same
 * answers on every tree-backed system, and the same status codes on
 * both row-backed ones (DESIGN.md §12).
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/hopsfs/hopsfs.h"
#include "src/indexfs/indexfs.h"
#include "src/indexfs/lambda_indexfs.h"
#include "src/infinicache/infinicache.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/random.h"
#include "src/workload/microbench.h"
#include "src/workload/spotify_workload.h"

namespace lfs {
namespace {

using sim::Simulation;

ns::BuiltTree
small_tree(ns::NamespaceTree& tree)
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 4;
    spec.files_per_dir = 4;
    return ns::build_balanced_tree(tree, spec, {}, 0);
}

workload::MicrobenchResult
bench_reads(Simulation& sim, workload::Dfs& dfs, int clients, int ops)
{
    workload::MicrobenchConfig config;
    config.op = OpType::kStat;
    config.num_clients = clients;
    config.ops_per_client = ops;
    config.warmup = sim::sec(4);
    return workload::run_microbench(sim, dfs,
                                    small_tree(dfs.authoritative_tree()),
                                    config);
}

TEST(CrossSystem, WarmLambdaReadsBeatStatelessHopsFs)
{
    double lambda_tput = 0;
    double hops_tput = 0;
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        lambda_tput = bench_reads(sim, fs, 32, 200).ops_per_sec;
    }
    {
        Simulation sim;
        hopsfs::HopsFsConfig config;
        config.num_name_nodes = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        hopsfs::HopsFs fs(sim, config);
        hops_tput = bench_reads(sim, fs, 32, 200).ops_per_sec;
    }
    // 32 warm clients over 80 files: λFS serves from cache; HopsFS pays
    // the store round trip on every read.
    EXPECT_GT(lambda_tput, hops_tput * 2.0);
}

TEST(CrossSystem, WritesAreStoreBoundEverywhere)
{
    auto bench_creates = [](workload::Dfs& dfs, Simulation& sim) {
        workload::MicrobenchConfig config;
        config.op = OpType::kCreateFile;
        config.num_clients = 32;
        config.ops_per_client = 60;
        config.warmup = sim::sec(4);
        return workload::run_microbench(
            sim, dfs, small_tree(dfs.authoritative_tree()), config);
    };
    double lambda_tput = 0;
    double hops_tput = 0;
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        lambda_tput = bench_creates(fs, sim).ops_per_sec;
    }
    {
        Simulation sim;
        hopsfs::HopsFsConfig config;
        config.num_name_nodes = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        hopsfs::HopsFs fs(sim, config);
        hops_tput = bench_creates(fs, sim).ops_per_sec;
    }
    // Same store model on both sides: creates land within ~2.5x of each
    // other (neither NameNode layer is the bottleneck).
    EXPECT_LT(lambda_tput / hops_tput, 2.5);
    EXPECT_GT(lambda_tput / hops_tput, 0.4);
}

TEST(CrossSystem, InfiniCachePaysGatewayLatencyPerOp)
{
    Simulation sim;
    infinicache::InfiniCacheConfig config;
    config.num_functions = 4;
    config.total_vcpus = 32.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    infinicache::InfiniCacheFs fs(sim, config);
    workload::MicrobenchResult r = bench_reads(sim, fs, 16, 100);
    // Every op crosses the gateway twice: mean latency must sit in the
    // HTTP band (>= 7ms), far above the TCP-RPC systems.
    EXPECT_GT(r.mean_latency_ms, 7.0);
}

TEST(CrossSystem, SpotifyWorkloadCompletesOnAllSystems)
{
    workload::SpotifyConfig wcfg;
    wcfg.base_throughput = 300.0;
    wcfg.duration = sim::sec(40);
    wcfg.epoch = sim::sec(10);
    wcfg.num_client_vms = 2;

    auto run = [&](workload::Dfs& dfs, Simulation& sim) {
        sim.run_until(sim::sec(4));
        workload::SpotifyWorkload workload(
            sim, dfs, small_tree(dfs.authoritative_tree()), wcfg);
        workload.start();
        sim.run_until(sim.now() + sim::sec(200));
        EXPECT_TRUE(workload.finished()) << dfs.name();
        EXPECT_EQ(static_cast<int64_t>(dfs.metrics().completed() +
                                       dfs.metrics().failed()),
                  workload.offered())
            << dfs.name();
        EXPECT_EQ(dfs.metrics().failed(), 0u) << dfs.name();
    };
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 32.0;
        config.function.vcpus = 2.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        run(fs, sim);
    }
    {
        Simulation sim;
        hopsfs::HopsFsConfig config;
        config.num_name_nodes = 2;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        hopsfs::HopsFs fs(sim, config);
        run(fs, sim);
    }
    {
        Simulation sim;
        cephfs::CephFsConfig config;
        config.num_mds = 2;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        cephfs::CephFs fs(sim, config);
        run(fs, sim);
    }
}

TEST(CrossSystem, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 32.0;
        config.function.vcpus = 2.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 8;
        config.seed = 1234;
        core::LambdaFs fs(sim, config);
        workload::MicrobenchConfig mcfg;
        mcfg.op = OpType::kStat;
        mcfg.num_clients = 16;
        mcfg.ops_per_client = 50;
        workload::MicrobenchResult r = workload::run_microbench(
            sim, fs, small_tree(fs.authoritative_tree()), mcfg);
        return std::make_pair(sim.events_executed(), r.ops_per_sec);
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------
// Cross-system op semantics
// ---------------------------------------------------------------------

/** The seven configurations the paper compares (§5). */
enum class System {
    kLambdaFs,
    kHopsFs,
    kHopsFsCache,
    kInfiniCache,
    kCephFs,
    kIndexFs,
    kLambdaIndexFs,
};

constexpr const char* kSystemNames[] = {
    "lambda-fs", "hopsfs",  "hopsfs-cache",  "infinicache",
    "cephfs",    "indexfs", "lambda-indexfs"};

constexpr System kTreeBacked[] = {System::kLambdaFs, System::kHopsFs,
                                  System::kHopsFsCache, System::kInfiniCache,
                                  System::kCephFs};
constexpr System kRowBacked[] = {System::kIndexFs, System::kLambdaIndexFs};
constexpr System kAllSystems[] = {
    System::kLambdaFs,    System::kHopsFs, System::kHopsFsCache,
    System::kInfiniCache, System::kCephFs, System::kIndexFs,
    System::kLambdaIndexFs};

/** A two-client miniature of @p system. */
std::unique_ptr<workload::Dfs>
make_system(Simulation& sim, System system)
{
    switch (system) {
      case System::kLambdaFs: {
        core::LambdaFsConfig config;
        config.num_deployments = 4;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        return std::make_unique<core::LambdaFs>(sim, config);
      }
      case System::kHopsFs:
      case System::kHopsFsCache: {
        hopsfs::HopsFsConfig config;
        config.num_name_nodes = 4;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        if (system == System::kHopsFsCache) {
            config.label = "hopsfs-cache";
            config.cache_bytes_per_nn = 64ull * 1024 * 1024;
        }
        return std::make_unique<hopsfs::HopsFs>(sim, config);
      }
      case System::kInfiniCache: {
        infinicache::InfiniCacheConfig config;
        config.num_functions = 4;
        config.total_vcpus = 32.0;
        config.function.vcpus = 4.0;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        return std::make_unique<infinicache::InfiniCacheFs>(sim, config);
      }
      case System::kCephFs: {
        cephfs::CephFsConfig config;
        config.num_mds = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        return std::make_unique<cephfs::CephFs>(sim, config);
      }
      case System::kIndexFs: {
        indexfs::IndexFsConfig config;
        config.num_servers = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        return std::make_unique<indexfs::IndexFs>(sim, config);
      }
      case System::kLambdaIndexFs: {
        indexfs::LambdaIndexFsConfig config;
        config.num_deployments = 2;
        config.total_vcpus = 16.0;
        config.num_client_vms = 1;
        config.clients_per_vm = 2;
        config.num_lsm_instances = 2;
        return std::make_unique<indexfs::LambdaIndexFs>(sim, config);
      }
    }
    return nullptr;
}

sim::Task<void>
co_run(workload::DfsClient& client, Op op, OpResult& out, bool& done)
{
    out = co_await client.execute(std::move(op));
    done = true;
}

/** Execute @p op through @p client to completion. */
OpResult
run_op(Simulation& sim, workload::Dfs& fs, size_t client, Op op)
{
    OpResult result;
    bool done = false;
    sim::spawn(co_run(fs.client(client), std::move(op), result, done));
    while (!done && sim.step()) {
    }
    EXPECT_TRUE(done);
    return result;
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

TEST(CrossSystem, ReadsNeedReadPermissionEverywhere)
{
    ns::UserContext other;
    other.uid = 1000;
    other.gid = 1000;
    for (System system : kAllSystems) {
        Simulation sim;
        std::unique_ptr<workload::Dfs> fs = make_system(sim, system);
        sim.run_until(sim::sec(2));
        const std::string who = fs->name();
        ASSERT_TRUE(run_op(sim, *fs, 0, make_op(OpType::kMkdir, "/d"))
                        .status.ok())
            << who;
        ASSERT_TRUE(
            run_op(sim, *fs, 0, make_op(OpType::kCreateFile, "/d/secret"))
                .status.ok())
            << who;
        Op chmod = make_op(OpType::kSetAttr, "/d/secret");
        chmod.attr.mask = AttrUpdate::kMode;
        chmod.attr.mode = 0600;
        ASSERT_TRUE(run_op(sim, *fs, 0, chmod).status.ok()) << who;

        Op denied = make_op(OpType::kReadFile, "/d/secret");
        denied.user = other;
        EXPECT_EQ(run_op(sim, *fs, 0, denied).status.code(),
                  Code::kPermissionDenied)
            << who << " (cold read)";

        // Warm hit: a root read from the same client primes every cache
        // on its path (NameNode, function, capability or lease).
        Op allowed = make_op(OpType::kReadFile, "/d/secret");
        ASSERT_TRUE(run_op(sim, *fs, 1, allowed).status.ok()) << who;
        EXPECT_EQ(run_op(sim, *fs, 1, denied).status.code(),
                  Code::kPermissionDenied)
            << who << " (warm hit)";
        if (system != System::kHopsFs) {
            EXPECT_TRUE(run_op(sim, *fs, 1, allowed).cache_hit)
                << who << ": the warm read was not a cache hit";
        }
    }
}

/**
 * A fault-free, single-client stream over the full op alphabet on a
 * small path space. Session ids are closed whether or not their open
 * succeeded, so the stream never depends on results; leases either
 * never expire or expire at once, so GC does not depend on timing.
 */
std::vector<Op>
op_stream(uint64_t seed, int steps)
{
    sim::Rng rng(seed);
    auto random_path = [&rng](int max_depth) {
        std::string p;
        int depth = static_cast<int>(rng.uniform_int(1, max_depth));
        for (int i = 0; i < depth; ++i) {
            p += "/n" + std::to_string(rng.uniform_int(0, 4));
        }
        return p;
    };
    std::vector<Op> ops;
    uint64_t next_sid = 1;
    for (int step = 0; step < steps; ++step) {
        Op op;
        double action = rng.uniform();
        if (action < 0.18) {
            op = make_op(OpType::kCreateFile, random_path(4));
        } else if (action < 0.3) {
            op = make_op(OpType::kMkdir, random_path(3));
        } else if (action < 0.33) {
            op = make_op(OpType::kSubtreeDelete, random_path(4));
        } else if (action < 0.35) {
            op = make_op(OpType::kDeleteFile, random_path(4));
        } else if (action < 0.41) {
            op = make_op(OpType::kMv, random_path(3), random_path(3));
        } else if (action < 0.44) {
            op = make_op(OpType::kSubtreeMv, random_path(2), random_path(2));
        } else if (action < 0.5) {
            op = make_op(OpType::kSymlink, random_path(3), random_path(3));
        } else if (action < 0.56) {
            op = make_op(OpType::kHardLink, random_path(4), random_path(4));
        } else if (action < 0.62) {
            op = make_op(OpType::kSetAttr, random_path(4));
            op.attr.mask = AttrUpdate::kMode;
            op.attr.mode = rng.bernoulli(0.5) ? 0600 : 0644;
        } else if (action < 0.68) {
            op = make_op(OpType::kOpenSession, random_path(4));
            op.session_id = next_sid++;
            op.lease_ttl = rng.bernoulli(0.5) ? 0 : sim::sec(1000000);
        } else if (action < 0.72) {
            op = make_op(OpType::kCloseSession, "/");
            op.session_id = rng.uniform_int(1, static_cast<int64_t>(next_sid));
        } else if (action < 0.75) {
            op = make_op(OpType::kGcPrune, "/");
        } else if (action < 0.78) {
            op = make_op(OpType::kStatFs, "/");
        } else if (action < 0.86) {
            op = make_op(OpType::kReadFile, random_path(4));
        } else if (action < 0.93) {
            op = make_op(OpType::kStat, random_path(4));
        } else {
            op = make_op(OpType::kLs, random_path(3));
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/** What an op answered, as far as the differential oracle compares. */
struct Answer {
    Code code = Code::kOk;
    ns::INodeId id = 0;
    ns::FsStats stats;
};

std::vector<Answer>
answers(System system, const std::vector<Op>& ops)
{
    Simulation sim;
    std::unique_ptr<workload::Dfs> fs = make_system(sim, system);
    sim.run_until(sim::sec(2));
    std::vector<Answer> out;
    for (const Op& op : ops) {
        OpResult result = run_op(sim, *fs, 0, op);
        out.push_back({result.status.code(), result.inode.id, result.stats});
    }
    return out;
}

std::string
describe(const Op& op, size_t step)
{
    return "op " + std::to_string(step) + ": " + op_name(op.type) + " " +
           op.path + (op.dst.empty() ? "" : " -> " + op.dst);
}

TEST(CrossSystem, TreeBackedSystemsGiveTheSameAnswers)
{
    for (uint64_t seed : {7u, 11u}) {
        std::vector<Op> ops = op_stream(seed, 240);
        std::vector<Answer> want = answers(System::kLambdaFs, ops);
        size_t ok = 0;
        for (const Answer& a : want) {
            ok += a.code == Code::kOk ? 1 : 0;
        }
        EXPECT_GT(ok, ops.size() / 6) << "the stream barely succeeds";
        for (System system : kTreeBacked) {
            std::vector<Answer> got = answers(system, ops);
            ASSERT_EQ(got.size(), want.size());
            int mismatches = 0;
            for (size_t i = 0; i < ops.size() && mismatches < 5; ++i) {
                std::string where = "seed " + std::to_string(seed) + " " +
                                    describe(ops[i], i) + " on " +
                                    kSystemNames[static_cast<int>(system)];
                bool same = got[i].code == want[i].code;
                EXPECT_EQ(got[i].code, want[i].code) << where;
                if (same && want[i].code == Code::kOk) {
                    same = got[i].id == want[i].id;
                    EXPECT_EQ(got[i].id, want[i].id) << where;
                }
                if (same && ops[i].type == OpType::kStatFs) {
                    const ns::FsStats& a = got[i].stats;
                    const ns::FsStats& b = want[i].stats;
                    same = a.inodes == b.inodes && a.files == b.files &&
                           a.dirs == b.dirs && a.symlinks == b.symlinks &&
                           a.open_sessions == b.open_sessions &&
                           a.orphans == b.orphans &&
                           a.metadata_bytes == b.metadata_bytes;
                    EXPECT_TRUE(same) << where << ": statfs differs";
                }
                mismatches += same ? 0 : 1;
            }
        }
    }
}

TEST(CrossSystem, RowBackedSystemsGiveTheSameStatuses)
{
    for (uint64_t seed : {7u, 11u}) {
        std::vector<Op> ops = op_stream(seed, 240);
        std::vector<Answer> index = answers(System::kIndexFs, ops);
        std::vector<Answer> lambda = answers(System::kLambdaIndexFs, ops);
        size_t ok = 0;
        for (const Answer& a : lambda) {
            ok += a.code == Code::kOk ? 1 : 0;
        }
        EXPECT_GT(ok, ops.size() / 6) << "the stream barely succeeds";
        ASSERT_EQ(index.size(), lambda.size());
        int mismatches = 0;
        for (size_t i = 0; i < ops.size() && mismatches < 5; ++i) {
            EXPECT_EQ(index[i].code, lambda[i].code)
                << "seed " << seed << " " << describe(ops[i], i);
            mismatches += index[i].code == lambda[i].code ? 0 : 1;
        }
    }
}

}  // namespace
}  // namespace lfs
