/**
 * @file
 * Tests for the workload module: Table-2 op-mix sampling, target-path
 * generation, the Spotify driver's open-loop/roll-over semantics, the
 * closed-loop microbenchmark driver, tree-test, and fault injection.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/workload/microbench.h"
#include "src/workload/op_mix.h"
#include "src/workload/path_population.h"
#include "src/workload/spotify_workload.h"
#include "src/workload/tree_test.h"

namespace lfs::workload {
namespace {

using sim::Simulation;
using sim::Task;

/** A trivially fast Dfs for driver tests: fixed-latency in-memory ops. */
class FakeDfs : public Dfs {
  public:
    explicit FakeDfs(Simulation& sim, sim::SimTime latency = sim::usec(500))
        : sim_(sim), latency_(latency)
    {
        for (int i = 0; i < 64; ++i) {
            clients_.push_back(std::make_unique<FakeClient>(*this));
        }
        ns::UserContext root;
        tree_.mkdirs("/bench", root, 0);
    }

    std::string name() const override { return "fake"; }
    DfsClient& client(size_t index) override { return *clients_.at(index); }
    size_t client_count() const override { return clients_.size(); }
    SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override { return tree_; }
    int active_name_nodes() const override { return 1; }
    double cost_so_far() const override { return 0.0; }

    int64_t executed = 0;

  private:
    class FakeClient : public DfsClient {
      public:
        explicit FakeClient(FakeDfs& fs) : fs_(fs) {}

        Task<OpResult>
        execute(Op op) override
        {
            co_await sim::delay(fs_.sim_, fs_.latency_);
            ++fs_.executed;
            OpResult result;
            result.status = Status::make_ok();
            result.inode.name = op.path;
            co_return result;
        }

      private:
        FakeDfs& fs_;
    };

    Simulation& sim_;
    sim::SimTime latency_;
    ns::NamespaceTree tree_;
    std::vector<std::unique_ptr<FakeClient>> clients_;
    SystemMetrics metrics_;
};

TEST(OpMix, SpotifyFrequenciesMatchTable2)
{
    OpMix mix = OpMix::spotify();
    EXPECT_NEAR(mix.read_fraction(), 0.9523, 1e-3);
    sim::Rng rng(3);
    std::map<OpType, int> counts;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) {
        counts[mix.sample(rng)]++;
    }
    EXPECT_NEAR(counts[OpType::kReadFile] / double(samples), 0.6922, 0.01);
    EXPECT_NEAR(counts[OpType::kStat] / double(samples), 0.17, 0.01);
    EXPECT_NEAR(counts[OpType::kLs] / double(samples), 0.0901, 0.01);
    EXPECT_NEAR(counts[OpType::kCreateFile] / double(samples), 0.027, 0.005);
    EXPECT_NEAR(counts[OpType::kMv] / double(samples), 0.013, 0.004);
    EXPECT_NEAR(counts[OpType::kDeleteFile] / double(samples), 0.0075,
                0.003);
}

TEST(OpMix, SingleAlwaysSamplesThatOp)
{
    OpMix mix = OpMix::single(OpType::kMkdir);
    sim::Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(mix.sample(rng), OpType::kMkdir);
    }
}

ns::BuiltTree
small_tree()
{
    ns::NamespaceTree tree;
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 3;
    spec.files_per_dir = 3;
    return ns::build_balanced_tree(tree, spec, {}, 0);
}

TEST(PathPopulation, ReadsTargetExistingFiles)
{
    PathPopulation population(small_tree(), sim::Rng(5));
    for (int i = 0; i < 50; ++i) {
        Op op = population.make_op(OpType::kStat);
        EXPECT_EQ(op.type, OpType::kStat);
        EXPECT_TRUE(op.path.rfind("/bench", 0) == 0) << op.path;
    }
}

TEST(PathPopulation, CreatesAreUnique)
{
    PathPopulation population(small_tree(), sim::Rng(5));
    std::set<std::string> seen;
    for (int i = 0; i < 200; ++i) {
        Op op = population.make_op(OpType::kCreateFile);
        EXPECT_TRUE(seen.insert(op.path).second) << op.path;
    }
    EXPECT_EQ(population.created_pool(), 200u);
}

TEST(PathPopulation, DeleteConsumesCreatedPool)
{
    PathPopulation population(small_tree(), sim::Rng(5));
    // First delete with an empty pool degrades into a create.
    Op first = population.make_op(OpType::kDeleteFile);
    EXPECT_EQ(first.type, OpType::kCreateFile);
    Op del = population.make_op(OpType::kDeleteFile);
    EXPECT_EQ(del.type, OpType::kDeleteFile);
    EXPECT_EQ(del.path, first.path);
    EXPECT_EQ(population.created_pool(), 0u);
}

TEST(PathPopulation, MvRenamesCreatedFile)
{
    PathPopulation population(small_tree(), sim::Rng(5));
    Op created = population.make_op(OpType::kCreateFile);
    Op mv = population.make_op(OpType::kMv);
    EXPECT_EQ(mv.type, OpType::kMv);
    EXPECT_EQ(mv.path, created.path);
    EXPECT_FALSE(mv.dst.empty());
}

TEST(SpotifyWorkload, CompletesOfferedOpsOnFastSystem)
{
    Simulation sim;
    FakeDfs dfs(sim);
    SpotifyConfig config;
    config.base_throughput = 500.0;
    config.duration = sim::sec(30);
    config.epoch = sim::sec(5);
    config.num_client_vms = 4;
    SpotifyWorkload workload(sim, dfs, small_tree(), config);
    workload.start();
    sim.run_until(sim::sec(90));
    EXPECT_TRUE(workload.finished());
    EXPECT_GT(workload.offered(), 30 * 400);  // at least ~base x duration
    EXPECT_EQ(dfs.executed, workload.offered());
    EXPECT_EQ(static_cast<int64_t>(dfs.metrics().completed()),
              workload.offered());
}

TEST(SpotifyWorkload, RateFollowsParetoWithCap)
{
    Simulation sim;
    FakeDfs dfs(sim);
    SpotifyConfig config;
    config.base_throughput = 1000.0;
    config.duration = sim::sec(120);
    config.epoch = sim::sec(5);
    config.burst_cap = 7.0;
    SpotifyWorkload workload(sim, dfs, small_tree(), config);
    workload.start();
    double max_rate = 0.0;
    for (int t = 0; t < 120; t += 5) {
        sim.run_until(sim::sec(t) + sim::msec(1));
        max_rate = std::max(max_rate, workload.current_rate());
        EXPECT_GE(workload.current_rate(), 1000.0 - 1e-6);
        EXPECT_LE(workload.current_rate(), 7000.0 + 1e-6);
    }
    EXPECT_GT(max_rate, 1100.0);  // some epoch spiked
}

TEST(Microbench, ClosedLoopThroughputMatchesLatency)
{
    Simulation sim;
    FakeDfs dfs(sim, sim::msec(1));
    MicrobenchConfig config;
    config.op = OpType::kStat;
    config.num_clients = 16;
    config.ops_per_client = 100;
    config.warmup = sim::msec(100);
    MicrobenchResult result =
        run_microbench(sim, dfs, small_tree(), config);
    EXPECT_EQ(result.completed, 1600);
    // 16 clients, 1ms per op => ~16k ops/s.
    EXPECT_NEAR(result.ops_per_sec, 16000.0, 1600.0);
    EXPECT_NEAR(result.mean_latency_ms, 1.0, 0.2);
}

TEST(TreeTest, WritePhaseThenReadPhase)
{
    Simulation sim;
    FakeDfs dfs(sim, sim::usec(200));
    TreeTestConfig config;
    config.num_clients = 8;
    config.ops_per_client = 50;
    config.num_dirs = 4;
    TreeTestResult result =
        run_tree_test(sim, dfs, config, /*prepare_dir=*/nullptr);
    EXPECT_EQ(result.writes, 400);
    EXPECT_EQ(result.reads, 400);
    EXPECT_GT(result.write_ops_per_sec, 0.0);
    EXPECT_GT(result.read_ops_per_sec, 0.0);
    EXPECT_EQ(result.failures, 0);
}

TEST(TreeTest, FixedTotalSplitsAcrossClients)
{
    Simulation sim;
    FakeDfs dfs(sim, sim::usec(200));
    TreeTestConfig config;
    config.num_clients = 10;
    config.fixed_total_ops = 1000;
    config.num_dirs = 4;
    TreeTestResult result =
        run_tree_test(sim, dfs, config, /*prepare_dir=*/nullptr);
    EXPECT_EQ(result.writes, 1000);
}

}  // namespace
}  // namespace lfs::workload
