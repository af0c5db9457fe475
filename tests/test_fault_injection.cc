/**
 * @file
 * Scenario-matrix fault-injection tests: a randomized toggle/read
 * workload runs against λFS while a deterministic sim::FaultPlan injects
 * message loss, instance crashes, datanode outages, or a network
 * partition (and all of them combined). Every cell must (a) drain the
 * workload — no stuck actor, no lost coroutine — and (b) pass the shared
 * consistency oracle: no stale read, no lost update, and no acknowledged
 * write missing from the final authoritative tree.
 *
 * Writes that fail with a *system* error after the client exhausted its
 * retries are ambiguous (the server may have committed them), so their
 * paths are tainted and excluded from oracle evaluation. Semantic
 * failures (ALREADY_EXISTS / NOT_FOUND) are definitive answers — with
 * anti-thrashing disabled, routing is deployment-stable and the
 * deployment's retained-result table makes every executed attempt
 * visible to every resubmission — and never taint.
 *
 * A final regression pins determinism itself: the same seeded scenario
 * run twice must produce byte-identical metrics JSON.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/sim/fault.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "tests/oracle/consistency_oracle.h"

namespace lfs::core {
namespace {

using sim::Simulation;
using sim::Task;

enum class Scenario {
    kMessageLoss,
    kInstanceCrash,
    kStoreOutage,
    kPartition,
    kCombined,
};

const char*
scenario_name(Scenario scenario)
{
    switch (scenario) {
      case Scenario::kMessageLoss:
        return "message-loss";
      case Scenario::kInstanceCrash:
        return "instance-crash";
      case Scenario::kStoreOutage:
        return "store-outage";
      case Scenario::kPartition:
        return "partition";
      case Scenario::kCombined:
        return "combined";
    }
    return "?";
}

/**
 * Faults are active inside [kFaultFrom, kFaultUntil) of sim time. The
 * workload starts right after a 3 s fault-free warmup (TCP connections,
 * latency baselines) and runs for a few sim-seconds, so the windows
 * cover it from the first operation.
 */
constexpr sim::SimTime kFaultFrom = sim::sec(3);
constexpr sim::SimTime kFaultUntil = sim::sec(20);

LambdaFsConfig
matrix_config(uint64_t seed)
{
    LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    config.seed = seed;
    // Deployment-stable routing: anti-thrashing reroutes to any connected
    // deployment, which would bypass the per-deployment retained-result
    // dedup this test's taint policy relies on.
    config.client.anti_thrashing = false;
    // Snappier, deeper retries so every fault window is survivable
    // within one op's attempt budget.
    config.client.max_attempts = 30;
    config.client.http_timeout = sim::sec(3);
    return config;
}

void
apply_message_loss(sim::FaultPlan& plan)
{
    sim::MessageFaultWindow rpc;
    rpc.from = kFaultFrom;
    rpc.until = kFaultUntil;
    rpc.channels = sim::channel_bit(sim::FaultChannel::kClientRpc) |
                   sim::channel_bit(sim::FaultChannel::kGateway);
    rpc.drop_request_p = 0.10;
    rpc.drop_reply_p = 0.10;
    rpc.duplicate_p = 0.05;
    rpc.delay_p = 0.20;
    rpc.delay_min = sim::usec(100);
    rpc.delay_max = sim::msec(5);
    plan.add_message_faults(rpc);
    // INV/ACK loss forces the coordinator's retransmission path.
    sim::MessageFaultWindow coord;
    coord.from = kFaultFrom;
    coord.until = kFaultUntil;
    coord.channels = sim::channel_bit(sim::FaultChannel::kCoordInv) |
                     sim::channel_bit(sim::FaultChannel::kCoordAck);
    coord.drop_p = 0.10;
    coord.duplicate_p = 0.05;
    plan.add_message_faults(coord);
}

void
apply_instance_crash(sim::FaultPlan& plan)
{
    sim::InstanceFaultWindow w;
    w.from = kFaultFrom;
    w.until = kFaultUntil;
    w.crash_p = 0.02;
    w.stall_p = 0.05;
    plan.add_instance_faults(w);
}

void
apply_store_outage(sim::FaultPlan& plan)
{
    // The test files share one parent directory and store sharding is
    // by parent path, so a single-shard outage could miss them all;
    // take every shard down instead.
    sim::StoreOutageWindow w;
    w.shard = -1;
    w.from = kFaultFrom;
    w.until = kFaultFrom + sim::sec(5);
    plan.add_store_outage(w);
}

void
apply_partition(sim::FaultPlan& plan, LambdaFs& fs)
{
    // Partition the deployment that actually owns some test traffic.
    sim::PartitionWindow w;
    w.from = kFaultFrom;
    w.until = kFaultFrom + sim::sec(5);
    w.groups = {fs.partitioner().deployment_for("/fault/f0")};
    plan.add_partition(w);
}

void
apply_scenario(sim::FaultPlan& plan, Scenario scenario, LambdaFs& fs)
{
    switch (scenario) {
      case Scenario::kMessageLoss:
        apply_message_loss(plan);
        break;
      case Scenario::kInstanceCrash:
        apply_instance_crash(plan);
        break;
      case Scenario::kStoreOutage:
        apply_store_outage(plan);
        break;
      case Scenario::kPartition:
        apply_partition(plan, fs);
        break;
      case Scenario::kCombined:
        apply_message_loss(plan);
        apply_instance_crash(plan);
        apply_store_outage(plan);
        apply_partition(plan, fs);
        plan.add_kill_schedule(
            sim::sec(6), kFaultUntil, [&fs](int round) {
                return fs.kill_name_node(
                    round % fs.platform().deployment_count());
            });
        break;
    }
}

bool
system_failure(const Status& status)
{
    switch (status.code()) {
      case Code::kUnavailable:
      case Code::kDeadlineExceeded:
      case Code::kAborted:
      case Code::kInternal:
        return true;
      default:
        return false;
    }
}

Task<void>
co_actor(Simulation& sim, LambdaFs& fs, size_t client, int ops,
         std::vector<std::string> files, oracle::ConsistencyOracle& audit,
         sim::Rng rng, sim::WaitGroup& wg)
{
    ns::UserContext root;
    for (int i = 0; i < ops; ++i) {
        const std::string& target = files[rng.index(files.size())];
        if (rng.bernoulli(0.3)) {
            Op op;
            op.path = target;
            bool exists = fs.authoritative_tree().stat(target, root).ok();
            op.type = exists ? OpType::kDeleteFile : OpType::kCreateFile;
            sim::SimTime issued = sim.now();
            OpResult result = co_await fs.client(client).execute(op);
            if (result.status.ok()) {
                auto now_state = fs.authoritative_tree().stat(target, root);
                audit.record_commit(
                    target, issued, sim.now(),
                    now_state.ok() ? now_state->id : ns::kInvalidId,
                    now_state.ok() ? now_state->version : 0);
            } else if (system_failure(result.status)) {
                // Retries exhausted with the outcome unknown: the write
                // may have committed server-side.
                audit.taint(target);
            }
        } else {
            Op op;
            op.type = OpType::kStat;
            op.path = target;
            sim::SimTime start = sim.now();
            OpResult result = co_await fs.client(client).execute(op);
            sim::SimTime end = sim.now();
            if (result.status.ok()) {
                audit.record_read(target, start, end, result.inode.id,
                                  result.inode.version);
            } else if (result.status.code() == Code::kNotFound) {
                audit.record_read(target, start, end, ns::kInvalidId, 0);
            }
        }
        co_await sim::delay(sim, sim::usec(rng.uniform_int(50, 3000)));
    }
    wg.done();
}

struct ScenarioRun {
    int wg_remaining = 0;
    oracle::OracleReport report;
    uint64_t messages_dropped = 0;
    uint64_t messages_duplicated = 0;
    uint64_t partition_drops = 0;
    uint64_t instance_crashes = 0;
    uint64_t store_stalled_ops = 0;
    uint64_t kills = 0;
    uint64_t coord_retransmits = 0;
    std::string metrics_json;
};

ScenarioRun
run_scenario(Scenario scenario, uint64_t seed)
{
    Simulation sim;
    LambdaFs fs(sim, matrix_config(seed));
    sim::FaultPlan plan(sim, seed * 7919 + 1);
    apply_scenario(plan, scenario, fs);

    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/fault", root, 0);
    std::vector<std::string> files;
    for (int i = 0; i < 12; ++i) {
        files.push_back("/fault/f" + std::to_string(i));
        fs.authoritative_tree().create_file(files.back(), root, 0);
    }
    sim.run_until(sim::sec(3));

    oracle::ConsistencyOracle audit;
    sim::Rng rng(seed * 13 + 5);
    sim::WaitGroup wg(sim);
    for (size_t c = 0; c < fs.client_count(); ++c) {
        wg.add();
        sim::spawn(co_actor(sim, fs, c, 60, files, audit, rng.fork(), wg));
    }
    sim.run_until(sim.now() + sim::sec(600));

    ScenarioRun run;
    run.wg_remaining = wg.count();
    run.report = audit.evaluate(fs.authoritative_tree());
    run.messages_dropped = plan.messages_dropped();
    run.messages_duplicated = plan.messages_duplicated();
    run.partition_drops = plan.partition_drops();
    run.instance_crashes = plan.instance_crashes();
    run.store_stalled_ops = plan.store_stalled_ops();
    run.kills = plan.kills();
    run.coord_retransmits = fs.coordinator().retransmits();
    run.metrics_json = sim.metrics().to_json(sim.now());
    return run;
}

void
expect_consistent(const ScenarioRun& run, Scenario scenario)
{
    SCOPED_TRACE(scenario_name(scenario));
    EXPECT_EQ(run.wg_remaining, 0) << "workload did not drain";
    EXPECT_GT(run.report.reads_checked, 50);
    EXPECT_EQ(run.report.violations(), 0)
        << "oracle violations; first: "
        << (run.report.details.empty() ? "-" : run.report.details.front());
}

class FaultMatrixTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultMatrixTest, MessageLossKeepsHistoryConsistent)
{
    ScenarioRun run = run_scenario(Scenario::kMessageLoss, GetParam());
    expect_consistent(run, Scenario::kMessageLoss);
    EXPECT_GT(run.messages_dropped, 0u);
    EXPECT_GT(run.coord_retransmits, 0u);
}

TEST_P(FaultMatrixTest, InstanceCrashesKeepHistoryConsistent)
{
    ScenarioRun run = run_scenario(Scenario::kInstanceCrash, GetParam());
    expect_consistent(run, Scenario::kInstanceCrash);
    EXPECT_GT(run.instance_crashes, 0u);
}

TEST_P(FaultMatrixTest, StoreOutageKeepsHistoryConsistent)
{
    ScenarioRun run = run_scenario(Scenario::kStoreOutage, GetParam());
    expect_consistent(run, Scenario::kStoreOutage);
    EXPECT_GT(run.store_stalled_ops, 0u);
}

TEST_P(FaultMatrixTest, PartitionKeepsHistoryConsistent)
{
    ScenarioRun run = run_scenario(Scenario::kPartition, GetParam());
    expect_consistent(run, Scenario::kPartition);
    EXPECT_GT(run.partition_drops, 0u);
}

TEST_P(FaultMatrixTest, CombinedChaosKeepsHistoryConsistent)
{
    ScenarioRun run = run_scenario(Scenario::kCombined, GetParam());
    expect_consistent(run, Scenario::kCombined);
    EXPECT_GT(run.messages_dropped, 0u);
    EXPECT_GT(run.kills, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultMatrixTest,
                         ::testing::Values(7u, 19u));

TEST(FaultDeterminism, SameSeedProducesIdenticalMetrics)
{
    ScenarioRun a = run_scenario(Scenario::kCombined, 7u);
    ScenarioRun b = run_scenario(Scenario::kCombined, 7u);
    EXPECT_EQ(a.metrics_json, b.metrics_json)
        << "seeded fault scenario is not reproducible";
    EXPECT_EQ(a.messages_dropped, b.messages_dropped);
    EXPECT_EQ(a.kills, b.kills);
    // And a different seed must actually change the injected sequence.
    ScenarioRun c = run_scenario(Scenario::kCombined, 8u);
    EXPECT_NE(a.metrics_json, c.metrics_json);
}

TEST(FaultPlan, KillScheduleFiresAtIntervalUntilDeadline)
{
    Simulation sim;
    sim::FaultPlan plan(sim, 1);
    std::vector<int> rounds;
    plan.add_kill_schedule(sim::sec(10), sim::sec(60), [&rounds](int round) {
        rounds.push_back(round);
        return round % 2 == 0;  // only even rounds "kill" something
    });
    sim.run();
    EXPECT_EQ(rounds.size(), 6u);  // t=10..60
    EXPECT_EQ(plan.kill_rounds(), 6);
    EXPECT_EQ(plan.kills(), 3u);
}

}  // namespace
}  // namespace lfs::core
