/**
 * @file
 * End-to-end determinism regression for the metadata op surface: a
 * scripted, seeded sequence of operations through the full λFS stack
 * (client -> NameNode -> coherence -> store) must execute in exactly the
 * same (when, seq) order forever. The golden hash below was captured
 * BEFORE the extended op surface (links/setattr/statfs/sessions/GC)
 * landed, so it proves the new op plumbing leaves every legacy schedule
 * byte-identical while the new ops are not used — the same property the
 * perf-smoke gate checks for fig11 output.
 *
 * The same driver runs against every baseline under a FaultPlan that
 * forces client-side timeouts, resubmissions or perturbed round trips,
 * with attribution on so the retry ledger is folded into the hash too.
 * Those goldens pin each client's request path — the timeout race, the
 * TCP round trip and the attempt/backoff ledger — byte for byte.
 *
 * Every golden comes as a pair. The outcome hash covers what each op
 * returned and when. The full hash also folds in the kernel's event
 * count, so it moves (deliberately, and only then) when the kernel stops
 * running events that change nothing — as when client timeouts became
 * cancellable and idle reclamation kept one deadline per instance.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/hopsfs/hopsfs.h"
#include "src/indexfs/indexfs.h"
#include "src/indexfs/lambda_indexfs.h"
#include "src/infinicache/infinicache.h"
#include "src/sim/fault.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

/** FNV-1a accumulator for order-sensitive trace hashing. */
class TraceHash {
  public:
    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    /**
     * Fold an op's outcome-independent ledger in when attribution is on
     * (off in the λFS legacy/extended goldens, which predate it).
     */
    void
    mix_ledger(const sim::Simulation& sim, const sim::LatencyLedger& ledger)
    {
        if (!sim.attribution()) {
            return;
        }
        for (size_t i = 0; i < sim::kLatSegCount; ++i) {
            mix(static_cast<uint64_t>(ledger.get(static_cast<sim::LatSeg>(i))));
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

std::string
random_path(sim::Rng& rng, int max_depth)
{
    std::string p;
    int depth = static_cast<int>(rng.uniform_int(1, max_depth));
    for (int i = 0; i < depth; ++i) {
        p += "/n" + std::to_string(rng.uniform_int(0, 4));
    }
    return p;
}

LambdaFsConfig
small_config(uint64_t seed)
{
    LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = seed;
    return config;
}

/**
 * Drive @p steps seeded legacy operations (create/mkdir/rm -r/mv/stat)
 * through client 0, folding every outcome into @p hash. The rng is
 * consumed inside the loop, so any divergence in op outcomes or timing
 * cascades into a different trace.
 */
sim::Task<void>
co_legacy_driver(sim::Simulation& sim, workload::Dfs& fs, sim::Rng& rng,
                 int steps, TraceHash& hash, bool& done)
{
    for (int step = 0; step < steps; ++step) {
        Op op;
        double action = rng.uniform();
        if (action < 0.3) {
            op.type = OpType::kCreateFile;
            op.path = random_path(rng, 4);
        } else if (action < 0.5) {
            op.type = OpType::kMkdir;
            op.path = random_path(rng, 3);
        } else if (action < 0.6) {
            op.type = OpType::kSubtreeDelete;
            op.path = random_path(rng, 4);
        } else if (action < 0.7) {
            op.type = OpType::kMv;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
        } else if (action < 0.8) {
            op.type = OpType::kLs;
            op.path = random_path(rng, 3);
        } else {
            op.type = OpType::kStat;
            op.path = random_path(rng, 4);
        }
        OpResult result = co_await fs.client(0).execute(op);
        hash.mix(static_cast<uint64_t>(sim.now()));
        hash.mix(static_cast<uint64_t>(result.status.code()));
        hash.mix(static_cast<uint64_t>(result.inode.id));
        hash.mix(result.inode.version);
        hash.mix_ledger(sim, result.ledger);
    }
    done = true;
}

using Driver = sim::Task<void> (*)(sim::Simulation&, workload::Dfs&,
                                   sim::Rng&, int, TraceHash&, bool&);

/**
 * A run's two hashes. `outcome` folds only what the ops returned and
 * when; `full` closes it with the event count and final clock, so it
 * also moves when the kernel runs fewer (or more) events for the same
 * outcomes.
 */
struct Trace {
    uint64_t outcome;
    uint64_t full;
};

/** Run @p driver for @p steps seeded ops through client 0 of @p fs. */
Trace
trace_hash(sim::Simulation& sim, workload::Dfs& fs, Driver driver,
           uint64_t seed, int steps)
{
    TraceHash hash;
    sim::Rng rng(seed);
    bool done = false;
    sim::spawn(driver(sim, fs, rng, steps, hash, done));
    sim.run_until(sim.now() + sim::sec(100000));
    EXPECT_TRUE(done);
    uint64_t outcome = hash.value();
    hash.mix(static_cast<uint64_t>(sim.events_executed()));
    hash.mix(static_cast<uint64_t>(sim.now()));
    return {outcome, hash.value()};
}

Trace
run_legacy_workload(uint64_t seed, int steps)
{
    sim::Simulation sim;
    LambdaFs fs(sim, small_config(seed));
    sim.run_until(sim::sec(2));
    return trace_hash(sim, fs, co_legacy_driver, seed, steps);
}

/**
 * Golden hashes of the 400-step legacy-op λFS run. The outcome hash was
 * captured from the tree BEFORE the extended op surface existed: the
 * extended ops must not perturb this schedule while they are unused.
 */
constexpr uint64_t kLegacyGoldenHash = 0xecf49e706bcb4e90ull;
constexpr uint64_t kLegacyOutcomeHash = 0x781ac378007f09bdull;

TEST(OpDeterminism, LegacyOpsGoldenTrace)
{
    Trace trace = run_legacy_workload(0x0b5e55ed, 400);
    EXPECT_EQ(trace.outcome, kLegacyOutcomeHash)
        << "legacy-op λFS outcomes diverged from the pre-extension trace";
    EXPECT_EQ(trace.full, kLegacyGoldenHash)
        << "legacy-op λFS schedule diverged from the pre-extension trace";
}

TEST(OpDeterminism, LegacyRepeatRunsAreBitIdentical)
{
    EXPECT_EQ(run_legacy_workload(77, 150).full,
              run_legacy_workload(77, 150).full);
}

/**
 * Drive the FULL op alphabet — legacy ops plus links, setattr, statfs,
 * sessions, and GC — folding outcomes (including statfs counters and
 * GC reclaim counts) into the trace hash.
 */
sim::Task<void>
co_extended_driver(sim::Simulation& sim, workload::Dfs& fs, sim::Rng& rng,
                   int steps, TraceHash& hash, bool& done)
{
    uint64_t next_sid = 1;
    std::vector<uint64_t> open_sids;
    for (int step = 0; step < steps; ++step) {
        Op op;
        double action = rng.uniform();
        if (action < 0.2) {
            op.type = OpType::kCreateFile;
            op.path = random_path(rng, 4);
        } else if (action < 0.35) {
            op.type = OpType::kMkdir;
            op.path = random_path(rng, 3);
        } else if (action < 0.43) {
            op.type = OpType::kSubtreeDelete;
            op.path = random_path(rng, 4);
        } else if (action < 0.51) {
            op.type = OpType::kMv;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
        } else if (action < 0.6) {
            op.type = OpType::kSymlink;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
        } else if (action < 0.68) {
            op.type = OpType::kHardLink;
            op.path = random_path(rng, 4);
            op.dst = random_path(rng, 4);
        } else if (action < 0.75) {
            op.type = OpType::kSetAttr;
            op.path = random_path(rng, 4);
            op.attr.mask = AttrUpdate::kMode;
            op.attr.mode = rng.bernoulli(0.5) ? 0600 : 0644;
        } else if (action < 0.82) {
            op.type = OpType::kOpenSession;
            op.path = random_path(rng, 4);
            op.session_id = next_sid++;
            op.lease_ttl = sim::msec(800);
        } else if (action < 0.87) {
            op.type = OpType::kCloseSession;
            op.path = "/";
            if (!open_sids.empty()) {
                size_t idx = rng.index(open_sids.size());
                op.session_id = open_sids[idx];
                open_sids[idx] = open_sids.back();
                open_sids.pop_back();
            } else {
                op.session_id = next_sid + 50000;
            }
        } else if (action < 0.9) {
            op.type = OpType::kGcPrune;
            op.path = "/";
        } else if (action < 0.94) {
            op.type = OpType::kStatFs;
            op.path = "/";
        } else {
            op.type = OpType::kReadFile;
            op.path = random_path(rng, 4);
        }
        OpType sent = op.type;
        uint64_t sid = op.session_id;
        OpResult result = co_await fs.client(0).execute(op);
        if (sent == OpType::kOpenSession && result.status.ok()) {
            open_sids.push_back(sid);
        }
        hash.mix(static_cast<uint64_t>(sim.now()));
        hash.mix(static_cast<uint64_t>(result.status.code()));
        hash.mix(static_cast<uint64_t>(result.inode.id));
        hash.mix(result.inode.version);
        hash.mix(static_cast<uint64_t>(result.inodes_touched));
        hash.mix(static_cast<uint64_t>(result.stats.inodes));
        hash.mix(static_cast<uint64_t>(result.stats.open_sessions));
        hash.mix(static_cast<uint64_t>(result.stats.orphans));
        hash.mix_ledger(sim, result.ledger);
    }
    done = true;
}

Trace
run_extended_workload(uint64_t seed, int steps)
{
    sim::Simulation sim;
    LambdaFs fs(sim, small_config(seed));
    sim.run_until(sim::sec(2));
    return trace_hash(sim, fs, co_extended_driver, seed, steps);
}

/**
 * Golden hashes of the 400-step full-alphabet λFS run. Pin the (when,
 * seq) schedule of the extended op surface itself: any timing or
 * outcome change in link/session/GC plumbing shows up here.
 */
constexpr uint64_t kExtendedGoldenHash = 0xa0510f3b54eeaf9bull;
constexpr uint64_t kExtendedOutcomeHash = 0xb191ef2fbe74e930ull;

TEST(OpDeterminism, ExtendedOpsGoldenTrace)
{
    Trace trace = run_extended_workload(0x5ca1ab1e, 400);
    EXPECT_EQ(trace.outcome, kExtendedOutcomeHash)
        << "extended-op λFS outcomes diverged from their golden trace";
    EXPECT_EQ(trace.full, kExtendedGoldenHash)
        << "extended-op λFS schedule diverged from its golden trace";
}

TEST(OpDeterminism, ExtendedRepeatRunsAreBitIdentical)
{
    EXPECT_EQ(run_extended_workload(99, 150).full,
              run_extended_workload(99, 150).full);
}

// ---------------------------------------------------------------------
// Request paths under faults. Each run turns attribution on, installs a
// FaultPlan that hits the system's client path, warms up for 2 s, then
// drives both op alphabets. The outcome goldens were captured before the
// client request paths were consolidated and must never be re-captured,
// with one exception. The CephFS, IndexFS and InfiniCache pairs were
// re-captured once, when the server-side op semantics were consolidated
// into one tree apply (src/namespace/apply.h) and one row apply
// (src/indexfs/row_apply.h), because each changed what ops return:
//  - CephFS `ls` now returns the directory inode, and statfs reports
//    inodes_touched = inodes, as the store always did
//    (CrossSystem.TreeBackedSystemsGiveTheSameAnswers);
//  - IndexFS serves `ls` as a row get, keeps one session registry so a
//    close by id finds its session on any server, answers statfs and GC
//    like λIndexFS, and stamps the LSM time of failed row ops
//    (CrossSystem.RowBackedSystemsGiveTheSameStatuses,
//    IndexFsEdge.CloseByIdFindsTheSessionOnAnyServer,
//    IndexFsEdge.RowOpsAnswerLikeLambdaIndexFs);
//  - InfiniCache runs a directory mv through the subtree protocol and
//    invalidates a subtree mv's destination parent
//    (InfiniCache.DirectoryMvInvalidatesCachedDescendants,
//    InfiniCache.SubtreeMvInvalidatesTheDestinationParent).
// The λFS, HopsFS and λIndexFS pairs did not move.
// ---------------------------------------------------------------------

constexpr uint64_t kFaultSeed = 0xfa17ed;

/** Start of the extended-alphabet phase (each phase drains 100000 s). */
constexpr sim::SimTime kExtendedPhase = sim::sec(2) + sim::sec(100000);

/** Legacy then extended alphabet through client 0, combined hashes. */
Trace
faulted_trace(sim::Simulation& sim, workload::Dfs& fs)
{
    sim.run_until(sim::sec(2));
    Trace legacy = trace_hash(sim, fs, co_legacy_driver, kFaultSeed, 200);
    EXPECT_EQ(sim.now(), kExtendedPhase);
    Trace extended =
        trace_hash(sim, fs, co_extended_driver, kFaultSeed + 1, 200);
    return {legacy.outcome ^ (extended.outcome * 31),
            legacy.full ^ (extended.full * 31)};
}

/**
 * Mid-invocation instance crashes and invoker stalls from 2 s on (FaaS
 * systems). A stall is time the failed attempt leaves unattributed.
 */
void
add_crashes(sim::FaultPlan& plan, double crash_p)
{
    sim::InstanceFaultWindow crashes;
    crashes.from = sim::sec(2);
    crashes.until = sim::sec(1000000);
    crashes.crash_p = crash_p;
    crashes.stall_p = 0.1;
    plan.add_instance_faults(crashes);
}

/**
 * Extra in-flight delay on client <-> server TCP hops from 2 s on. With
 * @p max past a client's request timeout, some attempts time out.
 */
void
add_client_delays(sim::FaultPlan& plan, sim::SimTime max)
{
    sim::MessageFaultWindow delays;
    delays.from = sim::sec(2);
    delays.until = sim::sec(1000000);
    delays.channels = sim::channel_bit(sim::FaultChannel::kClientRpc);
    delays.delay_p = 0.05;
    delays.delay_min = sim::msec(1);
    delays.delay_max = max;
    plan.add_message_faults(delays);
}

TEST(OpDeterminism, LambdaFsFaultedGoldenTrace)
{
    sim::Simulation sim;
    sim.set_attribution(true);
    LambdaFs fs(sim, small_config(kFaultSeed));
    sim::FaultPlan plan(sim, kFaultSeed);
    add_crashes(plan, 0.05);
    sim::MessageFaultWindow wire;
    wire.from = sim::sec(2);
    wire.until = sim::sec(1000000);
    wire.channels = sim::channel_bit(sim::FaultChannel::kClientRpc) |
                    sim::channel_bit(sim::FaultChannel::kGateway);
    wire.drop_reply_p = 0.03;
    wire.duplicate_p = 0.03;
    plan.add_message_faults(wire);
    Trace hash = faulted_trace(sim, fs);
    EXPECT_GT(fs.lfs_client(0).resubmissions(), 0u);
    EXPECT_EQ(hash.outcome, 0x6afeb1636cf1d1beull);
    EXPECT_EQ(hash.full, 0x9692582a9561d689ull);
}

TEST(OpDeterminism, HopsFsStoreOutageGoldenTrace)
{
    sim::Simulation sim;
    sim.set_attribution(true);
    hopsfs::HopsFsConfig config;
    config.num_name_nodes = 4;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = kFaultSeed;
    hopsfs::HopsFs fs(sim, config);
    sim::FaultPlan plan(sim, kFaultSeed);
    // One outage per phase, each outlasting the 5 s request timeout, so
    // the attempt caught in it times out client-side and is resubmitted.
    plan.add_store_outage({-1, sim::msec(2200), sim::sec(9)});
    plan.add_store_outage({-1, kExtendedPhase + sim::msec(200),
                           kExtendedPhase + sim::sec(7)});
    add_client_delays(plan, sim::sec(6));
    Trace hash = faulted_trace(sim, fs);
    EXPECT_GT(plan.store_stalled_ops(), 0u);
    EXPECT_EQ(hash.outcome, 0x2c425051178b0191ull);
    EXPECT_EQ(hash.full, 0xcbc9b198378b845full);
}

TEST(OpDeterminism, LambdaIndexFsCrashGoldenTrace)
{
    sim::Simulation sim;
    sim.set_attribution(true);
    indexfs::LambdaIndexFsConfig config;
    config.num_deployments = 2;
    config.total_vcpus = 16.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.num_lsm_instances = 2;
    config.seed = kFaultSeed;
    indexfs::LambdaIndexFs fs(sim, config);
    sim::FaultPlan plan(sim, kFaultSeed);
    add_crashes(plan, 0.05);
    add_client_delays(plan, sim::sec(16));
    Trace hash = faulted_trace(sim, fs);
    EXPECT_GT(plan.instance_crashes(), 0u);
    EXPECT_EQ(hash.outcome, 0x3b36fa8be46eae5eull);
    EXPECT_EQ(hash.full, 0x8e8782fa8ea5ff39ull);
}

TEST(OpDeterminism, InfiniCacheCrashGoldenTrace)
{
    sim::Simulation sim;
    sim.set_attribution(true);
    infinicache::InfiniCacheConfig config;
    config.num_functions = 4;
    config.total_vcpus = 32.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = kFaultSeed;
    infinicache::InfiniCacheFs fs(sim, config);
    sim::FaultPlan plan(sim, kFaultSeed);
    add_crashes(plan, 0.05);
    Trace hash = faulted_trace(sim, fs);
    EXPECT_GT(plan.instance_crashes(), 0u);
    EXPECT_EQ(hash.outcome, 0xcfeec1ef2cf0431eull);
    EXPECT_EQ(hash.full, 0x30136acc2441616dull);
}

TEST(OpDeterminism, CephFsDelayedRpcGoldenTrace)
{
    sim::Simulation sim;
    sim.set_attribution(true);
    cephfs::CephFsConfig config;
    config.num_mds = 2;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = kFaultSeed;
    cephfs::CephFs fs(sim, config);
    sim::FaultPlan plan(sim, kFaultSeed);
    add_client_delays(plan, sim::msec(20));
    Trace hash = faulted_trace(sim, fs);
    EXPECT_GT(plan.messages_delayed(), 0u);
    EXPECT_EQ(hash.outcome, 0x8820a67bba0d45cfull);
    EXPECT_EQ(hash.full, 0xa92656dca488bf7full);
}

TEST(OpDeterminism, IndexFsDelayedRpcGoldenTrace)
{
    sim::Simulation sim;
    sim.set_attribution(true);
    indexfs::IndexFsConfig config;
    config.num_servers = 2;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = kFaultSeed;
    indexfs::IndexFs fs(sim, config);
    sim::FaultPlan plan(sim, kFaultSeed);
    add_client_delays(plan, sim::msec(20));
    Trace hash = faulted_trace(sim, fs);
    EXPECT_GT(plan.messages_delayed(), 0u);
    // Re-captured when IndexFS clients began dropping their own leases on
    // every write they issue: a read of a path the same client just wrote
    // now goes to the server instead of answering from the stale lease.
    EXPECT_EQ(hash.outcome, 0x99272dc7d24bb8beull);
    EXPECT_EQ(hash.full, 0xa6ba9d2a8ae5169aull);
}

}  // namespace
}  // namespace lfs::core
