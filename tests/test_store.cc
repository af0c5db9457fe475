/**
 * @file
 * Tests for the persistent metadata store model: lock table semantics,
 * data-node queueing, timed read/write transactions, serializability of
 * concurrent writers, and subtree operations.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/store/lock_table.h"
#include "src/store/metadata_store.h"

namespace lfs::store {
namespace {

using sim::Simulation;
using sim::Task;

struct StoreFixture {
    Simulation sim;
    net::Network network{sim, sim::Rng(1)};
    MetadataStore store{sim, network, sim::Rng(2)};
};

// ---------------------------------------------------------------------
// LockTable
// ---------------------------------------------------------------------

Task<void>
co_hold_exclusive(Simulation& sim, LockTable& locks, ns::INodeId id,
                  sim::SimTime hold, std::vector<int>& order, int tag)
{
    co_await locks.lock_exclusive(id);
    order.push_back(tag);
    co_await sim::delay(sim, hold);
    locks.unlock_exclusive(id);
}

TEST(LockTable, ExclusiveLocksSerialize)
{
    Simulation sim;
    LockTable locks(sim);
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        sim::spawn(co_hold_exclusive(sim, locks, 7, sim::msec(10), order, i));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), sim::msec(30));
    EXPECT_FALSE(locks.is_locked(7));
}

Task<void>
co_hold_shared(Simulation& sim, LockTable& locks, ns::INodeId id,
               sim::SimTime hold, int& active, int& max_active)
{
    co_await locks.lock_shared(id);
    ++active;
    max_active = std::max(max_active, active);
    co_await sim::delay(sim, hold);
    --active;
    locks.unlock_shared(id);
}

TEST(LockTable, SharedLocksRunConcurrently)
{
    Simulation sim;
    LockTable locks(sim);
    int active = 0;
    int max_active = 0;
    for (int i = 0; i < 4; ++i) {
        sim::spawn(
            co_hold_shared(sim, locks, 5, sim::msec(10), active, max_active));
    }
    sim.run();
    EXPECT_EQ(max_active, 4);
    EXPECT_EQ(sim.now(), sim::msec(10));
}

Task<void>
co_shared_after(Simulation& sim, LockTable& locks, ns::INodeId id,
                sim::SimTime start, std::vector<std::string>& events,
                std::string name)
{
    co_await sim::delay(sim, start);
    co_await locks.lock_shared(id);
    events.push_back(name);
    co_await sim::delay(sim, sim::msec(5));
    locks.unlock_shared(id);
}

Task<void>
co_exclusive_after(Simulation& sim, LockTable& locks, ns::INodeId id,
                   sim::SimTime start, std::vector<std::string>& events,
                   std::string name)
{
    co_await sim::delay(sim, start);
    co_await locks.lock_exclusive(id);
    events.push_back(name);
    co_await sim::delay(sim, sim::msec(5));
    locks.unlock_exclusive(id);
}

TEST(LockTable, WriterNotStarvedByLateReaders)
{
    Simulation sim;
    LockTable locks(sim);
    std::vector<std::string> events;
    // r1 holds; writer queues; r2 arrives later and must queue behind the
    // writer (FIFO), not jump ahead.
    sim::spawn(co_shared_after(sim, locks, 1, 0, events, "r1"));
    sim::spawn(co_exclusive_after(sim, locks, 1, sim::msec(1), events, "w"));
    sim::spawn(co_shared_after(sim, locks, 1, sim::msec(2), events, "r2"));
    sim.run();
    EXPECT_EQ(events, (std::vector<std::string>{"r1", "w", "r2"}));
}

Task<void>
co_lock_ordered_pair(Simulation& sim, LockTable& locks, ns::INodeId a,
                     ns::INodeId b, int& completed)
{
    std::vector<ns::INodeId> ids{a, b};
    co_await locks.lock_exclusive_ordered(ids);
    co_await sim::delay(sim, sim::msec(1));
    locks.unlock_exclusive_all(ids);
    ++completed;
}

TEST(LockTable, OrderedAcquisitionAvoidsDeadlock)
{
    Simulation sim;
    LockTable locks(sim);
    int completed = 0;
    // Opposite-order requests would deadlock without ordering.
    for (int i = 0; i < 50; ++i) {
        sim::spawn(co_lock_ordered_pair(sim, locks, 10, 20, completed));
        sim::spawn(co_lock_ordered_pair(sim, locks, 20, 10, completed));
    }
    sim.run();
    EXPECT_EQ(completed, 100);
}

Task<void>
co_lock_at(Simulation& sim, LockTable& locks, ns::INodeId id, bool exclusive,
           sim::SimTime start, sim::SimTime hold,
           std::vector<std::string>& events, std::string name)
{
    co_await sim::delay(sim, start);
    if (exclusive) {
        co_await locks.lock_exclusive(id);
    } else {
        co_await locks.lock_shared(id);
    }
    events.push_back(name + "@" + std::to_string(sim.now() / sim::msec(1)));
    co_await sim::delay(sim, hold);
    if (exclusive) {
        locks.unlock_exclusive(id);
    } else {
        locks.unlock_shared(id);
    }
}

TEST(LockTable, GrantsInFifoOrderAndBatchesSharedWaiters)
{
    // A writer holds row 3 while s1, s2, w2, s3 queue behind it. Its
    // release grants s1 and s2 together, w2 waits for both, and s3 (a
    // reader that could have shared with s1/s2) stays behind w2. Row 4
    // churns alongside, so released rows are recycled mid-run.
    Simulation sim;
    LockTable locks(sim);
    std::vector<std::string> events;
    const sim::SimTime ms = sim::msec(1);
    sim::spawn(co_lock_at(sim, locks, 3, true, 0, 10 * ms, events, "w1"));
    sim::spawn(co_lock_at(sim, locks, 3, false, 1 * ms, 5 * ms, events, "s1"));
    sim::spawn(co_lock_at(sim, locks, 3, false, 2 * ms, 7 * ms, events, "s2"));
    sim::spawn(co_lock_at(sim, locks, 3, true, 3 * ms, 4 * ms, events, "w2"));
    sim::spawn(co_lock_at(sim, locks, 3, false, 4 * ms, 1 * ms, events, "s3"));
    for (int i = 0; i < 6; ++i) {
        sim::spawn(co_lock_at(sim, locks, 4, i % 2 == 0, 3 * i * ms, ms,
                              events, "r" + std::to_string(i)));
    }
    sim.run();
    std::vector<std::string> row3;
    for (const std::string& e : events) {
        if (e[0] != 'r') {
            row3.push_back(e);
        }
    }
    EXPECT_EQ(row3, (std::vector<std::string>{"w1@0", "s1@10", "s2@10",
                                              "w2@17", "s3@21"}));
    EXPECT_FALSE(locks.is_locked(3));
    EXPECT_FALSE(locks.is_locked(4));
}

TEST(LockTable, SubtreeOverlapDetection)
{
    Simulation sim;
    LockTable locks(sim);
    ASSERT_TRUE(locks.try_acquire_subtree("/a/b").ok());
    // Descendant, ancestor, and self all conflict.
    EXPECT_FALSE(locks.try_acquire_subtree("/a/b/c").ok());
    EXPECT_FALSE(locks.try_acquire_subtree("/a").ok());
    EXPECT_FALSE(locks.try_acquire_subtree("/a/b").ok());
    // Disjoint subtree is fine.
    EXPECT_TRUE(locks.try_acquire_subtree("/a/z").ok());
    EXPECT_TRUE(locks.overlaps_active_subtree("/a/b/file"));
    EXPECT_FALSE(locks.overlaps_active_subtree("/q"));
    locks.release_subtree("/a/b");
    EXPECT_TRUE(locks.try_acquire_subtree("/a/b/c").ok());
}

// ---------------------------------------------------------------------
// DataNode queueing
// ---------------------------------------------------------------------

Task<void>
co_data_node_read(DataNode& node, int& done)
{
    co_await node.execute_read();
    ++done;
}

TEST(DataNode, ConcurrencyBoundsThroughput)
{
    Simulation sim;
    DataNodeConfig config;
    config.concurrency = 2;
    config.read_service_min = sim::msec(1);
    config.read_service_max = sim::msec(1);
    DataNode node(sim, sim::Rng(3), config);
    int done = 0;
    for (int i = 0; i < 10; ++i) {
        sim::spawn(co_data_node_read(node, done));
    }
    sim.run();
    EXPECT_EQ(done, 10);
    // 10 jobs, 2-wide, 1ms each => 5ms.
    EXPECT_EQ(sim.now(), sim::msec(5));
    EXPECT_EQ(node.reads_served(), 10u);
}

// ---------------------------------------------------------------------
// MetadataStore
// ---------------------------------------------------------------------

Task<void>
co_run_op(MetadataStore& store, Op op, OpResult& out)
{
    if (is_read_op(op.type)) {
        out = co_await store.read_op(op);
    } else if (is_subtree_op(op.type)) {
        out = co_await store.subtree_op(op);
    } else {
        out = co_await store.write_op(op);
    }
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

TEST(MetadataStore, WriteThenReadRoundTrip)
{
    StoreFixture f;
    OpResult create_result;
    OpResult read_result;
    sim::spawn(
        co_run_op(f.store, make_op(OpType::kMkdir, "/d"), create_result));
    f.sim.run();
    ASSERT_TRUE(create_result.status.ok());

    sim::spawn(co_run_op(f.store, make_op(OpType::kCreateFile, "/d/f"),
                         create_result));
    f.sim.run();
    ASSERT_TRUE(create_result.status.ok());

    sim::spawn(
        co_run_op(f.store, make_op(OpType::kReadFile, "/d/f"), read_result));
    f.sim.run();
    ASSERT_TRUE(read_result.status.ok());
    EXPECT_EQ(read_result.inode.name, "f");
    ASSERT_EQ(read_result.chain.size(), 3u);
    EXPECT_EQ(f.store.total_reads(), 1u);
    EXPECT_EQ(f.store.total_writes(), 2u);
}

TEST(MetadataStore, ReadTakesNonZeroSimulatedTime)
{
    StoreFixture f;
    f.store.tree().mkdirs("/d", ns::UserContext{}, 0);
    f.store.tree().create_file("/d/f", ns::UserContext{}, 0);
    OpResult result;
    sim::spawn(co_run_op(f.store, make_op(OpType::kStat, "/d/f"), result));
    f.sim.run();
    ASSERT_TRUE(result.status.ok());
    EXPECT_GT(f.sim.now(), 0);
    EXPECT_LT(f.sim.now(), sim::msec(10));
}

TEST(MetadataStore, ErrorsPropagate)
{
    StoreFixture f;
    OpResult result;
    sim::spawn(
        co_run_op(f.store, make_op(OpType::kReadFile, "/missing"), result));
    f.sim.run();
    EXPECT_EQ(result.status.code(), Code::kNotFound);
}

TEST(MetadataStore, ConcurrentCreatesInOneDirectorySerialize)
{
    StoreFixture f;
    f.store.tree().mkdirs("/d", ns::UserContext{}, 0);
    const int kOps = 20;
    std::vector<OpResult> results(kOps);
    for (int i = 0; i < kOps; ++i) {
        sim::spawn(co_run_op(
            f.store,
            make_op(OpType::kCreateFile, "/d/f" + std::to_string(i)),
            results[i]));
    }
    f.sim.run();
    for (int i = 0; i < kOps; ++i) {
        EXPECT_TRUE(results[i].status.ok()) << i;
    }
    EXPECT_EQ(f.store.tree().children(
                  f.store.tree().stat("/d", ns::UserContext{})->id)
                  .size(),
              static_cast<size_t>(kOps));
    // Writes on one parent hold the parent's exclusive row lock, so the
    // elapsed time is at least kOps serialized write services.
    EXPECT_GE(f.sim.now(),
              f.store.config().data_node.write_service_min * kOps);
}

TEST(MetadataStore, ConflictingCreatesOneWinner)
{
    StoreFixture f;
    f.store.tree().mkdirs("/d", ns::UserContext{}, 0);
    const int kRacers = 8;
    std::vector<OpResult> results(kRacers);
    for (int i = 0; i < kRacers; ++i) {
        sim::spawn(co_run_op(f.store, make_op(OpType::kCreateFile, "/d/same"),
                             results[i]));
    }
    f.sim.run();
    int winners = 0;
    for (const auto& r : results) {
        if (r.status.ok()) {
            ++winners;
        } else {
            EXPECT_EQ(r.status.code(), Code::kAlreadyExists);
        }
    }
    EXPECT_EQ(winners, 1);
}

TEST(MetadataStore, SubtreeDeleteRemovesEverything)
{
    StoreFixture f;
    ns::UserContext root;
    f.store.tree().mkdirs("/big/sub", root, 0);
    for (int i = 0; i < 100; ++i) {
        f.store.tree().create_file("/big/sub/f" + std::to_string(i), root, 0);
    }
    OpResult result;
    sim::spawn(
        co_run_op(f.store, make_op(OpType::kSubtreeDelete, "/big"), result));
    f.sim.run();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.inodes_touched, 102);
    EXPECT_EQ(f.store.tree().stat("/big", root).code(), Code::kNotFound);
}

TEST(MetadataStore, SubtreeMvLatencyGrowsWithSize)
{
    auto run_mv = [](int64_t files) {
        StoreFixture f;
        ns::UserContext root;
        f.store.tree().mkdirs("/src", root, 0);
        f.store.tree().mkdirs("/dstp", root, 0);
        for (int64_t i = 0; i < files; ++i) {
            f.store.tree().create_file("/src/f" + std::to_string(i), root, 0);
        }
        OpResult result;
        sim::spawn(co_run_op(
            f.store, make_op(OpType::kSubtreeMv, "/src", "/dstp/moved"),
            result));
        f.sim.run();
        EXPECT_TRUE(result.status.ok());
        return f.sim.now();
    };
    sim::SimTime small = run_mv(500);
    sim::SimTime large = run_mv(2000);
    EXPECT_GT(large, small * 2);
    EXPECT_LT(large, small * 8);
}

Task<void>
co_delayed_stat(Simulation& sim, MetadataStore& store, std::string p,
                OpResult& out, sim::SimTime& done_at)
{
    co_await sim::delay(sim, sim::msec(1));
    Op op = make_op(OpType::kStat, std::move(p));
    out = co_await store.read_op(op);
    done_at = sim.now();
}

TEST(MetadataStore, ReadsBlockDuringOverlappingSubtreeOp)
{
    StoreFixture f;
    ns::UserContext root;
    f.store.tree().mkdirs("/sub", root, 0);
    for (int i = 0; i < 2000; ++i) {
        f.store.tree().create_file("/sub/f" + std::to_string(i), root, 0);
    }
    OpResult subtree_result;
    OpResult read_result;
    sim::SimTime read_done = 0;
    sim::spawn(co_run_op(f.store, make_op(OpType::kSubtreeDelete, "/sub"),
                         subtree_result));
    sim::spawn(co_delayed_stat(f.sim, f.store, "/sub/f0", read_result,
                               read_done));
    f.sim.run();
    ASSERT_TRUE(subtree_result.status.ok());
    // The read waited for the subtree op and then found the file gone.
    EXPECT_EQ(read_result.status.code(), Code::kNotFound);
    EXPECT_GT(read_done, sim::msec(20));
}

}  // namespace
}  // namespace lfs::store
