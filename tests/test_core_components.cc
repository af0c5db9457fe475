/**
 * @file
 * Unit tests for λFS core components not covered by the end-to-end
 * suites: the namespace partitioner's invariants and the TCP connection
 * registry (connection sharing, liveness pruning, least-loaded choice).
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/partitioning.h"
#include "src/core/tcp_registry.h"
#include "src/faas/function_instance.h"
#include "src/namespace/op.h"
#include "src/sim/simulation.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::core {
namespace {

using sim::Simulation;

// ---------------------------------------------------------------------
// NamespacePartitioner
// ---------------------------------------------------------------------

TEST(Partitioner, SiblingsShareADeployment)
{
    NamespacePartitioner partitioner(8);
    int home = partitioner.deployment_for("/dir/a");
    // All entries of one directory hash by the same parent path.
    EXPECT_EQ(partitioner.deployment_for("/dir/b"), home);
    EXPECT_EQ(partitioner.deployment_for("/dir/zzz"), home);
}

TEST(Partitioner, ResultsAreInRangeAndDeterministic)
{
    NamespacePartitioner partitioner(5);
    for (int i = 0; i < 500; ++i) {
        std::string p = "/d" + std::to_string(i) + "/f";
        int d = partitioner.deployment_for(p);
        EXPECT_GE(d, 0);
        EXPECT_LT(d, 5);
        EXPECT_EQ(partitioner.deployment_for(p), d);
    }
}

TEST(Partitioner, DirectoriesSpreadAcrossDeployments)
{
    NamespacePartitioner partitioner(8);
    std::map<int, int> load;
    for (int i = 0; i < 4000; ++i) {
        load[partitioner.deployment_for("/dir" + std::to_string(i) + "/f")]++;
    }
    EXPECT_EQ(load.size(), 8u);  // every deployment owns something
    for (const auto& [deployment, count] : load) {
        EXPECT_GT(count, 4000 / 8 / 4) << deployment;  // no starved member
    }
}

/**
 * Random paths with the spellings path::parent normalizes away: doubled
 * and trailing slashes, the root, relative and deep paths.
 */
std::vector<std::string>
unnormalized_paths()
{
    std::mt19937_64 rng(17);
    const char* names[] = {"a", "bb", "dir", "x_y", "long_component_name"};
    std::vector<std::string> paths = {"", "/", "//", "///", "a", "a/",
                                      "/a", "/a/", "//a//", "/a//b/c",
                                      "/a/b/c/", "a//b"};
    for (int i = 0; i < 2000; ++i) {
        std::string p = rng() % 8 == 0 ? "" : "/";
        const int depth = static_cast<int>(rng() % 12);
        for (int d = 0; d < depth; ++d) {
            p += names[rng() % 5];
            p.append(1 + rng() % 3 / 2 + rng() % 5 / 4, '/');
        }
        if (rng() % 2 == 0 && p.size() > 1) {
            p.pop_back();
        }
        paths.push_back(p);
    }
    return paths;
}

TEST(Partitioner, ParentHashMatchesHashOfParentOnUnnormalizedPaths)
{
    // deployment_for hashes the parent without building it; it must land
    // exactly where the ring puts the built parent string.
    NamespacePartitioner partitioner(7);
    ConsistentHashRing ring(64);
    for (int d = 0; d < 7; ++d) {
        ring.add_member(d);
    }
    for (const std::string& p : unnormalized_paths()) {
        EXPECT_EQ(path::parent_hash(p), fnv1a(path::parent(p))) << p;
        EXPECT_EQ(partitioner.deployment_for(p), ring.lookup(path::parent(p)))
            << p;
    }
}

TEST(Partitioner, PathKeysHashTheNormalizedSpellings)
{
    // One pass yields the whole-path keys the metadata cache probes on
    // and the parent key the partitioner routes on: each must equal the
    // hash of the normalized string it stands for, whatever the spelling.
    NamespacePartitioner partitioner(7);
    for (const std::string& p : unnormalized_paths()) {
        const path::PathKeys k = path::keys(p);
        const std::string parent = path::parent(p);
        EXPECT_EQ(k.self, fnv1a(path::normalize(p))) << p;
        EXPECT_EQ(k.parent, path::parent_hash(p)) << p;
        EXPECT_EQ(k.grandparent, fnv1a(path::parent(parent))) << p;
        EXPECT_EQ(k.depth, path::depth(p)) << p;
        EXPECT_EQ(partitioner.deployment_for_parent(k.parent),
                  partitioner.deployment_for(p))
            << p;
        if (k.depth > 0) {
            // Extending the parent's key by the last component gives the
            // path's own key (the cache's level-by-level descent).
            EXPECT_EQ(path::child_key(k.parent, k.depth == 1,
                                      path::basename_view(p)),
                      k.self)
                << p;
        }
        EXPECT_TRUE(path::same(p, path::normalize(p))) << p;
        EXPECT_EQ(path::is_root(p), k.depth == 0) << p;
    }
    EXPECT_EQ(path::keys("/").self, path::kRootKey);
    EXPECT_FALSE(path::same("/ab", "/a/b"));
    EXPECT_FALSE(path::same("/a/b", "/a/bc"));
    EXPECT_FALSE(path::same("/a/b", "/a/b/c"));
    EXPECT_FALSE(path::same("/a/b/c", "/a/b"));
}

TEST(Partitioner, AllDeploymentsEnumerates)
{
    NamespacePartitioner partitioner(6);
    auto all = partitioner.all_deployments();
    ASSERT_EQ(all.size(), 6u);
    for (int d = 0; d < 6; ++d) {
        EXPECT_EQ(all[static_cast<size_t>(d)], d);
    }
}

// ---------------------------------------------------------------------
// TcpRegistry
// ---------------------------------------------------------------------

/** Minimal app so FunctionInstance can be constructed. */
class NullApp : public faas::FunctionApp {
  public:
    explicit NullApp(faas::FunctionInstance& instance) : instance_(instance)
    {
    }

    sim::Task<OpResult>
    handle(faas::Invocation) override
    {
        co_await instance_.compute(sim::msec(1));
        OpResult result;
        result.status = Status::make_ok();
        co_return result;
    }

  private:
    faas::FunctionInstance& instance_;
};

std::unique_ptr<faas::FunctionInstance>
make_instance(Simulation& sim, int deployment, int id)
{
    faas::FunctionConfig config;
    config.idle_reclaim = 0;
    auto inst = std::make_unique<faas::FunctionInstance>(
        sim, sim::Rng(static_cast<uint64_t>(id) + 1), deployment, id, config,
        [](faas::FunctionInstance& self) {
            return std::make_unique<NullApp>(self);
        },
        nullptr);
    inst->start_cold();
    sim.run_until(sim.now() + sim::sec(3));  // warm it
    return inst;
}

TEST(TcpRegistry, FindReturnsConnectedInstanceOnly)
{
    Simulation sim;
    TcpRegistry registry(2, 2);
    auto inst = make_instance(sim, /*deployment=*/3, 0);
    EXPECT_EQ(registry.find(0, 0, 3), nullptr);
    registry.add_connection(0, 0, inst.get());
    EXPECT_EQ(registry.find(0, 0, 3), inst.get());
    EXPECT_EQ(registry.find(0, 0, 4), nullptr);  // other deployment
    EXPECT_EQ(registry.find(1, 0, 3), nullptr);  // other VM
}

TEST(TcpRegistry, AddConnectionIsIdempotent)
{
    Simulation sim;
    TcpRegistry registry(1, 1);
    auto inst = make_instance(sim, 0, 0);
    registry.add_connection(0, 0, inst.get());
    registry.add_connection(0, 0, inst.get());
    EXPECT_EQ(registry.connections_established(), 1u);
    EXPECT_EQ(registry.live_connections(), 1u);
}

TEST(TcpRegistry, ConnectionSharingFallsBackToOtherServers)
{
    Simulation sim;
    TcpRegistry registry(1, 3);
    auto inst = make_instance(sim, 5, 0);
    registry.add_connection(0, /*server=*/2, inst.get());
    // Server 0 has no connection of its own but can borrow server 2's.
    EXPECT_EQ(registry.find(0, 0, 5), nullptr);
    EXPECT_EQ(registry.find_on_vm(0, 0, 5), inst.get());
}

TEST(TcpRegistry, DeadInstancesArePruned)
{
    Simulation sim;
    TcpRegistry registry(1, 1);
    auto inst = make_instance(sim, 1, 0);
    registry.add_connection(0, 0, inst.get());
    ASSERT_EQ(registry.find(0, 0, 1), inst.get());
    inst->kill();
    EXPECT_EQ(registry.find(0, 0, 1), nullptr);
    EXPECT_EQ(registry.live_connections(), 0u);
}

sim::Task<void>
co_serve_one(faas::FunctionInstance* instance, faas::Invocation inv)
{
    OpResult result = co_await instance->serve_tcp(std::move(inv));
    (void)result;
}

TEST(TcpRegistry, PrefersLeastLoadedInstance)
{
    Simulation sim;
    TcpRegistry registry(1, 1);
    auto a = make_instance(sim, 2, 0);
    auto b = make_instance(sim, 2, 1);
    registry.add_connection(0, 0, a.get());
    registry.add_connection(0, 0, b.get());
    // Load instance a with an in-flight request.
    faas::Invocation inv;
    sim::spawn(co_serve_one(a.get(), std::move(inv)));
    // While a is busy, b is the least-loaded choice.
    EXPECT_EQ(registry.find(0, 0, 2), b.get());
    sim.run();
}

}  // namespace
}  // namespace lfs::core
