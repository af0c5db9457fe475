/**
 * @file
 * Bounds the heap allocations of λFS's request path in steady state
 * (DESIGN.md §10, "Coroutine frames"): a warmed client's cache-hit read
 * through LfsClient::execute — client, TCP round, function instance,
 * NameNode, result cache — allocates at most once per op (the
 * Invocation's copy of the Op, whose path outgrows the small-string
 * buffer), and a create, with its store transaction and INV/ACK fan-out,
 * stays within a fixed budget.
 *
 * Every path here is longer than 15 bytes, so a path copy anywhere on
 * the way cannot hide in the small-string buffer; each component is at
 * most 15 bytes, as in the bench namespaces, so the inode names a result
 * carries stay inline. The proof instruments the global allocator, so
 * the test lives in its own binary (the test CMake glob builds one
 * executable per test_*.cc).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/sim/simulation.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_allocations;
    void* p = std::malloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace lfs::core {
namespace {

using sim::Simulation;
using sim::Task;

constexpr const char* kDir = "/zero_alloc_dir";

/**
 * A small λFS: one prewarmed instance per deployment, every client RPC
 * on TCP once connected (no randomized HTTP replacement, which takes the
 * gateway path instead), and a result cache small enough that the warm-up
 * cycles through all of its slots.
 */
LambdaFsConfig
small_config()
{
    LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.function.cold_start_min = sim::msec(200);
    config.function.cold_start_max = sim::msec(400);
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.max_clients_per_tcp_server = 2;
    config.prewarm_per_deployment = 1;
    config.client.http_replace_probability = 0.0;
    config.name_node.result_cache_entries = 64;
    return config;
}

std::string
file_path(int i)
{
    char name[64];
    std::snprintf(name, sizeof(name), "%s/file_%06d", kDir, i);
    return name;
}

std::vector<Op>
make_ops(OpType type, int first, int count, int modulo)
{
    std::vector<Op> ops(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        ops[static_cast<size_t>(i)].type = type;
        ops[static_cast<size_t>(i)].path =
            file_path(modulo > 0 ? (first + i) % modulo : first + i);
    }
    return ops;
}

/** Issue @p ops in order from one client; count the ones that pass. */
Task<void>
co_run(workload::DfsClient& client, std::vector<Op>& ops, bool want_hit,
       int& passed)
{
    for (Op& op : ops) {
        OpResult result = co_await client.execute(std::move(op));
        if (result.status.ok() && result.cache_hit == want_hit) {
            ++passed;
        }
    }
}

/** Run @p ops to completion; @return the allocations they made. */
uint64_t
run_ops(Simulation& sim, LambdaFs& fs, std::vector<Op> ops, bool want_hit,
        int& passed)
{
    passed = 0;
    const uint64_t before = g_allocations;
    sim::spawn(co_run(fs.client(0), ops, want_hit, passed));
    sim.run_until(sim.now() + sim::sec(60));
    return g_allocations - before;
}

constexpr int kFiles = 32;
constexpr int kOps = 400;

TEST(LfsZeroAlloc, CacheHitReadsAllocateOnlyTheInvocationCopy)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "coroutine frames are not pooled under ASan";
#endif
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs(kDir, root, 0);
    for (int i = 0; i < kFiles; ++i) {
        fs.authoritative_tree().create_file(file_path(i), root, 0);
    }
    sim.run_until(sim::sec(5));  // prewarmed instances come up
    int passed = 0;
    // Warm-up: connect over HTTP, install every file in its home cache,
    // fill the result-cache ring and the kernel's pools.
    run_ops(sim, fs, make_ops(OpType::kReadFile, 0, kOps, kFiles), true,
            passed);
    const uint64_t allocations = run_ops(
        sim, fs, make_ops(OpType::kReadFile, 0, kOps, kFiles), true, passed);
    ASSERT_EQ(passed, kOps);  // every measured read was a cache hit
    const double per_op = static_cast<double>(allocations) / kOps;
    std::printf("cache-hit read: %.2f allocations/op\n", per_op);
    EXPECT_LE(per_op, 1.0);
}

TEST(LfsZeroAlloc, CreatesStayWithinTheirAllocationBudget)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "coroutine frames are not pooled under ASan";
#endif
    Simulation sim;
    LambdaFs fs(sim, small_config());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs(kDir, root, 0);
    sim.run_until(sim::sec(5));
    int passed = 0;
    run_ops(sim, fs, make_ops(OpType::kCreateFile, 0, kOps, 0), false,
            passed);
    ASSERT_EQ(passed, kOps);
    const uint64_t allocations = run_ops(
        sim, fs, make_ops(OpType::kCreateFile, kOps, kOps, 0), false, passed);
    ASSERT_EQ(passed, kOps);
    const double per_op = static_cast<double>(allocations) / kOps;
    std::printf("create: %.2f allocations/op\n", per_op);
    EXPECT_LE(per_op, 15.5);
}

}  // namespace
}  // namespace lfs::core
