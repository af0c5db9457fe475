/**
 * @file
 * Proves the MetadataCache hot path is allocation-free in steady state
 * (DESIGN.md §14): once a working set is installed, get()/contains() on
 * hits, misses, deep paths and unnormalized spellings, and guarded chain
 * installs that refresh cached entries, must perform zero heap
 * allocations, and invalidations logged while store reads are in flight
 * allocate nothing once the guard log's ring is warm — nor grow the
 * cache's footprint, however many distinct never-cached paths they name.
 *
 * The proof instruments the global allocator — this test lives in its
 * own binary (the test CMake glob builds one executable per test_*.cc)
 * so the override cannot leak into other suites.
 *
 * Note the returned std::optional<ns::INode> copies the inode by value;
 * the probe working set uses short component names so both strings stay
 * within the small-string buffer. That is the realistic regime: path
 * components in the bench namespaces are <= 15 characters.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/util/path.h"

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

namespace lfs {
namespace {

ns::INode
make_inode(uint64_t id, std::string name)
{
    ns::INode inode;
    inode.id = static_cast<ns::INodeId>(id + 2);
    inode.name = std::move(name);
    inode.type = ns::INodeType::kFile;
    return inode;
}

TEST(CacheZeroAlloc, SteadyStateGetAllocatesNothing)
{
    cache::MetadataCache cache;
    std::vector<std::string> hits;
    std::vector<std::string> misses;
    for (int i = 0; i < 256; ++i) {
        std::string dir = "/d" + std::to_string(i % 16);
        std::string path = dir + "/f" + std::to_string(i);
        cache.put(path, make_inode(static_cast<uint64_t>(i),
                                   "f" + std::to_string(i)));
        hits.push_back(path);
        // Probed but never installed: unknown leaf under a cached dir,
        // and a path whose first component was never interned.
        misses.push_back(dir + "/absent" + std::to_string(i));
        misses.push_back("/nowhere/f" + std::to_string(i));
    }
    // Deep chain: 12 components, all hits along the walk's target.
    std::string deep;
    for (int d = 0; d < 11; ++d) {
        deep += "/lvl" + std::to_string(d);
    }
    deep += "/leaf";
    cache.put(deep, make_inode(999, "leaf"));
    hits.push_back(deep);

    // Warm every probe once (counters, LRU churn) before measuring.
    for (const std::string& p : hits) {
        ASSERT_TRUE(cache.get(p).has_value());
    }
    for (const std::string& p : misses) {
        ASSERT_FALSE(cache.get(p).has_value());
    }

    std::vector<std::string> spelled;  // "//d0//f0/" for "/d0/f0"
    for (const std::string& p : hits) {
        std::string s;
        for (char c : p) {
            s += c;
            if (c == '/') {
                s += '/';
            }
        }
        spelled.push_back(s + "/");
    }

    uint64_t before = g_allocations;
    for (int round = 0; round < 8; ++round) {
        for (const std::string& p : hits) {
            auto hit = cache.get(p);
            if (!hit.has_value()) {
                FAIL() << "lost entry " << p;
            }
        }
        for (const std::string& p : spelled) {
            if (!cache.get(p, path::keys(p).self).has_value()) {
                FAIL() << "lost entry under spelling " << p;
            }
        }
        for (const std::string& p : misses) {
            if (cache.get(p).has_value()) {
                FAIL() << "phantom entry " << p;
            }
            if (cache.contains(p)) {
                FAIL() << "phantom containment " << p;
            }
        }
    }
    uint64_t allocated = g_allocations - before;
    EXPECT_EQ(allocated, 0u)
        << "steady-state get/contains performed " << allocated
        << " heap allocations";
}

TEST(CacheZeroAlloc, GuardedChainRefreshAllocatesNothing)
{
    // A read-path install of chains whose nodes already exist (the home
    // instance re-caching what it holds) walks and refreshes in place.
    cache::MetadataCache cache;
    std::vector<std::vector<ns::INode>> chains;
    for (int i = 0; i < 64; ++i) {
        std::vector<ns::INode> chain;
        ns::INode root;
        root.id = ns::kRootId;
        chain.push_back(root);
        chain.push_back(make_inode(static_cast<uint64_t>(i % 8),
                                   "d" + std::to_string(i % 8)));
        chain.push_back(make_inode(static_cast<uint64_t>(100 + i),
                                   "f" + std::to_string(i)));
        chains.push_back(std::move(chain));
    }
    auto owns = [](uint64_t parent_key) { return parent_key % 3 != 0; };
    auto warm = cache.begin_read();  // sizes the in-flight read list
    for (const auto& chain : chains) {
        cache.put_chain_guarded(chain, warm, owns);
    }
    cache.end_read(warm);
    uint64_t before = g_allocations;
    for (int round = 0; round < 8; ++round) {
        auto token = cache.begin_read();
        for (const auto& chain : chains) {
            cache.put_chain_guarded(chain, token, owns);
        }
        cache.end_read(token);
    }
    EXPECT_EQ(g_allocations - before, 0u);
}

TEST(CacheZeroAlloc, InvalidateOfAbsentPathAllocatesNothing)
{
    // The no-reader invalidation fast path (every coherence round hits
    // it): bump the sequence, find nothing, drop nothing.
    cache::MetadataCache cache;
    cache.put("/d0/f0", make_inode(1, "f0"));
    cache.invalidate("/d0/absent");  // warm any lazy interning
    uint64_t before = g_allocations;
    const uint64_t key = path::keys("/d0/other").self;
    for (int i = 0; i < 64; ++i) {
        cache.invalidate("/d0/absent");
        cache.invalidate("/never/seen");
        cache.invalidate("/d0/other", key);
    }
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_TRUE(cache.contains("/d0/f0"));
}

/**
 * Distinct, never-cached file paths of one fixed width, so a warmed guard
 * log slot already has the capacity for any of them.
 */
std::vector<std::string>
cold_paths(int first, int count)
{
    std::vector<std::string> out;
    out.reserve(static_cast<size_t>(count));
    char buf[64];
    for (int i = first; i < first + count; ++i) {
        std::snprintf(buf, sizeof(buf), "/cold/d%04d/file%07d", i % 1000, i);
        out.emplace_back(buf);
    }
    return out;
}

/** One coherence burst racing reads: each wave opens a read, logs
    @p per_wave invalidations of distinct paths, and retires the read. */
void
invalidate_under_reads(cache::MetadataCache& cache,
                       const std::vector<std::string>& paths, size_t per_wave)
{
    for (size_t i = 0; i < paths.size(); i += per_wave) {
        auto token = cache.begin_read();
        for (size_t j = i; j < i + per_wave && j < paths.size(); ++j) {
            cache.invalidate(paths[j]);
        }
        cache.end_read(token);
    }
}

TEST(CacheZeroAlloc, GuardedInvalidationOfColdPathsAllocatesNothing)
{
    // Every write's INV round reaches every instance of its target
    // deployments, most of which never cached the path; with a store read
    // in flight each one is logged. Once the log ring has grown to a
    // wave's depth, logging must reuse its slots, not allocate.
    cache::MetadataCache cache;
    cache.put("/warm/f", make_inode(1, "f"));
    constexpr size_t kWave = 64;
    std::vector<std::string> warm = cold_paths(0, static_cast<int>(kWave));
    std::vector<std::string> probe = cold_paths(1000, 20000);
    invalidate_under_reads(cache, warm, kWave);

    uint64_t before = g_allocations;
    invalidate_under_reads(cache, probe, kWave);
    EXPECT_EQ(g_allocations - before, 0u)
        << "guarded invalidations of cold paths allocated";
    EXPECT_TRUE(cache.contains("/warm/f"));
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(CacheZeroAlloc, FootprintDoesNotGrowWithDistinctInvalidatedPaths)
{
    // The guard log retains nothing per distinct path: after the first
    // wave warms it, 20k more distinct invalidations (under reads) leave
    // the cache's resident footprint exactly where it was.
    cache::MetadataCache cache;
    for (int i = 0; i < 32; ++i) {
        cache.put("/warm/d" + std::to_string(i % 4) + "/f" + std::to_string(i),
                  make_inode(static_cast<uint64_t>(i),
                             "f" + std::to_string(i)));
    }
    constexpr size_t kWave = 64;
    invalidate_under_reads(cache, cold_paths(0, static_cast<int>(kWave)),
                           kWave);
    const size_t warm_bytes = cache.resident_bytes();
    invalidate_under_reads(cache, cold_paths(1000, 20000), kWave);
    EXPECT_EQ(cache.resident_bytes(), warm_bytes);
    EXPECT_EQ(cache.entries(), 32u);
}

}  // namespace
}  // namespace lfs
