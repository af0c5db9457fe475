/**
 * @file
 * Unit and property tests for the trie-based metadata cache: hits/misses,
 * chain insertion, LRU eviction under a byte budget, and point/prefix
 * invalidation (the operations the λFS coherence protocol depends on).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/sim/random.h"
#include "src/util/path.h"

namespace lfs::cache {
namespace {

ns::INode
make_inode(ns::INodeId id, const std::string& name,
           ns::INodeType type = ns::INodeType::kFile)
{
    ns::INode inode;
    inode.id = id;
    inode.name = name;
    inode.type = type;
    return inode;
}

TEST(MetadataCache, MissOnEmpty)
{
    MetadataCache cache;
    EXPECT_FALSE(cache.get("/a").has_value());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(MetadataCache, HitAfterPut)
{
    MetadataCache cache;
    cache.put("/a/f", make_inode(7, "f"));
    auto got = cache.get("/a/f");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, 7);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(MetadataCache, PutReplacesExisting)
{
    MetadataCache cache;
    cache.put("/f", make_inode(1, "f"));
    ns::INode v2 = make_inode(1, "f");
    v2.version = 5;
    cache.put("/f", v2);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.get("/f")->version, 5u);
}

TEST(MetadataCache, PutChainCachesEveryPrefix)
{
    MetadataCache cache;
    std::vector<ns::INode> chain{
        make_inode(ns::kRootId, "", ns::INodeType::kDirectory),
        make_inode(2, "a", ns::INodeType::kDirectory),
        make_inode(3, "b", ns::INodeType::kDirectory),
        make_inode(4, "f"),
    };
    cache.put_chain(chain);
    EXPECT_EQ(cache.entries(), 4u);
    EXPECT_TRUE(cache.contains("/"));
    EXPECT_TRUE(cache.contains("/a"));
    EXPECT_TRUE(cache.contains("/a/b"));
    EXPECT_TRUE(cache.contains("/a/b/f"));
}

TEST(MetadataCache, PointInvalidation)
{
    MetadataCache cache;
    cache.put("/a/f", make_inode(1, "f"));
    cache.put("/a/g", make_inode(2, "g"));
    cache.invalidate("/a/f");
    EXPECT_FALSE(cache.contains("/a/f"));
    EXPECT_TRUE(cache.contains("/a/g"));
    EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(MetadataCache, PrefixInvalidationDropsExactlyTheSubtree)
{
    MetadataCache cache;
    cache.put("/a", make_inode(1, "a", ns::INodeType::kDirectory));
    cache.put("/a/x", make_inode(2, "x"));
    cache.put("/a/y/z", make_inode(3, "z"));
    cache.put("/ab", make_inode(4, "ab"));  // sibling with shared prefix chars
    cache.put("/b/q", make_inode(5, "q"));

    int64_t dropped = cache.invalidate_prefix("/a");
    EXPECT_EQ(dropped, 3);
    EXPECT_FALSE(cache.contains("/a"));
    EXPECT_FALSE(cache.contains("/a/x"));
    EXPECT_FALSE(cache.contains("/a/y/z"));
    EXPECT_TRUE(cache.contains("/ab"));
    EXPECT_TRUE(cache.contains("/b/q"));
}

TEST(MetadataCache, PrefixInvalidationOfRootClears)
{
    MetadataCache cache;
    cache.put("/x", make_inode(1, "x"));
    cache.put("/y", make_inode(2, "y"));
    EXPECT_EQ(cache.invalidate_prefix("/"), 2);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
}

TEST(MetadataCache, InvalidateMissingPathIsNoop)
{
    MetadataCache cache;
    cache.invalidate("/nothing");
    EXPECT_EQ(cache.invalidate_prefix("/nothing"), 0);
    EXPECT_EQ(cache.invalidations(), 0u);
}

TEST(MetadataCache, EvictsLruUnderBudget)
{
    CacheConfig config;
    config.capacity_bytes = 400;  // fits ~4 inodes of ~97 bytes
    MetadataCache cache(config);
    for (int i = 0; i < 8; ++i) {
        cache.put("/f" + std::to_string(i), make_inode(i + 1, "x"));
    }
    EXPECT_LE(cache.bytes(), 400u);
    EXPECT_GT(cache.evictions(), 0u);
    // Most recently inserted survive.
    EXPECT_TRUE(cache.contains("/f7"));
    EXPECT_FALSE(cache.contains("/f0"));
}

TEST(MetadataCache, GetRefreshesLruPosition)
{
    CacheConfig config;
    config.capacity_bytes = 300;  // fits ~3 entries
    MetadataCache cache(config);
    cache.put("/a", make_inode(1, "a"));
    cache.put("/b", make_inode(2, "b"));
    cache.put("/c", make_inode(3, "c"));
    ASSERT_TRUE(cache.get("/a").has_value());  // refresh /a
    cache.put("/d", make_inode(4, "d"));       // evicts /b, not /a
    EXPECT_TRUE(cache.contains("/a"));
    EXPECT_FALSE(cache.contains("/b"));
}

TEST(MetadataCache, ZeroCapacityDisablesCaching)
{
    CacheConfig config;
    config.capacity_bytes = 0;
    MetadataCache cache(config);
    cache.put("/f", make_inode(1, "f"));
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_FALSE(cache.get("/f").has_value());
}

TEST(MetadataCache, HitRate)
{
    MetadataCache cache;
    cache.put("/f", make_inode(1, "f"));
    cache.get("/f");
    cache.get("/f");
    cache.get("/missing");
    EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(MetadataCache, UnnormalizedSpellingsHitInvalidateAndPrefixDrop)
{
    // Entries are installed under normalized paths; every operation
    // must find them under any spelling that normalizes the same way.
    MetadataCache cache;
    cache.put("/a/b", make_inode(2, "b"));
    cache.put("/a/b/c", make_inode(3, "c"));
    cache.put("/a/x", make_inode(4, "x"));
    EXPECT_TRUE(cache.get("//a//b/").has_value());
    EXPECT_TRUE(cache.contains("a/b//c"));
    const std::string spelled = "/a///b//";
    EXPECT_TRUE(cache.get(spelled, path::keys(spelled).self).has_value());

    cache.invalidate("//a/b//c/");
    EXPECT_FALSE(cache.contains("/a/b/c"));
    EXPECT_TRUE(cache.contains("/a/b"));

    cache.put("/a/b/c", make_inode(3, "c"));
    EXPECT_EQ(cache.invalidate_prefix("//a//b"), 2);
    EXPECT_FALSE(cache.contains("/a/b"));
    EXPECT_FALSE(cache.contains("/a/b/c"));
    EXPECT_TRUE(cache.contains("/a/x"));

    // And the other way round: installed through a messy spelling,
    // found under the normalized one.
    cache.put("//m//n/", make_inode(5, "n"));
    EXPECT_TRUE(cache.contains("/m/n"));
    EXPECT_EQ(cache.invalidate_prefix("/m/"), 1);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(MetadataCache, NearMissSpellingsNeverMatch)
{
    MetadataCache cache;
    cache.put("/a/b", make_inode(2, "b"));
    EXPECT_FALSE(cache.contains("/ab"));
    EXPECT_FALSE(cache.contains("/a/bc"));
    EXPECT_FALSE(cache.contains("/a/b/c"));
    EXPECT_FALSE(cache.contains("/a"));
    // A probe whose key collides with a cached path's key (forced here by
    // passing that path's key) must still miss: the exact check compares
    // the stored path, not just the key.
    const uint64_t key = path::keys("/a/b").self;
    EXPECT_FALSE(cache.contains("/ab", key));
    EXPECT_FALSE(cache.get("/a/bc", key).has_value());
    cache.invalidate("/a/bc", key);
    EXPECT_EQ(cache.invalidate_prefix("/ab", key), 0);
    EXPECT_TRUE(cache.contains("/a/b"));
    EXPECT_EQ(cache.invalidations(), 0u);

    // The read guard: a point INV of a near-miss spelling, even under a
    // colliding key, must not reject an install of the real path; one of
    // an unnormalized spelling of the same path must.
    auto token = cache.begin_read();
    cache.invalidate("/ab", key);
    cache.invalidate("/a/bc");
    cache.put_guarded("/a/b", make_inode(3, "b"), token);
    EXPECT_EQ(cache.guard_rejections(), 0u);
    cache.invalidate("//a//b/");
    cache.put_guarded("/a/b", make_inode(4, "b"), token);
    EXPECT_EQ(cache.guard_rejections(), 1u);
    cache.end_read(token);
    EXPECT_FALSE(cache.contains("/a/b"));
}

TEST(MetadataCache, GuardedChainInstallsOnlyOwnedEntries)
{
    // put_chain_guarded hands the filter each entry's parent key and
    // installs exactly the entries it accepts — here those whose parent
    // is "/a" or the root — leaving no empty nodes for the rest.
    MetadataCache cache;
    std::vector<ns::INode> chain = {
        make_inode(ns::kRootId, "", ns::INodeType::kDirectory),
        make_inode(2, "a", ns::INodeType::kDirectory),
        make_inode(3, "b", ns::INodeType::kDirectory),
        make_inode(4, "c"),
    };
    std::vector<uint64_t> seen;
    auto token = cache.begin_read();
    cache.invalidate("/a/b/c");
    cache.put_chain_guarded(chain, token, [&](uint64_t parent_key) {
        seen.push_back(parent_key);
        return parent_key == path::kRootKey ||
               parent_key == path::keys("/a").self ||
               parent_key == path::keys("/a/b").self;
    });
    cache.end_read(token);
    EXPECT_EQ(seen, (std::vector<uint64_t>{
                        path::kRootKey, path::kRootKey,
                        path::keys("/a").self, path::keys("/a/b").self}));
    EXPECT_TRUE(cache.contains("/"));
    EXPECT_TRUE(cache.contains("/a"));
    EXPECT_TRUE(cache.contains("/a/b"));
    EXPECT_FALSE(cache.contains("/a/b/c"));  // the guard rejected it
    EXPECT_EQ(cache.guard_rejections(), 1u);

    // Filter everything out: the descent's nodes are pruned again, so
    // installing nothing from many distinct chains grows nothing.
    cache.clear();
    auto none = [](uint64_t) { return false; };
    auto chain_of = [&](int i) {
        std::vector<ns::INode> c = chain;
        c[1].name = "p" + std::to_string(i);
        return c;
    };
    cache.put_chain_guarded(chain_of(0), 0, none);
    const size_t warm_bytes = cache.resident_bytes();
    for (int i = 1; i < 200; ++i) {
        cache.put_chain_guarded(chain_of(i), 0, none);
    }
    EXPECT_EQ(cache.resident_bytes(), warm_bytes);
    EXPECT_EQ(cache.entries(), 0u);
}

/**
 * Property sweep: under random workloads the cache must never exceed its
 * byte budget, and entry count must match byte accounting.
 */
class CachePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CachePropertyTest, NeverExceedsBudgetAndStaysConsistent)
{
    CacheConfig config;
    config.capacity_bytes = GetParam();
    MetadataCache cache(config);
    sim::Rng rng(GetParam() * 31 + 7);

    for (int step = 0; step < 4000; ++step) {
        int dir = static_cast<int>(rng.uniform_int(0, 19));
        int file = static_cast<int>(rng.uniform_int(0, 49));
        std::string p = "/d" + std::to_string(dir) + "/f" + std::to_string(file);
        double action = rng.uniform();
        if (action < 0.55) {
            cache.put(p, make_inode(dir * 100 + file + 1, "f"));
        } else if (action < 0.85) {
            cache.get(p);
        } else if (action < 0.95) {
            cache.invalidate(p);
        } else {
            cache.invalidate_prefix("/d" + std::to_string(dir));
        }
        ASSERT_LE(cache.bytes(), config.capacity_bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CachePropertyTest,
                         ::testing::Values(200, 500, 1000, 5000, 50000));

}  // namespace
}  // namespace lfs::cache
