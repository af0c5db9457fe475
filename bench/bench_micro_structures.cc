/**
 * @file
 * google-benchmark microbenchmarks for the hot data structures: the trie
 * metadata cache, the consistent-hash ring, path utilities, latency
 * histograms, and the DES event loop itself. These guard the simulator's
 * own performance (millions of simulated ops per experiment).
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/core/partitioning.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace {

using namespace lfs;

std::vector<std::string>
make_paths(int n)
{
    std::vector<std::string> paths;
    paths.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        paths.push_back("/bench/d" + std::to_string(i % 37) + "/d" +
                        std::to_string(i % 11) + "/f" + std::to_string(i));
    }
    return paths;
}

ns::INode
make_inode(int i)
{
    ns::INode inode;
    inode.id = i + 1;
    inode.name = "f" + std::to_string(i);
    return inode;
}

void
BM_CachePut(benchmark::State& state)
{
    auto paths = make_paths(static_cast<int>(state.range(0)));
    cache::MetadataCache cache;
    int i = 0;
    for (auto _ : state) {
        cache.put(paths[static_cast<size_t>(i) % paths.size()],
                  make_inode(i));
        ++i;
    }
}
BENCHMARK(BM_CachePut)->Arg(1024)->Arg(65536);

void
BM_CacheGetHit(benchmark::State& state)
{
    auto paths = make_paths(static_cast<int>(state.range(0)));
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(paths[i % paths.size()]));
        ++i;
    }
}
BENCHMARK(BM_CacheGetHit)->Arg(1024)->Arg(65536);

void
BM_CacheGetMiss(benchmark::State& state)
{
    // Misses at every trie level: unknown leaf under a cached directory,
    // and an unknown first component (rejected before any descent).
    auto paths = make_paths(static_cast<int>(state.range(0)));
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    std::vector<std::string> probes;
    for (int i = 0; i < 512; ++i) {
        probes.push_back(i % 2 == 0
                             ? "/bench/d" + std::to_string(i % 37) + "/d" +
                                   std::to_string(i % 11) + "/missing" +
                                   std::to_string(i)
                             : "/absent/d" + std::to_string(i) + "/f");
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(probes[i % probes.size()]));
        ++i;
    }
}
BENCHMARK(BM_CacheGetMiss)->Arg(65536);

void
BM_CacheGetDeepHit(benchmark::State& state)
{
    // 12-component paths: the walk itself dominates, not the leaf lookup.
    std::vector<std::string> paths;
    for (int i = 0; i < 1024; ++i) {
        std::string p;
        for (int d = 0; d < 11; ++d) {
            p += "/lvl" + std::to_string((i + d) % 23);
        }
        p += "/leaf" + std::to_string(i);
        paths.push_back(std::move(p));
    }
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(paths[i % paths.size()]));
        ++i;
    }
}
BENCHMARK(BM_CacheGetDeepHit);

void
BM_CachePutChain(benchmark::State& state)
{
    // The λFS read-path install: cache every inode of a resolved chain.
    std::vector<std::vector<ns::INode>> chains;
    for (int i = 0; i < 256; ++i) {
        std::vector<ns::INode> chain;
        ns::INode root;
        root.id = ns::kRootId;
        root.type = ns::INodeType::kDirectory;
        chain.push_back(root);
        ns::INode d1 = make_inode(i + 2);
        d1.name = "d" + std::to_string(i % 37);
        d1.type = ns::INodeType::kDirectory;
        chain.push_back(d1);
        ns::INode d2 = make_inode(i + 3);
        d2.name = "e" + std::to_string(i % 11);
        d2.type = ns::INodeType::kDirectory;
        chain.push_back(d2);
        chain.push_back(make_inode(i + 4));
        chains.push_back(std::move(chain));
    }
    cache::MetadataCache cache;
    size_t i = 0;
    for (auto _ : state) {
        cache.put_chain(chains[i % chains.size()]);
        ++i;
    }
}
BENCHMARK(BM_CachePutChain);

/**
 * The run's footprint rather than one L1-hot trie: the bench tree
 * (build_bench_tree's shape) partitioned over 16 deployments the way λFS
 * homes paths, with 81 NameNode caches — each an instance of deployment
 * c % 16 holding its deployment's share as resolved chains.
 */
struct ManyCaches {
    static constexpr int kDeployments = 16;
    static constexpr int kCaches = 81;

    ns::BuiltTree built;
    std::vector<std::string> paths;  ///< every file, then every dir
    core::NamespacePartitioner partitioner{kDeployments};
    std::vector<std::unique_ptr<cache::MetadataCache>> caches;

    ManyCaches()
    {
        ns::NamespaceTree tree;
        ns::TreeSpec spec;
        spec.root = "/bench";
        spec.depth = 4;
        spec.fanout = 8;
        spec.files_per_dir = 2;
        built = ns::build_balanced_tree(tree, spec, ns::UserContext{}, 0);
        paths = built.files;
        paths.insert(paths.end(), built.dirs.begin(), built.dirs.end());
        for (int c = 0; c < kCaches; ++c) {
            caches.push_back(std::make_unique<cache::MetadataCache>());
        }
        int id = 0;
        for (const std::string& p : paths) {
            std::vector<ns::INode> chain;
            ns::INode root;
            root.id = ns::kRootId;
            root.type = ns::INodeType::kDirectory;
            chain.push_back(root);
            for (std::string_view comp : path::PathView(p)) {
                ns::INode inode = make_inode(++id);
                inode.name = std::string(comp);
                chain.push_back(std::move(inode));
            }
            const int home = partitioner.deployment_for(p);
            for (int c = home; c < kCaches; c += kDeployments) {
                caches[static_cast<size_t>(c)]->put_chain(chain);
            }
        }
    }

    /** Instance @p k (mod the count) of @p deployment: caches d, d + 16,
        d + 32, ... */
    cache::MetadataCache*
    instance_of(int deployment, size_t k)
    {
        const size_t count = static_cast<size_t>(
            (kCaches - deployment + kDeployments - 1) / kDeployments);
        return caches[static_cast<size_t>(deployment) +
                      (k % count) * kDeployments]
            .get();
    }
};

void
BM_CacheGetManyCaches(benchmark::State& state)
{
    // Gets walk a shuffled stream of every path, each served by one
    // instance of the path's home deployment.
    ManyCaches layout;
    struct Probe {
        cache::MetadataCache* cache;
        const std::string* path;
    };
    std::vector<Probe> probes;
    for (size_t i = 0; i < layout.paths.size(); ++i) {
        probes.push_back(
            {layout.instance_of(
                 layout.partitioner.deployment_for(layout.paths[i]), i),
             &layout.paths[i]});
    }
    sim::Rng(42).shuffle(probes);
    size_t i = 0;
    for (auto _ : state) {
        const Probe& probe = probes[i % probes.size()];
        benchmark::DoNotOptimize(probe.cache->get(*probe.path));
        ++i;
    }
}
BENCHMARK(BM_CacheGetManyCaches);

void
BM_CacheInvalidateManyCaches(benchmark::State& state)
{
    // A create's INV deliveries over the same layout: each reaches one
    // instance of the path's home deployment. Arg 0 names a new file next
    // to each bench file — cached nowhere, like ~99% of the INVs a create
    // sends. Arg 1 names each file's parent directory, cached at the
    // instance, and reinstalls it after the drop so the working set
    // holds still (that case times an invalidate plus a put).
    ManyCaches layout;
    const bool present = state.range(0) == 1;
    struct Probe {
        cache::MetadataCache* cache;
        std::string path;
        ns::INode inode;
    };
    std::vector<Probe> probes;
    for (size_t i = 0; i < layout.built.files.size(); ++i) {
        const std::string& file = layout.built.files[i];
        std::string p = present ? path::parent(file)
                                : file + "-new" + std::to_string(i);
        cache::MetadataCache* cache =
            layout.instance_of(layout.partitioner.deployment_for(p), i);
        ns::INode inode = make_inode(static_cast<int>(i));
        inode.name = path::basename(p);
        if (present) {
            std::optional<ns::INode> cached = cache->get(p);
            if (!cached.has_value()) {
                continue;  // another instance of the home holds it
            }
            inode = *cached;
        }
        probes.push_back({cache, std::move(p), std::move(inode)});
    }
    sim::Rng(42).shuffle(probes);
    size_t i = 0;
    for (auto _ : state) {
        const Probe& probe = probes[i % probes.size()];
        probe.cache->invalidate(probe.path);
        if (present) {
            probe.cache->put(probe.path, probe.inode);
        }
        ++i;
    }
    state.SetLabel(present ? "parent dir, reinstalled" : "absent new file");
}
BENCHMARK(BM_CacheInvalidateManyCaches)->Arg(0)->Arg(1);

void
BM_CachePrefixInvalidate(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        cache::MetadataCache cache;
        for (int i = 0; i < state.range(0); ++i) {
            cache.put("/sub/d" + std::to_string(i % 16) + "/f" +
                          std::to_string(i),
                      make_inode(i));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(cache.invalidate_prefix("/sub"));
    }
}
BENCHMARK(BM_CachePrefixInvalidate)->Arg(4096);

void
BM_ConsistentHashLookup(benchmark::State& state)
{
    ConsistentHashRing ring(64);
    for (int m = 0; m < 16; ++m) {
        ring.add_member(m);
    }
    auto paths = make_paths(1024);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ring.lookup(paths[i % paths.size()]));
        ++i;
    }
}
BENCHMARK(BM_ConsistentHashLookup);

void
BM_PathSplit(benchmark::State& state)
{
    std::string p = "/a/b/c/d/e/file.txt";
    for (auto _ : state) {
        benchmark::DoNotOptimize(path::split(p));
    }
}
BENCHMARK(BM_PathSplit);

void
BM_PathViewZeroAlloc(benchmark::State& state)
{
    std::string p = "/a/b/c/d/e/file.txt";
    for (auto _ : state) {
        int n = 0;
        for (std::string_view c : path::PathView(p)) {
            benchmark::DoNotOptimize(c);
            ++n;
        }
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_PathViewZeroAlloc);

void
BM_HistogramRecord(benchmark::State& state)
{
    sim::Histogram histogram;
    int64_t v = 1;
    for (auto _ : state) {
        histogram.record(v);
        v = (v * 31) % 1000000 + 1;
    }
}
BENCHMARK(BM_HistogramRecord);

void
BM_NsResolveIds(benchmark::State& state)
{
    // The id-centric resolve over the slab-resident hot tier (budget
    // unset): one hash probe per component, no INode materialization.
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    ns::BuiltTree built = ns::build_wide_subtree(
        tree, "/bench", state.range(0), /*fanout=*/16, user, 0);
    ns::IdChain chain;
    size_t i = 0;
    for (auto _ : state) {
        const std::string& p = built.files[i % built.files.size()];
        benchmark::DoNotOptimize(
            tree.resolve_ids(p, user, ns::Follow::kFinal, &chain));
        ++i;
    }
}
BENCHMARK(BM_NsResolveIds)->Arg(65536);

void
BM_NsLookupChild(benchmark::State& state)
{
    // Single directory-table probe: intern-free lookup by (parent, name).
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    ns::build_wide_subtree(tree, "/bench", 4096, /*fanout=*/16, user, 0);
    std::vector<std::string> names;
    for (int i = 0; i < 16; ++i) {
        names.push_back("d" + std::to_string(i));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.lookup_child(ns::kRootId, names[i % names.size()]));
        ++i;
    }
}
BENCHMARK(BM_NsLookupChild);

void
BM_NsCreate(benchmark::State& state)
{
    // Path-checked file creation into one directory (slab append, name
    // intern, child-table insert).
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    if (!tree.mkdirs("/bench", user, 0).ok()) {
        state.SkipWithError("mkdirs failed");
        return;
    }
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.create_file("/bench/f" + std::to_string(i), user, i));
        ++i;
    }
}
BENCHMARK(BM_NsCreate);

void
BM_EventLoopScheduleStep(benchmark::State& state)
{
    sim::Simulation sim;
    sim::Rng rng(1);
    int sink = 0;
    for (auto _ : state) {
        sim.schedule(rng.uniform_int(1, 1000), [&sink] { ++sink; });
        sim.step();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventLoopScheduleStep);

}  // namespace

BENCHMARK_MAIN();
