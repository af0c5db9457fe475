/**
 * @file
 * Randomized equivalence testing of MetadataCache against a trivially
 * correct reference model (std::map<std::string, INode>), plus targeted
 * regressions for the read guard (DESIGN.md §14): guarded installs racing
 * invalidations must lose exactly when a logged path equals the install
 * (point) or covers it (prefix), component-wise.
 *
 * Regimes:
 *   - unlimited budget: the cache must agree with the model exactly on
 *     every get/contains after any interleaving of put / put_chain /
 *     invalidate / invalidate_prefix;
 *   - small budget: eviction makes the cache a subset — every hit must
 *     match the model's value, and entries() must track the model's
 *     upper bound (soundness, not completeness);
 *   - arena churn: nodes pruned and re-created over and over, whole-cache
 *     drops and refills, and mid-level prefix drops, so freed arena slots
 *     and edge-table slots are reused under every shape of removal;
 *   - overlapping reads: many read tokens retire out of order while the
 *     guard log wraps and grows, and every guarded install is checked
 *     against a reference log;
 *   - spellings: operations and probes name paths through random
 *     unnormalized spellings ("//a//b/", "a/b") of the model's
 *     normalized keys, which must behave exactly like the normalized
 *     path;
 *   - one-descent chain installs: put_chain_guarded under a random
 *     partition filter must match put_guarded of each accepted entry.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs {
namespace {

/** Deterministic xorshift — the test must not depend on libc rand. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }

    uint64_t next(uint64_t bound) { return next() % bound; }

  private:
    uint64_t state_;
};

ns::INode
make_inode(uint64_t id, std::string name)
{
    ns::INode inode;
    inode.id = static_cast<ns::INodeId>(id + 2);  // skip root id
    inode.name = std::move(name);
    inode.type = ns::INodeType::kFile;
    inode.size = id * 17;
    return inode;
}

/**
 * A small closed path universe: depth <= 3 over a few component names,
 * so collisions between put / invalidate / prefix ops are frequent.
 */
std::vector<std::string>
path_universe()
{
    const std::vector<std::string> dirs = {"a", "b", "cc", "dd"};
    const std::vector<std::string> leaves = {"x", "y", "zz"};
    std::vector<std::string> paths;
    for (const std::string& d : dirs) {
        paths.push_back("/" + d);
        for (const std::string& m : dirs) {
            paths.push_back("/" + d + "/" + m);
            for (const std::string& l : leaves) {
                paths.push_back("/" + d + "/" + m + "/" + l);
            }
        }
    }
    return paths;
}

bool
is_under(const std::string& p, const std::string& prefix)
{
    if (prefix == "/") {
        return true;
    }
    if (p == prefix) {
        return true;
    }
    return p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0 &&
           p[prefix.size()] == '/';
}

/**
 * A random spelling of the normalized path @p p that normalizes back to
 * it: doubled slashes, a trailing slash, or no leading slash.
 */
std::string
respell(const std::string& p, Rng& rng)
{
    if (rng.next(3) == 0) {
        return p;  // keep the normalized spelling common
    }
    std::string out;
    for (char c : p) {
        out += c;
        if (c == '/' && rng.next(3) == 0) {
            out.append(1 + rng.next(2), '/');
        }
    }
    if (rng.next(3) == 0) {
        out += '/';
    }
    if (out.size() > 1 && rng.next(4) == 0) {
        out.erase(0, out.find_first_not_of('/'));
    }
    return out;
}

/** A fixed unnormalized spelling of @p p: every slash doubled, plus a
    trailing one. */
std::string
messy(const std::string& p)
{
    std::string out;
    for (char c : p) {
        out += c;
        if (c == '/') {
            out += '/';
        }
    }
    return out + "/";
}

/** Root-first inode chain for @p path ("/a/b" -> [a, b], named). */
std::vector<ns::INode>
chain_for(const std::string& path, uint64_t version)
{
    std::vector<ns::INode> chain;
    size_t begin = 1;
    std::string assembled;
    while (begin <= path.size()) {
        size_t end = path.find('/', begin);
        if (end == std::string::npos) {
            end = path.size();
        }
        std::string comp = path.substr(begin, end - begin);
        if (!comp.empty()) {
            chain.push_back(make_inode(version + chain.size(), comp));
        }
        begin = end + 1;
    }
    return chain;
}

/** Prefixes of @p path, shallowest first ("/a/b/x" -> /a, /a/b, /a/b/x). */
std::vector<std::string>
prefixes_of(const std::string& path)
{
    std::vector<std::string> out;
    size_t pos = 1;
    while (pos <= path.size()) {
        size_t end = path.find('/', pos);
        if (end == std::string::npos) {
            end = path.size();
        }
        out.push_back(path.substr(0, end));
        pos = end + 1;
    }
    return out;
}

TEST(CacheFuzz, MatchesReferenceModelUnlimitedBudget)
{
    const std::vector<std::string> paths = path_universe();
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 0x1234567ull);
        cache::MetadataCache cache;  // default budget: effectively unlimited
        std::map<std::string, ns::INode> model;
        uint64_t version = 0;

        for (int step = 0; step < 4000; ++step) {
            const std::string& p = paths[rng.next(paths.size())];
            const std::string spelled = respell(p, rng);
            switch (rng.next(6)) {
            case 0:
            case 1: {  // put
                ns::INode inode = make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put(spelled, inode);
                model[p] = inode;
                break;
            }
            case 2: {  // put_chain: installs every prefix of p
                std::vector<ns::INode> chain = chain_for(p, ++version);
                cache.put_chain(chain);
                std::vector<std::string> prefixes = prefixes_of(p);
                ASSERT_EQ(prefixes.size(), chain.size());
                for (size_t i = 0; i < prefixes.size(); ++i) {
                    model[prefixes[i]] = chain[i];
                }
                version += chain.size();
                break;
            }
            case 3: {  // point invalidate
                cache.invalidate(spelled);
                model.erase(p);
                break;
            }
            case 4: {  // prefix invalidate
                cache.invalidate_prefix(spelled);
                for (auto it = model.begin(); it != model.end();) {
                    if (is_under(it->first, p)) {
                        it = model.erase(it);
                    } else {
                        ++it;
                    }
                }
                break;
            }
            default: {  // probe
                auto hit = cache.get(spelled);
                auto it = model.find(p);
                ASSERT_EQ(hit.has_value(), it != model.end())
                    << "seed=" << seed << " step=" << step
                    << " path=" << spelled;
                if (hit.has_value()) {
                    EXPECT_EQ(hit->id, it->second.id);
                    EXPECT_EQ(hit->name, it->second.name);
                    EXPECT_EQ(hit->size, it->second.size);
                }
                EXPECT_EQ(cache.contains(p), it != model.end());
                break;
            }
            }
        }

        // Full sweep: cache and model agree on the entire universe.
        size_t live = 0;
        for (const std::string& p : paths) {
            auto it = model.find(p);
            ASSERT_EQ(cache.contains(p), it != model.end())
                << "seed=" << seed << " path=" << p;
            ASSERT_EQ(cache.contains(messy(p)), it != model.end())
                << "seed=" << seed << " path=" << messy(p);
            if (it != model.end()) {
                ++live;
                auto hit = cache.get(p);
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(hit->id, it->second.id);
            }
        }
        EXPECT_EQ(cache.entries(), live);
    }
}

TEST(CacheFuzz, BudgetedCacheIsSoundSubsetOfModel)
{
    const std::vector<std::string> paths = path_universe();
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 0xdeadbeefull);
        cache::CacheConfig config;
        config.capacity_bytes = 2048;  // a handful of entries -> eviction
        cache::MetadataCache cache(config);
        std::map<std::string, ns::INode> model;
        uint64_t version = 0;

        for (int step = 0; step < 4000; ++step) {
            const std::string& p = paths[rng.next(paths.size())];
            switch (rng.next(5)) {
            case 0:
            case 1: {
                ns::INode inode = make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put(p, inode);
                model[p] = inode;
                break;
            }
            case 2: {
                cache.invalidate(p);
                model.erase(p);
                break;
            }
            case 3: {
                cache.invalidate_prefix(p);
                for (auto it = model.begin(); it != model.end();) {
                    if (is_under(it->first, p)) {
                        it = model.erase(it);
                    } else {
                        ++it;
                    }
                }
                break;
            }
            default: {
                // Every hit must be the model's value; misses are allowed
                // (eviction), absent-in-model must never hit.
                auto hit = cache.get(p);
                auto it = model.find(p);
                if (it == model.end()) {
                    EXPECT_FALSE(hit.has_value())
                        << "seed=" << seed << " step=" << step
                        << " stale hit at " << p;
                } else if (hit.has_value()) {
                    EXPECT_EQ(hit->id, it->second.id);
                    EXPECT_EQ(hit->size, it->second.size);
                }
                break;
            }
            }
            ASSERT_LE(cache.bytes(), config.capacity_bytes);
            ASSERT_LE(cache.entries(), model.size());
        }
    }
}

/** Depth-4 universe with a wider fan-out than path_universe(): enough
 *  nodes that churn reuses arena slots at every level. */
std::vector<std::string>
deep_universe()
{
    const std::vector<std::string> top = {"a", "bb", "ccc"};
    const std::vector<std::string> mid = {"m", "nn"};
    const std::vector<std::string> low = {"p", "q", "rr"};
    const std::vector<std::string> leaves = {"f0", "f1", "f22"};
    std::vector<std::string> paths;
    for (const std::string& t : top) {
        for (const std::string& m : mid) {
            for (const std::string& l : low) {
                for (const std::string& f : leaves) {
                    paths.push_back("/" + t + "/" + m + "/" + l + "/" + f);
                }
            }
        }
    }
    return paths;
}

/** Apply a prefix drop to the reference model. */
void
model_drop_prefix(std::map<std::string, ns::INode>& model,
                  const std::string& prefix)
{
    for (auto it = model.begin(); it != model.end();) {
        if (is_under(it->first, prefix)) {
            it = model.erase(it);
        } else {
            ++it;
        }
    }
}

/** The cache agrees with @p model on every prefix of every universe path. */
void
expect_agrees(cache::MetadataCache& cache,
              const std::map<std::string, ns::INode>& model,
              const std::vector<std::string>& universe, const char* where)
{
    for (const std::string& leaf : universe) {
        for (const std::string& p : prefixes_of(leaf)) {
            auto it = model.find(p);
            ASSERT_EQ(cache.contains(p), it != model.end())
                << where << " path=" << p;
            ASSERT_EQ(cache.contains(messy(p)), it != model.end())
                << where << " path=" << messy(p);
            if (it != model.end()) {
                auto hit = cache.get(messy(p));
                ASSERT_TRUE(hit.has_value()) << where << " path=" << p;
                EXPECT_EQ(hit->id, it->second.id) << where << " path=" << p;
            }
        }
    }
    EXPECT_EQ(cache.entries(), model.size()) << where;
}

TEST(CacheFuzz, PruneChurnReusesArenaSlots)
{
    // Fill the whole universe, then drain it by mid-level prefix drops,
    // whole-cache drops or point invalidations (each leaf's prune frees
    // its now-empty ancestors), round after round. Freed nodes must be
    // reused: every round rebuilds the same trie, so once the first has
    // sized the arena and the edge table the footprint stays put, and
    // the cache keeps agreeing with the model throughout.
    const std::vector<std::string> universe = deep_universe();
    Rng rng(0x5eed);
    cache::MetadataCache cache;
    std::map<std::string, ns::INode> model;
    uint64_t version = 0;
    size_t first_round_bytes = 0;
    for (int round = 0; round < 40; ++round) {
        const size_t offset = rng.next(universe.size());
        for (size_t i = 0; i < universe.size(); ++i) {
            const std::string& p = universe[(offset + i) % universe.size()];
            if (rng.next(3) == 0) {
                std::vector<ns::INode> chain = chain_for(p, ++version);
                cache.put_chain(chain);
                std::vector<std::string> prefixes = prefixes_of(p);
                for (size_t k = 0; k < prefixes.size(); ++k) {
                    model[prefixes[k]] = chain[k];
                }
                version += chain.size();
            } else {
                ns::INode inode =
                    make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put(p, inode);
                model[p] = inode;
            }
        }
        expect_agrees(cache, model, universe, "filled");
        if (round % 3 == 1) {  // mid-level prefix drops
            for (const std::string& leaf : universe) {
                std::vector<std::string> prefixes = prefixes_of(leaf);
                const std::string& mid = prefixes[1 + rng.next(2)];
                cache.invalidate_prefix(mid);
                model_drop_prefix(model, mid);
                if (rng.next(4) == 0) {
                    expect_agrees(cache, model, universe, "mid-drop");
                }
            }
        } else if (round % 3 == 2) {  // everything at once
            EXPECT_EQ(cache.invalidate_prefix("/"),
                      static_cast<int64_t>(model.size()));
            model.clear();
        }
        // Whatever is left goes point-wise, children before parents
        // (a parent path sorts before everything under it).
        while (!model.empty()) {
            auto it = std::prev(model.end());
            cache.invalidate(it->first);
            model.erase(it);
        }
        expect_agrees(cache, model, universe, "drained");
        EXPECT_EQ(cache.bytes(), 0u);
        if (round == 0) {
            first_round_bytes = cache.resident_bytes();
        } else {
            EXPECT_EQ(cache.resident_bytes(), first_round_bytes)
                << "round " << round << ": freed nodes not reused";
        }
    }
}

TEST(CacheFuzz, RootDropThenRefillMatchesModel)
{
    const std::vector<std::string> paths = path_universe();
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 0xabcdefull);
        cache::MetadataCache cache;
        std::map<std::string, ns::INode> model;
        uint64_t version = 0;
        for (int step = 0; step < 3000; ++step) {
            const std::string& p = paths[rng.next(paths.size())];
            const uint64_t op = rng.next(40);
            if (op == 0) {
                cache.invalidate_prefix("/");
                model.clear();
                ASSERT_EQ(cache.entries(), 0u);
            } else if (op < 4) {
                cache.invalidate_prefix(p);
                model_drop_prefix(model, p);
            } else if (op < 8) {
                cache.invalidate(p);
                model.erase(p);
            } else {
                ns::INode inode =
                    make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put(p, inode);
                model[p] = inode;
            }
        }
        expect_agrees(cache, model, paths, "final");
    }
}

/** Reference read guard: the invalidation history plus, per open token,
 *  where in it the token's snapshot was taken. */
struct GuardModel {
    struct Inv {
        std::string path;
        bool prefix;
    };
    struct Open {
        cache::MetadataCache::ReadToken token;
        size_t from;  ///< history index at begin_read
    };
    std::vector<Inv> history;
    std::vector<Open> open;

    bool
    rejects(const Open& read, const std::string& p) const
    {
        for (size_t i = read.from; i < history.size(); ++i) {
            const Inv& inv = history[i];
            if (inv.prefix ? is_under(p, inv.path) : p == inv.path) {
                return true;
            }
        }
        return false;
    }
};

TEST(CacheFuzz, OverlappingReadsWrapAndGrowTheGuardLog)
{
    const std::vector<std::string> paths = path_universe();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 0x77777ull);
        cache::MetadataCache cache;
        std::map<std::string, ns::INode> model;
        GuardModel guard;
        uint64_t version = 0;
        uint64_t rejections = 0;

        auto invalidate = [&](const std::string& p, bool prefix) {
            const std::string spelled = respell(p, rng);
            if (prefix) {
                cache.invalidate_prefix(spelled);
                model_drop_prefix(model, p);
            } else {
                cache.invalidate(spelled);
                model.erase(p);
            }
            guard.history.push_back({p, prefix});
        };
        auto retire = [&](size_t k) {
            cache.end_read(guard.open[k].token);
            guard.open.erase(guard.open.begin() +
                             static_cast<std::ptrdiff_t>(k));
        };

        // Scripted start: the log's head moves off slot 0 (the oldest
        // read retires), then a burst outgrows the ring while a younger
        // read still needs every entry after its snapshot.
        guard.open.push_back({cache.begin_read(), guard.history.size()});
        for (int i = 0; i < 5; ++i) {
            invalidate(paths[rng.next(paths.size())], false);
        }
        guard.open.push_back({cache.begin_read(), guard.history.size()});
        for (int i = 0; i < 3; ++i) {
            invalidate(paths[rng.next(paths.size())], rng.next(2) == 0);
        }
        retire(0);
        for (int i = 0; i < 40; ++i) {
            invalidate(paths[rng.next(paths.size())], rng.next(4) == 0);
        }

        for (int step = 0; step < 6000; ++step) {
            const std::string& p = paths[rng.next(paths.size())];
            const uint64_t op = rng.next(16);
            if (op < 3 && guard.open.size() < 24) {
                guard.open.push_back(
                    {cache.begin_read(), guard.history.size()});
            } else if (op < 6 && !guard.open.empty()) {
                // Mostly out of order: inner snapshots retire first.
                retire(rng.next(guard.open.size()));
            } else if (op < 9) {
                invalidate(p, false);
            } else if (op < 10) {
                invalidate(p, true);
            } else if (!guard.open.empty()) {
                const GuardModel::Open& read =
                    guard.open[rng.next(guard.open.size())];
                const bool reject = guard.rejects(read, p);
                ns::INode inode =
                    make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put_guarded(respell(p, rng), inode, read.token);
                if (reject) {
                    ++rejections;
                } else {
                    model[p] = inode;
                }
                ASSERT_EQ(cache.guard_rejections(), rejections)
                    << "seed=" << seed << " step=" << step << " path=" << p;
            }
        }
        while (!guard.open.empty()) {
            retire(guard.open.size() - 1);
        }
        expect_agrees(cache, model, paths, "final");
        EXPECT_GT(rejections, 0u);
    }
}

TEST(CacheFuzz, GuardedChainInstallMatchesPerEntryInstalls)
{
    // put_chain_guarded installs a resolved chain in one descent, asking
    // a partition filter about each entry's parent key. Its twin installs
    // the same entries one by one through put_guarded on joined paths,
    // as a NameNode did before; both must end up identical — entries,
    // values, LRU order (hence evictions), guard rejections — including
    // under a budget small enough that an install evicts its own entry.
    const std::vector<std::string> universe = deep_universe();
    for (size_t budget : {size_t{0}, size_t{50}, size_t{150}, size_t{1200},
                          size_t{1} << 30}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            Rng rng(seed * 0x31337ull + budget);
            cache::CacheConfig config;
            config.capacity_bytes = budget;
            cache::MetadataCache chained(config);
            cache::MetadataCache twin(config);
            const uint64_t salt = rng.next();
            auto owns = [&](uint64_t parent_key) {
                return (mix64(parent_key ^ salt) & 3) != 0;
            };
            std::vector<cache::MetadataCache::ReadToken> open;
            uint64_t version = 0;
            for (int step = 0; step < 1500; ++step) {
                const std::string& leaf = universe[rng.next(universe.size())];
                const std::vector<std::string> prefixes = prefixes_of(leaf);
                const std::string& p = prefixes[rng.next(prefixes.size())];
                const uint64_t op = rng.next(10);
                if (op < 2) {
                    open.push_back(chained.begin_read());
                    ASSERT_EQ(twin.begin_read(), open.back());
                } else if (op < 3 && !open.empty()) {
                    const size_t k = rng.next(open.size());
                    chained.end_read(open[k]);
                    twin.end_read(open[k]);
                    open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
                } else if (op < 5) {
                    const bool prefix = rng.next(4) == 0;
                    const std::string spelled = respell(p, rng);
                    if (prefix) {
                        chained.invalidate_prefix(spelled);
                        twin.invalidate_prefix(spelled);
                    } else {
                        chained.invalidate(spelled);
                        twin.invalidate(spelled);
                    }
                } else {
                    std::vector<ns::INode> chain;
                    ns::INode root = make_inode(0, "");
                    root.id = ns::kRootId;
                    root.type = ns::INodeType::kDirectory;
                    chain.push_back(root);
                    for (ns::INode& inode : chain_for(p, version)) {
                        chain.push_back(std::move(inode));
                    }
                    version += chain.size();
                    const cache::MetadataCache::ReadToken token =
                        open.empty() ? 0 : open[rng.next(open.size())];
                    chained.put_chain_guarded(chain, token, owns);
                    std::string joined = "/";
                    for (const ns::INode& inode : chain) {
                        if (inode.id != ns::kRootId) {
                            joined = path::join(joined, inode.name);
                        }
                        if (owns(path::parent_hash(joined))) {
                            twin.put_guarded(joined, inode, token);
                        }
                    }
                }
                ASSERT_EQ(chained.entries(), twin.entries())
                    << "budget=" << budget << " seed=" << seed
                    << " step=" << step;
                ASSERT_EQ(chained.bytes(), twin.bytes());
                ASSERT_EQ(chained.guard_rejections(), twin.guard_rejections());
                ASSERT_EQ(chained.evictions(), twin.evictions());
            }
            for (const std::string& leaf : universe) {
                for (const std::string& q : prefixes_of(leaf)) {
                    auto a = chained.get(q);
                    auto b = twin.get(q);
                    ASSERT_EQ(a.has_value(), b.has_value()) << q;
                    if (a.has_value()) {
                        EXPECT_EQ(a->id, b->id) << q;
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Read-guard regressions: a never-cached path, a covering prefix, and a
// shared leaf spelling under another parent.
// ----------------------------------------------------------------------

TEST(CacheGuardRegression, PointInvalidationStillBeatsLateInstall)
{
    cache::MetadataCache cache;
    auto token = cache.begin_read();
    // The racing invalidation names a path the cache has NEVER seen —
    // its components must still be interned into the log and matched.
    cache.invalidate("/never/cached/file");
    cache.put_guarded("/never/cached/file", make_inode(1, "file"), token);
    cache.end_read(token);
    EXPECT_FALSE(cache.contains("/never/cached/file"));
    EXPECT_EQ(cache.guard_rejections(), 1u);
}

TEST(CacheGuardRegression, PrefixInvalidationStillBeatsLateInstall)
{
    cache::MetadataCache cache;
    auto token = cache.begin_read();
    cache.invalidate_prefix("/warm/dir");
    // Install strictly below the invalidated prefix: must be rejected.
    cache.put_guarded("/warm/dir/sub/f", make_inode(2, "f"), token);
    // Sibling outside the prefix: must be installed.
    cache.put_guarded("/warm/other", make_inode(3, "other"), token);
    cache.end_read(token);
    EXPECT_FALSE(cache.contains("/warm/dir/sub/f"));
    EXPECT_TRUE(cache.contains("/warm/other"));
    EXPECT_EQ(cache.guard_rejections(), 1u);
}

TEST(CacheGuardRegression, SharedSpellingDoesNotFalseMatch)
{
    // Interned ids are shared across directories; matching must compare
    // the full component sequence, not mere id membership.
    cache::MetadataCache cache;
    cache.put("/x/data", make_inode(1, "data"));
    auto token = cache.begin_read();
    cache.invalidate("/y/data");  // same leaf spelling, different parent
    cache.put_guarded("/x/other", make_inode(2, "other"), token);
    cache.end_read(token);
    EXPECT_TRUE(cache.contains("/x/data"));
    EXPECT_TRUE(cache.contains("/x/other"));
    EXPECT_EQ(cache.guard_rejections(), 0u);
}

}  // namespace
}  // namespace lfs
