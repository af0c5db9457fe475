/**
 * @file
 * The in-memory metadata cache held by every λFS serverless NameNode (and
 * by HopsFS+Cache NameNodes).
 *
 * Per §3.3 of the paper, cached metadata is stored in a trie keyed by path
 * components: a NameNode caches metadata for *all* INodes along a resolved
 * path, reads that hit serve entirely from the trie, and the subtree
 * coherence protocol invalidates whole prefixes in one operation. Entries
 * are evicted LRU under a byte budget.
 *
 * Hot-path layout (DESIGN.md §14): trie nodes live in one per-cache arena
 * (a vector indexed by uint32_t), linked to their parent, first child,
 * siblings and LRU neighbours by index, with the node's whole normalized
 * path and the cached value inline. Nodes are found through one
 * open-addressing edge table per cache keyed by the FNV-1a hash of that
 * whole path (path::PathKeys::self, the family the partitioner routes
 * on), so a lookup hashes the probed path once — or not at all, when the
 * caller passes the key it already holds — and makes one probe plus one
 * exact compare against the stored path. Unnormalized spellings hash and
 * compare equal to their normalized form. Installs descend level by
 * level, extending the parent's key by one component. Lookups construct
 * no temporary std::string — a steady-state get performs zero heap
 * allocations. Freed nodes go on a free list and are reused.
 *
 * The in-flight read-guard log keeps each invalidated path's key and raw
 * bytes in a ring whose slot strings keep their capacity; installs match
 * point entries by key before bytes, and prefix entries component-wise
 * with path::is_under. Nothing is interned for paths the cache never
 * held, and logging is allocation-free once the ring is warm.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/namespace/inode.h"
#include "src/sim/stats.h"
#include "src/util/path.h"
#include "src/util/name_table.h"

namespace lfs::cache {

struct CacheConfig {
    /** Byte budget for cached metadata (0 disables caching entirely). */
    size_t capacity_bytes = 256ull * 1024 * 1024;
};

class MetadataCache {
  public:
    explicit MetadataCache(CacheConfig config = {});
    ~MetadataCache();

    MetadataCache(const MetadataCache&) = delete;
    MetadataCache& operator=(const MetadataCache&) = delete;

    /**
     * Cache one inode under @p path, replacing any previous entry. May
     * evict LRU entries to respect the byte budget.
     */
    void put(std::string_view path, const ns::INode& inode);

    /**
     * In-flight read guard. A NameNode reads the store under shared row
     * locks but installs the result into this cache only after the reply
     * has travelled back — after the locks were released. An exclusive
     * writer can slip into that gap: lock, run its INV round (clearing
     * this cache), commit, and ack — and the late install would then
     * resurrect the pre-write value, serving stale metadata forever
     * after. Guarded installs close the gap: take a token before issuing
     * the store read, install through put_guarded(), and any
     * invalidation that arrived in between wins over the install.
     */
    using ReadToken = uint64_t;

    /** Register an in-flight store read; pair with end_read(). */
    ReadToken begin_read();

    /** Unregister an in-flight read, releasing its invalidation log. */
    void end_read(ReadToken token);

    /**
     * put(), unless @p path was invalidated (point or covering prefix)
     * after @p token was taken — then the install is discarded.
     */
    void put_guarded(std::string_view path, const ns::INode& inode,
                     ReadToken token);

    /**
     * Cache a whole resolved chain (root..target). @p chain entries carry
     * component names; the trie is descended directly from them (no path
     * strings are ever assembled).
     */
    void put_chain(const std::vector<ns::INode>& chain);

    /**
     * put_guarded() of each chain entry for which @p owns(parent_key)
     * holds, in chain order, in one descent: parent_key is the whole-path
     * key of the entry's parent directory (path::PathKeys::parent), so a
     * partition filter needs no path of its own. Same installs, guard
     * rejections and evictions as put_guarded() on each owned entry's
     * joined path.
     */
    template <class Owns>
    void
    put_chain_guarded(const std::vector<ns::INode>& chain, ReadToken token,
                      Owns&& owns)
    {
        ChainWalk walk;
        for (const ns::INode& inode : chain) {
            step(walk, inode);
            if (owns(walk.parent_key)) {
                install_guarded(walk, chain, inode, token);
            }
        }
        prune(walk.node);  // the descent's uninstalled tail
    }

    /** Look up @p path; refreshes LRU position and hit/miss statistics. */
    std::optional<ns::INode> get(std::string_view path);

    /** get() of @p path whose whole-path key (path::keys(path).self) the
        caller already holds. */
    std::optional<ns::INode> get(std::string_view path, uint64_t key);

    /** Presence probe without stats/LRU side effects. */
    bool contains(std::string_view path) const;
    bool contains(std::string_view path, uint64_t key) const;

    /** Drop the entry at @p path (point invalidation). */
    void invalidate(std::string_view path);
    void invalidate(std::string_view path, uint64_t key);

    /**
     * Drop every entry at or under @p prefix — the subtree/prefix
     * invalidation used by the λFS coherence protocol (Appendix D).
     * @return number of entries dropped.
     */
    int64_t invalidate_prefix(std::string_view prefix);
    int64_t invalidate_prefix(std::string_view prefix, uint64_t key);

    /** Remove everything. */
    void clear();

    size_t entries() const { return entries_; }
    size_t bytes() const { return bytes_; }
    size_t capacity_bytes() const { return config_.capacity_bytes; }

    /**
     * Host memory the cache holds (diagnostics): node arena, edge table,
     * heap-held component spellings, and the read-guard rings. Unlike
     * bytes(), which charges cached values against the budget, this is
     * what the simulator process pays.
     */
    size_t resident_bytes() const;

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    uint64_t invalidations() const { return invalidations_.value(); }
    /** Stale installs discarded by the in-flight read guard. */
    uint64_t guard_rejections() const { return guard_rejections_.value(); }

    /** Fraction of gets served from cache (0 when no gets yet). */
    double hit_rate() const;

  private:
    /** Null index: no parent / child / sibling / LRU neighbour. */
    static constexpr uint32_t kNil = 0xffffffffu;
    /** The root node's arena index. It is never anyone's child, so 0 is
        also the edge table's empty-slot sentinel. */
    static constexpr uint32_t kRoot = 0;

    /** One trie node; holds a value iff an inode is cached at this path. */
    struct Node {
        /** Whole normalized path ("/a/b"; the root's is "/"). The only
            field a probe's exact check reads, so it leads the node. */
        std::string path = "/";
        uint32_t parent = kNil;
        uint32_t first_child = kNil;
        uint32_t next_sibling = kNil;  ///< doubles as the free-list link
        uint32_t prev_sibling = kNil;
        uint64_t key = path::kRootKey;  ///< fnv1a(path): its key in edges_
        // Intrusive LRU links (valid only while value is set).
        uint32_t lru_prev = kNil;
        uint32_t lru_next = kNil;
        uint32_t name_off = 1;  ///< where the last component starts in path
        uint32_t value_bytes = 0;
        std::optional<ns::INode> value;

        std::string_view
        name() const
        {
            return std::string_view(path).substr(name_off);
        }
    };

    /** put_chain_guarded()'s cursor: the current entry's keys and trie
        node (nodes are created on the way down; the ones left without
        a value are pruned at the end). */
    struct ChainWalk {
        uint64_t key = path::kRootKey;
        uint64_t parent_key = path::kRootKey;
        int depth = 0;
        uint32_t node = kRoot;
    };

    /**
     * FIFO over a power-of-two vector whose slots are recycled in place:
     * push_back() hands back the next slot with its old contents (and
     * their capacity) for the caller to overwrite. (A std::deque would
     * free and reallocate its blocks as the log slides.)
     */
    template <class T>
    class Ring {
      public:
        bool empty() const { return size_ == 0; }
        size_t size() const { return size_; }
        const std::vector<T>& slots() const { return buf_; }

        T&
        operator[](size_t i)
        {
            return buf_[(head_ + i) & (buf_.size() - 1)];
        }
        const T&
        operator[](size_t i) const
        {
            return buf_[(head_ + i) & (buf_.size() - 1)];
        }
        T& front() { return (*this)[0]; }
        T& back() { return (*this)[size_ - 1]; }

        T&
        push_back()
        {
            if (size_ == buf_.size()) {
                grow();
            }
            ++size_;
            return back();
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
        }

        void
        clear()
        {
            head_ = 0;
            size_ = 0;
        }

      private:
        void
        grow()
        {
            std::vector<T> next(buf_.empty() ? 8 : buf_.size() * 2);
            for (size_t i = 0; i < size_; ++i) {
                next[i] = std::move((*this)[i]);
            }
            buf_ = std::move(next);
            head_ = 0;
        }

        std::vector<T> buf_;
        size_t head_ = 0;
        size_t size_ = 0;
    };

    /** One invalidation observed while ≥1 store read was in flight. */
    struct InvLogEntry {
        uint64_t seq = 0;
        uint64_t key = 0;  ///< path::keys(path).self
        std::string path;  ///< as invalidated; slot keeps its capacity
        int depth = 0;     ///< path::depth(path)
        bool prefix = false;
    };

    /** In-flight reads sharing one snapshot sequence number. */
    struct ReadSnapshot {
        uint64_t seq = 0;
        uint32_t readers = 0;
    };

    void log_invalidation(std::string_view path, uint64_t key, bool prefix);
    /** True if @p path (whole-path @p key, @p depth components) was
        invalidated, point or covering prefix, after @p token. */
    bool invalidated_since(std::string_view path, uint64_t key, int depth,
                           ReadToken token) const;

    uint32_t find(std::string_view path, uint64_t key) const;
    uint32_t child_or_create(uint32_t parent, std::string_view comp,
                             uint64_t key);
    uint32_t child_or_create(uint32_t parent, std::string_view comp);
    uint32_t find_or_create(std::string_view path);

    // put_chain_guarded() steps.
    void step(ChainWalk& walk, const ns::INode& inode);
    void install_guarded(ChainWalk& walk, const std::vector<ns::INode>& chain,
                         const ns::INode& inode, ReadToken token);

    /** put() of @p path, whose keys are @p keys. */
    void put(std::string_view path, const path::PathKeys& keys,
             const ns::INode& inode);
    void release_node(uint32_t node);
    void set_value(uint32_t node, const ns::INode& inode);
    void drop_value(uint32_t node, bool count_as_invalidation);
    void prune(uint32_t node);
    void evict_until_within_budget();
    int64_t drop_subtree(uint32_t top);

    // Intrusive LRU list over nodes holding values.
    void lru_push_front(uint32_t node);
    void lru_unlink(uint32_t node);

    CacheConfig config_;
    /** Node arena; index kRoot is the root. Links are indices, so growth
        may move nodes — never hold a Node& across an allocation. */
    std::vector<Node> nodes_;
    uint32_t free_head_ = kNil;
    /** Whole-path key -> node index, for every node but the root. */
    util::ChildTable<uint32_t> edges_;
    size_t entries_ = 0;
    size_t bytes_ = 0;
    uint32_t lru_head_ = kNil;
    uint32_t lru_tail_ = kNil;
    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter evictions_;
    sim::Counter invalidations_;
    sim::Counter guard_rejections_;

    // In-flight read guard state: invalidations are logged only while a
    // read is outstanding; the log is pruned as readers retire. Snapshots
    // are pushed in nondecreasing seq order, so the oldest is the front.
    uint64_t inv_seq_ = 0;
    std::vector<ReadSnapshot> active_reads_;
    Ring<InvLogEntry> inv_log_;
};

}  // namespace lfs::cache
