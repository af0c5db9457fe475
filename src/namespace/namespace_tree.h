/**
 * @file
 * The authoritative file-system namespace: the semantic engine behind
 * every persistent metadata store in this repository.
 *
 * NamespaceTree implements hierarchical path resolution with permission
 * checks and the HDFS namespace operations (create, mkdirs, delete, mv,
 * stat, ls, read). It is purely functional w.r.t. time — callers provide
 * timestamps — and has no performance model; timing, locking, and
 * queueing are layered on by lfs::store::MetadataStore.
 *
 * Storage is inode-id-centric (DESIGN.md §15): inodes are fixed-size POD
 * records (INodeRec) in a paged slab keyed by id through a flat
 * open-addressing index; directory children are flat (name id -> inode
 * id) tables; component names and symlink targets are interned
 * (util::NameTable). Resolution walks ids — one hash per component, no
 * bucket chains, zero steady-state allocations on the id path
 * (resolve_ids); the INode-chain API materializes views at the edge.
 *
 * On top sits a two-tier residency layer modelled on AnyCache's InodeTree
 * and the λFS premise that only the hot working set need live near
 * compute: directories, symlinks, and recently-touched file inodes stay
 * slab-resident under a byte budget (set_budget_bytes(),
 * clock/second-chance eviction); cold file inodes are serialized into an
 * lsm::ColdPageStore and demand-paged back on first touch. Migration is
 * exclusive — an inode lives in exactly one tier — and eviction is
 * deferred to operation exit, so no record pointer obtained during an
 * operation is ever invalidated mid-operation. With the budget unset the
 * cold tier is never touched and behavior is byte-identical to the
 * always-resident tree.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/lsm/cold_store.h"
#include "src/namespace/inode.h"
#include "src/namespace/op.h"
#include "src/sim/stats.h"
#include "src/util/hash.h"
#include "src/util/name_table.h"
#include "src/util/status.h"

namespace lfs::ns {

/** The shared interner (hoisted to src/util/; alias kept for callers). */
using NameTable = util::NameTable;

/** Result of resolving a path: the inode chain from root to target. */
struct ResolvedPath {
    std::vector<INode> chain;  ///< root first, target last
    /**
     * True when any symlink was dereferenced: the chain is then the
     * canonical post-resolution chain, and the *request* path must not
     * be used as a cache key for the target (invalidations go to the
     * canonical path, never the alias).
     */
    bool via_symlink = false;

    const INode& target() const { return chain.back(); }
};

/**
 * Whether resolution dereferences a symlink in the *final* position.
 * Intermediate symlink components are always followed. Reads that open
 * the target (read, ls, setattr, open-session) follow; ops that operate
 * on the link itself (stat/lstat, delete, rename source, hard-link
 * source) do not.
 */
enum class Follow : uint8_t { kFinal, kNoFinal };

/** Symlink dereference bound; exceeding it fails with ELOOP semantics. */
constexpr int kMaxSymlinkFollows = 8;

/**
 * An inode-id chain (root first, target last) with inline capacity
 * covering any realistic path depth, so the id-centric resolve path
 * allocates nothing in steady state. Reusable: clear() keeps any spill
 * capacity.
 */
class IdChain {
  public:
    static constexpr size_t kInline = 24;

    void
    clear()
    {
        n_ = 0;
        spill_.clear();
    }

    void
    push(INodeId id)
    {
        if (n_ < kInline) {
            inline_[n_++] = id;
        } else {
            spill_.push_back(id);
        }
    }

    size_t size() const { return n_ + spill_.size(); }
    bool empty() const { return size() == 0; }

    INodeId
    operator[](size_t i) const
    {
        return i < n_ ? inline_[i] : spill_[i - n_];
    }

    INodeId back() const { return (*this)[size() - 1]; }

  private:
    std::array<INodeId, kInline> inline_{};
    size_t n_ = 0;
    std::vector<INodeId> spill_;
};

/** Two-tier residency counters (ns.* metric gauges, DESIGN.md §15). */
struct ResidencyStats {
    size_t resident_inodes = 0;  ///< slab-resident records
    size_t cold_inodes = 0;      ///< records in the cold tier
    /** Slab-resident record bytes — the quantity the budget bounds. */
    size_t slab_bytes = 0;
    /**
     * Full resident footprint: live records, the id index, directory
     * child tables, and interned names/targets. The structural part
     * (tables, names) is an unevictable floor outside the budget.
     */
    size_t resident_bytes = 0;
    size_t cold_bytes = 0;  ///< serialized cold-tier bytes
    uint64_t pageins = 0;
    uint64_t pageouts = 0;
    /** resident_bytes / (resident + cold inodes); 0 when empty. */
    double bytes_per_inode = 0.0;
};

class NamespaceTree {
  public:
    /**
     * Creates the tree containing only "/" owned by the superuser. It
     * starts unbudgeted: always fully resident, the cold tier untouched,
     * until set_budget_bytes() gives it a budget.
     */
    NamespaceTree();

    // ------------------------------------------------------------------
    // Resolution and reads
    // ------------------------------------------------------------------

    /**
     * Resolve @p path, checking execute permission on every ancestor
     * directory and following symlinks (bounded by kMaxSymlinkFollows;
     * ELOOP surfaces as FAILED_PRECONDITION). Returns the full inode
     * chain (root..target); after a symlink splice the chain is the
     * canonical post-resolution chain.
     */
    StatusOr<ResolvedPath> resolve(std::string_view path,
                                   const UserContext& user,
                                   Follow follow = Follow::kFinal) const;

    /**
     * Id-centric resolve: identical semantics (permission checks,
     * symlink follows, error statuses) but fills @p out with the inode
     * ids of the chain instead of materializing INode views — the
     * zero-allocation walk used for lock-set computation and any caller
     * that only needs ids. @p via_symlink (optional) reports whether a
     * splice occurred.
     */
    Status resolve_ids(std::string_view path, const UserContext& user,
                       Follow follow, IdChain* out,
                       bool* via_symlink = nullptr) const;

    /** getattr with lstat semantics: a final symlink is not followed. */
    StatusOr<INode> stat(std::string_view path, const UserContext& user) const;

    /** Open-for-read on a file: requires read permission on the target. */
    StatusOr<INode> read_file(std::string_view path,
                              const UserContext& user) const;

    /**
     * List child names of a directory (requires read on the dir), in
     * lexicographic order.
     */
    StatusOr<std::vector<std::string>> list(std::string_view path,
                                            const UserContext& user) const;

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /** Create an empty file. Parent must exist and be writable. */
    StatusOr<INode> create_file(std::string_view path, const UserContext& user,
                                sim::SimTime now);

    /** Create a directory, making intermediate directories as needed. */
    StatusOr<INode> mkdirs(std::string_view path, const UserContext& user,
                           sim::SimTime now);

    /**
     * Delete a file, an empty directory, or (when @p recursive) a whole
     * subtree. @return number of inodes removed.
     */
    StatusOr<int64_t> remove(std::string_view path, const UserContext& user,
                             bool recursive, sim::SimTime now);

    /**
     * Rename @p src to @p dst. The destination must not exist; its parent
     * must. Moving a directory moves the whole subtree. A final symlink
     * at @p src moves the link itself.
     */
    Status rename(std::string_view src, std::string_view dst,
                  const UserContext& user, sim::SimTime now);

    /**
     * Hard link: add directory entry @p dst for the existing file at
     * @p src (files only; directories and symlinks are rejected). Bumps
     * the shared inode's link count.
     */
    StatusOr<INode> link(std::string_view src, std::string_view dst,
                         const UserContext& user, sim::SimTime now);

    /**
     * Create a symbolic link at @p link_path whose stored target is the
     * absolute path @p target. The target need not exist (dangling links
     * are legal); it is validated syntactically only.
     */
    StatusOr<INode> symlink(std::string_view link_path,
                            std::string_view target, const UserContext& user,
                            sim::SimTime now);

    /**
     * Update mode/owner/group/times per @p update's mask. Follows a
     * final symlink (chmod semantics). Owner or superuser only; chown
     * itself is superuser-only.
     */
    StatusOr<INode> setattr(std::string_view path, const AttrUpdate& update,
                            const UserContext& user, sim::SimTime now);

    // ------------------------------------------------------------------
    // Bulk loading (benchmark tree construction)
    // ------------------------------------------------------------------

    /**
     * Pre-size the slab and id index for @p additional inodes so a bulk
     * load triggers no incremental growth.
     */
    void bulk_reserve(size_t additional);

    /**
     * Append a child to @p parent (a resident directory) without path
     * resolution or permission checks — the slab-speed loader used by
     * tree_builder. The caller guarantees @p name is not present in
     * @p parent. State effects are identical to create_file/mkdirs on
     * the equivalent path (ids, versions, timestamps, counters).
     */
    INodeId bulk_add(INodeId parent, std::string_view name, INodeType type,
                     const UserContext& user, sim::SimTime now);

    // ------------------------------------------------------------------
    // File sessions, orphans, and GC (DESIGN.md §12)
    // ------------------------------------------------------------------

    /**
     * Open a leased session on the file at @p path (follows symlinks).
     * @p session_id must be globally unique; @p expiry is the absolute
     * lease expiry. While any session holds an inode, unlinking its last
     * directory entry orphans the inode instead of reclaiming it.
     */
    StatusOr<INode> open_session(std::string_view path, uint64_t session_id,
                                 sim::SimTime expiry, const UserContext& user);

    /**
     * Close a session. @return the number of orphaned inodes reclaimed
     * (1 when this was the last session holding an unlinked inode).
     */
    StatusOr<int64_t> close_session(uint64_t session_id, sim::SimTime now);

    struct GcResult {
        int64_t expired_sessions = 0;  ///< sessions pruned (lease passed)
        int64_t reclaimed = 0;         ///< orphaned inodes reclaimed
    };

    /**
     * Background prune pass: expire every session whose lease has passed
     * at @p now (crashed-client leftovers) and reclaim orphaned inodes
     * no live session holds.
     */
    GcResult gc_prune(sim::SimTime now);

    /** Namespace-wide counters (statfs). O(1): all counters incremental. */
    FsStats statfs() const;

    // ------------------------------------------------------------------
    // Residency (two-tier paging, DESIGN.md §15)
    // ------------------------------------------------------------------

    /** Byte budget for slab-resident records (SIZE_MAX: paging off). */
    size_t budget_bytes() const { return budget_bytes_; }

    /** Set the residency budget (tests/benches); enforces now. */
    void set_budget_bytes(size_t bytes);

    /** Per-tier occupancy/traffic counters. */
    ResidencyStats residency_stats() const;

    uint64_t pageins() const { return pageins_; }
    uint64_t pageouts() const { return pageouts_; }

    /** Demand-fault service time (wall nanoseconds per page-in). */
    const sim::Histogram& fault_latency() const { return fault_ns_; }

    // ------------------------------------------------------------------
    // Introspection (used by stores, caches, and tests)
    // ------------------------------------------------------------------

    /**
     * Inode view by id, or nullptr. Reads either tier without migrating
     * (an audit sweep cannot perturb residency). The returned pointer
     * aims into a small ring of scratch views: it stays valid across a
     * handful of interleaved introspection calls but not indefinitely —
     * copy the INode to keep it.
     */
    const INode* get(INodeId id) const;

    /** Child inode id by (parent, name), or kInvalidId. */
    INodeId lookup_child(INodeId parent, std::string_view name) const;

    /**
     * Ids of all children of @p dir (empty for files/unknown ids),
     * ordered by child name.
     */
    std::vector<INodeId> children(INodeId dir) const;

    /**
     * Number of inodes in the subtree rooted at @p path (incl. root).
     * lstat semantics: a final symlink counts as one row, matching what
     * remove/rename would act on.
     */
    StatusOr<int64_t> subtree_size(std::string_view path,
                                   const UserContext& user) const;

    /** Reconstruct the absolute path of inode @p id. */
    std::string full_path(INodeId id) const;

    /** Total number of inodes (including "/"), across both tiers. */
    size_t inode_count() const { return slab_.live() + cold_count_; }

    /** Sum of metadata_bytes over every inode (working-set size). */
    size_t total_metadata_bytes() const { return meta_bytes_; }

    /** Distinct component names interned so far (diagnostics). */
    size_t interned_names() const { return names_.size(); }

    /** Open (unexpired or not-yet-pruned) session count. */
    size_t open_session_count() const { return sessions_.size(); }

    /** Unlinked-but-held inodes awaiting session close or GC. */
    size_t orphan_count() const { return orphans_.size(); }

    /** Orphaned inode ids, ascending (test/oracle introspection). */
    std::vector<INodeId> orphan_ids() const;

    /** One open file session (test/oracle introspection). */
    struct SessionView {
        uint64_t id = 0;
        INodeId inode = kInvalidId;
        sim::SimTime expiry = 0;
    };

    /** All open sessions, ascending by session id. */
    std::vector<SessionView> sessions() const;

  private:
    /**
     * Paged arena of INodeRec slots: bump allocation with a LIFO free
     * list; page addresses never move, so record pointers stay valid
     * across growth. A freed slot's record id is kInvalidId.
     */
    class InodeSlab {
      public:
        static constexpr size_t kPageRecs = 4096;

        uint32_t
        alloc()
        {
            uint32_t slot;
            if (!free_.empty()) {
                slot = free_.back();
                free_.pop_back();
            } else {
                slot = span_++;
                if (slot / kPageRecs >= pages_.size()) {
                    pages_.push_back(
                        std::make_unique<INodeRec[]>(kPageRecs));
                }
            }
            ++live_;
            return slot;
        }

        void
        free_slot(uint32_t slot)
        {
            at(slot).id = kInvalidId;
            free_.push_back(slot);
            --live_;
        }

        INodeRec&
        at(uint32_t slot)
        {
            return pages_[slot / kPageRecs][slot % kPageRecs];
        }

        const INodeRec&
        at(uint32_t slot) const
        {
            return pages_[slot / kPageRecs][slot % kPageRecs];
        }

        /** High-water slot count (clock sweep domain). */
        uint32_t span() const { return span_; }
        size_t live() const { return live_; }
        size_t live_bytes() const { return live_ * sizeof(INodeRec); }

        void
        reserve(size_t n)
        {
            size_t pages = (span_ + n + kPageRecs - 1) / kPageRecs;
            while (pages_.size() < pages) {
                pages_.push_back(std::make_unique<INodeRec[]>(kPageRecs));
            }
            free_.reserve(free_.size() + 64);
        }

      private:
        std::vector<std::unique_ptr<INodeRec[]>> pages_;
        std::vector<uint32_t> free_;
        uint32_t span_ = 0;
        size_t live_ = 0;
    };

    /** Child table of one directory: interned name id -> inode id. */
    using DirTable = util::ChildTable<INodeId>;

    /** One directory entry referencing a multi-link file. */
    struct LinkRef {
        INodeId parent = kInvalidId;
        uint32_t name = NameTable::kNoName;
    };

    /**
     * Reentrancy scope for budget enforcement: public entry points nest
     * freely; eviction runs only when the outermost one exits, so no
     * slab pointer obtained inside an operation is invalidated by it.
     */
    struct OpScope {
        const NamespaceTree* t;

        explicit OpScope(const NamespaceTree* tree) : t(tree)
        {
            ++t->op_depth_;
        }

        ~OpScope()
        {
            if (--t->op_depth_ == 0) {
                t->enforce_budget();
            }
        }
    };

    StatusOr<ResolvedPath> resolve_ex(std::string_view path,
                                      const UserContext& user,
                                      bool follow_final, int depth) const;
    Status resolve_ids_ex(std::string_view path, const UserContext& user,
                          bool follow_final, int depth, IdChain* out,
                          bool* via_symlink) const;
    StatusOr<INodeRec*> resolve_mutable_parent(std::string_view path,
                                               const UserContext& user);
    INodeRec& add_node(INodeId parent, std::string_view name, INodeType type,
                       const UserContext& user, sim::SimTime now);
    /**
     * Release the inode whose directory entry (@p via_parent, @p via_name)
     * the caller has removed (or is removing): recurse into directories,
     * decrement multi-link files, orphan session-held files, and erase
     * everything else.
     */
    void reap(INodeId id, INodeId via_parent, uint32_t via_name,
              int64_t* removed, sim::SimTime now);
    /** Drop one (parent, name) entry from links_[id]; re-point the
     *  primary (INodeRec::parent/name_id) if that entry was the primary. */
    void drop_link_record(INodeId id, INodeId parent, uint32_t name);
    /** Reclaim an unlinked file inode from whichever tier holds it. */
    void reclaim_inode(INodeId id);
    int32_t open_count(INodeId id) const;
    bool is_ancestor(INodeId maybe_ancestor, INodeId node) const;

    /**
     * One candidate in the eviction ring. The id makes entries
     * generation-safe: a freed-and-reused slot no longer matches, so the
     * stale entry is dropped when it reaches the front.
     */
    struct EvictEntry {
        uint32_t slot = 0;
        INodeId id = kInvalidId;
    };

    /** Resident record pointer, or nullptr (no page-in). */
    INodeRec* resident_ptr(INodeId id) const;
    /** Copy the record from either tier, or false (no migration). */
    bool read_any(INodeId id, INodeRec* out) const;
    /**
     * Resident record for @p id, demand-paging it in from the cold tier
     * on miss (the fault path). Sets the clock referenced bit. Returns
     * nullptr only for ids in neither tier.
     */
    INodeRec* fetch(INodeId id) const;
    /** Page one resident file record out to the cold tier. */
    void evict_slot(uint32_t slot) const;
    /** Second-chance sweep over the eviction ring until the slab fits. */
    void enforce_budget() const;
    /** Enqueue a resident file as an eviction candidate (budget on). */
    void ring_push(uint32_t slot, INodeId id) const;
    /** Re-seed the ring from the slab (budget turned on mid-run). */
    void rebuild_evict_ring() const;

    DirTable& dir_table(const INodeRec& dir);
    const DirTable& dir_table(const INodeRec& dir) const;
    uint32_t alloc_dir_table();
    void free_dir_table(uint32_t idx);

    INode materialize(const INodeRec& rec) const;
    const std::string& name_of(const INodeRec& rec) const;

    // ---- hot tier ----
    mutable InodeSlab slab_;
    /** id -> slab slot + 1, resident records only. */
    mutable util::ChildTable<uint64_t> index_;
    /** Directory child tables, referenced by INodeRec::aux. */
    std::deque<DirTable> dir_tables_;
    std::vector<uint32_t> dir_free_;
    NameTable names_;    ///< component names
    NameTable targets_;  ///< symlink target paths

    // ---- cold tier ----
    mutable lsm::ColdPageStore cold_;
    size_t budget_bytes_ = SIZE_MAX;
    /**
     * FIFO second-chance ring of eviction candidates — file slots only,
     * so enforcement never wades through pinned directory records (a
     * whole-slab clock degenerates to O(span) per eviction once the
     * unevictable directory floor alone exceeds the budget). Maintained
     * only while the budget is set; entries go stale (dropped at the
     * front) rather than being searched for on delete.
     */
    mutable std::deque<EvictEntry> evict_ring_;
    mutable int op_depth_ = 0;
    mutable size_t cold_count_ = 0;  ///< live cold records
    mutable size_t evictable_ = 0;   ///< resident file records
    mutable uint64_t pageins_ = 0;
    mutable uint64_t pageouts_ = 0;
    mutable sim::Histogram fault_ns_;

    /** Scratch views backing get(); see its contract. */
    mutable std::array<INode, 4> scratch_;
    mutable size_t scratch_next_ = 0;

    /**
     * All directory entries of files with nlink > 1 (id-keyed link
     * resolution). Populated lazily on the first link(); single-link
     * files are fully described by INodeRec::parent/name_id.
     */
    std::unordered_map<INodeId, std::vector<LinkRef>> links_;
    std::unordered_map<uint64_t, SessionView> sessions_;
    std::unordered_map<INodeId, int32_t> open_counts_;
    /** Ordered so GC reclaim sweeps deterministically. */
    std::set<INodeId> orphans_;
    INodeId next_id_ = kRootId + 1;
    /** Incremental counters so statfs collection is O(1) per shard. */
    int64_t files_ = 0;
    int64_t dirs_ = 1;  ///< "/"
    int64_t symlinks_ = 0;
    size_t meta_bytes_ = 96;  ///< "/" has an empty name
};

}  // namespace lfs::ns
