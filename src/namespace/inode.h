/**
 * @file
 * INode: the unit of DFS metadata. Every system in this repository (λFS,
 * HopsFS, IndexFS, CephFS-like) manipulates the same INode records; what
 * differs is where they are stored, cached, and locked.
 */
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/sim/time.h"

namespace lfs::ns {

/** Unique inode identifier. Root is kRootId; 0 is "invalid". */
using INodeId = int64_t;

constexpr INodeId kInvalidId = 0;
constexpr INodeId kRootId = 1;

enum class INodeType : uint8_t { kFile = 0, kDirectory = 1, kSymlink = 2 };

/** POSIX-ish permission bits (only user/other read-write-execute used). */
struct Permissions {
    uint16_t mode = 0755;
    int32_t owner = 0;
    int32_t group = 0;
};

/** A single file or directory metadata record. */
struct INode {
    INodeId id = kInvalidId;
    INodeId parent = kInvalidId;
    std::string name;  ///< final path component ("" for root)
    INodeType type = INodeType::kFile;
    Permissions perms;
    int64_t size = 0;          ///< logical file size in bytes
    int32_t block_count = 0;   ///< number of data blocks (files only)
    sim::SimTime mtime = 0;
    sim::SimTime ctime = 0;
    uint64_t version = 0;  ///< bumped on every mutation (cache validation)
    /**
     * Directory-entry reference count. Files start at 1 and gain a link
     * per `link()`; the inode is reclaimed when the count hits zero and
     * no file session holds it open (DESIGN.md §12). Directories and
     * symlinks always have exactly one entry.
     */
    int32_t nlink = 1;
    /** Absolute target path (symlinks only, "" otherwise). */
    std::string symlink_target;

    bool is_dir() const { return type == INodeType::kDirectory; }
    bool is_file() const { return type == INodeType::kFile; }
    bool is_symlink() const { return type == INodeType::kSymlink; }

    /**
     * Approximate serialized size, used for cache capacity accounting.
     * Mirrors HopsFS' on-NDB row footprint: fixed fields plus the name
     * (and, for symlinks, the stored target path).
     */
    size_t metadata_bytes() const
    {
        return 96 + name.size() + symlink_target.size();
    }
};

/**
 * The fixed-size, trivially-copyable inode record the namespace actually
 * stores (DESIGN.md §15). Strings are flattened to interned 32-bit ids
 * (component name, symlink target), so records pack into slab pages, cold
 * records serialize by memcpy, and resolve walks ids without touching the
 * heap. INode remains the materialized *view* handed across API
 * boundaries; conversion happens at the namespace edge.
 */
struct INodeRec {
    INodeId id = kInvalidId;
    INodeId parent = kInvalidId;
    int64_t size = 0;
    sim::SimTime mtime = 0;
    sim::SimTime ctime = 0;
    uint64_t version = 0;
    /** Interned final-component name (NameTable id; kNoName for "/"). */
    uint32_t name_id = 0xffffffffu;
    /**
     * Type-dependent payload: directories store their child-table index,
     * symlinks store the interned id of the normalized target path.
     */
    uint32_t aux = 0;
    int32_t block_count = 0;
    int32_t nlink = 1;
    int32_t owner = 0;
    int32_t group = 0;
    uint16_t mode = 0644;
    INodeType type = INodeType::kFile;
    /** Residency bookkeeping (clock referenced bit, cold tombstone). */
    uint8_t flags = 0;

    static constexpr uint8_t kFlagReferenced = 0x01;
    static constexpr uint8_t kFlagTombstone = 0x80;

    bool is_dir() const { return type == INodeType::kDirectory; }
    bool is_file() const { return type == INodeType::kFile; }
    bool is_symlink() const { return type == INodeType::kSymlink; }
};

static_assert(std::is_trivially_copyable_v<INodeRec>,
              "cold records serialize by memcpy");
static_assert(sizeof(INodeRec) == 80, "slab/cold layout is 80 bytes");

/**
 * Namespace-wide counters served by `statfs`. Collected from per-shard
 * aggregates in the sharded store; each tree maintains the type counts
 * incrementally so the collection itself is O(shards), not O(inodes).
 */
struct FsStats {
    int64_t inodes = 0;        ///< live inode records (incl. orphans)
    int64_t files = 0;
    int64_t dirs = 0;
    int64_t symlinks = 0;
    int64_t open_sessions = 0; ///< file sessions with unexpired leases
    int64_t orphans = 0;       ///< unlinked-but-open inodes awaiting GC
    int64_t metadata_bytes = 0;
};

/** Identity of the principal performing an operation. */
struct UserContext {
    int32_t uid = 0;
    int32_t gid = 0;

    bool is_superuser() const { return uid == 0; }
};

/** Permission classes checked during path resolution. */
enum class Access : uint8_t { kRead = 4, kWrite = 2, kExecute = 1 };

/** True if @p user may perform @p access on @p inode. */
bool check_access(const INode& inode, const UserContext& user, Access access);

}  // namespace lfs::ns
