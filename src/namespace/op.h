/**
 * @file
 * The client-visible metadata operation vocabulary shared by every file
 * system in this repository. The mix of these operations in the Spotify
 * industrial workload is given in Table 2 of the paper.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/namespace/inode.h"
#include "src/sim/latency.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"
#include "src/util/status.h"

namespace lfs {

/** Metadata operation kinds (HDFS namespace subset used by the paper). */
enum class OpType : uint8_t {
    kCreateFile = 0,  ///< create empty file
    kMkdir,           ///< create directory (with parents, as `mkdirs`)
    kDeleteFile,      ///< delete file or empty directory
    kMv,              ///< rename/move file or directory
    kReadFile,        ///< open-for-read: fetch metadata + block locations
    kStat,            ///< getattr on file or directory
    kLs,              ///< list directory children
    kSubtreeMv,       ///< recursive mv of a large directory (Table 3)
    kSubtreeDelete,   ///< recursive delete
    kHardLink,        ///< add a directory entry for an existing file
    kSymlink,         ///< create a symbolic link (dst holds the target)
    kSetAttr,         ///< chmod/chown/utimes (Op::attr carries the update)
    kStatFs,          ///< namespace-wide counters from shard aggregates
    kOpenSession,     ///< open a leased file session (Op::session_id)
    kCloseSession,    ///< close a file session; may reclaim an orphan
    kGcPrune,         ///< expire stale leases and reclaim orphaned inodes
    kCount,
};

/** Human-readable short name ("read", "mkdir", ...). */
const char* op_name(OpType type);

/** True for operations that only read metadata. */
constexpr bool
is_read_op(OpType type)
{
    return type == OpType::kReadFile || type == OpType::kStat ||
           type == OpType::kLs || type == OpType::kStatFs;
}

/** True for subtree-granularity operations. */
constexpr bool
is_subtree_op(OpType type)
{
    return type == OpType::kSubtreeMv || type == OpType::kSubtreeDelete;
}

/**
 * True when Op::dst names a second path mutated by the op (the rename
 * destination or the new hard-link name). kSymlink's dst is the stored
 * target string — the target itself is never touched, so it is excluded.
 */
constexpr bool
has_dst_path(OpType type)
{
    return type == OpType::kMv || type == OpType::kSubtreeMv ||
           type == OpType::kHardLink;
}

/** Attribute update carried by kSetAttr (mask selects applied fields). */
struct AttrUpdate {
    enum Field : uint8_t {
        kMode = 1,
        kOwner = 2,
        kGroup = 4,
        kTimes = 8,
    };
    uint8_t mask = 0;
    uint16_t mode = 0644;
    int32_t owner = 0;
    int32_t group = 0;
    sim::SimTime mtime = 0;  ///< applied when kTimes is set
};

/**
 * Apply @p u's masked fields to @p inode and stamp the change (ctime,
 * version). Permission checks are the caller's job — this is the shared
 * mutation every backend (tree rows, LSM rows) performs identically.
 */
inline void
apply_attr_update(ns::INode& inode, const AttrUpdate& u, sim::SimTime now)
{
    if ((u.mask & AttrUpdate::kMode) != 0) {
        inode.perms.mode = u.mode;
    }
    if ((u.mask & AttrUpdate::kOwner) != 0) {
        inode.perms.owner = u.owner;
    }
    if ((u.mask & AttrUpdate::kGroup) != 0) {
        inode.perms.group = u.group;
    }
    if ((u.mask & AttrUpdate::kTimes) != 0) {
        inode.mtime = u.mtime;
    }
    inode.ctime = now;
    ++inode.version;
}

/** One client metadata request. */
struct Op {
    OpType type = OpType::kStat;
    std::string path;        ///< primary target
    std::string dst;         ///< destination (mv only)
    ns::UserContext user;    ///< principal
    uint64_t op_id = 0;      ///< unique id (dedup of resubmitted requests)
    AttrUpdate attr;         ///< kSetAttr payload
    uint64_t session_id = 0;  ///< kOpenSession/kCloseSession session id
    /** Lease duration granted at kOpenSession (expiry = commit + ttl). */
    sim::SimTime lease_ttl = 0;
    sim::TraceContext trace;  ///< tracing context; each layer re-parents it
    /**
     * Absolute completion deadline propagated with the request (-1 =
     * none). Every hop — gateway, deployment admission queue, NameNode,
     * datanode — sheds work whose deadline has already passed instead of
     * processing it ("expired-in-queue" shedding, DESIGN.md overload
     * control). Stamped by the client when deadlines are enabled.
     */
    sim::SimTime deadline = -1;
};

/** True when @p op carries a deadline that has passed at @p now. */
inline bool
op_expired(const Op& op, sim::SimTime now)
{
    return op.deadline >= 0 && now >= op.deadline;
}

/** Result payload for read-type operations. */
struct OpResult {
    Status status;
    ns::INode inode;                    ///< target inode (read/stat/create)
    std::vector<ns::INode> chain;       ///< resolved path chain (root..target)
    std::vector<std::string> children;  ///< ls results
    bool cache_hit = false;             ///< served from a metadata cache
    int64_t inodes_touched = 1;         ///< rows affected (subtree ops)
    ns::FsStats stats;                  ///< kStatFs payload
    /**
     * Resolution dereferenced a symlink: the request path is an alias,
     * so path-keyed caches must not store the target under it.
     */
    bool via_symlink = false;
    /**
     * Latency attribution ledger (DESIGN.md §11). Rides by value so a
     * late-finishing duplicate attempt (discarded by the client's
     * first-wins cell) can never stamp into a dead op. Empty unless
     * Simulation::attribution() is on; compiled out with
     * -DLFS_NO_ATTRIBUTION.
     */
    sim::LatencyLedger ledger;
    /** Trace id of the op's root span (0 = untraced). */
    uint64_t trace_id = 0;
};

/**
 * A result carrying only @p status. Coroutines return error exits as
 * ``co_return error_result(...)`` so the result is built in place rather
 * than held in a second frame-resident OpResult.
 */
inline OpResult
error_result(Status status)
{
    OpResult result;
    result.status = std::move(status);
    return result;
}

/** error_result(@p status) carrying @p ledger when @p attr (attribution
    on); the ledger stays empty otherwise. */
inline OpResult
error_result(Status status, bool attr, const sim::LatencyLedger& ledger)
{
    OpResult result = error_result(std::move(status));
    if (attr) {
        result.ledger = ledger;
    }
    return result;
}

/** What a client's timer delivers when an attempt got no reply in time. */
inline OpResult
client_timeout()
{
    return error_result(Status::deadline_exceeded("client-side timeout"));
}

inline const char*
op_name(OpType type)
{
    switch (type) {
      case OpType::kCreateFile:
        return "create";
      case OpType::kMkdir:
        return "mkdir";
      case OpType::kDeleteFile:
        return "delete";
      case OpType::kMv:
        return "mv";
      case OpType::kReadFile:
        return "read";
      case OpType::kStat:
        return "stat";
      case OpType::kLs:
        return "ls";
      case OpType::kSubtreeMv:
        return "subtree_mv";
      case OpType::kSubtreeDelete:
        return "subtree_delete";
      case OpType::kHardLink:
        return "hardlink";
      case OpType::kSymlink:
        return "symlink";
      case OpType::kSetAttr:
        return "setattr";
      case OpType::kStatFs:
        return "statfs";
      case OpType::kOpenSession:
        return "open_session";
      case OpType::kCloseSession:
        return "close_session";
      case OpType::kGcPrune:
        return "gc_prune";
      case OpType::kCount:
        break;
    }
    return "?";
}

}  // namespace lfs
