#include "src/indexfs/row_apply.h"

#include <utility>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::indexfs {

namespace {

/** Timed LSM insert used for namespace preloading during warmup. */
sim::Task<void>
preload_put(lsm::LsmTree& tree, std::string key, ns::INode inode)
{
    Status st = co_await tree.put(std::move(key), std::move(inode));
    (void)st;
}

/** Deterministic synthetic inode: rows are keyed by path. */
ns::INode
synth_inode(const std::string& p, ns::INodeType type)
{
    ns::INode inode;
    inode.name = path::basename(p);
    inode.type = type;
    inode.id = static_cast<ns::INodeId>(mix64(fnv1a(p)) >> 1) + 2;
    return inode;
}

/**
 * Whether @p op may read @p row: open-for-read needs read permission on
 * the row it lands on. A symlink row passes, since the caller chases it
 * to the target, which is checked in turn.
 */
Status
read_access(const Op& op, const ns::INode& row)
{
    if (op.type == OpType::kReadFile && !row.is_symlink() &&
        !ns::check_access(row, op.user, ns::Access::kRead)) {
        return Status::permission_denied("no read on " + op.path);
    }
    return Status::make_ok();
}

}  // namespace

void
FlatKeyspace::apply_to_mirror(const Op& op)
{
    ns::UserContext root;
    switch (op.type) {
      case OpType::kCreateFile:
        mirror_.mkdirs(path::parent(op.path), root, sim_.now());
        mirror_.create_file(op.path, root, sim_.now());
        break;
      case OpType::kMkdir:
        mirror_.mkdirs(op.path, root, sim_.now());
        break;
      case OpType::kDeleteFile:
        mirror_.remove(op.path, root, false, sim_.now());
        break;
      case OpType::kSymlink:
        mirror_.mkdirs(path::parent(op.path), root, sim_.now());
        mirror_.symlink(op.path, op.dst, root, sim_.now());
        break;
      case OpType::kHardLink:
        mirror_.mkdirs(path::parent(op.dst), root, sim_.now());
        mirror_.link(op.path, op.dst, root, sim_.now());
        break;
      case OpType::kSetAttr:
        mirror_.setattr(op.path, op.attr, root, sim_.now());
        break;
      default:
        break;
    }
}

void
FlatKeyspace::preload(const std::string& p, ns::INodeType type)
{
    ns::UserContext root;
    if (type == ns::INodeType::kDirectory) {
        mirror_.mkdirs(p, root, 0);
    } else {
        mirror_.mkdirs(path::parent(p), root, 0);
        mirror_.create_file(p, root, 0);
    }
    ns::INode inode = synth_inode(p, type);
    // Untimed insert directly into the owning memtable; any triggered
    // flushes run during warmup.
    rows_.note_put(p, inode);
    sim::spawn(preload_put(lsm_for(p), p, std::move(inode)));
}

std::optional<OpResult>
answer_from_row_cache(const Op& op, const std::optional<ns::INode>& cached)
{
    if (!cached.has_value() ||
        (cached->is_symlink() && op.type == OpType::kReadFile)) {
        return std::nullopt;
    }
    OpResult result;
    result.status = read_access(op, *cached);
    if (result.status.ok()) {
        result.inode = *cached;
        result.cache_hit = true;
    }
    return result;
}

sim::Task<OpResult>
apply_row(FlatKeyspace& ks, const Op& op, sim::SimTime now)
{
    sim::Simulation& sim = ks.simulation();
    const sim::SimTime lsm_start = sim.now();
    lsm::LsmTree& lsm = ks.lsm_for(op.path);
    OpResult result;
    result.status = Status::make_ok();
    switch (op.type) {
      case OpType::kCreateFile:
      case OpType::kMkdir:
      case OpType::kSymlink: {
        const bool link = op.type == OpType::kSymlink;
        if (link && !path::is_valid(op.dst)) {
            result.status =
                Status::invalid_argument("bad symlink target: " + op.dst);
            break;
        }
        ns::INode inode = synth_inode(
            op.path, link ? ns::INodeType::kSymlink
                          : op.type == OpType::kMkdir
                                ? ns::INodeType::kDirectory
                                : ns::INodeType::kFile);
        inode.perms.owner = op.user.uid;
        inode.mtime = now;
        inode.ctime = now;
        if (link) {
            inode.perms.mode = 0777;
            inode.symlink_target = path::normalize(op.dst);
        }
        result.status = co_await lsm.put(op.path, inode);
        if (result.status.ok()) {
            ks.rows().note_put(op.path, inode);
        }
        result.inode = std::move(inode);
        break;
      }
      case OpType::kDeleteFile: {
        // Sessions holding the row open keep its inode alive as an
        // orphan until the last holder closes (or GC expires them).
        std::optional<ns::INode> held;
        if (ks.sessions().open_count(op.path) > 0) {
            auto got = co_await lsm.get(op.path);
            if (!got.ok()) {
                result.status = got.status();
                break;
            }
            held = got.take();
        }
        result.status = co_await lsm.del(op.path);
        if (result.status.ok()) {
            ks.rows().note_del(op.path);
            if (held.has_value()) {
                ks.sessions().orphan(op.path, *held);
            }
        }
        break;
      }
      case OpType::kHardLink: {
        auto got = co_await lsm.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        ns::INode src = got.take();
        if (!src.is_file()) {
            result.status = Status::failed_precondition(
                "hard link target is not a file: " + op.path);
            break;
        }
        src.nlink += 1;
        src.ctime = now;
        ++src.version;
        ns::INode linked = src;
        linked.name = path::basename(op.dst);
        result.status = co_await lsm.put(op.path, src);
        if (!result.status.ok()) {
            break;
        }
        ks.rows().note_put(op.path, src);
        co_await ks.reach(op.path, op.dst);
        result.status = co_await ks.lsm_for(op.dst).put(op.dst, linked);
        if (result.status.ok()) {
            ks.rows().note_put(op.dst, linked);
        }
        result.inode = std::move(linked);
        break;
      }
      case OpType::kSetAttr: {
        auto got = co_await lsm.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        ns::INode inode = got.take();
        if (!op.user.is_superuser() && op.user.uid != inode.perms.owner) {
            result.status =
                Status::permission_denied("not the owner of " + op.path);
            break;
        }
        if ((op.attr.mask & (AttrUpdate::kOwner | AttrUpdate::kGroup)) !=
                0 &&
            !op.user.is_superuser()) {
            result.status =
                Status::permission_denied("only the superuser may chown");
            break;
        }
        apply_attr_update(inode, op.attr, now);
        result.status = co_await lsm.put(op.path, inode);
        if (result.status.ok()) {
            ks.rows().note_put(op.path, inode);
        }
        result.inode = std::move(inode);
        break;
      }
      case OpType::kOpenSession: {
        auto got = co_await lsm.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        ns::INode inode = got.take();
        if (!inode.is_file()) {
            result.status =
                Status::failed_precondition("not a file: " + op.path);
            break;
        }
        if (!ns::check_access(inode, op.user, ns::Access::kRead)) {
            result.status = Status::permission_denied("no read on " + op.path);
            break;
        }
        ks.sessions().open(op.session_id, op.path, now + op.lease_ttl);
        result.inode = std::move(inode);
        break;
      }
      case OpType::kCloseSession:
        result.inodes_touched = ks.sessions().close(op.session_id);
        break;
      case OpType::kGcPrune:
        result.inodes_touched = ks.sessions().gc(now).second;
        result.stats.open_sessions = ks.sessions().open_sessions();
        result.stats.orphans = ks.sessions().orphans();
        break;
      case OpType::kStatFs: {
        const RowRegistry& rows = ks.rows();
        const SessionRegistry& sessions = ks.sessions();
        result.stats.files = rows.files();
        result.stats.dirs = rows.dirs();
        result.stats.symlinks = rows.symlinks();
        result.stats.inodes = rows.rows() + sessions.orphans();
        result.stats.open_sessions = sessions.open_sessions();
        result.stats.orphans = sessions.orphans();
        result.stats.metadata_bytes = rows.metadata_bytes();
        result.inode = *ks.mirror().get(ns::kRootId);
        result.inodes_touched = result.stats.inodes;
        break;
      }
      case OpType::kReadFile:
      case OpType::kStat:
      case OpType::kLs: {
        auto got = co_await lsm.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        result.status = read_access(op, *got);
        if (result.status.ok()) {
            result.inode = got.take();
        }
        break;
      }
      default:
        result.status =
            Status::invalid_argument("unsupported op on a flat keyspace");
        break;
    }
    if (sim.attribution()) {
        // LSM-tree work (memtable, WAL, compaction stalls) is the
        // store-service share of a row op.
        result.ledger.add(sim::LatSeg::kStoreService, sim.now() - lsm_start);
    }
    if (result.status.ok() && !is_read_op(op.type)) {
        ks.apply_to_mirror(op);
    }
    co_return result;
}

}  // namespace lfs::indexfs
