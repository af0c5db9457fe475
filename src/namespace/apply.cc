#include "src/namespace/apply.h"

#include <utility>

namespace lfs::ns {

namespace {

/** A mutation that yields the written inode. */
void
set_inode(OpResult& result, StatusOr<INode> written)
{
    if (written.ok()) {
        result.inode = written.take();
    } else {
        result.status = written.status();
    }
}

/** A mutation that yields the number of inodes it reclaimed. */
void
set_touched(OpResult& result, StatusOr<int64_t> touched)
{
    if (touched.ok()) {
        result.inodes_touched = touched.take();
    } else {
        result.status = touched.status();
    }
}

}  // namespace

OpResult
apply_read(const NamespaceTree& tree, const Op& op)
{
    OpResult result;
    if (op.type == OpType::kStatFs) {
        result.status = Status::make_ok();
        result.stats = tree.statfs();
        result.inode = *tree.get(kRootId);
        result.inodes_touched = result.stats.inodes;
        return result;
    }
    if (!is_read_op(op.type)) {
        result.status = Status::invalid_argument("not a read op");
        return result;
    }
    // lstat semantics: a final symlink stats the link itself.
    auto resolved = tree.resolve(
        op.path, op.user,
        op.type == OpType::kStat ? Follow::kNoFinal : Follow::kFinal);
    if (!resolved.ok()) {
        result.status = resolved.status();
        return result;
    }
    ResolvedPath chain = resolved.take();
    const INode& target = chain.target();
    if (op.type == OpType::kReadFile) {
        if (!target.is_file()) {
            result.status =
                Status::failed_precondition("not a file: " + op.path);
            return result;
        }
        if (!check_access(target, op.user, Access::kRead)) {
            result.status = Status::permission_denied("no read on " + op.path);
            return result;
        }
    }
    result.status = Status::make_ok();
    result.inode = target;
    result.via_symlink = chain.via_symlink;
    result.chain = std::move(chain.chain);
    if (op.type == OpType::kLs) {
        auto listed = tree.list(op.path, op.user);
        if (!listed.ok()) {
            result.status = listed.status();
            return result;
        }
        result.children = listed.take();
    }
    return result;
}

OpResult
apply_write(NamespaceTree& tree, const Op& op, sim::SimTime now)
{
    OpResult result;
    result.status = Status::make_ok();
    switch (op.type) {
      case OpType::kCreateFile:
        set_inode(result, tree.create_file(op.path, op.user, now));
        break;
      case OpType::kMkdir:
        set_inode(result, tree.mkdirs(op.path, op.user, now));
        break;
      case OpType::kDeleteFile:
      case OpType::kSubtreeDelete:
        set_touched(result,
                    tree.remove(op.path, op.user,
                                op.type == OpType::kSubtreeDelete, now));
        break;
      case OpType::kMv:
      case OpType::kSubtreeMv:
        result.status = tree.rename(op.path, op.dst, op.user, now);
        break;
      case OpType::kHardLink:
        set_inode(result, tree.link(op.path, op.dst, op.user, now));
        break;
      case OpType::kSymlink:
        set_inode(result, tree.symlink(op.path, op.dst, op.user, now));
        break;
      case OpType::kSetAttr:
        set_inode(result, tree.setattr(op.path, op.attr, op.user, now));
        break;
      case OpType::kOpenSession:
        set_inode(result, tree.open_session(op.path, op.session_id,
                                            now + op.lease_ttl, op.user));
        break;
      case OpType::kCloseSession:
        set_touched(result, tree.close_session(op.session_id, now));
        break;
      case OpType::kGcPrune:
        result.inodes_touched = tree.gc_prune(now).reclaimed;
        result.stats = tree.statfs();
        break;
      default:
        result.status = Status::invalid_argument("not a write op");
        break;
    }
    return result;
}

bool
cache_answers(const Op& op, const std::optional<INode>& cached)
{
    return cached.has_value() &&
           !(cached->is_symlink() &&
             (op.type == OpType::kReadFile || op.type == OpType::kLs));
}

OpResult
answer_cached(const Op& op, const INode& cached, const NamespaceTree& tree)
{
    OpResult result;
    if (op.type == OpType::kReadFile) {
        if (!cached.is_file()) {
            result.status =
                Status::failed_precondition("not a file: " + op.path);
            return result;
        }
        if (!check_access(cached, op.user, Access::kRead)) {
            result.status = Status::permission_denied("no read on " + op.path);
            return result;
        }
    }
    result.status = Status::make_ok();
    result.inode = cached;
    result.cache_hit = true;
    if (op.type == OpType::kLs) {
        // Child names come from the directory index; the cached inode
        // avoids the expensive path-resolve round trip.
        auto listed = tree.list(op.path, op.user);
        if (!listed.ok()) {
            result.status = listed.status();
            return result;
        }
        result.children = listed.take();
    }
    return result;
}

std::optional<OpResult>
answer_from_cache(const Op& op, const std::optional<INode>& cached,
                  const NamespaceTree& tree)
{
    if (!cache_answers(op, cached)) {
        return std::nullopt;
    }
    return answer_cached(op, *cached, tree);
}

bool
needs_subtree_protocol(const NamespaceTree& tree, const Op& op)
{
    if (is_subtree_op(op.type)) {
        return true;
    }
    if (op.type != OpType::kMv) {
        return false;
    }
    UserContext root;
    auto target = tree.stat(op.path, root);
    return target.ok() && target->is_dir();
}

}  // namespace lfs::ns
