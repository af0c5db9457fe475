#include "src/namespace/namespace_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "src/util/path.h"

namespace lfs::ns {

namespace {

std::string
describe(std::string_view what, std::string_view p)
{
    std::string out(what);
    out += p;
    return out;
}

/** check_access over the packed record (same bits as the INode form). */
bool
rec_access(const INodeRec& rec, const UserContext& user, Access access)
{
    if (user.is_superuser()) {
        return true;
    }
    uint16_t bits = static_cast<uint16_t>(access);
    uint16_t mode = rec.mode;
    if (rec.owner == user.uid) {
        return ((mode >> 6) & bits) == bits;
    }
    if (rec.group == user.gid) {
        return ((mode >> 3) & bits) == bits;
    }
    return (mode & bits) == bits;
}

int64_t
fault_elapsed_ns(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

NamespaceTree::NamespaceTree()
{
    uint32_t slot = slab_.alloc();
    INodeRec& root = slab_.at(slot);
    root = INodeRec{};
    root.id = kRootId;
    root.parent = kInvalidId;
    root.name_id = NameTable::kNoName;
    root.type = INodeType::kDirectory;
    root.mode = 0777;
    root.aux = alloc_dir_table();
    index_.insert(static_cast<uint64_t>(kRootId), slot + 1);
}

// ----------------------------------------------------------------------
// Residency internals
// ----------------------------------------------------------------------

INodeRec*
NamespaceTree::resident_ptr(INodeId id) const
{
    uint64_t v = index_.find_exact(static_cast<uint64_t>(id));
    return v == 0 ? nullptr : &slab_.at(static_cast<uint32_t>(v - 1));
}

bool
NamespaceTree::read_any(INodeId id, INodeRec* out) const
{
    if (const INodeRec* rec = resident_ptr(id)) {
        *out = *rec;
        return true;
    }
    return cold_.get(id, out);
}

INodeRec*
NamespaceTree::fetch(INodeId id) const
{
    if (uint64_t v = index_.find_exact(static_cast<uint64_t>(id)); v != 0) {
        INodeRec& rec = slab_.at(static_cast<uint32_t>(v - 1));
        rec.flags |= INodeRec::kFlagReferenced;
        return &rec;
    }
    auto t0 = std::chrono::steady_clock::now();
    INodeRec cold_rec;
    if (!cold_.get(id, &cold_rec)) {
        return nullptr;
    }
    uint32_t slot = slab_.alloc();
    INodeRec& rec = slab_.at(slot);
    rec = cold_rec;
    rec.flags = INodeRec::kFlagReferenced;
    index_.insert(static_cast<uint64_t>(id), slot + 1);
    ring_push(slot, id);
    cold_.erase(id);
    --cold_count_;
    ++evictable_;
    ++pageins_;
    fault_ns_.record(fault_elapsed_ns(t0));
    return &rec;
}

void
NamespaceTree::evict_slot(uint32_t slot) const
{
    INodeRec& rec = slab_.at(slot);
    INodeRec copy = rec;
    copy.flags &= static_cast<uint8_t>(~INodeRec::kFlagReferenced);
    cold_.put(copy);
    index_.erase_key(static_cast<uint64_t>(rec.id));
    slab_.free_slot(slot);
    ++cold_count_;
    --evictable_;
    ++pageouts_;
}

void
NamespaceTree::ring_push(uint32_t slot, INodeId id) const
{
    if (budget_bytes_ != SIZE_MAX) {
        evict_ring_.push_back(EvictEntry{slot, id});
    }
}

void
NamespaceTree::rebuild_evict_ring() const
{
    evict_ring_.clear();
    for (uint32_t slot = 0; slot < slab_.span(); ++slot) {
        const INodeRec& rec = slab_.at(slot);
        if (rec.id != kInvalidId && rec.is_file()) {
            evict_ring_.push_back(EvictEntry{slot, rec.id});
        }
    }
}

void
NamespaceTree::enforce_budget() const
{
    if (budget_bytes_ == SIZE_MAX) {
        return;
    }
    // Second-chance over the candidate ring: referenced records get their
    // bit cleared and one more lap; unreferenced file records page out.
    // Stale entries (deleted or already-evicted generations) drop on
    // contact. The guard bounds one enforcement to ~two laps; an
    // unfinished sweep resumes at the next op exit.
    size_t guard = 2 * evict_ring_.size() + 16;
    while (slab_.live_bytes() > budget_bytes_ && !evict_ring_.empty() &&
           guard-- > 0) {
        EvictEntry e = evict_ring_.front();
        evict_ring_.pop_front();
        INodeRec& rec = slab_.at(e.slot);
        if (rec.id != e.id || !rec.is_file()) {
            continue;  // stale: slot freed or reused since enqueue
        }
        if ((rec.flags & INodeRec::kFlagReferenced) != 0) {
            rec.flags &= static_cast<uint8_t>(~INodeRec::kFlagReferenced);
            evict_ring_.push_back(e);
            continue;
        }
        evict_slot(e.slot);
    }
}

void
NamespaceTree::set_budget_bytes(size_t bytes)
{
    const bool was_off = budget_bytes_ == SIZE_MAX;
    budget_bytes_ = bytes;
    if (bytes != SIZE_MAX && was_off) {
        // Files created while the budget was off were never enqueued.
        rebuild_evict_ring();
    }
    enforce_budget();
}

ResidencyStats
NamespaceTree::residency_stats() const
{
    ResidencyStats out;
    out.resident_inodes = slab_.live();
    out.cold_inodes = cold_count_;
    out.slab_bytes = slab_.live_bytes();
    size_t dir_bytes = 0;
    for (const DirTable& tab : dir_tables_) {
        dir_bytes += tab.capacity_bytes() + sizeof(DirTable);
    }
    out.resident_bytes = out.slab_bytes + index_.capacity_bytes() +
                         dir_bytes + names_.resident_bytes() +
                         targets_.resident_bytes();
    out.cold_bytes = cold_.bytes();
    out.pageins = pageins_;
    out.pageouts = pageouts_;
    size_t total = slab_.live() + cold_count_;
    if (total > 0) {
        out.bytes_per_inode =
            static_cast<double>(out.resident_bytes) /
            static_cast<double>(total);
    }
    return out;
}

// ----------------------------------------------------------------------
// Directory tables and materialization
// ----------------------------------------------------------------------

NamespaceTree::DirTable&
NamespaceTree::dir_table(const INodeRec& dir)
{
    return dir_tables_[dir.aux];
}

const NamespaceTree::DirTable&
NamespaceTree::dir_table(const INodeRec& dir) const
{
    return dir_tables_[dir.aux];
}

uint32_t
NamespaceTree::alloc_dir_table()
{
    if (!dir_free_.empty()) {
        uint32_t idx = dir_free_.back();
        dir_free_.pop_back();
        return idx;
    }
    dir_tables_.emplace_back();
    return static_cast<uint32_t>(dir_tables_.size() - 1);
}

void
NamespaceTree::free_dir_table(uint32_t idx)
{
    dir_tables_[idx].clear();
    dir_free_.push_back(idx);
}

const std::string&
NamespaceTree::name_of(const INodeRec& rec) const
{
    static const std::string empty;
    return rec.name_id == NameTable::kNoName ? empty
                                             : names_.name(rec.name_id);
}

INode
NamespaceTree::materialize(const INodeRec& rec) const
{
    INode out;
    out.id = rec.id;
    out.parent = rec.parent;
    out.name = name_of(rec);
    out.type = rec.type;
    out.perms.mode = rec.mode;
    out.perms.owner = rec.owner;
    out.perms.group = rec.group;
    out.size = rec.size;
    out.block_count = rec.block_count;
    out.mtime = rec.mtime;
    out.ctime = rec.ctime;
    out.version = rec.version;
    out.nlink = rec.nlink;
    out.symlink_target =
        rec.is_symlink() ? targets_.name(rec.aux) : std::string();
    return out;
}

// ----------------------------------------------------------------------
// Resolution and reads
// ----------------------------------------------------------------------

StatusOr<ResolvedPath>
NamespaceTree::resolve(std::string_view p, const UserContext& user,
                       Follow follow) const
{
    OpScope scope(this);
    return resolve_ex(p, user, follow == Follow::kFinal, 0);
}

StatusOr<ResolvedPath>
NamespaceTree::resolve_ex(std::string_view p, const UserContext& user,
                          bool follow_final, int depth) const
{
    if (!path::is_valid(p)) {
        return Status::invalid_argument(describe("bad path: ", p));
    }
    ResolvedPath out;
    const INodeRec* cur = resident_ptr(kRootId);
    out.chain.push_back(materialize(*cur));
    // Walk components by offset (not PathView) so a symlink splice can
    // recover the unconsumed suffix of the path.
    size_t i = 0;
    while (i < p.size()) {
        while (i < p.size() && p[i] == '/') {
            ++i;
        }
        size_t start = i;
        while (i < p.size() && p[i] != '/') {
            ++i;
        }
        if (i == start) {
            break;
        }
        std::string_view comp = p.substr(start, i - start);
        if (!cur->is_dir()) {
            return Status::not_found(describe("not a directory on path: ", p));
        }
        if (!rec_access(*cur, user, Access::kExecute)) {
            return Status::permission_denied("no traverse on " +
                                             full_path(cur->id));
        }
        INodeId child = kInvalidId;
        if (uint32_t name_id = names_.find(comp);
            name_id != NameTable::kNoName) {
            child = dir_table(*cur).find_exact(name_id);
        }
        if (child == kInvalidId) {
            return Status::not_found(describe("no such path: ", p));
        }
        const INodeRec* node = fetch(child);
        assert(node != nullptr);
        bool last = p.find_first_not_of('/', i) == std::string_view::npos;
        if (node->is_symlink() && (!last || follow_final)) {
            if (depth + 1 > kMaxSymlinkFollows) {
                return Status::failed_precondition(
                    describe("symlink loop (ELOOP): ", p));
            }
            // Splice: restart resolution at the link target with the
            // unconsumed suffix (which starts with '/' or is empty).
            std::string next(targets_.name(node->aux));
            next.append(p.substr(i));
            auto spliced = resolve_ex(next, user, follow_final, depth + 1);
            if (spliced.ok()) {
                spliced->via_symlink = true;
            }
            return spliced;
        }
        cur = node;
        out.chain.push_back(materialize(*node));
    }
    return out;
}

Status
NamespaceTree::resolve_ids(std::string_view p, const UserContext& user,
                           Follow follow, IdChain* out,
                           bool* via_symlink) const
{
    OpScope scope(this);
    if (via_symlink != nullptr) {
        *via_symlink = false;
    }
    return resolve_ids_ex(p, user, follow == Follow::kFinal, 0, out,
                          via_symlink);
}

Status
NamespaceTree::resolve_ids_ex(std::string_view p, const UserContext& user,
                              bool follow_final, int depth, IdChain* out,
                              bool* via_symlink) const
{
    if (!path::is_valid(p)) {
        return Status::invalid_argument(describe("bad path: ", p));
    }
    out->clear();
    const INodeRec* cur = resident_ptr(kRootId);
    out->push(kRootId);
    size_t i = 0;
    while (i < p.size()) {
        while (i < p.size() && p[i] == '/') {
            ++i;
        }
        size_t start = i;
        while (i < p.size() && p[i] != '/') {
            ++i;
        }
        if (i == start) {
            break;
        }
        std::string_view comp = p.substr(start, i - start);
        if (!cur->is_dir()) {
            return Status::not_found(describe("not a directory on path: ", p));
        }
        if (!rec_access(*cur, user, Access::kExecute)) {
            return Status::permission_denied("no traverse on " +
                                             full_path(cur->id));
        }
        INodeId child = kInvalidId;
        if (uint32_t name_id = names_.find(comp);
            name_id != NameTable::kNoName) {
            child = dir_table(*cur).find_exact(name_id);
        }
        if (child == kInvalidId) {
            return Status::not_found(describe("no such path: ", p));
        }
        const INodeRec* node = fetch(child);
        assert(node != nullptr);
        bool last = p.find_first_not_of('/', i) == std::string_view::npos;
        if (node->is_symlink() && (!last || follow_final)) {
            if (depth + 1 > kMaxSymlinkFollows) {
                return Status::failed_precondition(
                    describe("symlink loop (ELOOP): ", p));
            }
            std::string next(targets_.name(node->aux));
            next.append(p.substr(i));
            if (via_symlink != nullptr) {
                *via_symlink = true;
            }
            return resolve_ids_ex(next, user, follow_final, depth + 1, out,
                                  via_symlink);
        }
        cur = node;
        out->push(child);
    }
    return Status::make_ok();
}

StatusOr<INode>
NamespaceTree::stat(std::string_view p, const UserContext& user) const
{
    auto resolved = resolve(p, user, Follow::kNoFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    return resolved->target();
}

StatusOr<INode>
NamespaceTree::read_file(std::string_view p, const UserContext& user) const
{
    auto resolved = resolve(p, user);
    if (!resolved.ok()) {
        return resolved.status();
    }
    const INode& target = resolved->target();
    if (!target.is_file()) {
        return Status::failed_precondition(describe("not a file: ", p));
    }
    if (!check_access(target, user, Access::kRead)) {
        return Status::permission_denied(describe("no read on ", p));
    }
    return target;
}

StatusOr<std::vector<std::string>>
NamespaceTree::list(std::string_view p, const UserContext& user) const
{
    auto resolved = resolve(p, user);
    if (!resolved.ok()) {
        return resolved.status();
    }
    const INode& target = resolved->target();
    if (target.is_file()) {
        // ls on a file lists the file itself (HDFS semantics).
        return std::vector<std::string>{target.name};
    }
    if (!check_access(target, user, Access::kRead)) {
        return Status::permission_denied(describe("no read on ", p));
    }
    std::vector<std::string> names;
    const INodeRec* rec = resident_ptr(target.id);  // dirs are pinned
    if (rec != nullptr && rec->is_dir()) {
        const DirTable& tab = dir_table(*rec);
        names.reserve(tab.size());
        for (const DirTable::Slot& s : tab.slots()) {
            if (s.value != kInvalidId) {
                names.push_back(
                    names_.name(static_cast<uint32_t>(s.key)));
            }
        }
    }
    // The child table is hashed by interned id; listing stays sorted.
    std::sort(names.begin(), names.end());
    return names;
}

// ----------------------------------------------------------------------
// Mutations
// ----------------------------------------------------------------------

StatusOr<INodeRec*>
NamespaceTree::resolve_mutable_parent(std::string_view p,
                                      const UserContext& user)
{
    auto resolved = resolve(path::parent(p), user);
    if (!resolved.ok()) {
        return resolved.status();
    }
    INodeRec* parent = fetch(resolved->target().id);
    assert(parent != nullptr);
    if (!parent->is_dir()) {
        return Status::failed_precondition(
            describe("parent not a directory: ", p));
    }
    if (!rec_access(*parent, user, Access::kWrite)) {
        return Status::permission_denied(
            describe("no write on parent of ", p));
    }
    return parent;
}

INodeRec&
NamespaceTree::add_node(INodeId parent, std::string_view name,
                        INodeType type, const UserContext& user,
                        sim::SimTime now)
{
    uint32_t slot = slab_.alloc();
    INodeRec& node = slab_.at(slot);
    node = INodeRec{};
    node.id = next_id_++;
    node.parent = parent;
    node.name_id = names_.intern(name);
    node.type = type;
    switch (type) {
      case INodeType::kDirectory:
        node.mode = 0755;
        node.aux = alloc_dir_table();
        ++dirs_;
        break;
      case INodeType::kFile:
        node.mode = 0644;
        ++files_;
        ++evictable_;
        ring_push(slot, node.id);
        break;
      case INodeType::kSymlink:
        node.mode = 0777;
        ++symlinks_;
        break;
    }
    node.owner = user.uid;
    node.group = user.gid;
    node.mtime = now;
    node.ctime = now;
    node.flags = INodeRec::kFlagReferenced;
    index_.insert(static_cast<uint64_t>(node.id), slot + 1);
    INodeRec* parent_rec = fetch(parent);
    assert(parent_rec != nullptr && parent_rec->is_dir());
    dir_table(*parent_rec).insert(node.name_id, node.id);
    parent_rec->mtime = now;
    ++parent_rec->version;
    meta_bytes_ += 96 + name.size();
    return node;
}

StatusOr<INode>
NamespaceTree::create_file(std::string_view p, const UserContext& user,
                           sim::SimTime now)
{
    OpScope scope(this);
    if (!path::is_valid(p) || p == "/") {
        return Status::invalid_argument(describe("bad path: ", p));
    }
    auto parent = resolve_mutable_parent(p, user);
    if (!parent.ok()) {
        return parent.status();
    }
    std::string_view name = path::basename_view(p);
    if (lookup_child((*parent)->id, name) != kInvalidId) {
        return Status::already_exists(describe("exists: ", p));
    }
    return materialize(
        add_node((*parent)->id, name, INodeType::kFile, user, now));
}

StatusOr<INode>
NamespaceTree::mkdirs(std::string_view p, const UserContext& user,
                      sim::SimTime now)
{
    OpScope scope(this);
    if (!path::is_valid(p)) {
        return Status::invalid_argument(describe("bad path: ", p));
    }
    const INodeRec* cur = resident_ptr(kRootId);
    for (std::string_view comp : path::PathView(p)) {
        if (!cur->is_dir()) {
            return Status::failed_precondition(describe("file on path: ", p));
        }
        if (!rec_access(*cur, user, Access::kExecute)) {
            return Status::permission_denied("no traverse on " +
                                             full_path(cur->id));
        }
        INodeId child = lookup_child(cur->id, comp);
        if (child == kInvalidId) {
            if (!rec_access(*cur, user, Access::kWrite)) {
                return Status::permission_denied("no write on " +
                                                 full_path(cur->id));
            }
            cur = &add_node(cur->id, comp, INodeType::kDirectory, user, now);
        } else {
            cur = fetch(child);
        }
    }
    if (!cur->is_dir()) {
        return Status::already_exists(describe("file exists: ", p));
    }
    return materialize(*cur);
}

// ----------------------------------------------------------------------
// Bulk loading
// ----------------------------------------------------------------------

void
NamespaceTree::bulk_reserve(size_t additional)
{
    size_t cap = additional;
    if (budget_bytes_ != SIZE_MAX) {
        // Under a sub-resident budget most of the load pages out as it
        // lands: sizing the slab and id index for the full load would
        // bake an unreachable resident footprint into capacity_bytes().
        // Directories are pinned and their share is unknown, so both
        // structures still grow incrementally past this cap whenever the
        // unevictable floor itself exceeds the budget.
        size_t resident_cap = budget_bytes_ / sizeof(INodeRec) + 1024;
        cap = std::min(additional, resident_cap);
    }
    slab_.reserve(cap);
    index_.reserve(slab_.live() + cap);
}

INodeId
NamespaceTree::bulk_add(INodeId parent, std::string_view name,
                        INodeType type, const UserContext& user,
                        sim::SimTime now)
{
    OpScope scope(this);
    assert(resident_ptr(parent) != nullptr &&
           resident_ptr(parent)->is_dir());
    assert(lookup_child(parent, name) == kInvalidId);
    return add_node(parent, name, type, user, now).id;
}

// ----------------------------------------------------------------------
// Deletion
// ----------------------------------------------------------------------

int32_t
NamespaceTree::open_count(INodeId id) const
{
    auto it = open_counts_.find(id);
    return it == open_counts_.end() ? 0 : it->second;
}

void
NamespaceTree::drop_link_record(INodeId id, INodeId parent, uint32_t name)
{
    auto it = links_.find(id);
    if (it == links_.end()) {
        return;
    }
    auto& refs = it->second;
    for (size_t i = 0; i < refs.size(); ++i) {
        if (refs[i].parent == parent && refs[i].name == name) {
            refs.erase(refs.begin() + static_cast<ptrdiff_t>(i));
            break;
        }
    }
    INodeRec* node = resident_ptr(id);
    assert(node != nullptr);  // reap pages multi-link files in
    bool dropped_primary = node->parent == parent && node->name_id == name;
    if (dropped_primary && !refs.empty()) {
        meta_bytes_ += names_.name(refs.front().name).size();
        meta_bytes_ -= names_.name(node->name_id).size();
        node->parent = refs.front().parent;
        node->name_id = refs.front().name;
    }
    // One entry left: INodeRec::parent/name_id describe it fully again.
    if (refs.size() <= 1) {
        links_.erase(it);
    }
}

void
NamespaceTree::reap(INodeId id, INodeId via_parent, uint32_t via_name,
                    int64_t* removed, sim::SimTime now)
{
    uint64_t v = index_.find_exact(static_cast<uint64_t>(id));
    if (v == 0) {
        // Only file inodes page out. A cold single-link file with no
        // open sessions drops straight from the cold tier — the common
        // bulk-delete case pays no page-in.
        INodeRec rec;
        bool found = cold_.get(id, &rec);
        assert(found);
        (void)found;
        if (rec.nlink <= 1 && open_count(id) == 0) {
            cold_.erase(id);
            --cold_count_;
            --files_;
            meta_bytes_ -= 96 + names_.name(rec.name_id).size();
            ++*removed;
            return;
        }
        fetch(id);
        v = index_.find_exact(static_cast<uint64_t>(id));
    }
    uint32_t slot = static_cast<uint32_t>(v - 1);
    INodeRec& node = slab_.at(slot);
    if (node.is_dir()) {
        DirTable& tab = dir_table(node);
        // Copy entries: removal mutates the child table.
        std::vector<std::pair<uint32_t, INodeId>> kids;
        kids.reserve(tab.size());
        for (const DirTable::Slot& s : tab.slots()) {
            if (s.value != kInvalidId) {
                kids.emplace_back(static_cast<uint32_t>(s.key), s.value);
            }
        }
        for (const auto& [name_id, cid] : kids) {
            reap(cid, id, name_id, removed, now);
        }
        free_dir_table(node.aux);
        meta_bytes_ -= 96 + name_of(node).size();
        index_.erase_key(static_cast<uint64_t>(id));
        slab_.free_slot(slot);
        --dirs_;
        ++*removed;
        return;
    }
    if (node.is_symlink()) {
        meta_bytes_ -=
            96 + name_of(node).size() + targets_.name(node.aux).size();
        index_.erase_key(static_cast<uint64_t>(id));
        slab_.free_slot(slot);
        --symlinks_;
        ++*removed;
        return;
    }
    drop_link_record(id, via_parent, via_name);
    if (node.nlink > 1) {
        // Another directory entry still references the inode.
        --node.nlink;
        node.ctime = now;
        ++node.version;
        ++*removed;
        return;
    }
    if (open_count(id) > 0) {
        // Unlinked-but-open: orphan until the last session releases it.
        node.parent = kInvalidId;
        node.nlink = 0;
        node.ctime = now;
        ++node.version;
        orphans_.insert(id);
        ++*removed;
        return;
    }
    meta_bytes_ -= 96 + name_of(node).size();
    index_.erase_key(static_cast<uint64_t>(id));
    slab_.free_slot(slot);
    --files_;
    --evictable_;
    ++*removed;
}

void
NamespaceTree::reclaim_inode(INodeId id)
{
    if (uint64_t v = index_.find_exact(static_cast<uint64_t>(id)); v != 0) {
        uint32_t slot = static_cast<uint32_t>(v - 1);
        INodeRec& rec = slab_.at(slot);
        meta_bytes_ -= 96 + name_of(rec).size();
        index_.erase_key(static_cast<uint64_t>(id));
        slab_.free_slot(slot);
        --evictable_;
    } else {
        INodeRec rec;
        bool found = cold_.get(id, &rec);
        assert(found);
        (void)found;
        meta_bytes_ -= 96 + names_.name(rec.name_id).size();
        cold_.erase(id);
        --cold_count_;
    }
    --files_;
}

StatusOr<int64_t>
NamespaceTree::remove(std::string_view p, const UserContext& user,
                      bool recursive, sim::SimTime now)
{
    OpScope scope(this);
    if (p == "/") {
        return Status::invalid_argument("cannot delete root");
    }
    // No-follow: deleting a symlink removes the link, not its target.
    auto resolved = resolve(p, user, Follow::kNoFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    const INode& target = resolved->target();
    // The entry being removed is (traversed dir, final component): with
    // hard links the inode's primary parent/name may be a different
    // entry; with intermediate symlinks the traversed dir may differ
    // from a textual parent(p).
    INodeId parent_id = resolved->chain[resolved->chain.size() - 2].id;
    INodeRec* parent = fetch(parent_id);
    assert(parent != nullptr);
    if (!rec_access(*parent, user, Access::kWrite)) {
        return Status::permission_denied(
            describe("no write on parent of ", p));
    }
    if (target.is_dir() && !recursive) {
        const INodeRec* target_rec = resident_ptr(target.id);
        if (!dir_table(*target_rec).empty()) {
            return Status::failed_precondition(
                describe("directory not empty: ", p));
        }
    }
    uint32_t name_id = names_.find(path::basename_view(p));
    int64_t removed = 0;
    dir_table(*parent).erase_key(name_id);
    reap(target.id, parent_id, name_id, &removed, now);
    parent->mtime = now;
    ++parent->version;
    return removed;
}

bool
NamespaceTree::is_ancestor(INodeId maybe_ancestor, INodeId node) const
{
    for (INodeId cur = node; cur != kInvalidId;) {
        if (cur == maybe_ancestor) {
            return true;
        }
        INodeRec rec;
        cur = read_any(cur, &rec) ? rec.parent : kInvalidId;
    }
    return false;
}

Status
NamespaceTree::rename(std::string_view src, std::string_view dst,
                      const UserContext& user, sim::SimTime now)
{
    OpScope scope(this);
    if (src == "/" || !path::is_valid(src) || !path::is_valid(dst)) {
        return Status::invalid_argument("bad rename: " + std::string(src) +
                                        " -> " + std::string(dst));
    }
    // No-follow: renaming a symlink moves the link itself.
    auto resolved = resolve(src, user, Follow::kNoFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    const INode& target = resolved->target();
    if (path::is_under(dst, src)) {
        return Status::invalid_argument("cannot move under itself");
    }
    auto dst_parent_resolved = resolve(path::parent(dst), user);
    if (!dst_parent_resolved.ok()) {
        return dst_parent_resolved.status();
    }
    INodeId dst_parent_id = dst_parent_resolved->target().id;
    INodeRec* dst_parent = fetch(dst_parent_id);
    assert(dst_parent != nullptr);
    if (!dst_parent->is_dir()) {
        return Status::failed_precondition("destination parent not a dir");
    }
    std::string_view dst_name = path::basename_view(dst);
    if (lookup_child(dst_parent_id, dst_name) != kInvalidId) {
        return Status::already_exists(describe("destination exists: ", dst));
    }
    // The entry being moved is (traversed dir, final component of src) —
    // see remove() for why this may differ from the inode's primary.
    INodeId src_parent_id = resolved->chain[resolved->chain.size() - 2].id;
    uint32_t src_name_id = names_.find(path::basename_view(src));
    INodeRec* src_parent = fetch(src_parent_id);
    assert(src_parent != nullptr);
    if (!rec_access(*src_parent, user, Access::kWrite) ||
        !rec_access(*dst_parent, user, Access::kWrite)) {
        return Status::permission_denied("no write for rename");
    }
    if (is_ancestor(target.id, dst_parent_id)) {
        return Status::invalid_argument("cannot move under itself");
    }

    dir_table(*src_parent).erase_key(src_name_id);
    src_parent->mtime = now;
    ++src_parent->version;
    INodeRec* node = fetch(target.id);  // resident: resolve paged it in
    assert(node != nullptr);
    uint32_t dst_name_id = names_.intern(dst_name);
    dir_table(*dst_parent).insert(dst_name_id, node->id);
    auto lit = links_.find(node->id);
    if (lit != links_.end()) {
        for (LinkRef& ref : lit->second) {
            if (ref.parent == src_parent_id && ref.name == src_name_id) {
                ref = {dst_parent_id, dst_name_id};
                break;
            }
        }
    }
    // Re-point the primary unless a *secondary* link of a multi-link
    // file moved (the primary entry still exists unchanged).
    bool was_primary =
        node->parent == src_parent_id && node->name_id == src_name_id;
    if (was_primary || lit == links_.end()) {
        meta_bytes_ += dst_name.size();
        meta_bytes_ -= names_.name(node->name_id).size();
        node->parent = dst_parent_id;
        node->name_id = dst_name_id;
    }
    node->mtime = now;
    ++node->version;
    dst_parent->mtime = now;
    ++dst_parent->version;
    return Status::make_ok();
}

StatusOr<INode>
NamespaceTree::link(std::string_view src, std::string_view dst,
                    const UserContext& user, sim::SimTime now)
{
    OpScope scope(this);
    if (!path::is_valid(src) || !path::is_valid(dst) || src == "/" ||
        dst == "/") {
        return Status::invalid_argument("bad link: " + std::string(src) +
                                        " -> " + std::string(dst));
    }
    // No-follow: link(symlink, ...) would alias the link object itself,
    // which we reject below (files only, as HDFS/3FS do).
    auto resolved = resolve(src, user, Follow::kNoFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    const INode& target = resolved->target();
    if (!target.is_file()) {
        return Status::failed_precondition(
            describe("hard link target not a file: ", src));
    }
    auto parent = resolve_mutable_parent(dst, user);
    if (!parent.ok()) {
        return parent.status();
    }
    std::string_view name = path::basename_view(dst);
    if (lookup_child((*parent)->id, name) != kInvalidId) {
        return Status::already_exists(describe("exists: ", dst));
    }
    INodeRec* node = fetch(target.id);  // resident: resolve paged it in
    assert(node != nullptr);
    uint32_t name_id = names_.intern(name);
    auto& refs = links_[node->id];
    if (refs.empty()) {
        // First extra link: register the primary entry too.
        refs.push_back({node->parent, node->name_id});
    }
    refs.push_back({(*parent)->id, name_id});
    dir_table(**parent).insert(name_id, node->id);
    ++node->nlink;
    node->ctime = now;
    ++node->version;
    (*parent)->mtime = now;
    ++(*parent)->version;
    return materialize(*node);
}

StatusOr<INode>
NamespaceTree::symlink(std::string_view link_path, std::string_view target,
                       const UserContext& user, sim::SimTime now)
{
    OpScope scope(this);
    if (!path::is_valid(link_path) || link_path == "/") {
        return Status::invalid_argument(describe("bad path: ", link_path));
    }
    if (!path::is_valid(target)) {
        return Status::invalid_argument(
            describe("symlink target must be an absolute path: ", target));
    }
    auto parent = resolve_mutable_parent(link_path, user);
    if (!parent.ok()) {
        return parent.status();
    }
    std::string_view name = path::basename_view(link_path);
    if (lookup_child((*parent)->id, name) != kInvalidId) {
        return Status::already_exists(describe("exists: ", link_path));
    }
    INodeRec& node =
        add_node((*parent)->id, name, INodeType::kSymlink, user, now);
    std::string normalized = path::normalize(target);
    node.aux = targets_.intern(normalized);
    meta_bytes_ += normalized.size();
    return materialize(node);
}

StatusOr<INode>
NamespaceTree::setattr(std::string_view p, const AttrUpdate& update,
                       const UserContext& user, sim::SimTime now)
{
    OpScope scope(this);
    auto resolved = resolve(p, user, Follow::kFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    INodeRec* node = fetch(resolved->target().id);
    assert(node != nullptr);
    if (!user.is_superuser() && user.uid != node->owner) {
        return Status::permission_denied(describe("not the owner of ", p));
    }
    if ((update.mask & (AttrUpdate::kOwner | AttrUpdate::kGroup)) != 0 &&
        !user.is_superuser()) {
        return Status::permission_denied("only the superuser may chown");
    }
    if ((update.mask & AttrUpdate::kMode) != 0) {
        node->mode = update.mode;
    }
    if ((update.mask & AttrUpdate::kOwner) != 0) {
        node->owner = update.owner;
    }
    if ((update.mask & AttrUpdate::kGroup) != 0) {
        node->group = update.group;
    }
    if ((update.mask & AttrUpdate::kTimes) != 0) {
        node->mtime = update.mtime;
    }
    node->ctime = now;
    ++node->version;
    return materialize(*node);
}

// ----------------------------------------------------------------------
// Sessions, orphans, GC
// ----------------------------------------------------------------------

StatusOr<INode>
NamespaceTree::open_session(std::string_view p, uint64_t session_id,
                            sim::SimTime expiry, const UserContext& user)
{
    OpScope scope(this);
    if (sessions_.find(session_id) != sessions_.end()) {
        return Status::already_exists("session already open: " +
                                      std::to_string(session_id));
    }
    auto resolved = resolve(p, user, Follow::kFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    const INode& target = resolved->target();
    if (!target.is_file()) {
        return Status::failed_precondition(describe("not a file: ", p));
    }
    if (!check_access(target, user, Access::kRead)) {
        return Status::permission_denied(describe("no read on ", p));
    }
    sessions_[session_id] = {session_id, target.id, expiry};
    ++open_counts_[target.id];
    return target;
}

StatusOr<int64_t>
NamespaceTree::close_session(uint64_t session_id, sim::SimTime now)
{
    OpScope scope(this);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
        return Status::not_found("no such session: " +
                                 std::to_string(session_id));
    }
    INodeId id = it->second.inode;
    sessions_.erase(it);
    auto oc = open_counts_.find(id);
    if (oc != open_counts_.end() && --oc->second <= 0) {
        open_counts_.erase(oc);
        if (orphans_.erase(id) > 0) {
            // Last holder of an unlinked inode: reclaim it now.
            reclaim_inode(id);
            (void)now;
            return 1;
        }
    }
    return 0;
}

NamespaceTree::GcResult
NamespaceTree::gc_prune(sim::SimTime now)
{
    OpScope scope(this);
    GcResult out;
    // Sorted sweep so reclaim order is independent of hash-map layout.
    std::vector<uint64_t> expired;
    for (const auto& [sid, session] : sessions_) {
        if (session.expiry <= now) {
            expired.push_back(sid);
        }
    }
    std::sort(expired.begin(), expired.end());
    for (uint64_t sid : expired) {
        auto closed = close_session(sid, now);
        ++out.expired_sessions;
        out.reclaimed += closed.ok() ? *closed : 0;
    }
    // Crashed-session leftovers: orphans nothing holds open any more.
    for (auto it = orphans_.begin(); it != orphans_.end();) {
        if (open_count(*it) == 0) {
            reclaim_inode(*it);
            ++out.reclaimed;
            it = orphans_.erase(it);
        } else {
            ++it;
        }
    }
    return out;
}

FsStats
NamespaceTree::statfs() const
{
    FsStats stats;
    stats.inodes = static_cast<int64_t>(inode_count());
    stats.files = files_;
    stats.dirs = dirs_;
    stats.symlinks = symlinks_;
    stats.open_sessions = static_cast<int64_t>(sessions_.size());
    stats.orphans = static_cast<int64_t>(orphans_.size());
    stats.metadata_bytes = static_cast<int64_t>(meta_bytes_);
    return stats;
}

std::vector<INodeId>
NamespaceTree::orphan_ids() const
{
    return {orphans_.begin(), orphans_.end()};
}

std::vector<NamespaceTree::SessionView>
NamespaceTree::sessions() const
{
    std::vector<SessionView> out;
    out.reserve(sessions_.size());
    for (const auto& [sid, session] : sessions_) {
        out.push_back(session);
    }
    std::sort(out.begin(), out.end(),
              [](const SessionView& a, const SessionView& b) {
                  return a.id < b.id;
              });
    return out;
}

// ----------------------------------------------------------------------
// Introspection
// ----------------------------------------------------------------------

const INode*
NamespaceTree::get(INodeId id) const
{
    INodeRec rec;
    if (!read_any(id, &rec)) {
        return nullptr;
    }
    INode& view = scratch_[scratch_next_++ % scratch_.size()];
    view = materialize(rec);
    return &view;
}

INodeId
NamespaceTree::lookup_child(INodeId parent, std::string_view name) const
{
    // Unseen name: no directory anywhere contains it.
    uint32_t name_id = names_.find(name);
    if (name_id == NameTable::kNoName) {
        return kInvalidId;
    }
    const INodeRec* rec = resident_ptr(parent);
    if (rec == nullptr || !rec->is_dir()) {
        return kInvalidId;
    }
    return dir_table(*rec).find_exact(name_id);
}

std::vector<INodeId>
NamespaceTree::children(INodeId dir) const
{
    std::vector<std::pair<std::string_view, INodeId>> named;
    const INodeRec* rec = resident_ptr(dir);
    if (rec != nullptr && rec->is_dir()) {
        const DirTable& tab = dir_table(*rec);
        named.reserve(tab.size());
        for (const DirTable::Slot& s : tab.slots()) {
            if (s.value != kInvalidId) {
                named.emplace_back(
                    names_.name(static_cast<uint32_t>(s.key)), s.value);
            }
        }
    }
    // By-name order, matching the sorted child maps this replaced.
    std::sort(named.begin(), named.end());
    std::vector<INodeId> out;
    out.reserve(named.size());
    for (const auto& [name, id] : named) {
        out.push_back(id);
    }
    return out;
}

StatusOr<int64_t>
NamespaceTree::subtree_size(std::string_view p, const UserContext& user) const
{
    // No-follow, matching remove/rename: subtree ops act on the entry
    // itself, so sizing a final symlink must count the link (1 row),
    // not the target's subtree — and must not fail on a dangling link.
    auto resolved = resolve(p, user, Follow::kNoFinal);
    if (!resolved.ok()) {
        return resolved.status();
    }
    int64_t count = 0;
    std::vector<INodeId> stack{resolved->target().id};
    while (!stack.empty()) {
        INodeId id = stack.back();
        stack.pop_back();
        ++count;
        for (INodeId c : children(id)) {
            stack.push_back(c);
        }
    }
    return count;
}

std::string
NamespaceTree::full_path(INodeId id) const
{
    if (id == kRootId) {
        return "/";
    }
    std::vector<uint32_t> comps;
    for (INodeId cur = id; cur != kInvalidId && cur != kRootId;) {
        INodeRec rec;
        if (!read_any(cur, &rec)) {
            return "";
        }
        comps.push_back(rec.name_id);
        cur = rec.parent;
    }
    std::string out;
    for (auto it = comps.rbegin(); it != comps.rend(); ++it) {
        out += '/';
        out += names_.name(*it);
    }
    return out;
}

}  // namespace lfs::ns
