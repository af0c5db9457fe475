#include "src/cache/metadata_cache.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::cache {

namespace {

/** Heap bytes behind @p s (0 while it fits the small-string buffer). */
size_t
heap_bytes(const std::string& s)
{
    static const size_t kInline = std::string().capacity();
    return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

/**
 * Set @p out to "@p dir/@p comp" (@p dir empty for the root). A string
 * that must grow is rebuilt at exactly the needed capacity: growing in
 * place would double it, and every cached node holds one.
 */
void
set_child_path(std::string& out, std::string_view dir, std::string_view comp)
{
    const size_t len = dir.size() + 1 + comp.size();
    if (out.capacity() < len) {
        out = std::string(len, '/');
    } else {
        out.resize(len);
    }
    char* p = out.data();
    std::copy(dir.begin(), dir.end(), p);
    p[dir.size()] = '/';
    std::copy(comp.begin(), comp.end(), p + dir.size() + 1);
}

}  // namespace

MetadataCache::MetadataCache(CacheConfig config) : config_(config)
{
    nodes_.emplace_back();  // kRoot
}

MetadataCache::~MetadataCache() = default;

uint32_t
MetadataCache::find(std::string_view p, uint64_t key) const
{
    if (key == path::kRootKey && path::is_root(p)) {
        return kRoot;
    }
    // One probe; the exact check compares the stored normalized path,
    // bytes first (the probed spelling is normally normalized already).
    const uint32_t hit = edges_.find(key, [&](uint32_t i) {
        const std::string& stored = nodes_[i].path;
        return stored == p || path::same(stored, p);
    });
    return hit == kRoot ? kNil : hit;  // kRoot is the empty-slot sentinel
}

uint32_t
MetadataCache::child_or_create(uint32_t parent, std::string_view comp,
                               uint64_t key)
{
    const uint32_t hit = edges_.find(key, [&](uint32_t i) {
        return nodes_[i].parent == parent && nodes_[i].name() == comp;
    });
    if (hit != kRoot) {
        return hit;
    }
    uint32_t idx = free_head_;
    if (idx != kNil) {
        free_head_ = nodes_[idx].next_sibling;
    } else {
        idx = static_cast<uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    Node& node = nodes_[idx];
    Node& up = nodes_[parent];
    node.parent = parent;
    node.first_child = kNil;
    const size_t dir_len = parent == kRoot ? 0 : up.path.size();
    set_child_path(node.path, std::string_view(up.path).substr(0, dir_len),
                   comp);
    node.name_off = static_cast<uint32_t>(dir_len + 1);
    node.prev_sibling = kNil;
    node.next_sibling = up.first_child;
    if (up.first_child != kNil) {
        nodes_[up.first_child].prev_sibling = idx;
    }
    up.first_child = idx;
    node.key = key;
    edges_.insert(key, idx);
    return idx;
}

uint32_t
MetadataCache::child_or_create(uint32_t parent, std::string_view comp)
{
    return child_or_create(
        parent, comp,
        path::child_key(nodes_[parent].key, parent == kRoot, comp));
}

uint32_t
MetadataCache::find_or_create(std::string_view p)
{
    uint32_t cur = kRoot;
    for (std::string_view comp : path::PathView(p)) {
        cur = child_or_create(cur, comp);
    }
    return cur;
}

void
MetadataCache::release_node(uint32_t idx)
{
    // Only valueless leaves are released; the path keeps its capacity
    // for the slot's next tenant.
    Node& node = nodes_[idx];
    assert(idx != kRoot && !node.value.has_value() &&
           node.first_child == kNil);
    edges_.erase(node.key, idx);
    if (node.prev_sibling != kNil) {
        nodes_[node.prev_sibling].next_sibling = node.next_sibling;
    } else {
        nodes_[node.parent].first_child = node.next_sibling;
    }
    if (node.next_sibling != kNil) {
        nodes_[node.next_sibling].prev_sibling = node.prev_sibling;
    }
    node.parent = kNil;
    node.next_sibling = free_head_;
    free_head_ = idx;
}

void
MetadataCache::lru_push_front(uint32_t idx)
{
    Node& node = nodes_[idx];
    node.lru_prev = kNil;
    node.lru_next = lru_head_;
    if (lru_head_ != kNil) {
        nodes_[lru_head_].lru_prev = idx;
    }
    lru_head_ = idx;
    if (lru_tail_ == kNil) {
        lru_tail_ = idx;
    }
}

void
MetadataCache::lru_unlink(uint32_t idx)
{
    Node& node = nodes_[idx];
    if (node.lru_prev != kNil) {
        nodes_[node.lru_prev].lru_next = node.lru_next;
    } else if (lru_head_ == idx) {
        lru_head_ = node.lru_next;
    }
    if (node.lru_next != kNil) {
        nodes_[node.lru_next].lru_prev = node.lru_prev;
    } else if (lru_tail_ == idx) {
        lru_tail_ = node.lru_prev;
    }
    node.lru_prev = kNil;
    node.lru_next = kNil;
}

void
MetadataCache::set_value(uint32_t idx, const ns::INode& inode)
{
    Node& node = nodes_[idx];
    if (node.value.has_value()) {
        bytes_ -= node.value_bytes;
        lru_unlink(idx);
    } else {
        ++entries_;
    }
    node.value = inode;
    node.value_bytes = static_cast<uint32_t>(inode.metadata_bytes());
    bytes_ += node.value_bytes;
    lru_push_front(idx);
}

void
MetadataCache::drop_value(uint32_t idx, bool count_as_invalidation)
{
    Node& node = nodes_[idx];
    if (!node.value.has_value()) {
        return;
    }
    bytes_ -= node.value_bytes;
    --entries_;
    lru_unlink(idx);
    node.value.reset();
    node.value_bytes = 0;
    if (count_as_invalidation) {
        invalidations_.add();
    }
}

void
MetadataCache::prune(uint32_t idx)
{
    // Remove now-empty nodes bottom-up (never the root).
    while (idx != kRoot && !nodes_[idx].value.has_value() &&
           nodes_[idx].first_child == kNil) {
        const uint32_t parent = nodes_[idx].parent;
        release_node(idx);
        idx = parent;
    }
}

void
MetadataCache::evict_until_within_budget()
{
    while (bytes_ > config_.capacity_bytes && lru_tail_ != kNil) {
        const uint32_t victim = lru_tail_;
        drop_value(victim, /*count_as_invalidation=*/false);
        evictions_.add();
        prune(victim);
    }
}

void
MetadataCache::put(std::string_view p, const ns::INode& inode)
{
    put(p, path::keys(p), inode);
}

void
MetadataCache::put(std::string_view p, const path::PathKeys& keys,
                   const ns::INode& inode)
{
    if (config_.capacity_bytes == 0) {
        return;
    }
    // Multi-link inodes are never cached: the coherence protocols key
    // invalidations by path, and a write through one alias could not
    // find entries cached under another. link() itself invalidates the
    // existing entries, and this guard keeps aliases out afterwards.
    if (inode.nlink > 1) {
        return;
    }
    // Refreshing a cached path takes one probe, and a new entry under a
    // cached directory one more; deeper gaps descend from the root.
    uint32_t idx = find(p, keys.self);
    if (idx == kNil) {
        const uint32_t dir = find(path::parent_view(p), keys.parent);
        idx = dir != kNil
                  ? child_or_create(dir, path::basename_view(p), keys.self)
                  : find_or_create(p);
    }
    set_value(idx, inode);
    evict_until_within_budget();
}

void
MetadataCache::put_chain(const std::vector<ns::INode>& chain)
{
    if (config_.capacity_bytes == 0) {
        return;
    }
    // Chains arrive normalized root-first: descend the trie one component
    // per chain entry directly — no path strings are ever assembled.
    uint32_t cur = kRoot;
    for (const ns::INode& inode : chain) {
        if (inode.id != ns::kRootId) {
            cur = child_or_create(cur, inode.name);
        }
        if (inode.nlink > 1) {
            continue;  // see put(): aliases defeat path-keyed INV
        }
        set_value(cur, inode);
    }
    evict_until_within_budget();
}

void
MetadataCache::step(ChainWalk& walk, const ns::INode& inode)
{
    if (inode.id == ns::kRootId) {
        return;  // the root entry names "/" itself
    }
    walk.parent_key = walk.key;
    walk.key = path::child_key(walk.key, walk.depth == 0, inode.name);
    ++walk.depth;
    walk.node = child_or_create(walk.node, inode.name, walk.key);
}

void
MetadataCache::install_guarded(ChainWalk& walk,
                               const std::vector<ns::INode>& chain,
                               const ns::INode& inode, ReadToken token)
{
    if (invalidated_since(nodes_[walk.node].path, walk.key, walk.depth,
                          token)) {
        guard_rejections_.add();
        return;
    }
    if (config_.capacity_bytes == 0 || inode.nlink > 1) {
        return;  // see put()
    }
    set_value(walk.node, inode);
    evict_until_within_budget();
    if (walk.node != kRoot && nodes_[walk.node].parent == kNil) {
        // The entry alone outgrew the budget: eviction dropped it and
        // pruned its valueless ancestors. Rebuild the path for the
        // entries below it.
        walk.node = kRoot;
        for (const ns::INode& up : chain) {
            if (up.id != ns::kRootId) {
                walk.node = child_or_create(walk.node, up.name);
            }
            if (&up == &inode) {
                break;
            }
        }
    }
}

std::optional<ns::INode>
MetadataCache::get(std::string_view p)
{
    return get(p, path::keys(p).self);
}

std::optional<ns::INode>
MetadataCache::get(std::string_view p, uint64_t key)
{
    const uint32_t idx = find(p, key);
    if (idx == kNil || !nodes_[idx].value.has_value()) {
        misses_.add();
        return std::nullopt;
    }
    hits_.add();
    if (lru_head_ != idx) {
        lru_unlink(idx);
        lru_push_front(idx);
    }
    return nodes_[idx].value;
}

bool
MetadataCache::contains(std::string_view p) const
{
    return contains(p, path::keys(p).self);
}

bool
MetadataCache::contains(std::string_view p, uint64_t key) const
{
    const uint32_t idx = find(p, key);
    return idx != kNil && nodes_[idx].value.has_value();
}

void
MetadataCache::invalidate(std::string_view p)
{
    invalidate(p, path::keys(p).self);
}

void
MetadataCache::invalidate(std::string_view p, uint64_t key)
{
    // Log even when nothing is cached at p: an in-flight read may be
    // about to install exactly this path, and the invalidation must win.
    log_invalidation(p, key, /*prefix=*/false);
    const uint32_t idx = find(p, key);
    if (idx == kNil) {
        return;
    }
    drop_value(idx, /*count_as_invalidation=*/true);
    prune(idx);
}

int64_t
MetadataCache::drop_subtree(uint32_t top)
{
    // Post-order over the sibling links: descend to a leaf, drop its
    // value, release it, and climb back to its parent — which then
    // descends into its next remaining child. @p top itself loses its
    // value but keeps its node (the caller prunes it).
    int64_t dropped = 0;
    uint32_t cur = top;
    for (;;) {
        if (nodes_[cur].first_child != kNil) {
            cur = nodes_[cur].first_child;
            continue;
        }
        if (nodes_[cur].value.has_value()) {
            drop_value(cur, /*count_as_invalidation=*/true);
            ++dropped;
        }
        if (cur == top) {
            return dropped;
        }
        const uint32_t parent = nodes_[cur].parent;
        release_node(cur);
        cur = parent;
    }
}

int64_t
MetadataCache::invalidate_prefix(std::string_view prefix)
{
    return invalidate_prefix(prefix, path::keys(prefix).self);
}

int64_t
MetadataCache::invalidate_prefix(std::string_view prefix, uint64_t key)
{
    log_invalidation(prefix, key, /*prefix=*/true);
    const uint32_t idx = find(prefix, key);
    if (idx == kNil) {
        return 0;
    }
    const int64_t dropped = drop_subtree(idx);
    prune(idx);
    return dropped;
}

void
MetadataCache::clear()
{
    invalidate_prefix("/", path::kRootKey);
}

size_t
MetadataCache::resident_bytes() const
{
    size_t total = nodes_.capacity() * sizeof(Node) +
                   edges_.capacity_bytes() +
                   active_reads_.capacity() * sizeof(ReadSnapshot) +
                   inv_log_.slots().size() * sizeof(InvLogEntry);
    for (const Node& node : nodes_) {
        total += heap_bytes(node.path);
    }
    for (const InvLogEntry& entry : inv_log_.slots()) {
        total += heap_bytes(entry.path);
    }
    return total;
}

MetadataCache::ReadToken
MetadataCache::begin_read()
{
    if (active_reads_.empty() || active_reads_.back().seq != inv_seq_) {
        active_reads_.push_back(ReadSnapshot{inv_seq_, 0});
    }
    ++active_reads_.back().readers;
    return inv_seq_;
}

void
MetadataCache::end_read(ReadToken token)
{
    // Snapshots are sorted by seq. Fully released ones retire from the
    // front only: an inner one stays as a zero-reader placeholder until
    // it reaches the front.
    auto it = std::lower_bound(
        active_reads_.begin(), active_reads_.end(), token,
        [](const ReadSnapshot& s, uint64_t seq) { return s.seq < seq; });
    if (it != active_reads_.end() && it->seq == token && it->readers > 0) {
        --it->readers;
    }
    active_reads_.erase(
        active_reads_.begin(),
        std::find_if(active_reads_.begin(), active_reads_.end(),
                     [](const ReadSnapshot& s) { return s.readers > 0; }));
    if (active_reads_.empty()) {
        inv_log_.clear();
        return;
    }
    // Entries at or before the oldest active snapshot can no longer
    // affect any reader.
    const uint64_t oldest = active_reads_.front().seq;
    while (!inv_log_.empty() && inv_log_.front().seq <= oldest) {
        inv_log_.pop_front();
    }
}

void
MetadataCache::put_guarded(std::string_view p, const ns::INode& inode,
                           ReadToken token)
{
    const path::PathKeys k = path::keys(p);
    if (invalidated_since(p, k.self, k.depth, token)) {
        guard_rejections_.add();
        return;
    }
    put(p, k, inode);
}

void
MetadataCache::log_invalidation(std::string_view p, uint64_t key,
                                bool prefix)
{
    ++inv_seq_;
    if (active_reads_.empty()) {
        return;
    }
    // The invalidated path may never have been cached, yet a racing
    // install of exactly that path must still match, so the log keeps its
    // key and bytes. assign() reuses the recycled slot's capacity.
    InvLogEntry& entry = inv_log_.push_back();
    entry.seq = inv_seq_;
    entry.key = key;
    entry.path.assign(p);
    entry.depth = path::depth(p);
    entry.prefix = prefix;
}

bool
MetadataCache::invalidated_since(std::string_view p, uint64_t key, int depth,
                                 ReadToken token) const
{
    // Allocation-free (the log is consulted per install): a point entry
    // matches p iff their keys and then their components are equal, a
    // prefix entry iff p is at or under it, component-wise.
    for (size_t i = 0; i < inv_log_.size(); ++i) {
        const InvLogEntry& entry = inv_log_[i];
        if (entry.seq <= token) {
            continue;
        }
        if (entry.prefix ? entry.depth <= depth &&
                               path::is_under(p, entry.path)
                         : entry.key == key && path::same(entry.path, p)) {
            return true;
        }
    }
    return false;
}

double
MetadataCache::hit_rate() const
{
    uint64_t total = hits_.value() + misses_.value();
    return total ? static_cast<double>(hits_.value()) /
                       static_cast<double>(total)
                 : 0.0;
}

}  // namespace lfs::cache
