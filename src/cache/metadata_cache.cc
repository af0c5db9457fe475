#include "src/cache/metadata_cache.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::cache {

namespace {

/** Edge-table key of component hash @p h under arena index @p parent:
    the parent in the high half, the folded hash in the low half. Equal
    keys thus imply equal parents, so a probe verifies the spelling only.
    ChildTable finalizes keys before placement. */
uint64_t
edge_key(uint32_t parent, uint64_t h)
{
    return (static_cast<uint64_t>(parent) << 32) |
           static_cast<uint32_t>(h ^ (h >> 32));
}

/** Heap bytes behind @p s (0 while it fits the small-string buffer). */
size_t
heap_bytes(const std::string& s)
{
    static const size_t kInline = std::string().capacity();
    return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

}  // namespace

MetadataCache::MetadataCache(CacheConfig config) : config_(config)
{
    nodes_.emplace_back();  // kRoot
}

MetadataCache::~MetadataCache() = default;

uint32_t
MetadataCache::find(std::string_view p) const
{
    uint32_t cur = kRoot;
    for (std::string_view comp : path::PathView(p)) {
        const uint32_t next =
            edges_.find(edge_key(cur, fnv1a(comp)),
                        [&](uint32_t i) { return nodes_[i].name == comp; });
        if (next == kRoot) {  // the empty-slot sentinel: no such child
            return kNil;
        }
        cur = next;
    }
    return cur;
}

uint32_t
MetadataCache::child_or_create(uint32_t parent, std::string_view comp)
{
    const uint64_t key = edge_key(parent, fnv1a(comp));
    const uint32_t hit =
        edges_.find(key, [&](uint32_t i) { return nodes_[i].name == comp; });
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
    node.name.assign(comp);
    node.prev_sibling = kNil;
    node.next_sibling = up.first_child;
    if (up.first_child != kNil) {
        nodes_[up.first_child].prev_sibling = idx;
    }
    up.first_child = idx;
    node.edge_key = key;
    edges_.insert(key, idx);
    return idx;
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
    // Only valueless leaves are released; the spelling keeps its
    // capacity for the slot's next tenant.
    Node& node = nodes_[idx];
    assert(idx != kRoot && !node.value.has_value() &&
           node.first_child == kNil);
    edges_.erase(node.edge_key, idx);
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
    node.value_bytes = inode.metadata_bytes();
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
    set_value(find_or_create(p), inode);
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

std::optional<ns::INode>
MetadataCache::get(std::string_view p)
{
    const uint32_t idx = find(p);
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
    const uint32_t idx = find(p);
    return idx != kNil && nodes_[idx].value.has_value();
}

void
MetadataCache::invalidate(std::string_view p)
{
    // Log even when nothing is cached at p: an in-flight read may be
    // about to install exactly this path, and the invalidation must win.
    log_invalidation(p, /*prefix=*/false);
    const uint32_t idx = find(p);
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
    log_invalidation(prefix, /*prefix=*/true);
    const uint32_t idx = find(prefix);
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
    invalidate_prefix("/");
}

size_t
MetadataCache::resident_bytes() const
{
    size_t total = nodes_.capacity() * sizeof(Node) +
                   edges_.capacity_bytes() +
                   active_reads_.capacity() * sizeof(ReadSnapshot) +
                   inv_log_.slots().size() * sizeof(InvLogEntry);
    for (const Node& node : nodes_) {
        total += heap_bytes(node.name);
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
    if (invalidated_since(p, token)) {
        guard_rejections_.add();
        return;
    }
    put(p, inode);
}

void
MetadataCache::log_invalidation(std::string_view p, bool prefix)
{
    ++inv_seq_;
    if (active_reads_.empty()) {
        return;
    }
    // The invalidated path may never have been cached, yet a racing
    // install of exactly that path must still match, so the log keeps its
    // bytes. assign() reuses the recycled slot's capacity.
    InvLogEntry& entry = inv_log_.push_back();
    entry.seq = inv_seq_;
    entry.path.assign(p);
    entry.depth = path::depth(p);
    entry.prefix = prefix;
}

bool
MetadataCache::invalidated_since(std::string_view p, ReadToken token) const
{
    // Component-wise matching (allocation-free; the log is consulted per
    // install): a point entry matches p iff they are equal, a prefix
    // entry iff p is at or under it.
    int depth = -1;
    for (size_t i = 0; i < inv_log_.size(); ++i) {
        const InvLogEntry& entry = inv_log_[i];
        if (entry.seq <= token || !path::is_under(p, entry.path)) {
            continue;
        }
        if (entry.prefix) {
            return true;
        }
        if (depth < 0) {
            depth = path::depth(p);
        }
        if (depth == entry.depth) {
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
