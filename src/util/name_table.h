/**
 * @file
 * Shared flat-hash building blocks for the metadata hot paths: the
 * component-name interner (NameTable) and the open-addressing slot table
 * (ChildTable) that both the namespace's per-directory child maps and the
 * metadata cache's trie edge table are built from (DESIGN.md §10, §14,
 * §15).
 *
 * Both structures share one discipline: a single FNV-1a hash per string,
 * linear probing over contiguous power-of-two slot arrays, no bucket
 * chains, no modulo, and backward-shift deletion so lookups never step
 * over tombstones. They were originally hand-rolled twice (once in
 * namespace_tree.h, once in metadata_cache.cc); this header is the single
 * implementation both layers now use.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/hash.h"

namespace lfs::util {

/** Slot index for key @p h in a table of @p mask + 1 slots. The finalizer
    mix spreads dense integer keys (interned name ids, sequential inode
    ids) uniformly; an identity-like map would pack them into one
    contiguous probe cluster, and backward-shift deletion then scans to
    the cluster's end — O(live keys) per erase. Placement only: stored
    Slot::key values stay raw. */
inline size_t
slot_index64(uint64_t h, size_t mask)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<size_t>(h) & mask;
}

/**
 * Interns component names to dense 32-bit ids. Directory entries store the
 * id; the directory tables compare ids instead of strings, and each name's
 * bytes are stored once no matter how many directories contain it (hot
 * directories in the paper's workloads share names like "part-00000").
 *
 * The name -> id index is an open-addressing table over (hash, id) slots:
 * one FNV-1a hash of the component, a linear probe through contiguous
 * 16-byte slots, and a full-hash compare before the single string verify.
 * No per-lookup allocation, no bucket chains, no modulo — measurably
 * cheaper than an unordered_map on the resolve hot path. Interned
 * spellings live in a deque, so their addresses (and views of them) stay
 * stable across growth.
 */
class NameTable {
  public:
    static constexpr uint32_t kNoName = 0xffffffffu;

    /** Id for @p name, interning it on first sight. */
    uint32_t
    intern(std::string_view name)
    {
        const uint64_t h = fnv1a(name);
        if (!slots_.empty()) {
            for (size_t i = h & mask_;; i = (i + 1) & mask_) {
                const Slot& s = slots_[i];
                if (s.id == kNoName) {
                    break;
                }
                if (s.hash == h && storage_[s.id] == name) {
                    return s.id;
                }
            }
        }
        if ((storage_.size() + 1) * 10 >= slots_.size() * 7) {
            grow();
        }
        uint32_t id = static_cast<uint32_t>(storage_.size());
        storage_.emplace_back(name);  // deque: stable addresses
        bytes_ += name.size();
        size_t i = h & mask_;
        while (slots_[i].id != kNoName) {
            i = (i + 1) & mask_;
        }
        slots_[i] = Slot{h, id};
        return id;
    }

    /** Id for @p name, or kNoName if it was never interned. */
    uint32_t
    find(std::string_view name) const
    {
        if (slots_.empty()) {
            return kNoName;
        }
        const uint64_t h = fnv1a(name);
        for (size_t i = h & mask_;; i = (i + 1) & mask_) {
            const Slot& s = slots_[i];
            if (s.id == kNoName) {
                return kNoName;
            }
            if (s.hash == h && storage_[s.id] == name) {
                return s.id;
            }
        }
    }

    /** The interned spelling of @p id (must be a valid id). */
    const std::string& name(uint32_t id) const { return storage_[id]; }

    size_t size() const { return storage_.size(); }

    /** Resident footprint: slot array plus stored name bytes (the deque's
        per-string object overhead is charged at sizeof(std::string)). */
    size_t
    resident_bytes() const
    {
        return slots_.size() * sizeof(Slot) +
               storage_.size() * sizeof(std::string) + bytes_;
    }

  private:
    struct Slot {
        uint64_t hash = 0;
        uint32_t id = kNoName;  ///< kNoName marks an empty slot
    };

    void grow();

    std::deque<std::string> storage_;  ///< id -> name, addresses stable
    std::vector<Slot> slots_;          ///< open-addressing name index
    size_t mask_ = 0;
    size_t bytes_ = 0;  ///< sum of stored name lengths
};

/**
 * Open-addressing 64-bit-keyed slot table with linear probing, grow at
 * 7/8 load, and backward-shift deletion. The empty-slot sentinel is a
 * value-default V{} (nullptr for pointer payloads, 0 for id payloads), so
 * callers must never insert a default value; keys carry no such
 * restriction.
 *
 * Two key disciplines share this table:
 *  - unique keys (interned name id -> inode id in directory tables, inode
 *    id -> slab slot in the residency index): find_exact()/erase_key();
 *  - hash keys with caller-side verification (whole-path hash -> trie
 *    node index in the metadata cache's edge table, where distinct paths
 *    may collide): find(key, verify)/erase(key, value).
 */
template <class V>
class ChildTable {
  public:
    struct Slot {
        uint64_t key = 0;
        V value = V{};  ///< V{} marks an empty slot
    };

    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    size_t capacity_bytes() const { return slots_.size() * sizeof(Slot); }
    const std::vector<Slot>& slots() const { return slots_; }

    /** Pre-size so @p n inserts trigger no growth. */
    void
    reserve(size_t n)
    {
        size_t cap = slots_.empty() ? 8 : slots_.size();
        while ((n + 1) * 8 >= cap * 7) {
            cap *= 2;
        }
        if (cap > slots_.size()) {
            rehash(cap);
        }
    }

    /** Value for the unique key @p key, or V{} when absent. */
    V
    find_exact(uint64_t key) const
    {
        if (slots_.empty()) {
            return V{};
        }
        const size_t mask = slots_.size() - 1;
        for (size_t i = slot_index64(key, mask);; i = (i + 1) & mask) {
            const Slot& s = slots_[i];
            if (s.value == V{}) {
                return V{};
            }
            if (s.key == key) {
                return s.value;
            }
        }
    }

    /**
     * First value whose slot key equals @p key and whose payload passes
     * @p verify (hash-keyed use: the verify closure compares the stored
     * spelling). Returns V{} when no slot matches.
     */
    template <class Verify>
    V
    find(uint64_t key, Verify&& verify) const
    {
        if (slots_.empty()) {
            return V{};
        }
        const size_t mask = slots_.size() - 1;
        for (size_t i = slot_index64(key, mask);; i = (i + 1) & mask) {
            const Slot& s = slots_[i];
            if (s.value == V{}) {
                return V{};
            }
            if (s.key == key && verify(s.value)) {
                return s.value;
            }
        }
    }

    /** Insert (@p key, @p value); the caller guarantees the entry is not
        already present (unique keys) or accepts duplicates (hash keys). */
    void
    insert(uint64_t key, V value)
    {
        assert(!(value == V{}) && "default value is the empty sentinel");
        if ((count_ + 1) * 8 >= slots_.size() * 7) {
            rehash(slots_.empty() ? 8 : slots_.size() * 2);
        }
        const size_t mask = slots_.size() - 1;
        size_t i = slot_index64(key, mask);
        while (!(slots_[i].value == V{})) {
            i = (i + 1) & mask;
        }
        slots_[i] = Slot{key, value};
        ++count_;
    }

    /** Remove the slot holding exactly (@p key, @p value). @return false
        when absent. */
    bool
    erase(uint64_t key, const V& value)
    {
        if (slots_.empty()) {
            return false;
        }
        const size_t mask = slots_.size() - 1;
        for (size_t i = slot_index64(key, mask);; i = (i + 1) & mask) {
            if (slots_[i].value == V{}) {
                return false;
            }
            if (slots_[i].key == key && slots_[i].value == value) {
                erase_at(i, mask);
                return true;
            }
        }
    }

    /** Remove the slot holding the unique key @p key. @return false when
        absent. */
    bool
    erase_key(uint64_t key)
    {
        if (slots_.empty()) {
            return false;
        }
        const size_t mask = slots_.size() - 1;
        for (size_t i = slot_index64(key, mask);; i = (i + 1) & mask) {
            if (slots_[i].value == V{}) {
                return false;
            }
            if (slots_[i].key == key) {
                erase_at(i, mask);
                return true;
            }
        }
    }

    void
    clear()
    {
        slots_.clear();
        count_ = 0;
    }

  private:
    void
    rehash(size_t cap)
    {
        std::vector<Slot> next(cap);
        const size_t mask = cap - 1;
        for (const Slot& s : slots_) {
            if (s.value == V{}) {
                continue;
            }
            size_t i = slot_index64(s.key, mask);
            while (!(next[i].value == V{})) {
                i = (i + 1) & mask;
            }
            next[i] = s;
        }
        slots_ = std::move(next);
    }

    /**
     * Backward-shift deletion starting from hole @p i: probe chains stay
     * dense, so lookups need no tombstone checks. A slot may fill the
     * hole iff its home position lies cyclically at or before the hole
     * (else it would become unreachable from its home).
     */
    void
    erase_at(size_t i, size_t mask)
    {
        size_t j = i;
        for (;;) {
            slots_[j] = Slot{};
            size_t k = j;
            for (;;) {
                k = (k + 1) & mask;
                if (slots_[k].value == V{}) {
                    --count_;
                    return;
                }
                size_t home = slot_index64(slots_[k].key, mask);
                if (((k - home) & mask) >= ((k - j) & mask)) {
                    slots_[j] = slots_[k];
                    j = k;
                    break;
                }
            }
        }
    }

    std::vector<Slot> slots_;  ///< power-of-two capacity, empty until insert
    size_t count_ = 0;
};

}  // namespace lfs::util
