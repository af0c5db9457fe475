/**
 * @file
 * File-system path manipulation shared by every layer: normalization,
 * component splitting, parent/basename extraction, and prefix tests (the
 * latter drive subtree invalidations in the coherence protocol).
 *
 * Paths are absolute, '/'-separated, with "/" denoting the root.
 *
 * Hot paths (resolution, the cache trie, lock-set computation) iterate
 * components with PathView — a split-once std::string_view iterator that
 * never allocates. The std::string-returning helpers below are built on it
 * and perform at most the one allocation for their result.
 */
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/hash.h"

namespace lfs::path {

/**
 * Zero-allocation, split-once iterator over the components of a path.
 * Duplicate and trailing slashes are skipped, so iteration order matches
 * split(normalize(p)):
 *
 *   for (std::string_view c : PathView("/a//b/")) use(c);  // "a", "b"
 *
 * The views point into the original buffer, which must outlive them.
 */
class PathView {
  public:
    explicit PathView(std::string_view p) : p_(p) {}

    class iterator {
      public:
        using value_type = std::string_view;
        using difference_type = std::ptrdiff_t;

        std::string_view operator*() const { return comp_; }

        iterator&
        operator++()
        {
            advance();
            return *this;
        }

        bool
        operator==(std::default_sentinel_t) const
        {
            return done_;
        }

      private:
        friend class PathView;

        explicit iterator(std::string_view rest) : rest_(rest) { advance(); }

        void
        advance()
        {
            size_t i = 0;
            while (i < rest_.size() && rest_[i] == '/') {
                ++i;
            }
            size_t start = i;
            while (i < rest_.size() && rest_[i] != '/') {
                ++i;
            }
            if (i == start) {
                done_ = true;
                comp_ = {};
                return;
            }
            comp_ = rest_.substr(start, i - start);
            rest_ = rest_.substr(i);
        }

        std::string_view rest_;
        std::string_view comp_;
        bool done_ = false;
    };

    iterator begin() const { return iterator(p_); }
    std::default_sentinel_t end() const { return {}; }

  private:
    std::string_view p_;
};

/** True if @p p is a syntactically valid absolute path. */
bool is_valid(std::string_view p);

/**
 * Normalize: collapse duplicate '/', drop trailing '/', keep leading '/'.
 * "." and ".." components are rejected upstream by is_valid.
 */
std::string normalize(std::string_view p);

/** Split into components; "/" yields an empty vector. */
std::vector<std::string> split(std::string_view p);

/** Parent directory ("/a/b" -> "/a"; "/a" -> "/"; "/" -> "/"). */
std::string parent(std::string_view p);

/** fnv1a("/"): the key of the root's normalized spelling. */
inline constexpr uint64_t kRootKey = fnv1a("/");

/**
 * Whole-path keys of a path and of its two nearest ancestors: each is the
 * FNV-1a hash of that path's normalized spelling, folded in component by
 * component from one pass over @p p (no string is built). The root's
 * parent is the root, so every key of "/" (and of "/a"'s ancestors) is
 * kRootKey. The partitioner routes on `parent`, the metadata cache
 * probes on `self`. Allocation-free.
 */
struct PathKeys {
    uint64_t self = kRootKey;         ///< fnv1a(normalize(p))
    uint64_t parent = kRootKey;       ///< fnv1a(parent(p))
    uint64_t grandparent = kRootKey;  ///< fnv1a(parent(parent(p)))
    int depth = 0;                    ///< components in p
};

PathKeys keys(std::string_view p);

/**
 * Key of the child @p comp of a directory keyed @p dir (whose path is the
 * root iff @p dir_is_root): fnv1a(join(dir_path, comp)), from the
 * directory's key and the component alone.
 */
inline uint64_t
child_key(uint64_t dir, bool dir_is_root, std::string_view comp)
{
    return fnv1a_mix(dir_is_root ? dir : fnv1a_mix(dir, "/"), comp);
}

/**
 * fnv1a(parent(p)) without building the parent string — keys(p).parent.
 * Byte-identical to hashing parent(p), so it can stand in wherever a
 * parent path is a hash key. Allocation-free.
 */
uint64_t parent_hash(std::string_view p);

/** True if @p a and @p b normalize to the same path ("//a//b/" and
    "/a/b" do; "/ab" and "/a/b" do not). Allocation-free. */
bool same(std::string_view a, std::string_view b);

/** True if @p p names the root (nothing but slashes, or empty). */
bool is_root(std::string_view p);

/**
 * parent without the string copy; views a prefix of @p p (or the static
 * "/"). Not normalized — interior duplicate slashes survive — so use it
 * only with component-wise consumers (PathView walkers like the metadata
 * cache), never as a map key.
 */
std::string_view parent_view(std::string_view p);

/** Final component ("/a/b" -> "b"; "/" -> ""). */
std::string basename(std::string_view p);

/** basename without the string copy; views into @p p. */
std::string_view basename_view(std::string_view p);

/** Join a directory and a child name. */
std::string join(std::string_view dir, std::string_view name);

/** Depth in components ("/" -> 0, "/a/b" -> 2). Allocation-free. */
int depth(std::string_view p);

/**
 * True if @p p equals @p prefix or lies underneath it
 * (is_under("/a/b/c", "/a/b") == true; is_under("/ab", "/a") == false).
 * Compares component-wise; never allocates.
 */
bool is_under(std::string_view p, std::string_view prefix);

/** All ancestor paths from "/" down to parent(p), inclusive. */
std::vector<std::string> ancestors(std::string_view p);

}  // namespace lfs::path
