/**
 * @file
 * λFS namespace partitioning (§3.3): the file-system namespace is divided
 * among n function deployments by consistently hashing the *parent
 * directory* of each path, so all entries of one directory are cached by
 * the same deployment and a single directory read never fans out.
 */
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/hash.h"

namespace lfs::core {

class NamespacePartitioner {
  public:
    /** Partition across deployments 0..n-1. */
    explicit NamespacePartitioner(int num_deployments, int vnodes = 64);

    int deployment_count() const { return num_deployments_; }

    /**
     * Deployment responsible for caching the metadata of @p p — the one
     * hashing its parent directory (normalized, so "/a//b/c" and
     * "/a/b/c" agree). Allocation-free.
     */
    int deployment_for(std::string_view p) const;

    /**
     * deployment_for() of a path whose parent directory has the whole-path
     * key @p parent_key (path::PathKeys::parent): callers that already
     * hashed the path route without hashing it again.
     */
    int
    deployment_for_parent(uint64_t parent_key) const
    {
        return ring_.lookup_hash(mix64(parent_key));
    }

    /** All deployment ids (subtree operations invalidate everywhere). */
    std::vector<int> all_deployments() const;

  private:
    int num_deployments_;
    ConsistentHashRing ring_;
};

}  // namespace lfs::core
