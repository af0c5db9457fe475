/**
 * @file
 * The one implementation of every metadata op's semantics over a
 * NamespaceTree. The tree-backed systems — the NDB-model store behind
 * λFS, HopsFS and InfiniCache, and the CephFS MDS — all answer an op
 * through these functions, so they differ only in where state lives and
 * where time goes (CPU, locks, journal, coherence), never in the answer.
 *
 * None of these functions takes simulated time: callers pay for the work
 * around them.
 */
#pragma once

#include <optional>

#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"

namespace lfs::ns {

/**
 * The answer to the read op @p op (read/stat/ls/statfs) from @p tree.
 * Reads and ls carry the resolved chain (root..target) for callers that
 * install it into a cache; open-for-read needs read permission on the
 * resolved target.
 */
OpResult apply_read(const NamespaceTree& tree, const Op& op);

/** Apply the mutation @p op to @p tree, stamped at @p now. */
OpResult apply_write(NamespaceTree& tree, const Op& op, sim::SimTime now);

/**
 * The answer a metadata cache holding @p cached gives the read op @p op,
 * or nullopt when it holds nothing that can answer it: a cached symlink
 * serves lstat, but follow-ops (read, ls) need the target, which lives
 * under its own canonical path. Open-for-read checks the cached target
 * like apply_read does; `ls` takes its child names from @p tree's
 * directory index. The caller stamps its own service time.
 */
std::optional<OpResult> answer_from_cache(const Op& op,
                                          const std::optional<INode>& cached,
                                          const NamespaceTree& tree);

/** True when answer_from_cache(@p op, @p cached, ...) has an answer. */
bool cache_answers(const Op& op, const std::optional<INode>& cached);

/** answer_from_cache's answer from a @p cached that cache_answers(). */
OpResult answer_cached(const Op& op, const INode& cached,
                       const NamespaceTree& tree);

/**
 * True when @p op must run the subtree protocol: the subtree op types,
 * and a kMv whose source is a directory, since it relocates every
 * descendant path and cached entries under the old prefix must go.
 */
bool needs_subtree_protocol(const NamespaceTree& tree, const Op& op);

}  // namespace lfs::ns
