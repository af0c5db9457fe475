/**
 * @file
 * The one implementation of the row-backed systems' op semantics. IndexFS
 * and λIndexFS keep metadata as flat path-keyed rows in LSM stores; both
 * answer every op through apply_row() over a FlatKeyspace, and differ
 * only in how a path reaches its LSM instance and where time goes (server
 * CPU and client leases vs. function compute, caches and coherence).
 *
 * The row family's documented differences from the tree-backed systems
 * (DESIGN.md §12): the keyspace is flat, so creates check no parent and
 * there is no rename or recursive delete; `ls` is a row get of the
 * directory's own row; a read returns a symlink row as is, and chasing it
 * is the caller's job.
 */
#pragma once

#include <optional>
#include <string>

#include "src/indexfs/flat_registry.h"
#include "src/lsm/lsm_tree.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace lfs::indexfs {

/**
 * The state both IndexFS variants share: the row-type and session
 * registries over the whole keyspace (they outlive any one server or
 * function instance) and a mirror NamespaceTree of the logical namespace
 * for workload setup. A variant says where a row lives and what reaching
 * another partition's row costs.
 */
class FlatKeyspace {
  public:
    explicit FlatKeyspace(sim::Simulation& sim) : sim_(sim) {}
    virtual ~FlatKeyspace() = default;

    /** LSM instance storing @p p's row. */
    virtual lsm::LsmTree& lsm_for(const std::string& p) = 0;

    /**
     * Awaited before the node serving an op on @p from writes the row of
     * @p to (a hard link's new name may hash to another partition).
     */
    virtual sim::Task<void> reach(const std::string& from,
                                  const std::string& to) = 0;

    sim::Simulation& simulation() { return sim_; }
    ns::NamespaceTree& mirror() { return mirror_; }
    RowRegistry& rows() { return rows_; }
    SessionRegistry& sessions() { return sessions_; }

    /** Mirror a successful mutation into the logical namespace. */
    void apply_to_mirror(const Op& op);

    /** Untimed preload of an existing path (workload setup). */
    void preload(const std::string& p, ns::INodeType type);

  private:
    sim::Simulation& sim_;
    ns::NamespaceTree mirror_;
    RowRegistry rows_;
    SessionRegistry sessions_;
};

/**
 * The answer a row cache (λIndexFS function cache, IndexFS client lease)
 * holding @p cached gives the read op @p op, or nullopt when it holds
 * nothing that can answer it: a cached symlink row serves lstat, but
 * open-for-read must chase the target. Open-for-read checks read
 * permission like the row get does. The caller stamps its own service
 * time.
 */
std::optional<OpResult> answer_from_row_cache(
    const Op& op, const std::optional<ns::INode>& cached);

/**
 * Apply @p op to @p ks, stamped at @p now: create/mkdir/symlink, delete
 * (orphaning a row sessions hold open), hard link, setattr, session
 * open/close, GC, statfs and the row get behind read/stat/ls. The op's
 * LSM time is stamped as kStoreService, failed ops included, and a
 * successful mutation is mirrored into ks.mirror().
 */
sim::Task<OpResult> apply_row(FlatKeyspace& ks, const Op& op,
                              sim::SimTime now);

}  // namespace lfs::indexfs
