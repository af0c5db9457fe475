#include "src/cephfs/cephfs.h"

#include <algorithm>
#include <cmath>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::cephfs {

CephClient::CephClient(CephFs& fs, int id, sim::Rng rng)
    : fs_(fs),
      id_(id),
      rng_(rng),
      // Capability entries are inode snapshots; budget the cache by the
      // approximate entry footprint.
      caps_(cache::CacheConfig{
          static_cast<size_t>(fs.config().caps_per_client) * 128})
{
}

void
CephClient::revoke(const std::string& p)
{
    caps_.invalidate(p);
}

sim::Task<OpResult>
CephClient::execute(Op op)
{
    sim::Simulation& sim = fs_.simulation();
    const bool attr = sim.attribution();
    // Capability hit: read served entirely client-side. statfs is
    // never cap-cacheable (global counters); a held symlink cap can
    // satisfy lstat but not open-for-read, which needs the target.
    if (is_read_op(op.type) && op.type != OpType::kLs &&
        op.type != OpType::kStatFs) {
        auto held = caps_.get(op.path);
        if (held.has_value() && held->is_symlink() &&
            op.type == OpType::kReadFile) {
            held.reset();
        }
        if (held.has_value()) {
            sim::SimTime local_start = sim.now();
            co_await sim::delay(fs_.simulation(),
                                fs_.config().client_local_op);
            OpResult result;
            if (attr) {
                // The client IS the metadata service here: the cap-hit
                // lookup is its entire service time.
                result.ledger.add(sim::LatSeg::kNameNodeCpu,
                                  sim.now() - local_start);
            }
            if (op.type == OpType::kReadFile && !held->is_file()) {
                result.status =
                    Status::failed_precondition("not a file: " + op.path);
                co_return result;
            }
            result.status = Status::make_ok();
            result.inode = *held;
            result.cache_hit = true;
            co_return result;
        }
    }
    // Cap miss or mutating op: round trip to the owning MDS. Coarse
    // attribution: everything inside the MDS (CPU queueing, journal
    // append, cap revocation) counts as service compute. The lambda lives
    // in the round's frame until its coroutine finishes.
    OpResult result = co_await fs_.network().client_round(
        [&]() -> sim::Task<OpResult> {
            sim::SimTime start = sim.now();
            OpResult served = co_await fs_.mds_serve(op, this);
            if (attr) {
                served.ledger.add(sim::LatSeg::kNameNodeCpu,
                                  sim.now() - start);
            }
            co_return served;
        });
    if (result.status.ok() && is_read_op(op.type) &&
        op.type != OpType::kLs && op.type != OpType::kStatFs &&
        !result.via_symlink) {
        // A symlink-resolved inode lives at its canonical path; caching
        // it under the alias would dodge revoke_caps on the real path.
        caps_.put(op.path, result.inode);
        fs_.grant_cap(op.path, this);
    }
    co_return result;
}

CephFs::CephFs(sim::Simulation& sim, CephFsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      metrics_(sim.metrics(), config.label)
{
    journal_ = std::make_unique<sim::Semaphore>(
        sim_, config_.journal_concurrency);
    for (int i = 0; i < config_.num_mds; ++i) {
        mds_.push_back(std::make_unique<Mds>(
            sim_,
            std::max<int64_t>(1, std::llround(config_.vcpus_per_mds))));
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(
            std::make_unique<CephClient>(*this, i, rng_.fork()));
    }
}

CephFs::~CephFs() = default;

CephFs::Mds&
CephFs::mds_for(const std::string& p)
{
    // Static approximation of CephFS' dynamic subtree partitioning:
    // directories pin to MDS ranks by parent-path hash.
    size_t idx = mix64(fnv1a(path::parent(p))) % mds_.size();
    return *mds_[idx];
}

void
CephFs::grant_cap(const std::string& p, CephClient* client)
{
    cap_holders_[p].insert(client);
}

void
CephFs::revoke_caps(const std::string& p)
{
    auto it = cap_holders_.find(p);
    if (it == cap_holders_.end()) {
        return;
    }
    for (CephClient* holder : it->second) {
        holder->revoke(p);
    }
    cap_holders_.erase(it);
}

sim::Task<OpResult>
CephFs::mds_serve(Op op, CephClient* requester)
{
    (void)requester;
    Mds& mds = mds_for(op.path);
    co_await mds.cpu.acquire();
    co_await sim::delay(sim_, is_read_op(op.type) ? config_.read_cpu
                                                  : config_.write_cpu);
    mds.cpu.release();

    OpResult result;
    if (is_read_op(op.type)) {
        switch (op.type) {
          case OpType::kReadFile: {
            auto resolved = tree_.resolve(op.path, op.user);
            if (!resolved.ok()) {
                result.status = resolved.status();
                co_return result;
            }
            if (!resolved->target().is_file()) {
                result.status =
                    Status::failed_precondition("not a file: " + op.path);
                co_return result;
            }
            if (!ns::check_access(resolved->target(), op.user,
                                  ns::Access::kRead)) {
                result.status =
                    Status::permission_denied("no read on " + op.path);
                co_return result;
            }
            result.inode = resolved->target();
            result.via_symlink = resolved->via_symlink;
            break;
          }
          case OpType::kStat: {
            auto resolved =
                tree_.resolve(op.path, op.user, ns::Follow::kNoFinal);
            if (!resolved.ok()) {
                result.status = resolved.status();
                co_return result;
            }
            result.inode = resolved->target();
            result.via_symlink = resolved->via_symlink;
            break;
          }
          case OpType::kStatFs: {
            result.stats = tree_.statfs();
            result.inode = *tree_.get(ns::kRootId);
            break;
          }
          default: {  // kLs
            auto listed = tree_.list(op.path, op.user);
            if (!listed.ok()) {
                result.status = listed.status();
                co_return result;
            }
            result.children = listed.take();
            break;
          }
        }
        result.status = Status::make_ok();
        co_return result;
    }

    // Mutations: revoke outstanding capabilities, append to the shared
    // journal, then apply in MDS memory.
    revoke_caps(op.path);
    revoke_caps(path::parent(op.path));
    if (has_dst_path(op.type)) {
        revoke_caps(op.dst);
        revoke_caps(path::parent(op.dst));
    }
    co_await journal_->acquire();
    co_await sim::delay(sim_, config_.journal_service);
    journal_->release();

    sim::SimTime now = sim_.now();
    switch (op.type) {
      case OpType::kCreateFile: {
        auto created = tree_.create_file(op.path, op.user, now);
        if (!created.ok()) {
            result.status = created.status();
            co_return result;
        }
        result.inode = created.take();
        break;
      }
      case OpType::kMkdir: {
        auto made = tree_.mkdirs(op.path, op.user, now);
        if (!made.ok()) {
            result.status = made.status();
            co_return result;
        }
        result.inode = made.take();
        break;
      }
      case OpType::kDeleteFile: {
        auto removed = tree_.remove(op.path, op.user, false, now);
        if (!removed.ok()) {
            result.status = removed.status();
            co_return result;
        }
        result.inodes_touched = removed.take();
        break;
      }
      case OpType::kSubtreeDelete: {
        auto removed = tree_.remove(op.path, op.user, true, now);
        if (!removed.ok()) {
            result.status = removed.status();
            co_return result;
        }
        result.inodes_touched = removed.take();
        // All caps under the subtree are revoked wholesale.
        for (auto it = cap_holders_.begin(); it != cap_holders_.end();) {
            if (path::is_under(it->first, op.path)) {
                for (CephClient* holder : it->second) {
                    holder->revoke(it->first);
                }
                it = cap_holders_.erase(it);
            } else {
                ++it;
            }
        }
        break;
      }
      case OpType::kMv:
      case OpType::kSubtreeMv: {
        Status st = tree_.rename(op.path, op.dst, op.user, now);
        if (!st.ok()) {
            result.status = st;
            co_return result;
        }
        for (auto it = cap_holders_.begin(); it != cap_holders_.end();) {
            if (path::is_under(it->first, op.path)) {
                for (CephClient* holder : it->second) {
                    holder->revoke(it->first);
                }
                it = cap_holders_.erase(it);
            } else {
                ++it;
            }
        }
        break;
      }
      case OpType::kHardLink: {
        auto linked = tree_.link(op.path, op.dst, op.user, now);
        if (!linked.ok()) {
            result.status = linked.status();
            co_return result;
        }
        result.inode = linked.take();
        break;
      }
      case OpType::kSymlink: {
        auto made = tree_.symlink(op.path, op.dst, op.user, now);
        if (!made.ok()) {
            result.status = made.status();
            co_return result;
        }
        result.inode = made.take();
        break;
      }
      case OpType::kSetAttr: {
        auto updated = tree_.setattr(op.path, op.attr, op.user, now);
        if (!updated.ok()) {
            result.status = updated.status();
            co_return result;
        }
        result.inode = updated.take();
        break;
      }
      case OpType::kOpenSession: {
        auto opened = tree_.open_session(op.path, op.session_id,
                                         now + op.lease_ttl, op.user);
        if (!opened.ok()) {
            result.status = opened.status();
            co_return result;
        }
        result.inode = opened.take();
        break;
      }
      case OpType::kCloseSession: {
        auto closed = tree_.close_session(op.session_id, now);
        if (!closed.ok()) {
            result.status = closed.status();
            co_return result;
        }
        result.inodes_touched = closed.take();
        break;
      }
      case OpType::kGcPrune: {
        ns::NamespaceTree::GcResult gc = tree_.gc_prune(now);
        result.inodes_touched = gc.reclaimed;
        result.stats = tree_.statfs();
        break;
      }
      default:
        result.status = Status::invalid_argument("bad op");
        co_return result;
    }
    result.status = Status::make_ok();
    co_return result;
}

double
CephFs::cost_so_far() const
{
    return cost::vm_cost(config_.vcpus_per_mds *
                             static_cast<double>(config_.num_mds),
                         sim_.now());
}

}  // namespace lfs::cephfs
