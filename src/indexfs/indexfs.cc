#include "src/indexfs/indexfs.h"

#include <iterator>

#include "src/util/path.h"

namespace lfs::indexfs {

IndexFsServer::IndexFsServer(IndexFs& fs, sim::Simulation& sim, sim::Rng rng,
                             const IndexFsConfig& config)
    : fs_(fs),
      sim_(sim),
      cpu_service_(config.server_cpu),
      cpu_(sim, config.server_concurrency),
      lsm_(sim, rng, config.lsm)
{
}

sim::Task<OpResult>
IndexFsServer::compute()
{
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_.acquire();
    co_await sim::delay(sim_, cpu_service_);
    cpu_.release();
    OpResult result;
    result.status = Status::make_ok();
    if (sim_.attribution()) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, sim_.now() - cpu_start);
    }
    co_return result;
}

sim::Task<OpResult>
IndexFsServer::serve(Op op, sim::SimTime now)
{
    OpResult cpu = co_await compute();
    OpResult result = co_await apply_row(fs_, op, now);
    result.ledger.merge(cpu.ledger);
    co_return result;
}

IndexFsClient::IndexFsClient(IndexFs& fs, int id, sim::Rng rng)
    : fs_(fs), id_(id), rng_(rng)
{
}

sim::Task<OpResult>
IndexFsClient::execute(Op op)
{
    sim::Span op_span =
        fs_.simulation().tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(id_));
    op.trace = op_span.context();
    sim::Simulation& sim = fs_.simulation();
    // Namespace-wide ops (statfs, GC) pay a round to every partition's
    // server, then read the keyspace-wide counters once; they never
    // touch the lease cache.
    if (op.type == OpType::kStatFs || op.type == OpType::kGcPrune) {
        sim::LatencyLedger swept;
        for (int s = 0; s < fs_.server_count(); ++s) {
            OpResult part = co_await fs_.network().client_round(
                [&] { return fs_.server(s).compute(); });
            swept.merge(part.ledger);
        }
        OpResult result = co_await apply_row(fs_, op, sim.now());
        result.ledger.merge(swept);
        co_return result;
    }
    // Lease-cached read path (stateless client caching).
    if (is_read_op(op.type)) {
        auto it = leases_.find(op.path);
        std::optional<OpResult> hit;
        if (it != leases_.end() && it->second.expires <= sim.now()) {
            leases_.erase(it);
        } else if (it != leases_.end()) {
            hit = answer_from_row_cache(op, it->second.inode);
        }
        if (hit.has_value()) {
            sim::SimTime local_start = sim.now();
            co_await sim::delay(sim, fs_.config().client_local_op);
            if (sim.attribution()) {
                hit->ledger.add(sim::LatSeg::kNameNodeCpu,
                                sim.now() - local_start);
            }
            co_return std::move(*hit);
        }
    }
    OpResult result = co_await fs_.network().client_round(
        [&] { return fs_.server_for(op.path).serve(op, sim.now()); });
    // Open-for-read chases symlink rows client-side (the client owns
    // routing in IndexFS): each hop re-routes to the target's server,
    // bounded like tree resolution.
    std::string lease_key = op.path;
    if (op.type == OpType::kReadFile) {
        int hops = 0;
        while (result.status.ok() && result.inode.is_symlink()) {
            if (++hops > ns::kMaxSymlinkFollows) {
                result.status = Status::failed_precondition(
                    "symlink loop (ELOOP): " + op.path);
                break;
            }
            Op hop = op;
            hop.path = result.inode.symlink_target;
            lease_key = hop.path;
            OpResult next = co_await fs_.network().client_round(
                [&] { return fs_.server_for(hop.path).serve(hop, sim.now()); });
            next.ledger.merge(result.ledger);
            next.via_symlink = true;
            result = std::move(next);
        }
    }
    if (result.status.ok() && is_read_op(op.type)) {
        // Bound the lease cache without nuking it wholesale: drop
        // expired leases first (they are dead weight), then — if the
        // cache is still over budget — evict the lease closest to
        // expiry. Clearing the whole map here used to throw away
        // every live lease whenever the cap was crossed, turning the
        // hot read path into a miss storm.
        size_t cap =
            static_cast<size_t>(fs_.config().client_cache_entries);
        if (leases_.size() > cap) {
            sim::SimTime now = sim.now();
            for (auto it = leases_.begin(); it != leases_.end();) {
                it = it->second.expires <= now ? leases_.erase(it)
                                               : std::next(it);
            }
            while (leases_.size() > cap) {
                auto victim = leases_.begin();
                for (auto it = std::next(leases_.begin());
                     it != leases_.end(); ++it) {
                    if (it->second.expires < victim->second.expires) {
                        victim = it;
                    }
                }
                leases_.erase(victim);
            }
        }
        // Keyed by the canonical row path: a symlink-followed read
        // leases the target under its own name, never the alias.
        leases_[lease_key] = Lease{
            result.inode, sim.now() + fs_.config().lease_ttl};
    }
    if (!is_read_op(op.type)) {
        // The client's own write changed the rows it names (the target,
        // and for a rename or hard link the second name): a lease on
        // either would serve this client its pre-write row.
        leases_.erase(op.path);
        if (has_dst_path(op.type)) {
            leases_.erase(op.dst);
        }
    }
    co_return result;
}

IndexFs::IndexFs(sim::Simulation& sim, IndexFsConfig config)
    : FlatKeyspace(sim),
      sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      metrics_(sim.metrics(), config.label)
{
    for (int i = 0; i < config_.num_servers; ++i) {
        servers_.push_back(std::make_unique<IndexFsServer>(
            *this, sim_, rng_.fork(), config_));
        ring_.add_member(i);
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(
            std::make_unique<IndexFsClient>(*this, i, rng_.fork()));
    }
}

IndexFs::~IndexFs() = default;

IndexFsServer&
IndexFs::server_for(const std::string& p)
{
    // Directory-name hash partitioning (§4's simplified GIGA+ scheme).
    return *servers_[static_cast<size_t>(ring_.lookup(path::parent(p)))];
}

sim::Task<void>
IndexFs::reach(const std::string& from, const std::string& to)
{
    if (&server_for(from) != &server_for(to)) {
        co_await network_.round_trip(net::LatencyClass::kTcp);
    }
}

double
IndexFs::cost_so_far() const
{
    // 4 co-located servers on client VMs: bill 8 vCPUs each.
    return cost::vm_cost(8.0 * static_cast<double>(config_.num_servers),
                         sim_.now());
}

}  // namespace lfs::indexfs
