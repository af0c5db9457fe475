#include "src/indexfs/lambda_indexfs.h"

#include <algorithm>

#include "src/util/path.h"

namespace lfs::indexfs {

LambdaIndexNode::LambdaIndexNode(LambdaIndexFs& fs,
                                 faas::FunctionInstance& instance)
    : fs_(fs),
      instance_(instance),
      cache_(cache::CacheConfig{fs.config().cache_bytes})
{
    fs_.coordinator().join(instance_.deployment_id(), this);
    joined_ = true;
}

LambdaIndexNode::~LambdaIndexNode() = default;

void
LambdaIndexNode::on_shutdown()
{
    if (joined_) {
        fs_.coordinator().leave(instance_.deployment_id(), this);
        joined_ = false;
    }
}

bool
LambdaIndexNode::member_alive() const
{
    return instance_.alive();
}

sim::Task<void>
LambdaIndexNode::deliver_invalidation(const std::string& p, uint64_t key,
                                      bool subtree)
{
    co_await instance_.compute(sim::usec(30));
    if (subtree) {
        cache_.invalidate_prefix(p, key);
    } else {
        cache_.invalidate(p, key);
    }
}

sim::Task<void>
LambdaIndexNode::write_coherence(Op op)
{
    cache_.invalidate(op.path);
    std::vector<coord::Coordinator::InvTarget> targets;
    targets.push_back(coord::Coordinator::InvTarget{
        fs_.deployment_for(op.path), op.path, false});
    // A hard link overwrites an existing destination row: its cached
    // copy (keyed at the dst deployment) must flush in the same round.
    if (has_dst_path(op.type) && fs_.lsm_for(op.dst).contains(op.dst)) {
        cache_.invalidate(op.dst);
        targets.push_back(coord::Coordinator::InvTarget{
            fs_.deployment_for(op.dst), op.dst, false});
    }
    co_await fs_.coordinator().invalidate(std::move(targets), this);
}

sim::Task<OpResult>
LambdaIndexNode::handle(faas::Invocation inv)
{
    if (inv.via_http && inv.client_vm >= 0 && inv.tcp_server >= 0) {
        fs_.tcp_registry().add_connection(inv.client_vm, inv.tcp_server,
                                          &instance_);
    }
    const Op& op = inv.op;
    const bool home =
        fs_.deployment_for(op.path) == instance_.deployment_id();

    sim::Simulation& sim = fs_.simulation();
    const bool attr = sim.attribution();
    if (is_read_op(op.type)) {
        sim::SimTime cpu_start = sim.now();
        co_await instance_.compute(fs_.config().fn_read_cpu);
        if (op.type == OpType::kStatFs) {
            // Sweep the per-partition counters (one pass per LSM
            // instance); the aggregate is never cached.
            for (int i = 0; i < fs_.lsm_count(); ++i) {
                co_await instance_.compute(fs_.config().fn_read_cpu);
            }
        }
        sim::SimTime cpu_wait = sim.now() - cpu_start;
        const bool cacheable = home && op.type != OpType::kStatFs;
        std::optional<OpResult> hit = answer_from_row_cache(
            op, cacheable ? cache_.get(op.path) : std::optional<ns::INode>());
        if (hit.has_value()) {
            if (attr) {
                hit->ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
            }
            co_return std::move(*hit);
        }
        OpResult result = co_await apply_row(fs_, op, sim.now());
        // Open-for-read chases symlink rows across partitions, bounded
        // like tree resolution (ELOOP past the follow limit).
        int hops = 0;
        while (result.status.ok() && op.type == OpType::kReadFile &&
               result.inode.is_symlink()) {
            if (++hops > ns::kMaxSymlinkFollows) {
                OpResult loop;
                loop.ledger = result.ledger;
                loop.status = Status::failed_precondition(
                    "symlink loop (ELOOP): " + op.path);
                result = std::move(loop);
                break;
            }
            Op hop = op;
            hop.path = result.inode.symlink_target;
            OpResult next = co_await apply_row(fs_, hop, sim.now());
            next.ledger.merge(result.ledger);
            next.via_symlink = true;
            result = std::move(next);
        }
        if (attr) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        }
        if (cacheable && result.status.ok() && !result.via_symlink) {
            // A symlink-followed target lives under its canonical path
            // (likely another partition); never cache it under the alias.
            cache_.put(op.path, result.inode);
        }
        co_return result;
    }

    sim::SimTime cpu_start = sim.now();
    co_await instance_.compute(fs_.config().fn_write_cpu);
    sim::SimTime cpu_wait = sim.now() - cpu_start;
    // Coherence: in the flat metadata-table keyspace, creating a
    // never-before-seen key cannot invalidate cached state (there is no
    // negative caching), so only deletes/overwrites pay the INV round.
    // Session ops and GC touch the registry, not rows: no INV either.
    const bool row_mutating =
        op.type == OpType::kCreateFile || op.type == OpType::kMkdir ||
        op.type == OpType::kDeleteFile || op.type == OpType::kSymlink ||
        op.type == OpType::kHardLink || op.type == OpType::kSetAttr;
    sim::SimTime inv_start = sim.now();
    if (row_mutating && (op.type == OpType::kDeleteFile ||
                         fs_.lsm_for(op.path).contains(op.path))) {
        co_await write_coherence(op);
    }
    sim::SimTime lsm_start = sim.now();
    sim::LatencyLedger pre;
    if (attr) {
        pre.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        pre.add(sim::LatSeg::kCoherence, lsm_start - inv_start);
    }
    if (op.type == OpType::kGcPrune) {
        // One sweep per partition, like the statfs collection; the
        // sweep is the GC's store-service time.
        for (int i = 0; i < fs_.lsm_count(); ++i) {
            co_await instance_.compute(fs_.config().fn_write_cpu);
        }
        if (attr) {
            pre.add(sim::LatSeg::kStoreService, sim.now() - lsm_start);
        }
    }
    OpResult result = co_await apply_row(fs_, op, lsm_start);
    result.ledger.merge(pre);
    co_return result;
}

LambdaIndexClient::LambdaIndexClient(LambdaIndexFs& fs, int id, int vm,
                                     int tcp_server, sim::Rng rng)
    : fs_(fs), id_(id), vm_(vm), tcp_server_(tcp_server), rng_(rng)
{
}

sim::Task<OpResult>
LambdaIndexClient::execute(Op op)
{
    op.op_id = (static_cast<uint64_t>(id_ + 1) << 40) | ++next_seq_;
    sim::Span op_span =
        fs_.simulation().tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(id_));
    op.trace = op_span.context();
    int target = fs_.deployment_for(op.path);
    sim::Simulation& sim = fs_.simulation();
    sim::RetryLedger ledger(sim.attribution());
    OpResult result;
    for (int attempt = 1; attempt <= fs_.config().max_attempts; ++attempt) {
        sim::SimTime attempt_start = sim.now();
        faas::FunctionInstance* conn =
            fs_.tcp_registry().find_on_vm(vm_, tcp_server_, target);
        bool use_http =
            conn == nullptr ||
            rng_.bernoulli(fs_.config().http_replace_probability);
        faas::Invocation inv;
        inv.op = op;
        inv.client_vm = vm_;
        inv.tcp_server = tcp_server_;
        inv.via_http = use_http;
        if (use_http) {
            result = co_await fs_.platform()
                         .deployment(target)
                         .invoke_via_gateway(std::move(inv));
        } else {
            sim::Task<OpResult> round = fs_.network().client_round(
                [conn, inv = std::move(inv)]() mutable {
                    return conn->serve_tcp(std::move(inv));
                });
            result = co_await sim::race_timeout(
                sim, fs_.config().request_timeout, client_timeout,
                std::move(round));
        }
        // The shared predicate keeps retry classification consistent with
        // the λFS and HopsFS clients (RESOURCE_EXHAUSTED and ABORTED are
        // retryable here too).
        const bool failed = retryable_code(result.status.code());
        ledger.fold(result.ledger, sim.now() - attempt_start, failed);
        if (!failed) {
            co_return result;
        }
        sim::SimTime pause =
            rng_.uniform_duration(sim::msec(20), sim::msec(100));
        co_await sim::delay(sim, pause);
        ledger.backoff(pause);
    }
    ledger.settle(result.ledger);
    co_return result;
}

LambdaIndexFs::LambdaIndexFs(sim::Simulation& sim, LambdaIndexFsConfig config)
    : FlatKeyspace(sim),
      sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      coordinator_(sim, network_),
      tcp_registry_(config.num_client_vms,
                    std::max(1, (config.clients_per_vm +
                                 config.max_clients_per_tcp_server - 1) /
                                    config.max_clients_per_tcp_server)),
      platform_(sim, network_, rng_.fork(),
                faas::PlatformConfig{config.total_vcpus, config.function}),
      metrics_(sim.metrics(), config.label)
{
    for (int i = 0; i < config_.num_lsm_instances; ++i) {
        lsm_instances_.push_back(std::make_unique<lsm::LsmTree>(
            sim_, rng_.fork(), config_.lsm));
        lsm_ring_.add_member(i);
    }
    for (int d = 0; d < config_.num_deployments; ++d) {
        auto& deployment = platform_.create_deployment(
            "IndexNode" + std::to_string(d), config_.function,
            [this](faas::FunctionInstance& instance) {
                return std::make_unique<LambdaIndexNode>(*this, instance);
            });
        deployment.prewarm(config_.prewarm_per_deployment);
        deployment_ring_.add_member(d);
    }
    int servers = std::max(1, (config_.clients_per_vm +
                               config_.max_clients_per_tcp_server - 1) /
                                  config_.max_clients_per_tcp_server);
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        int vm = i / config_.clients_per_vm;
        int within = i % config_.clients_per_vm;
        int server = std::min(within / config_.max_clients_per_tcp_server,
                              servers - 1);
        clients_.push_back(std::make_unique<LambdaIndexClient>(
            *this, i, vm, server, rng_.fork()));
    }
}

LambdaIndexFs::~LambdaIndexFs() = default;

int
LambdaIndexFs::deployment_for(const std::string& p) const
{
    return deployment_ring_.lookup(path::parent(p));
}

lsm::LsmTree&
LambdaIndexFs::lsm_for(const std::string& p)
{
    return *lsm_instances_[static_cast<size_t>(
        lsm_ring_.lookup(path::parent(p)))];
}

sim::Task<void>
LambdaIndexFs::reach(const std::string& /*from*/, const std::string& /*to*/)
{
    co_return;
}

int
LambdaIndexFs::active_name_nodes() const
{
    return platform_.total_alive_instances();
}

double
LambdaIndexFs::cost_so_far() const
{
    return cost::lambda_cost(platform_.total_busy_gb_us(),
                             platform_.total_gateway_invocations());
}

}  // namespace lfs::indexfs
