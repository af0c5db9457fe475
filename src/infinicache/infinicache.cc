#include "src/infinicache/infinicache.h"

#include "src/namespace/apply.h"
#include "src/util/path.h"

namespace lfs::infinicache {

CacheNode::CacheNode(InfiniCacheFs& fs, faas::FunctionInstance& instance)
    : fs_(fs),
      instance_(instance),
      cache_(cache::CacheConfig{fs.config().cache_bytes_per_function})
{
}

void
CacheNode::invalidate(const std::string& p, bool subtree)
{
    if (subtree) {
        cache_.invalidate_prefix(p);
    } else {
        cache_.invalidate(p);
    }
}

sim::Task<OpResult>
CacheNode::handle(faas::Invocation inv)
{
    const Op& op = inv.op;
    sim::Simulation& sim = fs_.simulation();
    const bool attr = sim.attribution();
    if (is_read_op(op.type)) {
        sim::SimTime cpu_start = sim.now();
        co_await instance_.compute(fs_.config().read_cpu);
        sim::SimTime cpu_wait = sim.now() - cpu_start;
        // statfs aggregates are never cached.
        std::optional<OpResult> hit = ns::answer_from_cache(
            op,
            op.type == OpType::kStatFs ? std::optional<ns::INode>()
                                       : cache_.get(op.path),
            fs_.store().tree());
        if (hit.has_value()) {
            if (attr) {
                hit->ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
            }
            co_return std::move(*hit);
        }
        OpResult result = co_await fs_.store().read_op(op);
        if (attr) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        }
        if (result.status.ok() && op.type != OpType::kStatFs &&
            !result.via_symlink) {
            // Single-copy discipline: cache only the target (this
            // function owns exactly the partition that hashes here).
            // A symlink-resolved target is keyed by its canonical path,
            // never the alias the client asked through.
            cache_.put(op.path, result.inode);
        }
        result.chain.clear();
        co_return result;
    }

    sim::SimTime cpu_start = sim.now();
    co_await instance_.compute(fs_.config().write_cpu);
    sim::SimTime cpu_wait = sim.now() - cpu_start;
    if (ns::needs_subtree_protocol(fs_.store().tree(), op)) {
        store::MetadataStore::SubtreeExecution exec;
        exec.after_lock = [this, &op]() {
            return subtree_invalidations(op);
        };
        OpResult result = co_await fs_.store().subtree_op(op, exec);
        if (attr) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        }
        co_return result;
    }
    OpResult result = co_await fs_.store().write_op(op, [this, &op]() {
        return write_invalidations(op);
    });
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    co_return result;
}

sim::Task<void>
CacheNode::subtree_invalidations(Op op)
{
    fs_.broadcast_prefix_invalidate(op.path);
    co_await fs_.invalidate_at_owner(path::parent(op.path));
    if (has_dst_path(op.type)) {
        // The destination parent gains an entry (and a new mtime).
        co_await fs_.invalidate_at_owner(path::parent(op.dst));
    }
}

sim::Task<void>
CacheNode::write_invalidations(Op op)
{
    co_await fs_.invalidate_at_owner(op.path);
    co_await fs_.invalidate_at_owner(path::parent(op.path));
    if (has_dst_path(op.type)) {
        co_await fs_.invalidate_at_owner(op.dst);
        co_await fs_.invalidate_at_owner(path::parent(op.dst));
    }
}

InfiniCacheClient::InfiniCacheClient(InfiniCacheFs& fs, int id, sim::Rng rng)
    : fs_(fs), id_(id), rng_(rng)
{
}

sim::Task<OpResult>
InfiniCacheClient::execute(Op op)
{
    op.op_id = (static_cast<uint64_t>(id_ + 1) << 40) | 0;
    sim::Simulation& sim = fs_.simulation();
    sim::RetryLedger ledger(sim.attribution());
    OpResult result;
    for (int attempt = 1; attempt <= fs_.config().max_attempts; ++attempt) {
        // Every operation is a fresh invocation through the gateway.
        sim::SimTime attempt_start = sim.now();
        int deployment = fs_.owner_for(op.path);
        faas::Invocation inv;
        inv.op = op;
        inv.via_http = true;
        result = co_await fs_.platform()
                     .deployment(deployment)
                     .invoke_via_gateway(std::move(inv));
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

InfiniCacheFs::InfiniCacheFs(sim::Simulation& sim, InfiniCacheConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      store_(sim, network_, rng_.fork(), config.store),
      platform_(sim, network_, rng_.fork(),
                faas::PlatformConfig{config.total_vcpus, config.function}),
      metrics_(sim.metrics(), config.label)
{
    for (int i = 0; i < config_.num_functions; ++i) {
        auto& deployment = platform_.create_deployment(
            "cache" + std::to_string(i), config_.function,
            [this](faas::FunctionInstance& instance) {
                return std::make_unique<CacheNode>(*this, instance);
            });
        // Fixed-size pool: exactly one always-on instance per function.
        deployment.set_max_instances(1);
        deployment.prewarm(1);
        ring_.add_member(i);
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(
            std::make_unique<InfiniCacheClient>(*this, i, rng_.fork()));
    }
}

InfiniCacheFs::~InfiniCacheFs() = default;

int
InfiniCacheFs::owner_for(const std::string& p) const
{
    return ring_.lookup(path::parent(p));
}

sim::Task<void>
InfiniCacheFs::invalidate_at_owner(std::string p)
{
    int deployment = owner_for(p);
    co_await network_.round_trip(net::LatencyClass::kTcp);
    for (auto* instance : platform_.deployment(deployment).alive_instances()) {
        static_cast<CacheNode&>(instance->app()).invalidate(p, false);
    }
}

void
InfiniCacheFs::broadcast_prefix_invalidate(const std::string& prefix)
{
    for (int d = 0; d < platform_.deployment_count(); ++d) {
        for (auto* instance : platform_.deployment(d).alive_instances()) {
            static_cast<CacheNode&>(instance->app()).invalidate(prefix, true);
        }
    }
}

int
InfiniCacheFs::active_name_nodes() const
{
    return platform_.total_alive_instances();
}

double
InfiniCacheFs::cost_so_far() const
{
    return cost::lambda_cost(platform_.total_busy_gb_us(),
                             platform_.total_gateway_invocations());
}

}  // namespace lfs::infinicache
