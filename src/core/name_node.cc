#include "src/core/name_node.h"

#include <algorithm>

#include "src/namespace/apply.h"
#include "src/sim/log.h"
#include "src/util/path.h"

namespace lfs::core {

NameNode::NameNode(LfsRuntime& runtime, faas::FunctionInstance& instance,
                   NameNodeConfig config)
    : rt_(runtime),
      instance_(instance),
      config_(config),
      cache_(cache::CacheConfig{config.cache_bytes}),
      cache_hits_(rt_.sim.metrics().counter(
          "cache.hits",
          {{"deployment", std::to_string(instance.deployment_id())}})),
      cache_misses_(rt_.sim.metrics().counter(
          "cache.misses",
          {{"deployment", std::to_string(instance.deployment_id())}})),
      shed_expired_(rt_.sim.metrics().counter(
          "overload.namenode_shed",
          {{"deployment", std::to_string(instance.deployment_id())}}))
{
    rt_.coordinator.join(instance_.deployment_id(), this);
    in_coordinator_ = true;
    if (config_.report_interval > 0) {
        sim::spawn(report_loop());
    }
}

NameNode::~NameNode() = default;

void
NameNode::on_shutdown()
{
    if (in_coordinator_) {
        rt_.coordinator.leave(instance_.deployment_id(), this);
        in_coordinator_ = false;
    }
}

sim::Task<void>
NameNode::report_loop()
{
    while (instance_.alive()) {
        co_await sim::delay(rt_.sim, config_.report_interval);
        if (!instance_.alive()) {
            break;
        }
        // Publish block-report/liveness info to the persistent store.
        co_await rt_.network.round_trip(net::LatencyClass::kStore);
        ++block_reports_;
    }
}

sim::Task<void>
NameNode::deliver_invalidation(const std::string& p, uint64_t key,
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
NameNode::run_coherence(const Op& op, const path::PathKeys& keys,
                        bool invalidate_ancestors)
{
    // The leader invalidates its own cache directly (Algorithm 1 excludes
    // it from the INV fan-out); every other instance of each entry's home
    // deployment gets an INV for the entry.
    std::vector<coord::Coordinator::InvTarget> targets;
    targets.reserve(has_dst_path(op.type) ? 4 : 2);
    auto add_path = [&](const std::string& p, const path::PathKeys& k) {
        std::string parent = path::parent(p);
        cache_.invalidate(p, k.self);
        cache_.invalidate(parent, k.parent);
        targets.push_back(coord::Coordinator::InvTarget{
            rt_.partitioner.deployment_for_parent(k.parent), p, false});
        targets.push_back(coord::Coordinator::InvTarget{
            rt_.partitioner.deployment_for_parent(k.grandparent),
            std::move(parent), false});
    };
    add_path(op.path, keys);
    if (has_dst_path(op.type)) {
        // Rename destination or new hard-link name: both change the
        // dst entry and its parent's mtime on other deployments.
        add_path(op.dst, path::keys(op.dst));
    }
    if (invalidate_ancestors) {
        // mkdirs with missing intermediates mutates every ancestor level,
        // not just the immediate parent.
        for (std::string& a : path::ancestors(op.path)) {
            const path::PathKeys k = path::keys(a);
            cache_.invalidate(a, k.self);
            targets.push_back(coord::Coordinator::InvTarget{
                rt_.partitioner.deployment_for_parent(k.parent),
                std::move(a), false});
        }
    }
    co_await rt_.coordinator.invalidate(std::move(targets), this, op.trace);
}

sim::Task<void>
NameNode::run_subtree_coherence(Op op)
{
    const path::PathKeys src = path::keys(op.path);
    const bool has_dst = has_dst_path(op.type);
    const path::PathKeys dst = has_dst ? path::keys(op.dst) : src;
    cache_.invalidate_prefix(op.path, src.self);
    cache_.invalidate(op.path, src.self);
    cache_.invalidate(path::parent_view(op.path), src.parent);
    if (has_dst) {
        cache_.invalidate(op.dst, dst.self);
        cache_.invalidate(path::parent_view(op.dst), dst.parent);
    }
    // A large subtree hashes across essentially every deployment, so the
    // prefix INV is issued to all of them (Appendix D), plus point INVs
    // for the parent directories whose mtimes change.
    std::vector<coord::Coordinator::InvTarget> targets;
    for (int d : rt_.partitioner.all_deployments()) {
        targets.push_back(
            coord::Coordinator::InvTarget{d, op.path, true});
    }
    targets.push_back(coord::Coordinator::InvTarget{
        rt_.partitioner.deployment_for_parent(src.grandparent),
        path::parent(op.path), false});
    if (op.type == OpType::kMv || op.type == OpType::kSubtreeMv) {
        targets.push_back(coord::Coordinator::InvTarget{
            rt_.partitioner.deployment_for_parent(dst.grandparent),
            path::parent(op.dst), false});
    }
    co_await rt_.coordinator.invalidate(std::move(targets), this, op.trace);
}

namespace {

/** @p result with @p cpu_wait stamped as NameNode CPU when attributing. */
OpResult
with_cpu(OpResult result, bool attr, sim::SimTime cpu_wait)
{
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    return result;
}

}  // namespace

sim::Task<OpResult>
NameNode::handle_read(const Op& op)
{
    const bool attr = rt_.sim.attribution();
    sim::SimTime cpu = config_.read_cpu;
    if (op.type == OpType::kReadFile) {
        cpu += config_.read_block_cpu;
    }
    sim::SimTime cpu_start = rt_.sim.now();
    co_await instance_.compute(cpu);
    // The stamp includes vCPU queueing, not just the service demand.
    sim::SimTime cpu_wait = rt_.sim.now() - cpu_start;
    // Only the deployment that owns a path's partition may cache it; an
    // instance serving out-of-partition traffic (anti-thrashing mode
    // routes to any connected NameNode) reads through to the store so
    // the coherence protocol's deployment targeting stays sound.
    // Namespace-wide aggregates are never cached — every statfs reads
    // the per-shard counters through the store.
    const path::PathKeys keys = path::keys(op.path);
    const bool home_partition =
        op.type != OpType::kStatFs &&
        rt_.partitioner.deployment_for_parent(keys.parent) ==
            instance_.deployment_id();
    if (home_partition) {
        std::optional<ns::INode> cached = cache_.get(op.path, keys.self);
        if (ns::cache_answers(op, cached)) {
            cache_hits_.add();
            co_return with_cpu(
                ns::answer_cached(op, *cached, rt_.store.tree()), attr,
                cpu_wait);
        }
        cache_misses_.add();
    }
    // Guarded install: the row locks protecting the store read are gone
    // by the time the reply lands here, so any invalidation delivered in
    // between must beat the install (see MetadataCache read guard).
    const cache::MetadataCache::ReadToken token =
        home_partition ? cache_.begin_read() : 0;
    OpResult result = co_await rt_.store.read_op(op);
    if (home_partition) {
        if (result.status.ok()) {
            cache_own_partition_entries(result.chain, token);
        }
        cache_.end_read(token);
    }
    if (result.status.ok() && home_partition) {
        sim::SimTime miss_start = rt_.sim.now();
        co_await instance_.compute(config_.miss_extra_cpu);
        cpu_wait += rt_.sim.now() - miss_start;
    }
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    // The chain was only needed for cache installation; dropping it here
    // avoids copying it through the RPC reply path and result cache.
    result.chain.clear();
    co_return result;
}

void
NameNode::cache_own_partition_entries(const std::vector<ns::INode>& chain,
                                      cache::MetadataCache::ReadToken token)
{
    // Cache only the chain entries whose partition this deployment owns.
    // Caching ancestors that hash elsewhere would break the coherence
    // protocol's deterministic INV targeting: a write invalidates an
    // inode only at deployment_for(path), so that must be the sole
    // deployment ever caching it.
    const int self = instance_.deployment_id();
    cache_.put_chain_guarded(chain, token, [&](uint64_t parent_key) {
        return rt_.partitioner.deployment_for_parent(parent_key) == self;
    });
}

sim::Task<Status>
NameNode::resolve_parent(const Op& op, bool home,
                         sim::LatencyLedger& ledger)
{
    Op resolve;
    resolve.type = OpType::kStat;
    resolve.path = path::parent(op.path);
    resolve.user = op.user;
    const cache::MetadataCache::ReadToken token = cache_.begin_read();
    OpResult resolved = co_await rt_.store.read_op(resolve);
    if (rt_.sim.attribution()) {
        ledger.merge(resolved.ledger);
    }
    if (resolved.status.ok() && home) {
        cache_own_partition_entries(resolved.chain, token);
    }
    cache_.end_read(token);
    co_return std::move(resolved.status);
}

sim::Task<OpResult>
NameNode::handle_write(const Op& op)
{
    const bool attr = rt_.sim.attribution();
    sim::SimTime cpu_start = rt_.sim.now();
    co_await instance_.compute(config_.write_cpu);
    // `pre` collects everything stamped before the store transaction:
    // NameNode compute (incl. vCPU queueing) plus the parent-resolve
    // round trip's own ledger; it is merged into whichever result this
    // handler ultimately returns.
    sim::LatencyLedger pre;
    if (attr) {
        pre.add(sim::LatSeg::kNameNodeCpu, rt_.sim.now() - cpu_start);
    }
    // Path resolution: a write must validate/permission-check the parent
    // chain. With the parent cached (the "INode Hint Cache" effect) this
    // is free; otherwise it costs one batched resolve round trip.
    const path::PathKeys keys = path::keys(op.path);
    bool parent_missing = false;
    if (!cache_.contains(path::parent_view(op.path), keys.parent)) {
        const bool home = rt_.partitioner.deployment_for_parent(
                              keys.parent) == instance_.deployment_id();
        Status resolved = co_await resolve_parent(op, home, pre);
        if (!resolved.ok()) {
            // mkdirs materialises missing ancestors itself (`-p`
            // semantics), so an absent parent is not an error for it —
            // the store re-validates authoritatively under locks.
            if (op.type == OpType::kMkdir &&
                resolved.code() == Code::kNotFound) {
                parent_missing = true;
            } else {
                co_return error_result(std::move(resolved), attr, pre);
            }
        }
    }
    // Algorithm 1: the INV/ACK round runs while the store's exclusive row
    // locks are held, so no other NameNode can re-read-and-cache stale
    // metadata between invalidation and commit.
    OpResult result = co_await rt_.store.write_op(
        op, [this, &op, &keys, parent_missing]() {
            return run_coherence(op, keys, parent_missing);
        });
    if (attr) {
        result.ledger.merge(pre);
    }
    co_return result;
}

sim::Task<OpResult>
NameNode::handle_subtree(const Op& op)
{
    sim::SimTime cpu_start = rt_.sim.now();
    co_await instance_.compute(config_.write_cpu);
    sim::SimTime cpu_wait = rt_.sim.now() - cpu_start;
    int helpers = 1;
    if (config_.offload_subtree) {
        int candidates =
            static_cast<int>(rt_.coordinator.total_members()) - 1;
        helpers = std::clamp(candidates, 1, config_.max_offload_helpers);
    }
    store::MetadataStore::SubtreeExecution exec;
    exec.after_lock = [this, &op]() { return run_subtree_coherence(op); };
    exec.per_row_nn_cost = config_.subtree_per_row_cpu / helpers;
    OpResult result = co_await rt_.store.subtree_op(op, exec);
    if (rt_.sim.attribution()) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    co_return result;
}

sim::Task<OpResult>
NameNode::handle(faas::Invocation inv)
{
    // An HTTP-served request lets the NameNode learn the client's TCP
    // server coordinates; it proactively connects back (§3.2).
    if (inv.via_http && inv.client_vm >= 0 && inv.tcp_server >= 0) {
        rt_.tcp_registry.add_connection(inv.client_vm, inv.tcp_server,
                                        &instance_);
    }
    sim::Span nn_span = rt_.sim.tracer().start_span(
        "namenode", op_name(inv.op.type), inv.op.trace);
    inv.op.trace = nn_span.context();
    const Op& op = inv.op;
    // Expired-in-queue shedding at the NameNode: an op whose deadline
    // passed in transit or in the gateway queue is refused before any
    // compute or store work. Checked before the result-cache claim so a
    // shed attempt neither retains a result nor leaves a pending dedup
    // entry a resubmission could join.
    if (op_expired(op, rt_.sim.now())) {
        shed_expired_.add();
        nn_span.annotate("shed", "expired");
        co_return error_result(
            Status::deadline_exceeded("expired at namenode"));
    }
    // Transparently-resubmitted requests are answered from the
    // deployment's retained-result table instead of being re-performed
    // (§3.2). The table is shared across the deployment's instances, so
    // dedup survives the executing instance's death; a resubmission that
    // races the still-in-flight original joins it here instead of
    // executing the op a second time.
    ResultCache& results = rt_.result_cache(instance_.deployment_id());
    const ResultCache::Claim claim = results.claim(op.op_id);
    // One await, one frame-resident result, whichever way it is served.
    OpResult result = co_await serve_claimed(claim, op, nn_span);
    if (claim.execute()) {
        if (is_read_op(op.type)) {
            nn_span.annotate("cache_hit",
                             static_cast<int64_t>(result.cache_hit ? 1 : 0));
        }
        results.complete(op.op_id, result);
    }
    co_return result;
}

sim::Task<OpResult>
NameNode::serve_claimed(ResultCache::Claim claim, const Op& op,
                        sim::Span& nn_span)
{
    if (!claim.execute()) {
        return answer_duplicate(claim, op.op_id, nn_span);
    }
    if (is_read_op(op.type)) {
        return handle_read(op);
    }
    if (ns::needs_subtree_protocol(rt_.store.tree(), op)) {
        return handle_subtree(op);
    }
    return handle_write(op);
}

sim::Task<OpResult>
NameNode::answer_duplicate(ResultCache::Claim claim, uint64_t op_id,
                           sim::Span& nn_span)
{
    OpResult result;
    if (claim.retained != nullptr) {
        result = *claim.retained;
    } else {
        result =
            co_await rt_.result_cache(instance_.deployment_id()).join(op_id);
    }
    nn_span.annotate("result_cache", "hit");
    sim::SimTime hit_start = rt_.sim.now();
    co_await instance_.compute(sim::usec(20));
    if (rt_.sim.attribution()) {
        // The retained ledger describes the *original* execution, whose
        // wall time overlaps the resubmitting client's retry-wait
        // accounting; returning it would double-count. This attempt only
        // spent the dedup-lookup compute.
        result.ledger.clear();
        result.ledger.add(sim::LatSeg::kNameNodeCpu,
                          rt_.sim.now() - hit_start);
    }
    co_return result;
}

}  // namespace lfs::core
