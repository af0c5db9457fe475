#include "src/hopsfs/hops_name_node.h"

#include <algorithm>
#include <cmath>

#include "src/namespace/apply.h"
#include "src/util/path.h"

namespace lfs::hopsfs {

HopsNameNode::HopsNameNode(sim::Simulation& sim, net::Network& network,
                           store::MetadataStore& store, sim::Rng rng,
                           HopsNameNodeConfig config, int id)
    : sim_(sim),
      network_(network),
      store_(store),
      rng_(rng),
      config_(config),
      id_(id),
      handlers_(sim, config.rpc_handlers),
      cpu_(sim, std::max<int64_t>(1, std::llround(config.vcpus)))
{
    if (config_.cache_bytes > 0) {
        cache_ = std::make_unique<cache::MetadataCache>(
            cache::CacheConfig{config_.cache_bytes});
    }
}

void
HopsNameNode::invalidate(const std::string& p, bool subtree)
{
    if (!cache_) {
        return;
    }
    if (subtree) {
        cache_->invalidate_prefix(p);
    } else {
        cache_->invalidate(p);
    }
}

sim::Task<void>
HopsNameNode::invalidate_remote(std::string p)
{
    HopsNameNode* owner = peer_for_path ? peer_for_path(p) : nullptr;
    if (owner == nullptr || owner == this) {
        invalidate(p, false);
        co_return;
    }
    // Direct NameNode-to-NameNode INV + ACK.
    co_await network_.round_trip(net::LatencyClass::kTcp);
    owner->invalidate(p, false);
}

sim::Task<OpResult>
HopsNameNode::serve_read(const Op& op)
{
    // CPU for request handling / path processing.
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_.acquire();
    co_await sim::delay(sim_, cache_ ? config_.cached_read_cpu
                                     : config_.proxy_cpu);
    cpu_.release();
    sim::SimTime cpu_wait = sim_.now() - cpu_start;
    const bool attr = sim_.attribution();

    // statfs aggregates are never cached.
    if (cache_ && op.type != OpType::kStatFs) {
        std::optional<OpResult> hit = ns::answer_from_cache(
            op, cache_->get(op.path), store_.tree());
        if (hit.has_value()) {
            if (attr) {
                hit->ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
            }
            co_return std::move(*hit);
        }
    }
    OpResult result = co_await store_.read_op(op);
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    if (cache_ && result.status.ok() && op.type != OpType::kStatFs) {
        cache_->put_chain(result.chain);
    }
    result.chain.clear();
    co_return result;
}

sim::Task<void>
HopsNameNode::write_inv_round(Op op)
{
    // Single-copy caching: invalidate the path and its parent at their
    // owning NameNodes while the store's locks are held.
    co_await invalidate_remote(op.path);
    co_await invalidate_remote(path::parent(op.path));
    if (has_dst_path(op.type)) {
        co_await invalidate_remote(op.dst);
        co_await invalidate_remote(path::parent(op.dst));
    }
}

sim::Task<void>
HopsNameNode::subtree_inv_round(Op op)
{
    // Broadcast prefix INV to every caching NameNode.
    co_await network_.round_trip(net::LatencyClass::kTcp);
    if (broadcast_prefix_invalidate) {
        broadcast_prefix_invalidate(op.path);
    } else {
        invalidate(op.path, true);
    }
    co_await invalidate_remote(path::parent(op.path));
    if (op.type == OpType::kSubtreeMv || op.type == OpType::kMv) {
        co_await invalidate_remote(path::parent(op.dst));
    }
}

sim::Task<OpResult>
HopsNameNode::serve_write(const Op& op)
{
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_.acquire();
    co_await sim::delay(sim_, config_.proxy_cpu);
    cpu_.release();
    sim::SimTime cpu_wait = sim_.now() - cpu_start;

    // Path resolution rides inside the write transaction's batched query:
    // HopsFS clients keep an "INode Hint Cache" of path prefixes, so a
    // mutation needs no separate resolve round trip (§2).

    // mv of a directory relocates descendant paths: use the subtree
    // invalidation round so cached descendants cannot go stale.
    if (cache_ && ns::needs_subtree_protocol(store_.tree(), op)) {
        OpResult result = co_await serve_subtree(op);
        if (sim_.attribution()) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        }
        co_return result;
    }

    OpResult result = co_await store_write(op);
    if (sim_.attribution()) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    co_return result;
}

sim::Task<OpResult>
HopsNameNode::store_write(const Op& op)
{
    // With a cache, the INV round runs under the write's row locks.
    if (cache_) {
        return store_.write_op(op,
                               [this, &op]() { return write_inv_round(op); });
    }
    return store_.write_op(op);
}

sim::Task<OpResult>
HopsNameNode::serve_subtree(const Op& op)
{
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_.acquire();
    co_await sim::delay(sim_, config_.proxy_cpu);
    cpu_.release();
    sim::SimTime cpu_wait = sim_.now() - cpu_start;

    store::MetadataStore::SubtreeExecution exec;
    exec.per_row_nn_cost = config_.subtree_per_row_cpu;
    if (cache_) {
        exec.after_lock = [this, &op]() { return subtree_inv_round(op); };
    }
    OpResult result = co_await store_.subtree_op(op, std::move(exec));
    if (sim_.attribution()) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    }
    co_return result;
}

sim::Task<OpResult>
HopsNameNode::serve(Op op)
{
    sim::Span nn_span =
        sim_.tracer().start_span("namenode", op_name(op.type), op.trace);
    nn_span.annotate("namenode", static_cast<int64_t>(id_));
    op.trace = nn_span.context();
    co_await handlers_.acquire();
    sim::SemaphoreGuard guard(handlers_);
    requests_.add();
    OpResult result;
    if (is_read_op(op.type)) {
        result = co_await serve_read(op);
    } else if (is_subtree_op(op.type)) {
        result = co_await serve_subtree(op);
    } else {
        result = co_await serve_write(op);
    }
    co_return result;
}

}  // namespace lfs::hopsfs
