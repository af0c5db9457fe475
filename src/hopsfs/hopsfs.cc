#include "src/hopsfs/hopsfs.h"

#include <algorithm>

#include "src/util/path.h"

namespace lfs::hopsfs {

HopsFs::HopsFs(sim::Simulation& sim, HopsFsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      store_(sim, network_, rng_.fork(), config.store),
      metrics_(sim.metrics(), config.label)
{
    HopsNameNodeConfig nn_config = config_.name_node;
    nn_config.cache_bytes = config_.cache_bytes_per_nn;
    for (int i = 0; i < config_.num_name_nodes; ++i) {
        name_nodes_.push_back(std::make_unique<HopsNameNode>(
            sim_, network_, store_, rng_.fork(), nn_config, i));
        ring_.add_member(i);
    }
    for (auto& nn : name_nodes_) {
        nn->peer_for_path = [this](const std::string& p) {
            return &owner_for(p);
        };
        nn->broadcast_prefix_invalidate = [this](const std::string& prefix) {
            for (auto& peer : name_nodes_) {
                peer->invalidate(prefix, true);
            }
        };
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(std::make_unique<HopsClient>(*this, i, rng_.fork()));
    }
}

HopsFs::~HopsFs() = default;

HopsNameNode&
HopsFs::owner_for(const std::string& p)
{
    return *name_nodes_[static_cast<size_t>(
        ring_.lookup(path::parent(p)))];
}

HopsNameNode&
HopsFs::nth(int index)
{
    return *name_nodes_[static_cast<size_t>(index) % name_nodes_.size()];
}

double
HopsFs::cost_so_far() const
{
    double total_vcpus =
        config_.name_node.vcpus * static_cast<double>(config_.num_name_nodes);
    return cost::vm_cost(total_vcpus, sim_.now());
}

HopsClient::HopsClient(HopsFs& fs, int id, sim::Rng rng)
    : fs_(fs), id_(id), rng_(rng), rr_cursor_(id)
{
}

sim::Task<OpResult>
HopsClient::execute(Op op)
{
    op.op_id = (static_cast<uint64_t>(id_ + 1) << 40) | 0;
    sim::Span op_span =
        fs_.simulation().tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(id_));
    op.trace = op_span.context();
    sim::Simulation& sim = fs_.simulation();
    sim::RetryLedger ledger(sim.attribution());
    OpResult result;
    for (int attempt = 1; attempt <= fs_.config().max_attempts; ++attempt) {
        sim::SimTime attempt_start = sim.now();
        // +Cache clients route deterministically by partition so exactly
        // one NameNode caches each directory; vanilla clients spread
        // requests round-robin.
        HopsNameNode& nn = fs_.cached() ? fs_.owner_for(op.path)
                                        : fs_.nth(rr_cursor_++);
        // Subtree operations legitimately run for many seconds (Table 3).
        sim::SimTime timeout = is_subtree_op(op.type)
                                   ? sim::sec(1800)
                                   : fs_.config().request_timeout;
        sim::Task<OpResult> round = fs_.network().client_round(
            [&nn, op]() mutable { return nn.serve(std::move(op)); });
        result = co_await sim::race_timeout(sim, timeout, client_timeout,
                                            std::move(round));
        const bool failed = retryable_code(result.status.code());
        ledger.fold(result.ledger, sim.now() - attempt_start, failed);
        if (!failed) {
            co_return result;
        }
        // Brief jittered pause before resubmitting.
        sim::SimTime pause =
            rng_.uniform_duration(sim::msec(10), sim::msec(50));
        co_await sim::delay(sim, pause);
        ledger.backoff(pause);
    }
    ledger.settle(result.ledger);
    co_return result;
}

}  // namespace lfs::hopsfs
