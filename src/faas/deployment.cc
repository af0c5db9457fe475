#include "src/faas/deployment.h"

#include <cassert>
#include <utility>

#include "src/sim/log.h"

namespace lfs::faas {

FunctionDeployment::FunctionDeployment(sim::Simulation& sim,
                                       net::Network& network,
                                       ResourcePool& pool, sim::Rng rng,
                                       int id, std::string name,
                                       FunctionConfig config,
                                       AppFactory factory)
    : sim_(sim),
      network_(network),
      pool_(pool),
      rng_(rng),
      id_(id),
      name_(std::move(name)),
      config_(config),
      factory_(std::move(factory)),
      cold_starts_(
          sim.metrics().counter("faas.cold_starts", {{"deployment", name_}})),
      reclamations_(
          sim.metrics().counter("faas.reclamations", {{"deployment", name_}})),
      gateway_invocations_(sim.metrics().counter("faas.gateway_invocations",
                                                 {{"deployment", name_}})),
      shed_queue_full_(sim.metrics().counter(
          "faas.shed", {{"deployment", name_}, {"reason", "queue_full"}})),
      shed_expired_(sim.metrics().counter(
          "faas.shed", {{"deployment", name_}, {"reason", "expired"}})),
      shed_sojourn_(sim.metrics().counter(
          "faas.shed", {{"deployment", name_}, {"reason", "sojourn"}})),
      queue_sojourn_(sim.metrics().histogram("faas.queue_sojourn",
                                             {{"deployment", name_}}))
{
}

FunctionInstance*
FunctionDeployment::find_http_slot()
{
    // Prefer the warm instance with the fewest in-flight requests; fall
    // back to a provisioning (cold-starting) instance with a free slot.
    FunctionInstance* best = nullptr;
    FunctionInstance* cold = nullptr;
    for (auto& inst : instances_) {
        if (!inst->http_slot_available()) {
            continue;
        }
        if (inst->warm()) {
            if (!best || inst->inflight() + inst->http_inflight() <
                             best->inflight() + best->http_inflight()) {
                best = inst.get();
            }
        } else if (!cold) {
            cold = inst.get();
        }
    }
    return best ? best : cold;
}

FunctionInstance*
FunctionDeployment::try_scale_out(bool cold)
{
    if (max_instances_ > 0 && alive_count_ >= max_instances_) {
        return nullptr;
    }
    if (!pool_.try_allocate(config_.vcpus)) {
        return nullptr;
    }
    int instance_id = next_instance_id_++;
    auto instance = std::make_unique<FunctionInstance>(
        sim_, rng_.fork(), id_, instance_id, config_, factory_,
        [this](FunctionInstance& inst) { handle_instance_dead(inst); });
    FunctionInstance* raw = instance.get();
    raw->on_request_done = [this] { drain_queue(); };
    instances_.push_back(std::move(instance));
    ++alive_count_;
    if (cold) {
        cold_starts_.add();
    }
    raw->start_cold();
    sim::spawn(watch_warm(raw));
    LFS_DEBUG(sim_, "faas", "deployment " << name_ << " scale-out to "
                                          << alive_count_ << " instances");
    return raw;
}

sim::Task<void>
FunctionDeployment::watch_warm(FunctionInstance* inst)
{
    // Membership + queue service once the instance warms up.
    co_await inst->warm_gate().wait();
    if (inst->alive() && on_instance_warm) {
        on_instance_warm(*inst);
    }
    drain_queue();
}

void
FunctionDeployment::prewarm(int n)
{
    for (int i = 0; i < n; ++i) {
        try_scale_out(/*cold=*/false);
    }
}

void
FunctionDeployment::drain_queue()
{
    while (!wait_queue_.empty()) {
        // Expired-in-queue / CoDel shedding at dequeue: resolve the head's
        // cell to nullptr (the waiter classifies the rejection) before
        // spending a slot — or a cold start — on doomed work.
        QueuedInvocation& head = wait_queue_.front();
        if (head.deadline >= 0 && sim_.now() >= head.deadline) {
            shed_expired_.add();
            head.cell->try_set(nullptr);
            wait_queue_.pop_front();
            continue;
        }
        if (config_.queue_sojourn_limit > 0 &&
            sim_.now() - head.enqueued > config_.queue_sojourn_limit) {
            shed_sojourn_.add();
            head.cell->try_set(nullptr);
            wait_queue_.pop_front();
            continue;
        }
        FunctionInstance* inst = find_http_slot();
        if (!inst) {
            inst = try_scale_out(/*cold=*/true);
        }
        if (!inst) {
            break;  // at capacity: requests stay queued
        }
        QueuedInvocation entry = wait_queue_.front();
        wait_queue_.pop_front();
        queue_sojourn_.record(sim_.now() - entry.enqueued);
        inst->reserve_http_slot();
        entry.cell->try_set(inst);
    }
}

Status
FunctionDeployment::admit(const Op& op, sim::Span& gateway_span)
{
    if (config_.max_queue_depth > 0 &&
        wait_queue_.size() >= static_cast<size_t>(config_.max_queue_depth)) {
        shed_queue_full_.add();
        gateway_span.annotate("shed", "queue_full");
        return Status::resource_exhausted("gateway queue full: " + name_);
    }
    if (op_expired(op, sim_.now())) {
        shed_expired_.add();
        gateway_span.annotate("shed", "expired");
        return Status::deadline_exceeded("expired at gateway");
    }
    return Status::make_ok();
}

sim::Task<OpResult>
FunctionDeployment::invoke_via_gateway(Invocation inv)
{
    gateway_invocations_.add();
    sim::Span gateway_span =
        sim_.tracer().start_span("faas", "gateway", inv.op.trace);
    gateway_span.annotate("deployment", name_);
    inv.op.trace = gateway_span.context();
    const bool attr = sim_.attribution();
    sim::LatencyLedger led;
    sim::SimTime t0 = sim_.now();
    co_await network_.transfer(net::LatencyClass::kHttpGateway);
    if (attr) {
        led.add(sim::LatSeg::kNetGateway, sim_.now() - t0);
    }
    // Admission control at the gateway: bound the queue and refuse work
    // that is already past its deadline, paying only the HTTP round trip.
    Status refused = admit(inv.op, gateway_span);
    FunctionInstance* inst = nullptr;
    if (refused.ok()) {
        sim::Span queue_span = sim_.tracer().start_span(
            "faas", "queue_wait", gateway_span.context());
        auto cell = std::make_shared<sim::OneShot<FunctionInstance*>>(sim_);
        sim::SimTime enqueued = sim_.now();
        wait_queue_.push_back(
            QueuedInvocation{cell, enqueued, inv.op.deadline});
        drain_queue();
        inst = co_await cell->wait();
        if (attr) {
            led.add(sim::LatSeg::kGatewayQueue, sim_.now() - enqueued);
        }
        if (inst == nullptr) {
            // Shed while queued (drain_queue resolved the cell to nullptr).
            bool expired = op_expired(inv.op, sim_.now());
            queue_span.annotate("shed", expired ? "expired" : "sojourn");
            refused = expired
                          ? Status::deadline_exceeded("expired in gateway queue")
                          : Status::resource_exhausted(
                                "shed from gateway queue: " + name_);
        }
        queue_span.end();
    }
    if (!refused.ok()) {
        t0 = sim_.now();
        co_await network_.transfer(net::LatencyClass::kHttpGateway);
        if (attr) {
            led.add(sim::LatSeg::kNetGateway, sim_.now() - t0);
        }
        co_return error_result(std::move(refused), attr, led);
    }
    OpResult result = co_await inst->serve_http(std::move(inv));
    t0 = sim_.now();
    co_await network_.transfer(net::LatencyClass::kHttpGateway);
    if (attr) {
        led.add(sim::LatSeg::kNetGateway, sim_.now() - t0);
        result.ledger.merge(led);
    }
    co_return result;
}

void
FunctionDeployment::handle_instance_dead(FunctionInstance& instance)
{
    pool_.release(config_.vcpus);
    --alive_count_;
    assert(alive_count_ >= 0);
    reclamations_.add();
    if (on_instance_dead) {
        on_instance_dead(instance);
    }
    // Queued work may now be servable by a replacement instance.
    sim_.schedule(0, [this] { drain_queue(); });
}

int
FunctionDeployment::warm_count() const
{
    int count = 0;
    for (const auto& inst : instances_) {
        if (inst->warm()) {
            ++count;
        }
    }
    return count;
}

std::vector<FunctionInstance*>
FunctionDeployment::alive_instances() const
{
    std::vector<FunctionInstance*> out;
    for (const auto& inst : instances_) {
        if (inst->alive()) {
            out.push_back(inst.get());
        }
    }
    return out;
}

FunctionInstance*
FunctionDeployment::kill_one()
{
    if (instances_.empty()) {
        return nullptr;
    }
    // Round-robin over the instance list, skipping dead entries.
    for (size_t probe = 0; probe < instances_.size(); ++probe) {
        FunctionInstance* inst =
            instances_[kill_cursor_++ % instances_.size()].get();
        if (inst->alive()) {
            inst->kill();
            return inst;
        }
    }
    return nullptr;
}

sim::SimTime
FunctionDeployment::total_busy_time() const
{
    sim::SimTime total = 0;
    for (const auto& inst : instances_) {
        total += inst->busy_time();
    }
    return total;
}

sim::SimTime
FunctionDeployment::total_provisioned_time() const
{
    sim::SimTime total = 0;
    for (const auto& inst : instances_) {
        total += inst->provisioned_time();
    }
    return total;
}

double
FunctionDeployment::total_busy_gb_us() const
{
    double total = 0;
    for (const auto& inst : instances_) {
        total += static_cast<double>(inst->busy_time()) * config_.memory_gb;
    }
    return total;
}

uint64_t
FunctionDeployment::total_requests() const
{
    uint64_t total = 0;
    for (const auto& inst : instances_) {
        total += inst->requests_served();
    }
    return total;
}

}  // namespace lfs::faas
