#include "src/coord/coordinator.h"

#include <algorithm>

#include "src/util/path.h"

namespace lfs::coord {

Coordinator::Coordinator(sim::Simulation& sim, net::Network& network,
                         CoordinatorConfig config)
    : sim_(sim),
      network_(network),
      config_(config),
      invs_(sim.metrics().counter("coord.invs")),
      rounds_(sim.metrics().counter("coord.rounds")),
      retransmits_(sim.metrics().counter("coord.retransmits"))
{
}

void
Coordinator::join(int group, CacheMember* member)
{
    auto& members = groups_[group];
    if (std::find(members.begin(), members.end(), member) == members.end()) {
        members.push_back(member);
    }
}

void
Coordinator::leave(int group, CacheMember* member)
{
    auto it = groups_.find(group);
    if (it == groups_.end()) {
        return;
    }
    auto& members = it->second;
    members.erase(std::remove(members.begin(), members.end(), member),
                  members.end());
}

size_t
Coordinator::group_size(int group) const
{
    auto it = groups_.find(group);
    return it == groups_.end() ? 0 : it->second.size();
}

size_t
Coordinator::total_members() const
{
    size_t total = 0;
    for (const auto& [group, members] : groups_) {
        total += members.size();
    }
    return total;
}

sim::Task<void>
Coordinator::deliver_duplicate(CacheMember* member, InvTarget target)
{
    co_await network_.transfer(net::LatencyClass::kCoord);
    if (member->member_alive()) {
        co_await member->deliver_invalidation(target.path, target.key,
                                              target.subtree);
    }
}

sim::Task<void>
Coordinator::deliver_one(CacheMember* member, const InvTarget& target,
                         sim::WaitGroup* wg)
{
    sim::SimTime backoff = config_.ack_timeout;
    // A dead member is excused: it can't serve stale cache reads.
    while (member->member_alive()) {
        auto inv_fault = network_.message_fault(
            sim::FaultChannel::kCoordInv, sim::MessageDirection::kRequest,
            target.group);
        if (inv_fault.duplicate) {
            sim::spawn(deliver_duplicate(member, target));
        }
        // INV hop to the member (the leader pays the latency whether or
        // not the message survives — it learns of a loss only via the
        // ack timeout).
        co_await network_.transfer(net::LatencyClass::kCoord);
        if (!inv_fault.drop) {
            invs_.add();
            // A member that terminated mid-protocol is excused from ACKing.
            if (!member->member_alive()) {
                break;
            }
            co_await member->deliver_invalidation(target.path, target.key,
                                                  target.subtree);
            auto ack_fault = network_.message_fault(
                sim::FaultChannel::kCoordAck, sim::MessageDirection::kReply,
                target.group);
            // ACK hop back to the leader.
            co_await network_.transfer(net::LatencyClass::kCoord);
            if (!ack_fault.drop) {
                break;
            }
        }
        // Ack timeout elapsed with no ACK: retransmit with backoff. The
        // loop is bounded in practice by the member dying or the fault /
        // partition window closing; invalidation delivery is idempotent,
        // so an ACK lost after a successful delivery only costs time.
        retransmits_.add();
        co_await sim::delay(sim_, backoff);
        backoff = std::min(backoff * 2, config_.retransmit_backoff_max);
    }
    wg->done();
}

sim::Task<void>
Coordinator::invalidate(std::vector<InvTarget> targets, CacheMember* exclude,
                        sim::TraceContext ctx)
{
    rounds_.add();
    sim::Span round_span =
        sim_.tracer().start_span("coord", "inv_round", ctx);
    round_span.annotate("targets", static_cast<int64_t>(targets.size()));
    sim::WaitGroup wg(sim_);
    for (InvTarget& target : targets) {
        auto it = groups_.find(target.group);
        if (it == groups_.end()) {
            continue;
        }
        // The members registered now get the INV: one joining later
        // reads the post-write state from the store. Spawning leaves the
        // group as it is — a delivery runs only up to its first hop
        // before the next one starts — so no snapshot copy is needed.
        target.key = path::keys(target.path).self;
        const std::vector<CacheMember*>& members = it->second;
        for (CacheMember* member : members) {
            if (member == exclude) {
                continue;
            }
            wg.add();
            // Every hop reads the round's own copy of the target.
            sim::spawn(deliver_one(member, target, &wg));
        }
    }
    co_await wg.wait();
}

}  // namespace lfs::coord
