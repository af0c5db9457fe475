/**
 * @file
 * Fault-tolerance demo (§3.6, §5.6): a steady read workload runs while a
 * NameNode is killed every few seconds. Requests in flight on a killed
 * instance vanish (reclaimed containers never answer); the client-side
 * straggler-mitigation timeout detects the silence and transparently
 * resubmits — over a surviving connection when one exists, over HTTP
 * otherwise — and the platform replaces the lost instance.
 *
 *   ./build/examples/example_fault_tolerance_demo
 */
#include <cstdio>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/fault.h"
#include "src/sim/simulation.h"

using namespace lfs;

namespace {

sim::Task<void>
co_reader(sim::Simulation& sim, core::LambdaFs& fs, size_t client,
          std::vector<std::string> files, sim::Rng rng, bool& stop,
          int64_t& completed, int64_t& failed)
{
    while (!stop) {
        Op op;
        op.type = OpType::kStat;
        op.path = files[rng.index(files.size())];
        OpResult result = co_await fs.client(client).execute(op);
        if (result.status.ok()) {
            ++completed;
        } else {
            ++failed;
        }
        co_await sim::delay(sim, sim::msec(rng.uniform_int(1, 8)));
    }
}

}  // namespace

int
main()
{
    sim::Simulation sim;
    core::LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 16;
    core::LambdaFs fs(sim, config);
    auto built = ns::build_flat_directory(fs.authoritative_tree(), "/data",
                                          400, {}, 0);
    sim.run_until(sim::sec(3));

    bool stop = false;
    int64_t completed = 0;
    int64_t failed = 0;
    sim::Rng rng(3);
    for (size_t c = 0; c < fs.client_count(); ++c) {
        sim::spawn(co_reader(sim, fs, c, built.files, rng.fork(), stop,
                             completed, failed));
    }
    sim::FaultPlan plan(sim, 1);
    plan.add_kill_schedule(sim::sec(8), sim::sec(60), [&fs](int round) {
        bool killed = fs.kill_name_node(
            round % fs.platform().deployment_count());
        std::printf("        >>> killed a NameNode in deployment %d\n",
                    round % fs.platform().deployment_count());
        return killed;
    });

    std::printf("t(s)  completed/s   NameNodes  resubmissions  timeouts\n");
    int64_t prev = 0;
    uint64_t prev_resub = 0;
    uint64_t prev_to = 0;
    for (int t = 5; t <= 70; t += 5) {
        sim.run_until(sim::sec(t));
        uint64_t resub = 0;
        uint64_t timeouts = 0;
        for (size_t c = 0; c < fs.client_count(); ++c) {
            resub += fs.lfs_client(c).resubmissions();
            timeouts += fs.lfs_client(c).timeouts();
        }
        std::printf("%-5d %11.0f %11d %14llu %9llu\n", t,
                    static_cast<double>(completed - prev) / 5.0,
                    fs.active_name_nodes(),
                    static_cast<unsigned long long>(resub - prev_resub),
                    static_cast<unsigned long long>(timeouts - prev_to));
        prev = completed;
        prev_resub = resub;
        prev_to = timeouts;
    }
    stop = true;
    sim.run_until(sim.now() + sim::sec(30));
    std::printf("\ntotal: %lld completed, %lld failed after retries; "
                "%llu kills survived\n",
                static_cast<long long>(completed),
                static_cast<long long>(failed),
                static_cast<unsigned long long>(plan.kills()));
    return 0;
}
