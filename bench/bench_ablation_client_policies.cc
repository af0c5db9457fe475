/**
 * @file
 * Ablation — client-side resilience policies (Appendices B and C):
 * straggler mitigation and anti-thrashing, evaluated under fault
 * injection (straggler mitigation trims tail latency when NameNodes die
 * mid-request).
 */
#include <cstdio>
#include <memory>

#include "common/harness.h"
#include "src/sim/fault.h"
#include "src/workload/microbench.h"

namespace lfs::bench {
namespace {

struct Policy {
    const char* label;
    bool straggler;
    bool anti_thrash;
};

void
run_ablation()
{
    const double vcpus = env_double("LFS_VCPUS", 256.0);
    const int clients = env_int("LFS_CLIENTS", 256);
    Policy policies[] = {
        {"both on (default)", true, true},
        {"no straggler mitigation", false, true},
        {"no anti-thrashing", true, false},
        {"both off", false, false},
    };

    std::printf("\n  with one NameNode killed every 5 s:\n");
    std::printf("  %-26s %12s %12s %12s %12s\n", "policy", "ops/sec",
                "mean ms", "p99 ms", "failed");
    for (const Policy& policy : policies) {
        sim::Simulation sim;
        ScopedRunObservation obs(sim, std::string("policy/") + policy.label);
        core::LambdaFsConfig config = make_lambda_config(vcpus, 8,
                                                         clients / 8);
        config.client.straggler_mitigation = policy.straggler;
        config.client.anti_thrashing = policy.anti_thrash;
        core::LambdaFs fs(sim, config);
        ns::BuiltTree tree = build_bench_tree(fs.authoritative_tree());
        sim::FaultPlan plan(sim, 1);
        plan.add_kill_schedule(sim::sec(5), sim::sec(3600), [&fs](int round) {
            return fs.kill_name_node(round %
                                     fs.platform().deployment_count());
        });
        workload::MicrobenchConfig mcfg;
        mcfg.op = OpType::kReadFile;
        mcfg.num_clients = clients;
        mcfg.ops_per_client = ops_per_client();
        workload::MicrobenchResult r =
            workload::run_microbench(sim, fs, std::move(tree), mcfg);
        std::printf("  %-26s %12.0f %12.2f %12.2f %12lld\n", policy.label,
                    r.ops_per_sec, r.mean_latency_ms, r.p99_latency_ms,
                    static_cast<long long>(r.failed));
    }
    std::printf("\n  (straggler mitigation resubmits requests stuck on dead "
                "NameNodes early,\n   cutting p99; Appendix B)\n");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner(
        "Ablation", "Client policies: straggler mitigation / anti-thrashing");
    lfs::bench::run_ablation();
    return 0;
}
