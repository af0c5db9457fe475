/**
 * @file
 * Run the same closed-loop read microbenchmark against λFS, HopsFS,
 * HopsFS+Cache, InfiniCache, and the CephFS-like baseline, and print a
 * small comparison table — a miniature of the paper's Figure 11.
 *
 *   ./build/examples/example_baseline_comparison
 */
#include <cstdio>
#include <memory>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/hopsfs/hopsfs.h"
#include "src/infinicache/infinicache.h"
#include "src/namespace/tree_builder.h"
#include "src/workload/microbench.h"

using namespace lfs;

namespace {

ns::BuiltTree
demo_tree(ns::NamespaceTree& tree)
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 3;
    spec.fanout = 6;
    spec.files_per_dir = 6;
    return ns::build_balanced_tree(tree, spec, {}, 0);
}

void
report(const char* label, const workload::MicrobenchResult& r)
{
    std::printf("  %-14s %12.0f ops/s %10.2f ms mean %10.2f ms p99\n",
                label, r.ops_per_sec, r.mean_latency_ms, r.p99_latency_ms);
}

}  // namespace

int
main()
{
    const int clients = 128;
    const int ops = 128;
    workload::MicrobenchConfig mcfg;
    mcfg.op = OpType::kReadFile;
    mcfg.num_clients = clients;
    mcfg.ops_per_client = ops;

    std::printf("read microbenchmark: %d clients x %d ops, 128 vCPUs\n\n",
                clients, ops);
    {
        sim::Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 128.0;
        config.function.vcpus = 4.0;
        config.num_deployments = 8;
        config.clients_per_vm = clients / 8;
        core::LambdaFs fs(sim, config);
        report("lambda-fs", workload::run_microbench(
                                sim, fs, demo_tree(fs.authoritative_tree()),
                                mcfg));
    }
    {
        sim::Simulation sim;
        hopsfs::HopsFsConfig config;
        config.num_name_nodes = 8;
        config.clients_per_vm = clients / 8;
        hopsfs::HopsFs fs(sim, config);
        report("hopsfs", workload::run_microbench(
                             sim, fs, demo_tree(fs.authoritative_tree()),
                             mcfg));
    }
    {
        sim::Simulation sim;
        hopsfs::HopsFsConfig config;
        config.label = "hopsfs+cache";
        config.num_name_nodes = 8;
        config.cache_bytes_per_nn = 1ull << 30;
        config.clients_per_vm = clients / 8;
        hopsfs::HopsFs fs(sim, config);
        report("hopsfs+cache", workload::run_microbench(
                                   sim, fs,
                                   demo_tree(fs.authoritative_tree()), mcfg));
    }
    {
        sim::Simulation sim;
        infinicache::InfiniCacheConfig config;
        config.num_functions = 16;
        config.total_vcpus = 128.0;
        config.clients_per_vm = clients / 8;
        infinicache::InfiniCacheFs fs(sim, config);
        report("infinicache", workload::run_microbench(
                                  sim, fs,
                                  demo_tree(fs.authoritative_tree()), mcfg));
    }
    {
        sim::Simulation sim;
        cephfs::CephFsConfig config;
        config.clients_per_vm = clients / 8;
        cephfs::CephFs fs(sim, config);
        report("cephfs", workload::run_microbench(
                             sim, fs, demo_tree(fs.authoritative_tree()),
                             mcfg));
    }
    std::printf("\n(the full sweeps live in build/bench/bench_fig11_* and "
                "bench_fig12_*)\n");
    return 0;
}
