#include "src/core/partitioning.h"

#include "src/util/path.h"

namespace lfs::core {

NamespacePartitioner::NamespacePartitioner(int num_deployments, int vnodes)
    : num_deployments_(num_deployments), ring_(vnodes)
{
    for (int d = 0; d < num_deployments; ++d) {
        ring_.add_member(d);
    }
}

int
NamespacePartitioner::deployment_for(std::string_view p) const
{
    // Same as ring_.lookup(path::parent(p)), minus the parent string.
    return deployment_for_parent(path::parent_hash(p));
}

std::vector<int>
NamespacePartitioner::all_deployments() const
{
    std::vector<int> out(static_cast<size_t>(num_deployments_));
    for (int d = 0; d < num_deployments_; ++d) {
        out[static_cast<size_t>(d)] = d;
    }
    return out;
}

}  // namespace lfs::core
