#include "src/util/path.h"

#include "src/util/hash.h"

namespace lfs::path {

bool
is_valid(std::string_view p)
{
    if (p.empty() || p[0] != '/') {
        return false;
    }
    for (std::string_view c : PathView(p)) {
        if (c == "." || c == "..") {
            return false;
        }
    }
    return true;
}

std::string
normalize(std::string_view p)
{
    std::string out;
    out.reserve(p.size() + 1);
    out += '/';
    for (std::string_view c : PathView(p)) {
        if (out.size() > 1) {
            out += '/';
        }
        out += c;
    }
    return out;
}

std::vector<std::string>
split(std::string_view p)
{
    std::vector<std::string> parts;
    for (std::string_view c : PathView(p)) {
        parts.emplace_back(c);
    }
    return parts;
}

std::string
parent(std::string_view p)
{
    std::string out;
    out.reserve(p.size());
    std::string_view prev;
    bool have_prev = false;
    for (std::string_view c : PathView(p)) {
        if (have_prev) {
            out += '/';
            out += prev;
        }
        prev = c;
        have_prev = true;
    }
    if (out.empty()) {
        out = "/";
    }
    return out;
}

PathKeys
keys(std::string_view p)
{
    // One byte loop: split and hash in the same pass (the per-level
    // equivalent is child_key over PathView).
    PathKeys k;
    const size_t n = p.size();
    size_t i = 0;
    for (;;) {
        while (i < n && p[i] == '/') {
            ++i;
        }
        if (i == n) {
            return k;
        }
        uint64_t h = k.depth == 0 ? k.self : fnv1a_mix(k.self, "/");
        for (; i < n && p[i] != '/'; ++i) {
            h ^= static_cast<unsigned char>(p[i]);
            h *= kFnv1aPrime;
        }
        k.grandparent = k.parent;
        k.parent = k.self;
        k.self = h;
        ++k.depth;
    }
}

uint64_t
parent_hash(std::string_view p)
{
    return keys(p).parent;
}

bool
same(std::string_view a, std::string_view b)
{
    auto bit = PathView(b).begin();
    for (std::string_view c : PathView(a)) {
        if (bit == std::default_sentinel || *bit != c) {
            return false;
        }
        ++bit;
    }
    return bit == std::default_sentinel;
}

bool
is_root(std::string_view p)
{
    return p.find_first_not_of('/') == std::string_view::npos;
}

std::string_view
parent_view(std::string_view p)
{
    // Trim trailing slashes, the final component, then its slashes.
    size_t end = p.size();
    while (end > 0 && p[end - 1] == '/') {
        --end;
    }
    while (end > 0 && p[end - 1] != '/') {
        --end;
    }
    while (end > 1 && p[end - 1] == '/') {
        --end;
    }
    if (end <= 1) {
        return "/";
    }
    return p.substr(0, end);
}

std::string_view
basename_view(std::string_view p)
{
    std::string_view last;
    for (std::string_view c : PathView(p)) {
        last = c;
    }
    return last;
}

std::string
basename(std::string_view p)
{
    return std::string(basename_view(p));
}

std::string
join(std::string_view dir, std::string_view name)
{
    std::string out = normalize(dir);
    if (out.size() > 1) {
        out += '/';
    }
    out += name;
    return out;
}

int
depth(std::string_view p)
{
    int n = 0;
    for ([[maybe_unused]] std::string_view c : PathView(p)) {
        ++n;
    }
    return n;
}

bool
is_under(std::string_view p, std::string_view prefix)
{
    auto pit = PathView(p).begin();
    for (std::string_view pre : PathView(prefix)) {
        if (pit == std::default_sentinel || *pit != pre) {
            return false;
        }
        ++pit;
    }
    return true;
}

std::vector<std::string>
ancestors(std::string_view p)
{
    std::vector<std::string> out;
    out.emplace_back("/");
    std::string cur;
    std::string_view prev;
    bool have_prev = false;
    for (std::string_view c : PathView(p)) {
        if (have_prev) {
            cur += '/';
            cur += prev;
            out.push_back(cur);
        }
        prev = c;
        have_prev = true;
    }
    return out;
}

}  // namespace lfs::path
