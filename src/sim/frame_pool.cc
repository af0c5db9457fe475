#include "src/sim/frame_pool.h"

#include <new>

namespace lfs::sim {

namespace {

/** Size-class granularity; requests round up to a multiple. */
constexpr std::size_t kGranule = 64;
/** Largest pooled request; bigger frames use the global allocator. */
constexpr std::size_t kMaxPooled = 4096;
/** Free bytes one size class may keep before handing frames back. */
constexpr std::size_t kRetainBytes = 256 * 1024;
constexpr std::size_t kClasses = kMaxPooled / kGranule;

/** Frames are recycled except under AddressSanitizer. */
constexpr bool kEnabled =
#if defined(__SANITIZE_ADDRESS__)
    false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    false;
#else
    true;
#endif
#else
    true;
#endif

struct FreeFrame {
    FreeFrame* next;
};

struct SizeClass {
    FreeFrame* head;
    std::size_t count;
};

/** Per-thread free lists; class i holds frames of (i + 1) granules. */
struct Lists {
    SizeClass classes[kClasses];
};

constinit thread_local Lists t_lists{};

constexpr std::size_t
class_of(std::size_t bytes)
{
    return (bytes + kGranule - 1) / kGranule - 1;
}

constexpr std::size_t
class_bytes(std::size_t cls)
{
    return (cls + 1) * kGranule;
}

}  // namespace

void*
FramePool::allocate(std::size_t bytes)
{
    if constexpr (kEnabled) {
        if (bytes != 0 && bytes <= kMaxPooled) {
            const std::size_t cls = class_of(bytes);
            SizeClass& c = t_lists.classes[cls];
            if (FreeFrame* f = c.head) {
                c.head = f->next;
                --c.count;
                return f;
            }
            return ::operator new(class_bytes(cls));
        }
    }
    return ::operator new(bytes);
}

void
FramePool::deallocate(void* p, std::size_t bytes) noexcept
{
    if constexpr (kEnabled) {
        if (bytes != 0 && bytes <= kMaxPooled) {
            const std::size_t cls = class_of(bytes);
            SizeClass& c = t_lists.classes[cls];
            if (c.count * class_bytes(cls) < kRetainBytes) {
                auto* f = static_cast<FreeFrame*>(p);
                f->next = c.head;
                c.head = f;
                ++c.count;
                return;
            }
            ::operator delete(p, class_bytes(cls));
            return;
        }
    }
    ::operator delete(p, bytes);
}

void
FramePool::trim() noexcept
{
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
        SizeClass& c = t_lists.classes[cls];
        while (FreeFrame* f = c.head) {
            c.head = f->next;
            ::operator delete(f, class_bytes(cls));
        }
        c.count = 0;
    }
}

}  // namespace lfs::sim
