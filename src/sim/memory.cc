#include "sim/memory.hh"

#include <sys/mman.h>

#include <algorithm>

#include "common/logging.hh"

namespace tango::sim {

DeviceMemory::DeviceMemory(uint64_t capacity) : capacity_(capacity)
{
    // Anonymous, lazily-committed mapping: untouched pages (e.g. weight
    // buffers in timing-only runs) cost no RAM and read as zero.
    void *p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map %llu bytes of device memory",
              static_cast<unsigned long long>(capacity_));
    store_ = static_cast<uint8_t *>(p);
    // Leave address 0 unused so a zero address can act as "null".
    top_ = 256;
    peak_ = top_;
}

DeviceMemory::~DeviceMemory()
{
    if (store_)
        ::munmap(store_, capacity_);
}

uint32_t
DeviceMemory::allocate(uint64_t bytes, const std::string &label)
{
    const uint64_t aligned = (bytes + 255) & ~uint64_t(255);
    if (bytes > capacity_ || top_ + aligned > capacity_) {
        throw DeviceOutOfMemory(
            "device out of memory allocating " + std::to_string(bytes) +
            " bytes for '" + label + "' (used " + std::to_string(top_) +
            " of " + std::to_string(capacity_) + ")");
    }
    const uint64_t addr = top_;
    top_ += aligned;
    peak_ = std::max(peak_, top_);
    return static_cast<uint32_t>(addr);
}

void
DeviceMemory::reset()
{
    top_ = 256;
}

void
DeviceMemory::resetAll()
{
    reset();
    peak_ = top_;
}

void
DeviceMemory::copyIn(uint32_t addr, const void *src, uint64_t bytes)
{
    TANGO_ASSERT(addr + bytes <= capacity_, "copyIn out of range");
    std::memcpy(store_ + addr, src, bytes);
}

void
DeviceMemory::copyOut(void *dst, uint32_t addr, uint64_t bytes) const
{
    TANGO_ASSERT(addr + bytes <= capacity_, "copyOut out of range");
    std::memcpy(dst, store_ + addr, bytes);
}

} // namespace tango::sim
