/**
 * @file
 * Device (global) memory: a byte-addressed backing store with a bump
 * allocator and a high-water-mark footprint tracker (paper Fig 11).
 *
 * Addresses are 32-bit, matching the index arithmetic the kernels perform
 * (the paper's kernels compute u32 addresses; that integer index math is a
 * large share of the instruction mix, see Obs 8).  The backing store grows
 * lazily so instantiating a GPU does not commit gigabytes of host RAM.
 */

#ifndef TANGO_SIM_MEMORY_HH
#define TANGO_SIM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace tango::sim {

/** Thrown by DeviceMemory::allocate when the request does not fit.  Like
 *  CycleCapExceeded it fails one job: an Engine worker, the serve daemon
 *  and the other jobs keep running. */
struct DeviceOutOfMemory : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The GPU's global memory: backing bytes + allocation bookkeeping. */
class DeviceMemory
{
  public:
    /** @param capacity total device memory in bytes (default 3 GiB). */
    explicit DeviceMemory(uint64_t capacity = 3ULL << 30);
    ~DeviceMemory();
    DeviceMemory(const DeviceMemory &) = delete;
    DeviceMemory &operator=(const DeviceMemory &) = delete;

    /**
     * Allocate @p bytes, 256-byte aligned (cudaMalloc-style).
     * @param label owner name recorded for error messages.
     * @return the device address of the block.
     * @throws DeviceOutOfMemory past the capacity; nothing is allocated.
     */
    uint32_t allocate(uint64_t bytes, const std::string &label = "");

    /** Release everything and reset the footprint *except* the peak. */
    void reset();

    /** Release everything including the peak footprint statistic. */
    void resetAll();

    /** @return bytes currently allocated. */
    uint64_t used() const { return top_; }

    /** @return the high-water mark of allocated bytes. */
    uint64_t peakUsed() const { return peak_; }

    /** Raw byte access used by the interpreter's Ld/St. */
    uint8_t *data() { return store_; }
    const uint8_t *data() const { return store_; }

    /** @return capacity in bytes. */
    uint64_t capacity() const { return capacity_; }

    /** @return addressable bytes (same as capacity; pages commit
     *  lazily). */
    uint64_t backed() const { return capacity_; }

    /** Typed convenience accessors (host-side setup and checking). */
    template <typename T>
    T
    read(uint32_t addr) const
    {
        T v;
        std::memcpy(&v, store_ + addr, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(uint32_t addr, T v)
    {
        std::memcpy(store_ + addr, &v, sizeof(T));
    }

    /** Copy a host buffer into device memory. */
    void copyIn(uint32_t addr, const void *src, uint64_t bytes);

    /** Copy device memory out to a host buffer. */
    void copyOut(void *dst, uint32_t addr, uint64_t bytes) const;

  private:
    uint8_t *store_ = nullptr;
    uint64_t capacity_;
    uint64_t top_ = 0;
    uint64_t peak_ = 0;
};

} // namespace tango::sim

#endif // TANGO_SIM_MEMORY_HH
