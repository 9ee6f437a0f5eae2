/**
 * @file
 * Tensor and device-memory unit tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "nn/tensor.hh"
#include "sim/memory.hh"

namespace tango {
namespace {

TEST(Tensor, ShapeAndSize)
{
    nn::Tensor t({3, 4, 5});
    EXPECT_EQ(t.size(), 60u);
    EXPECT_EQ(t.bytes(), 240u);
    EXPECT_EQ(t.dim(0), 3u);
    EXPECT_EQ(t.dim(1), 4u);
    EXPECT_EQ(t.dim(2), 5u);
    EXPECT_EQ(t.dim(7), 1u);   // missing dims read as 1
    EXPECT_EQ(t.shapeStr(), "3x4x5");
}

TEST(Tensor, ZeroInitialized)
{
    nn::Tensor t({10});
    for (uint64_t i = 0; i < t.size(); i++)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, At3AndAt4RowMajor)
{
    nn::Tensor t({2, 3, 4});
    t.at(1, 2, 3) = 7.0f;
    EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);

    nn::Tensor w({2, 3, 4, 5});
    w.at4(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(w[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, Argmax)
{
    nn::Tensor t({5});
    t[3] = 2.5f;
    t[1] = 1.0f;
    EXPECT_EQ(t.argmax(), 3u);
}

TEST(Tensor, EmptyDefault)
{
    nn::Tensor t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.shapeStr(), "scalar");
}

TEST(DeviceMemory, AllocateAligned)
{
    sim::DeviceMemory mem(1 << 20);
    const uint32_t a = mem.allocate(100);
    const uint32_t b = mem.allocate(1);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_EQ(b - a, 256u);
}

TEST(DeviceMemory, PeakTracksHighWater)
{
    sim::DeviceMemory mem(1 << 20);
    mem.allocate(1000);
    const uint64_t peak1 = mem.peakUsed();
    mem.reset();
    EXPECT_EQ(mem.peakUsed(), peak1);   // reset keeps the peak
    mem.allocate(100);
    EXPECT_EQ(mem.peakUsed(), peak1);
    mem.resetAll();
    EXPECT_LT(mem.peakUsed(), peak1);
}

TEST(DeviceMemory, ReadWriteRoundTrip)
{
    sim::DeviceMemory mem(1 << 20);
    const uint32_t a = mem.allocate(64);
    mem.write<float>(a, 3.5f);
    mem.write<uint32_t>(a + 4, 42);
    EXPECT_EQ(mem.read<float>(a), 3.5f);
    EXPECT_EQ(mem.read<uint32_t>(a + 4), 42u);
}

TEST(DeviceMemory, CopyInOut)
{
    sim::DeviceMemory mem(1 << 20);
    const uint32_t a = mem.allocate(64);
    float src[4] = {1, 2, 3, 4};
    mem.copyIn(a, src, sizeof(src));
    float dst[4] = {};
    mem.copyOut(dst, a, sizeof(dst));
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(dst[i], src[i]);
}

TEST(DeviceMemory, UntouchedPagesReadZero)
{
    sim::DeviceMemory mem(1 << 20);
    const uint32_t a = mem.allocate(4096);
    EXPECT_EQ(mem.read<uint64_t>(a + 1000), 0u);
}

TEST(DeviceMemory, OutOfMemoryThrowsAndAllocatesNothing)
{
    sim::DeviceMemory mem(1 << 20);
    const uint32_t first = mem.allocate(1000, "a");
    const uint64_t used = mem.used();
    try {
        mem.allocate(1 << 20, "too.big");
        FAIL() << "an allocation past the capacity succeeded";
    } catch (const sim::DeviceOutOfMemory &err) {
        EXPECT_EQ(std::string(err.what()),
                  "device out of memory allocating 1048576 bytes for "
                  "'too.big' (used " +
                      std::to_string(used) + " of 1048576)");
    }
    EXPECT_THROW(mem.allocate(~0ull, "wraps"), sim::DeviceOutOfMemory);
    EXPECT_EQ(mem.used(), used);
    EXPECT_GT(mem.allocate(1000, "b"), first);
}

} // namespace
} // namespace tango
