/**
 * @file
 * Executed-instruction records and the bounded per-warp rings that carry
 * them from the functional front end (sim/frontend.hh) to the SM cycle
 * loop (sim/core.hh).
 *
 * A record is a run of 32-bit words, written in place by WarpExec:
 *
 *   [0]  pc of the executed instruction
 *   [1]  pc the warp continues at (after reconvergence), or kRetired
 *   [2]  active lanes | address words << 8 | bank serialization << 16 |
 *        flags << 24 (kControlTransfer, kConstBroadcast)
 *   [3, 3 + address words)  Global: the coalesced 128-byte segment
 *        bases, in first-appearance order; Const: lane 0's address
 *   then, on retirement only, the warp's stream digest (low, high word)
 *
 * Everything static about the instruction (opcode, type, unit, latency,
 * register operands, memory space) is DecodedInstr[pc].
 *
 * A ring holds kRingWords words.  The producer publishes its write
 * position and the consumer its read position, each with release order,
 * so a record is complete before the consumer sees it and a slot is free
 * before the producer reuses it.  A record never wraps: when fewer than
 * kMaxRecordWords words are left before the end of the storage, the
 * producer writes a kPad word there and starts the record at word 0.
 */

#ifndef TANGO_SIM_RECORD_HH
#define TANGO_SIM_RECORD_HH

#include <atomic>
#include <cstdint>

namespace tango::sim {

namespace rec {

/** Word [1] of a warp's last record. */
inline constexpr uint32_t kRetired = ~0u;
/** Word [0] of a pad: the next record starts at word 0 of the ring. */
inline constexpr uint32_t kPad = ~0u;
/** Flag bits of word [2] (shifted by 24). */
inline constexpr uint32_t kControlTransfer = 1;
inline constexpr uint32_t kConstBroadcast = 2;

inline constexpr uint32_t kHeaderWords = 3;
/** Largest record: a 32-segment access of a retiring instruction. */
inline constexpr uint32_t kMaxRecordWords = kHeaderWords + 32 + 2;

inline uint32_t pc(const uint32_t *r) { return r[0]; }
inline bool retired(const uint32_t *r) { return r[1] == kRetired; }
inline uint32_t nextPc(const uint32_t *r) { return r[1]; }
inline uint32_t activeCount(const uint32_t *r) { return r[2] & 0xff; }
inline uint32_t addrWords(const uint32_t *r) { return (r[2] >> 8) & 0xff; }
inline uint32_t sharedSerialization(const uint32_t *r)
{
    return (r[2] >> 16) & 0xff;
}
inline bool controlTransfer(const uint32_t *r)
{
    return (r[2] >> 24) & kControlTransfer;
}
inline bool constBroadcast(const uint32_t *r)
{
    return (r[2] >> 24) & kConstBroadcast;
}
inline const uint32_t *addrs(const uint32_t *r) { return r + kHeaderWords; }
/** @return the stream digest a retiring record carries. */
inline uint64_t digest(const uint32_t *r)
{
    const uint32_t *d = r + kHeaderWords + addrWords(r);
    return uint64_t(d[0]) | uint64_t(d[1]) << 32;
}
/** @return the record's length in words. */
inline uint32_t words(const uint32_t *r)
{
    return kHeaderWords + addrWords(r) + (retired(r) ? 2 : 0);
}

/** Word [2] from its fields. */
inline uint32_t pack(uint32_t active, uint32_t addr_words, uint32_t ser,
                     uint32_t flags)
{
    return active | addr_words << 8 | ser << 16 | flags << 24;
}

} // namespace rec

/** Words of one per-warp ring (a power of two). */
inline constexpr uint32_t kRingWords = 2048;
inline constexpr uint32_t kRingMask = kRingWords - 1;

/** One warp's single-producer, single-consumer record ring.  Positions
 *  are free-running word counts (unsigned wrap-around arithmetic). */
struct RecordRing
{
    /** End of the records the producer has published. */
    alignas(64) std::atomic<uint32_t> write{0};
    /** End of the records the consumer has released. */
    alignas(64) std::atomic<uint32_t> read{0};
    alignas(64) uint32_t words[kRingWords];
};

/** The producer's cursor into one ring; WarpExec writes through it. */
class RingWriter
{
  public:
    /** Start writing @p ring, which the consumer has fully released. */
    void reset(RecordRing *ring)
    {
        ring_ = ring;
        pos_ = readSeen_ = ring->write.load(std::memory_order_relaxed);
    }

    /** Allow at most @p words more words before reserve() refuses. */
    void setBudget(uint32_t words) { budgetEnd_ = pos_ + words; }

    /** @return where the next record goes (kMaxRecordWords contiguous
     *  words), or nullptr when the ring is full or the budget spent. */
    uint32_t *reserve()
    {
        const uint32_t off = pos_ & kRingMask;
        const uint32_t skip =
            kRingWords - off < rec::kMaxRecordWords ? kRingWords - off : 0;
        const uint32_t end = pos_ + skip + rec::kMaxRecordWords;
        if (static_cast<int32_t>(pos_ - budgetEnd_) >= 0)
            return nullptr;
        if (end - readSeen_ > kRingWords) {
            readSeen_ = ring_->read.load(std::memory_order_acquire);
            if (end - readSeen_ > kRingWords)
                return nullptr;
        }
        if (skip) {
            ring_->words[off] = rec::kPad;
            pos_ += skip;
        }
        return &ring_->words[pos_ & kRingMask];
    }

    /** Close the record reserve() returned, @p words long. */
    void commit(uint32_t words) { pos_ += words; }

    /** Make every committed record visible to the consumer.
     *  @return whether there was anything new. */
    bool publish()
    {
        if (ring_->write.load(std::memory_order_relaxed) == pos_)
            return false;
        ring_->write.store(pos_, std::memory_order_release);
        return true;
    }

  private:
    RecordRing *ring_ = nullptr;
    uint32_t pos_ = 0;        ///< end of the last committed record
    uint32_t readSeen_ = 0;   ///< last read position loaded
    uint32_t budgetEnd_ = 0;
};

} // namespace tango::sim

#endif // TANGO_SIM_RECORD_HH
