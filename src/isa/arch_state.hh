/**
 * @file
 * ArchState: the full architectural state of a TIA64 machine.
 *
 * Registers (with the hardwired r0/f0/f1/p0 conventions), a sparse
 * paged 64-bit byte-addressable memory, and the program output stream
 * (the ACE sink — the only state an observer of the program can see).
 */

#ifndef SER_ISA_ARCH_STATE_HH
#define SER_ISA_ARCH_STATE_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/flat_hash.hh"

namespace ser
{
namespace isa
{

/**
 * Sparse byte-addressable memory backed by 4 KiB pages.
 *
 * Pages are grouped into chunks of 64 consecutive pages. The chunk
 * table is a flat open-addressing map from chunk index to chunk
 * (sim/flat_hash.hh), not a node-based unordered_map: the oracle
 * looks a page up on every load/store, making this the hottest map in
 * the simulator. A one-entry memo of the last page touched
 * short-circuits the lookup entirely for the common run of
 * consecutive accesses to the same stack or heap page.
 *
 * Chunks and pages are reference counted and copy-on-write. Copying a
 * SparseMemory shares every chunk with the original (one reference
 * count increment per chunk: O(chunk-table entries), no page bytes);
 * from then on shared chunks and pages are immutable. The first write
 * to a page through either copy copies its chunk's 64 page pointers
 * if the chunk is shared, then that one page if the page is shared.
 * This is what makes an ExecCheckpoint cheap to take and to fork from
 * (DESIGN.md §11). Reference counts are atomic, so several threads
 * may copy one memory concurrently as long as none writes it (a
 * checkpoint); each copy then belongs to one thread.
 */
class SparseMemory
{
  public:
    static constexpr std::uint64_t pageBytes = 4096;

    SparseMemory() = default;
    /** Shares every chunk of 'other'; copies no page bytes. */
    SparseMemory(const SparseMemory &other);
    SparseMemory(SparseMemory &&other) noexcept { swap(other); }
    SparseMemory &
    operator=(SparseMemory other) noexcept
    {
        swap(other);
        return *this;
    }
    ~SparseMemory() { clear(); }

    std::uint8_t readByte(std::uint64_t addr) const;
    void writeByte(std::uint64_t addr, std::uint8_t value);

    /** Little-endian 8-byte accesses; unaligned accesses allowed. A
     * hit in the last-page memo is a compare and an 8-byte copy. */
    std::uint64_t
    readWord(std::uint64_t addr) const
    {
        const std::uint64_t off = addr % pageBytes;
        if constexpr (std::endian::native == std::endian::little) {
            if (addr / pageBytes == _memoPage && off <= pageBytes - 8) {
                std::uint64_t v;
                std::memcpy(&v, _memoBytes + off, 8);
                return v;
            }
        }
        return readWordSlow(addr);
    }
    void
    writeWord(std::uint64_t addr, std::uint64_t value)
    {
        const std::uint64_t off = addr % pageBytes;
        if constexpr (std::endian::native == std::endian::little) {
            if (addr / pageBytes == _writePage && off <= pageBytes - 8) {
                std::memcpy(_memoBytes + off, &value, 8);
                return;
            }
        }
        writeWordSlow(addr, value);
    }

    /** Number of pages ever touched (for footprint statistics). */
    std::size_t numPages() const { return _numPages; }

    /** Shared pages this memory has copied on a first write since it
     * was created (a copy starts again from 0). */
    std::uint64_t pagesCopied() const { return _pagesCopied; }

    void clear();

    /**
     * Content equality. Chunks and pages that share storage are equal
     * without reading them; only pages held in different storage are
     * compared byte by byte, and their count is added to
     * *pages_compared. A page present on one side only counts as
     * equal when it is all zeroes (and counts as compared), since
     * untouched memory reads as zero — two states that merely differ
     * in which zero pages were materialized are architecturally
     * identical.
     */
    bool equals(const SparseMemory &other,
                std::uint64_t *pages_compared = nullptr) const;

  private:
    static constexpr unsigned chunkBits = 6;
    static constexpr std::uint64_t chunkPages = 1u << chunkBits;
    static constexpr std::uint64_t noPage = ~std::uint64_t{0};

    /** One page and the number of chunks that hold it. */
    struct Page
    {
        std::atomic<std::uint64_t> refs{1};
        std::uint8_t bytes[pageBytes];
    };

    /** 64 consecutive pages (nullptr: never touched) and the number
     * of memories that hold the chunk. */
    struct Chunk
    {
        std::atomic<std::uint64_t> refs{1};
        std::array<Page *, chunkPages> pages{};
    };

    static void release(Page *page);
    static void release(Chunk *chunk);
    static bool shared(const std::atomic<std::uint64_t> &refs)
    {
        return refs.load(std::memory_order_acquire) != 1;
    }
    void swap(SparseMemory &other) noexcept;

    /** The page's bytes, or nullptr when it was never touched. */
    const std::uint8_t *findPage(std::uint64_t page) const;
    /** The page's bytes, owned by this memory alone: allocated when
     * absent, copied first when shared. */
    std::uint8_t *writablePage(std::uint64_t page);

    std::uint64_t readWordSlow(std::uint64_t addr) const;
    void writeWordSlow(std::uint64_t addr, std::uint64_t value);

    /** Chunk index (page index >> chunkBits) -> chunk. Chunk indices
     * are addresses shifted down by 18 bits, so the flat map's ~0
     * sentinel is unreachable. */
    sim::FlatHashMap<Chunk *> _chunks;
    std::size_t _numPages = 0;
    std::uint64_t _pagesCopied = 0;
    /** True while every chunk and page this memory holds is its own
     * (set when it is emptied, cleared when it is copied from or
     * into), so no lookup needs to read a reference count. */
    mutable bool _exclusive = true;

    // Last-page memo (mutable: reads warm it too). _memoBytes are the
    // bytes of page _memoPage. _writePage is _memoPage while this
    // memory alone holds that page and its chunk, and noPage
    // otherwise, so a write through the memo never lands in storage a
    // copy shares; taking a copy resets it on the source.
    mutable std::uint64_t _memoPage = noPage;
    mutable std::uint64_t _writePage = noPage;
    mutable std::uint8_t *_memoBytes = nullptr;
};

/** Registers + memory + output stream. */
class ArchState
{
  public:
    ArchState();

    /** Reset registers/memory/output and load a program's data. */
    void reset(const Program &program);

    // Register accessors enforce the hardwired conventions.
    std::uint64_t readInt(int reg) const;
    void writeInt(int reg, std::uint64_t value);
    double readFp(int reg) const;
    void writeFp(int reg, double value);
    bool readPred(int reg) const;
    void writePred(int reg, bool value);

    /** Raw fp bits (for fst/fout and state comparison). */
    std::uint64_t readFpBits(int reg) const;
    void writeFpBits(int reg, std::uint64_t bits);

    SparseMemory &memory() { return _mem; }
    const SparseMemory &memory() const { return _mem; }

    void appendOutput(std::uint64_t value)
    {
        _output.push_back(value);
    }
    const std::vector<std::uint64_t> &output() const { return _output; }

    /** Full architectural equality: registers, memory, and output.
     * pages_compared: see SparseMemory::equals. */
    bool equals(const ArchState &other,
                std::uint64_t *pages_compared = nullptr) const;

  private:
    std::array<std::uint64_t, numIntRegs> _intRegs{};
    std::array<std::uint64_t, numFpRegs> _fpRegs{};
    std::array<bool, numPredRegs> _predRegs{};
    SparseMemory _mem;
    std::vector<std::uint64_t> _output;
};

} // namespace isa
} // namespace ser

#endif // SER_ISA_ARCH_STATE_HH
