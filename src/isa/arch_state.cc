#include "arch_state.hh"

#include <bit>
#include <cstring>

#include "sim/prof.hh"

namespace ser
{
namespace isa
{

namespace
{

prof::Counter pagesCopiedCounter(
    "isa.pages_copied",
    "Shared 4 KiB memory pages copied on their first write after a "
    "copy of the architectural state (checkpoints and forks).");

} // namespace

SparseMemory::SparseMemory(const SparseMemory &other)
    : _chunks(other._chunks), _numPages(other._numPages),
      _exclusive(false)
{
    _chunks.forEach([](std::uint64_t, Chunk *chunk) {
        chunk->refs.fetch_add(1, std::memory_order_relaxed);
    });
    // Every chunk of 'other' is shared now. A source that is itself
    // a copy never written since (a checkpoint several threads fork
    // from) is already in this state, so nothing is stored there.
    if (other._exclusive)
        other._exclusive = false;
    if (other._writePage != noPage)
        other._writePage = noPage;
}

void
SparseMemory::release(Page *page)
{
    // acq_rel: the last holder's delete must happen after every other
    // holder's reads.
    if (page->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        delete page;
}

void
SparseMemory::release(Chunk *chunk)
{
    if (chunk->refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    for (Page *page : chunk->pages) {
        if (page)
            release(page);
    }
    delete chunk;
}

void
SparseMemory::swap(SparseMemory &other) noexcept
{
    std::swap(_chunks, other._chunks);
    std::swap(_numPages, other._numPages);
    std::swap(_pagesCopied, other._pagesCopied);
    std::swap(_exclusive, other._exclusive);
    std::swap(_memoPage, other._memoPage);
    std::swap(_writePage, other._writePage);
    std::swap(_memoBytes, other._memoBytes);
}

void
SparseMemory::clear()
{
    _chunks.forEach([](std::uint64_t, Chunk *chunk) { release(chunk); });
    _chunks.clear();
    _numPages = 0;
    _exclusive = true;
    _memoPage = _writePage = noPage;
    _memoBytes = nullptr;
}

const std::uint8_t *
SparseMemory::findPage(std::uint64_t page) const
{
    if (page == _memoPage)
        return _memoBytes;
    Chunk *const *chunk = _chunks.find(page >> chunkBits);
    if (!chunk)
        return nullptr;
    Page *p = (*chunk)->pages[page % chunkPages];
    if (!p)
        return nullptr;
    _memoPage = page;
    _memoBytes = p->bytes;
    // Counts of 1 stay 1 while this memory holds the chunk: only
    // copying this memory raises them, and that resets _writePage.
    _writePage = _exclusive || (!shared((*chunk)->refs) &&
                                !shared(p->refs))
                     ? page
                     : noPage;
    return _memoBytes;
}

std::uint8_t *
SparseMemory::writablePage(std::uint64_t page)
{
    if (page == _writePage)
        return _memoBytes;
    Chunk *&chunk = _chunks[page >> chunkBits];
    if (!chunk) {
        chunk = new Chunk;
    } else if (!_exclusive && shared(chunk->refs)) {
        Chunk *copy = new Chunk;
        copy->pages = chunk->pages;
        for (Page *p : copy->pages) {
            if (p)
                p->refs.fetch_add(1, std::memory_order_relaxed);
        }
        release(chunk);
        chunk = copy;
    }
    Page *&p = chunk->pages[page % chunkPages];
    if (!p) {
        p = new Page;
        std::memset(p->bytes, 0, pageBytes);
        ++_numPages;
    } else if (!_exclusive && shared(p->refs)) {
        Page *copy = new Page;
        std::memcpy(copy->bytes, p->bytes, pageBytes);
        release(p);
        p = copy;
        ++_pagesCopied;
        pagesCopiedCounter.add(1);
    }
    _memoPage = _writePage = page;
    _memoBytes = p->bytes;
    return _memoBytes;
}

std::uint8_t
SparseMemory::readByte(std::uint64_t addr) const
{
    const std::uint8_t *bytes = findPage(addr / pageBytes);
    return bytes ? bytes[addr % pageBytes] : 0;
}

void
SparseMemory::writeByte(std::uint64_t addr, std::uint8_t value)
{
    writablePage(addr / pageBytes)[addr % pageBytes] = value;
}

std::uint64_t
SparseMemory::readWordSlow(std::uint64_t addr) const
{
    // The whole word lives in one page: words are little-endian by
    // specification, so on a little-endian host the assembly loop
    // collapses to one unaligned 8-byte load.
    const std::uint64_t off = addr % pageBytes;
    if (off <= pageBytes - 8) {
        const std::uint8_t *bytes = findPage(addr / pageBytes);
        if (!bytes)
            return 0;
        std::uint64_t v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, bytes + off, 8);
        } else {
            for (int i = 7; i >= 0; --i)
                v = (v << 8) |
                    bytes[off + static_cast<std::uint64_t>(i)];
        }
        return v;
    }
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | readByte(addr + static_cast<std::uint64_t>(i));
    return v;
}

void
SparseMemory::writeWordSlow(std::uint64_t addr, std::uint64_t value)
{
    const std::uint64_t off = addr % pageBytes;
    if (off <= pageBytes - 8) {
        std::uint8_t *bytes = writablePage(addr / pageBytes);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(bytes + off, &value, 8);
        } else {
            for (int i = 0; i < 8; ++i) {
                bytes[off + static_cast<std::uint64_t>(i)] =
                    static_cast<std::uint8_t>(value >> (8 * i));
            }
        }
        return;
    }
    for (int i = 0; i < 8; ++i) {
        writeByte(addr + static_cast<std::uint64_t>(i),
                  static_cast<std::uint8_t>(value >> (8 * i)));
    }
}

bool
SparseMemory::equals(const SparseMemory &other,
                     std::uint64_t *pages_compared) const
{
    std::uint64_t compared = 0;
    // Pages a and b (either may be absent) hold the same bytes.
    auto same = [&compared](const Page *a, const Page *b) {
        if (a == b)
            return true;  // shared storage, or both untouched
        ++compared;
        if (a && b)
            return std::memcmp(a->bytes, b->bytes, pageBytes) == 0;
        for (std::uint8_t byte : (a ? a : b)->bytes) {
            if (byte != 0)
                return false;
        }
        return true;
    };
    auto sameChunk = [&](const Chunk *a, const Chunk *b) {
        if (a == b)
            return true;
        for (std::uint64_t i = 0; i < chunkPages; ++i) {
            if (!same(a ? a->pages[i] : nullptr,
                      b ? b->pages[i] : nullptr))
                return false;
        }
        return true;
    };
    bool equal = true;
    _chunks.forEach([&](std::uint64_t index, const Chunk *chunk) {
        if (!equal)
            return;
        Chunk *const *theirs = other._chunks.find(index);
        equal = sameChunk(chunk, theirs ? *theirs : nullptr);
    });
    other._chunks.forEach([&](std::uint64_t index, const Chunk *chunk) {
        if (equal && !_chunks.contains(index))
            equal = sameChunk(nullptr, chunk);
    });
    if (pages_compared)
        *pages_compared += compared;
    return equal;
}

ArchState::ArchState()
{
    _fpRegs[1] = std::bit_cast<std::uint64_t>(1.0);
    _predRegs[0] = true;
}

void
ArchState::reset(const Program &program)
{
    _intRegs.fill(0);
    _fpRegs.fill(0);
    _fpRegs[1] = std::bit_cast<std::uint64_t>(1.0);
    _predRegs.fill(false);
    _predRegs[0] = true;
    _mem.clear();
    _output.clear();
    for (const auto &init : program.dataInits())
        _mem.writeWord(init.addr, init.value);
}

std::uint64_t
ArchState::readInt(int reg) const
{
    return reg == 0 ? 0 : _intRegs[static_cast<std::size_t>(reg)];
}

void
ArchState::writeInt(int reg, std::uint64_t value)
{
    if (reg != 0)
        _intRegs[static_cast<std::size_t>(reg)] = value;
}

double
ArchState::readFp(int reg) const
{
    return std::bit_cast<double>(readFpBits(reg));
}

void
ArchState::writeFp(int reg, double value)
{
    writeFpBits(reg, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t
ArchState::readFpBits(int reg) const
{
    if (reg == 0)
        return 0;
    if (reg == 1)
        return std::bit_cast<std::uint64_t>(1.0);
    return _fpRegs[static_cast<std::size_t>(reg)];
}

void
ArchState::writeFpBits(int reg, std::uint64_t bits)
{
    if (reg > 1)
        _fpRegs[static_cast<std::size_t>(reg)] = bits;
}

bool
ArchState::readPred(int reg) const
{
    return reg == 0 ? true : _predRegs[static_cast<std::size_t>(reg)];
}

void
ArchState::writePred(int reg, bool value)
{
    if (reg != 0)
        _predRegs[static_cast<std::size_t>(reg)] = value;
}

bool
ArchState::equals(const ArchState &other,
                  std::uint64_t *pages_compared) const
{
    return _intRegs == other._intRegs && _fpRegs == other._fpRegs &&
           _predRegs == other._predRegs && _output == other._output &&
           _mem.equals(other._mem, pages_compared);
}

} // namespace isa
} // namespace ser
