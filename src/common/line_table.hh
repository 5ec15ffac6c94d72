/**
 * @file
 * LineTable<T>: one value per 64-byte line, stored in fixed-size pages.
 *
 * The simulator keeps several per-line views of memory — the persisted
 * image and its integrity-tree nodes, the live plaintext view and
 * recovery's decrypted lines. Lines come in dense runs (a workload
 * region, the counter region), so the table stores them in pages of 64
 * consecutive lines, each page with a presence mask, and finds a page
 * through a two-level directory: a short sorted vector of chunks (2 MB
 * of address space each), each holding the page pointers of its span
 * up to the highest page touched so far.
 *
 * Contract:
 *  - a line never inserted (or erased) reads as absent; first touch
 *    through operator[] yields a value-initialized T;
 *  - const lookups never mutate anything (no lookup cache), so
 *    concurrent const lookups need no lock;
 *  - a pointer or reference to a present line stays valid while other
 *    lines are inserted or erased — pages never move;
 *  - forEach visits lines in ascending address order;
 *  - copying deep-copies every page.
 */

#ifndef CNVM_COMMON_LINE_TABLE_HH
#define CNVM_COMMON_LINE_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cnvm
{

template <typename T>
class LineTable
{
  public:
    /** Lines per page: one bit each in the page's presence mask. */
    static constexpr unsigned pageLines = 64;

    /** Pages per directory chunk. */
    static constexpr unsigned chunkPages = 512;

    LineTable() = default;

    LineTable(const LineTable &other) : count(other.count)
    {
        chunks.reserve(other.chunks.size());
        for (const Chunk &chunk : other.chunks) {
            Chunk &copy = chunks.emplace_back();
            copy.index = chunk.index;
            copy.pages.resize(chunk.pages.size());
            for (std::size_t p = 0; p < chunk.pages.size(); ++p) {
                if (const Page *page = chunk.pages[p].get())
                    copy.pages[p] = std::make_unique<Page>(*page);
            }
        }
    }

    LineTable &
    operator=(const LineTable &other)
    {
        if (this != &other)
            *this = LineTable(other);
        return *this;
    }

    LineTable(LineTable &&) noexcept = default;
    LineTable &operator=(LineTable &&) noexcept = default;

    /** The value of @p line_addr, or nullptr when the line is absent. */
    const T *find(Addr line_addr) const { return lookup(line_addr); }
    T *find(Addr line_addr) { return lookup(line_addr); }

    bool contains(Addr line_addr) const { return find(line_addr) != nullptr; }

    /** The value of @p line_addr, inserted value-initialized if absent. */
    T &operator[](Addr line_addr) { return *tryEmplace(line_addr).first; }

    /** Like operator[], and also says whether this call inserted the
     *  line. */
    std::pair<T *, bool>
    tryEmplace(Addr line_addr)
    {
        Page &page = pageFor(line_addr);
        const unsigned s = slotOf(line_addr);
        const std::uint64_t bit = std::uint64_t(1) << s;
        const bool inserted = (page.present & bit) == 0;
        if (inserted) {
            // Absent slots always hold T{} (see erase()), so first
            // touch only has to mark the line present.
            page.present |= bit;
            ++count;
        }
        return {&page.lines[s], inserted};
    }

    /** Removes @p line_addr; returns whether it was present. */
    bool
    erase(Addr line_addr)
    {
        Page *page = findPage(line_addr);
        const unsigned s = slotOf(line_addr);
        const std::uint64_t bit = std::uint64_t(1) << s;
        if (page == nullptr || (page->present & bit) == 0)
            return false;
        page->present &= ~bit;
        page->lines[s] = T{};
        --count;
        return true;
    }

    void
    clear()
    {
        chunks.clear();
        count = 0;
    }

    /** Number of present lines. */
    std::size_t size() const { return count; }

    /** Calls fn(line_addr, value) for every present line, in ascending
     *  address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Chunk &chunk : chunks) {
            for (std::size_t p = 0; p < chunk.pages.size(); ++p) {
                const Page *page = chunk.pages[p].get();
                if (page == nullptr)
                    continue;
                const Addr first =
                    (chunk.index * chunkPages + p) * pageLines;
                for (std::uint64_t m = page->present; m != 0; m &= m - 1) {
                    const unsigned s = std::countr_zero(m);
                    fn((first + s) * lineBytes,
                       std::as_const(page->lines[s]));
                }
            }
        }
    }

  private:
    struct Page
    {
        std::uint64_t present = 0;
        std::array<T, pageLines> lines{};
    };

    /** The pages of one chunk-sized span of addresses. The pointer
     *  vector only reaches the highest page touched, so a table that
     *  touches a few pages stays small; growing it moves pointers,
     *  never pages. */
    struct Chunk
    {
        Addr index = 0; //!< address / chunk span
        std::vector<std::unique_ptr<Page>> pages;
    };

    static unsigned
    slotOf(Addr line_addr)
    {
        return static_cast<unsigned>(line_addr / lineBytes % pageLines);
    }

    static Addr
    pageIndexOf(Addr line_addr)
    {
        return line_addr / lineBytes / pageLines;
    }

    /** Position in the directory of the first chunk whose index is not
     *  below @p chunk_index. */
    std::size_t
    lowerBound(Addr chunk_index) const
    {
        auto it = std::lower_bound(
            chunks.begin(), chunks.end(), chunk_index,
            [](const Chunk &chunk, Addr idx) { return chunk.index < idx; });
        return static_cast<std::size_t>(it - chunks.begin());
    }

    /** The page holding @p line_addr, or nullptr. Pages are owned
     *  through pointers, so a const lookup reaches a mutable page; the
     *  public accessors restore constness. */
    Page *
    findPage(Addr line_addr) const
    {
        const Addr page_index = pageIndexOf(line_addr);
        const Addr chunk_index = page_index / chunkPages;
        const std::size_t c = lowerBound(chunk_index);
        if (c == chunks.size() || chunks[c].index != chunk_index)
            return nullptr;
        const std::size_t p = page_index % chunkPages;
        const auto &pages = chunks[c].pages;
        return p < pages.size() ? pages[p].get() : nullptr;
    }

    T *
    lookup(Addr line_addr) const
    {
        Page *page = findPage(line_addr);
        const unsigned s = slotOf(line_addr);
        return page != nullptr && (page->present >> s & 1)
            ? &page->lines[s] : nullptr;
    }

    Page &
    pageFor(Addr line_addr)
    {
        const Addr page_index = pageIndexOf(line_addr);
        const Addr chunk_index = page_index / chunkPages;
        const std::size_t c = lowerBound(chunk_index);
        if (c == chunks.size() || chunks[c].index != chunk_index)
            chunks.insert(chunks.begin() + c, Chunk{chunk_index, {}});
        const std::size_t p = page_index % chunkPages;
        auto &pages = chunks[c].pages;
        if (p >= pages.size())
            pages.resize(p + 1);
        if (pages[p] == nullptr)
            pages[p] = std::make_unique<Page>();
        return *pages[p];
    }

    /** Sorted by Chunk::index, so a lookup is a binary search over a
     *  short contiguous directory and forEach walks chunks in address
     *  order. */
    std::vector<Chunk> chunks;

    /** Present lines over all pages. */
    std::size_t count = 0;
};

} // namespace cnvm

#endif // CNVM_COMMON_LINE_TABLE_HH
