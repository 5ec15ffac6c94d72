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
 * of address space each), each holding the page handles of its span
 * up to the highest page touched so far.
 *
 * Contract:
 *  - a line never inserted (or erased) reads as absent; first touch
 *    through operator[] yields a value-initialized T;
 *  - const lookups never mutate anything (no lookup cache), so
 *    concurrent const lookups need no lock;
 *  - copying shares every page with the source: a copy costs the page
 *    directory, not the lines. A write to a shared page — through
 *    operator[], tryEmplace, the non-const find or erase — copies that
 *    page first, so neither side ever sees the other's writes, and
 *    copies on different threads may write concurrently;
 *  - a pointer from a non-const accessor stays valid while other lines
 *    are inserted or erased — pages never move. Finish writing through
 *    it before the table is next copied: the copy shares that page;
 *  - a pointer from a const accessor stays valid until this table next
 *    writes to that page, is assigned, or is destroyed;
 *  - forEach visits lines in ascending address order.
 */

#ifndef CNVM_COMMON_LINE_TABLE_HH
#define CNVM_COMMON_LINE_TABLE_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
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
    LineTable(const LineTable &) = default;
    LineTable &operator=(const LineTable &) = default;

    /** A moved-from table is empty. */
    LineTable(LineTable &&other) noexcept
        : chunks(std::exchange(other.chunks, {})),
          count(std::exchange(other.count, 0))
    {}

    LineTable &
    operator=(LineTable &&other) noexcept
    {
        chunks = std::exchange(other.chunks, {});
        count = std::exchange(other.count, 0);
        return *this;
    }

    /** The value of @p line_addr, or nullptr when the line is absent. */
    const T *
    find(Addr line_addr) const
    {
        const Page *page = findPage(line_addr);
        const unsigned s = slotOf(line_addr);
        return page != nullptr && (page->present >> s & 1)
            ? &page->lines[s] : nullptr;
    }

    T *
    find(Addr line_addr)
    {
        Page *page = writablePage(line_addr, false);
        return page != nullptr ? &page->lines[slotOf(line_addr)] : nullptr;
    }

    bool contains(Addr line_addr) const { return find(line_addr) != nullptr; }

    /** The value of @p line_addr, inserted value-initialized if absent. */
    T &operator[](Addr line_addr) { return *tryEmplace(line_addr).first; }

    /** Like operator[], and also says whether this call inserted the
     *  line. */
    std::pair<T *, bool>
    tryEmplace(Addr line_addr)
    {
        Page &page = *writablePage(line_addr, true);
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
        Page *page = writablePage(line_addr, false);
        if (page == nullptr)
            return false;
        const unsigned s = slotOf(line_addr);
        page->present &= ~(std::uint64_t(1) << s);
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
                    fn((first + s) * lineBytes, page->lines[s]);
                }
            }
        }
    }

  private:
    struct Page
    {
        /** Tables holding this page. */
        std::atomic<std::uint32_t> refs{1};
        std::uint64_t present = 0;
        std::array<T, pageLines> lines{};

        Page() = default;

        /** A private copy of @p other's lines, held by one table. */
        Page(const Page &other) : present(other.present), lines(other.lines)
        {}
    };

    /**
     * One table's hold on a page. Taking a hold is a relaxed increment:
     * the new holder reaches the page through the table it copied,
     * which its thread already sees. Releasing is an acq_rel decrement,
     * so a holder's last reads of the page happen before whichever
     * release deletes it, and before an unshared() that reads 1.
     */
    class PageRef
    {
      public:
        PageRef() = default;
        explicit PageRef(Page *page) : page(page) {}

        PageRef(const PageRef &other) : page(other.page)
        {
            if (page != nullptr)
                page->refs.fetch_add(1, std::memory_order_relaxed);
        }

        PageRef(PageRef &&other) noexcept
            : page(std::exchange(other.page, nullptr))
        {}

        PageRef &
        operator=(PageRef other) noexcept
        {
            std::swap(page, other.page);
            return *this;
        }

        ~PageRef()
        {
            if (page != nullptr
                && page->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
                delete page;
        }

        Page *get() const { return page; }

        /**
         * Whether this is the only hold on the page. The acquire load
         * pairs with the other holders' releases: once it reads 1, no
         * other table can still be reading the page, so writing it in
         * place is race-free. (shared_ptr::use_count() is a relaxed
         * load and gives no such ordering.)
         */
        bool
        unshared() const
        {
            return page->refs.load(std::memory_order_acquire) == 1;
        }

      private:
        Page *page = nullptr;
    };

    /** The pages of one chunk-sized span of addresses. The handle
     *  vector only reaches the highest page touched, so a table that
     *  touches a few pages stays small; growing it moves handles,
     *  never pages. */
    struct Chunk
    {
        Addr index = 0; //!< address / chunk span
        std::vector<PageRef> pages;
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

    /** The page holding @p line_addr, or nullptr. */
    const Page *
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

    /**
     * The one step through which every mutating accessor reaches a
     * page: one directory search for @p line_addr's page, then a
     * private copy of the page if another table still shares it. With
     * @p insert the page is allocated when absent; without it the
     * result is nullptr unless the line is present, and no page is
     * copied for a line that is not there.
     */
    Page *
    writablePage(Addr line_addr, bool insert)
    {
        const Addr page_index = pageIndexOf(line_addr);
        const Addr chunk_index = page_index / chunkPages;
        const std::size_t c = lowerBound(chunk_index);
        const std::size_t p = page_index % chunkPages;
        if (c == chunks.size() || chunks[c].index != chunk_index) {
            if (!insert)
                return nullptr;
            chunks.insert(chunks.begin() + c, Chunk{chunk_index, {}});
        }
        auto &pages = chunks[c].pages;
        if (p >= pages.size()) {
            if (!insert)
                return nullptr;
            pages.resize(p + 1);
        }
        PageRef &ref = pages[p];
        if (ref.get() == nullptr) {
            if (!insert)
                return nullptr;
            ref = PageRef(new Page);
            return ref.get();
        }
        if (!insert && (ref.get()->present >> slotOf(line_addr) & 1) == 0)
            return nullptr;
        if (!ref.unshared())
            ref = PageRef(new Page(*ref.get()));
        return ref.get();
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
