/**
 * @file
 * Page-block guest memory (DESIGN.md §16).
 *
 * Every Device used to own its RAM and ROM as flat 16 MB / 4 MB
 * vectors, so a fleet of N devices cost N × 20 MB before a single
 * guest instruction ran. This header replaces the flat images with
 * refcounted 4 KB page blocks:
 *
 *  - A MemPage is immutable once shared. Two devices restored from
 *    the same snapshot reference the same pages; the process-wide
 *    zero page backs all-zero RAM and the erased page (0xFF) backs
 *    unprogrammed flash, so a freshly provisioned device holds no
 *    private memory at all.
 *  - The Bus copies a page only on the first write into it
 *    (copy-on-write), so per-device RSS is proportional to the
 *    device's dirty state, not to the address map.
 *  - Each page lazily caches the FNV-64 of its bytes. Fingerprints
 *    and serialization become combines over page hashes: O(pages)
 *    pointer work plus O(dirty) byte hashing, instead of re-reading
 *    20 MB per snapshot.
 */

#ifndef PT_DEVICE_PAGEMEM_H
#define PT_DEVICE_PAGEMEM_H

#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <vector>

#include "base/types.h"

namespace pt::device
{

inline constexpr u32 kMemPageShift = 12;
inline constexpr u32 kMemPageSize = 1u << kMemPageShift;
inline constexpr u32 kMemPageMask = kMemPageSize - 1;

/**
 * One refcounted 4 KB page block.
 *
 * The cached hash is 0 while unknown and is only ever computed for
 * pages no writer can still reach (the Bus freezes its write
 * ownership before sharing pages into a snapshot), so a cached value
 * can never go stale. The atomic makes concurrent hashing of a page
 * shared between fleet workers a benign race: both sides compute the
 * same value.
 */
struct MemPage
{
    u8 bytes[kMemPageSize];
    mutable std::atomic<u64> cachedHash{0};
};

/** Shared ownership of one page block. */
using PageRef = std::shared_ptr<MemPage>;

/** The process-wide all-zero page (blank RAM). */
const PageRef &zeroPage();

/** The process-wide all-0xFF page (erased NOR flash). */
const PageRef &erasedPage();

/** Allocates a private page filled with @p fill (hash uncached). */
PageRef makeFilledPage(u8 fill);

/** Allocates a private copy of @p src (hash uncached). */
PageRef copyPage(const MemPage &src);

/** FNV-64 of the page's 4096 bytes, cached on the page. Only call on
 *  pages that are immutable from here on (see MemPage). */
u64 pageHash(const MemPage &p);

/**
 * A byte image of arbitrary length stored as shared page blocks.
 *
 * This is the snapshot-facing container: capture shares the device's
 * current pages into an image (no copy), restore shares the image's
 * pages back into a device (no copy), and mutation goes through
 * copy-on-write so sibling images never observe each other's edits.
 *
 * Invariants: the image holds ceil(size/4096) pages and any bytes of
 * the final page beyond size() are zero, so whole pages compare and
 * share cleanly.
 *
 * The vector-flavored surface (operator[], assign, iteration,
 * equality) keeps host tooling and tests source-compatible with the
 * flat std::vector<u8> images this type replaced.
 */
class PagedImage
{
  public:
    PagedImage() = default;

    PagedImage(std::initializer_list<u8> bytes)
    {
        *this = fromBytes(bytes.begin(), bytes.size());
    }

    PagedImage &
    operator=(std::initializer_list<u8> bytes)
    {
        *this = fromBytes(bytes.begin(), bytes.size());
        return *this;
    }

    /** Builds an image from flat bytes. All-zero 4 KB chunks share
     *  the process zero page instead of allocating. */
    static PagedImage fromBytes(const u8 *data, std::size_t len);

    static PagedImage
    fromBytes(const std::vector<u8> &v)
    {
        return fromBytes(v.data(), v.size());
    }

    /** Adopts already-shared pages (capture path). The caller
     *  guarantees the tail-padding invariant. */
    static PagedImage fromPages(std::vector<PageRef> pages,
                                std::size_t size);

    /** Resizes to @p n bytes of @p fill. Zero fill shares the zero
     *  page; any other fill shares one template page image-wide. */
    void assign(std::size_t n, u8 fill);

    std::size_t size() const { return byteSize; }
    bool empty() const { return byteSize == 0; }

    u8
    byte(std::size_t i) const
    {
        return pageRefs[i >> kMemPageShift]->bytes[i & kMemPageMask];
    }

    /** Copy-on-write single-byte store (i < size()). */
    void setByte(std::size_t i, u8 v);

    /** Copy-on-write range store ([off, off+len) within the image). */
    void write(std::size_t off, const void *src, std::size_t len);

    /** Copies [off, off+len) out of the image. */
    void read(std::size_t off, void *dst, std::size_t len) const;

    /** The whole image as flat bytes (host tooling convenience). */
    std::vector<u8> bytes() const;

    std::size_t pageCount() const { return pageRefs.size(); }
    const PageRef &page(std::size_t idx) const { return pageRefs[idx]; }

    /** True when page @p idx is the shared zero page (identity test —
     *  a private page that happens to be zero reports false). */
    bool
    pageIsZero(std::size_t idx) const
    {
        return pageRefs[idx] == zeroPage();
    }

    /**
     * FNV-64 over (size, page hashes…). O(pages) once each page's
     * hash is cached; page hashes of shared pages are computed once
     * process-wide. The definition is pure — tests recompute it from
     * the flat bytes and must get the identical value.
     */
    u64 fingerprint() const;

    // --- std::vector<u8>-compatible surface ---

    u8 operator[](std::size_t i) const { return byte(i); }

    /** Proxy so `img[i] = v` performs a copy-on-write store. */
    class ByteRef
    {
      public:
        ByteRef(PagedImage &img, std::size_t i)
            : img(img), i(i)
        {}
        operator u8() const { return img.byte(i); }
        ByteRef &
        operator=(u8 v)
        {
            img.setByte(i, v);
            return *this;
        }

      private:
        PagedImage &img;
        std::size_t i;
    };

    ByteRef operator[](std::size_t i) { return ByteRef(*this, i); }

    /** Read-only random-access iterator over the image's bytes. */
    class const_iterator
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = u8;
        using difference_type = std::ptrdiff_t;
        using pointer = const u8 *;
        using reference = u8;

        const_iterator() = default;
        const_iterator(const PagedImage *img, std::size_t i)
            : img(img), i(i)
        {}

        u8 operator*() const { return img->byte(i); }
        u8 operator[](difference_type d) const
        {
            return img->byte(i + static_cast<std::size_t>(d));
        }
        const_iterator &operator++() { ++i; return *this; }
        const_iterator operator++(int)
        {
            const_iterator t = *this;
            ++i;
            return t;
        }
        const_iterator &operator--() { --i; return *this; }
        const_iterator &operator+=(difference_type d)
        {
            i = static_cast<std::size_t>(
                static_cast<difference_type>(i) + d);
            return *this;
        }
        friend const_iterator
        operator+(const_iterator it, difference_type d)
        {
            it += d;
            return it;
        }
        friend difference_type
        operator-(const const_iterator &a, const const_iterator &b)
        {
            return static_cast<difference_type>(a.i) -
                   static_cast<difference_type>(b.i);
        }
        friend bool
        operator==(const const_iterator &a, const const_iterator &b)
        {
            return a.i == b.i;
        }
        friend bool
        operator!=(const const_iterator &a, const const_iterator &b)
        {
            return a.i != b.i;
        }

      private:
        const PagedImage *img = nullptr;
        std::size_t i = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, byteSize}; }

    friend bool operator==(const PagedImage &a, const PagedImage &b);
    friend bool
    operator!=(const PagedImage &a, const PagedImage &b)
    {
        return !(a == b);
    }

  private:
    /** Makes page @p pg privately writable (copy-on-write). */
    MemPage *ensureWritable(std::size_t pg);

    std::vector<PageRef> pageRefs;
    std::size_t byteSize = 0;
};

} // namespace pt::device

#endif // PT_DEVICE_PAGEMEM_H
