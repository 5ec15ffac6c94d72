#include "txn/shadow_mem.hh"

#include "common/logging.hh"

namespace cnvm
{

void
ShadowMem::read(Addr addr, unsigned size, void *out) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        Addr line_addr = lineAlign(addr);
        unsigned offset = static_cast<unsigned>(addr - line_addr);
        unsigned chunk = std::min(size, lineBytes - offset);

        const LineData *line = lines.find(line_addr);
        if (line == nullptr)
            std::memset(dst, 0, chunk);
        else
            std::memcpy(dst, line->data() + offset, chunk);

        dst += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
ShadowMem::write(Addr addr, const void *data, unsigned size)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    while (size > 0) {
        Addr line_addr = lineAlign(addr);
        unsigned offset = static_cast<unsigned>(addr - line_addr);
        unsigned chunk = std::min(size, lineBytes - offset);
        std::memcpy(lines[line_addr].data() + offset, src, chunk);
        src += chunk;
        addr += chunk;
        size -= chunk;
    }
}

LineData
ShadowMem::line(Addr line_addr) const
{
    cnvm_assert(isLineAligned(line_addr));
    const LineData *line = lines.find(line_addr);
    return line == nullptr ? LineData{} : *line;
}

} // namespace cnvm
