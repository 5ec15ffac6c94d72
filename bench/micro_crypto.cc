/**
 * @file
 * Component micro-benchmarks: the AES-128 cipher, the counter-mode
 * engine, its line MAC (one line at a time and eight lanes at a time)
 * and the integrity tree's root recomputation (host-side throughput;
 * the simulated engine latency is a model parameter, not this).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.hh"
#include "crypto/aes128.hh"
#include "crypto/ctr_engine.hh"
#include "integrity/integrity_tree.hh"
#include "nvm/persist_image.hh"

using namespace cnvm;
using namespace cnvm::crypto;

namespace
{

void
BM_AesBlockEncrypt(benchmark::State &state)
{
    std::uint8_t key[16] = {1, 2, 3, 4};
    Aes128 aes(key);
    std::uint8_t block[16] = {};
    for (auto _ : state) {
        aes.encryptBlock(block, block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesBlockEncrypt);

void
BM_KeyExpansion(benchmark::State &state)
{
    std::uint8_t key[16] = {1, 2, 3, 4};
    for (auto _ : state) {
        Aes128 aes(key);
        benchmark::DoNotOptimize(aes);
    }
}
BENCHMARK(BM_KeyExpansion);

void
BM_LineEncrypt(benchmark::State &state)
{
    CtrEngine engine;
    LineData plain{};
    std::uint64_t counter = 0;
    for (auto _ : state) {
        LineData cipher = engine.encrypt(0x1000, ++counter, plain);
        benchmark::DoNotOptimize(cipher);
    }
    state.SetBytesProcessed(state.iterations() * lineBytes);
}
BENCHMARK(BM_LineEncrypt);

void
BM_PadGeneration(benchmark::State &state)
{
    CtrEngine engine;
    std::uint64_t counter = 0;
    for (auto _ : state) {
        LineData pad = engine.makePad(0x1000, ++counter);
        benchmark::DoNotOptimize(pad);
    }
    state.SetBytesProcessed(state.iterations() * lineBytes);
}
BENCHMARK(BM_PadGeneration);

/** Random MAC inputs: a 2 MB run of lines (one recovery pre-scan of
 *  a 2 MB region), random counters and random ciphertexts. */
struct MacInputs
{
    static constexpr std::size_t lines = 32768;

    std::vector<Addr> addrs;
    std::vector<std::uint64_t> counters;
    std::vector<LineData> ciphers;
    std::vector<const LineData *> cipherPtrs;

    MacInputs() : addrs(lines), counters(lines), ciphers(lines)
    {
        Random rng(0x3ac);
        for (std::size_t i = 0; i < lines; ++i) {
            addrs[i] = i * lineBytes;
            counters[i] = rng.next();
            for (auto &b : ciphers[i])
                b = static_cast<std::uint8_t>(rng.next());
            cipherPtrs.push_back(&ciphers[i]);
        }
    }
};

/** Reports host seconds per line (s_per_line=14n is 14 ns): @p lines
 *  lines per iteration. */
void
reportPerLine(benchmark::State &state, std::size_t lines)
{
    state.counters["s_per_line"] = benchmark::Counter(
        static_cast<double>(lines),
        benchmark::Counter::kIsIterationInvariantRate
            | benchmark::Counter::kInvert);
}

/** The scalar MAC, one line at a time (drain path, write-back). */
void
BM_LineMac(benchmark::State &state)
{
    const std::uint8_t key[16] = {7, 7, 7};
    const CtrEngine engine(key);
    const MacInputs in;
    std::vector<std::uint64_t> tags(MacInputs::lines);
    for (auto _ : state) {
        for (std::size_t i = 0; i < MacInputs::lines; ++i)
            tags[i] = engine.lineMac(in.addrs[i], in.counters[i],
                                     in.ciphers[i]);
        benchmark::DoNotOptimize(tags.data());
    }
    reportPerLine(state, MacInputs::lines);
}
BENCHMARK(BM_LineMac);

/** The same MACs, eight lanes at a time (pre-scan, install). */
void
BM_LineMacs(benchmark::State &state)
{
    const std::uint8_t key[16] = {7, 7, 7};
    const CtrEngine engine(key);
    const MacInputs in;
    std::vector<std::uint64_t> tags(MacInputs::lines);
    for (auto _ : state) {
        engine.lineMacs(in.addrs.data(), in.counters.data(),
                        in.cipherPtrs.data(), tags.data(),
                        MacInputs::lines);
        benchmark::DoNotOptimize(tags.data());
    }
    reportPerLine(state, MacInputs::lines);
}
BENCHMARK(BM_LineMacs);

/** computeTreeRoot over the counter store of a 2 MB region: 4096
 *  counter lines of random counters, reported per counter line. */
void
BM_TreeRoot(benchmark::State &state)
{
    constexpr std::size_t ctrLines = (2u << 20) / lineBytes
        / countersPerLine;
    const Addr ctrBase = Addr(1) << 33;
    PersistImage img;
    Random rng(0x7ee);
    for (std::size_t i = 0; i < ctrLines; ++i) {
        CounterLine values;
        for (auto &v : values)
            v = rng.next();
        img.drainCounters(ctrBase + i * lineBytes, values);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(computeTreeRoot(img, ctrBase));
    reportPerLine(state, ctrLines);
}
BENCHMARK(BM_TreeRoot);

} // anonymous namespace

BENCHMARK_MAIN();
