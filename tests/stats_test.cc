/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"

namespace cnvm::stats
{
namespace
{

TEST(Scalar, StartsAtZero)
{
    Scalar s("s", "desc");
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Scalar, IncrementAndAdd)
{
    Scalar s("s", "desc");
    ++s;
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.5);
}

TEST(Scalar, SetAndReset)
{
    Scalar s("s", "desc");
    s.set(17);
    EXPECT_EQ(s.value(), 17.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Scalar, IntegerAccumulationIsExactPast2To53)
{
    // A double accumulator silently absorbs ++ once the count passes
    // 2^53 (the increment rounds away); the uint64/double split keeps
    // pure counters exact.
    constexpr std::uint64_t big = 1ull << 53;
    Scalar s("s", "desc");
    s.set(static_cast<double>(big));
    ++s;
    ++s;
    EXPECT_EQ(s.exactCount(), big + 2);
    s += 5;
    EXPECT_EQ(s.exactCount(), big + 7);
}

TEST(Scalar, LargeWholeAddsStayExact)
{
    // += of a large whole value must not round: 2^53 + 1 is not
    // representable in double, so it must arrive via the integer path
    // in two exact pieces.
    Scalar s("s", "desc");
    s += static_cast<double>(1ull << 53);
    s += 1;
    EXPECT_EQ(s.exactCount(), (1ull << 53) + 1);
}

TEST(Scalar, FractionalAddsKeepDoubleSemantics)
{
    Scalar s("s", "desc");
    s += 0.25;
    s += 3;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 4.25);
    EXPECT_EQ(s.exactCount(), 4u);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(s.exactCount(), 0u);
}

TEST(Scalar, DumpFormatUnchangedForSmallCounts)
{
    Scalar s("writes", "lines written");
    s += 42;
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "writes 42 # lines written\n");
}

TEST(Histogram, CountsMeanMinMax)
{
    Histogram h("h", "lat", 10, 10);
    h.sample(5);
    h.sample(15);
    h.sample(25);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
    EXPECT_EQ(h.minValue(), 5u);
    EXPECT_EQ(h.maxValue(), 25u);
}

TEST(Histogram, BucketPlacement)
{
    Histogram h("h", "lat", 10, 4);
    h.sample(0);   // bucket 0
    h.sample(9);   // bucket 0
    h.sample(10);  // bucket 1
    h.sample(39);  // bucket 3
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
}

TEST(Histogram, OverflowBucketSaturates)
{
    Histogram h("h", "lat", 10, 4);
    h.sample(40);
    h.sample(1000000);
    EXPECT_EQ(h.bucketCount(4), 2u); // overflow bucket
    EXPECT_EQ(h.numBuckets(), 5u);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h("h", "lat", 10, 4);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(Histogram, Reset)
{
    Histogram h("h", "lat", 10, 4);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Histogram, DumpEmitsPerBucketCounts)
{
    Histogram h("lat", "latency", 10, 4);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(1000); // overflow
    std::ostringstream os;
    h.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("lat::bucket_0 2"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::bucket_1 1"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::bucket_2 0"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::bucket_3 1"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::overflow 1"), std::string::npos) << out;
    // Pre-existing lines stay for baseline-diff compatibility.
    EXPECT_NE(out.find("lat::count 5"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::mean"), std::string::npos) << out;
}

TEST(Histogram, EmptyDumpReportsNoExtremes)
{
    // Regression: sample -> reset -> dump used to report "min 0" /
    // "max 0", indistinguishable from a histogram that really sampled
    // the value zero. An unsampled histogram dumps "-" instead.
    Histogram h("lat", "latency", 10, 4);
    h.sample(25);
    h.reset();
    std::ostringstream os;
    h.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("lat::count 0"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::min -"), std::string::npos) << out;
    EXPECT_NE(out.find("lat::max -"), std::string::npos) << out;
    EXPECT_EQ(out.find("lat::min 0"), std::string::npos) << out;
    EXPECT_EQ(out.find("lat::max 0"), std::string::npos) << out;

    // And a sampled histogram still reports real extremes.
    h.sample(25);
    std::ostringstream os2;
    h.dump(os2);
    EXPECT_NE(os2.str().find("lat::min 25"), std::string::npos);
    EXPECT_NE(os2.str().find("lat::max 25"), std::string::npos);
}

TEST(Registry, FindAndLookup)
{
    StatRegistry reg;
    Scalar s("a.b.c", "desc");
    reg.registerStat(s);
    s += 7;
    ASSERT_NE(reg.find("a.b.c"), nullptr);
    EXPECT_EQ(reg.find("a.b.c")->value(), 7.0);
    EXPECT_EQ(reg.find("missing"), nullptr);
    EXPECT_EQ(reg.lookup("a.b.c"), 7.0);
}

TEST(Registry, PreservesRegistrationOrder)
{
    StatRegistry reg;
    Scalar a("a", ""), b("b", ""), c("c", "");
    reg.registerStat(b);
    reg.registerStat(a);
    reg.registerStat(c);
    ASSERT_EQ(reg.all().size(), 3u);
    EXPECT_EQ(reg.all()[0]->name(), "b");
    EXPECT_EQ(reg.all()[1]->name(), "a");
    EXPECT_EQ(reg.all()[2]->name(), "c");
}

TEST(Registry, DumpContainsNamesAndValues)
{
    StatRegistry reg;
    Scalar a("alpha", "the alpha stat");
    reg.registerStat(a);
    a += 42;
    std::ostringstream os;
    reg.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("the alpha stat"), std::string::npos);
}

TEST(Registry, HistogramDumpHasMoments)
{
    StatRegistry reg;
    Histogram h("lat", "latency", 10, 4);
    reg.registerStat(h);
    h.sample(10);
    h.sample(20);
    std::ostringstream os;
    reg.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("lat::count"), std::string::npos);
    EXPECT_NE(out.find("lat::mean"), std::string::npos);
}

} // anonymous namespace
} // namespace cnvm::stats
