#include <gtest/gtest.h>

#include "support/bytes.hpp"
#include "support/diag.hpp"
#include "support/format.hpp"
#include "support/ring.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"

namespace surgeon::support {
namespace {

// --- bytes -------------------------------------------------------------------

TEST(Bytes, RoundTripBigEndian) {
  ByteWriter w(ByteOrder::kBig);
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_string("hello");
  ByteReader r(w.bytes(), ByteOrder::kBig);
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, RoundTripLittleEndian) {
  ByteWriter w(ByteOrder::kLittle);
  w.put_u32(0x11223344);
  w.put_f64(-1.5);
  ByteReader r(w.bytes(), ByteOrder::kLittle);
  EXPECT_EQ(r.get_u32(), 0x11223344u);
  EXPECT_DOUBLE_EQ(r.get_f64(), -1.5);
}

TEST(Bytes, EndiannessMattersOnTheWire) {
  ByteWriter w(ByteOrder::kBig);
  w.put_u32(0x01020304);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
  // The same value read with the wrong order comes out byte-swapped: this
  // is exactly why the abstract state format fixes a byte order.
  ByteReader r(w.bytes(), ByteOrder::kLittle);
  EXPECT_EQ(r.get_u32(), 0x04030201u);
}

TEST(Bytes, UnderrunThrows) {
  ByteWriter w(ByteOrder::kBig);
  w.put_u16(7);
  ByteReader r(w.bytes(), ByteOrder::kBig);
  (void)r.get_u8();
  EXPECT_THROW((void)r.get_u32(), VmError);
}

TEST(Bytes, StoreLoadScalar) {
  std::uint8_t buf[8];
  store_u64(buf, 0x1122334455667788ULL, ByteOrder::kBig);
  EXPECT_EQ(buf[0], 0x11);
  EXPECT_EQ(load_u64(buf, ByteOrder::kBig), 0x1122334455667788ULL);
  EXPECT_EQ(load_u64(buf, ByteOrder::kLittle), 0x8877665544332211ULL);
}

// --- format strings -----------------------------------------------------------

TEST(Format, PaperFormatsParse) {
  // The format strings that appear verbatim in the paper's figures.
  EXPECT_EQ(parse_format("i"),
            (std::vector<ValueKind>{ValueKind::kInt}));
  EXPECT_EQ(parse_format("F"),
            (std::vector<ValueKind>{ValueKind::kReal}));
  EXPECT_EQ(parse_format("llF"),
            (std::vector<ValueKind>{ValueKind::kInt, ValueKind::kInt,
                                    ValueKind::kReal}));
  EXPECT_EQ(parse_format("iiif"),
            (std::vector<ValueKind>{ValueKind::kInt, ValueKind::kInt,
                                    ValueKind::kInt, ValueKind::kReal}));
}

TEST(Format, EmptyFormatIsEmpty) { EXPECT_TRUE(parse_format("").empty()); }

TEST(Format, BadCharacterThrows) {
  EXPECT_THROW(parse_format("ix"), ParseError);
  EXPECT_THROW(parse_format("?"), ParseError);
}

TEST(Format, RoundTrip) {
  auto kinds = parse_format("iFsp");
  EXPECT_EQ(format_of(kinds), "iFsp");
}

// --- strutil -------------------------------------------------------------------

TEST(RingQueue, FifoAcrossWrapAroundAndGrowth) {
  RingQueue<std::string> q;
  std::vector<std::string> out;
  int next = 0;
  // Interleave pushes and pops so the head walks round the buffer, and
  // push in bursts so it grows while wrapped.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < round % 7 + 1; ++i) {
      q.push_back("m" + std::to_string(next++));
    }
    for (int i = 0; i < round % 3 + 1 && !q.empty(); ++i) {
      out.push_back(q.front());
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next) - out.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], "m" + std::to_string(out.size() + i));
  }
  while (!q.empty()) {
    out.push_back(q.front());
    q.pop_front();
  }
  ASSERT_EQ(out.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
  q.push_back("again");
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back("after-clear");
  EXPECT_EQ(q.front(), "after-clear");
}

TEST(Strutil, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strutil, SplitAndJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "::"), "x::y");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strutil, Quote) {
  EXPECT_EQ(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

// --- diagnostics ----------------------------------------------------------------

TEST(Diag, EngineCountsErrors) {
  DiagnosticEngine engine;
  engine.warning({1, 2}, "w");
  EXPECT_FALSE(engine.has_errors());
  engine.error({3, 4}, "e");
  EXPECT_TRUE(engine.has_errors());
  EXPECT_EQ(engine.error_count(), 1u);
  EXPECT_NE(engine.summary().find("line 3:4"), std::string::npos);
}

TEST(Diag, NoteConvenienceMatchesErrorAndWarning) {
  DiagnosticEngine engine;
  engine.note({5, 1}, "consider a reconfiguration point here");
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  EXPECT_EQ(engine.diagnostics()[0].severity, Severity::kNote);
  EXPECT_FALSE(engine.has_errors());
  EXPECT_NE(engine.summary().find("note"), std::string::npos);
}

TEST(Diag, ParseErrorCarriesLocation) {
  ParseError err(SourceLoc{7, 3}, "bad");
  EXPECT_EQ(err.loc().line, 7u);
  EXPECT_NE(std::string(err.what()).find("line 7:3"), std::string::npos);
}

// --- rng -------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace surgeon::support
