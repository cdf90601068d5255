// Unit tests for the hardened I/O layer (util/io, util/crc32c,
// util/framed_file): CRC32C known-answer vectors, framed-container
// encode/decode/verify including structural damage, atomic writes, and
// the deterministic FaultInjector seam. The end-to-end corruption sweep
// over real model files lives in fault_injection_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "util/framed_file.h"
#include "util/io.h"
#include "util/status.h"

namespace wym {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/wym_io_" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The classic check value for the Castagnoli polynomial.
  EXPECT_EQ(crc32c::Crc32c("123456789"), 0xe3069283u);
  // RFC 3720 (iSCSI) appendix test patterns.
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Crc32c(zeros), 0x8a9136aau);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Crc32c(ones), 0x62a8ab43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending += static_cast<char>(i);
  EXPECT_EQ(crc32c::Crc32c(ascending), 0x46dd794eu);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(crc32c::Crc32c(""), 0u);
}

TEST(Crc32cTest, ExtendInChunksMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = crc32c::Init();
    crc = crc32c::Extend(crc, data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, crc32c::Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, SingleBitFlipsAlwaysChangeTheCrc) {
  const std::string data = "framed file payload bytes";
  const uint32_t clean = crc32c::Crc32c(data);
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    std::string mutated = data;
    mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(crc32c::Crc32c(mutated), clean) << "bit " << bit;
  }
}

TEST(Crc32cTest, HexRoundTrip) {
  EXPECT_EQ(crc32c::ToHex(0xe3069283u), "e3069283");
  EXPECT_EQ(crc32c::ToHex(0u), "00000000");
  uint32_t crc = 0;
  EXPECT_TRUE(crc32c::FromHex("e3069283", &crc));
  EXPECT_EQ(crc, 0xe3069283u);
  EXPECT_TRUE(crc32c::FromHex("E3069283", &crc));
  EXPECT_EQ(crc, 0xe3069283u);
  EXPECT_FALSE(crc32c::FromHex("", &crc));
  EXPECT_FALSE(crc32c::FromHex("e306928", &crc));    // Too short.
  EXPECT_FALSE(crc32c::FromHex("e30692831", &crc));  // Too long.
  EXPECT_FALSE(crc32c::FromHex("e306928g", &crc));   // Not hex.
}

// ---------------------------------------------------------------------
// Framed container
// ---------------------------------------------------------------------

std::vector<io::FileFrame> TestFrames() {
  return {{"config", "17 some-config/v2 1 2 3"},
          {"weights", std::string("\x00\x01\xff binary\n bytes", 17)},
          {"empty", ""}};
}

/// The format spelled out with a stream, line by line as in
/// util/framed_file.h: the reference the encoder must match byte for byte.
std::string StreamEncodedReference(const std::string& magic,
                                   uint32_t version,
                                   const std::vector<io::FileFrame>& frames) {
  std::ostringstream out;
  out << magic << ' ' << version << '\n';
  for (const io::FileFrame& frame : frames) {
    out << "FRAME " << frame.name << ' ' << frame.payload.size() << '\n'
        << frame.payload << '\n'
        << "CRC " << crc32c::ToHex(crc32c::Crc32c(frame.payload)) << '\n';
  }
  const std::string body = out.str();
  return body + "END " + std::to_string(frames.size()) + ' ' +
         crc32c::ToHex(crc32c::Crc32c(body)) + '\n';
}

TEST(FramedFileTest, EncodeDecodeRoundTrip) {
  const std::vector<std::vector<io::FileFrame>> cases = {
      TestFrames(),  // Binary bytes, a newline and an empty payload.
      {},
      {{"empty", ""}},
      {{"lookalike", "x\nFRAME config 3\nabc\nCRC 00000000\nEND 1 0\n"},
       {"tail", "CRC\n\n"}},
  };
  for (const std::vector<io::FileFrame>& input : cases) {
    SCOPED_TRACE(testing::Message() << input.size() << " frame(s)");
    const std::string bytes = io::EncodeFramedFile("WYMT", 3, input);
    EXPECT_EQ(bytes, StreamEncodedReference("WYMT", 3, input));
    EXPECT_TRUE(io::LooksFramed(bytes, "WYMT"));
    EXPECT_FALSE(io::LooksFramed(bytes, "WYMX"));

    uint32_t version = 0;
    std::vector<io::FileFrame> frames;
    ASSERT_TRUE(
        io::DecodeFramedFile(bytes, "WYMT", 3, &version, &frames).ok());
    EXPECT_EQ(version, 3u);
    ASSERT_EQ(frames.size(), input.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].name, input[i].name);
      EXPECT_EQ(frames[i].payload, input[i].payload);
    }
  }
}

TEST(FramedFileTest, RejectsWrongMagicAndFutureVersion) {
  const std::string bytes = io::EncodeFramedFile("WYMT", 3, TestFrames());
  const Status wrong_magic =
      io::DecodeFramedFile(bytes, "OTHR", 3, nullptr, nullptr);
  EXPECT_EQ(wrong_magic.code(), Status::Code::kCorruption);
  // A reader capped below the file's version must refuse, not guess.
  const Status future = io::DecodeFramedFile(bytes, "WYMT", 2, nullptr, nullptr);
  EXPECT_FALSE(future.ok());
}

TEST(FramedFileTest, EveryTruncationIsCorruption) {
  const std::string bytes = io::EncodeFramedFile("WYMT", 1, TestFrames());
  for (size_t len = 0; len < bytes.size(); ++len) {
    const Status status = io::DecodeFramedFile(bytes.substr(0, len), "WYMT",
                                               1, nullptr, nullptr);
    EXPECT_FALSE(status.ok()) << "truncated to " << len << " bytes";
  }
}

TEST(FramedFileTest, EveryBitFlipIsCorruption) {
  const std::string bytes = io::EncodeFramedFile("WYMT", 1, TestFrames());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string mutated = bytes;
    mutated[bit / 8] =
        static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
    const Status status =
        io::DecodeFramedFile(mutated, "WYMT", 1, nullptr, nullptr);
    EXPECT_FALSE(status.ok()) << "bit " << bit;
  }
}

TEST(FramedFileTest, DamagedFrameIsNamedInTheError) {
  const std::string bytes = io::EncodeFramedFile("WYMT", 1, TestFrames());
  // Flip a bit inside the "weights" payload without touching structure.
  const size_t payload_at = bytes.find("binary");
  ASSERT_NE(payload_at, std::string::npos);
  std::string mutated = bytes;
  mutated[payload_at] ^= 1;
  const Status status =
      io::DecodeFramedFile(mutated, "WYMT", 1, nullptr, nullptr);
  ASSERT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_NE(status.message().find("weights"), std::string::npos)
      << status.ToString();
}

TEST(FramedFileTest, TrailingGarbageIsCorruption) {
  std::string bytes = io::EncodeFramedFile("WYMT", 1, TestFrames());
  bytes += "extra";
  EXPECT_FALSE(io::DecodeFramedFile(bytes, "WYMT", 1, nullptr, nullptr).ok());
}

TEST(FramedFileTest, OversizedLengthFieldDoesNotOverAllocate) {
  // A length far beyond the actual bytes must be rejected up front
  // (allocation-bounded decoding), not trusted.
  std::string bytes = "WYMT 1\nFRAME config 999999999999\npayload\n";
  EXPECT_FALSE(io::DecodeFramedFile(bytes, "WYMT", 1, nullptr, nullptr).ok());
}

TEST(FramedFileTest, VerifySummaryListsFrames) {
  const std::string bytes = io::EncodeFramedFile("WYMT", 1, TestFrames());
  std::string summary;
  ASSERT_TRUE(io::VerifyFramedFile(bytes, "WYMT", &summary).ok());
  EXPECT_NE(summary.find("config"), std::string::npos);
  EXPECT_NE(summary.find("weights"), std::string::npos);
  EXPECT_NE(summary.find("empty"), std::string::npos);
}

// ---------------------------------------------------------------------
// Atomic writes + reads
// ---------------------------------------------------------------------

TEST(WriteFileAtomicTest, WritesAndReadsBack) {
  const std::string path = TempPath("roundtrip.bin");
  const std::string data("binary \x00\x01\xff data\n", 16);
  ASSERT_TRUE(io::WriteFileAtomic(path, data).ok());
  std::string back;
  ASSERT_TRUE(io::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, data);
  // No temp file left behind.
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(WriteFileAtomicTest, OverwriteReplacesAtomically) {
  const std::string path = TempPath("overwrite.bin");
  ASSERT_TRUE(io::WriteFileAtomic(path, "old contents").ok());
  ASSERT_TRUE(io::WriteFileAtomic(path, "new contents").ok());
  std::string back;
  ASSERT_TRUE(io::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "new contents");
  std::remove(path.c_str());
}

TEST(WriteFileAtomicTest, UnwritableDirectoryIsIoError) {
  const Status status =
      io::WriteFileAtomic("/nonexistent-dir/file.bin", "data");
  EXPECT_EQ(status.code(), Status::Code::kIoError);
}

TEST(ReadFileToStringTest, MissingFileIsIoError) {
  std::string out;
  const Status status = io::ReadFileToString(TempPath("missing.bin"), &out);
  EXPECT_EQ(status.code(), Status::Code::kIoError);
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, FailWriteAtLeavesTargetIntact) {
  const std::string path = TempPath("failwrite.bin");
  ASSERT_TRUE(io::WriteFileAtomic(path, "previous good version").ok());

  io::FaultInjector injector;
  injector.FailWriteAt(4);
  {
    io::ScopedFaultInjector scope(&injector);
    const Status status = io::WriteFileAtomic(path, "replacement data");
    EXPECT_EQ(status.code(), Status::Code::kIoError);
  }
  EXPECT_EQ(injector.faults_fired(), 1);
  std::string back;
  ASSERT_TRUE(io::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "previous good version");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, EnospcMentionsSpace) {
  const std::string path = TempPath("enospc.bin");
  io::FaultInjector injector;
  injector.Enospc(0);
  io::ScopedFaultInjector scope(&injector);
  const Status status = io::WriteFileAtomic(path, "data");
  ASSERT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_NE(status.message().find("space"), std::string::npos)
      << status.ToString();
}

TEST(FaultInjectorTest, CrashAtLeavesTempButNotTarget) {
  const std::string path = TempPath("crash.bin");
  std::remove(path.c_str());
  io::FaultInjector injector;
  injector.CrashAt(2);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_FALSE(io::WriteFileAtomic(path, "half-written").ok());
  }
  // Models kill -9 mid-save: the partial temp file survives, the target
  // path was never created.
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));
  std::remove((path + ".tmp").c_str());
}

TEST(FaultInjectorTest, ShortReadTruncatesWhatTheReaderSees) {
  const std::string path = TempPath("shortread.bin");
  ASSERT_TRUE(io::WriteFileAtomic(path, "0123456789").ok());
  io::FaultInjector injector;
  injector.ShortRead(4);
  io::ScopedFaultInjector scope(&injector);
  std::string out;
  ASSERT_TRUE(io::ReadFileToString(path, &out).ok());
  EXPECT_EQ(out, "0123");
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, FlipBitMutatesExactlyOneBit) {
  const std::string path = TempPath("flipbit.bin");
  ASSERT_TRUE(io::WriteFileAtomic(path, "AAAA").ok());
  io::FaultInjector injector;
  injector.FlipBit(9);  // Bit 1 of byte 1: 'A' (0x41) -> 'C' (0x43).
  io::ScopedFaultInjector scope(&injector);
  std::string out;
  ASSERT_TRUE(io::ReadFileToString(path, &out).ok());
  EXPECT_EQ(out, "ACAA");
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, FaultsFireInScriptOrderAndThenRunClean) {
  const std::string path = TempPath("script.bin");
  io::FaultInjector injector;
  injector.FailWriteAt(0).Enospc(0);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_FALSE(io::WriteFileAtomic(path, "one").ok());
    EXPECT_FALSE(io::WriteFileAtomic(path, "two").ok());
    // Script exhausted: writes run clean again.
    EXPECT_TRUE(io::WriteFileAtomic(path, "three").ok());
  }
  EXPECT_EQ(injector.faults_fired(), 2);
  std::string back;
  ASSERT_TRUE(io::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "three");
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, UninstalledInjectorMeansCleanIo) {
  EXPECT_EQ(io::ActiveFaultInjector(), nullptr);
  io::FaultInjector injector;
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(io::ActiveFaultInjector(), &injector);
  }
  EXPECT_EQ(io::ActiveFaultInjector(), nullptr);
}

// ---------------------------------------------------------------------
// Status plumbing (satellite: Annotate / value_or)
// ---------------------------------------------------------------------

TEST(StatusAnnotateTest, PrependsContextToErrors) {
  const Status inner = Status::Corruption("frame 'config' failed CRC check");
  const Status outer = inner.Annotate("loading model m.wym");
  EXPECT_EQ(outer.code(), Status::Code::kCorruption);
  EXPECT_EQ(outer.message(),
            "loading model m.wym: frame 'config' failed CRC check");
  // Annotating OK is the identity: no allocation of fake context.
  EXPECT_TRUE(Status::Ok().Annotate("whatever").ok());
}

TEST(ResultTest, ValueOrFallsBackOnError) {
  Result<int> good(7);
  EXPECT_EQ(good.value_or(-1), 7);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_EQ(bad.value_or(-1), -1);
  Result<std::string> moved(Status::NotFound("nope"));
  EXPECT_EQ(std::move(moved).value_or("fallback"), "fallback");
}

}  // namespace
}  // namespace wym
