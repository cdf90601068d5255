// End-to-end robustness suite for the persistence stack: a trained
// model is saved once, then its file is subjected to hundreds of
// deterministic faults — truncations at stratified offsets, single-bit
// flips across the whole file, mid-write failures, ENOSPC, simulated
// crashes — via the wym::io::FaultInjector seam. The contract under
// test (DESIGN.md "Failure model & file-format v2"):
//
//   - Load of a damaged file ALWAYS returns Corruption/IoError. It
//     never aborts, never hangs, never returns OK on damaged bytes.
//   - A failed or crashed save never clobbers the previous good model.
//   - Legacy v1 files (unframed, no checksums) are rejected as Corruption.
//
// Run under scripts/check.sh's asan-ubsan configuration this doubles as
// a memory-safety sweep of every decode error path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/csv.h"
#include "data/split.h"
#include "embedding/semantic_encoder.h"
#include "obs/metrics.h"
#include "util/framed_file.h"
#include "util/io.h"
#include "util/status.h"
#include "util/string_util.h"

namespace wym {
namespace {

/// The shared fixture: one small trained model (training dominates the
/// runtime; every fault case reuses the same trained pipeline).
struct Suite {
  data::Dataset dataset;
  data::Split split;
  core::WymModel model;
  std::string path;
  std::string clean_bytes;
  std::vector<double> clean_probas;
};

class FaultInjectionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto s = std::make_unique<Suite>();
    s->dataset = data::GenerateById("S-FZ", 42, 0.3);
    s->split = data::DefaultSplit(s->dataset, 42);
    s->model.Fit(s->split.train, s->split.validation);

    // Per-process path: ctest runs each test of this suite as its own
    // process, possibly in parallel — a shared path would race the
    // saves (and their shared ".tmp" staging file) across processes.
    s->path = testing::TempDir() + "/wym_fault_model." +
              std::to_string(::getpid()) + ".wym";
    if (!s->model.SaveToFile(s->path).ok()) return;
    if (!io::ReadFileToString(s->path, &s->clean_bytes).ok()) return;
    if (s->clean_bytes.size() <= 100) return;
    s->clean_probas = s->model.PredictProbaBatch(s->split.test);
    suite_ = std::move(s);
  }

  static void TearDownTestSuite() {
    if (suite_ != nullptr) std::remove(suite_->path.c_str());
    suite_.reset();
  }

  void SetUp() override {
    ASSERT_NE(suite_, nullptr) << "shared fixture failed to build";
  }

  /// A load failure must be a *reported* failure of the right class.
  static void ExpectDamageDetected(const Status& status,
                                   const std::string& what) {
    EXPECT_FALSE(status.ok()) << what << ": damaged file loaded OK";
    EXPECT_TRUE(status.code() == Status::Code::kCorruption ||
                status.code() == Status::Code::kIoError)
        << what << ": unexpected status " << status.ToString();
  }

  static std::unique_ptr<Suite> suite_;
};

std::unique_ptr<Suite> FaultInjectionTest::suite_;

// ---------------------------------------------------------------------
// Corruption sweeps (>= 200 mutations total across the two tests)
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TruncationSweepAlwaysDetected) {
  const size_t size = suite_->clean_bytes.size();
  // Stratified truncation points: every boundary-ish prefix plus 110
  // evenly spaced interior cuts — header, every frame, the trailer.
  std::vector<size_t> cuts = {0, 1, 2, 3, 4, 5, size - 1, size - 2};
  for (size_t i = 0; i < 110; ++i) cuts.push_back(1 + i * (size - 2) / 110);

  int swept = 0;
  for (const size_t cut : cuts) {
    io::FaultInjector injector;
    injector.ShortRead(cut);
    io::ScopedFaultInjector scope(&injector);
    const auto loaded = core::WymModel::LoadFromFile(suite_->path);
    ExpectDamageDetected(loaded.status(),
                         "truncated to " + std::to_string(cut) + " bytes");
    EXPECT_EQ(injector.faults_fired(), 1);
    ++swept;
  }
  EXPECT_GE(swept, 100);
}

TEST_F(FaultInjectionTest, BitFlipSweepAlwaysDetected) {
  const size_t bits = suite_->clean_bytes.size() * 8;
  int swept = 0;
  // 120 single-bit flips evenly spaced over the file: magic, version,
  // frame headers, payloads, CRC footers, trailer — every region.
  for (size_t i = 0; i < 120; ++i) {
    const size_t bit = i * (bits - 1) / 119;
    io::FaultInjector injector;
    injector.FlipBit(bit);
    io::ScopedFaultInjector scope(&injector);
    const auto loaded = core::WymModel::LoadFromFile(suite_->path);
    ExpectDamageDetected(loaded.status(),
                         "bit " + std::to_string(bit) + " flipped");
    ++swept;
  }
  EXPECT_GE(swept, 100);
}

TEST_F(FaultInjectionTest, CorruptFrameErrorNamesTheSection) {
  // Flip a payload bit inside the encoder frame specifically.
  const size_t frame_at = suite_->clean_bytes.find("FRAME encoder ");
  ASSERT_NE(frame_at, std::string::npos);
  const size_t payload_at = suite_->clean_bytes.find('\n', frame_at) + 10;
  ASSERT_LT(payload_at, suite_->clean_bytes.size());

  io::FaultInjector injector;
  injector.FlipBit(payload_at * 8);
  io::ScopedFaultInjector scope(&injector);
  const auto loaded = core::WymModel::LoadFromFile(suite_->path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_NE(loaded.status().message().find("encoder"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(FaultInjectionTest, VerifyFileAgreesWithLoadOnDamage) {
  ASSERT_TRUE(core::WymModel::VerifyFile(suite_->path).ok());
  for (const size_t bit : {7u, 1000u, 20000u}) {
    if (bit >= suite_->clean_bytes.size() * 8) continue;
    io::FaultInjector injector;
    injector.FlipBit(bit);
    io::ScopedFaultInjector scope(&injector);
    std::string summary;
    const Status status = core::WymModel::VerifyFile(suite_->path, &summary);
    ExpectDamageDetected(status, "verify with bit " + std::to_string(bit));
  }
}

// ---------------------------------------------------------------------
// Atomic save: a failed write never clobbers the previous model
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, CrashMidSaveLeavesPreviousModelLoadable) {
  const std::string victim = testing::TempDir() + "/wym_fault_victim.wym";
  ASSERT_TRUE(suite_->model.SaveToFile(victim).ok());

  // Simulated kill -9 after 1000 bytes of the rewrite: no rename, the
  // partial temp file is abandoned on disk.
  io::FaultInjector injector;
  injector.CrashAt(1000);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(suite_->model.SaveToFile(victim).code(), Status::Code::kIoError);
  }
  EXPECT_EQ(injector.faults_fired(), 1);

  auto survivor = core::WymModel::LoadFromFile(victim);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  const std::vector<double> probas =
      survivor.value().PredictProbaBatch(suite_->split.test);
  ASSERT_EQ(probas.size(), suite_->clean_probas.size());
  for (size_t i = 0; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i]);
  }
  std::remove((victim + ".tmp").c_str());
  std::remove(victim.c_str());
}

TEST_F(FaultInjectionTest, FailedAndEnospcSavesLeaveNoDebris) {
  const std::string victim = testing::TempDir() + "/wym_fault_debris.wym";
  ASSERT_TRUE(suite_->model.SaveToFile(victim).ok());

  io::FaultInjector injector;
  injector.FailWriteAt(64).Enospc(128);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(suite_->model.SaveToFile(victim).code(), Status::Code::kIoError);
    const Status enospc = suite_->model.SaveToFile(victim);
    EXPECT_EQ(enospc.code(), Status::Code::kIoError);
    EXPECT_NE(enospc.message().find("space"), std::string::npos)
        << enospc.ToString();
  }
  EXPECT_EQ(injector.faults_fired(), 2);

  // Both failures cleaned up their temp file and left the target alone.
  std::string tmp_probe;
  EXPECT_FALSE(io::ReadFileToString(victim + ".tmp", &tmp_probe).ok());
  auto survivor = core::WymModel::LoadFromFile(victim);
  EXPECT_TRUE(survivor.ok()) << survivor.status().ToString();
  std::remove(victim.c_str());
}

// ---------------------------------------------------------------------
// Legacy v1 files
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, V1FileIsRejectedAsCorruption) {
  // The unframed v1 stream carried no checksums, so a damaged one could
  // not be told from a good one: both load and verify refuse it.
  const std::string v1_path = testing::TempDir() + "/wym_fault_legacy.wym";
  ASSERT_TRUE(io::WriteFileAtomic(v1_path, "12 wym-model/v1 1 1 0 3 ").ok());
  auto loaded = core::WymModel::LoadFromFile(v1_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption)
      << loaded.status().ToString();
  std::string summary;
  const Status verified = core::WymModel::VerifyFile(v1_path, &summary);
  EXPECT_EQ(verified.code(), Status::Code::kCorruption) << verified.ToString();
  std::remove(v1_path.c_str());
}

// ---------------------------------------------------------------------
// Crafted files: valid CRCs, hostile contents
// ---------------------------------------------------------------------

/// The model-file magic and format version written by core/wym.cc.
constexpr char kModelMagic[] = "WYM2";
constexpr uint32_t kModelVersion = 1;

/// Loads the model file `bytes` after `edit` has rewritten the payload
/// lines of section `section`; the file is re-framed with correct CRCs,
/// so only the section's own checks can refuse it.
template <typename Edit>
Status LoadCrafted(const std::string& bytes, const std::string& section,
                   Edit edit) {
  std::vector<io::FileFrame> frames;
  const Status decoded =
      io::DecodeFramedFile(bytes, kModelMagic, kModelVersion, nullptr, &frames);
  if (!decoded.ok()) return decoded;
  bool found = false;
  for (io::FileFrame& frame : frames) {
    if (frame.name != section) continue;
    found = true;
    std::vector<std::string> lines;
    std::istringstream in(frame.payload);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    edit(&lines);
    frame.payload.clear();
    for (const std::string& line : lines) frame.payload += line + '\n';
  }
  if (!found) return Status::NotFound("no section " + section);
  const std::string path = testing::TempDir() + "/wym_crafted." +
                           std::to_string(::getpid()) + ".wym";
  WYM_RETURN_IF_ERROR(io::WriteFileAtomic(
      path, io::EncodeFramedFile(kModelMagic, kModelVersion, frames)));
  const auto loaded = core::WymModel::LoadFromFile(path);
  std::remove(path.c_str());
  return loaded.status();
}

void ExpectCorruption(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), Status::Code::kCorruption)
      << what << ": " << status.ToString();
}

TEST_F(FaultInjectionTest, ZeroEncoderDimensionIsCorruption) {
  // The re-framing alone must not be what these tests detect.
  ASSERT_TRUE(LoadCrafted(suite_->clean_bytes, "encoder",
                          [](std::vector<std::string>*) {})
                  .ok());
  // Encoder lines: tag, mode, hash_dim, cooc_dim, numeric_dims. A zero
  // hash_dim used to load and then divide by zero on the first token.
  for (const size_t line : {2u, 3u}) {
    ExpectCorruption(
        LoadCrafted(suite_->clean_bytes, "encoder",
                    [line](std::vector<std::string>* lines) {
                      (*lines)[line] = "0";
                    }),
        "zero dimension at encoder line " + std::to_string(line));
  }
  ExpectCorruption(LoadCrafted(suite_->clean_bytes, "encoder",
                               [](std::vector<std::string>* lines) {
                                 (*lines)[2] = "4097";
                               }),
                   "hash_dim above the cap");
}

TEST_F(FaultInjectionTest, OversizedBaseEmbeddingTableIsCorruption) {
  // The encoder derives one dim()-float row per cooc token at Load. Encoder
  // lines 2 and 4 are hash_dim and numeric_dims; from line 12 the cooc
  // section holds its token count, that many vectors (a size line plus
  // cooc_dim floats each), then that many token strings; the siamese
  // section follows. With both dimensions at their 4096 cap and the
  // vocabulary repeated to one row past MaxTableRows, the table would
  // exceed kMaxTableBytes: the file must be refused before any of it is
  // allocated, not loaded. The siamese weights are marked unfitted so
  // that their count does not tie the dimension.
  const Status status = LoadCrafted(
      suite_->clean_bytes, "encoder", [](std::vector<std::string>* lines) {
        const std::vector<std::string>& in = *lines;
        ASSERT_EQ(in[9], "7 cooc/v1");
        const size_t cooc_dim = std::stoul(in[3]);
        const size_t count = std::stoul(in[12]);
        ASSERT_GT(count, 0u);
        const size_t rows =
            embedding::SemanticEncoder::MaxTableRows(4096 + cooc_dim + 4096) +
            1;
        const size_t vector_lines = 1 + cooc_dim;
        const size_t vectors_at = 13;
        const size_t tokens_at = vectors_at + count * vector_lines;
        const size_t siamese_at = tokens_at + count;
        ASSERT_NE(in[siamese_at].find("siamese/v1"), std::string::npos);

        std::vector<std::string> out(in.begin(), in.begin() + vectors_at);
        out[2] = "4096";
        out[4] = "4096";
        out[12] = std::to_string(rows);
        for (size_t r = 0; r < rows; ++r) {
          const auto v = in.begin() + vectors_at + (r % count) * vector_lines;
          out.insert(out.end(), v, v + vector_lines);
        }
        for (size_t r = 0; r < rows; ++r) {
          out.push_back(in[tokens_at + r % count]);
        }
        out.insert(out.end(), in.begin() + siamese_at, in.end());
        out[out.size() - (in.size() - siamese_at) + 1] = "0";
        *lines = std::move(out);
      });
  ExpectCorruption(status, "base-embedding table above the byte cap");
  EXPECT_NE(status.message().find("section 'encoder'"), std::string::npos)
      << status.ToString();
}

TEST_F(FaultInjectionTest, EncoderWidthOtherThanScorersIsCorruption) {
  // Encoder line 2 is hash_dim: one more makes the encoder one dimension
  // wider than the scorer's network was trained on, which used to load
  // and then abort the first prediction. The siamese weights are marked
  // unfitted so that their count does not tie the dimension.
  const Status status = LoadCrafted(
      suite_->clean_bytes, "encoder", [](std::vector<std::string>* lines) {
        std::vector<std::string>& in = *lines;
        in[2] = std::to_string(std::stoul(in[2]) + 1);
        const auto siamese =
            std::find_if(in.begin(), in.end(), [](const std::string& line) {
              return line.find("siamese/v1") != std::string::npos;
            });
        ASSERT_NE(siamese, in.end());
        *(siamese + 1) = "0";
      });
  ExpectCorruption(status, "encoder wider than the scorer's input");
  EXPECT_NE(status.message().find("section 'encoder'"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("section 'scorer'"), std::string::npos)
      << status.ToString();
}

TEST_F(FaultInjectionTest, OutOfRangeEnumIsCorruption) {
  // Encoder mode (line 1), scorer kind (line 1) and the config's pairing
  // similarity (line 7) are each one past their last enumerator.
  ExpectCorruption(LoadCrafted(suite_->clean_bytes, "encoder",
                               [](std::vector<std::string>* lines) {
                                 (*lines)[1] = "3";
                               }),
                   "encoder mode");
  ExpectCorruption(LoadCrafted(suite_->clean_bytes, "scorer",
                               [](std::vector<std::string>* lines) {
                                 (*lines)[1] = "3";
                               }),
                   "scorer kind");
  ExpectCorruption(LoadCrafted(suite_->clean_bytes, "config",
                               [](std::vector<std::string>* lines) {
                                 (*lines)[7] = "2";
                               }),
                   "pairing similarity");
}

TEST_F(FaultInjectionTest, BrokenContextMixerIsCorruption) {
  // Encoder lines 5 and 6 are the context mixer's blend and temperature
  // (hexfloats). A temperature that is not finite and positive, or a
  // blend outside [0, 1], used to load; a zero or NaN temperature and a
  // NaN, infinite or 2^200 blend turn the mixed rows into NaN, and the
  // model then answered every pair as a match.
  const auto set_line = [](size_t line, const std::string& value) {
    return [line, value](std::vector<std::string>* lines) {
      ASSERT_EQ((*lines)[6], "0x1p-2");  // The default temperature, 0.25.
      (*lines)[line] = value;
    };
  };
  EXPECT_TRUE(LoadCrafted(suite_->clean_bytes, "encoder",
                          set_line(6, "0x1p-1"))
                  .ok());
  for (const char* value : {"0x0p+0", "-0x1p-2", "nan", "inf"}) {
    ExpectCorruption(
        LoadCrafted(suite_->clean_bytes, "encoder", set_line(6, value)),
        std::string("context temperature ") + value);
  }
  for (const char* value : {"nan", "inf", "0x1p+200", "-0x1p-2"}) {
    ExpectCorruption(
        LoadCrafted(suite_->clean_bytes, "encoder", set_line(5, value)),
        std::string("context blend ") + value);
  }
}

TEST_F(FaultInjectionTest, MatcherV1SectionIsCorruption) {
  // matcher/v1 sections also stored an importance vector in every
  // classifier and tree; they are refused, not misparsed.
  ExpectCorruption(LoadCrafted(suite_->clean_bytes, "matcher",
                               [](std::vector<std::string>* lines) {
                                 ASSERT_EQ((*lines)[0], "10 matcher/v2");
                                 (*lines)[0] = "10 matcher/v1";
                               }),
                   "matcher/v1 tag");
}

/// The saved bytes of a model trained on the suite's split with the
/// classifier pinned to `classifier`.
std::string PinnedModelBytes(const data::Split& split,
                             const std::string& classifier) {
  core::WymConfig config;
  config.classifier = classifier;
  core::WymModel model(config);
  model.Fit(split.train, split.validation);
  const std::string path = testing::TempDir() + "/wym_fault_" + classifier +
                           "." + std::to_string(::getpid()) + ".wym";
  std::string bytes;
  EXPECT_TRUE(model.SaveToFile(path).ok());
  EXPECT_TRUE(io::ReadFileToString(path, &bytes).ok());
  std::remove(path.c_str());
  return bytes;
}

/// Index of the first payload line equal to `line` (a serde tag line
/// such as "6 knn/v1"); fails the test, and returns 0, when there is
/// none.
size_t LineOf(const std::vector<std::string>& lines, const std::string& line) {
  const auto it = std::find(lines.begin(), lines.end(), line);
  if (it == lines.end()) {
    ADD_FAILURE() << "no line " << line;
    return 0;
  }
  return static_cast<size_t>(it - lines.begin());
}

/// Drops the last value of the serde vector whose length is on line
/// `count_line`; returns the line after the shortened vector.
size_t DropLastValue(std::vector<std::string>* lines, size_t count_line) {
  const size_t count = std::stoull(lines->at(count_line));
  const size_t last = count_line + count;
  if (count == 0 || last >= lines->size()) {
    ADD_FAILURE() << "no vector to shorten at line " << count_line;
    return count_line;
  }
  (*lines)[count_line] = std::to_string(count - 1);
  lines->erase(lines->begin() + static_cast<std::ptrdiff_t>(last));
  return last;
}

TEST_F(FaultInjectionTest, TreeCycleIsCorruption) {
  // A GBM whose first tree's root names itself as its left child used
  // to load and then loop forever in the first prediction.
  const std::string bytes = PinnedModelBytes(suite_->split, "GBM");

  // Tree lines: tag, node count, then per node feature, threshold,
  // left, right, value.
  const auto root_child = [](size_t offset, std::string value) {
    return [offset, value](std::vector<std::string>* lines) {
      const auto tag = std::find(lines->begin(), lines->end(), "7 tree/v1");
      ASSERT_NE(tag, lines->end());
      ASSERT_NE(*(tag + 2), "-1") << "root is a leaf";
      *(tag + offset) = value;
    };
  };
  ExpectCorruption(LoadCrafted(bytes, "matcher", root_child(4, "0")),
                   "root is its own left child");
  ExpectCorruption(LoadCrafted(bytes, "matcher", root_child(5, "0")),
                   "root is its own right child");
  EXPECT_TRUE(LoadCrafted(bytes, "matcher", root_child(2, "0")).ok())
      << "changing a split feature keeps the tree well formed";
}

TEST_F(FaultInjectionTest, SplitFeatureOutsideTheRowIsCorruption) {
  // A GBM whose first root splits on feature 999 of a 42-wide row used
  // to load, and Predict then read past the row (an ASan
  // heap-buffer-overflow in RegressionTree::Predict).
  ExpectCorruption(
      LoadCrafted(PinnedModelBytes(suite_->split, "GBM"), "matcher",
                  [](std::vector<std::string>* lines) {
                    // Tree lines: tag, node count, root feature, ...
                    const size_t root = LineOf(*lines, "7 tree/v1") + 2;
                    ASSERT_NE((*lines)[root], "-1") << "root is a leaf";
                    (*lines)[root] = "999";
                  }),
      "root splits on feature 999");
}

// The states below are narrowed by one feature, consistently, so that
// only a check against the extractor's width can refuse them.

TEST_F(FaultInjectionTest, KnnMatrixOfAnotherWidthIsCorruption) {
  // A KNN training matrix of one column fewer (41 on T-AB) used to load,
  // and the first explanation then aborted on KNN's own width check.
  ExpectCorruption(
      LoadCrafted(PinnedModelBytes(suite_->split, "KNN"), "matcher",
                  [](std::vector<std::string>* lines) {
                    // Matrix lines: tag, rows, cols, value count, values.
                    const size_t tag =
                        LineOf(*lines, "6 knn/v1") + 3;
                    ASSERT_EQ((*lines)[tag], "9 matrix/v1");
                    const size_t rows = std::stoull((*lines)[tag + 1]);
                    const size_t cols = std::stoull((*lines)[tag + 2]);
                    ASSERT_EQ(std::stoull((*lines)[tag + 3]), rows * cols);
                    (*lines)[tag + 2] = std::to_string(cols - 1);
                    (*lines)[tag + 3] = std::to_string(rows * (cols - 1));
                    // Drop each row's last value, last row first.
                    for (size_t r = rows; r-- > 0;) {
                      lines->erase(lines->begin() +
                                   static_cast<std::ptrdiff_t>(
                                       tag + 4 + r * cols + cols - 1));
                    }
                  }),
      "KNN training matrix one column narrower");
}

TEST_F(FaultInjectionTest, MemberStateOfAnotherWidthIsCorruption) {
  // LR, SVM and LDA store their weights first, NB its per-class mean
  // and variance vectors around each class prior.
  for (const std::string name : {"LR", "SVM", "LDA"}) {
    const std::string tag = std::to_string(name.size() + 3) + " " +
                            strings::ToLower(name) + "/v1";
    ExpectCorruption(
        LoadCrafted(PinnedModelBytes(suite_->split, name), "matcher",
                    [&tag](std::vector<std::string>* lines) {
                      DropLastValue(lines, LineOf(*lines, tag) + 1);
                    }),
        name + " weights one shorter");
  }
  ExpectCorruption(
      LoadCrafted(PinnedModelBytes(suite_->split, "NB"), "matcher",
                  [](std::vector<std::string>* lines) {
                    size_t line = LineOf(*lines, "5 nb/v1") + 1;
                    for (int c = 0; c < 2; ++c) {
                      line = DropLastValue(lines, line);  // Mean.
                      line = DropLastValue(lines, line);  // Variance.
                      ++line;                             // Class prior.
                    }
                  }),
      "NB moments one shorter");
  // Scaler lines: tag, fitted, mean vector, scale vector.
  ExpectCorruption(
      LoadCrafted(suite_->clean_bytes, "matcher",
                  [](std::vector<std::string>* lines) {
                    const size_t line =
                        DropLastValue(lines, LineOf(*lines, "9 scaler/v1") + 2);
                    DropLastValue(lines, line);
                  }),
      "scaler one feature narrower");
}

TEST_F(FaultInjectionTest, MatcherAttributeCountAboveTheCapIsCorruption) {
  // Matcher lines: tag, num_attributes, ... A count of 2^40 used to
  // build a feature extractor of that width, and the load threw
  // std::bad_alloc instead of returning a Status.
  ExpectCorruption(LoadCrafted(suite_->clean_bytes, "matcher",
                               [](std::vector<std::string>* lines) {
                                 ASSERT_EQ((*lines)[0], "10 matcher/v2");
                                 (*lines)[1] = std::to_string(1ULL << 40);
                               }),
                   "matcher attribute count 2^40");
}

TEST_F(FaultInjectionTest, ConfigAttributeCountMismatchIsCorruption) {
  // Config line 11 is num_attributes. One more than the matcher's used to
  // load, and the first prediction at the trained width then aborted on
  // PrepareEntity's width check; 2^40 would size every served pair.
  for (const std::string kind : {"one more", "2^40"}) {
    ExpectCorruption(
        LoadCrafted(suite_->clean_bytes, "config",
                    [&kind](std::vector<std::string>* lines) {
                      ASSERT_EQ((*lines)[0], "13 wym-config/v2");
                      std::string& count = (*lines)[11];
                      count = kind == "2^40"
                                  ? std::to_string(1ULL << 40)
                                  : std::to_string(std::stoull(count) + 1);
                    }),
        "config attribute count " + kind);
  }
}

// ---------------------------------------------------------------------
// CSV reader under injected faults
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TruncatedCsvReadIsReportedNotCrashed) {
  const std::string csv_path = testing::TempDir() + "/wym_fault_data.csv";
  ASSERT_TRUE(data::WriteDatasetCsv(suite_->split.test, csv_path).ok());
  std::string csv_bytes;
  ASSERT_TRUE(io::ReadFileToString(csv_path, &csv_bytes).ok());

  // Cut mid-row (not at a line boundary): the torn last row must be
  // reported as a parse failure with file:line, not silently dropped.
  const size_t last_newline = csv_bytes.find_last_of('\n', csv_bytes.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  io::FaultInjector injector;
  injector.ShortRead(last_newline + 3);
  io::ScopedFaultInjector scope(&injector);
  const auto torn = data::ReadDatasetCsv(csv_path, "test.csv");
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kCorruption);
  EXPECT_NE(torn.status().message().find("test.csv:"), std::string::npos)
      << torn.status().ToString();
  std::remove(csv_path.c_str());
}

// ---------------------------------------------------------------------
// Batch-prediction quarantine (graceful degradation)
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, DegenerateRecordsAreQuarantinedNotFatal) {
  // A record with empty descriptions tokenizes to zero tokens on both
  // sides — no decision units, so unexplainable. Without the quarantine
  // rule the matcher would answer from the features of an empty unit
  // set (a confident match on this model), not abort.
  data::Dataset poisoned = suite_->split.test;
  const size_t width = poisoned.schema.size();
  data::EmRecord degenerate;
  degenerate.label = 0;
  degenerate.left.values.assign(width, "");
  degenerate.right.values.assign(width, "");
  poisoned.records.insert(poisoned.records.begin() + 1, degenerate);

  core::PredictionReport report;
  const std::vector<double> probas =
      suite_->model.PredictProbaBatch(poisoned, &report);
  ASSERT_EQ(probas.size(), poisoned.size());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].index, 1u);
  EXPECT_NE(report.quarantined[0].reason.find("zero tokens"),
            std::string::npos);
  EXPECT_EQ(report.predicted, poisoned.size() - 1);
  EXPECT_FALSE(report.clean());

  // The quarantined slot gets the non-match fallback; every healthy
  // record predicts exactly as it does without the poison pill.
  EXPECT_EQ(probas[1], 0.0);
  EXPECT_DOUBLE_EQ(probas[0], suite_->clean_probas[0]);
  for (size_t i = 2; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i - 1]);
  }

  // ExplainBatch quarantines the same record with an empty explanation.
  core::PredictionReport explain_report;
  const std::vector<core::Explanation> explanations =
      suite_->model.ExplainBatch(poisoned, &explain_report);
  ASSERT_EQ(explanations.size(), poisoned.size());
  ASSERT_EQ(explain_report.quarantined.size(), 1u);
  EXPECT_TRUE(explanations[1].units.empty());
  EXPECT_EQ(explanations[1].probability, 0.0);
  EXPECT_EQ(explanations[1].prediction, 0);

  // The single-record calls are the batch of one: same fallback as the
  // batch slot.
  EXPECT_EQ(suite_->model.PredictProba(degenerate), 0.0);
  EXPECT_EQ(suite_->model.Predict(degenerate), 0);
  const core::Explanation single = suite_->model.Explain(degenerate);
  EXPECT_EQ(single.probability, 0.0);
  EXPECT_EQ(single.prediction, 0);
  EXPECT_TRUE(single.units.empty());
}

TEST_F(FaultInjectionTest, NanTokenDoesNotPoisonItsEntity) {
  // "nan" parses to NaN under strtod. As a number it made the token's
  // embedding non-finite, context mixing spread that to every token of
  // its description, and no unit could pair. It is a word (and a brand).
  const size_t width = suite_->split.test.schema.size();
  data::EmRecord record;
  record.left.values.assign(width, "");
  record.right.values.assign(width, "");
  record.left.values[0] = "sony nan camera";
  record.right.values[0] = "sony camera";

  const core::TokenizedRecord prepared = suite_->model.Prepare(record);
  ASSERT_EQ(prepared.left.size(), 3u);
  ASSERT_FALSE(prepared.left.embeddings.empty());
  for (const float v : prepared.left.embeddings) ASSERT_TRUE(std::isfinite(v));

  core::PredictionReport report;
  const std::vector<core::Explanation> explained =
      suite_->model.ExplainBatch(std::span(&record, 1), &report);
  EXPECT_TRUE(report.clean());
  const core::Explanation& explanation = explained.front();
  EXPECT_TRUE(std::isfinite(explanation.probability));
  size_t paired = 0;
  for (const core::ExplainedUnit& unit : explanation.units) {
    EXPECT_TRUE(std::isfinite(unit.unit.similarity));
    EXPECT_TRUE(std::isfinite(unit.relevance));
    EXPECT_TRUE(std::isfinite(unit.impact));
    if (unit.unit.paired) {
      EXPECT_EQ(unit.unit.left.token, unit.unit.right.token);
      ++paired;
    }
  }
  // (sony, sony), (camera, camera) and an unpaired "nan".
  EXPECT_EQ(paired, 2u);
  EXPECT_EQ(explanation.units.size(), 3u);
}

// ---------------------------------------------------------------------
// Failure paths feed the obs metrics registry (DESIGN.md
// "Observability"): every detected fault leaves an audit trail in a
// counter, so production runs can alarm on nonzero deltas.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, CorruptionLoadIncrementsCounter) {
  obs::Counter& corruption =
      obs::Registry::Global().GetCounter("io.corruption_detected");
  const std::uint64_t before = corruption.Value();

  io::FaultInjector injector;
  injector.FlipBit(suite_->clean_bytes.size() * 4);  // Mid-file payload.
  io::ScopedFaultInjector scope(&injector);
  const auto loaded = core::WymModel::LoadFromFile(suite_->path);
  ASSERT_FALSE(loaded.ok());

  EXPECT_GT(corruption.Value(), before)
      << "corrupted load left io.corruption_detected untouched";
}

TEST_F(FaultInjectionTest, CsvQuarantineIncrementsCounter) {
  obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("csv.rows_quarantined");
  const std::uint64_t before = quarantined.Value();

  // Two damaged rows in an otherwise healthy file.
  std::string csv = data::DatasetToCsv(suite_->split.test);
  csv += "torn,row\n";
  csv += "\"unterminated quote\n";
  data::CsvOptions options;
  options.quarantine = true;
  data::CsvReport report;
  const auto parsed = data::DatasetFromCsv(csv, "poisoned.csv", options,
                                           &report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_GE(report.rows_quarantined, 2u);

  EXPECT_EQ(quarantined.Value() - before, report.rows_quarantined)
      << "csv.rows_quarantined must track CsvReport exactly";
}

TEST_F(FaultInjectionTest, PredictQuarantineIncrementsCounter) {
  obs::Counter& quarantined =
      obs::Registry::Global().GetCounter("predict.records_quarantined");
  obs::Counter& records =
      obs::Registry::Global().GetCounter("predict.records");
  const std::uint64_t quarantined_before = quarantined.Value();
  const std::uint64_t records_before = records.Value();

  data::Dataset poisoned = suite_->split.test;
  data::EmRecord degenerate;
  degenerate.label = 0;
  degenerate.left.values.assign(poisoned.schema.size(), "");
  degenerate.right.values.assign(poisoned.schema.size(), "");
  poisoned.records.push_back(degenerate);

  core::PredictionReport report;
  (void)suite_->model.PredictProbaBatch(poisoned, &report);
  ASSERT_EQ(report.quarantined.size(), 1u);

  EXPECT_EQ(quarantined.Value() - quarantined_before, 1u);
  EXPECT_EQ(records.Value() - records_before, poisoned.size());
}

TEST_F(FaultInjectionTest, CleanDatasetReportsClean) {
  core::PredictionReport report;
  const std::vector<double> probas =
      suite_->model.PredictProbaBatch(suite_->split.test, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.predicted, suite_->split.test.size());
  ASSERT_EQ(probas.size(), suite_->clean_probas.size());
  for (size_t i = 0; i < probas.size(); ++i) {
    EXPECT_DOUBLE_EQ(probas[i], suite_->clean_probas[i]);
  }
}

}  // namespace
}  // namespace wym
