// Tests of the SIMD kernel layer (la/kernels.h): bit-identity of both
// dispatch paths (scalar vs AVX2) on randomized inputs, the
// WYM_SIMD environment contract, and the end-to-end guarantee that the
// selected path does not change pipeline outputs — identical decision
// units and byte-identical trained model files.
//
// The whole suite is re-run by ctest with WYM_SIMD=off (see
// tests/CMakeLists.txt) so the scalar dispatch path stays exercised.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/tokenized_record.h"
#include "core/unit_generator.h"
#include "core/wym.h"
#include "data/benchmark_gen.h"
#include "data/split.h"
#include "embedding/semantic_encoder.h"
#include "la/kernels.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace wym {
namespace {

using la::kernels::SimdLevel;

/// Restores the ambient dispatch level when a test body returns.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(la::kernels::ActiveSimdLevel()) {
    la::kernels::SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { la::kernels::SetSimdLevel(previous_); }

 private:
  SimdLevel previous_;
};

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel detected = la::kernels::DetectedSimdLevel();
  if (detected != SimdLevel::kScalar) levels.push_back(detected);
  return levels;
}

// Sizes chosen to cover the empty case, pure-tail cases, one full
// 8-block, and block+tail combinations.
const size_t kSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 72, 129};

std::vector<float> RandomF32(Rng* rng, size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng->Uniform(-1.5, 1.5));
  return out;
}

std::vector<double> RandomF64(Rng* rng, size_t n) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng->Uniform(-1.5, 1.5);
  return out;
}

TEST(KernelDispatchTest, DetectedLevelIsAtLeastScalar) {
  EXPECT_GE(la::kernels::DetectedSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(la::kernels::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(la::kernels::SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(KernelDispatchTest, RequestedLevelParsesWymSimdStrictly) {
  using la::kernels::RequestedSimdLevel;
  testing::internal::CaptureStderr();
  EXPECT_EQ(RequestedSimdLevel(nullptr), SimdLevel::kAvx2);
  EXPECT_EQ(RequestedSimdLevel("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(RequestedSimdLevel("off"), SimdLevel::kScalar);
  EXPECT_EQ(RequestedSimdLevel("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // The request resolves to one of the two tables.
  ScopedSimdLevel guard(la::kernels::DetectedSimdLevel());
  EXPECT_EQ(la::kernels::SetSimdLevel(RequestedSimdLevel("off")),
            SimdLevel::kScalar);
  EXPECT_EQ(la::kernels::SetSimdLevel(RequestedSimdLevel("avx2")),
            la::kernels::DetectedSimdLevel());
  // Unknown values, the removed "sse2" among them, ask for the default
  // and say so once each.
  for (const char* unknown : {"sse2", "", "AVX2", "avx2 "}) {
    SCOPED_TRACE(unknown);
    testing::internal::CaptureStderr();
    EXPECT_EQ(RequestedSimdLevel(unknown), SimdLevel::kAvx2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.rfind("wym: ", 0), 0u) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
}

TEST(KernelDispatchTest, ActiveLevelRespectsWymSimdEnv) {
  // The suite runs twice under ctest: once with the default dispatch
  // and once with WYM_SIMD=off. SetSimdLevel-based tests override the
  // active level, so this is the one place the env resolution itself is
  // asserted. Restore whatever a previous test left active first.
  la::kernels::SetSimdLevel(la::kernels::DetectedSimdLevel());
  const char* env = std::getenv("WYM_SIMD");
  if (env != nullptr && std::strcmp(env, "off") == 0) {
    // ctest scalar re-run: forcing anything above scalar must still work,
    // but the env-resolved startup level was scalar (checked indirectly:
    // resolution happened before this test could interfere).
    EXPECT_EQ(la::kernels::SetSimdLevel(SimdLevel::kScalar),
              SimdLevel::kScalar);
  }
  EXPECT_EQ(la::kernels::SetSimdLevel(SimdLevel::kAvx2),
            la::kernels::DetectedSimdLevel());
}

TEST(KernelDispatchTest, SetSimdLevelClampsToDetected) {
  ScopedSimdLevel guard(la::kernels::DetectedSimdLevel());
  EXPECT_EQ(la::kernels::SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(la::kernels::ActiveSimdLevel(), SimdLevel::kScalar);
  const SimdLevel applied = la::kernels::SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(applied, la::kernels::DetectedSimdLevel());
  EXPECT_EQ(applied, la::kernels::ActiveSimdLevel());
}

TEST(KernelParityTest, ReductionsBitIdenticalAcrossLevels) {
  Rng rng(0xBEEF);
  for (size_t n : kSizes) {
    const std::vector<float> fa = RandomF32(&rng, n);
    const std::vector<float> fb = RandomF32(&rng, n);
    const std::vector<double> da = RandomF64(&rng, n);
    const std::vector<double> db = RandomF64(&rng, n);

    ScopedSimdLevel guard(SimdLevel::kScalar);
    const double dot_f32 = la::kernels::Dot(fa.data(), fb.data(), n);
    const double dot_f64 = la::kernels::Dot(da.data(), db.data(), n);
    const double sqnorm_f32 = la::kernels::SquaredNorm(fa.data(), n);
    const double sqnorm_f64 = la::kernels::SquaredNorm(da.data(), n);

    for (SimdLevel level : AvailableLevels()) {
      la::kernels::SetSimdLevel(level);
      SCOPED_TRACE(testing::Message() << "n=" << n << " level="
                                      << la::kernels::SimdLevelName(level));
      // Bit-identical, not approximately equal.
      EXPECT_EQ(dot_f32, la::kernels::Dot(fa.data(), fb.data(), n));
      EXPECT_EQ(dot_f64, la::kernels::Dot(da.data(), db.data(), n));
      EXPECT_EQ(sqnorm_f32, la::kernels::SquaredNorm(fa.data(), n));
      EXPECT_EQ(sqnorm_f64, la::kernels::SquaredNorm(da.data(), n));
    }
  }
}

/// The single-pair reference reduction of sum_i (a[i] - b[i])^2: 8
/// partial sums by index mod 8, collapsed in the kernels' fixed tree.
double ReferenceSquaredDistance(const double* a, const double* b, size_t n) {
  double s[8] = {0.0};
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s[i % 8] += d * d;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

TEST(KernelParityTest, RowBlockDistancesMatchSinglePairReference) {
  Rng rng(0xD15);
  std::vector<size_t> row_counts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 840};
  std::vector<size_t> dims;
  for (size_t dim = 0; dim <= 19; ++dim) dims.push_back(dim);
  dims.push_back(42);
  for (size_t n_rows : row_counts) {
    for (size_t dim : dims) {
      const std::vector<double> rows = RandomF64(&rng, n_rows * dim);
      const std::vector<double> query = RandomF64(&rng, dim);
      std::vector<double> packed(la::kernels::RowBlocksSize(n_rows, dim));
      la::kernels::PackRowBlocks(rows.data(), n_rows, dim, packed.data());
      for (SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel guard(level);
        SCOPED_TRACE(testing::Message()
                     << "rows=" << n_rows << " dim=" << dim << " level="
                     << la::kernels::SimdLevelName(level));
        // One slot past the end catches a write beyond the last row.
        std::vector<double> out(n_rows + 1, -1.0);
        la::kernels::SquaredDistances(query.data(), packed.data(), n_rows,
                                      dim, out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          // Bit-identical, not approximately equal.
          ASSERT_EQ(ReferenceSquaredDistance(query.data(),
                                             rows.data() + r * dim, dim),
                    out[r])
              << "row " << r;
        }
        EXPECT_EQ(out[n_rows], -1.0);
      }
    }
  }
}

TEST(KernelParityTest, ElementwiseOpsBitIdenticalAcrossLevels) {
  Rng rng(0xCAFE);
  for (size_t n : kSizes) {
    const std::vector<float> fx = RandomF32(&rng, n);
    const std::vector<float> fy = RandomF32(&rng, n);
    const std::vector<double> dx = RandomF64(&rng, n);
    const std::vector<double> dy = RandomF64(&rng, n);
    const double scale = rng.Uniform(-2.0, 2.0);

    std::vector<float> f_ref = fy;
    std::vector<double> d_ref = dy;
    std::vector<float> f_scale_ref = fx;
    std::vector<double> d_scale_ref = dx;
    {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      la::kernels::Axpy(scale, fx.data(), f_ref.data(), n);
      la::kernels::Axpy(scale, dx.data(), d_ref.data(), n);
      la::kernels::Scale(scale, f_scale_ref.data(), n);
      la::kernels::Scale(scale, d_scale_ref.data(), n);
    }

    for (SimdLevel level : AvailableLevels()) {
      ScopedSimdLevel guard(level);
      SCOPED_TRACE(testing::Message() << "n=" << n << " level="
                                      << la::kernels::SimdLevelName(level));
      std::vector<float> f_out = fy;
      std::vector<double> d_out = dy;
      std::vector<float> f_scale_out = fx;
      std::vector<double> d_scale_out = dx;
      la::kernels::Axpy(scale, fx.data(), f_out.data(), n);
      la::kernels::Axpy(scale, dx.data(), d_out.data(), n);
      la::kernels::Scale(scale, f_scale_out.data(), n);
      la::kernels::Scale(scale, d_scale_out.data(), n);
      EXPECT_EQ(f_ref, f_out);
      EXPECT_EQ(d_ref, d_out);
      EXPECT_EQ(f_scale_ref, f_scale_out);
      EXPECT_EQ(d_scale_ref, d_scale_out);
    }
  }
}

TEST(KernelParityTest, SimilarityMatrixBitIdenticalAcrossLevels) {
  Rng rng(0xD07);
  const size_t rows_a = 13, rows_b = 29, dim = 72;
  const std::vector<float> a = RandomF32(&rng, rows_a * dim);
  const std::vector<float> b = RandomF32(&rng, rows_b * dim);

  std::vector<double> reference(rows_a * rows_b);
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    la::kernels::SimilarityMatrix(a.data(), rows_a, b.data(), rows_b, dim,
                                  reference.data());
  }
  // The reference agrees with per-cell Dot.
  for (size_t i = 0; i < rows_a; ++i) {
    for (size_t j = 0; j < rows_b; ++j) {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      EXPECT_EQ(reference[i * rows_b + j],
                la::kernels::Dot(a.data() + i * dim, b.data() + j * dim, dim));
    }
  }

  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(la::kernels::SimdLevelName(level));
    std::vector<double> out(rows_a * rows_b);
    la::kernels::SimilarityMatrix(a.data(), rows_a, b.data(), rows_b, dim,
                                  out.data());
    EXPECT_EQ(reference, out);
  }
}

// --- Lane-interleaved dense layer ------------------------------------

/// One (output, lane) cell of DenseLayer the plain way: a sequential
/// chain from 0.0 in input order, then bias + sum, then ReLU.
double ReferenceDenseCell(const std::vector<double>& w,
                          const std::vector<double>& bias,
                          const std::vector<double>& x, size_t in_dim,
                          size_t lanes, size_t o, size_t r, bool relu) {
  double sum = 0.0;
  for (size_t i = 0; i < in_dim; ++i) {
    sum += w[o * in_dim + i] * x[i * lanes + r];
  }
  const double cell = bias[o] + sum;
  return relu ? std::max(0.0, cell) : cell;
}

TEST(KernelParityTest, DenseLayerBitIdenticalToScalarChainAtEveryLevel) {
  // Input widths: empty, pure tails, and the relevance-scorer layer
  // shapes (144 -> 64 -> 32 -> 1); output counts around the 4-output
  // register tile; lane counts around the 2-, 4- and 8-lane vectors.
  const size_t in_dims[] = {0, 1, 3, 17, 144};
  const size_t out_dims[] = {1, 3, 4, 5, 9, 32};
  const size_t lane_counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 39};
  Rng rng(0xDE45E);
  for (size_t in_dim : in_dims) {
    for (size_t out_dim : out_dims) {
      const std::vector<double> w = RandomF64(&rng, out_dim * in_dim);
      const std::vector<double> bias = RandomF64(&rng, out_dim);
      for (size_t lanes : lane_counts) {
        std::vector<double> x = RandomF64(&rng, in_dim * lanes);
        // Signed zeros and a NaN: ReLU must give +0.0 for -0.0, 0.0 and
        // NaN cells, exactly like std::max(0.0, v).
        if (!x.empty()) x[0] = -0.0;
        if (x.size() > 2) x[2] = std::numeric_limits<double>::quiet_NaN();
        for (bool relu : {false, true}) {
          std::vector<double> reference(out_dim * lanes);
          for (size_t o = 0; o < out_dim; ++o) {
            for (size_t r = 0; r < lanes; ++r) {
              reference[o * lanes + r] = ReferenceDenseCell(
                  w, bias, x, in_dim, lanes, o, r, relu);
            }
          }
          for (SimdLevel level : AvailableLevels()) {
            ScopedSimdLevel guard(level);
            SCOPED_TRACE(testing::Message()
                         << "in=" << in_dim << " out=" << out_dim
                         << " lanes=" << lanes << " relu=" << relu
                         << " level=" << la::kernels::SimdLevelName(level));
            // One spare slot past the block: the kernel must not touch it.
            std::vector<double> out(out_dim * lanes + 1, 42.0);
            la::kernels::DenseLayer(w.data(), bias.data(), in_dim, out_dim,
                                    x.data(), lanes, relu, out.data());
            EXPECT_EQ(out.back(), 42.0);
            for (size_t c = 0; c < reference.size(); ++c) {
              if (std::isnan(reference[c])) {
                EXPECT_TRUE(std::isnan(out[c])) << "cell " << c;
              } else {
                EXPECT_EQ(std::memcmp(&reference[c], &out[c], sizeof(double)),
                          0)
                    << "cell " << c << ": " << reference[c] << " vs "
                    << out[c];
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, DenseLayerRowIndependentOfBlockPosition) {
  // A row gives the same bits alone (lanes = 1) as at any position of a
  // wider interleaved block.
  const size_t in_dim = 144, out_dim = 64, lanes = 39;
  Rng rng(0x1A4E);
  const std::vector<double> w = RandomF64(&rng, out_dim * in_dim);
  const std::vector<double> bias = RandomF64(&rng, out_dim);
  const std::vector<double> x = RandomF64(&rng, in_dim * lanes);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(la::kernels::SimdLevelName(level));
    std::vector<double> block(out_dim * lanes);
    la::kernels::DenseLayer(w.data(), bias.data(), in_dim, out_dim, x.data(),
                            lanes, /*relu=*/true, block.data());
    for (size_t r = 0; r < lanes; ++r) {
      std::vector<double> row(in_dim);
      for (size_t i = 0; i < in_dim; ++i) row[i] = x[i * lanes + r];
      std::vector<double> single(out_dim);
      la::kernels::DenseLayer(w.data(), bias.data(), in_dim, out_dim,
                              row.data(), 1, /*relu=*/true, single.data());
      for (size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(std::memcmp(&block[o * lanes + r], &single[o],
                              sizeof(double)),
                  0)
            << "row " << r << " output " << o;
      }
    }
  }
}

// --- End-to-end: the dispatch path must not change pipeline outputs ---

core::TokenizedRecord EncodeFirstRecord(const data::Dataset& dataset) {
  const text::Tokenizer tokenizer;
  embedding::SemanticEncoderOptions options;
  options.mode = embedding::EncoderMode::kPretrained;
  embedding::SemanticEncoder encoder(options);
  encoder.Fit({});
  core::TokenizedRecord record = core::TokenizeRecord(
      dataset.records.front(), dataset.schema, tokenizer);
  core::EncodeEntity(encoder, &record.left);
  core::EncodeEntity(encoder, &record.right);
  return record;
}

TEST(KernelPipelineTest, DecisionUnitsIdenticalAcrossLevels) {
  const data::Dataset dataset = data::GenerateById("S-WA", 42, 0.1);
  const core::DecisionUnitGenerator generator;

  // Encoding itself runs through the kernels, so each level encodes its
  // own copy: the test covers encode + packing + unit generation.
  std::vector<core::DecisionUnit> reference;
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    const core::TokenizedRecord record = EncodeFirstRecord(dataset);
    reference = generator.Generate(record.left, record.right,
                                   dataset.schema.size());
  }
  ASSERT_FALSE(reference.empty());

  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(la::kernels::SimdLevelName(level));
    const core::TokenizedRecord record = EncodeFirstRecord(dataset);
    const std::vector<core::DecisionUnit> units =
        generator.Generate(record.left, record.right, dataset.schema.size());
    ASSERT_EQ(units.size(), reference.size());
    for (size_t u = 0; u < units.size(); ++u) {
      EXPECT_EQ(units[u].paired, reference[u].paired);
      EXPECT_EQ(units[u].phase, reference[u].phase);
      EXPECT_EQ(units[u].left.position, reference[u].left.position);
      EXPECT_EQ(units[u].right.position, reference[u].right.position);
      EXPECT_EQ(units[u].left.token, reference[u].left.token);
      EXPECT_EQ(units[u].right.token, reference[u].right.token);
      // Similarities bit-identical, not approximately equal.
      EXPECT_EQ(std::memcmp(&units[u].similarity, &reference[u].similarity,
                            sizeof(double)),
                0);
    }
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(KernelPipelineTest, TrainedModelFilesByteIdenticalAcrossLevels) {
  const data::Dataset dataset = data::GenerateById("S-FZ", 42, 0.25);
  const data::Split split = data::DefaultSplit(dataset, 42);

  auto train_and_save = [&](SimdLevel level, const std::string& path) {
    ScopedSimdLevel guard(level);
    core::WymModel model;
    model.Fit(split.train, split.validation);
    ASSERT_TRUE(model.SaveToFile(path).ok());
  };

  // PID-unique paths: ctest runs this binary twice (default dispatch and
  // the WYM_SIMD=off rerun), possibly concurrently.
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string scalar_path =
      testing::TempDir() + "/wym_scalar_" + tag + ".bin";
  const std::string simd_path = testing::TempDir() + "/wym_simd_" + tag + ".bin";
  train_and_save(SimdLevel::kScalar, scalar_path);
  train_and_save(la::kernels::DetectedSimdLevel(), simd_path);

  const std::string scalar_bytes = FileBytes(scalar_path);
  const std::string simd_bytes = FileBytes(simd_path);
  ASSERT_FALSE(scalar_bytes.empty());
  EXPECT_EQ(scalar_bytes, simd_bytes)
      << "training under WYM_SIMD=off and under the dispatched kernels "
         "must produce byte-identical model files";
  std::remove(scalar_path.c_str());
  std::remove(simd_path.c_str());
}

}  // namespace
}  // namespace wym
