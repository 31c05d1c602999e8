// Tests for the versioned mmap-able checkpoint format (serialize/):
//   * bit-exact save -> load round-trips for every serving variant
//     (fp32 / w2a2-packed / sc-lut / sc-emulated), eager and mmap paths;
//   * the corruption battery — truncation, bad magic, future version,
//     flipped payload bit, record pointing past EOF — each failing with its
//     own typed CheckpointError kind on both load paths;
//   * the committed golden checkpoint (format-compat pin; regenerate with
//     scripts/make_golden_checkpoint.cpp only on an intentional bump);
//   * registry cold-start: ModelRegistry::register_from_file for all four
//     variant kinds, serving zero-copy off the mapping;
//   * HeapScope composition: nothing a load produces lives in a resettable
//     activation arena.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "nn/rng.h"
#include "runtime/arena.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "serialize/checkpoint.h"
#include "serialize/model_io.h"
#include "vit/model.h"
#include "vit/sc_inference.h"
#include "vit/servable.h"

using namespace ascend;
using serialize::CheckpointError;
using Kind = CheckpointError::Kind;

namespace {

vit::VitConfig tiny_topology() {
  vit::VitConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;  // 4 tokens
  cfg.dim = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.mlp_ratio = 2;
  cfg.classes = 4;
  return cfg;
}

nn::Tensor random_images(const vit::VitConfig& cfg, int batch, std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor t({batch, cfg.channels * cfg.image_size * cfg.image_size});
  rng.fill_uniform(t, 0.0f, 1.0f);
  return t;
}

/// W2-A2-R16 model with every LSQ step calibrated by one eval-mode forward.
vit::VisionTransformer calibrated_model(std::uint64_t seed, const nn::Tensor& calib) {
  vit::VisionTransformer model(tiny_topology(), seed);
  model.apply_precision(vit::PrecisionSpec::w2a2r16());
  (void)model.forward(calib, /*training=*/false);
  return model;
}

nn::Tensor const_infer(const vit::VisionTransformer& m, const nn::Tensor& x) { return m.infer(x); }

void expect_same_logits(const nn::Tensor& got, const nn::Tensor& ref) {
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]) << "logit " << i;
}

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

// --- raw file munging for the corruption battery ---------------------------

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  std::vector<unsigned char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spew(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
T rd(const std::vector<unsigned char>& b, std::size_t off) {
  T v;
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}

template <typename T>
void wr(std::vector<unsigned char>& b, std::size_t off, T v) {
  std::memcpy(b.data() + off, &v, sizeof(T));
}

// FileHeader field offsets (pinned by the format, see checkpoint.cpp).
constexpr std::size_t kOffVersion = 12;
constexpr std::size_t kOffTableOffset = 40;
constexpr std::size_t kOffRecordCount = 56;
constexpr std::size_t kOffTableCrc = 64;
constexpr std::size_t kOffHeaderCrc = 124;
constexpr std::size_t kRecordBytes = 128;
constexpr std::size_t kRecOffOffset = 104;  ///< Record.offset within a table row

/// Load `path` through either path and return the CheckpointError kind it
/// fails with (both paths share the validator, and the tests prove it).
Kind load_failure_kind(const std::string& path, bool use_mmap) {
  try {
    if (use_mmap)
      (void)serialize::load_model_mmap(path);
    else
      (void)serialize::load_model(path);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "load of " << path << " (mmap=" << use_mmap << ") did not throw";
  return Kind::kIo;
}

std::string saved_w2a2_checkpoint(const std::string& name) {
  const nn::Tensor calib = random_images(tiny_topology(), 8, 11);
  vit::VisionTransformer model = calibrated_model(21, calib);
  const std::string path = tmp_path(name);
  serialize::save_model(model, path);
  return path;
}

// --- golden fixture helpers ------------------------------------------------

std::string golden_dir() { return std::string(ASCEND_SOURCE_DIR) + "/tests/data"; }

nn::Tensor read_matrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::uint32_t rows = 0, cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  nn::Tensor t({static_cast<int>(rows), static_cast<int>(cols)});
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  EXPECT_TRUE(in.good()) << path;
  return t;
}

// ---------------------------------------------------------------------------
// Round-trips

TEST(SerializeRoundTrip, Fp32EagerAndMmapBitExact) {
  vit::VisionTransformer model(tiny_topology(), 31);  // precision fp by default
  const nn::Tensor input = random_images(model.config(), 4, 32);
  const nn::Tensor ref = const_infer(model, input);

  const std::string path = tmp_path("fp32.ckpt");
  model.save(path);

  const auto eager = vit::VisionTransformer::load(path);
  expect_same_logits(const_infer(*eager, input), ref);

  serialize::MappedModel mapped = serialize::load_model_mmap(path);
  expect_same_logits(const_infer(*mapped.model, input), ref);
}

TEST(SerializeRoundTrip, W2A2PackedEagerAndMmapBitExact) {
  const nn::Tensor calib = random_images(tiny_topology(), 8, 41);
  vit::VisionTransformer model = calibrated_model(42, calib);
  const nn::Tensor input = random_images(model.config(), 4, 43);
  const nn::Tensor ref = const_infer(model, input);

  const std::string path = tmp_path("w2a2.ckpt");
  model.save(path);

  // Sign-plane records are no longer written: a W2A2 checkpoint carries the
  // weights and calibration only, and the code snapshot rebuilds on load.
  serialize::CheckpointReader reader(path);
  for (const serialize::Record& r : reader.records())
    EXPECT_EQ(r.name.find(".packed"), std::string::npos) << r.name;

  const auto eager = vit::VisionTransformer::load(path);
  EXPECT_EQ(eager->precision().name(), model.precision().name());
  expect_same_logits(const_infer(*eager, input), ref);

  serialize::MappedModel mapped = serialize::load_model_mmap(path);
  expect_same_logits(const_infer(*mapped.model, input), ref);
}

TEST(SerializeRoundTrip, ScVariantsBitExact) {
  const nn::Tensor calib = random_images(tiny_topology(), 8, 51);
  vit::VisionTransformer model = calibrated_model(52, calib);
  const nn::Tensor input = random_images(model.config(), 4, 53);

  const std::string path = tmp_path("sc.ckpt");
  model.save(path);

  runtime::ThreadPool sc_pool(2);
  for (const runtime::VariantKind kind :
       {runtime::VariantKind::kScLut, runtime::VariantKind::kScEmulated}) {
    vit::ScInferenceConfig cfg;  // SC softmax on by default
    vit::ScServableOptions opts;
    opts.pool = &sc_pool;
    const auto ref_servable = vit::make_servable(model.clone_for_serving(), kind, "ref", cfg, opts);
    const nn::Tensor ref = ref_servable->infer(input);

    serialize::MappedModel mapped = serialize::load_model_mmap(path);
    const auto got_servable =
        vit::make_servable(std::move(mapped.model), kind, "got", cfg, opts, mapped.mapping);
    expect_same_logits(got_servable->infer(input), ref);
  }
}

TEST(SerializeRoundTrip, WriterIsDeterministicAndResaveIsByteIdentical) {
  const nn::Tensor calib = random_images(tiny_topology(), 8, 61);
  vit::VisionTransformer model = calibrated_model(62, calib);
  const std::string a = tmp_path("det_a.ckpt");
  const std::string b = tmp_path("det_b.ckpt");
  model.save(a);
  model.save(b);
  EXPECT_EQ(slurp(a), slurp(b)) << "same model, different bytes";

  // Full-state round-trip: everything the format carries survives a reload,
  // so saving the loaded model reproduces the file bit for bit.
  const auto loaded = vit::VisionTransformer::load(a);
  const std::string c = tmp_path("det_c.ckpt");
  loaded->save(c);
  EXPECT_EQ(slurp(a), slurp(c)) << "load -> save is lossy";
}

TEST(SerializeRoundTrip, MmapViewsAreBorrowedAndPointIntoMapping) {
  const std::string path = saved_w2a2_checkpoint("views.ckpt");
  serialize::MappedModel mapped = serialize::load_model_mmap(path);
  nn::Tensor& w = mapped.model->patch_embed().weight().value;
  EXPECT_TRUE(w.borrowed());
  EXPECT_FALSE(w.arena_backed());
  EXPECT_TRUE(mapped.mapping->owns_address(w.data()));
  EXPECT_TRUE(mapped.mapping->owns_address(mapped.model->pos_embed().value.data()));
  // Mutable training state must NOT alias the read-only mapping.
  EXPECT_FALSE(mapped.mapping->owns_address(mapped.model->patch_embed().weight().grad.data()));
}

TEST(SerializeRoundTrip, LoadInsideArenaScopeSurvivesReset) {
  const std::string path = saved_w2a2_checkpoint("arena.ckpt");
  const nn::Tensor input = random_images(tiny_topology(), 2, 71);

  runtime::Arena arena(1 << 20);
  std::unique_ptr<vit::VisionTransformer> model;
  {
    runtime::ArenaScope scope(arena);  // a hostile caller loads mid-forward
    model = vit::VisionTransformer::load(path);
    EXPECT_FALSE(model->patch_embed().weight().value.arena_backed());
  }
  arena.reset();  // would wipe any slab-backed weight
  const nn::Tensor after = const_infer(*model, input);
  const auto fresh = vit::VisionTransformer::load(path);
  expect_same_logits(after, const_infer(*fresh, input));
}

// ---------------------------------------------------------------------------
// Corruption battery — each failure mode, both load paths, typed errors.

class SerializeCorruption : public testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    static const std::string path = saved_w2a2_checkpoint("corrupt_base.ckpt");
    base_path_ = &path;
  }
  static const std::string* base_path_;
  bool mmap() const { return GetParam(); }
};

const std::string* SerializeCorruption::base_path_ = nullptr;

TEST_P(SerializeCorruption, TruncatedFile) {
  auto bytes = slurp(*base_path_);
  bytes.resize(bytes.size() / 2);
  const std::string path = tmp_path("truncated.ckpt");
  spew(path, bytes);
  EXPECT_EQ(load_failure_kind(path, mmap()), Kind::kTruncated);
}

TEST_P(SerializeCorruption, BadMagic) {
  auto bytes = slurp(*base_path_);
  bytes[0] ^= 0xFFu;
  const std::string path = tmp_path("badmagic.ckpt");
  spew(path, bytes);
  EXPECT_EQ(load_failure_kind(path, mmap()), Kind::kBadMagic);
}

TEST_P(SerializeCorruption, UnsupportedFutureVersion) {
  auto bytes = slurp(*base_path_);
  wr<std::uint32_t>(bytes, kOffVersion, serialize::kFormatVersion + 7);
  const std::string path = tmp_path("future.ckpt");
  spew(path, bytes);
  // Version is checked before the header CRC precisely so a newer writer's
  // file (whose header we cannot fully validate) reports the right kind.
  EXPECT_EQ(load_failure_kind(path, mmap()), Kind::kUnsupportedVersion);
}

TEST_P(SerializeCorruption, FlippedBitInWeightBlob) {
  auto bytes = slurp(*base_path_);
  bytes[bytes.size() - 3] ^= 0x10u;  // one bit, deep in the payload region
  const std::string path = tmp_path("bitflip.ckpt");
  spew(path, bytes);
  EXPECT_EQ(load_failure_kind(path, mmap()), Kind::kCorrupt);
}

TEST_P(SerializeCorruption, RecordTablePointsPastEof) {
  auto bytes = slurp(*base_path_);
  const auto table_offset = rd<std::uint64_t>(bytes, kOffTableOffset);
  const auto record_count = rd<std::uint32_t>(bytes, kOffRecordCount);
  ASSERT_GT(record_count, 0u);
  // Send record 0's blob far past EOF (keeping the 64-byte alignment the
  // validator checks first), then repair the table and header CRCs so the
  // *bounds* check is what fires — this models a bad writer, not bit rot.
  const std::uint64_t past_eof = (bytes.size() + (1u << 20)) / 64 * 64;
  wr<std::uint64_t>(bytes, table_offset + kRecOffOffset, past_eof);
  wr<std::uint32_t>(bytes, kOffTableCrc,
                    serialize::crc32(bytes.data() + table_offset,
                                     std::size_t{record_count} * kRecordBytes));
  wr<std::uint32_t>(bytes, kOffHeaderCrc, serialize::crc32(bytes.data(), kOffHeaderCrc));
  const std::string path = tmp_path("pasteof.ckpt");
  spew(path, bytes);
  EXPECT_EQ(load_failure_kind(path, mmap()), Kind::kBadRecord);
}

TEST_P(SerializeCorruption, CorruptConfigBlock) {
  auto bytes = slurp(*base_path_);
  bytes[128 + 4] ^= 0x01u;  // inside the config text (starts right after the header)
  const std::string path = tmp_path("badconfig.ckpt");
  spew(path, bytes);
  EXPECT_EQ(load_failure_kind(path, mmap()), Kind::kCorrupt);
}

INSTANTIATE_TEST_SUITE_P(EagerAndMmap, SerializeCorruption, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Mmap" : "Eager";
                         });

TEST(SerializeErrors, MissingFileIsIo) {
  EXPECT_EQ(load_failure_kind(tmp_path("does_not_exist.ckpt"), /*mmap=*/false), Kind::kIo);
  EXPECT_EQ(load_failure_kind(tmp_path("does_not_exist.ckpt"), /*mmap=*/true), Kind::kIo);
}

TEST(SerializeErrors, NotAViTCheckpointIsSchema) {
  // A perfectly valid container whose records are not a ViT: the container
  // layer accepts it, the model layer rejects it with kSchema.
  serialize::CheckpointWriter w;
  w.set_config("format=ascend-vit\n");  // topology keys missing
  const float z[4] = {0, 0, 0, 0};
  w.add_f32("stray", {4}, z);
  const std::string path = tmp_path("notavit.ckpt");
  w.write(path);
  serialize::CheckpointReader reader(path);  // container-valid
  EXPECT_EQ(reader.records().size(), 1u);
  EXPECT_EQ(load_failure_kind(path, /*mmap=*/false), Kind::kSchema);
}

// ---------------------------------------------------------------------------
// Randomized corruption sweep: K random bit flips anywhere in the file —
// header, record table, or payload — must always end in a typed
// CheckpointError or a successful *bit-exact* load (only the inter-region
// alignment padding is outside CRC coverage), never a crash, a hang, or a
// silently wrong model. Seeded, so a failing flip pattern replays exactly.

TEST(SerializeCorruptionSweep, RandomByteFlipsFailTypedOrLoadBitExact) {
  const std::string base = saved_w2a2_checkpoint("sweep_base.ckpt");
  const std::vector<unsigned char> pristine = slurp(base);
  ASSERT_FALSE(pristine.empty());
  const nn::Tensor input = random_images(tiny_topology(), 2, 97);
  const auto ref_model = vit::VisionTransformer::load(base);
  const nn::Tensor ref = const_infer(*ref_model, input);

  std::mt19937 rng(20260807u);
  std::uniform_int_distribution<std::size_t> pos(0, pristine.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::uniform_int_distribution<int> flip_count(1, 4);

  const std::string path = tmp_path("sweep_mut.ckpt");
  int typed = 0, clean = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<unsigned char> bytes = pristine;
    const int k = flip_count(rng);
    for (int f = 0; f < k; ++f)
      bytes[pos(rng)] ^= static_cast<unsigned char>(1u << bit(rng));
    spew(path, bytes);
    const bool use_mmap = (iter % 2) == 1;  // both load paths, alternating
    try {
      std::unique_ptr<vit::VisionTransformer> model;
      serialize::MappedModel mapped;
      if (use_mmap) {
        mapped = serialize::load_model_mmap(path);
        model = std::move(mapped.model);
      } else {
        model = serialize::load_model(path);
      }
      // The load survived: only uncovered padding can have been hit, so the
      // model must serve bit-exact with the pristine checkpoint.
      expect_same_logits(const_infer(*model, input), ref);
      ++clean;
    } catch (const CheckpointError&) {
      ++typed;  // the only acceptable failure mode; anything else escapes
    }
  }
  EXPECT_EQ(typed + clean, 200) << "iteration neither loaded nor failed typed";
  EXPECT_GT(typed, 0) << "200 seeded flips never hit a CRC-covered byte";
}

// ---------------------------------------------------------------------------
// Golden checkpoint: the committed version-1 bytes must keep loading.

TEST(SerializeGolden, CommittedCheckpointStillLoads) {
  const std::string ckpt = golden_dir() + "/golden_vit.ckpt";
  const nn::Tensor input = read_matrix(golden_dir() + "/golden_input.bin");
  const nn::Tensor want = read_matrix(golden_dir() + "/golden_logits.bin");

  serialize::CheckpointReader reader(ckpt);
  EXPECT_EQ(reader.version(), 1u) << "bump scripts/make_golden_checkpoint.cpp deliberately";
  // The fixture predates the ternary-code path and still carries frozen
  // sign-plane records; readers must skip them.
  const serialize::Record* planes = reader.find("blocks.0.msa.qkv.wq.packed");
  ASSERT_NE(planes, nullptr);
  EXPECT_EQ(planes->dtype, serialize::DType::kU64);

  for (const bool use_mmap : {false, true}) {
    std::unique_ptr<vit::VisionTransformer> model;
    serialize::MappedModel mapped;
    if (use_mmap) {
      mapped = serialize::load_model_mmap(ckpt);
      model = std::move(mapped.model);
    } else {
      model = serialize::load_model(ckpt);
    }
    const nn::Tensor got = const_infer(*model, input);
    ASSERT_EQ(got.shape(), want.shape());
    // Tolerant compare: the fixture was produced by one kernel dispatch
    // flavour; other SIMD paths may differ in last-ulp float accumulation.
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 1e-3f) << "logit " << i << " mmap=" << use_mmap;
  }
}

// ---------------------------------------------------------------------------
// Registry cold-start: serve all four variants straight from one file.

TEST(SerializeColdStart, RegisterFromFileServesAllFourVariants) {
  const nn::Tensor calib = random_images(tiny_topology(), 8, 81);
  vit::VisionTransformer model = calibrated_model(82, calib);
  const nn::Tensor input = random_images(model.config(), 4, 83);
  const nn::Tensor ref = const_infer(model, input);
  const std::string path = tmp_path("coldstart.ckpt");
  model.save(path);

  runtime::ThreadPool sc_pool(2);  // outlives the registry's SC variants
  runtime::ModelRegistry registry;
  EXPECT_EQ(registry.register_from_file("fp32", path, runtime::VariantKind::kFp32), 1u);
  EXPECT_EQ(registry.register_from_file("w2a2", path, runtime::VariantKind::kPackedTernary), 1u);
  vit::ScServableOptions sc_opts;
  sc_opts.pool = &sc_pool;
  runtime::RegisterFromFileOptions opts;
  opts.sc_options = &sc_opts;
  EXPECT_EQ(registry.register_from_file("sc", path, runtime::VariantKind::kScLut, opts), 1u);
  EXPECT_EQ(registry.register_from_file("sc-emu", path, runtime::VariantKind::kScEmulated, opts),
            1u);
  EXPECT_EQ(registry.size(), 4u);

  // The packed variant is the saved model: bit-exact.
  expect_same_logits(registry.get("w2a2")->infer(input), ref);

  // fp32 strips fake quantization: close, but not the same function.
  const nn::Tensor fp = registry.get("fp32")->infer(input);
  ASSERT_EQ(fp.shape(), ref.shape());
  bool any_diff = false;
  for (std::size_t i = 0; i < ref.size(); ++i) any_diff |= fp[i] != ref[i];
  EXPECT_TRUE(any_diff) << "fp32 variant did not strip quantization";

  // Every kind must match the same kind built from the in-memory model
  // (same precision, same hooks, same LUT cache).
  const vit::ScInferenceConfig sc_cfg;
  const std::pair<const char*, runtime::VariantKind> kinds[] = {
      {"fp32", runtime::VariantKind::kFp32},
      {"w2a2", runtime::VariantKind::kPackedTernary},
      {"sc", runtime::VariantKind::kScLut},
      {"sc-emu", runtime::VariantKind::kScEmulated},
  };
  for (const auto& [id, kind] : kinds) {
    SCOPED_TRACE(id);
    const auto in_memory =
        vit::make_servable(model.clone_for_serving(), kind, "ref", sc_cfg, sc_opts);
    expect_same_logits(registry.get(id)->infer(input), in_memory->infer(input));
  }

  // Cold-started variants hot-swap like any publish: generation advances.
  EXPECT_EQ(registry.register_from_file("w2a2", path, runtime::VariantKind::kPackedTernary), 2u);
}

TEST(SerializeColdStart, W2a2KindRejectsFpCheckpoint) {
  vit::VisionTransformer model(tiny_topology(), 91);  // fp precision
  const std::string path = tmp_path("fp_for_packed.ckpt");
  model.save(path);
  runtime::ModelRegistry registry;
  try {
    registry.register_from_file("w2a2", path, runtime::VariantKind::kPackedTernary);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), Kind::kSchema);
  }
}

}  // namespace
