#pragma once
// checkpoint.h — the versioned, mmap-able binary checkpoint container.
//
// This is the format layer underneath the model-level save/load API
// (serialize/model_io.h) — the same split as torch's pickler vs module
// serialization: the container knows nothing about models, only about named,
// typed, checksummed blobs. On-disk layout (all integers little-endian,
// every region offset measured from the start of the file):
//
//   [FileHeader 128 B]  magic, endian tag, format version, region directory,
//                       per-region CRCs, header CRC
//   [config block]      opaque UTF-8 text (key=value lines at the model layer)
//   [record table]      record_count x TensorRecord (128 B each, fixed size)
//   [payload]           one blob per record, each aligned to 64 B
//
// Every weight blob starts on a 64-byte boundary, so the payload region can
// be mmap'd read-only (page-aligned base + 64 B-aligned offsets) and served
// zero-copy: MmapCheckpoint::view_f32 hands out non-owning nn::Tensor views
// straight into the mapping (see Tensor::borrow). Validation is identical on
// the eager and mapped paths — magic, endian tag, version, header CRC,
// region bounds, config/table CRCs, then per-record bounds/alignment and a
// CRC32 over every payload blob — so a truncated file, a flipped bit, or a
// record pointing past EOF all fail with a typed CheckpointError before any
// tensor is materialised, never with UB or a partially-loaded model.
//
// Versioning policy (docs/checkpoint.md): the format version is bumped on
// any incompatible layout change; readers reject versions newer than they
// know (kUnsupportedVersion) rather than guessing. The committed golden
// checkpoint under tests/data/ pins version 1 bytes forever.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace ascend::serialize {

/// CRC32 (IEEE 802.3, reflected) over `len` bytes; chainable via `seed`.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

constexpr char kMagic[8] = {'A', 'S', 'C', 'E', 'N', 'D', 'C', 'K'};
constexpr std::uint32_t kEndianTag = 0x01020304u;  ///< byte-order sentinel
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kPayloadAlign = 64;  ///< per-blob alignment (mmap serving)
constexpr std::size_t kMaxName = 79;       ///< record names are fixed 80-byte fields

enum class DType : std::uint32_t {
  kF32 = 0,  ///< float32 tensor data
  kU64 = 1,  ///< raw 64-bit words (sign planes in older W2A2 files)
};

/// Typed failure from any checkpoint open/validate/lookup. `kind()` tells a
/// caller (and the corruption-battery tests) exactly which contract broke;
/// what() always names the file/record involved.
class CheckpointError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,                  ///< open/read/write/map syscall failure
    kBadMagic,            ///< not a checkpoint file (or byte order mismatch)
    kUnsupportedVersion,  ///< written by a newer format revision
    kTruncated,           ///< file shorter than its directory claims
    kCorrupt,             ///< a CRC32 check failed (header/config/table/blob)
    kBadRecord,           ///< record table entry out of bounds / misaligned
    kSchema,              ///< well-formed container, wrong contents for caller
  };
  CheckpointError(Kind kind, const std::string& msg)
      : std::runtime_error("checkpoint: " + msg), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Parsed record-table entry (in-memory form of the 128-byte on-disk record).
struct Record {
  std::string name;
  DType dtype = DType::kF32;
  std::vector<int> dims;      ///< rank 1..4
  std::uint64_t offset = 0;   ///< absolute file offset, kPayloadAlign-aligned
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;

  std::size_t element_count() const;
};

/// Accumulates named blobs + a config block, then writes one checkpoint
/// file. Record order is preserved; the writer is deterministic (same inputs
/// -> byte-identical file), which the round-trip tests pin.
class CheckpointWriter {
 public:
  void set_config(std::string text) { config_ = std::move(text); }
  /// Add a float32 tensor blob. Name must be unique and <= kMaxName chars.
  void add_f32(const std::string& name, const std::vector<int>& dims, const float* data);
  /// Serialize to `path` (atomic enough for tests: write then close; throws
  /// CheckpointError(kIo) on any filesystem failure).
  void write(const std::string& path) const;

 private:
  struct Pending {
    std::string name;
    DType dtype;
    std::vector<int> dims;
    std::vector<std::byte> data;
  };
  void add_blob(const std::string& name, DType dtype, const std::vector<int>& dims,
                const void* data, std::size_t bytes);

  std::string config_;
  std::vector<Pending> pending_;
};

/// Validated, read-only view over checkpoint bytes. Shared by the eager
/// reader (heap buffer) and the mapping (mmap); parse() runs the full
/// corruption battery described in the file comment.
class CheckpointView {
 public:
  virtual ~CheckpointView() = default;

  std::uint32_t version() const { return version_; }
  const std::string& config() const { return config_; }
  const std::vector<Record>& records() const { return records_; }
  const Record* find(const std::string& name) const;
  /// find() or throw CheckpointError(kSchema) naming the missing record.
  const Record& at(const std::string& name) const;
  /// Raw payload bytes of `r` (points into the buffer/mapping).
  const std::byte* payload(const Record& r) const { return base_ + r.offset; }
  /// Copy a kF32 record out into an owned tensor (heap/arena per caller).
  nn::Tensor read_f32(const std::string& name) const;

 protected:
  CheckpointView() = default;
  /// Validate `len` bytes at `base` and index the records. Throws the typed
  /// CheckpointError taxonomy; on return the view is fully trusted.
  void parse(const std::byte* base, std::size_t len, const std::string& origin);

  const std::byte* base_ = nullptr;
  std::size_t len_ = 0;

 private:
  std::uint32_t version_ = 0;
  std::string config_;
  std::vector<Record> records_;
};

/// Eager reader: slurps the file into a heap buffer and validates. Tensors
/// read out of it are always owned copies.
class CheckpointReader final : public CheckpointView {
 public:
  explicit CheckpointReader(const std::string& path);

 private:
  std::vector<std::byte> buf_;
};

/// Read-only mmap of a checkpoint: weight blobs are served zero-copy as
/// borrowed nn::Tensor views into the mapping. The mapping must outlive
/// every view handed out — serving code anchors it with a shared_ptr held
/// by the Servable (see vit::make_servable), so registry hot-swaps
/// keep the old mapping alive until the last in-flight forward drops its
/// snapshot. Mapped pages are PROT_READ: writing through a view faults.
class MmapCheckpoint final : public CheckpointView {
 public:
  static std::shared_ptr<MmapCheckpoint> open(const std::string& path);
  ~MmapCheckpoint() override;

  MmapCheckpoint(const MmapCheckpoint&) = delete;
  MmapCheckpoint& operator=(const MmapCheckpoint&) = delete;

  /// Non-owning tensor view straight into the mapping (kF32 records only).
  nn::Tensor view_f32(const std::string& name) const;
  /// True when `p` points inside the mapping (test/debug aid).
  bool owns_address(const void* p) const {
    return p >= base_ && p < base_ + len_;
  }

 private:
  MmapCheckpoint() = default;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
};

}  // namespace ascend::serialize
