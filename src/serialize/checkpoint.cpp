#include "serialize/checkpoint.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <fstream>

#include "runtime/failpoint.h"

namespace ascend::serialize {
namespace {

using Kind = CheckpointError::Kind;

[[noreturn]] void fail(Kind kind, const std::string& msg) { throw CheckpointError(kind, msg); }

// Fault-injection sites for the checkpoint read path. All four raise the
// native CheckpointError taxonomy through an `err` action, so clients
// exercise exactly the code paths a real bad disk / bad file would take.
namespace failpoint = ascend::runtime::failpoint;
failpoint::Site fp_open{"ckpt.open"};
failpoint::Site fp_read{"ckpt.read"};
failpoint::Site fp_mmap{"ckpt.mmap"};
failpoint::Site fp_crc{"ckpt.crc"};

constexpr std::size_t kHeaderBytes = 128;
constexpr std::size_t kRecordBytes = 128;
constexpr std::uint32_t kMaxRecords = 1u << 20;

// On-disk structs. Fixed-width members, no implicit padding (verified by the
// static_asserts); always copied in/out with memcpy, never aliased in place,
// so buffer alignment is irrelevant.
struct FileHeader {
  char magic[8];
  std::uint32_t endian;
  std::uint32_t version;
  std::uint64_t file_bytes;      ///< total checkpoint size (truncation check)
  std::uint64_t config_offset;
  std::uint64_t config_bytes;
  std::uint64_t table_offset;
  std::uint64_t payload_offset;
  std::uint32_t record_count;
  std::uint32_t config_crc;
  std::uint32_t table_crc;
  std::uint8_t reserved[56];     ///< zero; room for future versions
  std::uint32_t header_crc;      ///< CRC32 over the preceding 124 bytes
};
static_assert(sizeof(FileHeader) == kHeaderBytes, "header layout drifted");

struct RawRecord {
  char name[kMaxName + 1];       ///< NUL-terminated, NUL-padded
  std::uint32_t dtype;
  std::uint32_t rank;
  std::int32_t dims[4];
  std::uint64_t offset;
  std::uint64_t bytes;
  std::uint32_t crc;
  std::uint32_t reserved;
};
static_assert(sizeof(RawRecord) == kRecordBytes, "record layout drifted");

std::size_t dtype_size(DType t) { return t == DType::kU64 ? 8 : 4; }

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) { return (v + a - 1) / a * a; }

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  // IEEE 802.3 reflected CRC32, byte-at-a-time table (built once, thread-safe
  // since C++11 magic statics).
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  return ~crc;
}

std::size_t Record::element_count() const {
  std::size_t n = 1;
  for (int d : dims) n *= static_cast<std::size_t>(d);
  return dims.empty() ? 0 : n;
}

// ---------------------------------------------------------------------------
// Writer

void CheckpointWriter::add_f32(const std::string& name, const std::vector<int>& dims,
                               const float* data) {
  std::size_t n = 1;
  for (int d : dims) n *= static_cast<std::size_t>(d > 0 ? d : 0);
  add_blob(name, DType::kF32, dims, data, n * sizeof(float));
}

void CheckpointWriter::add_blob(const std::string& name, DType dtype, const std::vector<int>& dims,
                                const void* data, std::size_t bytes) {
  if (name.empty() || name.size() > kMaxName)
    fail(Kind::kSchema, "record name '" + name + "' empty or longer than 79 chars");
  if (dims.empty() || dims.size() > 4)
    fail(Kind::kSchema, "record '" + name + "': rank must be 1..4");
  std::size_t n = 1;
  for (int d : dims) {
    if (d <= 0) fail(Kind::kSchema, "record '" + name + "': non-positive dim");
    n *= static_cast<std::size_t>(d);
  }
  if (n * dtype_size(dtype) != bytes)
    fail(Kind::kSchema, "record '" + name + "': dims/bytes mismatch");
  for (const auto& p : pending_)
    if (p.name == name) fail(Kind::kSchema, "duplicate record name '" + name + "'");
  Pending p;
  p.name = name;
  p.dtype = dtype;
  p.dims = dims;
  p.data.resize(bytes);
  if (bytes) std::memcpy(p.data.data(), data, bytes);
  pending_.push_back(std::move(p));
}

void CheckpointWriter::write(const std::string& path) const {
  FileHeader hdr{};
  std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
  hdr.endian = kEndianTag;
  hdr.version = kFormatVersion;
  hdr.config_offset = kHeaderBytes;
  hdr.config_bytes = config_.size();
  hdr.table_offset = align_up(hdr.config_offset + hdr.config_bytes, 8);
  hdr.record_count = static_cast<std::uint32_t>(pending_.size());
  hdr.payload_offset =
      align_up(hdr.table_offset + hdr.record_count * kRecordBytes, kPayloadAlign);

  // Lay the payload out first so the record table can carry final offsets.
  std::vector<RawRecord> table(pending_.size());
  std::uint64_t cursor = hdr.payload_offset;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    RawRecord& r = table[i];
    std::memset(&r, 0, sizeof(r));
    std::memcpy(r.name, p.name.data(), p.name.size());
    r.dtype = static_cast<std::uint32_t>(p.dtype);
    r.rank = static_cast<std::uint32_t>(p.dims.size());
    for (std::size_t d = 0; d < p.dims.size(); ++d) r.dims[d] = p.dims[d];
    r.offset = cursor = align_up(cursor, kPayloadAlign);
    r.bytes = p.data.size();
    r.crc = crc32(p.data.data(), p.data.size());
    cursor += r.bytes;
  }
  hdr.file_bytes = cursor;
  hdr.config_crc = crc32(config_.data(), config_.size());
  hdr.table_crc = crc32(table.data(), table.size() * kRecordBytes);
  hdr.header_crc = crc32(&hdr, kHeaderBytes - sizeof(std::uint32_t));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(Kind::kIo, "cannot open '" + path + "' for writing");
  std::vector<char> zeros(kPayloadAlign, 0);
  auto pad_to = [&](std::uint64_t target) {
    auto pos = static_cast<std::uint64_t>(out.tellp());
    if (pos < target) out.write(zeros.data(), static_cast<std::streamsize>(target - pos));
  };
  out.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  out.write(config_.data(), static_cast<std::streamsize>(config_.size()));
  pad_to(hdr.table_offset);
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() * kRecordBytes));
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pad_to(table[i].offset);
    out.write(reinterpret_cast<const char*>(pending_[i].data.data()),
              static_cast<std::streamsize>(pending_[i].data.size()));
  }
  out.flush();
  if (!out) fail(Kind::kIo, "short write to '" + path + "'");
}

// ---------------------------------------------------------------------------
// View / validation

void CheckpointView::parse(const std::byte* base, std::size_t len, const std::string& origin) {
  base_ = base;
  len_ = len;

  // Ordered so each corruption mode surfaces its own Kind: a file that is
  // not a checkpoint at all reports kBadMagic before any size talk, and a
  // future-version file reports kUnsupportedVersion even though its header
  // CRC (computed by the newer writer over fields we may not know) would
  // also mismatch our expectations.
  if (len < sizeof(kMagic)) fail(Kind::kTruncated, origin + ": shorter than the magic");
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0)
    fail(Kind::kBadMagic, origin + ": not an ASCENDCK checkpoint");
  if (len < kHeaderBytes) fail(Kind::kTruncated, origin + ": truncated header");
  FileHeader hdr;
  std::memcpy(&hdr, base, sizeof(hdr));
  if (hdr.endian != kEndianTag)
    fail(Kind::kBadMagic, origin + ": byte-order mismatch (foreign-endian writer)");
  if (hdr.version > kFormatVersion)
    fail(Kind::kUnsupportedVersion, origin + ": format version " + std::to_string(hdr.version) +
                                        " > supported " + std::to_string(kFormatVersion));
  if (crc32(&hdr, kHeaderBytes - sizeof(std::uint32_t)) != hdr.header_crc)
    fail(Kind::kCorrupt, origin + ": header checksum mismatch");
  if (hdr.file_bytes > len)
    fail(Kind::kTruncated, origin + ": header claims " + std::to_string(hdr.file_bytes) +
                               " bytes, file has " + std::to_string(len));
  if (hdr.file_bytes < len) fail(Kind::kCorrupt, origin + ": trailing bytes past the directory");
  if (hdr.record_count > kMaxRecords) fail(Kind::kCorrupt, origin + ": absurd record count");

  auto region_ok = [&](std::uint64_t off, std::uint64_t bytes) {
    return off >= kHeaderBytes && off <= hdr.file_bytes && bytes <= hdr.file_bytes - off;
  };
  if (!region_ok(hdr.config_offset, hdr.config_bytes))
    fail(Kind::kTruncated, origin + ": config block out of bounds");
  const std::uint64_t table_bytes = std::uint64_t{hdr.record_count} * kRecordBytes;
  if (!region_ok(hdr.table_offset, table_bytes))
    fail(Kind::kTruncated, origin + ": record table out of bounds");

  if (crc32(base + hdr.config_offset, hdr.config_bytes) != hdr.config_crc)
    fail(Kind::kCorrupt, origin + ": config block checksum mismatch");
  if (crc32(base + hdr.table_offset, table_bytes) != hdr.table_crc)
    fail(Kind::kCorrupt, origin + ": record table checksum mismatch");

  version_ = hdr.version;
  config_.assign(reinterpret_cast<const char*>(base + hdr.config_offset), hdr.config_bytes);

  records_.clear();
  records_.reserve(hdr.record_count);
  for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
    RawRecord raw;
    std::memcpy(&raw, base + hdr.table_offset + std::uint64_t{i} * kRecordBytes, sizeof(raw));
    const std::string id = origin + " record " + std::to_string(i);
    if (raw.name[kMaxName] != '\0' || raw.name[0] == '\0')
      fail(Kind::kBadRecord, id + ": malformed name field");
    Record rec;
    rec.name = raw.name;
    if (raw.dtype > static_cast<std::uint32_t>(DType::kU64))
      fail(Kind::kBadRecord, id + " ('" + rec.name + "'): unknown dtype");
    rec.dtype = static_cast<DType>(raw.dtype);
    if (raw.rank < 1 || raw.rank > 4)
      fail(Kind::kBadRecord, id + " ('" + rec.name + "'): rank out of range");
    for (std::uint32_t d = 0; d < raw.rank; ++d) {
      if (raw.dims[d] <= 0) fail(Kind::kBadRecord, id + " ('" + rec.name + "'): bad dimension");
      rec.dims.push_back(raw.dims[d]);
    }
    rec.offset = raw.offset;
    rec.bytes = raw.bytes;
    rec.crc = raw.crc;
    if (rec.offset % kPayloadAlign != 0)
      fail(Kind::kBadRecord, id + " ('" + rec.name + "'): blob misaligned");
    if (rec.offset > hdr.file_bytes || rec.bytes > hdr.file_bytes - rec.offset)
      fail(Kind::kBadRecord, id + " ('" + rec.name + "'): blob extends past end of file");
    if (rec.element_count() * dtype_size(rec.dtype) != rec.bytes)
      fail(Kind::kBadRecord, id + " ('" + rec.name + "'): dims/bytes mismatch");
    if (find(rec.name) != nullptr)
      fail(Kind::kBadRecord, id + ": duplicate record name '" + rec.name + "'");
    records_.push_back(std::move(rec));
  }

  // Payload battery last: every blob's checksum, so a single flipped bit
  // anywhere in the weights is caught at open time, not at first forward.
  ASCEND_FAILPOINT_OR(fp_crc, fail(Kind::kCorrupt, origin + ": injected checksum fault"));
  for (const Record& r : records_)
    if (crc32(base + r.offset, r.bytes) != r.crc)
      fail(Kind::kCorrupt, origin + ": blob '" + r.name + "' checksum mismatch");
}

const Record* CheckpointView::find(const std::string& name) const {
  for (const Record& r : records_)
    if (r.name == name) return &r;
  return nullptr;
}

const Record& CheckpointView::at(const std::string& name) const {
  const Record* r = find(name);
  if (!r) fail(Kind::kSchema, "missing record '" + name + "'");
  return *r;
}

nn::Tensor CheckpointView::read_f32(const std::string& name) const {
  const Record& r = at(name);
  if (r.dtype != DType::kF32) fail(Kind::kSchema, "record '" + name + "' is not f32");
  nn::Tensor t = nn::Tensor::uninitialized(nn::Shape(r.dims));
  std::memcpy(t.data(), payload(r), r.bytes);
  return t;
}

CheckpointReader::CheckpointReader(const std::string& path) {
  ASCEND_FAILPOINT_OR(fp_open, fail(Kind::kIo, "injected open fault on '" + path + "'"));
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail(Kind::kIo, "cannot open '" + path + "'");
  const auto end = in.tellg();
  buf_.resize(static_cast<std::size_t>(end));
  in.seekg(0);
  if (!buf_.empty()) in.read(reinterpret_cast<char*>(buf_.data()), end);
  ASCEND_FAILPOINT_OR(fp_read, fail(Kind::kIo, "injected read fault on '" + path + "'"));
  if (!in) fail(Kind::kIo, "short read from '" + path + "'");
  parse(buf_.data(), buf_.size(), "'" + path + "'");
}

// ---------------------------------------------------------------------------
// Mmap

std::shared_ptr<MmapCheckpoint> MmapCheckpoint::open(const std::string& path) {
  ASCEND_FAILPOINT_OR(fp_mmap, fail(Kind::kIo, "injected mmap fault on '" + path + "'"));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(Kind::kIo, "cannot open '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(Kind::kIo, "fstat failed on '" + path + "'");
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    fail(Kind::kTruncated, "'" + path + "': empty file");
  }
  void* p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (p == MAP_FAILED) fail(Kind::kIo, "mmap failed on '" + path + "'");
  // If parse() throws, the shared_ptr destroys the half-open object and the
  // destructor tears the mapping down.
  std::shared_ptr<MmapCheckpoint> ck(new MmapCheckpoint());
  ck->map_ = p;
  ck->map_len_ = len;
  ck->parse(static_cast<const std::byte*>(p), len, "'" + path + "'");
  return ck;
}

MmapCheckpoint::~MmapCheckpoint() {
  if (map_) ::munmap(map_, map_len_);
}

nn::Tensor MmapCheckpoint::view_f32(const std::string& name) const {
  const Record& r = at(name);
  if (r.dtype != DType::kF32) fail(Kind::kSchema, "record '" + name + "' is not f32");
  return nn::Tensor::borrow(nn::Shape(r.dims), reinterpret_cast<const float*>(payload(r)));
}

}  // namespace ascend::serialize
