#include "store/wal.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/framing.h"

namespace neutraj::store {

namespace {

void PutLe32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutLe64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

uint32_t GetLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetLe64(const unsigned char* p) {
  return static_cast<uint64_t>(GetLe32(p)) |
         static_cast<uint64_t>(GetLe32(p + 4)) << 32;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& rec) {
  if (rec.embedding.empty()) {
    throw std::invalid_argument("EncodeWalRecord: empty embedding");
  }
  std::string payload;
  payload.reserve(12 + 8 * rec.embedding.size());
  PutLe64(&payload, rec.seq);
  PutLe32(&payload, static_cast<uint32_t>(rec.embedding.size()));
  for (const double v : rec.embedding) PutLe64(&payload, DoubleBits(v));
  return EncodeWireFrame(kWalInsert, payload);
}

bool ParseWalRecord(const std::string& payload, WalRecord* out) {
  if (payload.size() < 12) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  const uint64_t seq = GetLe64(p);
  const uint32_t dim = GetLe32(p + 8);
  if (dim == 0 || payload.size() != 12 + 8 * static_cast<size_t>(dim)) {
    return false;
  }
  out->seq = seq;
  out->embedding.resize(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    out->embedding[i] = BitsDouble(GetLe64(p + 12 + 8 * static_cast<size_t>(i)));
  }
  return true;
}

const char* WalTailName(WalTail t) {
  switch (t) {
    case WalTail::kClean: return "clean";
    case WalTail::kTorn: return "torn";
    case WalTail::kCorrupt: return "corrupt";
    case WalTail::kBadRecord: return "bad-record";
  }
  return "unknown";
}

WalReplayResult ReplayWal(const std::string& bytes, EmbeddingDatabase* db) {
  WalReplayResult result;
  size_t offset = 0;
  while (offset < bytes.size()) {
    WireFrame frame;
    const FrameStatus status = DecodeWireFrame(bytes, &offset, &frame);
    if (status == FrameStatus::kIncomplete) {
      result.tail = WalTail::kTorn;
      result.detail = "incomplete record at byte " + std::to_string(offset) +
                      " (" + std::to_string(bytes.size() - offset) +
                      " trailing bytes)";
      break;
    }
    if (status != FrameStatus::kOk) {
      result.tail = WalTail::kCorrupt;
      result.detail = std::string("undecodable record at byte ") +
                      std::to_string(offset) + ": " + FrameStatusName(status);
      break;
    }
    WalRecord rec;
    if (frame.type != kWalInsert || !ParseWalRecord(frame.payload, &rec)) {
      result.tail = WalTail::kBadRecord;
      result.detail = "malformed record payload (type " +
                      std::to_string(frame.type) + ")";
      break;
    }
    const size_t size = db->size();
    if (rec.seq < size) {
      // Already covered by the snapshot (or an earlier duplicate): the
      // skip is what makes replaying the same tail twice a no-op.
      ++result.skipped;
      result.valid_bytes = offset;
      continue;
    }
    if (rec.seq > size) {
      result.tail = WalTail::kBadRecord;
      result.detail = "sequence gap: record seq " + std::to_string(rec.seq) +
                      " but corpus has " + std::to_string(size);
      break;
    }
    try {
      db->Insert(rec.embedding);
    } catch (const std::invalid_argument& e) {
      result.tail = WalTail::kBadRecord;
      result.detail = std::string("record rejected: ") + e.what();
      break;
    }
    ++result.applied;
    result.valid_bytes = offset;
  }
  return result;
}

WalWriter::WalWriter(std::string path, FileFactory* factory)
    : path_(std::move(path)), file_(factory->OpenAppend(path_)) {}

void WalWriter::Append(const WalRecord& rec) {
  file_->Append(EncodeWalRecord(rec));
  file_->Sync();
  ++appended_records_;
}

void WalWriter::Reset() {
  file_->Truncate();
  appended_records_ = 0;
}

}  // namespace neutraj::store
