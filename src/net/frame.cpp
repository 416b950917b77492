#include "net/frame.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/check.h"

namespace nec::net {
namespace {

// Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][i] is
// t[k-1][i] advanced over one more zero byte, so eight lookups fold eight
// input bytes per step instead of one.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t LoadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t LoadU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(LoadU32(p)) |
         static_cast<std::uint64_t>(LoadU32(p + 4)) << 32;
}

void StoreU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void StoreU64(std::uint8_t* p, std::uint64_t v) {
  StoreU32(p, static_cast<std::uint32_t>(v));
  StoreU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kOpenSession: return "open_session";
    case FrameType::kOpenAck: return "open_ack";
    case FrameType::kSubmitChunk: return "submit_chunk";
    case FrameType::kShadowData: return "shadow_data";
    case FrameType::kCloseSession: return "close_session";
    case FrameType::kClosed: return "closed";
    case FrameType::kError: return "error";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kAuthChallenge: return "auth_challenge";
    case FrameType::kAuthResponse: return "auth_response";
    case FrameType::kAuthReject: return "auth_reject";
    case FrameType::kStatusRequest: return "status_request";
    case FrameType::kShardStatus: return "shard_status";
    case FrameType::kDrainSession: return "drain_session";
    case FrameType::kSessionSnapshot: return "session_snapshot";
    case FrameType::kRestoreSession: return "restore_session";
    case FrameType::kTraceContext: return "trace_context";
  }
  return "?";
}

bool IsKnownFrameType(std::uint8_t value) {
  return value >= static_cast<std::uint8_t>(FrameType::kHello) &&
         value <= static_cast<std::uint8_t>(FrameType::kTraceContext);
}

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  static const CrcTables t = MakeCrcTables();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = LoadU32(data) ^ crc;
    const std::uint32_t hi = LoadU32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeFrame(const Frame& frame, std::string* out) {
  NEC_CHECK_MSG(frame.payload.size() <= kMaxPayloadBytes,
                "frame payload exceeds kMaxPayloadBytes");
  std::uint8_t header[kHeaderSize];
  StoreU32(header, kMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(frame.type);
  header[6] = 0;
  header[7] = 0;
  StoreU64(header + 8, frame.session_id);
  StoreU32(header + 16, static_cast<std::uint32_t>(frame.payload.size()));
  StoreU32(header + 20, Crc32(frame.payload.data(), frame.payload.size()));
  out->append(reinterpret_cast<const char*>(header), kHeaderSize);
  out->append(reinterpret_cast<const char*>(frame.payload.data()),
              frame.payload.size());
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need_more";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadVersion: return "bad_version";
    case DecodeStatus::kBadType: return "bad_type";
    case DecodeStatus::kBadReserved: return "bad_reserved";
    case DecodeStatus::kBadLength: return "bad_length";
    case DecodeStatus::kBadCrc: return "bad_crc";
  }
  return "?";
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t size) {
  if (failed()) return;  // poisoned streams accumulate nothing
  // Compact the consumed prefix before growing (keeps the buffer bounded
  // by one partial frame plus whatever was just fed).
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

DecodeStatus FrameDecoder::Next(Frame* frame) {
  if (failed()) return error_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint8_t* h = buffer_.data() + consumed_;

  if (LoadU32(h) != kMagic) return Latch(DecodeStatus::kBadMagic);
  if (h[4] != kProtocolVersion) return Latch(DecodeStatus::kBadVersion);
  if (!IsKnownFrameType(h[5])) return Latch(DecodeStatus::kBadType);
  if (h[6] != 0 || h[7] != 0) return Latch(DecodeStatus::kBadReserved);
  const std::uint32_t payload_len = LoadU32(h + 16);
  if (payload_len > kMaxPayloadBytes) return Latch(DecodeStatus::kBadLength);
  if (avail < kHeaderSize + payload_len) return DecodeStatus::kNeedMore;

  const std::uint8_t* payload = h + kHeaderSize;
  if (Crc32(payload, payload_len) != LoadU32(h + 20)) {
    return Latch(DecodeStatus::kBadCrc);
  }

  frame->type = static_cast<FrameType>(h[5]);
  frame->session_id = LoadU64(h + 8);
  frame->payload.assign(payload, payload + payload_len);
  consumed_ += kHeaderSize + payload_len;
  return DecodeStatus::kOk;
}

void FrameDecoder::Reset() {
  buffer_.clear();
  consumed_ = 0;
  error_ = DecodeStatus::kNeedMore;
}

void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  const std::size_t at = out->size();
  out->resize(at + 4);
  StoreU32(out->data() + at, v);
}

void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  const std::size_t at = out->size();
  out->resize(at + 8);
  StoreU64(out->data() + at, v);
}

void PutFloats(std::vector<std::uint8_t>* out, std::span<const float> v) {
  const std::size_t at = out->size();
  out->resize(at + v.size() * sizeof(float));
  // IEEE-754 binary32; every supported target is little-endian, which is
  // also the wire order, so a straight copy is exact.
  std::memcpy(out->data() + at, v.data(), v.size() * sizeof(float));
}

bool PayloadReader::U32(std::uint32_t* v) {
  if (!ok_ || data_.size() - offset_ < 4) {
    ok_ = false;
    return false;
  }
  *v = LoadU32(data_.data() + offset_);
  offset_ += 4;
  return true;
}

bool PayloadReader::U64(std::uint64_t* v) {
  if (!ok_ || data_.size() - offset_ < 8) {
    ok_ = false;
    return false;
  }
  *v = LoadU64(data_.data() + offset_);
  offset_ += 8;
  return true;
}

bool PayloadReader::Floats(std::vector<float>* v) {
  if (!ok_ || (data_.size() - offset_) % sizeof(float) != 0) {
    ok_ = false;
    return false;
  }
  const std::size_t count = (data_.size() - offset_) / sizeof(float);
  const std::size_t old_size = v->size();
  v->resize(old_size + count);
  if (count > 0) {
    std::memcpy(v->data() + old_size, data_.data() + offset_,
                count * sizeof(float));
  }
  offset_ = data_.size();
  return true;
}

std::string PayloadReader::RemainingText() {
  if (!ok_) return {};
  std::string text(reinterpret_cast<const char*>(data_.data() + offset_),
                   data_.size() - offset_);
  offset_ = data_.size();
  return text;
}

void PutHelloAck(std::vector<std::uint8_t>* out, const HelloInfo& info) {
  PutU32(out, info.version);
  PutU32(out, info.input_sample_rate);
  PutU32(out, info.chunk_samples);
  PutU32(out, info.output_sample_rate);
  PutU32(out, info.output_samples_per_chunk);
}

bool ParseHelloAck(std::span<const std::uint8_t> payload, HelloInfo* info) {
  PayloadReader reader(payload);
  return reader.U32(&info->version) &&
         reader.U32(&info->input_sample_rate) &&
         reader.U32(&info->chunk_samples) &&
         reader.U32(&info->output_sample_rate) &&
         reader.U32(&info->output_samples_per_chunk) && reader.complete();
}

void PutShardStatus(std::vector<std::uint8_t>* out,
                    const ShardStatusPayload& status) {
  PutU32(out, status.queue_depth);
  PutU32(out, status.active_sessions);
  PutU32(out, std::bit_cast<std::uint32_t>(status.e2e_p99_ms));
  PutU64(out, status.overload_total);
}

bool ParseShardStatus(std::span<const std::uint8_t> payload,
                      ShardStatusPayload* status) {
  PayloadReader reader(payload);
  std::uint32_t p99_bits = 0;
  if (!reader.U32(&status->queue_depth) ||
      !reader.U32(&status->active_sessions) || !reader.U32(&p99_bits) ||
      !reader.U64(&status->overload_total) || !reader.complete()) {
    return false;
  }
  status->e2e_p99_ms = std::bit_cast<float>(p99_bits);
  return true;
}

void PutSessionSnapshot(std::vector<std::uint8_t>* out,
                        const SessionSnapshotPayload& snapshot) {
  PutU64(out, snapshot.speaker_seed);
  PutU64(out, snapshot.ref_seed);
  PutU64(out, snapshot.chunks_done);
  PutU64(out, snapshot.latch_bits);
  PutFloats(out, snapshot.tail);
}

bool ParseSessionSnapshot(std::span<const std::uint8_t> payload,
                          SessionSnapshotPayload* snapshot) {
  PayloadReader reader(payload);
  snapshot->tail.clear();
  return reader.U64(&snapshot->speaker_seed) &&
         reader.U64(&snapshot->ref_seed) &&
         reader.U64(&snapshot->chunks_done) &&
         reader.U64(&snapshot->latch_bits) &&
         reader.Floats(&snapshot->tail) && reader.complete();
}

}  // namespace nec::net
