#include "store/cachestore.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "store/serial.hpp"

namespace mbird::store {

namespace {

// Record header: u32 body_len, u32 crc. Body: u8 kind, u8 fp, 2x16B ids,
// payload.
constexpr size_t kHeaderBytes = 8;
constexpr size_t kKeyBytes = 1 + 1 + 16 + 16;
// A record longer than this is assumed to be log corruption rather than a
// real entry (the largest real payloads — programs for thousand-node
// plans — are a few hundred KiB).
constexpr uint32_t kMaxBody = 64u << 20;

struct StoreMetrics {
  obs::Counter& hits = obs::counter("store.hits");
  obs::Counter& misses = obs::counter("store.misses");
  obs::Counter& appends = obs::counter("store.appends");
  obs::Counter& bytes = obs::counter("store.bytes_appended");
};

StoreMetrics& metrics() {
  static StoreMetrics m;
  return m;
}

void put_id(uint8_t* p, const mtype::StableId& id) {
  std::memcpy(p, &id.hi, 8);
  std::memcpy(p + 8, &id.lo, 8);
}

mtype::StableId get_id(const uint8_t* p) {
  mtype::StableId id;
  std::memcpy(&id.hi, p, 8);
  std::memcpy(&id.lo, p + 8, 8);
  return id;
}

}  // namespace

CacheStore::~CacheStore() {
  std::string err;
  if (file_.is_open()) (void)flush(&err);
}

void CacheStore::close() {
  std::lock_guard lock(mu_);
  file_.close();
  index_.clear();
  entries_ = 0;
}

bool CacheStore::open(const std::string& path, uint32_t payload_version,
                      std::string* error) {
  std::lock_guard lock(mu_);
  index_.clear();
  entries_ = 0;
  uint64_t format = (static_cast<uint64_t>(kFormatVersion) << 32) |
                    payload_version;
  if (!file_.open(path, format, error)) return false;
  index_log();
  return true;
}

void CacheStore::index_log() {
  uint64_t off = PageFile::kDataStart;
  const uint64_t end = file_.data_end();
  std::vector<uint8_t> body;
  std::string err;
  while (off + kHeaderBytes <= end) {
    uint8_t hdr[kHeaderBytes];
    if (!file_.read(off, hdr, sizeof hdr, &err)) break;
    uint32_t body_len, crc;
    std::memcpy(&body_len, hdr, 4);
    std::memcpy(&crc, hdr + 4, 4);
    if (body_len < kKeyBytes || body_len > kMaxBody ||
        off + kHeaderBytes + body_len > end) {
      break;
    }
    body.resize(body_len);
    if (!file_.read(off + kHeaderBytes, body.data(), body_len, &err)) break;
    if (crc32(body.data(), body_len) != crc) break;
    Span span;
    span.kind = body[0];
    span.off = off + kHeaderBytes + kKeyBytes;
    span.len = body_len - static_cast<uint32_t>(kKeyBytes);
    span.crc = crc;
    CacheKey key;
    key.fp = body[1];
    key.left = get_id(body.data() + 2);
    key.right = get_id(body.data() + 18);
    index_[key].push_back(span);
    ++entries_;
    off += kHeaderBytes + body_len;
  }
  // A torn/corrupt tail ends the log here: later appends overwrite it, and
  // the next flush commits the shorter, fully-valid extent.
  file_.truncate_data(off);
}

bool CacheStore::get(const CacheKey& key, uint8_t kind,
                     std::vector<std::vector<uint8_t>>* out) {
  std::lock_guard lock(mu_);
  out->clear();
  auto it = index_.find(key);
  if (it != index_.end()) {
    std::string err;
    for (const Span& s : it->second) {
      if (s.kind != kind) continue;
      std::vector<uint8_t> payload(s.len);
      if (!file_.read(s.off, payload.data(), s.len, &err)) continue;
      out->push_back(std::move(payload));
    }
  }
  if (out->empty()) {
    ++misses_;
    metrics().misses.add(1);
    return false;
  }
  ++hits_;
  metrics().hits.add(1);
  return true;
}

bool CacheStore::get(const CacheKey& key, uint8_t kind, BumpArena* arena,
                     std::vector<PayloadView>* out) {
  std::lock_guard lock(mu_);
  out->clear();
  auto it = index_.find(key);
  if (it != index_.end()) {
    std::string err;
    for (const Span& s : it->second) {
      if (s.kind != kind) continue;
      uint8_t* dst = arena->alloc(s.len);
      if (!file_.read(s.off, dst, s.len, &err)) continue;
      out->push_back({dst, s.len});
    }
  }
  if (out->empty()) {
    ++misses_;
    metrics().misses.add(1);
    return false;
  }
  ++hits_;
  metrics().hits.add(1);
  return true;
}

bool CacheStore::contains(const CacheKey& key, uint8_t kind) {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  for (const Span& s : it->second) {
    if (s.kind == kind) return true;
  }
  return false;
}

void CacheStore::put(const CacheKey& key, uint8_t kind, const void* payload,
                     size_t n) {
  if (key.left.is_null() || key.right.is_null()) return;
  std::lock_guard lock(mu_);
  if (!file_.is_open()) return;
  // Header and key share one buffer; the crc chains over key then payload,
  // so the payload goes to the page cache straight from the caller.
  uint8_t rec[kHeaderBytes + kKeyBytes];
  uint8_t* keyb = rec + kHeaderBytes;
  keyb[0] = kind;
  keyb[1] = key.fp;
  put_id(keyb + 2, key.left);
  put_id(keyb + 18, key.right);
  uint32_t crc = crc32(payload, n, crc32(keyb, kKeyBytes));
  const size_t body_len = kKeyBytes + n;

  auto& spans = index_[key];
  for (const Span& s : spans) {
    // Identical record already on disk (same kind/length/crc): skip, so
    // restart-recompute churn does not grow the file. Programs keep
    // first-wins semantics outright.
    if (s.kind == kind &&
        ((s.crc == crc && s.len + kKeyBytes == body_len) ||
         kind == kProgram)) {
      return;
    }
  }
  uint32_t len32 = static_cast<uint32_t>(body_len);
  std::memcpy(rec, &len32, 4);
  std::memcpy(rec + 4, &crc, 4);
  std::string err;
  uint64_t off = file_.data_end();
  if (!file_.append(rec, sizeof rec, &err) ||
      !file_.append(payload, n, &err)) {
    // Append failure leaves a torn tail; rewind so the log stays valid.
    file_.truncate_data(off);
    return;
  }
  Span span;
  span.kind = kind;
  span.off = off + sizeof rec;
  span.len = static_cast<uint32_t>(n);
  span.crc = crc;
  spans.push_back(span);
  ++entries_;
  ++appends_;
  bytes_appended_ += kHeaderBytes + body_len;
  metrics().appends.add(1);
  metrics().bytes.add(kHeaderBytes + body_len);
}

bool CacheStore::flush(std::string* error) {
  std::lock_guard lock(mu_);
  if (!file_.is_open()) {
    if (error) *error = "not open";
    return false;
  }
  file_.set_user(0, entries_);
  return file_.flush(error);
}

CacheStore::Stats CacheStore::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.entries = entries_;
  s.hits = hits_;
  s.misses = misses_;
  s.appends = appends_;
  s.bytes_appended = bytes_appended_;
  s.pages = file_.stats();
  return s;
}

}  // namespace mbird::store
