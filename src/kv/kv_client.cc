#include "kv/kv_client.h"

#include <cstring>

#include "kv/kv_wire.h"

namespace bx::kv {

using driver::IoRequest;
using nvme::IoOpcode;

KvClient::KvClient(driver::NvmeDriver& driver, Options options)
    : driver_(driver), options_(options) {}

Status KvClient::fill_key(IoRequest& request, std::string_view key) {
  if (key.empty() || key.size() > nvme::KvKeyFields::kMaxKeyBytes) {
    return invalid_argument("key must be 1..16 bytes");
  }
  request.key.key_len = static_cast<std::uint8_t>(key.size());
  std::memcpy(request.key.key, key.data(), key.size());
  return Status::ok();
}

Status KvClient::put(std::string_view key, ConstByteSpan value) {
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvStore;
  request.method = options_.method;
  request.write_data = value;
  BX_RETURN_IF_ERROR(fill_key(request, key));
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) {
    const auto status = completion->status;
    if (status.type == nvme::StatusCodeType::kVendor &&
        status.code ==
            static_cast<std::uint8_t>(nvme::VendorStatus::kKvStoreFull)) {
      return resource_exhausted("KV store full");
    }
    return internal_error("KV store failed: device status");
  }
  return Status::ok();
}

StatusOr<ByteVec> KvClient::get(std::string_view key) {
  ByteVec buffer(options_.get_buffer_bytes);
  for (int attempt = 0; attempt < 2; ++attempt) {
    IoRequest request;
    request.opcode = IoOpcode::kVendorKvRetrieve;
    request.method = options_.method;
    request.read_buffer = buffer;
    BX_RETURN_IF_ERROR(fill_key(request, key));
    auto completion = driver_.execute(request, options_.qid);
    BX_RETURN_IF_ERROR(completion.status());
    last_ = *completion;
    if (!completion->ok()) {
      const auto status = completion->status;
      if (status.type == nvme::StatusCodeType::kVendor &&
          status.code ==
              static_cast<std::uint8_t>(nvme::VendorStatus::kKvKeyNotFound)) {
        return not_found("key not found");
      }
      return internal_error("KV retrieve failed: device status");
    }
    // DW0 reports the full value size; retry with a bigger buffer if ours
    // was too small.
    if (completion->dw0 > buffer.size()) {
      buffer.resize(completion->dw0);
      continue;
    }
    buffer.resize(completion->dw0);
    return buffer;
  }
  return internal_error("value kept growing across retries");
}

StatusOr<bool> KvClient::del(std::string_view key) {
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvDelete;
  request.method = options_.method;
  BX_RETURN_IF_ERROR(fill_key(request, key));
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) {
    return internal_error("KV delete failed: device status");
  }
  return completion->dw0 != 0;
}

StatusOr<bool> KvClient::exist(std::string_view key) {
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvExist;
  request.method = options_.method;
  BX_RETURN_IF_ERROR(fill_key(request, key));
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) {
    return internal_error("KV exist failed: device status");
  }
  return completion->dw0 != 0;
}

namespace {

/// Parses the [u8 klen][u16 vlen][key][value]... stream.
std::vector<KvEntry> parse_entry_stream(const ByteVec& buffer,
                                        std::size_t end) {
  std::vector<KvEntry> out;
  std::size_t offset = 0;
  while (offset + 3 <= end) {
    const std::uint8_t key_len = buffer[offset];
    if (key_len == 0) break;
    std::uint16_t value_len = 0;
    std::memcpy(&value_len, buffer.data() + offset + 1, sizeof(value_len));
    if (offset + 3 + key_len + value_len > end) break;
    KvEntry entry;
    entry.key.assign(
        reinterpret_cast<const char*>(buffer.data()) + offset + 3, key_len);
    entry.value.assign(
        buffer.begin() + static_cast<std::ptrdiff_t>(offset + 3 + key_len),
        buffer.begin() +
            static_cast<std::ptrdiff_t>(offset + 3 + key_len + value_len));
    out.push_back(std::move(entry));
    offset += 3 + key_len + value_len;
  }
  return out;
}

}  // namespace

StatusOr<std::vector<KvEntry>> KvClient::scan(std::string_view start,
                                              std::uint32_t limit) {
  ByteVec buffer(64 * 1024);
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvIterate;
  request.method = options_.method;
  request.read_buffer = buffer;
  request.aux = wire::encode_iterate_aux(wire::IterateSubOp::kScan, limit);
  BX_RETURN_IF_ERROR(fill_key(request, start));
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) {
    return internal_error("KV iterate failed: device status");
  }
  return parse_entry_stream(buffer, completion->bytes_returned);
}

StatusOr<std::uint32_t> KvClient::iter_open(std::string_view start) {
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvIterate;
  request.method = options_.method;
  request.aux = wire::encode_iterate_aux(wire::IterateSubOp::kOpen, 0);
  BX_RETURN_IF_ERROR(fill_key(request, start));
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) return internal_error("iterator open rejected");
  return completion->dw0;
}

StatusOr<std::vector<KvEntry>> KvClient::iter_next(std::uint32_t id,
                                                   std::uint32_t count) {
  ByteVec buffer(64 * 1024);
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvIterate;
  request.method = options_.method;
  request.read_buffer = buffer;
  request.aux = wire::encode_iterate_aux(wire::IterateSubOp::kNext, count);
  request.key = wire::iterator_id_key(id);
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) {
    const auto status = completion->status;
    if (status.type == nvme::StatusCodeType::kVendor &&
        status.code ==
            static_cast<std::uint8_t>(nvme::VendorStatus::kKvKeyNotFound)) {
      return not_found("unknown iterator");
    }
    return internal_error("iterator next rejected");
  }
  return parse_entry_stream(buffer, completion->bytes_returned);
}

Status KvClient::iter_close(std::uint32_t id) {
  IoRequest request;
  request.opcode = IoOpcode::kVendorKvIterate;
  request.method = options_.method;
  request.aux = wire::encode_iterate_aux(wire::IterateSubOp::kClose, 0);
  request.key = wire::iterator_id_key(id);
  auto completion = driver_.execute(request, options_.qid);
  BX_RETURN_IF_ERROR(completion.status());
  last_ = *completion;
  if (!completion->ok()) return not_found("unknown iterator");
  return Status::ok();
}

KvClient::RangeIterator& KvClient::RangeIterator::operator=(
    RangeIterator&& other) noexcept {
  if (this != &other) {
    if (client_ != nullptr) (void)client_->iter_close(id_);
    client_ = other.client_;
    id_ = other.id_;
    other.client_ = nullptr;
  }
  return *this;
}

KvClient::RangeIterator::~RangeIterator() {
  if (client_ != nullptr) (void)client_->iter_close(id_);
}

StatusOr<std::vector<KvEntry>> KvClient::RangeIterator::next(
    std::uint32_t count) {
  if (client_ == nullptr) return failed_precondition("iterator moved-from");
  return client_->iter_next(id_, count);
}

StatusOr<KvClient::RangeIterator> KvClient::range(std::string_view start) {
  auto id = iter_open(start);
  BX_RETURN_IF_ERROR(id.status());
  return RangeIterator(this, *id);
}

}  // namespace bx::kv
