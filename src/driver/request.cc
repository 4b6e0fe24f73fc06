#include "driver/request.h"

#include "nvme/inline_wire.h"

namespace bx::driver {

std::string_view transfer_method_name(TransferMethod method) noexcept {
  switch (method) {
    case TransferMethod::kPrp: return "prp";
    case TransferMethod::kSgl: return "sgl";
    case TransferMethod::kByteExpress: return "byteexpress";
    case TransferMethod::kByteExpressOoo: return "byteexpress_ooo";
    case TransferMethod::kBandSlim: return "bandslim";
    case TransferMethod::kAuto: return "auto";
  }
  return "?";
}

std::uint32_t inline_slots_for(TransferMethod method,
                               std::uint64_t payload_len) noexcept {
  switch (method) {
    case TransferMethod::kByteExpress:
      return nvme::inline_chunk::raw_chunks_for(payload_len);
    case TransferMethod::kByteExpressOoo:
      return nvme::inline_chunk::ooo_chunks_for(payload_len);
    default:
      return 0;
  }
}

}  // namespace bx::driver
