#include "nvme/spec.h"

namespace bx::nvme {

std::string_view io_opcode_name(IoOpcode op) noexcept {
  switch (op) {
    case IoOpcode::kFlush: return "flush";
    case IoOpcode::kWrite: return "write";
    case IoOpcode::kRead: return "read";
    case IoOpcode::kVendorKvStore: return "kv_store";
    case IoOpcode::kVendorKvRetrieve: return "kv_retrieve";
    case IoOpcode::kVendorKvDelete: return "kv_delete";
    case IoOpcode::kVendorKvExist: return "kv_exist";
    case IoOpcode::kVendorKvIterate: return "kv_iterate";
    case IoOpcode::kVendorCsdFilter: return "csd_filter";
    case IoOpcode::kVendorBandSlimFragment: return "bandslim_fragment";
    case IoOpcode::kVendorRawWrite: return "raw_write";
    case IoOpcode::kVendorRawRead: return "raw_read";
    case IoOpcode::kVendorPartialWrite: return "partial_write";
  }
  return "unknown";
}

bool is_write_direction(IoOpcode op) noexcept {
  switch (op) {
    case IoOpcode::kWrite:
    case IoOpcode::kVendorRawWrite:
    case IoOpcode::kVendorKvStore:
    case IoOpcode::kVendorCsdFilter:
    case IoOpcode::kVendorPartialWrite:
      return true;
    default:
      return false;
  }
}

bool is_read_direction(IoOpcode op) noexcept {
  switch (op) {
    case IoOpcode::kRead:
    case IoOpcode::kVendorRawRead:
    case IoOpcode::kVendorKvRetrieve:
    case IoOpcode::kVendorKvIterate:
      return true;
    default:
      return false;
  }
}

}  // namespace bx::nvme
